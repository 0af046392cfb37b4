#!/usr/bin/env python3
"""Record a base-vs-change comparison of the repository benchmark.

    python3 scripts/bench_record.py --base DIR --out BENCH_21.json \
        --pairs analyze=10 --pairs htap=10 --pairs ingest=5 \
        --pairs overflow=5 --traced-pairs htap=3 --seed 9100

DIR is a second checkout of the commit to compare against, for example
`git worktree add ../dgap-base HEAD~1`. For every workload the script runs N
pairs of `python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0`: one in DIR (the base) and one in this checkout (the change),
on the same seed, alternating which side goes first. T is BENCHMARK.json's
run_seconds. Pair i of a workload uses seed S + 100 * k + i, where k is the
workload's position in BENCHMARK.json's workload list, so seeds never
repeat across workloads.

--traced-pairs W=N runs N more pairs of W the same way but with --trace 1,
on seeds S + 100 * k + 50 + i, and records each side's median of every
per-layer metric in BENCHMARK.json that the workload reports. A traced run
reports no end-to-end metrics, so traced pairs never enter the verdicts.

The record holds, per workload and per end-to-end metric in
BENCHMARK.json: each side's median, quartiles and IQR over the pairs, the
pairs the change won, the median gap in the metric's "worse" direction and
whether it is within the metric's bound, and whether either side's own
spread (IQR over median) exceeds the bound, in which case a gap of that
size cannot be told from noise and the metric reads "unresolved". It also
holds every run's verdict and end-to-end metrics, both sides' revisions,
the seeds, `nproc` and the latency-model state. A revision is HEAD plus the
git tree of the tracked files as measured and the object of each top-level
entry, so a run on uncommitted edits can be tied to the commit that lands
them (`git ls-tree COMMIT` lists the same objects for unchanged entries).
The script reads BENCHMARK.json and perfbench/ and writes neither; each
side's run.py builds into its own .bench_build/.
"""
import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# perfbench configures the media model itself (perfbench/src/common.cpp,
# configure_media_model): the Optane write model is on in every workload.
LATENCY_MODEL = "on: perfbench's fixed configuration (Optane write model)"


def log(msg):
    print(f"bench_record: {msg}", file=sys.stderr, flush=True)


def git(cwd, *args):
    return subprocess.run(["git", *args], cwd=cwd, check=True, text=True,
                          stdout=subprocess.PIPE).stdout.strip()


def revision(cwd):
    """HEAD and the tree of the tracked files as they are measured."""
    head = git(cwd, "rev-parse", "HEAD")
    # `stash create` commits uncommitted tracked edits without touching the
    # checkout or any ref; only its tree is recorded, as the commit itself
    # is never referenced and will not be the commit that lands the edits.
    measured = git(cwd, "stash", "create") or head
    entries = {}
    for line in git(cwd, "ls-tree", measured).splitlines():
        meta, name = line.split("\t", 1)
        entries[name] = meta.split()[2]
    return {"head": head, "dirty": measured != head,
            "tree": git(cwd, "rev-parse", measured + "^{tree}"),
            "entries": entries}


def run_one(checkout, workload, seed, seconds, names, trace="0"):
    """One run.py invocation; keeps its verdict and the named metrics it
    reports (a workload reports only the per-layer metrics it exercises)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", trace]
    done = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode == 2 or not lines:
        sys.stderr.write(done.stderr[-4000:])
        raise SystemExit(f"bench_record: run failed in {checkout}: "
                         + " ".join(cmd))
    rec = json.loads(lines[-1])
    return {"status": done.returncode, "correct": rec["correct"],
            "attempted": rec["attempted"], "failed": rec["failed"],
            "metrics": {n: rec["metrics"][n]["value"] for n in names
                        if n in rec["metrics"]}}


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(runs, spec):
    """Per end-to-end metric: both sides' spread, wins and the bound test."""
    out = {}
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        higher = m["better"] == "higher"
        sides = {}
        for side in ("base", "change"):
            vals = [r[side]["metrics"][name] for r in runs]
            q1, med, q3 = quartiles(vals)
            sides[side] = {"median": med, "q1": q1, "q3": q3,
                           "iqr": q3 - q1}
        base, change = sides["base"]["median"], sides["change"]["median"]
        # Positive = the change is worse, as a fraction of the base median.
        worse = (base - change) if higher else (change - base)
        gap = worse / base if base else 0.0
        pairs = [(r["base"]["metrics"][name], r["change"]["metrics"][name])
                 for r in runs]
        wins = sum(1 for b, c in pairs if c != b and (c > b) == higher)
        spread = max((s["iqr"] / s["median"]) if s["median"] else 0.0
                     for s in sides.values())
        out[name] = {
            "better": m["better"], "bound": bound, **sides,
            "worse_gap": gap, "within_bound": gap <= bound,
            "change_wins": wins, "pairs": len(runs),
            "spread": spread,
            "verdict": ("unresolved" if spread > bound else
                        "within bound" if gap <= bound else "worse"),
        }
    return out


def layer_medians(runs, spec):
    """Per per-layer metric reported by every run: each side's median."""
    out = {}
    for m in spec["per_layer"]:
        name = m["name"]
        if not all(name in r[side]["metrics"] for r in runs
                   for side in ("base", "change")):
            continue
        out[name] = {"unit": m["unit"], "better": m["better"]}
        for side in ("base", "change"):
            out[name][side] = statistics.median(
                r[side]["metrics"][name] for r in runs)
    return out


def parse_pairs(p, items, workloads):
    plan = []
    for item in items:
        w, _, n = item.partition("=")
        if w not in workloads or not n.isdigit() or int(n) < 1:
            p.error(f"expected WORKLOAD=N, got {item!r}")
        plan.append((w, int(n)))
    return plan


def run_pairs(base, workload, seeds, seconds, names, trace):
    """Alternating base/change runs, one pair per seed."""
    runs = []
    for i, seed in enumerate(seeds):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_one(base if side == "base" else ROOT, workload,
                                 seed, seconds, names, trace)
        tp = [pair[s]["metrics"].get("throughput_meps")
              for s in ("base", "change")]
        log(f"{workload} seed {seed} trace {trace}" +
            ("" if None in tp else
             f": throughput_meps base {tp[0]:.3f} change {tp[1]:.3f}"))
        runs.append(pair)
    return runs


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, type=Path,
                   help="checkout of the commit to compare against")
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--pairs", action="append", default=[],
                   metavar="WORKLOAD=N")
    p.add_argument("--traced-pairs", action="append", default=[],
                   metavar="WORKLOAD=N")
    p.add_argument("--seed", required=True, type=int)
    a = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    names = [m["name"] for m in spec["end_to_end"]]
    layer_names = [m["name"] for m in spec["per_layer"]]
    plan = parse_pairs(p, a.pairs, workloads)
    traced_plan = parse_pairs(p, a.traced_pairs, workloads)
    if not plan and not traced_plan:
        p.error("give at least one --pairs or --traced-pairs")
    base = a.base.resolve()
    if not (base / "perfbench" / "run.py").is_file():
        p.error(f"{base} has no perfbench/run.py")

    record = {
        "command": "python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {seconds:g} --trace 0 (--trace 1 for the "
                   "traced pairs)",
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
        "nproc": os.cpu_count(),
        "latency_model": LATENCY_MODEL,
        "base": revision(base),
        "change": revision(ROOT),
        "workloads": {},
    }
    for w, n in plan:
        seeds = [a.seed + 100 * workloads.index(w) + i for i in range(n)]
        runs = run_pairs(base, w, seeds, seconds, names, "0")
        record["workloads"].setdefault(w, {}).update({
            "seeds": seeds,
            "correct": {s: all(r[s]["correct"] for r in runs)
                        for s in ("base", "change")},
            "failed": {s: sum(r[s]["failed"] for r in runs)
                       for s in ("base", "change")},
            "attempted": {s: sum(r[s]["attempted"] for r in runs)
                          for s in ("base", "change")},
            "metrics": summarize(runs, spec),
            "runs": runs,
        })
        a.out.write_text(json.dumps(record, indent=1) + "\n")
    for w, n in traced_plan:
        seeds = [a.seed + 100 * workloads.index(w) + 50 + i
                 for i in range(n)]
        runs = run_pairs(base, w, seeds, seconds, layer_names, "1")
        record["workloads"].setdefault(w, {})["traced"] = {
            "seeds": seeds,
            "correct": {s: all(r[s]["correct"] for r in runs)
                        for s in ("base", "change")},
            "per_layer": layer_medians(runs, spec),
            "runs": runs,
        }
        a.out.write_text(json.dumps(record, indent=1) + "\n")
    for w, rec in record["workloads"].items():
        for name, m in rec.get("traced", {}).get("per_layer", {}).items():
            print(f"{w:9s} traced {name:30s} base {m['base']:10.4g} "
                  f"change {m['change']:10.4g} {m['unit']}")
        for name, m in rec.get("metrics", {}).items():
            print(f"{w:9s} {name:16s} base {m['base']['median']:10.4g} "
                  f"change {m['change']['median']:10.4g} "
                  f"gap {100 * m['worse_gap']:+6.1f}% "
                  f"wins {m['change_wins']}/{m['pairs']} {m['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
