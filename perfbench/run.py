#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload ingest|analyze|htap|overflow \
        --seed N --seconds S --trace 0|1 [--size full|tiny] [--inject CHECK]

Run it from anywhere inside a checkout. It configures and builds
perfbench/ (which pulls in the library from the checkout's own sources)
into .bench_build/perfbench, then runs the benchmark binary five times (two
at --size tiny), one after another, each process setting up on its own and
measuring its share of S seconds, and prints one record whose every metric
is the median across the processes (attempted and failed are summed). The
last line of stdout is that JSON record. Traced runs alternate which half
of a process is traced first, so order effects cancel in the median.
--inject corrupts the oracle of one named check (see src/main.cpp); the
benchmark's tests use it to show each check fires. Traced runs also write one span dump per process to
.bench_build/spans/<workload>-seed<N>-<i>.json. The exit status is 0 when
every process ran and matched its oracles, 1 when an output diverged, 2 on
a usage, build or run error (no record is printed then).

Several short processes instead of one long one: on a shared 4-core VM the
kernel times of one process stayed within a few percent for its whole life
but differed by up to 25% from one process to the next (start-up state such
as the library's busy-wait calibration), so a median across processes is
what makes two runs of the same code agree.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD = BUILD_ROOT / "perfbench"
WORKLOADS = ("ingest", "analyze", "htap", "overflow")
RUN_TIMEOUT_S = 175  # the whole run, all processes
PROCESSES = {"full": 5, "tiny": 2}


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then an incremental build; returns the binary path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"no library sources next to {HERE.name}/ (looked in {ROOT})")
        return None
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            log("build failed: " + " ".join(cmd))
            return None
    binary = BUILD / "perfbench"
    return binary if binary.is_file() else None


def run_processes(binary, a):
    """Run the binary PROCESSES[a.size] times; returns (status, records)."""
    scratch = BUILD_ROOT / "run"
    scratch.mkdir(parents=True, exist_ok=True)
    spans = BUILD_ROOT / "spans"
    if a.trace == "1":
        spans.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    records = []
    status = 0
    processes = PROCESSES[a.size]
    for i in range(processes):
        cmd = [str(binary), "--workload", a.workload, "--seed", str(a.seed),
               "--seconds", str(a.seconds / processes), "--trace", a.trace,
               "--traced-first", str(i % 2), "--size", a.size,
               "--inject", a.inject,
               "--scratch", str(scratch)]
        if a.trace == "1":
            cmd += ["--spans-out",
                    str(spans / f"{a.workload}-seed{a.seed}-{i}.json")]
        try:
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            log(f"run exceeded {RUN_TIMEOUT_S}s")
            return 2, []
        lines = done.stdout.strip().splitlines()
        if done.returncode not in (0, 1) or not lines:
            log(f"process {i} failed with status {done.returncode}")
            return 2, []
        records.append(json.loads(lines[-1]))
        status = max(status, done.returncode)
    return status, records


def combine(records):
    """One record: per-metric median across processes, counts summed."""
    metrics = {}
    for name, first in records[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in records]
        metrics[name] = {"value": statistics.median(values),
                         "unit": first["unit"]}
    return {"correct": all(r["correct"] for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "metrics": metrics}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    p.add_argument("--size", default="full", choices=("full", "tiny"))
    p.add_argument("--inject", default="none")
    a = p.parse_args()
    if a.seconds <= 0 or a.seed < 0:
        p.error("--seconds and --seed must be positive")

    binary = build()
    if binary is None:
        return 2
    status, records = run_processes(binary, a)
    if status == 2:
        return 2
    print(json.dumps(combine(records)), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
