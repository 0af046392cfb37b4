#!/usr/bin/env python3
"""Tests of the benchmark itself (not of the library).

    python3 perfbench/test_perfbench.py

Builds the binary through run.py, then: a tiny smoke run of each workload
untraced and traced; every emitted metric name matches [A-Za-z0-9_.-]+ and
appears in BENCHMARK.json with the same unit; each oracle check catches a
deliberately injected mismatch and reports it, and no other; the emitted
record parses; BENCHMARK.json and spec.json follow their formats; and the
command fails without a record where only the benchmark files exist.
"""
import json
import os
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (the benchmark's own entry point)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
WORKLOADS = ("ingest", "analyze", "htap", "overflow")
# Every oracle check by workload and --inject name, with the failure line it
# prints when it fires.
CHECKS = {
    "ingest": {"reopen": "ingest: reopened store differs from the stream"},
    "analyze": {"pr": "analyze: PR diverged",
                "cc": "analyze: CC labels diverged",
                "bfs": "analyze: BFS depths diverged",
                "bc": "analyze: BC diverged"},
    "overflow": {"pr": "overflow: PR diverged",
                 "cc": "overflow: CC labels diverged"},
    "htap": {"cut": "htap: final cut differs from the insert/delete oracle",
             "incr_pr": "htap: incremental PR off the full kernel",
             "incr_cc": "htap: incremental CC labels differ"},
}


def bench_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_tiny(workload, trace, inject="none"):
    """Run one tiny-size workload; returns (exit code, record or None,
    the FAILED lines of stderr).

    The binary's stderr (progress, expected FAILED lines) is kept out of
    the test output unless the run did not produce a record.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace),
           "--size", "tiny", "--inject", inject]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=300)
    lines = done.stdout.strip().splitlines()
    if not lines:
        sys.stderr.write(done.stderr[-4000:])
    record = json.loads(lines[-1]) if lines else None
    failures = [line for line in done.stderr.splitlines()
                if line.startswith("FAILED: ")]
    return done.returncode, record, failures


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if run.build() is None:
            raise RuntimeError("perfbench build failed")
        cls.spec = bench_json()

    def check_record(self, record, trace):
        self.assertEqual(set(record), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertIsInstance(record["attempted"], int)
        self.assertIsInstance(record["failed"], int)
        self.assertGreaterEqual(record["attempted"], 1)
        listed = {m["name"]: m["unit"] for m in
                  self.spec["per_layer" if trace else "end_to_end"]}
        self.assertEqual(set(record["metrics"]), set(listed))
        for name, m in record["metrics"].items():
            self.assertRegex(name, NAME)
            self.assertEqual(m["unit"], listed[name], name)
            self.assertIsInstance(m["value"], (int, float))

    def test_smoke_every_workload(self):
        for w in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=w, trace=trace):
                    code, record, failures = run_tiny(w, trace)
                    self.assertEqual(code, 0)
                    self.assertEqual(failures, [])
                    self.assertTrue(record["correct"])
                    self.assertEqual(record["failed"], 0)
                    self.check_record(record, trace)
                    m = record["metrics"]
                    if trace == 0:
                        for name, v in m.items():
                            self.assertGreater(v["value"], 0, name)
                    else:
                        self.assertGreaterEqual(m["samples.latency"]["value"], 1)
                        self.assertGreaterEqual(m["samples.rounds"]["value"], 1)

    def test_injected_mismatch_is_caught(self):
        for w, checks in CHECKS.items():
            for inject, message in checks.items():
                with self.subTest(workload=w, check=inject):
                    code, record, failures = run_tiny(w, 0, inject)
                    self.assertEqual(code, 1)
                    self.assertFalse(record["correct"])
                    self.assertGreaterEqual(record["failed"], 1)
                    self.check_record(record, 0)
                    self.assertTrue(failures)
                    for line in failures:
                        self.assertIn(message, line)

    def test_inject_rejects_a_check_the_workload_lacks(self):
        code, record, _ = run_tiny("overflow", 0, "bfs")
        self.assertEqual(code, 2)
        self.assertIsNone(record)

    def test_benchmark_json_format(self):
        s = self.spec
        self.assertEqual(set(s), {"command", "paths", "run_seconds",
                                  "workloads", "end_to_end", "per_layer"})
        self.assertTrue(1 <= s["run_seconds"] <= 60)
        self.assertTrue(2 <= len(s["workloads"]) <= 8)
        self.assertEqual([w["name"] for w in s["workloads"]], list(WORKLOADS))
        for w in s["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        names = [m["name"] for m in s["end_to_end"] + s["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for m in s["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in s["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in s["end_to_end"]))
        for m in s["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in s["end_to_end"] + s["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        self.assertEqual(s["paths"], ["perfbench"])
        self.assertLess(len((ROOT / "BENCHMARK.json").read_bytes()), 64 << 10)

    def test_spec_covers_every_metric(self):
        spec = json.loads((HERE / "spec.json").read_text())
        listed = {m["name"] for m in
                  self.spec["end_to_end"] + self.spec["per_layer"]}
        self.assertEqual(set(spec["metrics"]), listed)
        workloads = set(WORKLOADS)
        e2e = {m["name"] for m in self.spec["end_to_end"]}
        for name, m in spec["metrics"].items():
            self.assertTrue(m["layer"], name)
            self.assertLessEqual(set(m.get("zero_or_flat_on", [])), workloads)
            for move in m.get("moves", []):
                self.assertIn(move["metric"], e2e, name)
                self.assertIn(move["workload"], workloads, name)

    def test_fails_without_library_sources(self):
        bare = ROOT / ".bench_build" / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            cmd = self.spec["command"] + ["--workload", "analyze", "--seed",
                                          "1", "--seconds", "1", "--trace",
                                          "0"]
            done = subprocess.run(cmd, cwd=bare, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True,
                                  timeout=170)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    os.chdir(ROOT)
    unittest.main(verbosity=2)
