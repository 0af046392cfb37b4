#!/usr/bin/env python3
"""Unit tests for scripts/bench_record.py's statistics, on synthetic runs.

    python3 scripts/test_bench_record.py

No benchmark is run: the pair records are built by hand, so every median,
quartile, win count and verdict below can be checked by arithmetic.
"""
import importlib.util
import unittest
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "bench_record", Path(__file__).resolve().parent / "bench_record.py")
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)

SPEC = {
    "end_to_end": [
        {"name": "throughput_meps", "unit": "Medges/s", "better": "higher",
         "bound": 0.25},
        {"name": "latency_ms_p50", "unit": "ms", "better": "lower",
         "bound": 0.25},
    ],
    "per_layer": [
        {"name": "snapshot.delta_ms_p50", "unit": "ms", "better": "lower"},
        {"name": "tier.cold_reads", "unit": "count", "better": "lower"},
    ],
}


def pairs(metric, base, change):
    """Pair records in bench_record's layout from per-side value lists."""
    runs = []
    for i, (b, c) in enumerate(zip(base, change)):
        run = {"seed": i, "first": "base"}
        for side, v in (("base", b), ("change", c)):
            metrics = {m["name"]: 1.0 for m in SPEC["end_to_end"]}
            metrics[metric] = v
            run[side] = {"metrics": metrics}
        runs.append(run)
    return runs


class Quartiles(unittest.TestCase):
    def test_inclusive_quartiles(self):
        self.assertEqual(bench_record.quartiles([10, 11, 12, 13, 14]),
                         (11, 12, 13))

    def test_single_run_is_its_own_spread(self):
        self.assertEqual(bench_record.quartiles([7.5]), (7.5, 7.5, 7.5))


class Summarize(unittest.TestCase):
    def test_median_iqr_wins_within_bound(self):
        runs = pairs("throughput_meps", [10, 11, 12, 13, 14],
                     [12, 12, 14, 15, 13])
        m = bench_record.summarize(runs, SPEC)["throughput_meps"]
        self.assertEqual(m["base"]["median"], 12)
        self.assertEqual(m["base"]["iqr"], 2)
        self.assertEqual(m["change"]["median"], 13)
        self.assertEqual((m["change"]["q1"], m["change"]["q3"]), (12, 14))
        self.assertEqual(m["change_wins"], 4)  # all but the 14 -> 13 pair
        self.assertEqual(m["pairs"], 5)
        self.assertAlmostEqual(m["worse_gap"], -1 / 12)  # better: negative
        self.assertAlmostEqual(m["spread"], 2 / 12)
        self.assertEqual(m["verdict"], "within bound")

    def test_lower_is_better_and_ties_are_not_wins(self):
        runs = pairs("latency_ms_p50", [1.0, 1.0, 1.0, 1.0],
                     [2.0, 2.0, 1.0, 0.5])
        m = bench_record.summarize(runs, SPEC)["latency_ms_p50"]
        self.assertEqual(m["change_wins"], 1)  # 0.5 < 1.0; the tie is none
        self.assertAlmostEqual(m["worse_gap"], 0.5)  # median 1.5 vs 1.0

    def test_gap_beyond_bound_is_worse(self):
        runs = pairs("latency_ms_p50", [1.0, 1.0, 1.1, 1.0],
                     [1.3, 1.4, 1.3, 1.3])
        m = bench_record.summarize(runs, SPEC)["latency_ms_p50"]
        self.assertEqual(m["change_wins"], 0)
        self.assertAlmostEqual(m["worse_gap"], 0.3)
        self.assertFalse(m["within_bound"])
        self.assertEqual(m["verdict"], "worse")

    def test_spread_beyond_bound_is_unresolved(self):
        # Base IQR 2 (quartiles 1 and 3) over median 2: no gap of 25% can be
        # told from that noise, even with the change's median lower.
        runs = pairs("latency_ms_p50", [1, 1, 2, 3, 9], [1, 1, 1, 1, 1])
        m = bench_record.summarize(runs, SPEC)["latency_ms_p50"]
        self.assertAlmostEqual(m["spread"], 1.0)
        self.assertTrue(m["within_bound"])
        self.assertEqual(m["verdict"], "unresolved")


class LayerMedians(unittest.TestCase):
    def test_medians_of_reported_metrics_only(self):
        runs = pairs("throughput_meps", [1, 2, 3], [4, 5, 6])
        for i, v in enumerate((17.0, 11.0, 12.0)):
            runs[i]["base"]["metrics"]["snapshot.delta_ms_p50"] = v
            runs[i]["change"]["metrics"]["snapshot.delta_ms_p50"] = v / 2
        # Reported by one side of one run only: left out, not half-counted.
        runs[0]["base"]["metrics"]["tier.cold_reads"] = 3
        out = bench_record.layer_medians(runs, SPEC)
        self.assertEqual(out["snapshot.delta_ms_p50"]["base"], 12.0)
        self.assertEqual(out["snapshot.delta_ms_p50"]["change"], 6.0)
        self.assertEqual(out["snapshot.delta_ms_p50"]["unit"], "ms")
        self.assertNotIn("tier.cold_reads", out)
        self.assertNotIn("throughput_meps", out)  # end-to-end: not a layer


if __name__ == "__main__":
    unittest.main()
