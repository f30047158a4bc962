"""Self-tests of the benchmark's own arithmetic and metadata.

    python3 perfbench/test_metrics.py

They need no build: derived metrics are checked against hand-made child
records, and BENCHMARK.json, workloads.json and layers.json against the
naming rules and each other.
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import metrics  # noqa: E402
import run  # noqa: E402

BENCH = run.load_json(os.path.join(run.ROOT, "BENCHMARK.json"))
CONFIG = run.load_json(os.path.join(run.HERE, "workloads.json"))
LAYERS = run.load_json(os.path.join(run.HERE, "layers.json"))

FP = {"events_processed": 100, "completed": 40, "generated": 50, "avg_delay_bits": "4000000000000000"}


def scenario_record(**overrides):
    """A traced scenario record as the child prints it, plus rusage."""
    r = {
        "wall_s": 2.0, "setup_s": 0.5, "parse_s": 1e-5, "validate_s": 1e-6,
        "rates_s": 0.2, "bounds_s": 0.3, "sim_run_s": 1.5, "sim_engine_s": 1.2,
        "text_s": 1e-4, "json_s": 2e-4, "events": 4_000_000, "completed": 1000,
        "generated": 1100, "dropped": 0, "ops": 1, "failed_ops": 0, "fingerprint": FP,
        "shard_events": [3_000_000.0, 1_000_000.0], "shard_cut": [10.0, 15.0],
        "topology_build_s": 1e-7, "partition_s": 0.01, "table_build_s": 0.0,
        "calendar_run_s": 2.25, "hold_ns_calendar": 60.0,
        "hold_ns_heap": 90.0, "cpu_s": 2.5, "peak_rss_mb": 100.0, "slowdown": 1.0,
    }
    r.update(overrides)
    return r


def sweep_record(**overrides):
    r = scenario_record()
    for key in ("rates_s", "bounds_s", "sim_run_s", "sim_engine_s", "shard_events",
                "shard_cut", "calendar_run_s"):
        del r[key]
    r.update({"setup_s": 0.4, "cell_sim_s": 6.0, "speedup": 1.625,
              "cells": 32, "ops": 32, "failed_ops": 1, "failed_names": ["bad-cell"]})
    r.update(overrides)
    return r


class DerivedMetrics(unittest.TestCase):
    def test_ns_per_event(self):
        self.assertAlmostEqual(metrics.ns_per_event(1.2, 4_000_000), 300.0)
        self.assertEqual(metrics.ns_per_event(0.0, 0), 0.0)

    def test_shard_imbalance(self):
        self.assertAlmostEqual(metrics.shard_imbalance([3e6, 1e6]), 1.5)
        self.assertEqual(metrics.shard_imbalance([7.0]), 1.0)
        self.assertEqual(metrics.shard_imbalance([]), 0.0)

    def test_delivered_per_s(self):
        self.assertAlmostEqual(
            metrics.delivered_per_s({"completed": 1000, "wall_s": 2.0, "slowdown": 1.0}), 500.0)
        # A host running at half the reference speed doubles the wall time.
        self.assertAlmostEqual(
            metrics.delivered_per_s({"completed": 1000, "wall_s": 4.0, "slowdown": 2.0}), 500.0)

    def test_failed_frac(self):
        self.assertAlmostEqual(metrics.failed_frac(128, 4), 1 / 32)
        self.assertEqual(metrics.failed_frac(3, 0), 0.0)

    def test_end_to_end_samples(self):
        s = metrics.end_to_end([scenario_record(), scenario_record(wall_s=4.0)])
        self.assertEqual(s["wall_s"], [2.0, 4.0])
        self.assertEqual(s["delivered_per_s"], [500.0, 250.0])
        self.assertEqual(sorted(s), sorted(m["name"] for m in BENCH["end_to_end"]))

    def test_end_to_end_at_reference_speed(self):
        # Times are divided by the slowdown; memory and counts are not.
        s = metrics.end_to_end([scenario_record(wall_s=3.0, setup_s=0.6, cpu_s=3.3, slowdown=1.5)])
        self.assertAlmostEqual(s["wall_s"][0], 2.0)
        self.assertAlmostEqual(s["setup_s"][0], 0.4)
        self.assertAlmostEqual(s["cpu_s"][0], 2.2)
        self.assertAlmostEqual(s["delivered_per_s"][0], 500.0)
        self.assertEqual(s["peak_rss_mb"], [100.0])

    def test_per_layer_scenario(self):
        v = metrics.per_layer(scenario_record(), untraced_wall_s=1.75)
        self.assertAlmostEqual(v["sim.ns_per_event"], 300.0)
        self.assertAlmostEqual(v["sim.dispatch_s"], 0.3)
        self.assertAlmostEqual(v["sim.shard.imbalance"], 1.5)
        self.assertEqual(v["sim.shard.events.max"], 3e6)
        self.assertEqual(v["sim.shard.handoffs"], 25.0)
        self.assertAlmostEqual(v["sim.shard.speedup_vs_calendar"], 1.5)
        self.assertAlmostEqual(v["trace_overhead_s"], 0.25)
        self.assertEqual(v["core.sweep.cells"], 0)

    def test_per_layer_sweep(self):
        v = metrics.per_layer(sweep_record(), untraced_wall_s=2.0)
        self.assertAlmostEqual(v["sim.ns_per_event"], 1500.0)
        self.assertEqual(v["sim.dispatch_s"], 0.0)
        self.assertEqual(v["core.report.bounds_s"], 0.4)
        self.assertEqual(v["core.sweep.speedup"], 1.625)
        self.assertEqual(v["core.sweep.cells"], 32)
        self.assertEqual(v["sim.shard.imbalance"], 0.0)
        self.assertEqual(v["sim.shard.speedup_vs_calendar"], 0.0)

    def test_per_layer_covers_benchmark(self):
        names = sorted(m["name"] for m in BENCH["per_layer"])
        self.assertEqual(sorted(metrics.per_layer(scenario_record(), 1.0)), names)
        self.assertEqual(sorted(metrics.per_layer(sweep_record(), 1.0)), names)

    def test_tail_percentile(self):
        self.assertIsNone(metrics.tail_percentile(list(range(10))))
        self.assertEqual(metrics.tail_percentile(list(range(11))), (9, 0))
        p, v = metrics.tail_percentile(list(range(1, 101)))
        self.assertEqual((p, v), (90, 90))  # ten samples (91..100) beyond it


class CorrectnessGate(unittest.TestCase):
    WL = {"fingerprint": FP, "ops": 1, "known_failures": []}

    def test_pinned_seed(self):
        r = scenario_record()
        self.assertEqual(metrics.check_run(self.WL, [r, r], use_pinned=True), ([], 2, 0))
        other = scenario_record(fingerprint=dict(FP, completed=41))
        problems, _, failed = metrics.check_run(self.WL, [r, other], use_pinned=True)
        self.assertTrue(problems)
        self.assertEqual(failed, 1)

    def test_other_seed_requires_agreement(self):
        a = scenario_record(fingerprint=dict(FP, completed=7))
        b = scenario_record(fingerprint=dict(FP, completed=8))
        self.assertEqual(metrics.check_run(self.WL, [a, a, a], use_pinned=False), ([], 3, 0))
        self.assertTrue(metrics.check_run(self.WL, [a, b], use_pinned=False)[0])

    def test_missing_record_fails(self):
        problems, attempted, failed = metrics.check_run(self.WL, [scenario_record(), None], True)
        self.assertTrue(problems)
        self.assertEqual((attempted, failed), (2, 1))

    def test_operation_accounting(self):
        wl = {"fingerprint": FP, "ops": 32, "known_failures": ["bad-cell"]}
        good = sweep_record()
        self.assertEqual(metrics.check_run(wl, [good, good], use_pinned=True), ([], 64, 2))
        bad = sweep_record(fingerprint=dict(FP, generated=1))
        problems, attempted, failed = metrics.check_run(wl, [good, bad, None], use_pinned=True)
        self.assertTrue(problems)
        self.assertEqual((attempted, failed), (96, 1 + 32 + 32))

    def test_unexpected_failing_cell_is_a_problem(self):
        wl = {"fingerprint": FP, "ops": 32, "known_failures": []}
        problems, _, _ = metrics.check_run(wl, [sweep_record()], use_pinned=True)
        self.assertTrue(problems)


class Metadata(unittest.TestCase):
    def test_names_units_and_counts(self):
        self.assertEqual(metrics.check_names(BENCH), [])

    def test_rules_catch_bad_names(self):
        bad = json.loads(json.dumps(BENCH))
        bad["per_layer"].append({"name": "bad name", "unit": "s", "better": "lower"})
        bad["per_layer"].append({"name": "sim.run_s", "unit": "s", "better": "lower"})
        bad["end_to_end"] *= 4
        self.assertEqual(len(metrics.check_names(bad)), 3)

    def test_setup_metric_and_bounds(self):
        e2e = {m["name"]: m for m in BENCH["end_to_end"]}
        self.assertEqual((e2e["setup_s"]["unit"], e2e["setup_s"]["better"]), ("s", "lower"))
        bounds = [m["bound"] for m in BENCH["end_to_end"]]
        self.assertTrue(all(0 < b <= 0.25 for b in bounds))
        self.assertEqual(e2e["setup_s"]["bound"], max(bounds))

    def test_workloads_match(self):
        self.assertEqual([w["name"] for w in BENCH["workloads"]],
                         [w["name"] for w in CONFIG["workloads"]])
        for w in CONFIG["workloads"]:
            self.assertIn("seed={seed}", w["spec"])
            self.assertIn(w["threads"], (1, 2))  # calibrated as the workload runs, on ≤ 2 cores

    def test_layer_map(self):
        self.assertEqual(list(LAYERS), [m["name"] for m in BENCH["per_layer"]])
        workloads = {w["name"] for w in BENCH["workloads"]}
        targets = {m["name"] for m in BENCH["end_to_end"]} | {"failed_frac", "fingerprint"}
        for name, info in LAYERS.items():
            self.assertLessEqual(set(info["on"]) | set(info["near_zero_on"]), workloads, name)
            self.assertLessEqual(set(info["moves"]), targets, name)
            self.assertTrue(info["moves"] or info.get("note"), name)


if __name__ == "__main__":
    unittest.main()
