#!/usr/bin/env python3
"""Tests of perfbench/run.py's output checks and metric declarations.

    python3 perfbench/test_run.py

Needs no build: the checks run on synthetic harness records.
"""

import contextlib
import copy
import io
import json
import unittest
from pathlib import Path

import run


def good_run():
    return {
        "workload": "hid-steady", "seed": 1, "mode": "plain", "nodes": 4,
        "build": {"type": "Release", "ndebug": True, "compiler": "GNU"},
        "timing": {"construct_s": 0.001, "setup_s": 0.01, "run_s": 1.0,
                   "results_s": 0.001, "wall_s": 1.012},
        "run_slices_s": [0.5, 0.5],
        "events": 1000, "run_events": 1000, "peak_rss_bytes": 4096,
        "fingerprint": "00000000deadbeef", "messages": 12,
        "traffic": [
            {"type": "state-update", "sent": 10, "delivered": 7, "lost": 1,
             "partitioned": 0, "in_flight": 2, "synthetic": 0},
            {"type": "maintenance", "sent": 2, "delivered": 0, "lost": 0,
             "partitioned": 0, "in_flight": 0, "synthetic": 2},
        ],
        "mem": {"can.space": 1024, "sim.event_queue": 1024},
    }


class CheckTest(unittest.TestCase):
    def test_identical_runs_pass(self):
        runs = [good_run() for _ in range(3)]
        self.assertEqual(run.check_set(runs), [[], [], []])

    def test_perturbed_fingerprint_is_a_failed_run(self):
        runs = [good_run() for _ in range(3)]
        runs[1]["fingerprint"] = "00000000deadbeee"
        problems = run.check_set(runs)
        self.assertEqual([bool(p) for p in problems], [False, True, False])
        self.assertIn("fingerprint", problems[1][0])

    def test_broken_conservation_is_a_failed_run(self):
        runs = [good_run() for _ in range(3)]
        runs[2]["traffic"][0]["lost"] += 1
        problems = run.check_set(runs)
        self.assertEqual([bool(p) for p in problems], [False, False, True])
        self.assertIn("state-update", problems[2][0])

    def test_invariant_violation_and_harness_error_fail(self):
        traced = good_run()
        traced["invariants"] = {"violations": ["zones overlap"]}
        problems = run.check_set([good_run(), traced, {"error": "exit 134"}])
        self.assertEqual([bool(p) for p in problems], [False, True, True])

    def test_debug_build_is_refused(self):
        r = good_run()
        run.check_build(r)
        for build in ({"type": "Debug", "ndebug": True},
                      {"type": "Release", "ndebug": False}):
            r["build"] = build
            with self.assertRaises(run.Refused):
                run.check_build(r)

    def test_end_to_end_reassembles_fastest_slices(self):
        runs = [good_run() for _ in range(3)]
        slices = ([0.4, 0.3, 0.3], [0.2, 0.6, 0.3], [0.5, 0.5, 0.1])
        for r, sl, setup in zip(runs, slices, (0.3, 0.1, 0.2)):
            r["run_slices_s"] = sl
            r["timing"] = dict(r["timing"], run_s=sum(sl), setup_s=setup)
        m = run.end_to_end(runs)
        self.assertAlmostEqual(m["events_per_s"], 1000 / 0.6)
        self.assertAlmostEqual(m["wall_s"], 0.101 + 0.6 + 0.001)
        self.assertAlmostEqual(m["setup_s"], 0.201)
        self.assertEqual(m["peak_rss_bytes_per_node"], 1024.0)

    def test_per_layer_reports_every_declared_metric(self):
        plain = good_run()
        traced = copy.deepcopy(plain)
        traced["timing"]["wall_s"] = plain["timing"]["wall_s"] * 1.25
        traced["layers"] = {k: 1.0 for k in run.PER_LAYER
                            if not k.startswith(("mem.", "trace.overhead"))}
        m = run.per_layer(plain, traced)
        self.assertEqual(list(m), list(run.PER_LAYER))
        self.assertAlmostEqual(m["trace.overhead_frac"], 0.25)
        self.assertEqual(m["mem.can.space.bytes_per_node"], 256.0)
        self.assertEqual(m["mem.gossip.views.bytes_per_node"], 0.0)
        self.assertAlmostEqual(m["mem.accounted_frac"], 0.5)


class MeasureTest(unittest.TestCase):
    """A failed check reaches the result line and the exit code."""

    def measure(self, runs, trace=False):
        calls = iter(runs)
        saved = run.build, run.run_harness
        run.build = lambda: None
        run.run_harness = lambda workload, seed, traced: next(calls)
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = run.measure("hid-steady", 1, 0.0, trace)
        finally:
            run.build, run.run_harness = saved
        return code, json.loads(out.getvalue().splitlines()[-1])

    def test_clean_set_reports_every_end_to_end_metric(self):
        code, result = self.measure([good_run() for _ in range(3)])
        self.assertEqual(code, 0)
        self.assertEqual((result["correct"], result["attempted"],
                          result["failed"]), (True, 3, 0))
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                         run.END_TO_END)

    def test_perturbed_run_fails_the_command(self):
        for breakage in ("fingerprint", "conservation"):
            runs = [good_run() for _ in range(3)]
            if breakage == "fingerprint":
                runs[0]["fingerprint"] = "0000000000000000"
            else:
                runs[0]["traffic"][1]["synthetic"] = 1
            code, result = self.measure(runs)
            self.assertEqual(code, 1, breakage)
            self.assertEqual((result["correct"], result["failed"]),
                             (False, 1), breakage)


class DeclarationTest(unittest.TestCase):
    """BENCHMARK.json must declare exactly the metrics run.py prints."""

    def test_benchmark_json_matches(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER)

    def test_harness_knows_every_workload(self):
        source = (Path(run.BENCH_DIR) / "harness.cpp").read_text()
        for w in run.WORKLOADS:
            self.assertIn(f'{{"{w}",', source)


if __name__ == "__main__":
    unittest.main()
