#!/usr/bin/env python3
"""Unit tests for compare_bench.py, run from ctest (compare_bench_test).

Drives the comparator as a subprocess over temp JSON reports — the exit
status IS the contract CI depends on, so that is what gets asserted:
0 = all gates pass, 1 = regression or dropped metric, 2 = malformed input.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

COMPARE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "compare_bench.py")


def run_compare(baseline, current):
    """Writes the two dicts to temp files and runs compare_bench.py."""
    with tempfile.TemporaryDirectory() as tmp:
        base_path = os.path.join(tmp, "baseline.json")
        cur_path = os.path.join(tmp, "current.json")
        with open(base_path, "w", encoding="utf-8") as f:
            json.dump(baseline, f)
        with open(cur_path, "w", encoding="utf-8") as f:
            json.dump(current, f)
        return subprocess.run(
            [sys.executable, COMPARE, base_path, cur_path],
            capture_output=True, text=True, check=False)


def report(metrics, gates=None):
    return {"bench": "test", "metrics": metrics, "gates": gates or {}}


class CompareBenchTest(unittest.TestCase):

    def test_identical_reports_pass(self):
        base = report({"hit_rate": 0.99, "p99_us": 1500.0},
                      {"hit_rate": {"direction": "higher", "tol": 0.01},
                       "p99_us": {"direction": "lower", "tol": 0.2}})
        proc = run_compare(base, report(base["metrics"]))
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_within_tolerance_passes(self):
        base = report({"p99_us": 1000.0},
                      {"p99_us": {"direction": "lower", "tol": 0.2}})
        proc = run_compare(base, report({"p99_us": 1150.0}))
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_gated_regression_fails(self):
        base = report({"hit_rate": 0.99},
                      {"hit_rate": {"direction": "higher", "tol": 0.01}})
        proc = run_compare(base, report({"hit_rate": 0.50}))
        self.assertEqual(proc.returncode, 1, proc.stderr)
        self.assertIn("hit_rate", proc.stderr)

    def test_lower_direction_regression_fails(self):
        base = report({"p99_us": 1000.0},
                      {"p99_us": {"direction": "lower", "tol": 0.1}})
        proc = run_compare(base, report({"p99_us": 2000.0}))
        self.assertEqual(proc.returncode, 1, proc.stderr)

    def test_ungated_baseline_metric_missing_from_current_fails(self):
        # The new rule: a metric the baseline recorded but the current run
        # no longer reports is a hard failure even without a gate —
        # silently dropped coverage must not read as green.
        base = report({"hit_rate": 0.99, "partials": 96.0},
                      {"hit_rate": {"direction": "higher", "tol": 0.01}})
        proc = run_compare(base, report({"hit_rate": 0.99}))
        self.assertEqual(proc.returncode, 1, proc.stderr)
        self.assertIn("partials", proc.stderr)
        self.assertIn("missing from current", proc.stderr)

    def test_gated_metric_missing_from_current_fails(self):
        base = report({"hit_rate": 0.99},
                      {"hit_rate": {"direction": "higher", "tol": 0.01}})
        proc = run_compare(base, report({}))
        self.assertEqual(proc.returncode, 1, proc.stderr)

    def test_new_metric_in_current_is_informational(self):
        # Extra metrics in the new run (added before the baseline is
        # regenerated) must not fail the gate.
        base = report({"hit_rate": 0.99},
                      {"hit_rate": {"direction": "higher", "tol": 0.01}})
        proc = run_compare(base, report({"hit_rate": 0.99, "new_one": 1.0}))
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_gate_without_baseline_metric_warns_not_fails(self):
        base = report({}, {"future": {"direction": "higher", "tol": 0.1}})
        proc = run_compare(base, report({"future": 5.0}))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("regenerate the baseline", proc.stderr)

    def test_near_zero_baseline_gets_absolute_slack(self):
        base = report({"miss_rate": 0.0},
                      {"miss_rate": {"direction": "lower", "tol": 0.2}})
        proc = run_compare(base, report({"miss_rate": 0.005}))
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_zero_tolerance_gate_has_no_slack(self):
        # faults_per_tuple is 1,474 faults over 2,000 taps: a tolerance-0
        # gate must fail a rise of a few faults, which the near-zero
        # absolute slack would otherwise let through.
        base = report({"faults_per_tuple": 0.737},
                      {"faults_per_tuple": {"direction": "lower", "tol": 0}})
        proc = run_compare(base, report({"faults_per_tuple": 0.745}))
        self.assertEqual(proc.returncode, 1, proc.stderr)
        self.assertIn("faults_per_tuple", proc.stderr)
        proc = run_compare(base, report({"faults_per_tuple": 0.737}))
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_malformed_json_exits_2(self):
        with tempfile.TemporaryDirectory() as tmp:
            good = os.path.join(tmp, "good.json")
            bad = os.path.join(tmp, "bad.json")
            with open(good, "w", encoding="utf-8") as f:
                json.dump(report({}), f)
            with open(bad, "w", encoding="utf-8") as f:
                f.write("{not json")
            proc = subprocess.run([sys.executable, COMPARE, good, bad],
                                  capture_output=True, text=True, check=False)
            self.assertEqual(proc.returncode, 2, proc.stderr)

    def test_missing_file_exits_2(self):
        with tempfile.TemporaryDirectory() as tmp:
            good = os.path.join(tmp, "good.json")
            with open(good, "w", encoding="utf-8") as f:
                json.dump(report({}), f)
            proc = subprocess.run(
                [sys.executable, COMPARE, good,
                 os.path.join(tmp, "nope.json")],
                capture_output=True, text=True, check=False)
            self.assertEqual(proc.returncode, 2, proc.stderr)


if __name__ == "__main__":
    unittest.main()
