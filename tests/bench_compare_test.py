"""Unit tests for tools/bench_compare.py — the CI baseline gate.

Each test builds a baseline/current pair of BENCH_<name>.json documents in a
temp directory and runs the real tool as a subprocess, asserting on exit
status and output: the 2% virtual-time gate, direction-aware wall-gauge
gating, ratchet-candidate notes, --refresh rewriting exactly the stale
baselines, --exact document equality outside the host section and wall
gauges, and the sweep-curve comparison (which gates even under
--no-wall-gate because the curve derives from virtual time).

Run directly (python3 tests/bench_compare_test.py) or via CTest.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

TOOL = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                    "tools", "bench_compare.py")


def bench_doc(vt_ns, gauges=None):
    fams = {}
    for key, value in (gauges or {}).items():
        name, _, label = key.partition("/")
        fams.setdefault(name, {})[label or "total"] = value
    return {"bench": "x", "config": {}, "host": {}, "virtual_time_ns": vt_ns,
            "metrics": {"counters": {}, "gauges": fams, "histograms": {}}}


class BenchCompareTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.base_dir = os.path.join(self.dir.name, "baseline")
        self.cur_dir = os.path.join(self.dir.name, "current")
        os.makedirs(self.base_dir)
        os.makedirs(self.cur_dir)

    def tearDown(self):
        self.dir.cleanup()

    def write(self, directory, name, doc):
        path = os.path.join(directory, f"BENCH_{name}.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)
        return path

    def run_tool(self, *args):
        proc = subprocess.run(
            [sys.executable, TOOL, "--baseline", self.base_dir, "--current",
             self.cur_dir, *args],
            capture_output=True, text=True)
        return proc.returncode, proc.stdout + proc.stderr

    # --- virtual-time gate ---------------------------------------------------

    def test_within_default_tolerance_passes(self):
        self.write(self.base_dir, "a", bench_doc(100_000_000))
        self.write(self.cur_dir, "a", bench_doc(101_000_000))  # +1% < 2%
        code, out = self.run_tool("a")
        self.assertEqual(code, 0, out)
        self.assertIn("+1.00%", out)

    def test_regression_past_tolerance_fails(self):
        self.write(self.base_dir, "a", bench_doc(100_000_000))
        self.write(self.cur_dir, "a", bench_doc(103_000_000))  # +3% > 2%
        code, out = self.run_tool("a")
        self.assertEqual(code, 1, out)
        self.assertIn("REGRESSION", out)

    def test_per_bench_tolerance_override(self):
        self.write(self.base_dir, "a", bench_doc(100_000_000))
        self.write(self.cur_dir, "a", bench_doc(103_000_000))
        code, out = self.run_tool("--tolerance", "a=5.0", "a")
        self.assertEqual(code, 0, out)

    def test_missing_current_file_fails(self):
        self.write(self.base_dir, "a", bench_doc(100_000_000))
        code, out = self.run_tool("a")
        self.assertEqual(code, 1, out)
        self.assertIn("cannot load", out)

    # --- direction-aware wall gauges -----------------------------------------

    def test_wall_rate_drop_fails_rise_ratchets(self):
        gauges = {"scale.wall.events_per_sec": 1000.0}
        self.write(self.base_dir, "a", bench_doc(100, gauges))
        self.write(self.cur_dir, "a",
                   bench_doc(100, {"scale.wall.events_per_sec": 700.0}))  # -30%
        code, out = self.run_tool("a")
        self.assertEqual(code, 1, out)
        self.assertIn("higher-is-better", out)

        self.write(self.cur_dir, "a",
                   bench_doc(100, {"scale.wall.events_per_sec": 1500.0}))  # +50%
        code, out = self.run_tool("a")
        self.assertEqual(code, 0, out)
        self.assertIn("ratchet candidate", out)

    def test_wall_cost_rise_fails(self):
        self.write(self.base_dir, "a", bench_doc(100, {"scale.wall.p99_ns": 100.0}))
        self.write(self.cur_dir, "a", bench_doc(100, {"scale.wall.p99_ns": 200.0}))
        code, out = self.run_tool("a")
        self.assertEqual(code, 1, out)
        self.assertIn("lower-is-better", out)

    def test_no_wall_gate_reports_but_passes(self):
        self.write(self.base_dir, "a", bench_doc(100, {"scale.wall.p99_ns": 100.0}))
        self.write(self.cur_dir, "a", bench_doc(100, {"scale.wall.p99_ns": 200.0}))
        code, out = self.run_tool("--no-wall-gate", "a")
        self.assertEqual(code, 0, out)
        self.assertIn("WORSE", out)

    def test_metric_rule_overrides_band(self):
        self.write(self.base_dir, "a", bench_doc(100, {"scale.wall.p99_ns": 100.0}))
        self.write(self.cur_dir, "a", bench_doc(100, {"scale.wall.p99_ns": 200.0}))
        code, out = self.run_tool("--metric", "scale.wall.p99_ns=lower:150", "a")
        self.assertEqual(code, 0, out)

    # --- ratchet notes and --refresh -----------------------------------------

    def test_refresh_rewrites_exactly_the_stale_baselines(self):
        self.write(self.base_dir, "fast", bench_doc(100_000_000))
        cur_fast = bench_doc(80_000_000)  # -20%: stale baseline
        self.write(self.cur_dir, "fast", cur_fast)
        steady_base = bench_doc(50_000_000)
        self.write(self.base_dir, "steady", steady_base)
        self.write(self.cur_dir, "steady", bench_doc(50_000_000))

        code, out = self.run_tool("fast", "steady")
        self.assertEqual(code, 0, out)
        self.assertIn("ratchet candidate", out)
        self.assertIn("--refresh", out)  # prints the exact command

        code, out = self.run_tool("--refresh", "fast", "steady")
        self.assertEqual(code, 0, out)
        self.assertIn("refreshed", out)
        with open(os.path.join(self.base_dir, "BENCH_fast.json")) as f:
            self.assertEqual(json.load(f), cur_fast)  # rewritten from current
        with open(os.path.join(self.base_dir, "BENCH_steady.json")) as f:
            self.assertEqual(json.load(f), steady_base)  # untouched

    # --- exact documents -----------------------------------------------------

    def test_exact_ignores_host_and_wall_gauges_only(self):
        base = bench_doc(100, {"run.virtual_time": 100.0, "scale.wall.events_per_sec": 10.0})
        base["metrics"]["counters"] = {"net.messages": {"total": 7}}
        base["host"] = {"cpus": 1}
        cur = bench_doc(100, {"run.virtual_time": 100.0, "scale.wall.events_per_sec": 99.0})
        cur["metrics"]["counters"] = {"net.messages": {"total": 7}}
        cur["host"] = {"cpus": 64}
        self.write(self.base_dir, "a", base)
        self.write(self.cur_dir, "a", cur)
        code, out = self.run_tool("--no-wall-gate", "--exact", "a")
        self.assertEqual(code, 0, out)
        self.assertNotIn("exact:", out)

        # Any other difference fails, naming its path — even one the
        # virtual-time gate alone lets through.
        cur["metrics"]["counters"]["net.messages"]["total"] = 8
        cur["metrics"]["histograms"] = {"lat": {"total": {"count": 1}}}
        self.write(self.cur_dir, "a", cur)
        code, out = self.run_tool("--no-wall-gate", "a")
        self.assertEqual(code, 0, out)
        code, out = self.run_tool("--no-wall-gate", "--exact", "a")
        self.assertEqual(code, 1, out)
        self.assertIn("/metrics/counters/net.messages/total: 7 -> 8", out)
        self.assertIn("/metrics/histograms/lat: not in baseline", out)
        self.assertIn("2 difference(s)", out)

    def test_exact_distinguishes_int_from_float(self):
        self.write(self.base_dir, "a", bench_doc(100, {"g": 1}))
        self.write(self.cur_dir, "a", bench_doc(100, {"g": 1.0}))
        code, out = self.run_tool("--exact", "a")
        self.assertEqual(code, 1, out)
        self.assertIn("/metrics/gauges/g/total: 1 -> 1.0", out)

    # --- sweep-curve comparison ----------------------------------------------

    def sweep_gauges(self, p99_r1=200.0, thr_r1=1000.0, rej_r1=0.0):
        return {
            "sweep.offered_per_sec/r0": 500.0, "sweep.offered_per_sec/r1": 1000.0,
            "sweep.throughput_per_sec/r0": 500.0, "sweep.throughput_per_sec/r1": thr_r1,
            "sweep.p99_us/r0": 100.0, "sweep.p99_us/r1": p99_r1,
            "sweep.rejection_pct/r0": 0.0, "sweep.rejection_pct/r1": rej_r1,
        }

    def test_sweep_identical_curve_passes_quietly(self):
        self.write(self.base_dir, "s", bench_doc(100, self.sweep_gauges()))
        self.write(self.cur_dir, "s", bench_doc(100, self.sweep_gauges()))
        code, out = self.run_tool("--no-wall-gate", "s")
        self.assertEqual(code, 0, out)
        self.assertNotIn("sweep:", out)

    def test_sweep_p99_regression_fails_even_without_wall_gate(self):
        self.write(self.base_dir, "s", bench_doc(100, self.sweep_gauges()))
        self.write(self.cur_dir, "s",
                   bench_doc(100, self.sweep_gauges(p99_r1=300.0)))  # +50%
        code, out = self.run_tool("--no-wall-gate", "s")
        self.assertEqual(code, 1, out)
        self.assertIn("sweep gauge sweep.p99_us/r1", out)

    def test_sweep_throughput_drop_fails_improvement_ratchets(self):
        self.write(self.base_dir, "s", bench_doc(100, self.sweep_gauges()))
        self.write(self.cur_dir, "s",
                   bench_doc(100, self.sweep_gauges(thr_r1=500.0)))  # -50%
        code, out = self.run_tool("--no-wall-gate", "s")
        self.assertEqual(code, 1, out)
        self.assertIn("higher-is-better", out)

        self.write(self.cur_dir, "s",
                   bench_doc(100, self.sweep_gauges(p99_r1=100.0)))  # p99 halves
        code, out = self.run_tool("--no-wall-gate", "s")
        self.assertEqual(code, 0, out)
        self.assertIn("ratchet candidate", out)

    def test_sweep_rejection_off_zero_fails(self):
        self.write(self.base_dir, "s", bench_doc(100, self.sweep_gauges()))
        self.write(self.cur_dir, "s",
                   bench_doc(100, self.sweep_gauges(rej_r1=3.0)))
        code, out = self.run_tool("--no-wall-gate", "s")
        self.assertEqual(code, 1, out)
        self.assertIn("vs baseline 0", out)


if __name__ == "__main__":
    unittest.main()
