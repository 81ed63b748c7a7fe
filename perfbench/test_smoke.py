#!/usr/bin/env python3
"""The benchmark's own tests, on the small (--smoke) sizes of every workload.

    python3 perfbench/test_smoke.py

Checks that every metric BENCHMARK.json names is printed with its unit, that
the digests match perfbench/golden.json for the default and the held-out
seed, that two same-seed runs give identical digests, and that run.py fails
without printing a result when the sources are missing.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SECONDS = 0.2
HELD_OUT_SEED = 20261016


def spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        cls.spec = spec()

    def check_metrics(self, metrics, declared):
        for m in declared:
            self.assertIn(m["name"], metrics)
            self.assertEqual(metrics[m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(metrics[m["name"]]["value"], (int, float), m["name"])
        self.assertEqual(set(metrics), {m["name"] for m in declared})

    def test_end_to_end_metrics_and_determinism(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                first = run.run_workload(w, 1, SECONDS, False, True)
                second = run.run_workload(w, 1, SECONDS, False, True)
                self.assertEqual(first["digest"], second["digest"])
                res = run.result(first, True)
                self.assertTrue(res["correct"], first["error"])
                self.assertGreaterEqual(res["attempted"], 1)
                self.assertEqual(res["failed"], 0)
                self.check_metrics(res["metrics"], self.spec["end_to_end"])
                for m in self.spec["end_to_end"]:
                    self.assertGreater(res["metrics"][m["name"]]["value"], 0, m["name"])

    def test_traced_run_prints_every_layer_metric(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                report = run.run_workload(w, 1, SECONDS, True, True)
                res = run.result(report, True)
                self.assertTrue(res["correct"], report["error"])
                self.check_metrics(res["metrics"], self.spec["per_layer"])

    def test_golden_digests(self):
        golden = run.load_golden(True)
        for w in run.WORKLOADS:
            for seed in (1, HELD_OUT_SEED):
                with self.subTest(workload=w, seed=seed):
                    self.assertIn(str(seed), golden[w])
                    report = run.run_workload(w, seed, SECONDS, False, True)
                    self.assertEqual(run.golden_mismatch(report, True), [])

    def test_golden_mismatch_fails_every_op(self):
        report = run.run_workload("sor", 1, SECONDS, False, True)
        report["digest"]["grid_hash"] = "0"
        res = run.result(report, True)
        self.assertFalse(res["correct"])
        self.assertEqual(res["failed"], res["attempted"])

    def test_fails_without_sources(self):
        os.makedirs(os.path.join(run.ROOT, ".bench_build"), exist_ok=True)
        bare = tempfile.mkdtemp(dir=os.path.join(run.ROOT, ".bench_build"))
        try:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "sor", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
