#!/usr/bin/env python3
"""Tests of the fleet benchmark itself.

    python3 fleetbench/test_fleetbench.py

Builds the benchmark like run.py does, then checks: metric names and the
BENCHMARK.json contract; that every workload emits every metric in both
modes; that the traced replica reproduces the library on a tiny fleet of
each family; that output fingerprints are stable across processes; and
that the benchmark refuses to run without the library sources. The full
suite takes a few minutes on four cores.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(workload, trace, seconds=1):
    proc = subprocess.run(
        [sys.executable, os.path.join(run.BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180)
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


def selftest():
    proc = subprocess.run([run.BINARY, "--mode", "selftest", "--threads", "2", "--seed", "7"],
                          capture_output=True, text=True, timeout=180, env=run.child_env())
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Contract(unittest.TestCase):
    def test_metric_names_and_units(self):
        for table in (run.END_TO_END, run.PER_LAYER):
            for name, (unit, better) in table.items():
                self.assertRegex(name, NAME)
                self.assertRegex(unit, UNIT)
                self.assertIn(better, ("higher", "lower"))
        self.assertFalse(set(run.END_TO_END) & set(run.PER_LAYER))

    def test_benchmark_json_matches_run_py(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual([w["name"] for w in spec["workloads"]], run.WORKLOADS)
        self.assertEqual({m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]},
                         run.PER_LAYER)
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
        self.assertEqual(setup["bound"], max(m["bound"] for m in spec["end_to_end"]))

    def test_refuses_to_run_without_the_library(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(run.BENCH_DIR, os.path.join(tmp, "fleetbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "fleetbench/run.py", "--workload", "scale_healthy", "--seed",
                 "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


class Outputs(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_replica_matches_the_library_on_tiny_fleets(self):
        result = selftest()
        self.assertEqual(result["violations"], [])
        self.assertEqual(sorted(r["workload"] for r in result["results"]), sorted(run.WORKLOADS))
        for r in result["results"]:
            self.assertTrue(r["replica_match"], r["workload"])
            self.assertGreater(r["spans"], 0, r["workload"])

    def test_fingerprint_is_stable_across_processes(self):
        first = {r["workload"]: r["fingerprint"] for r in selftest()["results"]}
        second = {r["workload"]: r["fingerprint"] for r in selftest()["results"]}
        self.assertEqual(first, second)
        self.assertEqual(len(set(first.values())), len(first))

    def test_every_workload_emits_every_metric(self):
        for workload in run.WORKLOADS:
            for trace, table in ((0, run.END_TO_END), (1, run.PER_LAYER)):
                with self.subTest(workload=workload, trace=trace):
                    proc, result = bench(workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(set(result["metrics"]), set(table))
                    for name, metric in result["metrics"].items():
                        self.assertEqual(metric["unit"], table[name][0])
                        self.assertIsInstance(metric["value"], (int, float))
                    if trace == 0:
                        for name in table:
                            self.assertGreater(result["metrics"][name]["value"], 0, name)
                        # A change of the library's results must be recorded.
                        printed = [line.split()[-1] for line in proc.stdout.splitlines()
                                   if line.startswith("fingerprint ")]
                        self.assertEqual(printed, [run.recorded_fingerprint(workload, 1)])
                    else:
                        self.assertEqual(result["metrics"]["trace.replica_match"]["value"], 1)


if __name__ == "__main__":
    unittest.main()
