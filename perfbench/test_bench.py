#!/usr/bin/env python3
"""Tests of the benchmark itself (not of the library).

    python3 perfbench/test_bench.py          # everything (a few minutes)
    python3 perfbench/test_bench.py --quick  # skip the full benchmark runs

Checks that BENCHMARK.json is well formed and names exactly the metrics
and workloads the C++ metric table holds, runs the helper self-tests
(percentile rule, names, span self time, seeded inputs), and runs every
workload in both modes to check that each run emits every listed metric
of its mode and no unlisted one.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (builds and runs the benchmark)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
QUICK = "--quick" in sys.argv


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def binary(target):
    path = run.build(target)
    if path is None:
        raise RuntimeError(f"cannot build {target}")
    return path


class BenchmarkJsonTest(unittest.TestCase):
    def test_shape(self):
        spec = load_spec()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertEqual(spec["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(spec["paths"], ["perfbench"])
        self.assertTrue(1 <= spec["run_seconds"] <= 60)
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertRegex(w["name"], NAME)
            self.assertLessEqual(len(w["why"]), 200)
        names = [w["name"] for w in spec["workloads"]]
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
            self.assertGreater(m["bound"], 0)
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
            names.append(m["name"])
        self.assertEqual(len(names), len(set(names)), "names used twice")
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))

    def test_matches_metric_table(self):
        spec = load_spec()
        out = subprocess.run([binary("perfbench"), "--list-metrics"],
                             capture_output=True, text=True, check=True)
        table = json.loads(out.stdout)
        self.assertEqual(table["workloads"],
                         [w["name"] for w in spec["workloads"]])
        for key, per_layer in (("end_to_end", False), ("per_layer", True)):
            listed = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
            emitted = [(m["name"], m["unit"], m["better"])
                       for m in table["metrics"]
                       if m["per_layer"] == per_layer]
            self.assertEqual(listed, emitted, key)


class SelfTest(unittest.TestCase):
    def test_helpers(self):
        out = subprocess.run([binary("perfbench_selftest")],
                             capture_output=True, text=True)
        self.assertEqual(out.returncode, 0, out.stdout + out.stderr)


@unittest.skipIf(QUICK, "--quick skips the full benchmark runs")
class EmittedNamesTest(unittest.TestCase):
    """Every listed metric of a run's mode is emitted, and nothing else."""

    def check_run(self, workload, trace):
        spec = load_spec()
        key = "per_layer" if trace else "end_to_end"
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             workload, "--seed", "3", "--seconds", "1", "--trace",
             str(trace)], capture_output=True, text=True, cwd=ROOT,
            timeout=300)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in spec[key]})
        for m in spec[key]:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])

    def test_all_runs(self):
        for w in load_spec()["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    self.check_run(w["name"], trace)


if __name__ == "__main__":
    unittest.main(argv=[a for a in sys.argv if a != "--quick"])
