#!/usr/bin/env python3
"""Tests of the benchmark's own helpers.

    python3 perfbench/test_perfbench.py

Builds the benchmark and the C++ helper self-test (selftest.cc: the
percentile rule of ten samples beyond, span self time and coverage),
checks that the metrics the benchmark prints are exactly those BENCHMARK.json
declares, checks the spread report's statistics, and checks that the
benchmark fails without printing a result when the library sources are
missing.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import spread  # noqa: E402


class HelperTest(unittest.TestCase):
    def test_cpp_helpers(self):
        done = subprocess.run([run.build("perfbench_selftest")],
                              stdout=subprocess.PIPE,
                              universal_newlines=True)
        self.assertEqual(done.returncode, 0, done.stdout)
        self.assertIn("checks passed", done.stdout)

    def test_spread_statistics(self):
        values = [10.0, 12.0, 11.0, 13.0, 9.0, 10.5, 11.5, 12.5, 9.5, 14.0]
        median, q1, q3, spread_share, deviation = spread.summarize(values)
        expected_q1, _, expected_q3 = statistics.quantiles(values, n=4)
        self.assertEqual(median, statistics.median(values))
        self.assertEqual((q1, q3), (expected_q1, expected_q3))
        self.assertAlmostEqual(spread_share, (expected_q3 - expected_q1) /
                               median)
        self.assertAlmostEqual(deviation, (14.0 - median) / median)


class CatalogueTest(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        listed = subprocess.run([run.build(), "--list-metrics"],
                                stdout=subprocess.PIPE,
                                universal_newlines=True, check=True)
        printed = {"end_to_end": [], "per_layer": []}
        for line in listed.stdout.splitlines():
            kind, name, unit = line.split()
            printed[kind].append((name, unit))
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            declared = json.load(f)
        for kind in ("end_to_end", "per_layer"):
            self.assertEqual(printed[kind],
                             [(m["name"], m["unit"]) for m in declared[kind]],
                             kind)

    def test_workloads_match_run_py(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            declared = json.load(f)
        self.assertEqual(tuple(w["name"] for w in declared["workloads"]),
                         run.WORKLOADS)


class NoSourcesTest(unittest.TestCase):
    def test_fails_without_library_sources(self):
        # A checkout holding only BENCHMARK.json and this directory.
        bare = os.path.join(run.build_dir(), "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)
        try:
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "batch_build", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=bare, env=env, stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, universal_newlines=True,
                timeout=180)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
