#!/usr/bin/env python3
"""The benchmark's own test.

Run from the repository root:

    python3 perfbench/test_bench.py

It runs the generator's unit tests (seeded inputs, the homecoming
checker, including a deliberately wrong REPORT that must count as
failed), then a seconds-long run of every workload in both modes, which
must pass all checks and print every metric BENCHMARK.json names, with
its unit. Last, the benchmark must refuse to run, without printing a
result, in a directory holding only BENCHMARK.json and perfbench/.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SECONDS = "2"


def bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_bench(spec, workload, trace, cwd=ROOT):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", "7", "--seconds", SECONDS, "--trace", str(trace),
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)


class BenchmarkTest(unittest.TestCase):
    def test_generator_unit_tests(self):
        env = dict(os.environ)
        env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
        done = subprocess.run(
            ["cargo", "test", "--release", "--offline",
             "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
            cwd=ROOT, env=env, capture_output=True, text=True,
        )
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)
        self.assertIn("wrong_report_counts_as_failed ... ok", done.stdout)

    def test_every_workload_passes_and_prints_every_metric(self):
        spec = bench_spec()
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            for workload in (w["name"] for w in spec["workloads"]):
                with self.subTest(workload=workload, trace=trace):
                    done = run_bench(spec, workload, trace)
                    self.assertEqual(done.returncode, 0, done.stderr[-2000:])
                    result = json.loads(done.stdout.strip().splitlines()[-1])
                    self.assertEqual(
                        sorted(result), ["attempted", "correct", "failed", "metrics"])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, wanted)
                    for name, value in result["metrics"].items():
                        self.assertIsInstance(value["value"], (int, float), name)
                    if key == "end_to_end":
                        for name in wanted:
                            self.assertGreater(result["metrics"][name]["value"], 0, name)

    def test_refuses_to_run_outside_a_checkout(self):
        spec = bench_spec()
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            for path in spec["paths"]:
                shutil.copytree(
                    os.path.join(ROOT, path), os.path.join(bare, path),
                    ignore=shutil.ignore_patterns("target", "__pycache__"))
            done = run_bench(spec, spec["workloads"][0]["name"], 0, cwd=bare)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    sys.exit(unittest.main())
