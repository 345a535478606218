#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from the checkout root:

    python3 perfbench/test_perfbench.py

Builds the benchmark like run.py does, then checks that
  * the same seed generates byte-identical inputs (and another seed does not),
  * the plan-batch manifest has the stated mix (30 jobs per method, p = max on
    half the jobs of every usage mix),
  * every checker counts a deliberately wrong answer as a failed operation,
  * the command prints every metric BENCHMARK.json names, with its unit,
  * the command fails without a result where the library sources are missing.
The full-command test runs every workload twice (untraced and traced) and
takes several minutes.
"""

import filecmp
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run as bench_run  # noqa: E402


def scratch_dir():
    base = os.path.join(ROOT, ".bench_work")
    os.makedirs(base, exist_ok=True)
    return tempfile.TemporaryDirectory(dir=base)


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = bench_run.build()
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def dump(self, seed, out):
        subprocess.run([self.binary, "--dump-inputs", out, "--seed", str(seed)], check=True,
                       stdout=subprocess.DEVNULL)
        return sorted(os.listdir(out))

    def test_same_seed_gives_identical_inputs(self):
        with scratch_dir() as a, scratch_dir() as b, scratch_dir() as c:
            files = self.dump(7, a)
            self.assertEqual(files, self.dump(7, b))
            self.assertEqual(files, self.dump(8, c))
            self.assertIn("plan-batch.jsonl", files)
            self.assertIn("mc-validate.rgnl", files)
            for name in files:
                self.assertTrue(filecmp.cmp(os.path.join(a, name), os.path.join(b, name),
                                            shallow=False), name)
            seeded = [n for n in files if n != "bench.rgchar"]
            differing = [n for n in seeded
                         if not filecmp.cmp(os.path.join(a, n), os.path.join(c, n), shallow=False)]
            self.assertEqual(differing, seeded)

    def test_plan_batch_mix(self):
        with scratch_dir() as d:
            self.dump(5, d)
            with open(os.path.join(d, "plan-batch.jsonl")) as f:
                jobs = [json.loads(line) for line in f]
        self.assertEqual(len(jobs), 120)
        self.assertEqual(sum(j["p"] == "max" for j in jobs), 60)
        for mix in {j["usage"] for j in jobs}:
            with_mix = [j for j in jobs if j["usage"] == mix]
            self.assertEqual(2 * sum(j["p"] == "max" for j in with_mix), len(with_mix), mix)
        for method in ("auto", "linear", "rect", "polar"):
            self.assertEqual(sum(j["method"] == method for j in jobs), 30, method)

    def test_checkers_count_wrong_answers(self):
        proc = subprocess.run([self.binary, "--self-test"], stdout=subprocess.PIPE, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self.assertIn("self-test: PASS", proc.stdout)

    def test_command_prints_every_metric(self):
        for workload in [w["name"] for w in self.spec["workloads"]]:
            for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = subprocess.run(
                        self.spec["command"] + ["--workload", workload, "--seed", "3",
                                                "--seconds", "1", "--trace", trace],
                        cwd=ROOT, stdout=subprocess.PIPE, text=True)
                    self.assertEqual(proc.returncode, 0)
                    result = json.loads(proc.stdout.splitlines()[-1])
                    self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    want = {m["name"]: m["unit"] for m in self.spec[kind]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    if kind == "end_to_end":
                        for name, m in result["metrics"].items():
                            self.assertGreater(m["value"], 0.0, name)

    def test_fails_without_library_sources(self):
        with scratch_dir() as d:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            for path in self.spec["paths"]:
                shutil.copytree(os.path.join(ROOT, path), os.path.join(d, path))
            env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(d, ".bench_build"))
            proc = subprocess.run(
                self.spec["command"] + ["--workload", "plan-batch", "--seed", "1",
                                        "--seconds", "1", "--trace", "0"],
                cwd=d, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
