#!/usr/bin/env python3
"""The benchmark's own test: its checks fire and its output is complete.

    python3 perfbench/test_bench.py

Runs perfbench/run.py on short runs (about three minutes in all):
- a perturbed fit (--inject fit) on a training and the completion workload,
  and a corrupted served answer (--inject answer), must each raise the
  failed count and lower success_rate;
- clean runs, timed and traced, must pass every check and print every
  metric of BENCHMARK.json with its unit;
- in a directory holding only BENCHMARK.json and perfbench/, run.py must
  exit non-zero without printing a result.
Standard library only.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("perfbench", "run.py")


def run(workload, *extra, cwd=ROOT, seed=3, seconds=1, trace=0):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def result(proc):
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class ChecksFire(unittest.TestCase):
    def assert_caught(self, res):
        self.assertFalse(res["correct"])
        self.assertGreaterEqual(res["failed"], 1)
        self.assertLess(res["metrics"]["success_rate"]["value"], 1.0)

    def test_perturbed_fit_is_caught_in_training(self):
        self.assert_caught(result(run("train-netflix", "--inject", "fit")))

    def test_perturbed_rmse_is_caught_in_completion(self):
        self.assert_caught(result(run("complete-planted", "--inject", "fit")))

    def test_corrupted_answer_is_caught_in_serving(self):
        self.assert_caught(result(run("serve-zipf", "--inject", "answer")))


class OutputIsComplete(unittest.TestCase):
    def check_metrics(self, res, kind):
        expected = spec()[kind]
        self.assertEqual(sorted(res["metrics"]), sorted(m["name"] for m in expected))
        for m in expected:
            got = res["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_clean_timed_run(self):
        res = result(run("serve-zipf"))
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(sorted(res), ["attempted", "correct", "failed", "metrics"])
        self.check_metrics(res, "end_to_end")
        for m in spec()["end_to_end"]:
            self.assertGreater(res["metrics"][m["name"]]["value"], 0, m["name"])

    def test_clean_traced_run(self):
        res = result(run("complete-planted", trace=1))
        self.assertTrue(res["correct"])
        self.check_metrics(res, "per_layer")
        self.assertGreaterEqual(res["metrics"]["trace.coverage"]["value"], 0.9)
        self.assertGreater(res["metrics"]["core.completion.core_s"]["value"], 0)
        self.assertEqual(res["metrics"]["core.ttmc_s"]["value"], 0)

    def test_fails_without_library_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(os.path.join(ROOT, "perfbench"),
                            os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run("serve-zipf", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
