#!/usr/bin/env python3
"""Self-test of the benchmark's checks.

    python3 perfbench/test_perfbench.py

Short runs (about a minute in all, after the first build) that pin three
behaviours: a correct run exits 0 with `"correct": true`; a run fed one
deliberately wrong reference reports the mismatch as a failed reply and
exits 1; and a directory holding only BENCHMARK.json and perfbench/ (no
sources to build) exits non-zero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = ["python3", "perfbench/run.py", "--workload", "exec-hypersparse-churn",
       "--seed", "3", "--seconds", "1"]


def run(cmd, cwd=ROOT):
    r = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                       timeout=900)
    lines = r.stdout.strip().split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    return r.returncode, result, r.stdout + r.stderr


class PerfbenchSelfTest(unittest.TestCase):
    def test_correct_run_passes(self):
        code, result, out = run(RUN + ["--trace", "0"])
        self.assertEqual(code, 0, out)
        self.assertTrue(result["correct"], out)
        self.assertEqual(result["failed"], 0, out)
        self.assertGreater(result["attempted"], 0, out)

    def test_wrong_reference_is_reported_as_failed(self):
        code, result, out = run(RUN + ["--trace", "0", "--corrupt-reference"])
        self.assertEqual(code, 1, out)
        self.assertIsNotNone(result, out)
        self.assertFalse(result["correct"], out)
        self.assertGreaterEqual(result["failed"], 1, out)
        self.assertIn("corrupted on purpose", out)

    def test_no_sources_exits_without_result(self):
        bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            code, result, out = run(RUN + ["--trace", "0"], cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(code, 0, out)
        self.assertIsNone(result, out)


if __name__ == "__main__":
    sys.exit(unittest.main())
