#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

- BENCHMARK.json keeps the shape and name rules the benchmark relies on.
- A tiny-size smoke run of each workload, untraced and traced, emits
  every metric BENCHMARK.json names, with its unit, and passes its checks.
- A canary run feeds every workload wrong expected values; the
  correctness gate must catch it (correct false, failed ops, nonzero exit).
- The command refuses to run with a GENGC_* variable set.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ["sessions", "bulk-transfer", "vm-programs"]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace, *extra, env=None):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--smoke", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600, env=env)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return proc, result


class SpecTest(unittest.TestCase):
    def test_shape(self):
        s = spec()
        self.assertEqual(set(s), {"command", "paths", "run_seconds",
                                  "workloads", "end_to_end", "per_layer"})
        self.assertEqual([w["name"] for w in s["workloads"]], WORKLOADS)
        names = [m["name"] for k in ("end_to_end", "per_layer")
                 for m in s[k]] + [w["name"] for w in s["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for m in s["end_to_end"] + s["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        for m in s["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in s["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in s["end_to_end"]))


class SmokeTest(unittest.TestCase):
    def check_run(self, workload, trace):
        key = "per_layer" if trace else "end_to_end"
        proc, result = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stdout[-3000:])
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        want = {m["name"]: m["unit"] for m in spec()[key]}
        self.assertEqual(set(result["metrics"]), set(want))
        for name, unit in want.items():
            self.assertEqual(result["metrics"][name]["unit"], unit, name)
            self.assertIn(f"  {name}: ", proc.stdout)
        if not trace:
            for name in want:
                self.assertGreater(result["metrics"][name]["value"], 0, name)

    def test_sessions(self):
        self.check_run("sessions", 0)
        self.check_run("sessions", 1)

    def test_bulk_transfer(self):
        self.check_run("bulk-transfer", 0)
        self.check_run("bulk-transfer", 1)

    def test_vm_programs(self):
        self.check_run("vm-programs", 0)
        self.check_run("vm-programs", 1)


class CanaryTest(unittest.TestCase):
    def test_wrong_expected_values_fail(self):
        for workload in WORKLOADS:
            proc, result = run(workload, 0, "--canary")
            self.assertNotEqual(proc.returncode, 0, workload)
            self.assertFalse(result["correct"], workload)
            self.assertGreater(result["failed"], 0, workload)
            self.assertIn("CHECK FAILED", proc.stdout, workload)


class EnvironmentTest(unittest.TestCase):
    def test_refuses_gengc_variables(self):
        env = dict(os.environ, GENGC_GC_THREADS="1")
        proc, result = run("vm-programs", 0, env=env)
        self.assertNotEqual(proc.returncode, 0)
        self.assertIsNone(result)
        self.assertIn("GENGC_GC_THREADS", proc.stderr)


if __name__ == "__main__":
    unittest.main()
