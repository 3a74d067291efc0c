"""Self-test of the benchmark's own machinery, not of netdes.

Run from the root of a checkout (takes a few seconds):

    python3 perfbench/selftest.py

Checks that a workload's inputs are a function of the seed, that the output
check catches a corrupted file and a wrong verdict, and that an invocation
past its time budget is killed and reported.
"""
from __future__ import annotations

import os
import shutil
import sys
import unittest

from run import CLI, SRC, WORK, cli_args, child_problems, fresh_dir, run_child
from workloads import (WORKLOADS, check_synthesize, check_verify, load_expected,
                       make_inputs)

TMP = WORK / f"selftest-pid{os.getpid()}"


def tearDownModule() -> None:
    shutil.rmtree(TMP, ignore_errors=True)


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_inputs_and_other_seed_other_order(self):
        for name, workload in WORKLOADS.items():
            with self.subTest(workload=name):
                a = make_inputs(workload, 7, SRC, fresh_dir(TMP / name / "a"))
                b = make_inputs(workload, 7, SRC, fresh_dir(TMP / name / "b"))
                c = make_inputs(workload, 8, SRC, fresh_dir(TMP / name / "c"))
                for field in ("config", "plant", "ns"):
                    self.assertEqual(getattr(a, field).read_bytes(),
                                     getattr(b, field).read_bytes())
                self.assertEqual(a.config.read_bytes(), c.config.read_bytes())
                self.assertNotEqual(a.ns.read_bytes(), c.ns.read_bytes())
                for field in ("plant", "ns"):
                    self.assertEqual(
                        sorted(getattr(a, field).read_text().splitlines()),
                        sorted(getattr(c, field).read_text().splitlines()))


class OutputCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        workload = WORKLOADS["guideway"]
        cls.expected = load_expected()["guideway"]
        work = fresh_dir(TMP / "outputs")
        inputs = make_inputs(workload, 3, SRC, work / "inputs")
        synth_args, verify_args = cli_args(workload, inputs, work / "out")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        cls.out = work / "out"
        cls.synth = run_child(CLI + synth_args, env, workload.budget_s, work / "s")
        cls.verify = run_child(CLI + verify_args, env, workload.budget_s, work / "v")

    def test_untouched_outputs_pass(self):
        self.assertEqual(child_problems("synthesize", self.synth), [])
        self.assertEqual(check_synthesize(self.expected, self.out, self.synth.stdout), [])
        self.assertEqual(check_verify(self.expected, self.verify.stdout), [])

    def test_corrupted_file_is_caught(self):
        path = self.out / "g_new.aut"
        original = path.read_bytes()
        try:
            path.write_bytes(original.replace(b".trans", b".tran ", 1))
            self.assertIn("g_new.aut digest mismatch",
                          check_synthesize(self.expected, self.out, self.synth.stdout))
        finally:
            path.write_bytes(original)

    def test_wrong_verdict_is_caught(self):
        lying = self.verify.stdout.replace("covert: True", "covert: False")
        self.assertTrue(any("verdicts" in p for p in check_verify(self.expected, lying)))
        cert = self.out / "certificate.txt"
        original = cert.read_bytes()
        try:
            cert.write_bytes(original.replace(b"covert: True", b"covert: False"))
            problems = check_synthesize(self.expected, self.out, self.synth.stdout)
            self.assertTrue(any("certificate verdicts" in p for p in problems))
        finally:
            cert.write_bytes(original)


class TimeBudget(unittest.TestCase):
    def test_overrun_is_killed_and_reported(self):
        child = run_child([sys.executable, "-c", "import time; time.sleep(30)"],
                          dict(os.environ), 0.5, fresh_dir(TMP / "budget") / "sleep")
        self.assertTrue(child.timed_out)
        self.assertLess(child.wall_s, 5.0)
        self.assertIn("time budget", child_problems("sleep", child)[0])


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    unittest.main()
