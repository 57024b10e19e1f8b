#!/usr/bin/env python3
"""Tests of the benchmark's own output checks.

Run from the repository root::

    python3 perfbench/selftest.py

Each test runs one pass of the ``certify-synth`` workload (a few
seconds) with a fault planted: a tampered pin or an op that raises.
The fault must show as a failed op, named, so ``error_frac`` > 0.
"""

from __future__ import annotations

import copy
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from workloads import CertifySynth, PassPlan  # noqa: E402

TAMPERED_OP = "certify:mesh:8x8/west-first"


def quiet(*_args) -> None:
    pass


class RaisingOp(CertifySynth):
    """certify-synth with one op replaced by one that raises."""

    def prepare(self, seed, workdir, jobs) -> PassPlan:
        plan = super().prepare(seed, workdir, jobs)

        def boom():
            raise RuntimeError("planted failure")

        plan.ops = [
            (name, boom if name == TAMPERED_OP else op) for name, op in plan.ops
        ]
        return plan


class BenchmarkChecksTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls) -> None:
        run.use_source_tree()
        cls.pins = run.load_manifest()["workloads"]["certify-synth"]

    def run_once(self, workload, pins):
        return run.run_workload(workload, 1, 0, False, pins, min_passes=1, log=quiet)

    def test_clean_pass_is_correct(self) -> None:
        summary = self.run_once(CertifySynth(), self.pins)
        self.assertEqual(summary["failed"], 0, summary["failures"])
        self.assertEqual(summary["counter_errors"], [])
        self.assertEqual(summary["combined_digest"], self.pins["digest"])

    def test_tampered_digest_fails_the_named_op(self) -> None:
        pins = copy.deepcopy(self.pins)
        pins["ops"][TAMPERED_OP] = "0" * 64
        pins["counters"]["synth.candidates"] = 17
        summary = self.run_once(CertifySynth(), pins)
        self.assertEqual(summary["failed"], 1)
        self.assertEqual([op for op, _ in summary["failures"]], [TAMPERED_OP])
        self.assertIn("pinned", summary["failures"][0][1])
        self.assertEqual(len(summary["counter_errors"]), 1)
        self.assertIn("synth.candidates", summary["counter_errors"][0])

    def test_raising_op_fails_the_named_op(self) -> None:
        summary = self.run_once(RaisingOp(), self.pins)
        self.assertEqual(summary["attempted"], 7)
        self.assertEqual(summary["failed"], 1)
        self.assertEqual(
            summary["failures"],
            [(TAMPERED_OP, "raised RuntimeError: planted failure")],
        )


if __name__ == "__main__":
    unittest.main()
