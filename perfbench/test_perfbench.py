"""Tests of the benchmark itself: seeded inputs, eligibility, tracing, config.

    python3 -m unittest discover -s perfbench
"""

from __future__ import annotations

import json
import os
import re
import shutil
import tempfile
import unittest
from fractions import Fraction

import run
import tracing
from workloads import WORKLOADS, Op, canonical, check_verify

SEEDS = (0, 1, 7)


def setUpModule():
    os.makedirs(os.path.join(run.ROOT, ".perfbench_tmp"), exist_ok=True)
    run.sys.path.insert(0, run.SRC)


def _workdir():
    return tempfile.mkdtemp(dir=os.path.join(run.ROOT, ".perfbench_tmp"))


def _prepared(workload, seed, test=None):
    """(inputs digest, lib, ctx, spec) of one set-up, in its own directory.

    With a test case the directory lives until the test ends, so the
    operations can still read their input files.
    """
    workdir = _workdir()
    try:
        _elapsed, lib, ctx, digest = run.setup_round(workload, seed, workdir)
    finally:
        if test is None:
            shutil.rmtree(workdir)
        else:
            test.addCleanup(shutil.rmtree, workdir)
    return digest, lib, ctx, workload.spec(seed)


def _corrupt(text):
    """Change one coefficient, or flip one balance verdict."""
    if '"balanced":true' in text:
        return text.replace('"balanced":true', '"balanced":false', 1)
    return re.sub(r'("coeff": ?"[^"]*)"', r'\g<1>7"', text, count=1)


class InputTests(unittest.TestCase):
    def test_same_seed_gives_byte_identical_inputs(self):
        for workload in WORKLOADS.values():
            for seed in SEEDS[:2]:
                with self.subTest(workload=workload.name, seed=seed):
                    self.assertEqual(canonical(workload.spec(seed)), canonical(workload.spec(seed)))
                    self.assertEqual(_prepared(workload, seed)[0], _prepared(workload, seed)[0])

    def test_different_seeds_give_different_inputs(self):
        for workload in WORKLOADS.values():
            with self.subTest(workload=workload.name):
                digests = {_prepared(workload, seed)[0] for seed in SEEDS}
                self.assertEqual(len(digests), len(SEEDS))

    def test_verify_ops_differ_between_passes(self):
        workload = WORKLOADS["verify_suites"]
        _digest, _lib, ctx, _spec = _prepared(workload, 3)
        first = [op.label for op in workload.ops(ctx, 0)]
        self.assertEqual(len(first), 13)
        self.assertIn("verify:grassmann:%d" % (3 + 2000), first)
        self.assertTrue(set(first).isdisjoint(op.label for op in workload.ops(ctx, 1)))

    def test_matrices_are_eligible(self):
        for name in ("dense_soul", "wide_body"):
            for seed in SEEDS:
                _digest, lib, _ctx, spec = _prepared(WORKLOADS[name], seed)
                for mspec in spec["matrices"]:
                    with self.subTest(workload=name, seed=seed, matrix=mspec["label"]):
                        self._check_eligible(lib, mspec)

    def _check_eligible(self, lib, mspec):
        from workloads import conjugated_matrix, planted_matrix

        body = [Fraction(v) for v in mspec["body"]]
        self.assertEqual(len(set(body)), len(body), "body spectrum must be distinct")
        a = conjugated_matrix(lib, mspec, planted_matrix(lib, mspec))
        spectrum = lib.reduction.rational_spectrum
        if mspec["kind"] == "queer":
            self.assertEqual(spectrum(a.body_rows()).pairs, tuple((v, 1) for v in sorted(body)))
            return
        self.assertNotIn(0, body, "odd matrices need non-zero square eigenvalues")
        n = mspec["n"]
        square = (a @ a).body_rows()
        for block in ([row[:n] for row in square[:n]], [row[n:] for row in square[n:]]):
            self.assertEqual(spectrum(block).pairs, tuple((v, 1) for v in sorted(body)))


def _check(op, text):
    try:
        return op.check(text)
    except Exception as exc:  # as in Run.check_outputs, a check that raises fails
        return repr(exc)


class CheckTests(unittest.TestCase):
    def test_checks_pass_on_real_outputs_and_catch_corruption(self):
        for name in ("dense_soul", "rewrite"):
            workload = WORKLOADS[name]
            _digest, _lib, ctx, _spec = _prepared(workload, 1, self)
            for op in workload.ops(ctx, 0)[-3:]:
                with self.subTest(op=op.label):
                    text = op.run()
                    self.assertIsNone(_check(op, text))
                    corrupted = _corrupt(text)
                    self.assertNotEqual(corrupted, text)
                    self.assertIsNotNone(_check(op, corrupted))

    def test_failed_verify_claim_is_reported(self):
        bad = '{"claim": "c", "status": "fail", "suite": "grassmann"}\n{"summary": {"claims": 1, "failures": 1}}'
        self.assertIsNotNone(check_verify(bad, "grassmann"))

    def test_pass_without_or_unlike_its_golden_digest_fails(self):
        ops = [Op("a", lambda: "out", lambda text: None)]
        for golden, failed in (([], True), (["0" * 16], True), (None, False)):
            result = run.Run(calibrated=False)
            result.run_pass(ops)
            if golden is None:
                golden = list(result.pass_digests)
            result.check_outputs(golden, False)
            self.assertEqual(bool(result.failures), failed, golden)

    def test_tail_percentile_leaves_ten_samples_beyond(self):
        for n in (20, 104, 117, 182, 1000):
            p = run.tail_percentile(n)
            values = list(range(n))
            beyond = [v for v in values if v > run.nearest_rank(values, p)]
            self.assertGreaterEqual(len(beyond), 10)
            self.assertLess(n - run.math.ceil((p + 1) * n / 100), 10)


class TraceTests(unittest.TestCase):
    def test_traced_outputs_match_and_every_binding_is_wrapped(self):
        workload = WORKLOADS["dense_soul"]
        _digest, lib, ctx, _spec = _prepared(workload, 2, self)
        ops = workload.ops(ctx, 0)[-4:]
        plain = [op.run() for op in ops]
        tracer = tracing.Tracer()
        tracer.install()
        try:
            self.assertEqual(tracer.unwrapped(), [])
            self.assertIsNot(lib.invariants.diagonalize, lib.reduction.diagonalize.__wrapped__)
            self.assertIs(lib.invariants.diagonalize, lib.reduction.diagonalize)
            self.assertIs(lib.supermatrix.mul_terms_into, lib.grassmann.mul_terms_into)
            traced = [op.run() for op in ops]
        finally:
            tracer.uninstall()
        self.assertEqual(plain, traced)
        self.assertFalse(hasattr(lib.reduction.diagonalize, "__wrapped__"))
        metrics = tracer.metrics()
        for name in ("supermatrix.matmul", "grassmann.mul", "reduction.reduce_odd", "cli.main"):
            self.assertGreater(metrics[name + ".calls"], 0, name)
        self.assertGreater(metrics["supermatrix.matmul.term_pairs"], 0)
        self.assertTrue(all(s[3] is None or s[3] < i for i, s in enumerate(tracer.spans)))


class ConfigTests(unittest.TestCase):
    def test_benchmark_json_matches_the_harness(self):
        path = os.path.join(run.ROOT, "BENCHMARK.json")
        with open(path, encoding="utf-8") as handle:
            config = json.load(handle)
        self.assertEqual([w["name"] for w in config["workloads"]], list(WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in config["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in config["per_layer"]], run.per_layer_metrics())

    def test_golden_covers_every_input_seed_and_pass(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            run_seconds = json.load(handle)["run_seconds"]
        for workload in WORKLOADS.values():
            passes = 1 if workload.repeats else run.passes_for(workload, run_seconds)
            for seed in range(run.GOLDEN_SEEDS):
                with self.subTest(workload=workload.name, seed=seed):
                    self.assertEqual(len(run.load_golden(workload.name, seed)), passes)
        self.assertEqual(run.input_seed(run.GOLDEN_SEEDS + 5), 5)


if __name__ == "__main__":
    unittest.main()
