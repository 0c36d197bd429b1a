"""Acceptance gate: every criterion runs at its stated size and time budget.

All checks are exact identities (integer and rational arithmetic only), so the
tolerance everywhere is literal equality.  Each test prints one pass/fail line;
run with `pytest tests/test_acceptance.py -v -s` to see them as they complete.
"""

import random
import time
from fractions import Fraction
from itertools import combinations

from superinv import (
    ANY,
    GrassmannScalar,
    ODD,
    Queer,
    Standard,
    SuperMatrix,
    balanced_corpus,
    body_signed_elementary,
    compute_s,
    evaluate_invariant,
    indistinguishable,
    linalg,
    q2_closed_form,
    random_group_element,
    verify_recurrence,
)
from superinv.sympoly import power_sum_odd
from superinv.verify import (
    pick_distinct,
    random_odd_reducible,
    random_queer_with_spectrum,
    run_suite,
    tau_monomial_matrix,
)

G = GrassmannScalar


def _report(number, label, started, budget):
    elapsed = time.perf_counter() - started
    print("criterion %d: PASS (%.1fs of %ds) %s" % (number, elapsed, budget, label))
    assert elapsed < budget, "criterion %d exceeded its %ds budget" % (number, budget)


def _assert_suite(records):
    for record in records:
        assert record["status"] == "pass", record


def test_criterion_01_grassmann_kernel():
    started = time.perf_counter()
    rng = random.Random(101)
    samples = 0
    while samples < 1000:
        q = samples % 8 + 1
        data = []
        for _ in range(3):
            terms = {}
            for _ in range(rng.randint(0, 3)):
                mask = rng.getrandbits(q)
                c = rng.randint(-9, 9)
                if c:
                    terms[mask] = terms.get(mask, 0) + c
            data.append(G(q, terms))
        x, y, z = data
        assert (x * y) * z == x * (y * z)
        assert (x * y).body() == x.body() * y.body()
        for xp in x.parity_split():
            for yp in y.parity_split():
                sign = -1 if xp.is_odd() and yp.is_odd() and xp and yp else 1
                assert xp * yp == yp * xp * sign
        w = x if x.body() != 0 else x + 1
        inv = w.invert()
        assert w * inv == 1 and inv * w == 1
        samples += 1
    _report(1, "kernel identities on 1000 samples, q <= 8", started, 10)


def test_criterion_02_invariance_suite():
    started = time.perf_counter()
    _assert_suite(run_suite("invariance", seed=202, trials=200))
    _report(2, "qtr/qet/moment conjugation invariance, 200 trials per shape", started, 60)


def test_criterion_03_canonical_forms():
    started = time.perf_counter()
    _assert_suite(run_suite("thm-1.3", seed=303, trials=100))
    _report(3, "reduction plug-backs with filtration checks, 100 each", started, 120)


def test_criterion_04_vandermonde_adjoint():
    started = time.perf_counter()
    _assert_suite(run_suite("lemma-3.2", seed=404, trials=100))
    _report(4, "adjoint product identity, symbolic n <= 4 and 100 numeric tuples", started, 5)


def test_criterion_05_rewriting():
    started = time.perf_counter()
    _assert_suite(run_suite("thm-3.2", seed=505, trials=50))
    _report(5, "rewrite round trips and uniqueness on 50+ polynomials", started, 60)


def test_criterion_06_normal_form_relations():
    started = time.perf_counter()
    for n in (1, 2, 3):
        for tup in combinations(range(1, 2 * n + 2), n + 1):
            poly = None
            for i in tup:
                term = power_sum_odd(n, i)
                poly = term if poly is None else poly * term
            assert poly.is_zero(), (n, tup)
        monos, matrix = tau_monomial_matrix(n, 2 * n)
        assert linalg.rank(matrix) == len(monos)
    _report(6, "length n+1 products vanish, monomial expansions independent", started, 30)


def test_criterion_07_semi_invariants_and_evaluation():
    started = time.perf_counter()
    _assert_suite(run_suite("eq-4.1", seed=707, trials=40))
    _assert_suite(run_suite("thm-4.5", seed=708, trials=25))
    _assert_suite(run_suite("sec-5.1", seed=709, trials=40))
    # direct count: at least 100 random eligible matrices with zero residuals
    rng = random.Random(710)
    for trial in range(100):
        kind = trial % 5
        if kind < 3:
            n = kind + 1
            gq = rng.choice([2, 3])
            eigs = pick_distinct(rng, n, nonzero=True)
            a = random_queer_with_spectrum(n, eigs, gq, rng.randrange(1 << 30))
        else:
            n = kind - 2
            gq = rng.choice([2, 3])
            a = random_odd_reducible(n, pick_distinct(rng, n, nonzero=True), gq,
                                     rng.randrange(1 << 30))
        assert verify_recurrence(a.tau_values(2 * n), compute_s(a))
    _report(7, "recurrence residuals, dual routes, generating identities", started, 120)


def test_criterion_08_indistinguishability():
    started = time.perf_counter()
    _assert_suite(run_suite("cor-4.5", seed=808, trials=50))
    _report(8, "matched pairs agree, mismatched pairs split, 50+ pairs", started, 60)


def test_criterion_09_antidiagonalization():
    started = time.perf_counter()
    _assert_suite(run_suite("sec-5.3.1", seed=909, trials=50))
    _report(9, "antidiagonal round trips and the displayed identity, 50+", started, 30)


def test_criterion_10_locus_invariants():
    started = time.perf_counter()
    _assert_suite(run_suite("thm-4.6", seed=1010, trials=50))
    _report(10, "locus invariants constant under 50 conjugations", started, 30)


def test_criterion_11_no_finite_generation_witness():
    started = time.perf_counter()
    counts = []
    for n in (1, 2, 3):
        monos, matrix = tau_monomial_matrix(n, 2 * n)
        rank = linalg.rank(matrix)
        assert rank == len(monos)
        counts.append(rank)
    assert counts[0] < counts[1] < counts[2]
    _report(11, "independent moment monomials span dimensions %s" % counts, started, 30)
