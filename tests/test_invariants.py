import random
from fractions import Fraction

import pytest

from superinv import (
    ANY,
    EVEN,
    GrassmannScalar,
    NotInL,
    NotInvariant,
    ODD,
    Queer,
    ShapeMismatch,
    Standard,
    SuperMatrix,
    SuperPolynomial,
    TTauExpression,
    ValidationError,
    ZeroDiscriminant,
    balanced_corpus,
    body_signed_elementary,
    compute_s,
    eigendata,
    evaluate_invariant,
    indistinguishable,
    l_invariants,
    q2_closed_form,
    qet_generating_coefficients,
    random_group_element,
    verify_recurrence,
)
from superinv.invariants import _moment, _residual_rows
from superinv.sympoly import BalancedExpression, _ttau_monomials
from superinv.verify import (
    pick_distinct,
    random_locus_member,
    random_odd_reducible,
    random_queer_with_spectrum,
)

G = GrassmannScalar


def diag_queer(avals, alphas, q):
    n = len(avals)
    rows = [[G.zero(q)] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = G.rational(q, avals[i]) + alphas[i]
    return SuperMatrix(Queer(n), ANY, rows)


def _matches_tau(pairs, a):
    n = len(pairs)
    return [_moment(pairs, k) for k in range(1, 2 * n + 1)] == a.tau_values(2 * n)


def test_eigendata_diagonal_example():
    q = 2
    x1, x2 = G.generator(q, 1), G.generator(q, 2)
    a = diag_queer([1, 2], [x1, x2], q)
    pairs = eigendata(a)
    assert pairs == ((G.rational(q, 1), x1), (G.rational(q, 2), x2))
    assert _matches_tau(pairs, a)


def test_eigendata_odd_example():
    q = 1
    x1 = G.generator(q, 1)
    a = SuperMatrix(Standard(1, 1), ODD, [[x1, G.rational(q, 3)], [G.one(q), G.zero(q)]])
    pairs = eigendata(a)
    assert pairs == ((G.rational(q, 3), x1),)
    assert _matches_tau(pairs, a)


def test_eigendata_conjugation_keeps_moments():
    rng = random.Random(40)
    for _ in range(8):
        n = rng.randint(1, 3)
        gq = rng.randint(2, 3)
        eigs = pick_distinct(rng, n, nonzero=True)
        a = random_queer_with_spectrum(n, eigs, gq, rng.randrange(1 << 30))
        g = random_group_element(Queer(n), gq, rng.randrange(1 << 30), 2)
        assert _matches_tau(eigendata(a.conjugate(g)), a)


def test_compute_s_examples():
    q = 2
    x1, x2 = G.generator(q, 1), G.generator(q, 2)
    a = diag_queer([1, 2], [x1, x2], q)
    s = compute_s(a)
    assert s == (G.rational(q, 3), G.rational(q, -2))
    taus = a.tau_values(4)
    assert taus[2] == taus[0] * s[1] + taus[1] * s[0]
    b = SuperMatrix.from_rationals(Queer(2), ANY, [[1, 0], [0, 2]], q)
    s = compute_s(b)
    assert s == (G.rational(q, 3), G.rational(q, -2))
    assert verify_recurrence(b.tau_values(4), s)


def test_q2_closed_form_examples():
    q = 2
    x1, x2 = G.generator(q, 1), G.generator(q, 2)
    b = SuperMatrix.from_rationals(Queer(2), ANY, [[1, 5], [0, 2]], q)
    beta0 = SuperMatrix.zeros(Queer(2), q)
    s = q2_closed_form(b, beta0)
    assert s == (3, -2)
    beta = SuperMatrix(Queer(2), ANY, [[x1, G.zero(q)], [G.zero(q), x2]])
    s = q2_closed_form(b, beta)
    a = b + beta
    assert verify_recurrence(a.tau_values(4), s)


def test_q2_closed_form_contract_random():
    rng = random.Random(41)
    for _ in range(12):
        gq = rng.randint(2, 4)
        eigs = pick_distinct(rng, 2, nonzero=True)
        a = random_queer_with_spectrum(2, eigs, gq, rng.randrange(1 << 30), soul_terms=2)
        b, beta = a.queer_split()
        s = q2_closed_form(b, beta)
        assert verify_recurrence(a.tau_values(4), s)
        assert [v.body() for v in s] == body_signed_elementary(a)


def test_q2_closed_form_rejections():
    q = 2
    b = SuperMatrix.from_rationals(Queer(2), ANY, [[1, 0], [0, 1]], q)
    with pytest.raises(ZeroDiscriminant):
        q2_closed_form(b, SuperMatrix.zeros(Queer(2), q))
    with pytest.raises(ShapeMismatch):
        q2_closed_form(SuperMatrix.from_rationals(Queer(1), ANY, [[1]], q),
                       SuperMatrix.zeros(Queer(1), q))
    x1 = G.generator(q, 1)
    odd_in_even_slot = SuperMatrix(Queer(2), ANY, [[x1, G.zero(q)], [G.zero(q), G.zero(q)]])
    with pytest.raises(ValidationError):
        q2_closed_form(odd_in_even_slot, SuperMatrix.zeros(Queer(2), q))


def test_evaluate_invariant_qet_form():
    q = 2
    x1, x2 = G.generator(q, 1), G.generator(q, 2)
    a = diag_queer([1, 2], [x1, x2], q)
    u1 = TTauExpression.even_symbol(2, 2, 1)
    u2 = TTauExpression.even_symbol(2, 2, 2)
    o1 = TTauExpression.odd_symbol(2, 2, 1)
    o2 = TTauExpression.odd_symbol(2, 2, 2)
    f = BalancedExpression(o2 - u1 * o1, u2)
    assert evaluate_invariant(a, f) == a.qet() == x1 + x2 * Fraction(1, 2)
    assert evaluate_invariant(a, f) == (x1 + 2 * x2 - 3 * x1 - 3 * x2) * Fraction(-1, 2)
    assert evaluate_invariant(a, BalancedExpression(o1)) == a.qtr()
    with pytest.raises(NotInvariant):
        evaluate_invariant(a, BalancedExpression(u1 * o1))


def test_evaluate_invariant_supplied_values_validated():
    q = 2
    x1, x2 = G.generator(q, 1), G.generator(q, 2)
    a = diag_queer([1, 2], [x1, x2], q)
    f = BalancedExpression(TTauExpression.odd_symbol(2, 2, 1))
    good = list(compute_s(a))
    assert evaluate_invariant(a, f, s_values=good) == a.qtr()
    with pytest.raises(ValidationError):
        evaluate_invariant(a, f, s_values=[G.rational(q, 3), G.rational(q, 5)])
    wrong_body = [G.rational(q, 4), G.rational(q, -2)]
    with pytest.raises(ValidationError):
        evaluate_invariant(a, f, s_values=wrong_body)


def test_two_certificates_agree_n1():
    # a family with three odd parameters: the even certificate is ambiguous
    gq = 4
    v = [G.generator(gq, i) for i in range(1, 5)]
    gamma = v[0] * v[1] * v[2]
    a = SuperMatrix(Standard(1, 1), ODD,
                    [[gamma, G.one(gq)], [G.one(gq), G.zero(gq)]])
    h_spec = list(compute_s(a))
    h_alt = [G.one(gq) + v[0] * v[1]]
    assert verify_recurrence(a.tau_values(2), h_alt)
    for f in balanced_corpus(1, seed=5):
        assert evaluate_invariant(a, f, s_values=h_spec) == evaluate_invariant(a, f, s_values=h_alt)


def test_indistinguishable_cases():
    rng = random.Random(42)
    gq = 3
    eigs = pick_distinct(rng, 2, nonzero=True)
    a = random_queer_with_spectrum(2, eigs, gq, rng.randrange(1 << 30))
    g = random_group_element(Queer(2), gq, rng.randrange(1 << 30), 2)
    assert indistinguishable(a, a.conjugate(g))
    other = random_queer_with_spectrum(2, [e + 11 for e in eigs], gq, rng.randrange(1 << 30))
    assert not indistinguishable(a, other)
    rows = [list(row) for row in a.rows]
    rows[0][0] = rows[0][0] + G.generator(gq, 1)
    bumped = SuperMatrix(Queer(2), ANY, rows)
    if bumped.tau_values(4) != a.tau_values(4):
        assert not indistinguishable(a, bumped)


def test_indistinguishable_odd_value_pairs():
    gq = 3
    gamma = G.generator(gq, 1)
    eps = G.generator(gq, 2)
    a1 = SuperMatrix(Standard(1, 1), ODD,
                     [[gamma, G.rational(gq, 2)], [G.one(gq), G.zero(gq)]])
    a2 = SuperMatrix(Standard(1, 1), ODD,
                     [[gamma, G.rational(gq, 2) + eps * gamma], [G.one(gq), G.zero(gq)]])
    assert a1.supertrace() == a2.supertrace()
    assert (a1 ** 3).supertrace() == (a2 ** 3).supertrace()
    assert indistinguishable(a1, a2)
    for f in balanced_corpus(1, seed=9):
        assert evaluate_invariant(a1, f) == evaluate_invariant(a2, f)


def test_l_invariants():
    rng = random.Random(43)
    a = random_locus_member(2, 3, seed=44)
    values = l_invariants(a)
    g = random_group_element(Queer(2), 3, seed=45, coefficient_bound=2)
    assert l_invariants(a.conjugate(g)) == values
    body_only = SuperMatrix.from_rationals(Queer(2), ANY, [[1, 0], [0, 2]], 2)
    assert l_invariants(body_only) == [G.rational(2, 3), G.rational(2, -2)]
    x1 = G.generator(2, 1)
    outside = SuperMatrix(Queer(1), ANY, [[G.rational(2, 2) + x1]])
    with pytest.raises(NotInL) as err:
        l_invariants(outside)
    assert err.value.index == 1


def test_qet_generating_coefficients():
    q = 1
    x1 = G.generator(q, 1)
    a = SuperMatrix(Queer(1), ANY, [[G.rational(q, 2) + x1]])
    assert qet_generating_coefficients(a, 3) == [-x1, -2 * x1, -4 * x1]
    assert qet_generating_coefficients(a, 1)[0] == -a.qtr()
    odd = SuperMatrix(Standard(1, 1), ODD, [[x1, G.rational(q, 3)], [G.one(q), G.zero(q)]])
    coeffs = qet_generating_coefficients(odd, 4)
    assert coeffs[0].is_zero() and coeffs[2].is_zero()
    assert coeffs[1] == -odd.tau(1)
    assert coeffs[3] == -3 * odd.tau(2)


def test_qet_generating_coefficients_match_matrix_route():
    rng = random.Random(46)
    for _ in range(6):
        n = rng.randint(1, 3)
        gq = rng.randint(2, 3)
        eigs = pick_distinct(rng, n, nonzero=True)
        a = random_queer_with_spectrum(n, eigs, gq, rng.randrange(1 << 30))
        coeffs = qet_generating_coefficients(a, 2 * n)
        taus = a.tau_values(2 * n)
        assert coeffs == [-t for t in taus]


def test_balanced_corpus_members_are_balanced():
    for n in (1, 2, 3):
        corpus = balanced_corpus(n, seed=50 + n)
        assert len(corpus) >= n + 1
        for f in corpus:
            assert f.is_balanced()[0]


def test_residual_rows_same_for_integer_one():
    # the den == 1 shortcut builds the matrix the general quotient rule gives
    for n in (2, 3):
        pullbacks = [TTauExpression.monomial(n, n, e, m).expand(even_basis="s")
                     for weight in range(1, min(2 * n, n + 2) + 1)
                     for e, m in _ttau_monomials(n, weight, max_odd=n)]
        assert _residual_rows(pullbacks, 1, n) == _residual_rows(pullbacks, SuperPolynomial.one(n), n)


def test_dual_route_agreement():
    rng = random.Random(51)
    corpus = balanced_corpus(2, seed=52)
    for _ in range(5):
        gq = rng.randint(2, 4)
        eigs = pick_distinct(rng, 2, nonzero=True)
        a = random_queer_with_spectrum(2, eigs, gq, rng.randrange(1 << 30))
        b, beta = a.queer_split()
        s_spec = compute_s(a)
        s_closed = q2_closed_form(b, beta)
        for f in corpus:
            assert evaluate_invariant(a, f, s_values=s_spec) == \
                evaluate_invariant(a, f, s_values=s_closed)


def test_qet_matches_eigendata_route():
    # two independent computations: the finite series on the matrix, and the
    # sum alpha_i / a_i over the extracted diagonal data
    rng = random.Random(55)
    for _ in range(8):
        n = rng.randint(1, 3)
        gq = rng.randint(2, 3)
        eigs = pick_distinct(rng, n, nonzero=True)
        a = random_queer_with_spectrum(n, eigs, gq, rng.randrange(1 << 30))
        want = G.zero(gq)
        for av, alpha in eigendata(a):
            want = want + alpha * av.invert()
        assert a.qet() == want


def test_tau_single_and_batch_agree():
    rng = random.Random(56)
    for _ in range(6):
        gq = rng.randint(2, 3)
        a = random_queer_with_spectrum(2, pick_distinct(rng, 2), gq, rng.randrange(1 << 30))
        # tau_k = qtr(A^k)/k and str(B^(2k-1))/(2k-1), from whole powers
        assert a.tau_values(4) == [a.tau(k) for k in range(1, 5)]
        assert a.tau_values(4) == [(a ** k).qtr() * Fraction(1, k) for k in range(1, 5)]
        b = random_odd_reducible(2, pick_distinct(rng, 2, nonzero=True), gq,
                                 rng.randrange(1 << 30))
        assert b.tau_values(4) == [b.tau(k) for k in range(1, 5)]
        assert b.tau_values(4) == [(b ** (2 * k - 1)).supertrace() * Fraction(1, 2 * k - 1)
                                   for k in range(1, 5)]


def test_odd_family_pipeline():
    rng = random.Random(53)
    corpus = balanced_corpus(2, seed=54)
    for _ in range(4):
        gq = rng.randint(2, 3)
        vals = pick_distinct(rng, 2, nonzero=True)
        a = random_odd_reducible(2, vals, gq, rng.randrange(1 << 30))
        assert verify_recurrence(a.tau_values(4), compute_s(a))
        g = random_group_element(Standard(2, 2), gq, rng.randrange(1 << 30), 2)
        conj = a.conjugate(g)
        for f in corpus:
            assert evaluate_invariant(a, f) == evaluate_invariant(conj, f)
