import hashlib
import json
import random
from fractions import Fraction

import pytest

from superinv import (
    ANY,
    EVEN,
    GrassmannScalar,
    MultipleEigenvalue,
    NonSplitting,
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
    ZeroBody,
    ZeroDiscriminant,
    balanced_corpus,
    body_signed_elementary,
    compute_s,
    eigendata,
    evaluate_invariant,
    evaluate_invariants,
    indistinguishable,
    l_invariants,
    linalg,
    q2_closed_form,
    qet_generating_coefficients,
    random_group_element,
    random_matrix,
    verify_recurrence,
)
from superinv.invariants import _moment, _residual_rows
from superinv.sympoly import (
    BalancedExpression,
    _ttau_monomials,
    balance_residual,
    coefficient_matrix,
    signed_elementary_poly,
)
from superinv.verify import (
    _conjugated,
    _corpus_agrees,
    _odd_sample,
    _queer_sample,
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
    s = q2_closed_form(b)
    assert s == (3, -2)
    beta = SuperMatrix(Queer(2), ANY, [[x1, G.zero(q)], [G.zero(q), x2]])
    a = b + beta
    s = q2_closed_form(a)
    assert verify_recurrence(a.tau_values(4), s)


def test_q2_closed_form_contract_random():
    rng = random.Random(41)
    for _ in range(12):
        gq = rng.randint(2, 4)
        eigs = pick_distinct(rng, 2, nonzero=True)
        a = random_queer_with_spectrum(2, eigs, gq, rng.randrange(1 << 30), soul_terms=2)
        s = q2_closed_form(a)
        assert verify_recurrence(a.tau_values(4), s)
        assert [v.body() for v in s] == body_signed_elementary(a)


def test_q2_closed_form_rejections():
    q = 2
    b = SuperMatrix.from_rationals(Queer(2), ANY, [[1, 0], [0, 1]], q)
    with pytest.raises(ZeroDiscriminant):
        q2_closed_form(b)
    with pytest.raises(ShapeMismatch):
        q2_closed_form(SuperMatrix.from_rationals(Queer(1), ANY, [[1]], q))
    with pytest.raises(ShapeMismatch):
        q2_closed_form(SuperMatrix.from_rationals(Standard(1, 1), ANY, [[1, 0], [0, 2]], q))
    with pytest.raises(ShapeMismatch):
        q2_closed_form([[1, 0], [0, 2]])


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


def test_evaluate_invariant_rejects_s_failing_the_recurrence():
    # s_1 moved by a nilpotent: the bodies still match, so only the recurrence can reject it
    q = 3
    x1, x2, x3 = (G.generator(q, i) for i in (1, 2, 3))
    a = diag_queer([1, 2], [x1, x2], q)
    f = BalancedExpression(TTauExpression.odd_symbol(2, 2, 1))
    good = list(compute_s(a))
    bad = [good[0] + x1 * x3, good[1]]
    assert [v.body() for v in bad] == [v.body() for v in good]
    assert verify_recurrence(a.tau_values(4), good)
    assert not verify_recurrence(a.tau_values(4), bad)
    with pytest.raises(ValidationError, match="fail the recurrence"):
        evaluate_invariant(a, f, s_values=bad)


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
                     for e, m in _ttau_monomials(n, weight)]
        assert _residual_rows(pullbacks, 1) == _residual_rows(pullbacks, SuperPolynomial.one(n))


def _corpus_pullbacks(n):
    return [TTauExpression.monomial(n, n, e, m).expand(even_basis="s")
            for weight in range(1, min(2 * n, n + 2) + 1)
            for e, m in _ttau_monomials(n, weight)]


def _per_index_residual_rows(polys, den, n):
    # the earlier stacked system, one block of rows per index i, as an oracle
    columns = []
    for poly in polys:
        column = {}
        for i in range(1, n + 1):
            for key, c in balance_residual(poly, den, i).terms.items():
                column[(i, key)] = c
        columns.append(column)
    return coefficient_matrix(columns)


def test_residual_i_is_first_residual_permuted():
    # on a symmetric N/D, residual i is residual 1 with indices 1 and i swapped
    rng = random.Random(56)
    nonzero = 0
    for n in (1, 2, 3):
        pullbacks = _corpus_pullbacks(n)
        for den in (1, signed_elementary_poly(n, n)):
            for _ in range(4):
                num = SuperPolynomial.zero(n)
                for poly in rng.sample(pullbacks, min(4, len(pullbacks))):
                    num = num + poly * rng.randint(-3, 3)
                first = balance_residual(num, den, 1)
                nonzero += not first.is_zero()
                for i in range(2, n + 1):
                    swap = list(range(n))
                    swap[0], swap[i - 1] = i - 1, 0
                    assert balance_residual(num, den, i) == first.permute(swap)
    assert nonzero > 0


def test_first_residual_system_has_the_per_index_kernel():
    for n in (1, 2, 3):
        pullbacks = _corpus_pullbacks(n)
        for den in (1, signed_elementary_poly(n, n)):
            assert linalg.nullspace(_residual_rows(pullbacks, den)) == \
                linalg.nullspace(_per_index_residual_rows(pullbacks, den, n))


# recorded with the per-index residual system; the first-residual one must
# give the same kernels and so byte-identical corpora
CORPUS_SHA256 = {
    (1, 0, 4): "6de101b5c5a0dc866077bd20d5d05aeb0ebaad39edd8e5bb8aa6cbf1059aefed",
    (1, 2, 2): "c598196b747236e75594324f34896c69d0409e27bc760e417262711434086b2f",
    (2, 1, 4): "3bbc798cfb66627d0a056024c41c6d64d6ffd3507a083fc32dd8ae25bb8fd472",
    (2, 0, 3): "098e78008eea9a91be74737a4a46c74b04677f015412028399ff336df75c8399",
    (3, 2, 4): "06b6d1b0af15ddc384a082176b9f22d969c229698573b5269e9b0b4a9e6c68e5",
    (3, 1, 2): "f92525b49f16a5942b21423d230e8c75acadeae7441c00ce8bf41e979c8b4038",
}


@pytest.mark.parametrize("n, seed, combos", sorted(CORPUS_SHA256))
def test_balanced_corpus_digests(n, seed, combos):
    text = json.dumps([f.to_obj() for f in balanced_corpus(n, seed, combos)], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == CORPUS_SHA256[n, seed, combos]


@pytest.mark.parametrize("n, combos, message", [
    (0, 4, "n must be a positive integer"),
    (-1, 4, "n must be a positive integer"),
    (True, 4, "n must be a positive integer"),
    (2.0, 4, "n must be a positive integer"),
    ("2", 4, "n must be a positive integer"),
    (1, True, "combos must be a non-negative integer"),
    (1, False, "combos must be a non-negative integer"),
    (1, -3, "combos must be a non-negative integer"),
    (2, 1.5, "combos must be a non-negative integer"),
    (2, None, "combos must be a non-negative integer"),
])
def test_balanced_corpus_rejects_bad_counts(n, combos, message):
    with pytest.raises(ValidationError, match=message):
        balanced_corpus(n, 1, combos)


def test_balanced_corpus_with_no_undenominated_combinations():
    # past the two odd symbols, only (x2 - u1 x1)/u2 and the u2-denominated combination
    corpus = balanced_corpus(2, 1, 0)
    u2 = TTauExpression.even_symbol(2, 2, 2)
    assert len(corpus) == 4 and all(f.denominator == u2 for f in corpus[2:])


def test_dual_route_agreement():
    rng = random.Random(51)
    corpus = balanced_corpus(2, seed=52)
    for _ in range(5):
        gq = rng.randint(2, 4)
        eigs = pick_distinct(rng, 2, nonzero=True)
        a = random_queer_with_spectrum(2, eigs, gq, rng.randrange(1 << 30))
        s_spec = compute_s(a)
        s_closed = q2_closed_form(a)
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


# ----------------------------------------------------------------------
# one evaluation pass per matrix


def _per_expression_corpus_agrees(corpus, a1, a2, s1=None, s2=None):
    # the per-expression loop `_corpus_agrees` ran before evaluation was
    # batched: it stops at the first expression that disagrees
    return all(evaluate_invariant(a1, f, s_values=s1) == evaluate_invariant(a2, f, s_values=s2)
               for f in corpus)


def _samples(seed):
    # (corpus, matrix, rng) for a queer and an odd family at each n = 1..3
    rng = random.Random(seed)
    for n in (1, 2, 3):
        corpus = balanced_corpus(n, seed=seed + 1)
        for sample in (_queer_sample, _odd_sample):
            yield corpus, sample(rng, n, rng.randint(2, 3)), rng


def test_evaluate_invariants_matches_one_at_a_time():
    for corpus, a, _rng in _samples(61):
        for s_values in (None, compute_s(a)):
            assert evaluate_invariants(a, corpus, s_values) == \
                [evaluate_invariant(a, f, s_values=s_values) for f in corpus]
        assert evaluate_invariants(a, []) == []


def test_corpus_agrees_matches_per_expression_oracle():
    for corpus, a, rng in _samples(63):
        conj = _conjugated(rng, a)
        rows = [list(row) for row in a.rows]
        rows[0][0] = rows[0][0] + G.generator(a.gq, 1)  # same body, tau_1 moved by e1
        other = SuperMatrix(a.shape, a.parity, rows)
        for s1, s2 in ((None, None), (compute_s(a), compute_s(conj))):
            assert _corpus_agrees(corpus, a, conj, s1, s2)
            assert _per_expression_corpus_agrees(corpus, a, conj, s1, s2)
        assert not _corpus_agrees(corpus, a, other)
        assert not _per_expression_corpus_agrees(corpus, a, other)


def test_evaluate_invariants_checks_every_expression_before_s():
    q = 2
    x1, x2 = G.generator(q, 1), G.generator(q, 2)
    u1 = TTauExpression.even_symbol(2, 2, 1)
    good = BalancedExpression(TTauExpression.odd_symbol(2, 2, 1))
    unbalanced = BalancedExpression(u1 * TTauExpression.odd_symbol(2, 2, 1))
    wrong_n = BalancedExpression(TTauExpression.odd_symbol(1, 1, 1))
    repeated = diag_queer([1, 1], [x1, x2], q)  # compute_s raises MultipleEigenvalue
    with pytest.raises(MultipleEigenvalue):
        evaluate_invariant(repeated, good)
    with pytest.raises(NotInvariant, match="expression is not balanced"):
        evaluate_invariants(repeated, [good, unbalanced])
    with pytest.raises(ValidationError, match="expression is for n=1, matrix has n=2"):
        evaluate_invariants(repeated, [good, wrong_n, unbalanced])
    a = diag_queer([1, 2], [x1, x2], q)
    with pytest.raises(NotInvariant, match="expression is not balanced"):
        evaluate_invariants(a, [good, unbalanced], s_values=[G.rational(q, 3)])
    assert evaluate_invariants(a, (f for f in [good, good])) == [a.qtr(), a.qtr()]
    with pytest.raises(ValidationError, match="need exactly 2 semi-invariant values"):
        evaluate_invariants(a, [good], s_values=[G.rational(q, 3)])


def test_corpus_agrees_evaluates_every_expression():
    # the first expression disagrees and the second divides by a zero-body s_2:
    # the per-expression loop stops at the disagreement, the batched one raises
    q = 2
    x1 = G.generator(q, 1)
    a1 = diag_queer([0, 1], [x1, G.zero(q)], q)
    a2 = diag_queer([0, 1], [G.zero(q), G.zero(q)], q)
    u1, u2 = TTauExpression.even_symbol(2, 2, 1), TTauExpression.even_symbol(2, 2, 2)
    o1, o2 = TTauExpression.odd_symbol(2, 2, 1), TTauExpression.odd_symbol(2, 2, 2)
    corpus = [BalancedExpression(o1), BalancedExpression(o2 - u1 * o1, u2)]
    assert _per_expression_corpus_agrees(corpus, a1, a2) is False
    with pytest.raises(ZeroBody):
        _corpus_agrees(corpus, a1, a2)


def test_q2_closed_form_on_dense_souls():
    # souls with up to six terms per entry: the soul correction of s_1 is
    # exercised far beyond the one-term souls the verify samplers draw
    corpus = balanced_corpus(2, seed=66)
    polynomial = [f for f in corpus if f.denominator == 1]  # defined where s_2 has zero body
    eligible = split = singular = 0
    for q in range(3, 7):
        for seed in range(40):
            a = random_matrix(Queer(2), ANY, q, seed, 3, max_terms=6)
            try:
                closed = q2_closed_form(a)
            except ZeroDiscriminant:
                continue
            eligible += 1
            assert verify_recurrence(a.tau_values(4), closed)
            usable = corpus if closed[1].body() != 0 else polynomial
            singular += usable is polynomial
            with_closed = evaluate_invariants(a, usable, closed)
            try:
                spectral = compute_s(a)
            except NonSplitting:  # an irrational body spectrum has no spectral s
                continue
            split += 1
            assert with_closed == evaluate_invariants(a, usable, spectral)
    assert (eligible, split, singular) == (100, 77, 54)
