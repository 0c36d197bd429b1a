import hashlib
import json
import random
from fractions import Fraction

import pytest

from superinv import (
    ANY,
    EVEN,
    GeneratorCountMismatch,
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
    ZeroEigenvalue,
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
    reduce_odd,
    verify_recurrence,
)
from superinv.invariants import _balance_kernels, _kernel_combinations
from superinv.sympoly import (
    BalancedExpression,
    _ttau_monomials,
    coefficient_matrix,
    power_sum_odd,
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

from expansion_oracle import balance_residual, residual_rows

G = GrassmannScalar


def diag_queer(avals, alphas, q):
    n = len(avals)
    rows = [[G.zero(q)] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = G.rational(q, avals[i]) + alphas[i]
    return SuperMatrix(Queer(n), ANY, rows)


def _matches_tau(pairs, a):
    n = len(pairs)
    a_vals, alpha_vals = zip(*pairs)
    moments = [power_sum_odd(n, k).evaluate(a_vals, alpha_vals) for k in range(1, 2 * n + 1)]
    return moments == a.tau_values(2 * n)


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


@pytest.mark.parametrize("bad", [3, Fraction(-2, 3), G.rational(3, 3)])
def test_evaluate_invariants_rejects_s_that_are_not_scalars_over_q(bad):
    q = 2
    x1, x2 = G.generator(q, 1), G.generator(q, 2)
    a = diag_queer([1, 2], [x1, x2], q)
    f = BalancedExpression(TTauExpression.odd_symbol(2, 2, 1))
    good = list(compute_s(a))
    for s_values in ([bad, good[1]], [good[0], bad]):
        with pytest.raises(ValidationError, match="Grassmann scalars over q=2"):
            evaluate_invariants(a, [f], s_values=s_values)


def test_evaluate_invariants_supplied_s_reads_the_moments_once(monkeypatch):
    q = 2
    x1, x2 = G.generator(q, 1), G.generator(q, 2)
    a = diag_queer([1, 2], [x1, x2], q)
    corpus = balanced_corpus(2, seed=3)
    s_values = list(compute_s(a))
    want = [evaluate_invariant(a, f) for f in corpus]
    counts = []
    real = SuperMatrix.tau_values

    def recording(self, upto):
        counts.append(upto)
        return real(self, upto)

    monkeypatch.setattr(SuperMatrix, "tau_values", recording)
    assert evaluate_invariants(a, corpus, s_values) == want
    assert counts == [4]


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


def test_indistinguishable_rejects_matrices_of_different_families():
    q = 2
    queer = diag_queer([1, 2], [G.zero(q), G.zero(q)], q)
    odd = SuperMatrix(Standard(1, 1), ODD, [[G.generator(q, 1), G.one(q)],
                                            [G.one(q), G.generator(q, 2)]])
    with pytest.raises(ShapeMismatch, match="the two matrices belong to different families"):
        indistinguishable(queer, odd)
    # one family size, but a queer matrix and an odd (1|1) one
    q1 = SuperMatrix.from_rationals(Queer(1), ANY, [[2]], q)
    odd11 = SuperMatrix.from_rationals(Standard(1, 1), ODD, [[0, 1], [2, 0]], q)
    with pytest.raises(ShapeMismatch, match="the two matrices belong to different families"):
        indistinguishable(q1, odd11)
    # one matrix over two generator counts
    with pytest.raises(GeneratorCountMismatch, match="generator counts differ: 3 vs 1"):
        indistinguishable(SuperMatrix.from_rationals(Queer(1), ANY, [[2]], 3),
                          SuperMatrix.from_rationals(Queer(1), ANY, [[2]], 1))


def test_indistinguishable_rejects_matrices_without_eigendata():
    q = 2
    x1, x2 = G.generator(q, 1), G.generator(q, 2)
    repeated = diag_queer([1, 1], [x1, x2], q)
    with pytest.raises(MultipleEigenvalue):
        indistinguishable(repeated, repeated)
    zero = SuperMatrix(Standard(1, 1), ODD, [[x1, G.zero(q)], [G.rational(q, 3), x2]])
    with pytest.raises(ZeroEigenvalue):
        indistinguishable(zero, zero)
    rotation = SuperMatrix.from_rationals(Queer(2), ANY, [[0, -1], [1, 0]], q)
    with pytest.raises(NonSplitting):
        indistinguishable(rotation, rotation)


@pytest.mark.parametrize("eigs, seed", [([-1, -1, 0], 114), ([0, 2, 2], 115)])
def test_indistinguishable_raises_what_reduce_odd_raises(eigs, seed):
    # both a zero and a repeated eigenvalue: the first sorted one decides
    a = random_odd_reducible(3, eigs, 2, seed=seed)
    with pytest.raises((MultipleEigenvalue, ZeroEigenvalue)) as reduced:
        reduce_odd(a)
    with pytest.raises((MultipleEigenvalue, ZeroEigenvalue)) as compared:
        indistinguishable(a, a)
    assert compared.type is reduced.type
    assert str(compared.value) == str(reduced.value)


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
            assert linalg.nullspace(residual_rows(pullbacks, den)) == \
                linalg.nullspace(_per_index_residual_rows(pullbacks, den, n))


# recorded with the per-index residual system of the expansion route; the
# symbol-route conditions must give the same kernels and so byte-identical corpora
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


def _rebuilt_kernels(n):
    """The candidate keys and both kernels as every balanced_corpus call built
    them before the table keyed on n, through the expansion route."""
    monos = [key for weight in range(1, min(2 * n, n + 2) + 1) for key in _ttau_monomials(n, weight)]
    pullbacks = [TTauExpression.monomial(n, n, e, m).expand(even_basis="s") for e, m in monos]
    return monos, [linalg.nullspace(residual_rows(pullbacks, den))
                   for den in (1, signed_elementary_poly(n, n))]


def _rows(monos, kernel):
    """Dense kernel vectors over the candidate keys as rows of nonzero (key, weight) pairs."""
    return [[(key, w) for key, w in zip(monos, vec) if w != 0] for vec in kernel]


def test_balance_kernel_rows_expand_to_the_nullspace_vectors():
    # the symbol-route kernels against the expansion route's
    for n in (1, 2, 3, 4, 5):
        monos, kernels = _rebuilt_kernels(n)
        for table_rows, dense in zip(_balance_kernels(n), kernels):
            assert len(table_rows) == len(dense) > 0, n
            for row, vec in zip(table_rows, dense):
                assert all(w != 0 for _key, w in row), n
                weights = dict(row)
                assert len(weights) == len(row)
                assert [weights.get(key, 0) for key in monos] == list(vec), n


def _rebuilt_corpus(n, seed, combos, monos, kernels):
    rng = random.Random(seed)
    corpus = [BalancedExpression(TTauExpression.odd_symbol(n, n, i)) for i in range(1, n + 1)]
    u = [TTauExpression.even_symbol(n, n, i) for i in range(1, n + 1)]
    x = [TTauExpression.odd_symbol(n, n, i) for i in range(1, n + 1)]
    if n == 1:
        corpus += [BalancedExpression(u[0] * x[0]), BalancedExpression(u[0] * u[0] * x[0]),
                   BalancedExpression(x[0], u[0])]
    if n == 2:
        corpus.append(BalancedExpression(x[1] - u[0] * x[0], u[1]))
    corpus += [BalancedExpression(c)
               for c in _kernel_combinations(rng, _rows(monos, kernels[0]), combos, n)]
    corpus += [BalancedExpression(c, u[n - 1])
               for c in _kernel_combinations(rng, _rows(monos, kernels[1]), max(1, combos // 2), n)]
    return corpus


def test_balanced_corpus_table_matches_the_per_call_construction():
    for n in (1, 2, 3, 4):
        monos, kernels = _rebuilt_kernels(n)
        _balance_kernels.cache_clear()
        for seed in range(5):
            for combos in range(5):
                # the first corpus of each n comes from a cleared table, the rest from a filled one
                want = [f.to_obj() for f in _rebuilt_corpus(n, seed, combos, monos, kernels)]
                assert [f.to_obj() for f in balanced_corpus(n, seed, combos)] == want, (n, seed, combos)
        assert _balance_kernels.cache_info().misses == 1


def test_balanced_corpus_builds_its_kernels_once_per_n(monkeypatch):
    calls = []
    for owner, name in ((TTauExpression, "derivation"), (linalg, "nullspace")):
        def counting(*args, _original=getattr(owner, name), _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    _balance_kernels.cache_clear()
    balanced_corpus(3, 1)
    # the first corpus builds the kernels from the balance conditions
    assert set(calls) == {"derivation", "nullspace"}
    del calls[:]
    corpus = balanced_corpus(3, 2)
    assert calls == [] and len(corpus) > 3


def test_balanced_corpus_table_is_immutable():
    kernel, den_kernel = _balance_kernels(2)
    for part in (kernel, den_kernel):
        assert type(part) is tuple and all(type(item) is tuple for item in part)
    first = balanced_corpus(2, 7)
    want = [f.to_obj() for f in first]
    first.clear()
    assert [f.to_obj() for f in balanced_corpus(2, 7)] == want


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


def test_evaluate_invariants_pins_the_body_of_supplied_s():
    q = 2
    a = diag_queer([1, 2], [G.zero(q), G.zero(q)], q)
    # every moment of a vanishes, so the recurrence holds and only the body pin can fire
    assert all(t.is_zero() for t in a.tau_values(4))
    with pytest.raises(ValidationError, match="supplied s_1 has body 4, expected 3"):
        evaluate_invariants(a, [], s_values=[G.rational(q, 4), G.rational(q, -2)])


def test_evaluate_invariants_reads_symbols_above_n_by_their_recurrences():
    q = 2
    a = diag_queer([1, 2], [G.generator(q, 1), G.generator(q, 2)], q)
    x1, x3 = TTauExpression.odd_symbol(2, 3, 1), TTauExpression.odd_symbol(2, 3, 3)
    # at n = 2, u_3 stands for s_3 = 0 and x_3 for tau_3 = tau_2 s_1 + tau_1 s_2
    over_one = BalancedExpression(x1, 1 + TTauExpression.even_symbol(2, 3, 3))
    tau3 = BalancedExpression(x3)
    assert over_one.is_balanced() == tau3.is_balanced() == (True, None)
    want = [a.qtr(), a.tau_values(3)[2]]
    assert evaluate_invariant(a, over_one) == want[0]
    for s_values in (None, compute_s(a)):
        assert evaluate_invariants(a, [over_one, tau3], s_values) == want


def test_denominator_zero_in_the_symbols_of_n_is_rejected():
    q = 2
    a = diag_queer([1, 2], [G.generator(q, 1), G.generator(q, 2)], q)
    f = BalancedExpression(TTauExpression.odd_symbol(2, 3, 1), TTauExpression.even_symbol(2, 3, 3))
    message = "^denominator is zero in the symbols of n = 2$"
    with pytest.raises(ValidationError, match=message):
        f.is_balanced()
    with pytest.raises(ValidationError, match=message):
        evaluate_invariants(a, [f])
    with pytest.raises(ValidationError, match=message):
        evaluate_invariant(a, f, s_values=compute_s(a))


@pytest.mark.parametrize("f", [1, TTauExpression.odd_symbol(2, 2, 1), None])
def test_evaluate_invariants_rejects_what_is_not_a_balanced_expression(f):
    q = 2
    a = diag_queer([1, 2], [G.generator(q, 1), G.generator(q, 2)], q)
    good = BalancedExpression(TTauExpression.odd_symbol(2, 2, 1))
    with pytest.raises(ValidationError, match="expected a BalancedExpression"):
        evaluate_invariants(a, [good, f])
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


def _ring_sum_combinations(rng, kernel, monos, count, n):
    # the combinations as ring sums of scaled monomials, as an oracle
    out = []
    for _ in range(count):
        combo = TTauExpression.zero(n, n)
        for vec in kernel:
            c = rng.randint(-2, 2)
            for (exps, mask), weight in zip(monos, vec):
                if c and weight:
                    combo = combo + TTauExpression.monomial(n, n, exps, mask) * (weight * c)
        if not combo.is_zero():
            out.append(combo)
    return out


def test_kernel_combinations_sum_in_one_dict(monkeypatch):
    for n in (1, 2, 3):
        monos, kernels = _rebuilt_kernels(n)
        for den, kernel in zip(("1", "s_n"), kernels):
            want = _ring_sum_combinations(random.Random(n), kernel, monos, 5, n)
            with monkeypatch.context() as patch:
                calls = []
                for name in ("__add__", "__mul__"):
                    method = getattr(SuperPolynomial, name)
                    patch.setattr(SuperPolynomial, name,
                                  lambda self, other, method=method: calls.append(other)
                                  or method(self, other))
                got = _kernel_combinations(random.Random(n), _rows(monos, kernel), 5, n)
            assert calls == []
            assert got == want and len(got) >= 3, (n, den)
            assert all(type(g) is TTauExpression and g.symbol_range == n for g in got)
