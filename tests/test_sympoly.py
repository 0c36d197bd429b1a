import json
import random
from fractions import Fraction
from itertools import combinations, permutations
from math import prod

import pytest

from superinv import (
    ANY,
    BalancedExpression,
    GrassmannScalar,
    NotInvariant,
    NotSymmetric,
    Queer,
    SuperMatrix,
    SuperPolynomial,
    TTauExpression,
    ValidationError,
    assemble_invariant,
    elementary_from_roots,
    evaluate_invariant,
    invariant_decomposition,
    invariant_normal_form,
    is_balanced,
    linalg,
    power_sum_even,
    power_sum_odd,
    rewrite_symmetric,
    signed_elementary_poly,
    vandermonde_adjoint,
    verify_recurrence,
)
from superinv.grassmann import mask_to_indices
from superinv.sympoly import (
    _power_sum_odd,
    _sort_sign,
    _ttau_monomials,
    balance_residual,
    coefficient_matrix,
)

G = GrassmannScalar


def ev(n, i):
    return SuperPolynomial.even_var(n, i)


def ov(n, i):
    return SuperPolynomial.odd_var(n, i)


# ----------------------------------------------------------------------
# polynomial ring basics


def test_odd_variables_anticommute():
    b1, b2 = ov(2, 1), ov(2, 2)
    assert b1 * b2 == -(b2 * b1)
    assert (b1 * b1).is_zero()


def test_permutation_action_signs():
    f = ov(2, 1) * ov(2, 2)
    swapped = f.permute([1, 0])
    assert swapped == -f


def test_permute_rejects_non_int_entries():
    f = ov(2, 1) * ev(2, 2)
    for perm in ([0.0, 1.0], [True, False]):
        with pytest.raises(ValidationError, match="^perm must be a permutation of 0..n-1$"):
            f.permute(perm)
    assert f.permute((1, 0)) == ov(2, 2) * ev(2, 1)


def test_is_symmetric_witness():
    f = ev(3, 1)
    ok, witness = f.is_symmetric()
    assert not ok and witness == (1, 2)
    assert power_sum_even(3, 2).is_symmetric()[0]
    assert power_sum_odd(3, 2).is_symmetric()[0]


def test_evaluation_matches_structure():
    q = 2
    x1, x2 = G.generator(q, 1), G.generator(q, 2)
    f = power_sum_odd(2, 2)
    val = f.evaluate([G.rational(q, 1), G.rational(q, 2)], [x1, x2])
    assert val == x1 + 2 * x2


@pytest.mark.parametrize("call, message", [
    (lambda: SuperPolynomial(-1), "variable count must be a non-negative integer"),
    (lambda: SuperPolynomial(2, {((1,), 0): 1}), "exponent vector must be 2 non-negative ints"),
    (lambda: SuperPolynomial.one(2).evaluate([G.one(2)], []), "need 2 even and 2 odd values"),
    (lambda: TTauExpression(1, -1), "symbol range must be a non-negative integer"),
    (lambda: TTauExpression.odd_symbol(1, 2, 2).expand(even_basis="x"),
     "even_basis must be 't' or 's'"),
    (lambda: TTauExpression.odd_symbol(1, 2, 2).evaluate([G.one(2)], [G.zero(2)]),
     "need 0 even and 2 odd symbol values"),
    (lambda: BalancedExpression(TTauExpression.odd_symbol(1, 2, 1), TTauExpression.constant(2, 2, 1)),
     "numerator and denominator shapes differ"),
    (lambda: elementary_from_roots([G.one(2), G.one(3)]), "values must be scalars over one algebra"),
], ids=["negative-n", "exponent-width", "value-count", "negative-range", "even-basis",
        "symbol-values", "balanced-shapes", "two-algebras"])
def test_polynomial_input_checks(call, message):
    with pytest.raises(ValidationError) as exc:
        call()
    assert str(exc.value) == message


def test_nonhomogeneous_power_sum_identity():
    for n in (1, 2, 3):
        for k in range(1, 2 * n + 1):
            acc = SuperPolynomial.zero(n)
            for i in range(1, n + 1):
                acc = acc + (ev(n, i) + ov(n, i)) ** k
            assert acc == power_sum_even(n, k) + k * power_sum_odd(n, k)


# ----------------------------------------------------------------------
# invariance conditions and the structure decomposition


def test_invariant_decomposition_examples():
    tau2 = power_sum_odd(2, 2)
    constant, comps = invariant_decomposition(tau2)
    assert constant == 0
    assert comps[0] == SuperPolynomial.even_var(1, 1)
    assert comps[1].is_zero()

    f = power_sum_odd(2, 1) * power_sum_odd(2, 2)
    constant, comps = invariant_decomposition(f)
    x, y = ev(2, 1), ev(2, 2)
    assert comps[1] == y - x
    assert comps[0].is_zero() and constant == 0

    constant, comps = invariant_decomposition(SuperPolynomial.constant(2, Fraction(5, 3)))
    assert constant == Fraction(5, 3)
    assert all(c.is_zero() for c in comps)


def test_invariant_decomposition_skew_and_reassembly():
    rng = random.Random(6)
    for _ in range(10):
        n = rng.randint(1, 3)
        expr = TTauExpression.zero(n, 2 * n)
        monos = []
        for size in range(1, n + 1):
            for tup in combinations(range(1, 2 * n + 1), size):
                monos.append(tup)
        for _ in range(rng.randint(1, 3)):
            tup = monos[rng.randrange(len(monos))]
            mask = 0
            for i in tup:
                mask |= 1 << (i - 1)
            expr = expr + TTauExpression(n, 2 * n, {((0,) * (2 * n), mask): rng.randint(-3, 3) or 1})
        f = expr.expand()
        constant, comps = invariant_decomposition(f)
        assert assemble_invariant(n, constant, comps) == f
        for s, comp in enumerate(comps, start=1):
            if s >= 2 and not comp.is_zero():
                for i in range(s - 1):
                    perm = list(range(s))
                    perm[i], perm[i + 1] = perm[i + 1], perm[i]
                    assert comp.permute(perm) == -comp


def check_invariant_precondition(operation):
    with pytest.raises(NotInvariant, match="^polynomial is not symmetric$") as err:
        operation(ev(2, 1))
    assert err.value.witness == (1, 2)
    with pytest.raises(NotInvariant,
                       match="^polynomial is not invariant under the odd action$") as err:
        operation(power_sum_even(2, 1))
    assert err.value.witness == (1, ov(2, 1))


def test_invariant_decomposition_rejects():
    check_invariant_precondition(invariant_decomposition)


# ----------------------------------------------------------------------
# the power matrix and its polynomial adjoint


def test_vandermonde_adjoint_small():
    m, mp = vandermonde_adjoint(1)
    assert m == [[SuperPolynomial.one(1)]]
    assert mp == [[SuperPolynomial.one(1)]]
    m, mp = vandermonde_adjoint(2)
    a1, a2 = ev(2, 1), ev(2, 2)
    prod = [[sum((mp[i][k] * m[k][j] for k in range(2)), SuperPolynomial.zero(2))
             for j in range(2)] for i in range(2)]
    assert prod[0][0] == a1 - a2
    assert prod[1][1] == a2 - a1
    assert prod[0][1].is_zero() and prod[1][0].is_zero()


@pytest.mark.parametrize("n", ["a", 1.0, True, None, 0, -2])
def test_vandermonde_adjoint_rejects_n_that_is_not_a_positive_int(n):
    with pytest.raises(ValidationError, match="need at least one variable"):
        vandermonde_adjoint(n)


def test_vandermonde_adjoint_symbolic_up_to_four():
    for n in range(1, 5):
        m, mp = vandermonde_adjoint(n)
        for k in range(n):
            for l in range(n):
                entry = SuperPolynomial.zero(n)
                for i in range(n):
                    entry = entry + mp[k][i] * m[i][l]
                if k != l:
                    assert entry.is_zero()
                else:
                    want = SuperPolynomial.one(n)
                    for i in range(1, n + 1):
                        if i != k + 1:
                            want = want * (ev(n, k + 1) - ev(n, i))
                    assert entry == want


def test_vandermonde_adjoint_numeric():
    rng = random.Random(20)
    for _ in range(30):
        n = rng.randint(2, 3)
        vals = []
        while len(vals) < n:
            v = Fraction(rng.randint(-8, 8), rng.randint(1, 3))
            if v not in vals:
                vals.append(v)
        m, mp = vandermonde_adjoint(n)
        scalars = [G.rational(0, v) for v in vals]
        zeros = [G.zero(0)] * n
        for k in range(n):
            for l in range(n):
                entry = SuperPolynomial.zero(n)
                for i in range(n):
                    entry = entry + mp[k][i] * m[i][l]
                want = Fraction(1)
                for i in range(n):
                    if i != k:
                        want *= vals[l] - vals[i]
                assert entry.evaluate(scalars, zeros) == want


# ----------------------------------------------------------------------
# rewriting in the power-sum symbols


def test_rewrite_worked_examples():
    n = 2
    b1, b2 = ov(n, 1), ov(n, 2)
    a1, a2 = ev(n, 1), ev(n, 2)
    assert rewrite_symmetric(b1 + b2) == TTauExpression.odd_symbol(n, n, 1)
    got = rewrite_symmetric(b1 * a2 + b2 * a1)
    u1 = TTauExpression.even_symbol(n, n, 1)
    x1 = TTauExpression.odd_symbol(n, n, 1)
    x2 = TTauExpression.odd_symbol(n, n, 2)
    assert got == u1 * x1 - x2
    got = rewrite_symmetric(a1 * a2)
    u2 = TTauExpression.even_symbol(n, n, 2)
    assert got == (u1 * u1 - u2) * Fraction(1, 2)


def test_rewrite_round_trip_random():
    from superinv.verify import _random_symmetric_polynomial

    rng = random.Random(21)
    for _ in range(25):
        n = rng.randint(1, 3)
        f = _random_symmetric_polynomial(n, rng)
        g = rewrite_symmetric(f)
        assert g.expand(even_basis="t") == f


def test_rewrite_uniqueness_round_trip():
    rng = random.Random(22)
    for _ in range(20):
        n = rng.randint(1, 3)
        monos = []
        for w in range(1, 6):
            monos.extend(_ttau_monomials(n, w))
        expr = TTauExpression.zero(n, n)
        for _ in range(rng.randint(1, 4)):
            exps, mask = monos[rng.randrange(len(monos))]
            expr = expr + TTauExpression.monomial(n, n, exps, mask, rng.randint(-3, 3) or 1)
        assert rewrite_symmetric(expr.expand(even_basis="t")) == expr


def test_rewrite_rejects_asymmetric():
    with pytest.raises(NotSymmetric) as err:
        rewrite_symmetric(ev(2, 1))
    assert err.value.transposition == (1, 2)


@pytest.mark.parametrize("call", [rewrite_symmetric, invariant_normal_form])
@pytest.mark.parametrize("f", [5, TTauExpression.even_symbol(1, 1, 1)], ids=["int", "expression"])
def test_rewrites_reject_what_is_not_a_polynomial(call, f):
    # an expression's keys are symbols, not variables: reading it as a polynomial
    # would return u1 for u1
    with pytest.raises(ValidationError, match="need a SuperPolynomial, not %s" % type(f).__name__):
        call(f)


def _solve_route(f):
    """Oracle: the rewrite by coefficient matching.  Per degree d, every symbol
    monomial of weight d is expanded into a and b, and one exact solve over
    those columns gives the coefficients."""
    n = f.n
    terms = {((0,) * n, 0): f.constant_term()}
    for d in f.degrees():
        if d == 0:
            continue
        keys = _ttau_monomials(n, d)
        columns = [TTauExpression.monomial(n, n, *key).expand().terms for key in keys]
        matrix = coefficient_matrix(columns + [f.homogeneous_component(d).terms])
        solution, free = linalg.solve_general([row[:-1] for row in matrix],
                                              [row[-1] for row in matrix])
        assert solution is not None and not free
        terms.update(zip(keys, solution))
    return TTauExpression(n, n, terms)


def _symmetrized(n, monomials, constant=0):
    """constant plus the sum over S_n of each c * a^exps * b_o1 * b_o2 * ..."""
    f = SuperPolynomial.constant(n, constant)
    for c, exps, odd in monomials:
        mono = SuperPolynomial(n, _keyed([(c, exps, odd)]))
        for perm in permutations(range(n)):
            f = f + mono.permute(list(perm))
    return f


def _rewrite_cases():
    """Symmetric polynomials at n = 0..5: constants, Fraction coefficients, odd
    parts of exponent 0, and degrees above n, where t_k and tau_k with k > n
    go through their recurrences."""
    cases = [
        SuperPolynomial.zero(0),
        SuperPolynomial.constant(0, Fraction(5, 3)),
        _symmetrized(1, [(1, [3], [])]),                      # t_3 = u1^3
        _symmetrized(1, [(Fraction(2, 3), [2], [1])], 4),     # tau_3 = x1 u1^2
        _symmetrized(2, [(1, [0, 3], [1])]),                  # b1 a2^3: tau_1 t_3 - tau_4
        _symmetrized(2, [(Fraction(-1, 2), [0, 2], [1, 2])], Fraction(1, 7)),
        _symmetrized(3, [(1, [1, 1, 1], [])]),                # one orbit, three equal parts
        _symmetrized(3, [(3, [2, 1, 1], [3]), (1, [0, 1, 2], [1, 3])]),
        _symmetrized(4, [(1, [1, 1, 1, 1], []), (Fraction(1, 4), [0, 2, 1, 1], [1])]),
    ]
    rng = random.Random(3302)
    for n in range(1, 6):
        for _ in range(4 if n < 5 else 2):
            monomials = []
            while len(monomials) < 2:
                odd = rng.sample(range(1, n + 1), rng.randint(0, min(n, 3)))
                exps = [0] * n
                for _unit in range(rng.randint(1, n + 2 - len(odd))):
                    exps[rng.randrange(n)] += 1
                if len({exps[i - 1] for i in odd}) == len(odd):  # else the orbit sum is 0
                    monomials.append((Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 3)),
                                      exps, odd))
            cases.append(_symmetrized(n, monomials, rng.choice([0, 2, Fraction(-1, 3)])))
    return cases


def test_rewrite_matches_the_solve_route():
    cases = _rewrite_cases()
    assert {f.n for f in cases} == set(range(6))
    above = [f for f in cases if f.degrees() and f.degrees()[-1] > f.n]
    assert len(above) >= 10
    for f in cases:
        g = rewrite_symmetric(f)
        assert g.to_obj() == _solve_route(f).to_obj(), f
        assert g.expand() == f


def test_rewrite_makes_no_expansion_and_no_solve(monkeypatch):
    calls = []
    for owner, name in ((TTauExpression, "expand"), (linalg, "solve_general")):
        def counting(*args, _original=getattr(owner, name), _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    for f in _rewrite_cases()[:9]:
        rewrite_symmetric(f)
    assert calls == []


# ----------------------------------------------------------------------
# balancedness


def test_is_balanced_examples():
    assert is_balanced(TTauExpression.odd_symbol(2, 3, 1))[0]
    ok, witness = is_balanced(TTauExpression.even_symbol(2, 3, 1))
    assert not ok and witness[0] == 1
    h = TTauExpression.even_symbol(1, 1, 1) * TTauExpression.odd_symbol(1, 1, 1)
    assert is_balanced(h)[0]
    with pytest.raises(ValidationError):
        is_balanced(TTauExpression.even_symbol(2, 3, 3) * TTauExpression.odd_symbol(2, 3, 1))


@pytest.mark.parametrize("h", [SuperPolynomial.one(2), BalancedExpression(TTauExpression.constant(2, 2, 1)), 1])
def test_is_balanced_rejects_what_is_not_a_ttau_expression(h):
    with pytest.raises(ValidationError, match="needs a TTauExpression"):
        is_balanced(h)


def _differential_criterion(h):
    """Oracle: the conditions sum_s s tau_(i+s-1) dh/du_s = 0 for i = 1..n.

    With f = h(t, tau) the i-th condition is sum_l a_l^(i-1) b_l df/da_l, so
    by the invertible power-Vandermonde matrix of Lemma 3.2 it holds for
    every i exactly when every balance residual b_l df/da_l vanishes.
    """
    n = h.n
    for i in range(1, n + 1):
        cond = SuperPolynomial.zero(n)
        for s in range(1, n + 1):
            dh = h.derivative(s)
            if not dh.is_zero():
                cond = cond + power_sum_odd(n, i + s - 1) * dh.expand(even_basis="t") * s
        if not cond.is_zero():
            return False
    return True


def _lift(h, symbol_range):
    """h re-read over a wider symbol range; the new symbols do not appear."""
    pad = (0,) * (symbol_range - h.symbol_range)
    return TTauExpression(h.n, symbol_range, {(e + pad, m): c for (e, m), c in h.terms.items()})


def _random_mask(rng, symbol_range, size):
    return sum(1 << k for k in rng.sample(range(symbol_range), size))


def _random_expression(rng, n, symbol_range):
    """A few random monomials: even symbols among u_1..u_n, at most n odd ones."""
    terms = {}
    for _ in range(rng.randint(1, 3)):
        exps = tuple(rng.randint(0, 1) if k < n else 0 for k in range(symbol_range))
        terms[(exps, _random_mask(rng, symbol_range, rng.randint(0, n)))] = rng.choice([-2, -1, 1, 3])
    return TTauExpression(n, symbol_range, terms)


def _planted_balanced(rng, n, symbol_range, moments):
    """A balanced expression with even symbols in it.

    It is a random combination of odd-moment products, the form
    invariant_normal_form returns, with each x_k (k > n) replaced by the
    power-sum rewrite of tau_k; a full product of n odd moments may also carry
    an even factor, since b_i kills it.
    """
    h = TTauExpression.zero(n, symbol_range)
    for _ in range(rng.randint(1, 2)):
        size = rng.randint(1, n)
        term = TTauExpression.constant(n, symbol_range, rng.choice([-1, 1, 2]))
        for k in sorted(rng.sample(range(1, symbol_range + 1), size)):
            term = term * moments[k]
        if size == n and rng.random() < 0.5:
            term = term * TTauExpression.even_symbol(n, symbol_range, rng.randint(1, n))
        h = h + term
    return h


def test_is_balanced_agrees_with_differential_criterion():
    rng = random.Random(1414)
    moments = {}  # (n, K) -> {k: a balanced expression whose pullback is tau_k}
    verdicts = []
    for trial in range(300):
        n = rng.randint(1, 3)
        symbol_range = rng.choice([n, 2 * n - 1, 2 * n])
        if (n, symbol_range) not in moments:
            moments[n, symbol_range] = {
                k: (TTauExpression.odd_symbol(n, symbol_range, k) if k <= n
                    else _lift(rewrite_symmetric(power_sum_odd(n, k)), symbol_range))
                for k in range(1, symbol_range + 1)}
        if trial % 3 == 0:
            h = _planted_balanced(rng, n, symbol_range, moments[n, symbol_range])
            f = h.expand()
            assert invariant_normal_form(f).expand() == f  # raises NotInvariant otherwise
        else:
            h = _random_expression(rng, n, symbol_range)
        ok, witness = is_balanced(h)
        assert ok == _differential_criterion(h), h
        if ok:
            assert witness is None
        else:
            i, residual = witness
            assert 1 <= i <= n and not residual.is_zero()
        verdicts.append((ok, any(any(e) for e, _m in h.terms)))
    assert sum(ok for ok, _ in verdicts) >= 100
    assert (True, True) in verdicts and (False, True) in verdicts


def test_unbalanced_witness_is_memoized_and_raised():
    u1 = TTauExpression.even_symbol(2, 2, 1)
    x1 = TTauExpression.odd_symbol(2, 2, 1)
    bad = BalancedExpression(u1 * x1)
    ok, witness = bad.is_balanced()
    assert not ok and witness[0] == 1 and not witness[1].is_zero()
    assert bad.is_balanced() == (False, witness)
    a = SuperMatrix.from_rationals(Queer(2), ANY, [[1, 0], [0, 2]], 2)
    with pytest.raises(NotInvariant) as err:
        evaluate_invariant(a, bad)
    assert err.value.witness == witness


def test_balanced_expression_qet_form():
    u1 = TTauExpression.even_symbol(2, 2, 1)
    u2 = TTauExpression.even_symbol(2, 2, 2)
    x1 = TTauExpression.odd_symbol(2, 2, 1)
    x2 = TTauExpression.odd_symbol(2, 2, 2)
    f = BalancedExpression(x2 - u1 * x1, u2)
    assert f.is_balanced()[0]
    q = 2
    g1, g2 = G.generator(q, 1), G.generator(q, 2)
    s = elementary_from_roots([G.rational(q, 1), G.rational(q, 2)])
    taus = [g1 + g2, g1 + 2 * g2]
    assert f.evaluate(s, taus) == g1 + g2 * Fraction(1, 2)
    bad = BalancedExpression(u1 * x1)
    assert not bad.is_balanced()[0]


def test_balanced_expression_validation():
    x1 = TTauExpression.odd_symbol(2, 2, 1)
    with pytest.raises(ValidationError):
        BalancedExpression(x1, x1)
    with pytest.raises(ValidationError):
        BalancedExpression(x1, TTauExpression.zero(2, 2))


@pytest.mark.parametrize("num, den", [
    (SuperPolynomial.one(2), None),
    (TTauExpression.odd_symbol(2, 2, 1), SuperPolynomial.one(2)),
    (TTauExpression.odd_symbol(2, 2, 1), 1),
    (1, None),
])
def test_balanced_expression_rejects_parts_that_are_not_ttau(num, den):
    with pytest.raises(ValidationError, match="must be a TTauExpression"):
        BalancedExpression(num, den)


# ----------------------------------------------------------------------
# normal form and relations


def test_normal_form_examples():
    n = 2
    f = power_sum_odd(n, 1) * power_sum_odd(n, 2)
    nf = invariant_normal_form(f)
    assert {mask: c for (_e, mask), c in nf.terms.items()} == {0b11: 1}
    f3 = power_sum_odd(n, 1) * power_sum_odd(n, 2) * power_sum_odd(n, 3)
    assert f3.is_zero()
    assert invariant_normal_form(f3).is_zero()


def test_normal_form_reads_planted_products_at_n_4_and_5():
    """Random combinations of distinct odd moments tau_i (i <= 2n, at most n
    factors) come back with their planted coefficients, constant included."""
    rng = random.Random(2205)
    for n in (4, 5):
        products = [t for size in range(1, n + 1) for t in combinations(range(1, 2 * n + 1), size)]
        for _ in range(3):
            constant = rng.choice([0, -2, Fraction(3, 4)])
            planted = {sum(1 << (i - 1) for i in t): rng.choice([-3, -1, 2, Fraction(1, 2)])
                       for t in rng.sample(products, 3)}
            f = SuperPolynomial.constant(n, constant)
            for mask, c in planted.items():
                product = SuperPolynomial.constant(n, c)
                for i in mask_to_indices(mask):
                    product = product * power_sum_odd(n, i)
                f = f + product
            nf = invariant_normal_form(f)
            assert nf.expand() == f
            assert nf.terms == {((0,) * nf.symbol_range, m): c
                                for m, c in [(0, constant), *planted.items()] if c}
    with pytest.raises(NotInvariant, match="^polynomial is not invariant under the odd action$") as err:
        invariant_normal_form(power_sum_even(4, 2))
    assert err.value.witness == (1, 2 * ov(4, 1) * ev(4, 1))


def test_products_of_length_n_plus_one_vanish():
    for n in (1, 2, 3):
        for tup in combinations(range(1, 2 * n + 2), n + 1):
            poly = SuperPolynomial.one(n)
            for i in tup:
                poly = poly * power_sum_odd(n, i)
            assert poly.is_zero()


def test_monomial_linear_independence():
    from superinv.verify import tau_monomial_matrix

    counts = []
    for n in (1, 2, 3):
        monos, matrix = tau_monomial_matrix(n, 2 * n)
        assert linalg.rank(matrix) == len(monos)
        counts.append(len(monos))
    assert counts[0] < counts[1] < counts[2]


def test_normal_form_rejects_non_invariant():
    check_invariant_precondition(invariant_normal_form)


# ----------------------------------------------------------------------
# signed elementary values and the moment recurrence


def test_elementary_from_roots_examples():
    q = 2
    s = elementary_from_roots([G.rational(q, 1), G.rational(q, 2)])
    assert s == [G.rational(q, 3), G.rational(q, -2)]
    zeros = elementary_from_roots([G.zero(q), G.zero(q)])
    assert all(v.is_zero() for v in zeros)
    with pytest.raises(ValidationError):
        elementary_from_roots([G.generator(q, 1)])


def test_recurrence_worked_example():
    q = 2
    x1, x2 = G.generator(q, 1), G.generator(q, 2)
    avals = [G.rational(q, 1), G.rational(q, 2)]
    alphas = [x1, x2]
    taus = []
    for k in range(1, 5):
        acc = G.zero(q)
        for a, al in zip(avals, alphas):
            acc = acc + al * a ** (k - 1)
        taus.append(acc)
    s = elementary_from_roots(avals)
    assert verify_recurrence(taus, s)
    assert taus[2] == taus[0] * s[1] + taus[1] * s[0]
    # s_2 moved by 1 breaks tau_3 = tau_2 s_1 + tau_1 s_2, since tau_1 = x1 + x2 is nonzero
    assert not verify_recurrence(taus, [s[0], s[1] + 1])
    zero_taus = [G.zero(q)] * 4
    assert verify_recurrence(zero_taus, [G.zero(q), G.zero(q)])
    with pytest.raises(ValidationError):
        verify_recurrence(taus[:3], s)


def test_signed_elementary_polynomials_match_recurrence():
    # the polynomial recurrence tau_{n+k} = sum_j tau_{n+k-j} s_j holds
    for n in (1, 2, 3):
        for k in range(1, n + 1):
            lhs = power_sum_odd(n, n + k)
            rhs = SuperPolynomial.zero(n)
            for j in range(1, n + 1):
                rhs = rhs + power_sum_odd(n, n + k - j) * signed_elementary_poly(n, j)
            assert lhs == rhs
        assert signed_elementary_poly(n, n + 1).is_zero()


def _fresh_kernels(n):
    # t_k, tau_k and s_j built from the variables, sharing no code with the table
    a = [ev(n, i) for i in range(1, n + 1)]
    b = [ov(n, i) for i in range(1, n + 1)]
    zero, one = SuperPolynomial.zero(n), SuperPolynomial.one(n)
    t = {k: sum((x ** k for x in a), zero) for k in range(0, 6)}
    tau = {k: sum((y * x ** (k - 1) for x, y in zip(a, b)), zero) for k in range(1, 6)}
    s = {}
    for j in range(1, n + 2):
        e = zero
        for subset in combinations(a, j):
            prod = one
            for x in subset:
                prod = prod * x
            e = e + prod
        s[j] = e if j % 2 == 1 else -e
    return t, tau, s


def test_kernel_table_matches_fresh_kernels():
    for n in range(0, 5):
        t, tau, s = _fresh_kernels(n)
        for _ in range(2):  # the first pass fills the table, the second reads it
            assert all(power_sum_even(n, k) == v for k, v in t.items())
            assert all(power_sum_odd(n, k) == v for k, v in tau.items())
            assert all(signed_elementary_poly(n, j) == v for j, v in s.items())
        assert power_sum_even(n, 0) == n


def test_kernel_table_entries_stay_immutable():
    kernel = power_sum_odd(2, 2)
    with pytest.raises(AttributeError, match="immutable"):
        kernel.terms = {}
    with pytest.raises(AttributeError, match="immutable"):
        signed_elementary_poly(2, 1).n = 3
    _ = kernel * kernel + kernel - kernel * 3
    _ = TTauExpression.odd_symbol(2, 2, 2).expand() * 2
    assert power_sum_odd(2, 2) is kernel
    assert kernel == ov(2, 1) * ev(2, 1) + ov(2, 2) * ev(2, 2)


@pytest.mark.parametrize("kernel, n, k, message", [
    (signed_elementary_poly, 2, 0, "k must be an integer >= 1"),
    (signed_elementary_poly, 2, -1, "k must be an integer >= 1"),
    (signed_elementary_poly, 1, True, "k must be an integer >= 1"),
    (signed_elementary_poly, [1], 1, "n must be a non-negative integer"),
    (signed_elementary_poly, 1.0, 1, "n must be a non-negative integer"),
    (signed_elementary_poly, -1, 1, "n must be a non-negative integer"),
    (power_sum_odd, 1, True, "k must be an integer >= 1"),
    (power_sum_odd, 2, 0, "k must be an integer >= 1"),
    (power_sum_odd, True, 1, "n must be a non-negative integer"),
    (power_sum_odd, 2, [1], "k must be an integer >= 1"),
    (power_sum_even, 2, -1, "k must be an integer >= 0"),
    (power_sum_even, 2, False, "k must be an integer >= 0"),
    (power_sum_even, 2, 1.0, "k must be an integer >= 0"),
    (power_sum_even, None, 1, "n must be a non-negative integer"),
])
def test_kernels_reject_bad_arguments(kernel, n, k, message):
    with pytest.raises(ValidationError, match=message):
        kernel(n, k)


def test_no_root_realization_counterexample():
    """Target values s = (2, 1 + e1e2) admit no genuine roots over two
    generators: both roots would need body 1 and the soul equation forces a
    square root of a nonzero two-generator element, which cannot exist."""
    q = 2
    m = G.monomial(q, [1, 2])
    # b1 + b2 = 2 with equal bodies forces b_i = 1 + n_i with n1 + n2 = 0;
    # then b1 b2 = 1 - n1^2, and even souls square to zero here
    for t in (Fraction(-3), Fraction(0), Fraction(1), Fraction(7, 2)):
        n1 = m * t
        b1 = 1 + n1
        b2 = 1 - n1
        assert b1 + b2 == 2
        assert b1 * b2 == 1
        assert b1 * b2 != 1 + m


def test_polynomial_serialization_round_trip():
    rng = random.Random(33)
    for _ in range(20):
        n = rng.randint(1, 3)
        terms = {}
        for _ in range(rng.randint(0, 4)):
            exps = tuple(rng.randint(0, 3) for _ in range(n))
            mask = rng.getrandbits(n)
            c = rng.randint(-5, 5)
            if c:
                terms[(exps, mask)] = c
        f = SuperPolynomial(n, terms)
        obj = json.loads(json.dumps(f.to_obj()))
        assert SuperPolynomial.from_obj(obj) == f
    expr = TTauExpression(2, 3, {((1, 0, 2), 0b101): Fraction(3, 7)})
    obj = json.loads(json.dumps(expr.to_obj()))
    assert TTauExpression.from_obj(obj) == expr
    # JSON true/false are not integers
    for field, value in (("n", True), ("even", [True, 0]), ("odd", [True])):
        bad = {"n": 2, "terms": [{"even": [1, 0], "odd": [1], "coeff": "1"}]}
        if field == "n":
            bad["n"] = value
        else:
            bad["terms"][0][field] = value
        with pytest.raises(ValidationError):
            SuperPolynomial.from_obj(bad)
    bad = TTauExpression(1, 1, {((2,), 0b1): Fraction(3, 7)}).to_obj()
    bad["symbol_range"] = True
    with pytest.raises(ValidationError):
        TTauExpression.from_obj(bad)


_OMITTED = object()


@pytest.mark.parametrize("terms", [
    [{"even": [0]}],                              # no "odd" list
    [5],                                          # a term that is not an object
    {},                                           # "terms" not a list
    [{"even": [0], "odd": 5, "coeff": "1"}],      # "odd" not a list
    [{"even": [[1]], "odd": [], "coeff": "1"}],   # an exponent that is not an int
    _OMITTED,                                     # no "terms" field at all
    [{"even": [0], "odd": [], "coeff": "1"},      # one monomial twice
     {"even": [0], "odd": [], "coeff": "2"}],
])
def test_polynomial_json_shape_errors(terms):
    fields = {} if terms is _OMITTED else {"terms": terms}
    with pytest.raises(ValidationError):
        SuperPolynomial.from_obj({"n": 1, **fields})
    expr = {"n": 1, "symbol_range": 1, **fields}
    with pytest.raises(ValidationError):
        TTauExpression.from_obj(expr)
    with pytest.raises(ValidationError):
        BalancedExpression.from_obj({"numerator": expr, "denominator": expr})


def test_constant_expression_evaluates_without_values():
    assert TTauExpression(0, 0, {((), 0): 5}).evaluate([], []) == G.rational(0, 5)


# ----------------------------------------------------------------------
# the shared ring core: TTauExpression is a SuperPolynomial of width K


def _sample_pair():
    a1, a2, b1, b2 = ev(2, 1), ev(2, 2), ov(2, 1), ov(2, 2)
    f = a1 ** 2 * b2 - Fraction(3, 2) * a2 * b1 * b2 + 5 - a1
    e = TTauExpression(2, 3, {((1, 0, 2), 0b101): Fraction(3, 7), ((0, 0, 0), 0b010): -1,
                              ((0, 1, 0), 0): 4, ((0, 0, 0), 0): -2})
    return f, e


def test_cross_type_arithmetic_rejected():
    f = SuperPolynomial.one(2)
    e = TTauExpression.constant(2, 2, 1)
    assert f.terms == e.terms
    for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y):
        with pytest.raises(TypeError):
            op(f, e)
        with pytest.raises(TypeError):
            op(e, f)
    assert not f == e and not e == f
    assert f != e
    with pytest.raises(ValidationError):
        TTauExpression.zero(2, 2) + TTauExpression.zero(2, 3)
    assert TTauExpression.zero(2, 3) != TTauExpression.zero(3, 3)


def test_inherited_operations_keep_expression_shape():
    _f, e = _sample_pair()
    u1 = TTauExpression.even_symbol(2, 3, 1)
    x3 = TTauExpression.odd_symbol(2, 3, 3)
    results = [e ** 2, e ** 0, e.even_part(), e.odd_part(), e.homogeneous_component(1),
               e.derivative(3), e.odd_multiply(1), -e, e - 1, 2 - e, e * 3, e * 0,
               (u1 + x3) ** 2]
    for r in results:
        assert type(r) is TTauExpression
        assert (r.n, r.symbol_range, r.width) == (2, 3, 3)
        assert all(len(exps) == 3 for exps, _mask in r.terms)
    assert e ** 0 == 1 and e ** 0 == TTauExpression.constant(2, 3, 1)
    assert e ** 2 == e * e
    assert e.odd_part() == -TTauExpression.odd_symbol(2, 3, 2)
    assert e.even_part() == e - e.odd_part()
    assert e.degrees() == [0, 1, 5]
    u2, x2 = TTauExpression.even_symbol(2, 3, 2), TTauExpression.odd_symbol(2, 3, 2)
    assert e.homogeneous_component(1) == 4 * u2 - x2
    assert e.homogeneous_component(5) == TTauExpression(2, 3, {((1, 0, 2), 0b101): Fraction(3, 7)})
    assert e.constant_term() == -2
    assert e.derivative(3) == TTauExpression(2, 3, {((1, 0, 1), 0b101): Fraction(6, 7)})
    assert (u1 + x3) ** 2 == u1 * u1 + 2 * u1 * x3
    assert not e.is_even_polynomial()
    assert e.coefficient_of_odd(0).is_even_polynomial()


def test_text_and_json_forms_unchanged():
    f, e = _sample_pair()
    assert str(f) == "5 - 3/2*a2*b1*b2 - a1 + a1^2*b2"
    assert repr(f) == "SuperPolynomial(n=2, 5 - 3/2*a2*b1*b2 - a1 + a1^2*b2)"
    assert f.to_obj() == {"n": 2, "terms": [
        {"even": [0, 0], "odd": [], "coeff": "5"},
        {"even": [0, 1], "odd": [1, 2], "coeff": "-3/2"},
        {"even": [1, 0], "odd": [], "coeff": "-1"},
        {"even": [2, 0], "odd": [2], "coeff": "1"}]}
    assert str(e) == "-2 - x2 + 4*u2 + 3/7*u1*u3^2*x1*x3"
    assert repr(e) == "TTauExpression(n=2, K=3, -2 - x2 + 4*u2 + 3/7*u1*u3^2*x1*x3)"
    assert json.dumps(e.to_obj()) == json.dumps({"n": 2, "symbol_range": 3, "terms": [
        {"even": [0, 0, 0], "odd": [], "coeff": "-2"},
        {"even": [0, 0, 0], "odd": [2], "coeff": "-1"},
        {"even": [0, 1, 0], "odd": [], "coeff": "4"},
        {"even": [1, 0, 2], "odd": [1, 3], "coeff": "3/7"}]})
    assert str(SuperPolynomial.zero(1)) == "0"
    assert repr(TTauExpression.zero(1, 2)) == "TTauExpression(n=1, K=2, 0)"


def test_sort_sign_is_the_inversion_parity():
    for size in range(7):
        for seq in permutations(range(7), size):
            inversions = sum(1 for i, j in combinations(range(size), 2) if seq[i] > seq[j])
            mask = sum(1 << i for i in seq)
            assert _sort_sign(seq) == ((-1) ** inversions, mask), seq


# ----------------------------------------------------------------------
# substitution and the signed elementary recurrence: product counts and
# term-by-term oracles


def _count_ring_products(monkeypatch, cls):
    """A list that grows by one per product whose right operand is a cls element."""
    calls = []
    product = cls.__mul__

    def counting(self, other):
        if isinstance(other, cls):
            calls.append(other)
        return product(self, other)

    monkeypatch.setattr(cls, "__mul__", counting)
    return calls


def _dense_scalar(rng, q, parity):
    """A scalar holding every monomial of one parity (0 even, 1 odd), Fraction coefficients."""
    return G(q, {mask: Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 3))
                 for mask in range(1 << q) if mask.bit_count() % 2 == parity})


def test_signed_elementary_makes_n_choose_2_products(monkeypatch):
    rng = random.Random(5)
    calls = _count_ring_products(monkeypatch, G)
    for n in range(1, 6):
        values = [_dense_scalar(rng, 3, 0) for _ in range(n)]
        calls.clear()
        elementary_from_roots(values)
        assert len(calls) == n * (n - 1) // 2, n


def test_elementary_from_roots_matches_subset_sums():
    # s_j = (-1)^(j-1) sum over j-subsets S of prod_{i in S} v_i
    rng = random.Random(29)
    for n in range(1, 6):
        for q in (2, 4, 6):
            values = [_dense_scalar(rng, q, 0) for _ in range(n)]
            want = []
            for j in range(1, n + 1):
                e = sum((prod(subset, start=G.one(q)) for subset in combinations(values, j)),
                        G.zero(q))
                want.append(e if j % 2 else -e)
            assert elementary_from_roots(values) == want, (n, q)


def test_signed_elementary_poly_matches_subset_monomials():
    for n in range(1, 6):
        for j in range(1, n + 2):
            want = {(tuple(int(i in subset) for i in range(n)), 0): (-1) ** (j - 1)
                    for subset in combinations(range(n), j)}
            assert signed_elementary_poly(n, j).terms == want, (n, j)


def test_substitution_starts_each_term_at_its_first_factor(monkeypatch):
    q = 4
    a = [G(q, {0: 2, 0b0011: 1}), G.rational(q, 5)]
    b = [G.generator(q, 3), G.generator(q, 4)]
    f = 3 * ev(2, 1) ** 2 * ov(2, 1) * ov(2, 2)
    constant = SuperPolynomial.constant(2, Fraction(7, 2))
    calls = _count_ring_products(monkeypatch, G)
    value = f.evaluate(a, b)
    assert len(calls) == 3
    # a constant term makes no product
    assert constant.evaluate(a, b) == G.rational(q, Fraction(7, 2))
    assert len(calls) == 3
    assert value == G(q, {0b1100: 12, 0b1111: 12})


def _random_terms(rng, width):
    """Terms (c, even exponents, odd indices in random order) with Fraction c."""
    terms = []
    for _ in range(rng.randint(1, 4)):
        exps = [rng.randint(0, 2) for _ in range(width)]
        odd = rng.sample(range(1, width + 1), rng.randint(0, min(width, 3)))
        terms.append((Fraction(rng.choice([-5, -2, 1, 3]), rng.randint(1, 4)), exps, odd))
    return terms


def _keyed(terms):
    """The term dict of the sum of c * (even monomial) * b_o1 * b_o2 * ..."""
    out = {}
    for c, exps, odd in terms:
        inversions = sum(1 for i, j in combinations(range(len(odd)), 2) if odd[i] > odd[j])
        key = (tuple(exps), sum(1 << (i - 1) for i in odd))
        out[key] = out.get(key, 0) + (-1) ** inversions * c
    return out


def _term_by_term(terms, even, odd, unit):
    """Each term from c * unit: its odd values in its own order, then its even
    values from the last variable down."""
    acc = unit * 0
    for c, exps, odd_order in terms:
        value = unit * c
        for i in odd_order:
            value = value * odd(i - 1)
        for i in reversed(range(len(exps))):
            for _ in range(exps[i]):
                value = value * even(i)
        acc = acc + value
    return acc


def test_evaluate_matches_term_by_term_oracle():
    rng = random.Random(2029)
    nonzero = 0
    for _ in range(12):
        n, q = rng.randint(1, 3), rng.randint(2, 5)
        terms = _random_terms(rng, n)
        f = SuperPolynomial(n, _keyed(terms))
        a = [_dense_scalar(rng, q, 0) for _ in range(n)]
        b = [_dense_scalar(rng, q, 1) for _ in range(n)]
        value = f.evaluate(a, b)
        assert value == _term_by_term(terms, a.__getitem__, b.__getitem__, G.one(q))
        nonzero += not value.is_zero()
    assert nonzero >= 6


def test_expand_matches_term_by_term_oracle():
    rng = random.Random(1998)
    nonzero = 0
    for _ in range(8):
        n, symbol_range = rng.randint(1, 3), rng.randint(1, 3)
        terms = _random_terms(rng, symbol_range)
        e = TTauExpression(n, symbol_range, _keyed(terms))
        for basis, kernel in (("t", power_sum_even), ("s", signed_elementary_poly)):
            expanded = e.expand(basis)
            assert expanded == _term_by_term(terms, lambda i: kernel(n, i + 1),
                                             lambda i: power_sum_odd(n, i + 1),
                                             SuperPolynomial.one(n)), basis
            nonzero += not expanded.is_zero()
    assert nonzero >= 8


def test_balance_residual_skips_zero_derivatives(monkeypatch):
    a1, a2, b1 = ev(2, 1), ev(2, 2), ov(2, 1)
    cases = [
        # D = a2 + 1 has no a1: only dN/da1 * D is multiplied
        (a1 ** 2 + a2, a2 + 1, 2 * b1 * a1 * a2 + 2 * b1 * a1, 1),
        # N = a2 has no a1 either: no product at all
        (a2, a2 + 1, SuperPolynomial.zero(2), 0),
        # both derivatives the constant 1: each scales, no product at all
        (a1, a1 + a2, b1 * a2, 0),
        # both derivatives non-constant: both products of the quotient rule
        (a1 ** 2, a1 ** 2 + a2, 2 * b1 * a1 * a2, 2),
    ]
    calls = _count_ring_products(monkeypatch, SuperPolynomial)
    for num, den, want, products in cases:
        del calls[:]
        assert balance_residual(num, den, 1) == want
        assert len(calls) == products


def test_power_sum_odd_of_degree_one_multiplies_nothing(monkeypatch):
    calls = _count_ring_products(monkeypatch, SuperPolynomial)
    for n in range(1, 5):
        assert _power_sum_odd.__wrapped__(n, 1) == sum(
            (ov(n, i) for i in range(1, n + 1)), SuperPolynomial.zero(n))
    assert calls == []
