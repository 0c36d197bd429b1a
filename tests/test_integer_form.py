"""The ring core's stored form, integer numerators `num` over one
denominator `den`, against a test-side oracle of exact Fraction dicts, for
GrassmannScalar, SuperPolynomial and TTauExpression.

Every result must be reduced (gcd(den, *num) = 1, zero as ({}, 1)), its
`terms` view must equal the oracle, and `==` must agree with the oracles.
The matrix product and the scalar sum are checked against a Fraction
convolution that signs each pair of monomials with `merge_sign`, and the
polynomial routes against Fraction dicts keyed on (exponents, odd mask).
"""

import json
import math
import random
from fractions import Fraction

import pytest

from superinv import supermatrix
from superinv.grassmann import GrassmannScalar, mask_to_indices, merge_sign
from superinv.supermatrix import ANY, Queer, SuperMatrix
from superinv.sympoly import SuperPolynomial, TTauExpression

BIG = (999983, 1000003, 2 ** 61 - 1)


# ----------------------------------------------------------------------
# the oracle: {mask: Fraction}, zero coefficients dropped


def clean(d):
    return {m: Fraction(c) for m, c in d.items() if c != 0}


def o_add(a, b):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + c
    return clean(out)


def o_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            if not m1 & m2:
                out[m1 | m2] = out.get(m1 | m2, 0) + merge_sign(m1, m2) * c1 * c2
    return clean(out)


def assert_reduced(x, want):
    """x is in lowest terms and its view equals the oracle want."""
    assert type(x.den) is int and x.den >= 1
    assert all(type(c) is int and c != 0 for c in x.num.values())
    assert math.gcd(x.den, *x.num.values()) == 1
    assert x.num or x.den == 1
    assert x.terms == want
    for c in x.terms.values():
        assert type(c) is (int if c.denominator == 1 else Fraction), c


def random_coeff(rng, denominators):
    c = Fraction(rng.randint(-9, 9) or 1, rng.choice(denominators))
    # an integral value comes as an int or as a Fraction
    return rng.choice([c, c.numerator if c.denominator == 1 else c])


def random_scalar(rng, q, denominators=(1, 2, 3, 4, 6, 9), terms=4):
    """A scalar built from a mixed int/Fraction dict, zeros included, and its oracle."""
    raw = {}
    for _ in range(rng.randint(0, terms)):
        raw[rng.getrandbits(q)] = rng.choice([0, random_coeff(rng, denominators)])
    return GrassmannScalar(q, raw), clean(raw)


# ----------------------------------------------------------------------
# the scalar form


@pytest.mark.parametrize("denominators", [(1,), (1, 2, 3, 4, 6, 9), (1, 7) + BIG],
                         ids=["int", "small", "big-prime"])
def test_every_route_gives_the_reduced_form(denominators):
    rng = random.Random(61 + len(denominators))
    for _ in range(150):
        q = rng.randint(0, 6)
        x, ox = random_scalar(rng, q, denominators)
        y, oy = random_scalar(rng, q, denominators)
        assert_reduced(x, ox)
        text = json.dumps(x.to_obj())
        assert_reduced(GrassmannScalar.from_obj(json.loads(text)), ox)
        assert_reduced(x + y, o_add(ox, oy))
        assert_reduced(x - y, o_add(ox, {m: -c for m, c in oy.items()}))
        assert_reduced(-x, {m: -c for m, c in ox.items()})
        assert_reduced(x * y, o_mul(ox, oy))
        c = Fraction(rng.randint(-6, 6), rng.choice(denominators))
        scaled = {m: v * c for m, v in ox.items() if v * c}
        assert_reduced(x * c, scaled)
        assert_reduced(c * x, scaled)
        assert_reduced(x + c, o_add(ox, {0: c}))
        assert_reduced(x.soul(), {m: v for m, v in ox.items() if m})
        assert_reduced(x.even_part(), {m: v for m, v in ox.items() if m.bit_count() % 2 == 0})
        assert_reduced(x.odd_part(), {m: v for m, v in ox.items() if m.bit_count() % 2})
        assert x.body() == ox.get(0, 0)
        if ox.get(0):
            inv = x.invert()
            assert_reduced(inv, inv.terms)  # its form; its value is checked next
            assert o_mul(dict(inv.terms), ox) == {0: 1}


def test_filters_reduce():
    x = GrassmannScalar(1, {0: Fraction(1, 2), 1: 1})
    assert (x.num, x.den) == ({0: 1, 1: 2}, 2)
    soul = x.soul()
    assert (soul.num, soul.den) == ({1: 1}, 1)
    assert (x.odd_part().num, x.odd_part().den) == ({1: 1}, 1)
    assert (x.even_part().num, x.even_part().den) == ({0: 1}, 2)
    zero = x.soul() - GrassmannScalar.generator(1, 1)
    assert (zero.num, zero.den) == ({}, 1)


def test_equality_is_exactly_oracle_equality():
    rng = random.Random(67)
    for _ in range(300):
        q = rng.randint(0, 4)
        x, ox = random_scalar(rng, q, terms=2)
        y, oy = random_scalar(rng, q, terms=2)
        # routes that rebuild x, so that equal values arise often
        third = {m: c / 3 for m, c in ox.items()}
        for a, oa in ((x, ox), (y, oy), (x + y - y, ox), (x * 2 * Fraction(1, 2), ox),
                      (GrassmannScalar(q, {m: Fraction(3 * c, 3) for m, c in ox.items()}), ox),
                      (x * Fraction(1, 2), {m: c / 2 for m, c in ox.items()})):
            # x / 3 may share x / 2's numerators over another denominator
            for b, ob in ((x, ox), (y, oy), (x * Fraction(1, 3), third)):
                assert (a == b) == (oa == ob)
                assert (a != b) == (oa != ob)
            for c in (0, 1, Fraction(1, 2), -3):
                assert (a == c) == (oa == clean({0: c}))


def test_the_form_is_immutable():
    x = GrassmannScalar(3, {0: Fraction(1, 2), 0b101: 3})
    for name in ("num", "den", "terms", "q", "_terms"):
        with pytest.raises(AttributeError):
            setattr(x, name, {})
    view = x.terms
    for write in (lambda t: t.__setitem__(0, 1), lambda t: t.__delitem__(0), lambda t: t.clear(),
                  lambda t: t.pop(0), lambda t: t.popitem(), lambda t: t.setdefault(2, 1),
                  lambda t: t.update({2: 1}), lambda t: t.__ior__({2: 1})):
        with pytest.raises(TypeError):
            write(view)
    assert x.terms is view and view == {0: Fraction(1, 2), 0b101: 3}
    assert (x.num, x.den) == ({0: 1, 0b101: 6}, 2)


# ----------------------------------------------------------------------
# the matrix product and the scalar sum


def random_matrix(rng, n, q, denominators, density, zeros=0.2):
    """A queer n x n matrix of random scalars and its oracle grid."""
    rows, want = [], []
    for _ in range(n):
        row, orow = [], []
        for _ in range(n):
            raw = {} if rng.random() < zeros else {
                m: random_coeff(rng, denominators) for m in range(1 << q)
                if rng.random() < density}
            row.append(GrassmannScalar(q, raw))
            orow.append(clean(raw))
        rows.append(row)
        want.append(orow)
    return SuperMatrix(Queer(n), ANY, rows), want


def o_matmul(a, b):
    n = len(a)
    out = [[{} for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                out[i][j] = o_add(out[i][j], o_mul(a[i][k], b[k][j]))
    return out


@pytest.mark.parametrize("q, density, kernel", [(3, 0.5, "pair"), (5, 1, "table")])
@pytest.mark.parametrize("denominators", [(1,), (1, 2, 3, 4), (1, 7) + BIG[:2]],
                         ids=["int", "small", "big-prime"])
def test_product_matches_the_fraction_convolution(monkeypatch, q, density, kernel, denominators):
    calls = []
    table = supermatrix.mul_table_into
    monkeypatch.setattr(supermatrix, "mul_table_into",
                        lambda *args: calls.append(1) or table(*args))
    rng = random.Random(71 + q + len(denominators))
    for n in (1, 2, 3):
        a, oa = random_matrix(rng, n, q, denominators, density)
        b, ob = random_matrix(rng, n, q, denominators, density, zeros=0.2 if n > 1 else 0)
        want = o_matmul(oa, ob)
        got = a @ b
        for i in range(n):
            for j in range(n):
                assert_reduced(got.rows[i][j], want[i][j])
        diagonal = a._product(b, diagonal=True)
        assert len(diagonal) == n
        for i, x in enumerate(diagonal):
            assert_reduced(x, want[i][i])
    assert bool(calls) == (kernel == "table")


def test_product_of_zero_matrices():
    for q in (3, 5):
        z = SuperMatrix.zeros(Queer(2), q)
        for x in (z @ z).rows[0] + tuple(z._product(z, diagonal=True)):
            assert (x.num, x.den) == ({}, 1)


@pytest.mark.parametrize("denominators", [(1,), (1, 2, 3, 4, 6), (1, 7) + BIG],
                         ids=["int", "small", "big-prime"])
def test_sum_matches_adding_one_term_at_a_time(denominators):
    rng = random.Random(73 + len(denominators))
    for _ in range(100):
        q = rng.randint(0, 5)
        pairs = [random_scalar(rng, q, denominators) for _ in range(rng.randint(0, 5))]
        # a negated summand, so that terms cancel
        pairs += [(-x, {m: -c for m, c in ox.items()}) for x, ox in pairs[:1]]
        zero = GrassmannScalar.zero(q)
        want, total = {}, zero
        for x, ox in pairs:
            want = o_add(want, ox)
            total = total + x
        got = zero._sum([x for x, _ in pairs])
        assert_reduced(got, want)
        assert got == total


# ----------------------------------------------------------------------
# the polynomial form: keys (exponents, odd mask), width even and odd variables


def random_polynomial(rng, kind, denominators, terms=4):
    """A SuperPolynomial or TTauExpression of random shape built from a
    mixed int/Fraction dict, zeros included, and its oracle."""
    n = rng.randint(0, 3)
    zero = SuperPolynomial(n) if kind is SuperPolynomial else TTauExpression(n, n + rng.randint(0, 2))
    return same_shape(rng, zero, denominators, terms)


def same_shape(rng, x, denominators, terms=4):
    """A random element of x's class and shape, and its oracle."""
    raw = {}
    for _ in range(rng.randint(0, terms)):
        key = (tuple(rng.randint(0, 2) for _ in range(x.width)), rng.getrandbits(x.width))
        raw[key] = rng.choice([0, random_coeff(rng, denominators)])
    return _build(x, raw), clean(raw)


def _build(x, raw):
    if type(x) is SuperPolynomial:
        return SuperPolynomial(x.n, raw)
    return TTauExpression(x.n, x.symbol_range, raw)


def p_mul(a, b):
    out = {}
    for (e1, m1), c1 in a.items():
        for (e2, m2), c2 in b.items():
            if not m1 & m2:
                key = (tuple(x + y for x, y in zip(e1, e2)), m1 | m2)
                out[key] = out.get(key, 0) + merge_sign(m1, m2) * c1 * c2
    return clean(out)


def p_derivative(a, i):
    out = {}
    for (e, m), c in a.items():
        if e[i - 1]:
            key = (e[:i - 1] + (e[i - 1] - 1,) + e[i:], m)
            out[key] = out.get(key, 0) + c * e[i - 1]
    return clean(out)


def p_odd_multiply(a, i):
    bit = 1 << (i - 1)
    return clean({(e, m | bit): merge_sign(bit, m) * c for (e, m), c in a.items() if not m & bit})


def p_permute(a, perm):
    out = {}
    for (e, m), c in a.items():
        exps = [0] * len(e)
        for i, x in enumerate(e):
            exps[perm[i]] = x
        images = [perm[j - 1] for j in mask_to_indices(m)]
        inversions = sum(1 for i in range(len(images)) for j in range(i + 1, len(images))
                         if images[i] > images[j])
        key = (tuple(exps), sum(1 << k for k in images))
        out[key] = out.get(key, 0) + (-1) ** inversions * c
    return clean(out)


@pytest.mark.parametrize("kind", [SuperPolynomial, TTauExpression])
@pytest.mark.parametrize("denominators", [(1,), (1, 2, 3, 4, 6, 9), (1, 7) + BIG],
                         ids=["int", "small", "big-prime"])
def test_every_polynomial_route_gives_the_reduced_form(kind, denominators):
    rng = random.Random(79 + len(denominators) + (kind is TTauExpression))
    for _ in range(150):
        x, ox = random_polynomial(rng, kind, denominators)
        y, oy = same_shape(rng, x, denominators)
        assert type(x) is type(y) is kind
        assert_reduced(x, ox)
        assert_reduced(y, oy)
        text = json.dumps(x.to_obj())
        assert_reduced(kind.from_obj(json.loads(text)), ox)
        assert_reduced(x + y, o_add(ox, oy))
        assert_reduced(x - y, o_add(ox, {k: -c for k, c in oy.items()}))
        assert_reduced(-x, {k: -c for k, c in ox.items()})
        assert_reduced(x * y, p_mul(ox, oy))
        c = Fraction(rng.randint(-6, 6), rng.choice(denominators))
        scaled = {k: v * c for k, v in ox.items() if v * c}
        assert_reduced(x._scale(c), scaled)
        assert_reduced(x * c, scaled)
        assert_reduced(c * x, scaled)
        assert_reduced(x + c, o_add(ox, {x._const_key(): c}))
        z, oz = same_shape(rng, x, denominators)
        assert_reduced(x._sum([x, y, -x, z]), o_add(oy, oz))
        assert_reduced(x._sum([]), {})
        if x.width:
            i = rng.randint(1, x.width)
            assert_reduced(x.derivative(i), p_derivative(ox, i))
            assert_reduced(x.odd_multiply(i), p_odd_multiply(ox, i))
            perm = list(range(x.width))
            rng.shuffle(perm)
            assert_reduced(x.permute(perm), p_permute(ox, perm))
        assert_reduced(x.even_part(), {k: v for k, v in ox.items() if k[1].bit_count() % 2 == 0})
        assert_reduced(x.odd_part(), {k: v for k, v in ox.items() if k[1].bit_count() % 2})
        mask = rng.choice([k[1] for k in ox] or [0])
        assert_reduced(x.coefficient_of_odd(mask),
                       {(e, 0): v for (e, m), v in ox.items() if m == mask})
        assert x.constant_term() == ox.get(x._const_key(), 0)


def test_polynomial_filters_reduce():
    p = SuperPolynomial(1, {((0,), 0): Fraction(1, 2), ((1,), 1): 1})
    assert (p.num, p.den) == ({((0,), 0): 1, ((1,), 1): 2}, 2)
    assert (p.odd_part().num, p.odd_part().den) == ({((1,), 1): 1}, 1)
    assert (p.even_part().num, p.even_part().den) == ({((0,), 0): 1}, 2)
    assert (p.derivative(1).num, p.derivative(1).den) == ({((0,), 1): 1}, 1)
    zero = p.odd_part() - SuperPolynomial(1, {((1,), 1): 1})
    assert (zero.num, zero.den) == ({}, 1)


@pytest.mark.parametrize("kind", [SuperPolynomial, TTauExpression])
def test_polynomial_equality_is_exactly_oracle_equality(kind):
    rng = random.Random(83 + (kind is TTauExpression))
    for _ in range(300):
        x, ox = random_polynomial(rng, kind, (1, 2, 3, 4, 6, 9), terms=2)
        y, oy = same_shape(rng, x, (1, 2, 3, 4, 6, 9))
        third = {k: c / 3 for k, c in ox.items()}
        for a, oa in ((x, ox), (y, oy), (x + y - y, ox), (x * 2 * Fraction(1, 2), ox),
                      (_build(x, {k: Fraction(3 * c, 3) for k, c in ox.items()}), ox),
                      (x * Fraction(1, 2), {k: c / 2 for k, c in ox.items()})):
            # x / 3 may share x / 2's numerators over another denominator
            for b, ob in ((x, ox), (y, oy), (x * Fraction(1, 3), third)):
                assert (a == b) == (oa == ob)
                assert (a != b) == (oa != ob)
            for c in (0, 1, Fraction(1, 2), -3):
                assert (a == c) == (oa == clean({x._const_key(): c}))


def test_the_polynomial_form_is_immutable():
    p = SuperPolynomial(2, {((1, 0), 0): Fraction(1, 2), ((0, 0), 3): 3})
    e = TTauExpression(1, 2, {((1, 0), 2): Fraction(-2, 3)})
    for x, names in ((p, ("n",)), (e, ("n", "symbol_range"))):
        for name in ("num", "den", "terms", "_terms") + names:
            with pytest.raises(AttributeError):
                setattr(x, name, {})
        view = x.terms
        for write in (lambda t: t.__setitem__(0, 1), lambda t: t.clear(), lambda t: t.popitem(),
                      lambda t: t.update({0: 1}), lambda t: t.__ior__({0: 1})):
            with pytest.raises(TypeError):
                write(view)
        assert x.terms is view
    assert p.terms == {((1, 0), 0): Fraction(1, 2), ((0, 0), 3): 3}
    assert (p.num, p.den) == ({((1, 0), 0): 1, ((0, 0), 3): 6}, 2)
    assert (e.num, e.den) == ({((1, 0), 2): -2}, 3)
