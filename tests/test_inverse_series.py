"""The integer inverse series of `supermatrix` and `SuperMatrix.invert`,
checked against the geometric series on SuperMatrix products.

The oracle is `grassmann.geometric_sum`, which builds (1 + x)^-1 from
SuperMatrix products and sums, so its labels come from the products' label
rules.  Values are compared entry by entry, and labels with the oracle's.
The series runs on both kernels by forcing the table's cut: emptied, every
power stays on the pair kernel, and at 0 for every generator count each
power walks the table.  Under the library's own cut, each power's kernel is
read from `supermatrix._route`'s answer.
"""

import random
from fractions import Fraction

import pytest

from superinv import linalg, supermatrix
from superinv.errors import SingularBody
from superinv.grassmann import GrassmannScalar, geometric_sum
from superinv.supermatrix import (
    ANY,
    EVEN,
    ODD,
    Queer,
    Standard,
    SuperMatrix,
    _chunked,
    _entry_parity,
    _inverse_series,
    _reduced_matrix,
    _term_rows,
)

from refine_oracle import counted_walks, expected_walk

G = GrassmannScalar

SHAPES = [pytest.param(shape, parity, id="%s-%s" % (name, parity)) for name, shape, parity in [
    ("Q(2)", Queer(2), ANY), ("Q(3)", Queer(3), ANY), ("(1|1)", Standard(1, 1), EVEN),
    ("(1|1)", Standard(1, 1), ODD), ("(1|1)", Standard(1, 1), ANY),
    ("(2|1)", Standard(2, 1), EVEN), ("(2|2)", Standard(2, 2), ODD)]]

# the table's cut emptied (the pair kernel), and at 0 for every gq here (the table)
CUTS = ({}, dict.fromkeys(range(8), 0))


def _matrix(rng, shape, parity, q, level, share, fractional):
    """A matrix of the label's parity class whose entries hold about share of
    their parity's monomials of degree >= level, and for level 0 a body that
    keeps it invertible; Fraction coefficients when fractional."""
    def coeff():
        c = rng.choice([-3, -1, 1, 2, 5])
        return Fraction(c, rng.randint(1, 4)) if fractional else c

    def entry(i, j):
        want = _entry_parity(shape, parity, i, j)
        terms = {m: coeff() for m in range(1, 1 << q)
                 if m.bit_count() >= max(level, 1) and rng.random() < share
                 and (want is None or m.bit_count() % 2 == (want == ODD))}
        if level == 0 and want != ODD:
            # a dominant body on the diagonal, or on an odd (n|n)'s partner cells
            partner = (i + shape.dim // 2 if parity == ODD else i) % shape.dim
            terms[0] = coeff() + (7 if j == partner else 0)
        return G(q, terms)

    return SuperMatrix(shape, parity, [[entry(i, j) for j in range(shape.dim)]
                                       for i in range(shape.dim)])


def _series(x, order, cut, monkeypatch):
    """_inverse_series on x's term rows under the table's cut, as a matrix of
    x's shape, labelled as the filtration labels its step inverses (the
    shape's group parity), and whether it walked the table; cut None keeps
    the library's own."""
    walked = counted_walks(monkeypatch)
    if cut is not None:
        monkeypatch.setattr(supermatrix, "_TABLE_DENSITY", cut)
    try:
        out = _reduced_matrix(x.shape, x.shape.group_parity, x.gq,
                              *_inverse_series(*_term_rows(x), x.gq, order))
    finally:
        monkeypatch.undo()
    return out, bool(walked)


def _invert_oracle(a):
    """A^-1 as the geometric series in -B^-1 S on SuperMatrix products, B the
    body and S the soul, times B^-1."""
    gq = a.gq
    binv = SuperMatrix(a.shape, a.parity, [[G.rational(gq, v) for v in row]
                                           for row in linalg.inverse(a.body_rows())],
                       validate=False)
    return geometric_sum(SuperMatrix.identity(a.shape, gq), -(binv @ a.soul()), gq) @ binv


@pytest.mark.parametrize("gq", range(2, 8))
@pytest.mark.parametrize("shape, parity", SHAPES)
def test_inverse_series_matches_the_geometric_sum(monkeypatch, shape, parity, gq):
    rng = random.Random(gq * 101 + shape.dim * 7 + len(parity))
    kernels = set()
    for level in (1, 2):
        order = gq // level
        for share in (1, 0.1):
            for fractional in (False, True):
                x = _matrix(rng, shape, parity, gq, level, share, fractional)
                want = geometric_sum(SuperMatrix.identity(shape, gq), -x, order)
                for cut in CUTS:
                    got, walked = _series(x, order, cut, monkeypatch)
                    assert got.rows == want.rows, (level, share, fractional, cut)
                    if parity == shape.group_parity:
                        # a filtration step's label, as the products' chain gives it
                        assert got.parity == want.parity
                    # the forced cut decides, whatever x's density: the
                    # table walks only for a second power
                    assert walked == (bool(cut) and order > 1 and not x.is_zero())
                    kernels.add(walked)
    assert kernels == {False, True}


@pytest.mark.parametrize("gq", [4, 5, 6, 7])
@pytest.mark.parametrize("shape, parity", SHAPES)
def test_inverse_series_walks_exactly_when_x_passes_the_cut(monkeypatch, shape, parity, gq):
    # the library's own cut: each power of a series is the last power times
    # x, on the walk the kernel rule names for that pair, whoever calls it:
    # the table walks x, or the last power when it holds more terms, once
    # the one walked passes the cut, and the pair kernel runs otherwise
    rng = random.Random(gq * 211 + shape.dim * 3 + len(parity))
    seen = set()
    real, real_route = supermatrix._grid_product, supermatrix._route
    for share in (1, 0.1, 0.02):
        for fractional in (False, True):
            x = _matrix(rng, shape, parity, gq, 1, share, fractional)
            if x.is_zero():
                continue
            den, rows = _term_rows(x)
            powers = [rows]

            def route(q, first, second):
                walk = real_route(q, first, second)
                assert walk == expected_walk(gq, first, second)
                seen.add(walk)
                return walk

            def spy(q, first, second, diagonal=False):
                assert (q, first, second, diagonal) == (gq, powers[-1], list(zip(*rows)), False)
                out = real(q, first, second, diagonal)
                powers.append(_chunked(out, shape.dim))
                return out

            monkeypatch.setattr(supermatrix, "_route", route)
            monkeypatch.setattr(supermatrix, "_grid_product", spy)
            got = _reduced_matrix(shape, shape.group_parity, gq,
                                  *_inverse_series(den, rows, gq, gq))
            monkeypatch.undo()
            assert got.rows == geometric_sum(SuperMatrix.identity(shape, gq), -x, gq).rows
            assert len(powers) > 1
    assert None in seen and "right" in seen


@pytest.mark.parametrize("shape, parity", SHAPES)
def test_inverse_series_of_zero_and_of_an_early_zero_power(monkeypatch, shape, parity):
    gq = 6
    ident = SuperMatrix.identity(shape, gq)
    zero = SuperMatrix.zeros(shape, gq, parity)
    for cut in CUTS:
        monkeypatch.setattr(supermatrix, "_TABLE_DENSITY", cut)
        assert _inverse_series(*_term_rows(zero), gq, gq) == (
            1, [[{0: 1} if i == j else {} for j in range(shape.dim)] for i in range(shape.dim)])
    monkeypatch.undo()
    # every entry a multiple of the even e1 e2, which keeps the label: x^2 = 0
    # long before x^gq
    rng = random.Random(shape.dim)
    e12 = G.generator(gq, 1) * G.generator(gq, 2)
    for fractional in (False, True):
        x = _matrix(rng, shape, parity, gq, 1, 0.5, fractional)
        x = SuperMatrix(shape, parity, [[e12 * y for y in row] for row in x.rows])
        assert not x.is_zero() and (x @ x).is_zero()
        for cut in CUTS:
            got, _walked = _series(x, gq, cut, monkeypatch)
            assert got.rows == geometric_sum(ident, -x, gq).rows == (ident - x).rows


@pytest.mark.parametrize("gq", [4, 5, 7])
@pytest.mark.parametrize("shape, parity", SHAPES)
def test_inverse_series_of_order_one_is_one_minus_x_with_no_product(monkeypatch, shape, parity, gq):
    # a filtration step above gq / 2: x has degree > gq / 2, so x^2 = 0 and
    # the series is den on the diagonal and -x's rows, under either cut, with
    # no dense operand built
    rng = random.Random(gq * 31 + shape.dim + len(parity))
    built = []
    real = supermatrix._walked
    monkeypatch.setattr(supermatrix, "_walked", lambda *args: (built.append(1), real(*args))[1])
    for share in (1, 0.5):
        for fractional in (False, True):
            x = _matrix(rng, shape, parity, gq, gq // 2 + 1, share, fractional)
            assert not x.is_zero() and (x @ x).is_zero()
            built.clear()
            den, rows = _term_rows(x)
            want = den, [[{**({0: den} if i == j else {}), **{m: -c for m, c in t.items()}}
                          for j, t in enumerate(row)] for i, row in enumerate(rows)]
            for cut in CUTS:
                monkeypatch.setattr(supermatrix, "_TABLE_DENSITY", cut)
                assert _inverse_series(den, rows, gq, 1) == want
            assert not built


@pytest.mark.parametrize("gq", range(2, 8))
@pytest.mark.parametrize("shape, parity", SHAPES)
def test_invert_matches_the_geometric_sum(shape, parity, gq):
    rng = random.Random(gq * 13 + shape.dim + len(parity))
    done = 0
    for share in (1, 0.1):
        for fractional in (False, True):
            a = _matrix(rng, shape, parity, gq, 0, share, fractional)
            try:
                inv = a.invert()
            except SingularBody:
                continue
            want = _invert_oracle(a)
            assert inv.rows == want.rows and inv.parity == want.parity == parity
            inv._validate()
            assert (a @ inv).is_identity()
            done += 1
    assert done >= 3
