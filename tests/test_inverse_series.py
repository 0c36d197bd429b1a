"""The integer inverse series of `supermatrix` and `SuperMatrix.invert`,
checked against the geometric series on SuperMatrix products.

The oracle is `grassmann.geometric_sum`, which builds (1 + x)^-1 from
SuperMatrix products and sums, so its labels come from the products' label
rules.  Values are compared entry by entry, and labels with the oracle's.
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
    _TABLE_DENSITY,
    _entry_parity,
    _inverse_series,
    _reduced_matrix,
    _term_rows,
)

G = GrassmannScalar

SHAPES = [pytest.param(shape, parity, id="%s-%s" % (name, parity)) for name, shape, parity in [
    ("Q(2)", Queer(2), ANY), ("Q(3)", Queer(3), ANY), ("(1|1)", Standard(1, 1), EVEN),
    ("(1|1)", Standard(1, 1), ODD), ("(1|1)", Standard(1, 1), ANY),
    ("(2|1)", Standard(2, 1), EVEN), ("(2|2)", Standard(2, 2), ODD)]]


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


def _series(x, order, table, monkeypatch):
    """_inverse_series on x's term rows as a matrix of x's shape, labelled as
    the filtration labels its step inverses (the shape's group parity), and
    whether it walked the table."""
    walked = []
    real = supermatrix._walk
    monkeypatch.setattr(supermatrix, "_walk", lambda q, lines: (walked.append(1), real(q, lines))[1])
    try:
        out = _reduced_matrix(x.shape, x.shape.group_parity, x.gq,
                              *_inverse_series(*_term_rows(x), x.gq, order, table=table))
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
                for table in (False, True):
                    got, walked = _series(x, order, table, monkeypatch)
                    assert got.rows == want.rows, (level, share, fractional, table)
                    if parity == shape.group_parity:
                        # a filtration step's label, as the products' chain gives it
                        assert got.parity == want.parity
                    # the caller's form decides, whatever x's density: the
                    # table walks only at a gq it serves and for a second power
                    assert walked == (table and gq in _TABLE_DENSITY and order > 1
                                      and not x.is_zero())
                    kernels.add(walked)
    # the table form walks from gq 4 up
    assert kernels == ({False, True} if gq >= 4 else {False})


@pytest.mark.parametrize("shape, parity", SHAPES)
def test_inverse_series_of_zero_and_of_an_early_zero_power(monkeypatch, shape, parity):
    gq = 6
    ident = SuperMatrix.identity(shape, gq)
    zero = SuperMatrix.zeros(shape, gq, parity)
    for table in (False, True):
        assert _inverse_series(*_term_rows(zero), gq, gq, table=table) == (
            1, [[{0: 1} if i == j else {} for j in range(shape.dim)] for i in range(shape.dim)])
    # every entry a multiple of the even e1 e2, which keeps the label: x^2 = 0
    # long before x^gq
    rng = random.Random(shape.dim)
    e12 = G.generator(gq, 1) * G.generator(gq, 2)
    for fractional in (False, True):
        x = _matrix(rng, shape, parity, gq, 1, 0.5, fractional)
        x = SuperMatrix(shape, parity, [[e12 * y for y in row] for row in x.rows])
        assert not x.is_zero() and (x @ x).is_zero()
        for table in (False, True):
            got, _walked = _series(x, gq, table, monkeypatch)
            assert got.rows == geometric_sum(ident, -x, gq).rows == (ident - x).rows


@pytest.mark.parametrize("gq", [4, 5, 7])
@pytest.mark.parametrize("shape, parity", SHAPES)
def test_inverse_series_of_order_one_is_one_minus_x_with_no_product(monkeypatch, shape, parity, gq):
    # a filtration step above gq / 2: x has degree > gq / 2, so x^2 = 0 and
    # the series is den on the diagonal and -x's rows, in both forms, with no
    # dense operand built
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
            for table in (False, True):
                assert _inverse_series(den, rows, gq, 1, table=table) == want
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
