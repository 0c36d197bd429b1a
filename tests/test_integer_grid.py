"""The two cell forms of `supermatrix.IntegerGrid`: dense lists of numerators
for the table kernel, and term dicts for the pair kernel.

Each form of a grid is checked against the matrix it was made from: its
readers against the entries, its products and conjugation against
SuperMatrix products.  The references run with the table gate emptied, so
no reference product goes through a grid itself.
"""

import random
from fractions import Fraction

import pytest

from superinv import supermatrix
from superinv.grassmann import GrassmannScalar, reduced_scalar
from superinv.supermatrix import (
    ANY,
    ODD,
    GroupElement,
    IntegerGrid,
    Queer,
    Standard,
    SuperMatrix,
    _entry_parity,
    _term_rows,
)

SHAPES = [pytest.param(shape, parity, id=name) for name, shape, parity in [
    ("Q(2)", Queer(2), ANY), ("Q(3)", Queer(3), ANY), ("odd-(2|2)", Standard(2, 2), ODD)]]


def _matrix(rng, shape, parity, q, fractional):
    """A matrix of the label's parity class whose entries hold about a third
    of their parity's monomials, with Fraction coefficients when fractional."""
    def entry(i, j):
        want = _entry_parity(shape, parity, i, j)
        return GrassmannScalar(q, {
            m: Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 4) if fractional else 1)
            for m in range(1 << q)
            if rng.random() < 1 / 3 and (want is None or m.bit_count() % 2 == (want == ODD))})

    dim = shape.dim
    return SuperMatrix(shape, parity, [[entry(i, j) for j in range(dim)] for i in range(dim)])


def _scalars(q, den, cells):
    """Cells of either form over den as scalars."""
    return [reduced_scalar(q, {m: c for m, c in (cell.items() if isinstance(cell, dict)
                                                 else enumerate(cell)) if c}, den)
            for cell in cells]


def _entries(m):
    return [x for row in m.rows for x in row]


@pytest.mark.parametrize("gq", [4, 5, 6, 7])
@pytest.mark.parametrize("shape, parity", SHAPES)
def test_both_cell_forms_match_the_matrix_they_stand_for(monkeypatch, shape, parity, gq):
    monkeypatch.setattr(supermatrix, "_TABLE_DENSITY", {})
    rng = random.Random(gq * 10 + shape.dim)
    for fractional in (False, True):
        m = _matrix(rng, shape, parity, gq, fractional)
        b = _matrix(rng, shape, parity, gq, fractional)
        soul = _matrix(rng, shape, shape.group_parity, gq, fractional).soul()
        h = GroupElement(SuperMatrix.identity(shape, gq) + soul)
        h_rows, inverse_rows = _term_rows(h.matrix), _term_rows(h.inverse)
        b_rows = _term_rows(b)
        conjugated = _entries(h.inverse @ m @ h.matrix)
        for dense in (True, False):
            grid = IntegerGrid(m, dense)
            assert all(isinstance(cell, list if dense else dict)
                       for row in grid.cells for cell in row)
            for i, row in enumerate(m.rows):
                for j, x in enumerate(row):
                    assert grid.min_degree(i, j) == x.min_degree()
                    for level in range(gq + 1):
                        want = {k: c for k, c in x.terms.items() if k.bit_count() == level}
                        assert grid.degree_part(i, j, level) == GrassmannScalar(gq, want)
            assert _scalars(gq, *grid.under(*b_rows)) == _entries(b @ m)
            assert _scalars(gq, *grid.under(*b_rows, diagonal=True)) == b._product(m, True)
            assert _scalars(gq, *grid.times(*b_rows)) == _entries(m @ b)
            assert _scalars(gq, *grid.times(*b_rows, diagonal=True)) == m._product(b, True)
            assert (grid @ b_rows).matrix() == m @ b
            assert _entries(grid.conjugate(h_rows, inverse_rows).matrix()) == conjugated
            assert grid.matrix() == m

