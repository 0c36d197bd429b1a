"""`supermatrix.IntegerGrid`, whose cells are term dicts that each product
walks on the table kernel or multiplies on the pair kernel.

A grid is checked against the matrix it was made from on both kernels, with
the table's cut forced empty and forced to 0 at the grid's generator count:
its readers against the entries, its products and conjugation against
SuperMatrix products.  The references run with the cut emptied, so no
reference product goes through a grid itself.
"""

import random
from fractions import Fraction

import pytest

from superinv import supermatrix
from superinv.grassmann import GrassmannScalar, disjoint_table, left_table, reduced_scalar
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

from refine_oracle import counted_walks

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
    """Term dicts over den as scalars."""
    return [reduced_scalar(q, cell, den) for cell in cells]


def _entries(m):
    return [x for row in m.rows for x in row]


@pytest.mark.parametrize("gq", [4, 5, 6, 7])
@pytest.mark.parametrize("shape, parity", SHAPES)
def test_both_cell_forms_match_the_matrix_they_stand_for(monkeypatch, shape, parity, gq):
    # one cell form, term dicts, on both kernels: with the cut emptied every
    # product stays on the pair kernel, and with a cut of 0 each one walks
    walks = counted_walks(monkeypatch)
    rng = random.Random(gq * 10 + shape.dim)
    for fractional in (False, True):
        monkeypatch.setattr(supermatrix, "_TABLE_DENSITY", {})
        walks.clear()
        m = _matrix(rng, shape, parity, gq, fractional)
        b = _matrix(rng, shape, parity, gq, fractional)
        soul = _matrix(rng, shape, shape.group_parity, gq, fractional).soul()
        h = GroupElement(SuperMatrix.identity(shape, gq) + soul)
        h_rows, inverse_rows = _term_rows(h.matrix), _term_rows(h.inverse)
        b_rows = _term_rows(b)
        conjugated = _entries(h.inverse @ m @ h.matrix)
        products = [_entries(b @ m), b._product(m, True), _entries(m @ b), m._product(b, True)]
        assert not walks
        for cut in ({}, {gq: 0}):
            monkeypatch.setattr(supermatrix, "_TABLE_DENSITY", cut)
            grid = IntegerGrid(m)
            assert all(isinstance(cell, dict) for row in grid.cells for cell in row)
            for i, row in enumerate(m.rows):
                for j, x in enumerate(row):
                    assert grid.min_degree(i, j) == x.min_degree()
                    for level in range(gq + 1):
                        want = {k: c for k, c in x.terms.items() if k.bit_count() == level}
                        assert grid.degree_part(i, j, level) == GrassmannScalar(gq, want)
            walks.clear()
            assert [_scalars(gq, *grid.under(*b_rows)), _scalars(gq, *grid.under(*b_rows, True)),
                    _scalars(gq, *grid.times(*b_rows)),
                    _scalars(gq, *grid.times(*b_rows, True))] == products
            assert len(walks) == (4 if cut else 0)
            assert (grid @ b_rows).matrix() == m @ b
            assert _entries(grid.conjugate(h_rows, inverse_rows).matrix()) == conjugated
            assert grid.matrix() == m


@pytest.mark.parametrize("walk, table", [("under", disjoint_table), ("times", left_table)])
def test_each_cell_walks_the_half_its_own_masks_pick(monkeypatch, walk, table):
    # under a label of "any", an even cell walks the even half of each table
    # row, an odd one the odd half, a mixed one both, and a zero one nothing
    gq = 4
    g = GrassmannScalar
    m = SuperMatrix(Queer(2), ANY, [
        [g(gq, {0: 2, 0b0011: -1, 0b1111: 3}), g(gq, {0b0001: 5, 0b0111: Fraction(1, 2)})],
        [g(gq, {0: 1, 0b0100: -3, 0b1010: 2}), g.zero(gq)]])
    other = _matrix(random.Random(5), Queer(2), ANY, gq, True)
    want = _entries(other @ m if walk == "under" else m @ other)
    monkeypatch.setattr(supermatrix, "_TABLE_DENSITY", {gq: 0})
    halves = {}
    real = supermatrix.mul_table_into

    def spy(acc, t, operand):
        half, dense = operand
        halves.setdefault(tuple(dense), []).append(half)
        return real(acc, t, operand)

    monkeypatch.setattr(supermatrix, "mul_table_into", spy)
    grid = IntegerGrid(m)
    assert _scalars(gq, *getattr(grid, walk)(*_term_rows(other))) == want

    def dense(cell):
        out = [0] * (1 << gq)
        for k, c in cell.items():
            out[k] = c
        return tuple(out)

    (even, odd), (mixed, zero) = grid.cells
    assert not zero
    assert halves.keys() == {dense(even), dense(odd), dense(mixed)}
    for cell, parity in [(even, 0), (odd, 1), (mixed, None)]:
        assert all(half is table(gq, parity) for half in halves[dense(cell)])
