"""The matrix layer's integer grids, (den, rows) with each cell a term dict
(`supermatrix._term_rows`' form), and `supermatrix._grid_product`, the one
routine of every product of such grids, which takes the left factor's rows
and the right factor's columns.

A grid is checked against the matrix it was made from: its cells' least
degrees and degree parts against the entries, and its products and
conjugation (`_integer_product`, `_integer_conjugate`), on the kernels the
library's own rule and a cut forced to 0 pick, against SuperMatrix
products.  The routine is checked on each kernel forced by name, the right
walk, the left walk and the pair kernel, by patching `supermatrix._route`
as `tools/bench_kernel.py` does.  The references run with the cut emptied,
so no reference product walks the table.
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
    Queer,
    Standard,
    SuperMatrix,
    _entry_parity,
    _grid_product,
    _integer_conjugate,
    _integer_product,
    _reduced_matrix,
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


def _forced(monkeypatch, walk):
    """Make `supermatrix._route` name walk for every product."""
    monkeypatch.setattr(supermatrix, "_route", lambda gq, first, second: walk)


@pytest.mark.parametrize("gq", [4, 5, 6, 7])
@pytest.mark.parametrize("shape, parity", SHAPES)
def test_both_cell_forms_match_the_matrix_they_stand_for(monkeypatch, shape, parity, gq):
    # one cell form, term dicts: `_grid_product` on each kernel named, and
    # the grid's products under the library's cut and a cut of 0, which
    # walks every product, match SuperMatrix products on the pair kernel
    walks = counted_walks(monkeypatch)
    rng = random.Random(gq * 10 + shape.dim)
    cut = supermatrix._TABLE_DENSITY
    for fractional in (False, True):
        monkeypatch.setattr(supermatrix, "_TABLE_DENSITY", {})
        walks.clear()
        m = _matrix(rng, shape, parity, gq, fractional)
        b = _matrix(rng, shape, parity, gq, fractional)
        soul = _matrix(rng, shape, shape.group_parity, gq, fractional).soul()
        h = GroupElement(SuperMatrix.identity(shape, gq) + soul)
        h_rows, inverse_rows = _term_rows(h.matrix), _term_rows(h.inverse)
        (b_den, b_cells), (m_den, m_cells) = _term_rows(b), _term_rows(m)
        conjugated = _entries(h.inverse @ m @ h.matrix)
        products = [_entries(b @ m), b._product(m, True), _entries(m @ b), m._product(b, True)]
        assert not walks
        route = supermatrix._route
        for walk in (None, "right", "left"):
            _forced(monkeypatch, walk)
            walks.clear()
            b_cols, m_cols = list(zip(*b_cells)), list(zip(*m_cells))
            assert [_scalars(gq, b_den * m_den, _grid_product(gq, b_cells, m_cols)),
                    _scalars(gq, b_den * m_den, _grid_product(gq, b_cells, m_cols, True)),
                    _scalars(gq, m_den * b_den, _grid_product(gq, m_cells, b_cols)),
                    _scalars(gq, m_den * b_den, _grid_product(gq, m_cells, b_cols, True))
                    ] == products
            assert len(walks) == (4 if walk else 0)
        monkeypatch.setattr(supermatrix, "_route", route)
        for table in (cut, {gq: 0}):
            monkeypatch.setattr(supermatrix, "_TABLE_DENSITY", table)
            grid = _term_rows(m)
            den, cells = grid
            assert all(isinstance(cell, dict) for row in cells for cell in row)
            for i, row in enumerate(m.rows):
                for j, x in enumerate(row):
                    assert min(map(int.bit_count, cells[i][j]), default=None) == x.min_degree()
                    for level in range(gq + 1):
                        want = {k: c for k, c in x.terms.items() if k.bit_count() == level}
                        part = {k: c for k, c in cells[i][j].items() if k.bit_count() == level}
                        assert reduced_scalar(gq, part, den) == GrassmannScalar(gq, want)
            walks.clear()
            assert _entries(_reduced_matrix(shape, parity, gq, *_integer_product(
                gq, grid, _term_rows(b)))) == products[2]
            assert _entries(_reduced_matrix(shape, parity, gq, *_integer_conjugate(
                gq, grid, h_rows, inverse_rows))) == conjugated
            assert _reduced_matrix(shape, parity, gq, *grid) == m
            if table != cut:
                assert len(walks) == 3


@pytest.mark.parametrize("walk, table", [("right", disjoint_table), ("left", left_table)])
def test_each_cell_walks_the_half_its_own_masks_pick(monkeypatch, walk, table):
    # under a label of "any", an even cell walks the even half of each table
    # row, an odd one the odd half, a mixed one both, and a zero one nothing
    gq = 4
    g = GrassmannScalar
    m = SuperMatrix(Queer(2), ANY, [
        [g(gq, {0: 2, 0b0011: -1, 0b1111: 3}), g(gq, {0b0001: 5, 0b0111: Fraction(1, 2)})],
        [g(gq, {0: 1, 0b0100: -3, 0b1010: 2}), g.zero(gq)]])
    other = _matrix(random.Random(5), Queer(2), ANY, gq, True)
    want = _entries(other @ m if walk == "right" else m @ other)
    halves = {}
    real = supermatrix.mul_table_into

    def spy(acc, t, operand):
        half, dense = operand
        halves.setdefault(tuple(dense), []).append(half)
        return real(acc, t, operand)

    monkeypatch.setattr(supermatrix, "mul_table_into", spy)
    (den, cells), (other_den, other_cells) = _term_rows(m), _term_rows(other)
    left, right = (other_cells, cells) if walk == "right" else (cells, other_cells)
    _forced(monkeypatch, walk)
    assert _scalars(gq, den * other_den, _grid_product(gq, left, list(zip(*right)))) == want

    def dense(cell):
        out = [0] * (1 << gq)
        for k, c in cell.items():
            out[k] = c
        return tuple(out)

    (even, odd), (mixed, zero) = cells
    assert not zero
    assert halves.keys() == {dense(even), dense(odd), dense(mixed)}
    for cell, parity in [(even, 0), (odd, 1), (mixed, None)]:
        assert all(half is table(gq, parity) for half in halves[dense(cell)])
