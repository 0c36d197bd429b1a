"""The ring-core nilpotent stage against its Fraction and `linalg.matmul` oracle,
on the integer grid's pair kernel and its table walks."""

import random
from fractions import Fraction

import pytest

from superinv import (
    GrassmannScalar,
    Queer,
    SuperMatrix,
    block_diagonalize,
    diagonalize,
    reduce_odd,
    reduction,
)
from superinv.supermatrix import ANY, GroupElement, random_matrix
from superinv.verify import (
    random_odd_reducible,
    random_queer_with_spectrum,
    random_standard_even_with_spectrum,
)

from refine_oracle import counted_products, counted_walks, refine_matches, took_the_rule


@pytest.mark.parametrize("eigenvalues,gq,seed", [
    ([1, 2, 5], 4, 1),                                     # distinct
    ([-1, 3, 3, 7], 4, 2),                                 # one repeated
    ([2, 2, 2], 3, 3),                                     # one part
    ([Fraction(1, 2), 3, Fraction(-2, 3)], 4, 4),          # Fractions, 1/2 among them
    ([Fraction(1, 2), Fraction(1, 2), Fraction(5, 7)], 5, 5),
    ([999983, 1000003], 5, 6),                             # primes near 1e6
    ([Fraction(999983, 2), 1000003, 999979], 4, 7),
    ([1, Fraction(1, 2), 999983], 6, 8),                   # six levels
])
def test_queer_refine_matches_oracle(monkeypatch, eigenvalues, gq, seed):
    # the filtrations of seeds 2, 5, 6 and 8 reach a matrix past the cut
    a = random_queer_with_spectrum(len(eigenvalues), eigenvalues, gq, seed, soul_terms=6)
    assert refine_matches(monkeypatch, block_diagonalize, a) == [seed in (2, 5, 6, 8)]


def test_even_standard_refine_matches_oracle(monkeypatch):
    rng = random.Random(21)
    for eigs_x, eigs_t in [([1, 3], [2]), ([2], [2, -1]), ([Fraction(1, 2), 4], [4, Fraction(-3, 5)])]:
        a = random_standard_even_with_spectrum(len(eigs_x), len(eigs_t), eigs_x, eigs_t,
                                               rng.randint(2, 4), rng.randrange(1 << 30))
        assert refine_matches(monkeypatch, block_diagonalize, a) == [False]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_odd_refine_matches_oracle(monkeypatch, n):
    rng = random.Random(30 + n)
    values = [[2], [-3, Fraction(1, 2)], [1, 5, Fraction(-7, 3)]][n - 1]
    for gq in range(2, 7):
        a = random_odd_reducible(n, values, gq, rng.randrange(1 << 30))
        assert refine_matches(monkeypatch, reduce_odd, a) == [False]


def _dense_conjugate(a, seed, max_terms):
    """a conjugated by 1 plus a random soul of up to max_terms terms per entry."""
    soul = random_matrix(a.shape, a.shape.group_parity, a.gq, seed, 9, max_terms=max_terms).soul()
    return a.conjugate(GroupElement(SuperMatrix.identity(a.shape, a.gq) + soul))


def _dense_inputs(gq):
    """A dense Q(2) and a dense odd (2|2) at gq, each with its reduction."""
    q2 = random_queer_with_spectrum(2, [1, -2], gq, seed=40 + gq)
    odd = random_odd_reducible(2, [2, -3], gq, seed=50 + gq)
    return [(reduce, _dense_conjugate(a, seed, 1 << (gq - 1)))
            for a, reduce, seed in [(q2, block_diagonalize, 60 + gq), (odd, reduce_odd, 70 + gq)]]


@pytest.mark.parametrize("gq", [4, 5, 6, 7, 8, 10])
def test_dense_refine_matches_oracle_above_half_gq(monkeypatch, gq):
    # cross terms at every level, so levels gq // 2 + 1 .. gq (2 to 5 of them)
    # each make a step that the conjugator takes in one batch; the inputs
    # are dense, so the filtration walks the table
    for reduce, a in _dense_inputs(gq):
        assert refine_matches(monkeypatch, reduce, a) == [True]


def test_every_step_inverse_takes_the_grids_kernel(monkeypatch):
    # each power of a step's series takes the walk the kernel rule names for
    # the last power and the step: on the dense inputs above, some powers
    # walk the table and some stay on the pair kernel, and every power of
    # CI's sparse Q(3) at gq 10 (the reduction golden's) stays on the pair
    # kernel
    records = []
    real = reduction._inverse_series

    def spy(den, rows, gq, order):
        with monkeypatch.context() as patch:
            powers = counted_products(patch)
            out = real(den, rows, gq, order)
        records.extend(powers)
        return out

    monkeypatch.setattr(reduction, "_inverse_series", spy)
    for gq in [4, 5, 6, 7, 8, 10]:
        for reduce, a in _dense_inputs(gq):
            reduce(a)
    assert took_the_rule(records)
    assert {walked for *_walks, walked in records} == {False, True}
    records.clear()
    diagonalize(_dense_conjugate(random_queer_with_spectrum(3, [1, -2, 3], 10, seed=4), 5, 2))
    assert records and not any(walked for *_walks, walked in records)


def _share(m):
    """The share of the 2**gq monomials that m's entries hold on average."""
    return sum(len(x.num) for row in m.rows for x in row) / (m.dim ** 2 << m.gq)


def _full_queer(gq):
    """Q(2) with body diag(1, -2) and every monomial in every entry, at
    gq 11 only on the diagonal."""
    full = [[GrassmannScalar(gq, {m: 1 + (m * (i + 3 * j)) % 7 for m in range(i != j, 1 << gq)})
             if i == j or gq < 11 else GrassmannScalar.zero(gq) for j in range(2)]
            for i in range(2)]
    for i, lam in enumerate([1, -2]):
        full[i][i] = full[i][i] + lam
    return SuperMatrix(Queer(2), ANY, full)


def test_the_grid_serves_dense_inputs_at_the_tables_generator_counts(monkeypatch):
    # `_refine` converts m and g once each into term dicts, and its
    # filtration walks the table exactly when an operand passes the cut: on
    # the dense inputs at every gq the table serves, and on Q(3)s at gq 8
    # and 10 whose refine input is past the cut but below a quarter of the
    # monomials; not on CI's sparse Q(3), nor at gq 2, 3 and 11, where no
    # table serves even full cells
    seen = []
    grids = []
    inputs = []
    real, real_rows = reduction._refine, reduction._term_rows

    def recording(m, parts, g, filtration_log=None):
        inputs[:] = m, g
        with monkeypatch.context() as patch:
            walked = counted_walks(patch)
            out = real(m, parts, g, filtration_log)
        seen.append((m.gq, _share(m), bool(walked)))
        return out

    def spy(matrix):
        # `_refine`'s conversions of its m and g, not of its steps
        den, rows = real_rows(matrix)
        if any(matrix is x for x in inputs):
            assert all(isinstance(cell, dict) for row in rows for cell in row)
            grids.append(matrix.gq)
        return den, rows

    monkeypatch.setattr(reduction, "_refine", recording)
    monkeypatch.setattr(reduction, "_term_rows", spy)
    for gq in range(4, 11):
        for reduce, a in _dense_inputs(gq):
            reduce(a)
            _gq, share, walked = seen.pop()
            assert share >= 1 / 4 and walked
    assert not seen
    for gq, max_terms, cut, walks in [(8, 12, 1 / 8, True), (10, 20, 1 / 16, True), (10, 2, 0, False)]:
        a = random_queer_with_spectrum(3, [1, -2, 3], gq, seed=4)
        soul = random_matrix(a.shape, ANY, gq, 5, 9, max_terms=max_terms).soul()
        block_diagonalize(a.conjugate(GroupElement(SuperMatrix.identity(a.shape, gq) + soul)))
        _gq, share, walked = seen.pop()
        assert cut <= share < 1 / 4 and walked == walks
    for gq in (2, 3, 11):
        block_diagonalize(_full_queer(gq))
        _gq, share, walked = seen.pop()
        assert share >= 1 / 4 and not walked
    assert grids == [gq for gq in range(4, 11) for _ in range(4)] + [8, 8, 10, 10, 10, 10, 2, 2, 3, 3, 11, 11]


@pytest.mark.parametrize("gq", [2, 3, 11])
def test_full_cells_beyond_the_table_refine_like_the_oracle(monkeypatch, gq):
    # no table serves these gq, so the filtration multiplies full cells on
    # the pair kernel
    assert refine_matches(monkeypatch, block_diagonalize, _full_queer(gq)) == [False]


@pytest.mark.parametrize("seed", [21, 23])
def test_refine_with_every_step_above_half_gq_matches_oracle(monkeypatch, seed):
    # no cross terms at level 1: the filtration logs are [2, 2, 3] and [2, 2, None]
    a = random_odd_reducible(2, [2, -3], 3, seed)
    assert refine_matches(monkeypatch, reduce_odd, a) == [False]


def _batch_gap_queer(dense):
    """Q(3) at gq 5 with cross terms of degrees 3 and 5 and diagonal souls
    of degree 2, plus, when dense, every monomial of degree 2..5 on the
    diagonal, which makes its filtration walk the table and leaves the cross
    degrees as they were."""
    q = 5
    rows = [[GrassmannScalar.zero(q)] * 3 for _ in range(3)]
    for i, lam in enumerate([1, 2, -1]):
        rows[i][i] = GrassmannScalar.rational(q, lam) + GrassmannScalar.monomial(q, [i + 1, i + 2])
        if dense:
            rows[i][i] += GrassmannScalar(q, {m: i + m % 5 + 1 for m in range(1 << q)
                                              if m.bit_count() >= 2})
    rows[0][1] = GrassmannScalar.monomial(q, [1, 2, 3]) + GrassmannScalar.monomial(q, [1, 2, 3, 4, 5], 2)
    rows[2][0] = GrassmannScalar.monomial(q, [2, 4, 5], -3)
    rows[1][2] = GrassmannScalar.monomial(q, [1, 2, 3, 4, 5], 5)
    return SuperMatrix(Queer(3), "any", rows)


def test_a_level_without_cross_terms_inside_the_batch_matches_oracle(monkeypatch):
    # the level-3 step leaves cross terms of degree 5 only, so level 4
    # solves nothing between two levels above gq / 2 that do
    a = _batch_gap_queer(dense=False)
    log = []
    block_diagonalize(a, filtration_log=log)
    assert log == [3, 3, 3, 5, 5]
    assert refine_matches(monkeypatch, block_diagonalize, a) == [False]


def test_a_level_without_cross_terms_inside_the_batch_matches_oracle_on_the_grid(monkeypatch):
    a = _batch_gap_queer(dense=True)
    log = []
    block_diagonalize(a, filtration_log=log)
    assert log == [3, 3, 3, 5, 5]
    assert refine_matches(monkeypatch, block_diagonalize, a) == [True]
