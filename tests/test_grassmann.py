import json
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from superinv import grassmann, supermatrix
from superinv.errors import GeneratorCountMismatch, ValidationError, ZeroBody
from superinv.grassmann import (
    GrassmannScalar,
    below_parity,
    disjoint_table,
    left_table,
    mask_to_indices,
    merge_sign,
)
from superinv.supermatrix import ANY, EVEN, ODD, Queer, Standard, SuperMatrix, _entry_parity
from superinv.sympoly import SuperPolynomial, TTauExpression


# ----------------------------------------------------------------------
# independent oracle: multiplication through explicit index lists


def naive_mul(x, y):
    """Brute-force product: concatenate index lists, bubble-sort with signs."""
    out = {}
    for mx, cx in x.terms.items():
        for my, cy in y.terms.items():
            seq = mask_to_indices(mx) + mask_to_indices(my)
            sign = 1
            items = list(seq)
            swapped = True
            while swapped:
                swapped = False
                for i in range(len(items) - 1):
                    if items[i] > items[i + 1]:
                        items[i], items[i + 1] = items[i + 1], items[i]
                        sign = -sign
                        swapped = True
            if any(items[i] == items[i + 1] for i in range(len(items) - 1)):
                continue
            mask = 0
            for i in items:
                mask |= 1 << (i - 1)
            out[mask] = out.get(mask, 0) + sign * cx * cy
    return GrassmannScalar(x.q, out)


def random_scalar(rng, q, bound=9, terms=3):
    data = {}
    for _ in range(rng.randint(0, terms)):
        mask = rng.getrandbits(q)
        c = rng.randint(-bound, bound)
        if c:
            data[mask] = data.get(mask, 0) + c
    return GrassmannScalar(q, data)


def test_generator_products():
    q = 3
    x1 = GrassmannScalar.generator(q, 1)
    x2 = GrassmannScalar.generator(q, 2)
    assert x1 * x2 == GrassmannScalar.monomial(q, [1, 2])
    assert x2 * x1 == GrassmannScalar.monomial(q, [1, 2], -1)
    assert (x1 * x1).is_zero()


def test_degree_collision_vanishes():
    q = 2
    one = GrassmannScalar.one(q)
    m = GrassmannScalar.monomial(q, [1, 2])
    assert (one + m) * (one - m) == 1


def test_multiplication_matches_naive_oracle():
    rng = random.Random(11)
    for _ in range(300):
        q = rng.randint(1, 6)
        x = random_scalar(rng, q)
        y = random_scalar(rng, q)
        assert x * y == naive_mul(x, y)


def dense_scalar(rng, q, denominators=(1,)):
    """Every one of the 2**q monomials, with nonzero coefficients."""
    terms = {}
    for mask in range(1 << q):
        c = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.choice(denominators))
        terms[mask] = c
    return GrassmannScalar(q, terms)


def matmul_1x1(x, y):
    """x * y through the matrix product, which runs on integer numerators."""
    a = SuperMatrix(Queer(1), ANY, [[x]])
    b = SuperMatrix(Queer(1), ANY, [[y]])
    return (a @ b).rows[0][0]


def assert_ints_stored_as_int(x):
    for c in x.terms.values():
        assert type(c) is int or c.denominator != 1, c


def test_full_density_products_match_naive_oracle():
    rng = random.Random(41)
    for q in range(1, 9):
        x = dense_scalar(rng, q)
        y = dense_scalar(rng, q)
        want = naive_mul(x, y)
        assert x * y == want
        got = matmul_1x1(x, y)
        assert got == want
        assert_ints_stored_as_int(got)


def test_mixed_denominator_products_match_naive_oracle():
    # large primes make the common denominator a product of distinct primes
    big = (1000003, 999983, 2 ** 61 - 1)
    rng = random.Random(43)
    for q in range(1, 8):
        x = dense_scalar(rng, q, (1, 2, 3, 4, 7, 9) + big)
        y = dense_scalar(rng, q, (1, 5, 6, 25) + big)
        want = naive_mul(x, y)
        assert x * y == want
        got = matmul_1x1(x, y)
        assert got == want
        assert_ints_stored_as_int(got)
    for _ in range(200):
        q = rng.randint(1, 6)
        x = random_scalar(rng, q) * Fraction(rng.randint(1, 9), rng.choice(big))
        y = random_scalar(rng, q) * Fraction(rng.choice(big), rng.randint(1, 9))
        assert matmul_1x1(x, y) == naive_mul(x, y)


def test_integral_products_of_fractions_are_ints():
    q = 2
    half = GrassmannScalar(q, {0: Fraction(1, 2), 1: Fraction(3, 2)})
    two = GrassmannScalar(q, {0: 2, 2: Fraction(4, 3)})
    for z in (half * two, matmul_1x1(half, two)):
        assert z.terms == {0: 1, 1: 3, 2: Fraction(2, 3), 3: 2}
        assert_ints_stored_as_int(z)


def test_merge_sign_matches_pair_count_exhaustively():
    # the definition: one transposition per pair (i in a, j in b) with i > j
    q = 10
    for b in range(1 << q):
        b_bits = mask_to_indices(b)
        rest = ((1 << q) - 1) & ~b
        a = rest
        while True:
            swaps = sum(1 for i in mask_to_indices(a) for j in b_bits if i > j)
            assert merge_sign(a, b) == (-1 if swaps % 2 else 1), (a, b)
            if a == 0:
                break
            a = (a - 1) & rest


def test_below_parity_examples():
    assert below_parity(0) == 0
    # e1: every bit above bit 0 has one bit of the mask below it
    assert below_parity(0b1) & 0b1111 == 0b1110
    assert below_parity(0b101) & 0b1111 == 0b0110
    assert below_parity(0b1) < 0 and below_parity(0b101) >= 0


def test_sign_table_is_bounded_by_the_masks():
    # one entry per right-hand monomial mask, not per pair of masks
    q = 12
    rng = random.Random(47)
    x = dense_scalar(rng, q)
    y = GrassmannScalar(q, {rng.getrandbits(q): rng.randint(1, 9) for _ in range(300)})
    below_parity.cache_clear()
    x * y
    matmul_1x1(x, y)
    assert below_parity.cache_info().currsize <= len(y.terms) <= 1 << q


# ----------------------------------------------------------------------
# the two matrix kernels: the pair kernel and the disjoint-pair table


def test_disjoint_table_lists_the_disjoint_pairs_with_their_signs():
    for q in range(7):
        halves = disjoint_table(q, 0), disjoint_table(q, 1)
        full = disjoint_table(q, None)
        for table in halves + (full,):
            assert len(table) == 1 << q
        for m1 in range(1 << q):
            disjoint = [m2 for m2 in range(1 << q) if not m1 & m2]
            for parity, table in enumerate(halves):
                plus, minus = table[m1]
                assert sorted(m2 for m2, _m in plus + minus) == [
                    m2 for m2 in disjoint if m2.bit_count() % 2 == parity]
                for sign, pairs in ((1, plus), (-1, minus)):
                    for m2, m in pairs:
                        assert m == m1 | m2 and merge_sign(m1, m2) == sign
            # the full row is the union of the halves' rows, of the same tuples
            for side in (0, 1):
                assert {id(pair) for pair in full[m1][side]} == {
                    id(pair) for table in halves for pair in table[m1][side]}
        pairs = {id(pair) for table in halves + (full,) for row in table for side in row
                 for pair in side}
        assert len(pairs) == 3 ** q


def test_left_table_lists_the_left_factors_pairs_with_their_signs():
    for q in range(7):
        assert left_table(q, 0) is disjoint_table(q, 0)
        halves = left_table(q, 0), left_table(q, 1)
        full = left_table(q, None)
        for m2 in range(1 << q):
            disjoint = [m1 for m1 in range(1 << q) if not m1 & m2]
            for parity, table in ((0, halves[0]), (1, halves[1]), (None, full)):
                assert len(table) == 1 << q
                plus, minus = table[m2]
                assert sorted(m1 for m1, _m in plus + minus) == [
                    m1 for m1 in disjoint if parity is None or m1.bit_count() % 2 == parity]
                for sign, pairs in ((1, plus), (-1, minus)):
                    for m1, m in pairs:
                        assert m == m1 | m2 and merge_sign(m1, m2) == sign
            # the full row joins the halves' rows
            for side in (0, 1):
                assert full[m2][side] == halves[0][m2][side] + halves[1][m2][side]


def kernel_entry(rng, q, parity, density, denominators, count=None):
    """Each monomial of the given parity (0, 1, or None for any) present
    with probability density, or count of them when count is given."""
    masks = [m for m in range(1 << q) if parity is None or m.bit_count() % 2 == parity]
    if count is not None:
        masks, density = rng.sample(masks, count), 1
    return GrassmannScalar(q, {
        m: Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.choice(denominators))
        for m in masks if rng.random() < density})


def kernel_matrix(rng, shape, q, density, denominators, count=None):
    """A queer matrix of any parity, or an odd standard (n|n) one; above
    1 x 1, a fifth of the entries are zero."""
    odd = isinstance(shape, Standard)
    zero = GrassmannScalar.zero(q)
    rows = [[zero if shape.dim > 1 and rng.random() < 0.2
             else kernel_entry(rng, q, ((i < shape.p) == (j < shape.p)) if odd else None,
                               density, denominators, count)
             for j in range(shape.dim)] for i in range(shape.dim)]
    return SuperMatrix(shape, ODD if odd else ANY, rows)


def naive_matmul(a, b):
    dim = a.dim
    return [[sum((naive_mul(a.rows[i][k], b.rows[k][j]) for k in range(dim)),
                 GrassmannScalar.zero(a.gq))
             for j in range(dim)] for i in range(dim)]


KERNEL_SHAPES = (Queer(1), Queer(2), Queer(3), Standard(1, 1), Standard(2, 2))
MIXED = (1, 2, 3, 7, 1000003)


def assert_matmul_matches_naive(a, b):
    got = a @ b
    want = naive_matmul(a, b)
    for i in range(a.dim):
        for j in range(a.dim):
            assert got.rows[i][j] == want[i][j], (i, j)
            assert_ints_stored_as_int(got.rows[i][j])


@pytest.mark.parametrize("gq", [3, 4])
@pytest.mark.parametrize("shape", KERNEL_SHAPES, ids=repr)
def test_matmul_matches_naive_oracle_at_the_table_floor(gq, shape):
    # gq 3 is below the table's floor, gq 4 on it; sparse right factors
    # (0.05) stay on the pair kernel, full ones take the table at gq 4
    rng = random.Random(53 + gq + 10 * shape.dim)
    for denominators in ((1,), MIXED):
        for left in (0.3, 1):
            for right in (0.05, 1):
                a = kernel_matrix(rng, shape, gq, left, denominators)
                b = kernel_matrix(rng, shape, gq, right, denominators)
                assert_matmul_matches_naive(a, b)


@pytest.mark.parametrize("gq", [10, 11])
@pytest.mark.parametrize("shape", KERNEL_SHAPES, ids=repr)
def test_matmul_matches_naive_oracle_at_the_table_cap(gq, shape):
    # gq 10 is the table's cap, gq 11 above it; a right factor at density
    # 1/2 or 1 passes the density gate.  Left entries hold two terms, so
    # that the oracle's pairs stay few.
    rng = random.Random(59 + gq + 10 * shape.dim)
    denominators = (1,) if shape.dim % 2 else MIXED
    a = kernel_matrix(rng, shape, gq, 1, denominators, count=2)
    b = kernel_matrix(rng, shape, gq, 0.5, MIXED)
    assert_matmul_matches_naive(a, b)
    if shape.dim <= 2:
        b = kernel_matrix(rng, shape, gq, 1, (1,))
        assert_matmul_matches_naive(a, b)


# right entries by the parity of their terms: the table half each one walks
ENTRY_KINDS = {0: ("even", "zero", "monomial"), 1: ("odd", "zero", "monomial"),
               None: ("even", "odd", "mixed", "zero", "monomial")}


def kind_entry(rng, q, kind, want, count=None):
    """An entry of the given kind whose terms have parity want (None for
    any); a "mixed" entry holds monomials of both parities."""
    if kind == "zero":
        return GrassmannScalar.zero(q)
    if kind == "monomial":
        return kernel_entry(rng, q, want, 1, MIXED, count=1)
    parity = {"even": 0, "odd": 1, "mixed": None}[kind]
    while True:
        x = kernel_entry(rng, q, parity, 0.5, MIXED, count)
        if kind != "mixed" or not (x.is_even() or x.is_odd()):
            return x


def kinds_matrix(rng, shape, parity, q, cell_parity=None, count=None, entry_kinds=ENTRY_KINDS):
    """A matrix labelled parity whose entries cycle through every kind
    entry_kinds gives their cell: its parity class, or cell_parity's for an
    "any" label."""
    rows = []
    for i in range(shape.dim):
        row = []
        for j in range(shape.dim):
            want = _entry_parity(shape, cell_parity or parity, i, j)
            want = None if want is None else int(want == ODD)
            kinds = entry_kinds[want]
            row.append(kind_entry(rng, q, kinds[(i * shape.dim + j) % len(kinds)], want, count))
        rows.append(row)
    return SuperMatrix(shape, parity, rows)


ROW_DENS, COL_DENS = (11, 13, 17, 19), (23, 29, 31, 37)


def scaled(a):
    """a with row i divided by ROW_DENS[i] and column j by COL_DENS[j]: its
    lcm of denominators differs from the lcm of each row and each column."""
    rows = [[x * Fraction(1, ROW_DENS[i] * COL_DENS[j]) for j, x in enumerate(row)]
            for i, row in enumerate(a.rows)]
    out = SuperMatrix(a.shape, a.parity, rows)

    def lcm(xs):
        return math.lcm(*[x.den for x in xs])

    whole = lcm([x for row in out.rows for x in row])
    assert all(lcm(line) != whole for line in [*out.rows, *zip(*out.rows)])
    return out


@pytest.mark.parametrize("gq", range(4, 9))
def test_table_halves_match_naive_oracle(monkeypatch, gq):
    # the table is forced at any density: each right entry walks the half of
    # the table its own terms pick, whatever its matrix's label says
    monkeypatch.setattr(supermatrix, "_TABLE_DENSITY", {gq: 0})
    kernel = supermatrix.mul_table_into
    halves = set()

    def checked(acc, t1, right):
        table, dense2 = right
        parities = {m.bit_count() & 1 for m, c in enumerate(dense2) if c}
        want = parities.pop() if len(parities) == 1 else None
        assert table is disjoint_table(gq, want)
        halves.add(want)
        return kernel(acc, t1, right)

    monkeypatch.setattr(supermatrix, "mul_table_into", checked)
    rng = random.Random(67 + gq)
    cases = [(Queer(2), ANY, None), (Queer(3), ANY, None),
             (Standard(1, 1), EVEN, None), (Standard(1, 1), ODD, None),
             (Standard(2, 2), EVEN, None), (Standard(2, 2), ODD, None),
             # "any" labels over entries of one parity each
             (Standard(2, 2), ANY, ODD), (Standard(1, 1), ANY, EVEN)]
    # last, Q(3) with rows and columns over distinct denominators
    for k, (shape, parity, cell_parity) in enumerate(cases + [(Queer(3), ANY, None)]):
        a = kinds_matrix(rng, shape, parity, gq, cell_parity, count=2)
        b = kinds_matrix(rng, shape, parity, gq, cell_parity)
        if k == len(cases):
            a, b = scaled(a), scaled(b)
        want = naive_matmul(a, b)
        got = a @ b
        diagonal = a._product(b, diagonal=True)
        for i in range(shape.dim):
            assert diagonal[i] == want[i][i], (shape, parity, i)
            for j in range(shape.dim):
                assert got.rows[i][j] == want[i][j], (shape, parity, i, j)
                assert_ints_stored_as_int(got.rows[i][j])
    assert halves == {0, 1, None}


# dense left entries by the parity of their cell: the halves each one walks
LEFT_KINDS = {0: ("even", "zero"), 1: ("odd", "zero"), None: ("even", "odd", "mixed", "zero")}


@pytest.mark.parametrize("gq", range(5, 11))
def test_left_walk_matches_naive_oracle(monkeypatch, gq):
    # dense left factors over sparse right ones: the gate takes the left
    # walk, the table kernel with the factors' roles swapped, and each left
    # entry walks the left table its own terms pick
    kernel = supermatrix.mul_table_into
    halves, swaps = set(), []

    def checked(acc, t1, dense):
        table, dense1 = dense
        assert len(t1) <= 2  # a right entry's terms walk a left entry
        parities = {m.bit_count() & 1 for m, c in enumerate(dense1) if c}
        want = parities.pop() if len(parities) == 1 else None
        assert table is grassmann.left_table(gq, want)
        halves.add(want)
        swaps.append(want != 0 and any(m.bit_count() & 1 for m in t1))
        return kernel(acc, t1, dense)

    monkeypatch.setattr(supermatrix, "mul_table_into", checked)
    rng = random.Random(71 + gq)
    if gq <= 8:
        cases = [(Queer(2), ANY), (Queer(3), ANY), (Standard(1, 1), EVEN),
                 (Standard(1, 1), ODD), (Standard(2, 2), EVEN), (Standard(2, 2), ODD)]
    else:  # the gate's top generator counts, on small shapes
        cases = [(Queer(2), ANY), (Standard(1, 1), EVEN), (Standard(1, 1), ODD),
                 (Standard(2, 2), ODD)]
    # last, Q(2) with rows and columns over distinct denominators
    for k, (shape, parity) in enumerate(cases + [(Queer(2), ANY)]):
        # each nonzero left entry holds 3/8 of the 2**gq monomials
        a = kinds_matrix(rng, shape, parity, gq, count=3 << gq - 3, entry_kinds=LEFT_KINDS)
        b = kinds_matrix(rng, shape, parity, gq, count=2)
        if k == len(cases):
            a, b = scaled(a), scaled(b)
        want = naive_matmul(a, b)
        calls = len(swaps)
        got = a @ b
        diagonal = a._product(b, diagonal=True)
        assert len(swaps) > calls, (shape, parity)
        for i in range(shape.dim):
            assert diagonal[i] == want[i][i], (shape, parity, i)
            for j in range(shape.dim):
                assert got.rows[i][j] == want[i][j], (shape, parity, i, j)
                assert_ints_stored_as_int(got.rows[i][j])
    assert halves == {0, 1, None}
    assert any(swaps)  # odd left halves met odd right terms


def first_terms(q, count):
    return GrassmannScalar(q, {m: m + 1 for m in range(count)})


def gate_calls(monkeypatch, gq, left, right):
    """The calls each kernel gets in the product of two queer matrices
    whose entries hold the first k monomials, k from the grids left and right."""
    calls = {"pair": 0, "table": 0, "left": 0}
    shape = Queer(len(right))
    a = SuperMatrix(shape, ANY, [[first_terms(gq, k) for k in row] for row in left])
    b = SuperMatrix(shape, ANY, [[first_terms(gq, k) for k in row] for row in right])
    # the entries are integral, so the kernels get each entry's own `num`:
    # a table call whose term dict is a right entry's is the left walk
    right_terms = {id(y.num) for row in b.rows for y in row}
    pair, table = supermatrix.mul_terms_into, supermatrix.mul_table_into

    def counted_pair(*args):
        calls["pair"] += 1
        return pair(*args)

    def counted_table(acc, t1, dense):
        calls["left" if id(t1) in right_terms else "table"] += 1
        return table(acc, t1, dense)

    monkeypatch.setattr(supermatrix, "mul_terms_into", counted_pair)
    monkeypatch.setattr(supermatrix, "mul_table_into", counted_table)
    assert a @ b == SuperMatrix(shape, ANY, naive_matmul(a, b))
    return calls


@pytest.mark.parametrize("gq, right, kernel", [
    (3, [[8]], "pair"),  # full, but below the floor
    (4, [[4]], "table"),  # 2**4 / 4 terms: on the gq 4 cut
    (4, [[3]], "pair"),
    (4, [[16, 0], [0, 0]], "table"),  # the gate reads the average entry: 4 terms
    (4, [[4, 4], [4, 3]], "pair"),  # 3.75 terms on average
    (5, [[4]], "table"),  # 2**5 / 8 terms: on the cut of gq 5..8
    (5, [[3]], "pair"),
    (10, [[64]], "table"),  # 2**10 / 16 terms: on the cut of gq 9 and 10
    (10, [[63]], "pair"),
    (11, [[2048]], "pair"),  # full, but above the cap
    (8, [[32]], "table"),
    (8, [[31]], "pair"),
    (9, [[32]], "table"),
    (9, [[31]], "pair"),
])
def test_gate_picks_the_kernel(monkeypatch, gq, right, kernel):
    calls = gate_calls(monkeypatch, gq, [[1] * len(right)] * len(right), right)
    assert calls[kernel] > 0 and sum(calls.values()) == calls[kernel], calls


@pytest.mark.parametrize("gq, left, right, kernel", [
    (4, [[3]], [[1]], "pair"),  # below the gq 4 cut
    (5, [[4]], [[1]], "left"),  # 2**5 / 8 terms: on the cut of gq 5..8
    (5, [[3]], [[1]], "pair"),
    (5, [[16, 0], [0, 0]], [[1, 1], [1, 1]], "left"),  # the gate reads the average entry
    (5, [[4, 4], [4, 3]], [[1, 1], [1, 1]], "pair"),
    (5, [[4]], [[32]], "table"),  # both pass: the right factor holds more terms
    (10, [[64]], [[1]], "left"),  # 2**10 / 16 terms: on the cut of gq 9 and 10
    (10, [[63]], [[1]], "pair"),
    (10, [[64]], [[64]], "table"),  # a tie takes the right walk
    (11, [[2048]], [[1]], "pair"),  # full, but above the cap
    (4, [[4]], [[1]], "left"),  # 2**4 / 4 terms: on the gq 4 cut, with no floor
    (5, [[32]], [[4]], "left"),  # both pass: the left factor holds more terms
    (5, [[4]], [[4]], "table"),  # a tie on the cut
    (4, [[8, 8], [8, 8]], [[8, 8], [8, 7]], "left"),  # one term more on the left
])
def test_gate_picks_the_left_walk(monkeypatch, gq, left, right, kernel):
    calls = gate_calls(monkeypatch, gq, left, right)
    assert calls[kernel] > 0 and sum(calls.values()) == calls[kernel], calls


def test_scalar_products_stay_on_the_pair_kernel(monkeypatch):
    calls = []
    kernel = grassmann.mul_terms_into
    monkeypatch.setattr(grassmann, "mul_terms_into",
                        lambda *args: calls.append("pair") or kernel(*args))
    monkeypatch.setattr(supermatrix, "mul_table_into",
                        lambda *args: calls.append("table"))
    x = first_terms(5, 32)
    assert x * x == naive_mul(x, x)
    assert calls == ["pair"]


def test_geometric_sum_starts_its_powers_at_x(monkeypatch):
    q = 4
    e = [GrassmannScalar.generator(q, i) for i in range(1, q + 1)]
    one = GrassmannScalar.one(q)
    x = e[0] * e[1] + e[2] * e[3]  # x^2 = 2 e1e2e3e4, x^3 = 0
    x2 = x * x
    real = GrassmannScalar.__mul__
    calls = []

    def counting(self, other):
        calls.append(other)
        return real(self, other)

    monkeypatch.setattr(GrassmannScalar, "__mul__", counting)
    # order k takes k - 1 products at most, and none past the first zero power
    for order, want, products in ((0, one, 0), (1, one + x, 0), (2, one + x + x2, 1),
                                  (5, one + x + x2, 2)):
        calls.clear()
        got = grassmann.geometric_sum(one, x, order)
        assert (got, len(calls)) == (want, products)
    assert real(one - x, got) == one
    calls.clear()
    assert grassmann.geometric_sum(one, GrassmannScalar.zero(q), 3) == one
    assert calls == []


def test_merge_sign_small_cases():
    # xi2 * xi1 picks up one transposition
    assert merge_sign(0b10, 0b01) == -1
    assert merge_sign(0b01, 0b10) == 1
    # xi3 xi4 past xi1 xi2: four crossings, even
    assert merge_sign(0b1100, 0b0011) == 1


def test_body_is_ring_homomorphism():
    rng = random.Random(5)
    for _ in range(200):
        q = rng.randint(1, 6)
        x = random_scalar(rng, q)
        y = random_scalar(rng, q)
        assert (x * y).body() == x.body() * y.body()
        assert (x + y).body() == x.body() + y.body()


def test_body_examples():
    q = 2
    x = GrassmannScalar.rational(q, Fraction(3, 2)) + GrassmannScalar.generator(q, 1)
    assert x.body() == Fraction(3, 2)
    assert GrassmannScalar.monomial(q, [1, 2]).body() == 0


def test_parity_split():
    q = 2
    x1 = GrassmannScalar.generator(q, 1)
    m = GrassmannScalar.monomial(q, [1, 2])
    x = 2 + x1 + m
    even, odd = x.parity_split()
    assert even == 2 + m
    assert odd == x1
    assert even + odd == x
    r = GrassmannScalar.rational(q, 5)
    assert r.parity_split() == (r, GrassmannScalar.zero(q))


def test_odd_square_is_even_with_zero_body():
    rng = random.Random(7)
    for _ in range(100):
        q = rng.randint(1, 6)
        x = random_scalar(rng, q).odd_part()
        sq = x * x
        even, odd = sq.parity_split()
        assert odd.is_zero() and even == sq
        assert sq.body() == 0


def test_supercommutativity_on_homogeneous_parts():
    rng = random.Random(13)
    for _ in range(200):
        q = rng.randint(1, 6)
        x = random_scalar(rng, q)
        y = random_scalar(rng, q)
        for xp in x.parity_split():
            for yp in y.parity_split():
                sign = -1 if xp.is_odd() and yp.is_odd() and xp and yp else 1
                assert xp * yp == yp * xp * sign


def test_soul_nilpotency():
    rng = random.Random(17)
    for _ in range(60):
        q = rng.randint(1, 5)
        s = random_scalar(rng, q).soul()
        assert (s ** (q + 1)).is_zero()


def test_invert_examples():
    q = 2
    m = GrassmannScalar.monomial(q, [1, 2])
    assert (1 + m).invert() == 1 - m
    assert GrassmannScalar.rational(q, 2).invert() == Fraction(1, 2)


def test_invert_multiplies_back():
    rng = random.Random(23)
    count = 0
    while count < 150:
        q = rng.randint(1, 6)
        x = random_scalar(rng, q)
        if x.body() == 0:
            x = x + rng.randint(1, 5)
        inv = x.invert()
        assert x * inv == 1
        assert inv * x == 1
        count += 1


def test_invert_zero_body_raises():
    with pytest.raises(ZeroBody):
        GrassmannScalar.generator(2, 1).invert()


def test_division():
    e1 = GrassmannScalar.generator(2, 1)
    assert (3 + e1) / (2 + e1) == Fraction(3, 2) - Fraction(1, 4) * e1
    with pytest.raises(ZeroDivisionError):
        e1 / 0


def test_mismatched_generator_counts():
    with pytest.raises(GeneratorCountMismatch):
        GrassmannScalar.one(2) * GrassmannScalar.one(3)
    with pytest.raises(GeneratorCountMismatch):
        GrassmannScalar.one(2) + GrassmannScalar.one(3)


def test_float_coefficients_rejected():
    # only a plain int or a Fraction is an exact coefficient
    for coeff in (0.5, 1j, "x", None, True):
        with pytest.raises(ValidationError):
            GrassmannScalar(2, {0: coeff})
        with pytest.raises(ValidationError):
            SuperPolynomial(1, {((1,), 0): coeff})


def test_generator_cap():
    from superinv.grassmann import generator_cap, set_generator_cap

    assert generator_cap() == 16
    with pytest.raises(ValidationError):
        GrassmannScalar.zero(17)
    set_generator_cap(20)
    try:
        GrassmannScalar.zero(18)
    finally:
        set_generator_cap(16)


def test_serialization_round_trip_exact():
    rng = random.Random(31)
    for _ in range(100):
        q = rng.randint(0, 6)
        x = random_scalar(rng, q) if q else GrassmannScalar.rational(0, Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        obj = json.loads(json.dumps(x.to_obj()))
        assert GrassmannScalar.from_obj(obj) == x


def test_serialization_rejects_a_repeated_monomial():
    obj = {"q": 2, "terms": [{"idx": [1], "coeff": "1"}, {"idx": [1], "coeff": "2"}]}
    with pytest.raises(ValidationError, match=r"duplicate monomial \[1\]"):
        GrassmannScalar.from_obj(obj)


def test_serialization_rejects_bad_input():
    with pytest.raises(ValidationError):
        GrassmannScalar.from_obj({"q": 2, "terms": [{"idx": [2, 1], "coeff": "1"}]})
    with pytest.raises(ValidationError):
        GrassmannScalar.from_obj({"q": 2, "terms": [{"idx": [1], "coeff": "0.5"}]})
    with pytest.raises(ValidationError):
        GrassmannScalar.from_obj({"q": 2, "terms": [{"idx": [1], "coeff": "0"}]})
    with pytest.raises(ValidationError):
        GrassmannScalar.from_obj({"q": 2, "terms": [{"idx": [3], "coeff": "1"}]})
    # a dict or a string is iterable but is not an index list
    for idx in ({}, ""):
        with pytest.raises(ValidationError, match="'idx' must be a list"):
            GrassmannScalar.from_obj({"q": 2, "terms": [{"idx": idx, "coeff": "1"}]})


def test_parse_coeff_matches_fraction_parsing():
    rng = random.Random(27)
    corpus = ["+7", "-0", "007", "4/2", "-6/4", "+0/5", "12/8", "-1/1", "10", "-9"]
    for _ in range(40):
        num = "".join(rng.choice("0123456789") for _ in range(rng.randint(1, 60)))
        den = rng.choice("123456789") + "".join(
            rng.choice("0123456789") for _ in range(rng.randint(0, 40)))
        sign = rng.choice(["", "+", "-"])
        corpus += [sign + num, sign + num + "/" + den]
    for text in corpus:
        want = grassmann._norm(Fraction(text))
        got = grassmann.parse_coeff(text)
        assert got == want and type(got) is type(want), text


def test_parse_coeff_grammar_is_ascii_and_whole():
    # Fraction() and int() take padding, underscores and other scripts' digits
    for text in ("2\n", "\u0663", "1/2\n", " 2", "2 ", "1_000", "1/0", "1/02", "+-1", "", "/2"):
        with pytest.raises(ValidationError, match="decimal-free rational"):
            grassmann.parse_coeff(text)
    for text in ("7" * 5000, "1/" + "7" * 5000):
        with pytest.raises(ValidationError, match="too many digits"):
            grassmann.parse_coeff(text)


def test_from_obj_checks_the_cap_before_reading_terms():
    # the index 10**8 would be a 12.5 MB mask per term
    q = 10 ** 8
    obj = {"q": q, "terms": [{"idx": [q], "coeff": "1"}, {"idx": [q - 1], "coeff": "1"}]}
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="exceeds the cap"):
            GrassmannScalar.from_obj(obj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_rational_takes_only_exact_coefficients():
    assert GrassmannScalar.rational(2, Fraction(6, 2)).terms == {0: 3}
    assert type(GrassmannScalar.rational(2, Fraction(6, 2)).terms[0]) is int
    for value in (True, False, "3/2", "2", 1.5, None):
        with pytest.raises(ValidationError):
            GrassmannScalar.rational(2, value)


def test_polynomial_constants_take_only_exact_coefficients():
    assert SuperPolynomial.constant(1, Fraction(4, 2)).terms == {((0,), 0): 2}
    for value in (True, "3/2", "1", 0.5):
        with pytest.raises(ValidationError):
            SuperPolynomial.constant(1, value)
        with pytest.raises(ValidationError):
            TTauExpression.constant(1, 2, value)


def test_symbols_check_their_range():
    assert TTauExpression.odd_symbol(1, 2, 2) == TTauExpression.monomial(1, 2, (0, 0), 0b10)
    assert TTauExpression.even_symbol(1, 2, 2) == TTauExpression.monomial(1, 2, (0, 1), 0)
    for k in (0, 3, 5, -1, True, "1"):
        with pytest.raises(ValidationError):
            TTauExpression.odd_symbol(1, 2, k)
        with pytest.raises(ValidationError):
            TTauExpression.even_symbol(1, 2, k)
    for i in (0, 2, True):
        with pytest.raises(ValidationError):
            SuperPolynomial.even_var(1, i)
        with pytest.raises(ValidationError):
            SuperPolynomial.odd_var(1, i)


_X = GrassmannScalar.generator(2, 1)


@pytest.mark.parametrize("call", [
    lambda flag: _X * flag,
    lambda flag: flag * _X,
    lambda flag: _X / flag,
    lambda flag: SuperPolynomial.even_var(1, 1) * flag,
    lambda flag: flag * SuperPolynomial.even_var(1, 1),
    lambda flag: SuperMatrix.identity(Queer(1), 2) * flag,
    lambda flag: flag * SuperMatrix.identity(Queer(1), 2),
], ids=["scalar-mul", "scalar-rmul", "scalar-truediv", "poly-mul", "poly-rmul",
        "matrix-mul", "matrix-rmul"])
def test_scalar_factors_reject_bools(call):
    # the same rule as `x + True`: a bool is not an exact coefficient
    for flag in (True, False):
        with pytest.raises(ValidationError):
            call(flag)
    assert call(1) == call(Fraction(2, 2))


@pytest.mark.parametrize("one", [
    GrassmannScalar.one(2),
    SuperPolynomial.one(1),
    TTauExpression.constant(1, 2, 1),
], ids=["scalar", "poly", "expression"])
def test_bools_never_equal_ring_elements(one):
    # `==` takes exact coefficients only, so a bool compares by identity
    zero, half = one * 0, one * Fraction(1, 2)
    for x in (one, zero, half):
        for flag in (True, False):
            assert not x == flag and x != flag
            assert not flag == x and flag != x
    assert one == 1 and 1 == one and one != 0
    assert zero == 0 and 0 == zero and zero != 1
    assert half == Fraction(1, 2) and Fraction(1, 2) == half and half != 1


def test_scale_multiplies_by_the_numerator_and_divides_once():
    # integer and Fraction terms, scaled by Fractions, zero and an int
    x = GrassmannScalar(3, {0: 4, 0b001: Fraction(2, 3), 0b011: -3, 0b111: Fraction(-5, 2)})
    p = SuperPolynomial(2, {((1, 0), 0): 6, ((0, 2), 1): Fraction(3, 4), ((0, 0), 3): -1})
    for element in (x, p):
        for c in (Fraction(3, 2), -Fraction(1, 3), 0, Fraction(0), 7, -2):
            got = element._scale(c)
            assert type(got) is type(element)
            assert got.terms == {k: v * c for k, v in element.terms.items() if v * c != 0}
            for v in got.terms.values():
                assert type(v) is (int if v.denominator == 1 else Fraction), (c, v)
    assert x._scale(Fraction(3, 2)).terms == {0: 6, 0b001: 1, 0b011: Fraction(-9, 2),
                                              0b111: Fraction(-15, 4)}
    assert p._scale(-Fraction(1, 3)).terms == {((1, 0), 0): -2, ((0, 2), 1): Fraction(-1, 4),
                                               ((0, 0), 3): Fraction(1, 3)}
