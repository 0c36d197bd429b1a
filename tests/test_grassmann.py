import json
import random
from fractions import Fraction

import pytest

from superinv import grassmann, supermatrix
from superinv.errors import GeneratorCountMismatch, ValidationError, ZeroBody
from superinv.grassmann import (
    GrassmannScalar,
    below_parity,
    disjoint_table,
    mask_to_indices,
    merge_sign,
)
from superinv.supermatrix import ANY, ODD, Queer, Standard, SuperMatrix
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
        table = disjoint_table(q)
        assert len(table) == 1 << q
        assert sum(len(row) for row in table) == 3 ** q
        for m1, row in enumerate(table):
            assert sorted(m2 for m2, _m, _s in row) == [m2 for m2 in range(1 << q) if not m1 & m2]
            for m2, m, sign in row:
                assert m == m1 | m2 and sign == merge_sign(m1, m2)


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


def first_terms(q, count):
    return GrassmannScalar(q, {m: m + 1 for m in range(count)})


@pytest.mark.parametrize("gq, right, kernel", [
    (3, [[8]], "pair"),  # full, but below the floor
    (4, [[4]], "table"),  # 2**4 / 4 terms: on the gq 4 cut
    (4, [[3]], "pair"),
    (4, [[16, 0], [0, 0]], "table"),  # the gate reads the average entry: 4 terms
    (4, [[4, 4], [4, 3]], "pair"),  # 3.75 terms on average
    (5, [[4]], "table"),  # 2**5 / 8 terms: on the cut of gq 5..10
    (5, [[3]], "pair"),
    (10, [[128]], "table"),
    (10, [[127]], "pair"),
    (11, [[2048]], "pair"),  # full, but above the cap
])
def test_gate_picks_the_kernel(monkeypatch, gq, right, kernel):
    calls = {"pair": 0, "table": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(supermatrix, "mul_terms_into",
                        counted("pair", supermatrix.mul_terms_into))
    monkeypatch.setattr(supermatrix, "mul_table_into",
                        counted("table", supermatrix.mul_table_into))
    shape = Queer(len(right))
    a = SuperMatrix(shape, ANY, [[first_terms(gq, 1)] * shape.n] * shape.n)
    b = SuperMatrix(shape, ANY, [[first_terms(gq, k) for k in row] for row in right])
    a @ b
    other = "table" if kernel == "pair" else "pair"
    assert calls[kernel] > 0 and calls[other] == 0, calls


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
