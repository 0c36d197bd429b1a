import json
import random
from fractions import Fraction

import pytest

from superinv.errors import GeneratorCountMismatch, ValidationError, ZeroBody
from superinv.grassmann import GrassmannScalar, mask_to_indices, merge_sign
from superinv.sympoly import SuperPolynomial


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
