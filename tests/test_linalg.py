import random
import time
from fractions import Fraction

from superinv import linalg


def frac_rows(rows):
    return [[Fraction(x) for x in row] for row in rows]


def det_by_elimination(rows):
    """Independent determinant: Gaussian elimination with partial pivoting."""
    m = [list(row) for row in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        pivot = None
        for r in range(c, n):
            if m[r][c] != 0:
                pivot = r
                break
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        inv = Fraction(1) / m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] * inv
            if f:
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det


def test_charpoly_against_determinant_oracle():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 4)
        a = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
        coeffs = linalg.charpoly(a)
        assert coeffs[-1] == 1
        for lam in range(-2, n + 2):
            shifted = [[(Fraction(lam) if i == j else Fraction(0)) - a[i][j] for j in range(n)]
                       for i in range(n)]
            assert linalg.poly_eval(coeffs, Fraction(lam)) == det_by_elimination(shifted)


def test_rational_roots_examples():
    roots, residual = linalg.rational_roots([Fraction(2), Fraction(-3), Fraction(1)])
    assert roots == [(Fraction(1), 1), (Fraction(2), 1)] and residual is None
    roots, residual = linalg.rational_roots([Fraction(-1), Fraction(0), Fraction(1)])
    assert roots == [(Fraction(-1), 1), (Fraction(1), 1)] and residual is None
    roots, residual = linalg.rational_roots([Fraction(1), Fraction(0), Fraction(1)])
    assert roots == [] and residual == [Fraction(1), Fraction(0), Fraction(1)]
    # (x - 1)(x^3 + x^2 + x + 3): the Sturm chain skips a degree, so a
    # pseudo-remainder step multiplies by an odd power of the leading coefficient
    roots, residual = linalg.rational_roots([Fraction(-3), Fraction(2), Fraction(0), Fraction(0), Fraction(1)])
    assert roots == [(Fraction(1), 1)] and residual == [Fraction(3), Fraction(1), Fraction(1), Fraction(1)]


def test_rational_roots_multiplicity_and_fractions():
    # (x - 1)^2 (2x - 1): roots 1 (twice) and 1/2
    coeffs = [Fraction(-1), Fraction(4), Fraction(-5), Fraction(2)]
    roots, residual = linalg.rational_roots(coeffs)
    assert residual is None
    assert roots == [(Fraction(1, 2), 1), (Fraction(1), 2)]
    # zero roots peel off
    roots, residual = linalg.rational_roots([Fraction(0), Fraction(0), Fraction(1)])
    assert roots == [(Fraction(0), 2)] and residual is None


def test_inverse_and_solve():
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randint(1, 4)
        a = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
        inv, rank = linalg.inverse_with_rank(a)
        if inv is None:
            assert rank < n
            continue
        assert linalg.matmul(a, inv) == linalg.identity(n)
        b = [Fraction(rng.randint(-5, 5)) for _ in range(n)]
        x, free = linalg.solve_general(a, b)
        assert free == []
        assert linalg.matvec(a, x) == b


def test_nullspace():
    a = frac_rows([[1, 2, 3], [2, 4, 6]])
    basis = linalg.nullspace(a)
    assert len(basis) == 2
    for v in basis:
        assert linalg.matvec(a, v) == [0, 0]
    assert linalg.rank(a) == 1


def test_solve_general_consistency():
    a = frac_rows([[1, 1], [2, 2]])
    x, free = linalg.solve_general(a, [Fraction(1), Fraction(2)])
    assert x is not None and free == [1]
    x, free = linalg.solve_general(a, [Fraction(1), Fraction(3)])
    assert x is None and free is None


def test_rational_roots_large_constant_term():
    # constant term about -1e18: divisor enumeration would need ~1e9 trial divisions
    a, b = 1000000007, -999999937
    start = time.perf_counter()
    roots, residual = linalg.rational_roots([Fraction(a * b), Fraction(-(a + b)), Fraction(1)])
    assert roots == [(Fraction(b), 1), (Fraction(a), 1)] and residual is None
    # a fractional root next to an irreducible quadratic with a constant near 1e18
    root = Fraction(10**9 + 9, 3)
    quad = [Fraction(10**18 + 3), Fraction(0), Fraction(1)]
    coeffs = [-root * quad[0], quad[0], -root, Fraction(1)]
    roots, residual = linalg.rational_roots([2 * c for c in coeffs])
    assert roots == [(root, 1)] and residual == [2 * c for c in quad]
    assert time.perf_counter() - start < 5
