import random
import time
from fractions import Fraction

import pytest

from superinv import ShapeMismatch, TTauExpression, linalg
from superinv.sympoly import _ttau_monomials, coefficient_matrix


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


def test_charpoly_multiplies_n_minus_one_times(monkeypatch):
    real = linalg.matmul
    calls = []

    def counting(a, b):
        calls.append(len(a))
        return real(a, b)

    monkeypatch.setattr(linalg, "matmul", counting)
    rng = random.Random(4)
    for n in range(1, 6):
        a = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
        calls.clear()
        coeffs = linalg.charpoly(a)
        assert calls == [n] * (n - 1)
        assert linalg.poly_eval(coeffs, Fraction(0)) == (-1) ** n * det_by_elimination(a)


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


def test_rational_roots_strips_zero_leading_coefficients():
    # -1 + x + 0 x^2 is the linear polynomial x - 1
    assert linalg.rational_roots([-1, 1, 0]) == ([(1, 1)], None)


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


# ----------------------------------------------------------------------
# the integer elimination against the Fraction Gauss-Jordan it replaced


def oracle_rref(m, ncols=None):
    """Pivoted Fraction Gauss-Jordan, in place: the reference for `linalg._rref`."""
    rows = len(m)
    if ncols is None:
        ncols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, rows):
            if m[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = Fraction(1, 1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return pivots


def typed(obj):
    """obj with every leaf paired with its type, so that int 0 and Fraction(0) differ."""
    if isinstance(obj, (list, tuple)):
        return [typed(x) for x in obj]
    return (type(obj), obj)


def check_rref(m, ncols=None):
    """The pivots and pivot rows equal the oracle's, types included.

    A row past the rank is only tested against zero by the callers, and it
    is left as a non-zero multiple of the oracle's row.
    """
    got, want = [list(row) for row in m], [list(row) for row in m]
    pivots = linalg._rref(got, ncols)
    assert pivots == oracle_rref(want, ncols)
    k = len(pivots)
    assert typed(got[:k]) == typed(want[:k])
    for g, w in zip(got[k:], want[k:]):
        pairs = [(x, y) for x, y in zip(g, w) if x or y]
        if pairs:
            ratio = Fraction(pairs[0][0]) / pairs[0][1]
            assert ratio and all(x == ratio * y for x, y in pairs)
    return pivots


def check_callers(monkeypatch, a, b=None):
    """rank, nullspace, solve_general and inverse_with_rank agree with the oracle.

    Values and types are compared; returns each result by function name.
    """
    calls = {"rank": lambda: linalg.rank(a), "nullspace": lambda: linalg.nullspace(a)}
    if b is not None:
        calls["solve_general"] = lambda: linalg.solve_general(a, b)
    if a and len(a) == len(a[0]):
        calls["inverse_with_rank"] = lambda: linalg.inverse_with_rank(a)
    results = {}
    for name, call in calls.items():
        results[name] = call()
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "_rref", oracle_rref)
            assert typed(results[name]) == typed(call()), name
    return results


def rewrite_system(n, degree):
    """The coefficient matrix of one rewriting solve: int entries, tall and sparse."""
    keys = _ttau_monomials(n, degree)
    return coefficient_matrix([TTauExpression.monomial(n, n, *key).expand().terms
                               for key in keys])


def test_rref_matches_oracle_on_rewrite_systems(monkeypatch):
    # 488 x 34 and 133 x 26, ~16 % and ~22 % non-zero, full column rank
    rng = random.Random(16)
    for n, degree in ((4, 6), (3, 6)):
        a = rewrite_system(n, degree)
        cols = len(a[0])
        x0 = [rng.randint(-9, 9) for _ in range(cols)]
        b = linalg.matvec(a, x0)
        bad = list(b)
        bad[rng.randrange(len(b))] += 1
        for rhs in (b, bad):
            check_rref([row + [bb] for row, bb in zip(a, rhs)], cols)
        got = check_callers(monkeypatch, a, b)
        assert got["rank"] == cols and got["nullspace"] == []
        assert got["solve_general"] == (x0, [])
        assert check_callers(monkeypatch, a, bad)["solve_general"] == (None, None)
        # three more columns, sums of earlier ones: underdetermined, three free columns
        wide = [row + [row[0] + row[5], row[3] - 2 * row[7], row[cols - 1]] for row in a]
        got = check_callers(monkeypatch, wide, b)
        x, free = got["solve_general"]
        assert len(free) == len(got["nullspace"]) == 3 and linalg.matvec(wide, x) == b


def test_rref_matches_oracle_on_mixed_entries(monkeypatch):
    rng = random.Random(17)

    def entry():
        if rng.random() < 0.3:
            return 0
        if rng.random() < 0.5:
            return rng.randint(-6, 6)
        return Fraction(rng.randint(-6, 6), rng.randint(1, 5))

    for _ in range(150):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        a = [[entry() for _ in range(cols)] for _ in range(rows)]
        if rows > 1 and rng.random() < 0.4:  # a dependent row, scaled by a Fraction
            a[-1] = [Fraction(2, 3) * x for x in a[0]]
        if rng.random() < 0.2:
            a[rng.randrange(rows)] = [0] * cols
        check_rref(a)
        for ncols in range(cols + 1):
            check_rref([row + [entry(), entry()] for row in a], ncols)
        check_callers(monkeypatch, a, [entry() for _ in range(rows)])


def test_rref_edge_cases(monkeypatch):
    for a in ([[]], [[], []], [[0]], [[0, 0, 0], [0, 0, 0]], [[Fraction(0), 0]],
              [[0, 0], [1, 2], [0, 0], [2, 4]], [[0, 3], [0, 0], [Fraction(1, 2), 0]]):
        check_rref(a)
        check_rref(a, 0)
        check_callers(monkeypatch, a, [1] * len(a))
    assert linalg._rref([]) == oracle_rref([]) == []
    assert linalg.rank([]) == 0 and linalg.nullspace([]) == []
    assert linalg.solve_general([], []) == ([], [])
    assert linalg.inverse_with_rank([]) == ([], 0)
    # a zero matrix: every column free, each kernel vector's free coordinate the int 1
    assert typed(linalg.nullspace([[0, 0]])) == typed([[1, 0], [0, 1]])
    assert linalg.solve_general([[0, 0]], [Fraction(1, 2)]) == (None, None)


def test_rref_matches_oracle_near_1e9(monkeypatch):
    rng = random.Random(18)
    big = 10**9
    for _ in range(40):
        n = rng.randint(2, 4)
        a = [[rng.randint(big - 1000, big + 1000) if rng.random() < 0.7 else
              Fraction(rng.randint(big - 1000, big + 1000), rng.randint(1, 1000))
              for _ in range(n)] for _ in range(n)]
        b = [rng.randint(-big, big) for _ in range(n)]
        inv, rank = check_callers(monkeypatch, a, b)["inverse_with_rank"]
        assert rank == n and linalg.matmul(a, inv) == linalg.identity(n)
        check_rref([row + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(a)], n)


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


# ----------------------------------------------------------------------
# products: a plain Fraction reference, and shape checks


def _reference_product(a, b):
    """a @ b in Fraction arithmetic, term by term; p = 0 when b has no rows."""
    width = len(b[0]) if b else 0
    return [[sum((Fraction(row[t]) * b[t][j] for t in range(len(b))), Fraction(0))
             for j in range(width)] for row in a]


def _assert_integral_entries_are_ints(values):
    for x in values:
        assert type(x) is int or x.denominator != 1, x


def test_matmul_and_matvec_match_a_fraction_reference():
    rng = random.Random(71)
    near_1e9 = (999999937, 1000000007, 10 ** 9)
    kinds = {
        "int": lambda: rng.randint(-9, 9),
        "mixed Fraction": lambda: rng.choice(
            [rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 12))]),
        "near 1e9 denominators": lambda: Fraction(rng.randint(-10 ** 9, 10 ** 9),
                                                  rng.choice(near_1e9)),
    }
    for name, entry in kinds.items():
        for _ in range(25):
            m, k, p = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
            a = [[entry() for _ in range(k)] for _ in range(m)]
            b = [[entry() for _ in range(p)] for _ in range(k)]
            v = [entry() for _ in range(k)]
            got = linalg.matmul(a, b)
            assert got == _reference_product(a, b), name
            _assert_integral_entries_are_ints(x for row in got for x in row)
            got = linalg.matvec(a, v)
            assert got == [row[0] for row in _reference_product(a, [[x] for x in v])], name
            _assert_integral_entries_are_ints(got)
            if name == "int":
                assert all(type(x) is int for x in got)
    # Fractions whose products are integral come back as ints
    got = linalg.matmul([[Fraction(1, 2), Fraction(2, 3)]], [[Fraction(2, 1)], [Fraction(3, 2)]])
    assert got == [[2]] and type(got[0][0]) is int
    got = linalg.matmul([[Fraction(2, 3)]], [[Fraction(3, 2)]])
    assert got == [[1]] and type(got[0][0]) is int
    assert linalg.matmul([[Fraction(1, 3)]], [[Fraction(1, 10 ** 9)]]) == [[Fraction(1, 3 * 10 ** 9)]]
    # k x 0 and 0 x k factors
    assert linalg.matmul([[], [], []], []) == [[], [], []]
    assert linalg.matmul([[1, 2]], [[], []]) == [[]]
    assert linalg.matmul([], [[1, 2], [3, 4]]) == []
    got = linalg.matvec([[], []], [])
    assert got == [0, 0] and all(type(x) is int for x in got)
    assert linalg.matvec([], [1, 2]) == []


@pytest.mark.parametrize("call", [
    lambda: linalg.matmul([[1, 2]], [[1]]),  # inner dimension 2 against 1
    lambda: linalg.matmul([[1], [2, 3]], [[1]]),  # a ragged left row
    lambda: linalg.matmul([[1]], [[1, 2], [3]]),  # a ragged right row
    lambda: linalg.matvec([[1, 2], [3, 4]], [1]),
    lambda: linalg.matvec([[1, 2], [3]], [1, 2]),
])
def test_products_reject_mismatched_shapes(call):
    with pytest.raises(ShapeMismatch) as info:
        call()
    assert info.value.exit_code == 3
