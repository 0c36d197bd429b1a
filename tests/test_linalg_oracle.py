"""Differential tests of charpoly, rational_roots, inverse, nullspace and solve_general against sympy.

sympy shares no code with superinv; the tests are skipped when it is absent.
"""

import random
from fractions import Fraction

import pytest

from superinv import TTauExpression, linalg
from superinv.invariants import _condition_rows
from superinv.sympoly import _ttau_monomials, coefficient_matrix

from expansion_oracle import residual_rows

sympy = pytest.importorskip("sympy")

X = sympy.Symbol("x")


def to_fraction(c):
    c = sympy.Rational(c)
    return Fraction(int(c.p), int(c.q))


def to_sympy_poly(coeffs):
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)],
                      X, domain="QQ")


def oracle_rational_roots(coeffs):
    """(sorted [(root, mult)], residual) from sympy's factorization over QQ."""
    poly = to_sympy_poly(coeffs)
    roots = []
    linear = sympy.Poly(1, X, domain="QQ")
    for factor, mult in poly.factor_list()[1]:
        if factor.degree() == 1:
            a, b = factor.all_coeffs()
            roots.append((to_fraction(-b / a), mult))
            linear *= factor.monic() ** mult
    cofactor = poly.exquo(linear)
    if cofactor.degree() == 0:
        return sorted(roots), None
    return sorted(roots), [to_fraction(c) for c in reversed(cofactor.all_coeffs())]


def poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def planted(roots, lead, cofactor=None):
    coeffs = [Fraction(lead)]
    for r in roots:
        coeffs = poly_mul(coeffs, [-r, Fraction(1)])
    return poly_mul(coeffs, cofactor) if cofactor else coeffs


def irreducible_quadratic(rng, size):
    # x^2 + b x + c with b^2 - 4c < 0: no real, hence no rational, roots
    b = rng.randint(-size, size)
    c = b * b // 4 + rng.randint(1, size)
    return [Fraction(c), Fraction(b), Fraction(1)]


def check(coeffs):
    assert linalg.rational_roots(coeffs) == oracle_rational_roots(coeffs)


def test_roots_times_irreducible_quadratic():
    rng = random.Random(11)
    for _ in range(40):
        roots = [Fraction(rng.randint(-20, 20), rng.randint(1, 6)) for _ in range(rng.randint(1, 3))]
        coeffs = planted(roots, rng.randint(1, 9), irreducible_quadratic(rng, 50))
        expected = oracle_rational_roots(coeffs)
        assert expected[1] is not None and len(expected[1]) == 3
        assert linalg.rational_roots(coeffs) == expected


def test_repeated_roots():
    rng = random.Random(12)
    for _ in range(40):
        distinct = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rng.randint(1, 3))]
        roots = [r for r in distinct for _ in range(rng.randint(1, 3))]
        cofactor = irreducible_quadratic(rng, 9) if rng.random() < 0.5 else None
        check(planted(roots, rng.randint(1, 5), cofactor))


def test_negative_leading_coefficient():
    rng = random.Random(13)
    for _ in range(40):
        roots = [Fraction(rng.randint(-30, 30), rng.randint(1, 5)) for _ in range(rng.randint(1, 4))]
        cofactor = irreducible_quadratic(rng, 20) if rng.random() < 0.5 else None
        coeffs = planted(roots, -rng.randint(1, 7), cofactor)
        assert coeffs[-1] < 0
        check(coeffs)


def test_fractional_coefficients():
    rng = random.Random(14)
    for _ in range(60):
        degree = rng.randint(1, 5)
        coeffs = [Fraction(rng.randint(-12, 12), rng.randint(1, 7)) for _ in range(degree + 1)]
        if coeffs[-1] == 0:
            coeffs[-1] = Fraction(1, 3)
        check(coeffs)
    for _ in range(30):
        roots = [Fraction(rng.randint(-9, 9), rng.randint(2, 9)) for _ in range(rng.randint(1, 3))]
        check(planted(roots, Fraction(rng.randint(1, 9), rng.randint(2, 9))))


def test_entries_near_1e9():
    rng = random.Random(15)
    big = 10**9
    for _ in range(20):
        roots = [Fraction(big + rng.randint(-999, 999), rng.randint(1, 3))
                 for _ in range(rng.randint(1, 3))]
        cofactor = irreducible_quadratic(rng, big) if rng.random() < 0.5 else None
        check(planted(roots, rng.choice([-1, 1]) * rng.randint(1, 5), cofactor))
    for _ in range(10):
        n = rng.randint(2, 3)
        a = [[Fraction(big + rng.randint(-99, 99)) for _ in range(n)] for _ in range(n)]
        check(linalg.charpoly(a))


def test_charpoly_against_sympy():
    rng = random.Random(16)
    for trial in range(40):
        n = rng.randint(1, 5)
        size = 10**9 if trial % 4 == 0 else 9
        a = [[Fraction(rng.randint(-size, size), rng.randint(1, 5)) for _ in range(n)]
             for _ in range(n)]
        expected = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                                 for row in a]).charpoly(X).all_coeffs()
        assert linalg.charpoly(a) == [to_fraction(c) for c in reversed(expected)]


def test_spectra_of_random_matrices():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(1, 4)
        a = [[Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
        check(linalg.charpoly(a))


def to_sympy_matrix(a):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in a])


def to_fractions(m):
    return [[to_fraction(x) for x in m.row(i)] for i in range(m.rows)]


def random_rational_matrix(rng, rows, cols, rank):
    """A rows x cols matrix of the given rank: a product of two random factors."""
    left = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(rank)] for _ in range(rows)]
    right = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(cols)] for _ in range(rank)]
    return linalg.matmul(left, right) if rank else [[Fraction(0)] * cols for _ in range(rows)]


def test_inverse_against_sympy():
    rng = random.Random(18)
    singular = 0
    for trial in range(60):
        n = rng.randint(1, 5)
        rank = n if trial % 3 else rng.randint(0, n - 1)
        a = random_rational_matrix(rng, n, n, rank)
        m = to_sympy_matrix(a)
        inv, got_rank = linalg.inverse_with_rank(a)
        assert got_rank == m.rank()
        if m.det() == 0:
            singular += 1
            assert inv is None and linalg.inverse(a) is None
        else:
            assert inv == to_fractions(m.inv())
            assert linalg.inverse(a) == inv
    assert singular >= 20


def check_kernel(a):
    """The nullspace basis spans the kernel sympy finds, with one vector per free column."""
    m = to_sympy_matrix(a)
    basis = linalg.nullspace(a)
    expected = m.nullspace()
    assert len(basis) == len(expected) == m.cols - m.rank()
    if basis:
        ours = sympy.Matrix([[sympy.Rational(x) for x in v] for v in basis])
        assert (m * ours.T).is_zero_matrix
        assert ours.rref()[0] == sympy.Matrix.hstack(*expected).T.rref()[0]


def test_nullspace_against_sympy():
    rng = random.Random(19)
    for _ in range(60):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        check_kernel(random_rational_matrix(rng, rows, cols, rng.randint(0, min(rows, cols))))


def test_corpus_kernel_against_sympy():
    # the balance-condition matrix behind balanced_corpus at n = 3, in the
    # symbols, and the expansion route's first-residual matrix
    n = 3
    monos = [key for weight in range(1, min(2 * n, n + 2) + 1) for key in _ttau_monomials(n, weight)]
    pullbacks = [TTauExpression.monomial(n, n, e, m).expand(even_basis="s") for e, m in monos]
    for a, shape in ((_condition_rows(n, monos, 1, "s"), (112, 44)),
                     (residual_rows(pullbacks, 1), (81, 44))):
        assert (len(a), len(a[0])) == shape
        assert linalg.nullspace(a)
        check_kernel(a)


def check_solve(a, b):
    """solve_general against sympy: linsolve's solution with every free symbol at 0,
    and the non-pivot columns of sympy's rref as the free columns."""
    x, free = linalg.solve_general(a, b)
    cols = len(a[0])
    syms = sympy.symbols("x0:%d" % cols)
    m = to_sympy_matrix(a)
    solutions = sympy.linsolve((m, sympy.Matrix([sympy.Rational(v) for v in b])), syms)
    if solutions == sympy.EmptySet:
        assert (x, free) == (None, None)
        return None
    (params,) = solutions
    assert x == [to_fraction(e.subs({s: 0 for s in syms})) for e in params]
    assert free == [j for j in range(cols) if j not in m.rref()[1]]
    return free


def test_solve_general_against_sympy():
    rng = random.Random(20)
    rewrite = coefficient_matrix([TTauExpression.monomial(3, 3, *key).expand().terms
                                  for key in _ttau_monomials(3, 6)])
    systems = [rewrite]
    for _ in range(12):  # tall, sparse, int
        rows, cols = rng.randint(20, 60), rng.randint(4, 12)
        systems.append([[rng.randint(-20, 20) if rng.random() < 0.15 else 0 for _ in range(cols)]
                        for _ in range(rows)])
    kinds = {"unique": 0, "inconsistent": 0, "underdetermined": 0}
    for a in systems:
        a = [row + [row[0] - 3 * row[1]] for row in a] if rng.random() < 0.5 else a
        b = linalg.matvec(a, [rng.randint(-9, 9) for _ in a[0]])
        bad = list(b)
        bad[rng.randrange(len(b))] += rng.choice([1, Fraction(1, 2)])
        for rhs in (b, bad):
            free = check_solve(a, rhs)
            kinds["inconsistent" if free is None else "underdetermined" if free else "unique"] += 1
    assert min(kinds.values()) >= 3, kinds
