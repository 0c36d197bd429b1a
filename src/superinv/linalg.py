"""Exact linear algebra over the rationals.

Matrices are lists of row lists with int or Fraction entries.  Products
(`matmul`, `matvec`) take integer dot products: each row of the left factor
and each column of the right is scaled to integers over the lcm of its
denominators, and each entry is divided once, an integral one coming back as
an int.  Elimination is one sparse, fraction-free Gauss-Jordan on integer
rows (`_rref`, behind `rank`, `inverse_with_rank`, `solve_general` and
`nullspace`), the characteristic polynomial comes from the Faddeev-LeVerrier
recursion, and rational roots from Sturm-sequence bisection on integer
polynomials; no floating point anywhere.

`solve_general` has no caller inside the library since rewriting reads its
coefficients off orbits instead of solving for them.  It stays public: the
tests solve the former rewrite systems with it as an oracle, and perfbench's
tracer wraps it by name.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

from .errors import ShapeMismatch


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def copy_rows(m):
    return [list(row) for row in m]


def transpose(m):
    return [list(col) for col in zip(*m)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _integer_vector(v):
    """(d, w) with d the lcm of the entries' denominators and w = d * v in ints."""
    if all(type(x) is int for x in v):
        return 1, v
    d = math.lcm(*[x.denominator for x in v])
    return d, [x.numerator * (d // x.denominator) for x in v]


def _products(rows, cols):
    """Every row times every column, all of one length, over integer numerators."""
    cols = [_integer_vector(col) for col in cols]
    out = []
    for d_row, row in map(_integer_vector, rows):
        out_row = []
        for d_col, col in cols:
            num, den = sum(map(mul, row, col)), d_row * d_col
            if den != 1:
                whole, rest = divmod(num, den)
                num = Fraction(num, den) if rest else whole
            out_row.append(num)
        out.append(out_row)
    return out


def _check_rows(m, width, what):
    if any(len(row) != width for row in m):
        raise ShapeMismatch("%s needs rows of length %d" % (what, width))


def matmul(a, b):
    """a @ b for an m x k list of rows a and a k x p list of rows b."""
    _check_rows(a, len(b), "matmul's left factor")
    _check_rows(b, len(b[0]) if b else 0, "matmul's right factor")
    return _products(a, transpose(b))


def matvec(a, v):
    """a @ v for an m x k list of rows a and a length-k list v."""
    _check_rows(a, len(v), "matvec's matrix")
    return [row[0] for row in _products(a, [v])]


def trace(a):
    return sum(a[i][i] for i in range(len(a)))


def _rref(m, ncols=None):
    """In-place reduced row echelon form; returns the pivot column list.

    Pivots are searched in the first ncols columns (all by default), in the
    first row that is non-zero there.  The elimination is sparse and
    fraction-free: each row is first scaled to integers by the lcm of its
    denominators, which leaves the RREF unchanged.  Clearing column c with
    the pivot row p (pivot a) turns each row whose entry b there is non-zero
    into (a/g)*row - (b/g)*p, g = gcd(a, b), visiting only p's non-zero
    columns, and divides it by its content.  At the end each pivot row
    becomes Fraction(x, a) entrywise, the exact RREF; the rows past the rank
    stay integer multiples of theirs, which is all that callers testing them
    against zero need.
    """
    rows = len(m)
    if ncols is None:
        ncols = len(m[0]) if rows else 0
    for i, row in enumerate(m):
        m[i] = _int_primitive(_integer_vector(row)[1])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        prow = m[r]
        a = prow[c]
        support = [(j, y) for j, y in enumerate(prow) if y]
        for i in [i for i, row in enumerate(m) if row[c] and i != r]:
            row = m[i]
            g = math.gcd(a, row[c])
            f = row[c] // g
            if g != a:
                row = [x * (a // g) for x in row]
            for j, y in support:
                row[j] -= f * y
            m[i] = _int_primitive(row)
        pivots.append(c)
        r += 1
        if r == rows:
            break
    zero = Fraction(0)
    for i, c in enumerate(pivots):
        a = m[i][c]
        m[i] = [Fraction(x, a) if x else zero for x in m[i]]
    return pivots


def rank(a):
    if not a:
        return 0
    m = copy_rows(a)
    return len(_rref(m))


def inverse_with_rank(a):
    """Return (inverse, rank); inverse is None when a is singular."""
    n = len(a)
    m = [list(row) + e for row, e in zip(a, identity(n))]
    pivots = _rref(m, ncols=n)
    if len(pivots) < n:
        return None, len(pivots)
    return [row[n:] for row in m], n


def inverse(a):
    inv, _ = inverse_with_rank(a)
    return inv


def solve_general(a, b):
    """Solve a @ x = b exactly.

    Returns (solution, free_columns) or (None, None) when inconsistent.  Free
    variables, if any, are set to zero in the returned solution.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    m = [list(ra) + [bb] for ra, bb in zip(a, b)]
    pivots = _rref(m, ncols=cols)
    pivot_set = set(pivots)
    for i in range(len(pivots), rows):
        if m[i][cols] != 0:
            return None, None
    x = [0] * cols
    for r, c in enumerate(pivots):
        x[c] = m[r][cols]
    free = [c for c in range(cols) if c not in pivot_set]
    return x, free


def nullspace(a):
    """Basis of the right kernel as a list of column vectors."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    m = copy_rows(a)
    pivots = _rref(m)
    pivot_set = set(pivots)
    basis = []
    for c in range(cols):
        if c in pivot_set:
            continue
        v = [0] * cols
        v[c] = 1
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][c]
        basis.append(v)
    return basis


def charpoly(a):
    """Monic characteristic polynomial, ascending coefficients c0..cn.

    Faddeev-LeVerrier recursion on A M_k, from A M_1 = A: c_k is
    -tr(A M_k) / k and M_(k+1) = A M_k + c_k I; exact over the rationals.
    """
    n = len(a)
    if n == 0:
        return [1]
    descending = [Fraction(1)]
    am = copy_rows(a)
    for k in range(1, n + 1):
        descending.append(-Fraction(trace(am), k))
        if k < n:
            for i in range(n):
                am[i][i] += descending[k]
            am = matmul(a, am)
    return list(reversed(descending))


def poly_eval(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _int_primitive(p):
    """Divide an integer polynomial or matrix row by the (positive) gcd of its entries."""
    g = math.gcd(*p)
    return [c // g for c in p] if g > 1 else p


def _int_prem(a, b):
    """Positive multiple of a, reduced modulo b; ascending integer lists.

    Pseudo-division by b with its leading coefficient made positive, so the
    multiplier |lc(b)|**k is positive and signs of a are preserved.
    """
    if b[-1] < 0:
        b = [-c for c in b]
    lead, db = b[-1], len(b) - 1
    r = list(a)
    while len(r) > db:
        f, shift = r[-1], len(r) - 1 - db
        r = [c * lead for c in r]
        for i, c in enumerate(b):
            r[shift + i] -= f * c
        while r and r[-1] == 0:
            r.pop()
    return r


def _int_divide(p, a):
    """Integer quotient p / a, or None when a does not divide p over the integers."""
    r, q = list(p), [0] * (len(p) - len(a) + 1)
    for k in range(len(q) - 1, -1, -1):
        c, rem = divmod(r[k + len(a) - 1], a[-1])
        if rem:
            return None
        q[k] = c
        for i, x in enumerate(a):
            r[k + i] -= c * x
    return None if any(r) else q


def _derivative(p):
    return [i * c for i, c in enumerate(p)][1:]


def _sign_changes(chain, x):
    count, prev = 0, 0
    for p in chain:
        v = poly_eval(p, x)
        if v:
            if prev and (v < 0) != (prev < 0):
                count += 1
            prev = v
    return count


def _distinct_rational_roots(p):
    """Sorted distinct rational roots of a primitive integer polynomial, degree >= 1.

    The square-free part f = p / gcd(p, p') with leading coefficient l
    becomes the monic g(y) = l**(d-1) f(y/l), whose rational roots are
    integers.  Its Sturm chain (pseudo-remainders, each made primitive, so
    only positive factors are dropped) counts the real roots in (lo, hi] as
    V(lo) - V(hi); bisecting (-B, B] for the Cauchy bound B isolates them in
    unit intervals, and only the right end of such an interval can be an
    integer root.
    """
    a, b = p, _int_primitive(_derivative(p))
    while b:
        a, b = b, _int_primitive(_int_prem(a, b))
    f = _int_divide(p, a)  # exact: a is primitive (Gauss's lemma)
    lead, d = f[-1], len(f) - 1
    g = [c * lead ** (d - 1 - i) for i, c in enumerate(f[:-1])] + [1]
    chain = [g, _derivative(g)]
    while len(chain[-1]) > 1:
        chain.append([-c for c in _int_primitive(_int_prem(chain[-2], chain[-1]))])
    bound = 1 + max(abs(c) for c in g[:-1])
    roots = []
    stack = [(-bound, bound, _sign_changes(chain, -bound), _sign_changes(chain, bound))]
    while stack:
        lo, hi, vlo, vhi = stack.pop()
        if vlo == vhi:
            continue
        if hi - lo == 1:
            if poly_eval(g, hi) == 0:
                roots.append(Fraction(hi, lead))
            continue
        mid = (lo + hi) // 2
        vmid = _sign_changes(chain, mid)
        stack.append((lo, mid, vlo, vmid))
        stack.append((mid, hi, vmid, vhi))
    return sorted(roots)


def rational_roots(coeffs):
    """All rational roots with multiplicity, plus the non-splitting residual.

    Returns (sorted [(root, multiplicity)], residual) where residual is the
    ascending coefficient list of the rational-root-free factor, or None when
    the polynomial splits completely over the rationals.

    Integer arithmetic throughout, in time polynomial in the bit size of the
    coefficients: the distinct roots come from exact real-root isolation by
    Sturm-sequence bisection (Collins-Akritas), O(d log B) chain evaluations
    for degree d and Cauchy bound B, instead of from the divisors of the
    constant term.  Each root p/q is then divided out of the integer
    polynomial, as (q x - p), as often as it divides.
    """
    cur = [Fraction(c) for c in coeffs]
    while len(cur) > 1 and cur[-1] == 0:
        cur.pop()
    if len(cur) == 1:
        return [], None
    den, ints = _integer_vector(cur)
    content = math.gcd(*ints)
    poly = [c // content for c in ints]
    scale = Fraction(content, den)  # cur == scale * poly
    found = []
    for root in _distinct_rational_roots(poly):
        factor, mult = [-root.numerator, root.denominator], 0
        while (quot := _int_divide(poly, factor)) is not None:
            poly, mult, scale = quot, mult + 1, scale * root.denominator
        found.append((root, mult))
    return found, None if len(poly) == 1 else [scale * c for c in poly]
