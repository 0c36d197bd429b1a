"""Eigendata extraction, semi-invariants, and invariant evaluation.

The pipeline reads the diagonal data (a_i, alpha_i) off the canonical form of
an eligible matrix, forms the signed elementary values s_1..s_n, and uses them
with the odd moments tau_1..tau_n to evaluate arbitrary balanced expressions.
`evaluate_invariants` computes s and tau once per matrix for a whole sequence
of expressions.
Any other s-solution of the moment recurrence with the same body gives the
same evaluation; that well-definedness is a tested property, not an
assumption.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from . import linalg
from .errors import (
    GeneratorCountMismatch,
    InternalError,
    NotInL,
    NotInvariant,
    ShapeMismatch,
    ValidationError,
    ZeroDiscriminant,
)
from .grassmann import GrassmannScalar, _integer_form, common_denominator, is_int
from .reduction import _eligible_spectrum, _relevant_body, diagonalize, reduce_odd
from .supermatrix import Queer, SuperMatrix, seeded_rng
from .sympoly import (
    BalancedExpression,
    TTauExpression,
    coefficient_matrix,
    elementary_from_roots,
    power_sum_odd,
    verify_recurrence,
    _balance_conditions,
    _ttau_monomials,
)


def eigendata(a):
    """The diagonal data ((a_1, alpha_1), ...) through the exact canonical reduction."""
    a.family_size()
    if isinstance(a.shape, Queer):
        return tuple(block.rows[0][0].parity_split() for _lam, block in diagonalize(a).blocks)
    return tuple((block.rows[0][1], block.rows[0][0]) for _lam, block in reduce_odd(a).blocks)


def compute_s(a):
    """Semi-invariants s_1..s_n through the spectral route; recurrence-checked."""
    pairs = eigendata(a)
    s = tuple(elementary_from_roots([x for x, _ in pairs]))
    if not verify_recurrence(a.tau_values(2 * len(pairs)), s):
        raise InternalError("spectral semi-invariants fail the recurrence")
    return s


def q2_closed_form(a):
    """Closed-form semi-invariants for a 2 x 2 queer matrix A = B + beta.

    s_1 is the trace of the even part B plus a soul correction with the
    squared-difference discriminant as denominator; s_2 follows from s_1
    through the trace identity below.  Both satisfy the odd-moment recurrence
    exactly whenever the discriminant body is nonzero.
    """
    if not (isinstance(a, SuperMatrix) and isinstance(a.shape, Queer) and a.shape.n == 2):
        raise ShapeMismatch("expected a 2 x 2 queer-shaped matrix")
    b, beta = a.queer_split()
    b11, b12 = b.rows[0]
    b21, b22 = b.rows[1]
    t11, t12 = beta.rows[0]
    t21, t22 = beta.rows[1]
    disc = (b11 - b22) * (b11 - b22) + 4 * (b12 * b21)
    if disc.body() == 0:
        raise ZeroDiscriminant("the body of (b11-b22)^2 + 4 b12 b21 vanishes")
    trace = b11 + b22
    correction = (t12 * b21 - t21 * b12) * (t22 - t11) + (b11 - b22) * (t12 * t21)
    s1 = trace + 2 * correction * disc.invert()
    det = b11 * b22 - b12 * b21
    s2 = -det - (s1 - trace) * trace * Fraction(1, 2)
    return s1, s2


def body_signed_elementary(a):
    """Bodies of the semi-invariants, straight from the body spectrum.

    For the monic characteristic polynomial sum_i c_i x^i of the relevant
    body matrix, the recurrence convention pins body(s_j) = -c_{n-j}.
    """
    n = a.family_size()
    coeffs = linalg.charpoly(_relevant_body(a))
    return [-coeffs[n - j] for j in range(1, n + 1)]


def evaluate_invariants(a, fs, s_values=None):
    """Evaluate balanced expressions on a matrix: [f(s_1..s_n, tau_1..tau_n) for f in fs].

    Every f is checked (its type, its n, then its balance) before anything is
    computed on a; s and tau_1..tau_n are then computed once for the whole
    sequence.
    Supplied s_values must be scalars over a's q that pass the recurrence and
    the body pin; any admissible choice gives the same values.
    """
    n = a.family_size()
    fs = list(fs)
    for f in fs:
        if not isinstance(f, BalancedExpression):
            raise ValidationError("expected a BalancedExpression, got %s" % type(f).__name__)
        if f.n != n:
            raise ValidationError("expression is for n=%d, matrix has n=%d" % (f.n, n))
        ok, witness = f.is_balanced()
        if not ok:
            raise NotInvariant("expression is not balanced", witness=witness)
    if s_values is None:
        s_values = list(compute_s(a))
        taus = a.tau_values(n)
    else:
        s_values = list(s_values)
        if len(s_values) != n:
            raise ValidationError("need exactly %d semi-invariant values" % n)
        if not all(isinstance(v, GrassmannScalar) and v.q == a.gq for v in s_values):
            raise ValidationError("supplied values must be Grassmann scalars over q=%d" % a.gq)
        taus = a.tau_values(2 * n)
        if not verify_recurrence(taus, s_values):
            raise ValidationError("supplied semi-invariant values fail the recurrence")
        bodies = body_signed_elementary(a)
        for j, (value, want) in enumerate(zip(s_values, bodies), start=1):
            if value.body() != want:
                raise ValidationError("supplied s_%d has body %s, expected %s"
                                      % (j, value.body(), want))
    return [f.evaluate(s_values, taus[:n]) for f in fs]


def evaluate_invariant(a, f, s_values=None):
    """Evaluate one balanced expression on a matrix; see `evaluate_invariants`."""
    return evaluate_invariants(a, [f], s_values)[0]


def indistinguishable(a1, a2):
    """Whether all invariant functions agree on the two matrices.

    True exactly when the first 2n odd moments coincide and the bodies of the
    semi-invariants do; those bodies are the signed elementary values of the
    body spectrum, so they agree exactly when the spectra do.  The two
    matrices must share their shape and generator count.

    It decides equality of the invariant functions (moments and spectrum),
    not conjugacy: at q = 3 the Q(1) pair 2 + e1e2e3 and 2 + e1e2 + e1e2e3
    is indistinguishable, yet every solution g of A g = g B has body 0.
    """
    n = a1.family_size()
    if a2.family_size() != n or a2.shape != a1.shape:
        raise ShapeMismatch("the two matrices belong to different families")
    if a2.gq != a1.gq:
        raise GeneratorCountMismatch("generator counts differ: %d vs %d" % (a1.gq, a2.gq))
    spectrum1 = _eligible_spectrum(a1)
    spectrum2 = _eligible_spectrum(a2)
    if a1.tau_values(2 * n) != a2.tau_values(2 * n):
        return False
    return spectrum1 == spectrum2


def l_invariants(a):
    """The semi-invariant values on the locus where tau_1..tau_n vanish.

    There they are genuine invariants; conjugation cannot move them.
    """
    n = a.family_size()
    taus = a.tau_values(n)
    for k, value in enumerate(taus, start=1):
        if not value.is_zero():
            raise NotInL("tau_%d does not vanish" % k, index=k)
    return list(compute_s(a))


def qet_generating_coefficients(a, count):
    """Laurent coefficients of the resolvent-style generating function.

    Returns the coefficients of 1/lambda^j for j = 1..count.  On queer
    matrices the j-th coefficient is minus the j-th odd moment; on odd
    matrices odd-order coefficients vanish and the 2k-th equals
    -(2k-1) tau_k.
    """
    if not is_int(count) or count < 1:
        raise ValidationError("count must be a positive integer")
    a_vals, alpha_vals = zip(*eigendata(a))

    def tau(k):
        return power_sum_odd(len(a_vals), k).evaluate(a_vals, alpha_vals)

    if isinstance(a.shape, Queer):
        return [-tau(j) for j in range(1, count + 1)]
    zero = GrassmannScalar.zero(a.gq)
    return [zero if j % 2 else -(j - 1) * tau(j // 2) for j in range(1, count + 1)]


# ----------------------------------------------------------------------
# balanced corpus for property testing


def _condition_rows(n, monos, den, even_basis):
    """The balance-condition matrix of the candidate keys over (n, n) and
    the denominator den: one column per key N, one row per (m, symbol key)
    of the conditions E_m(N) D - N' E_m(D); its kernel holds the
    combinations N with N/D balanced.  The entries are the residuals'
    numerators over the lcm of all their denominators: one factor of the
    whole matrix, so its kernel and RREF are those of the exact values."""
    # n residuals per key, m = 0..n-1, in one flat list
    _den, nums = common_denominator([
        x for mono in monos
        for x in _balance_conditions(TTauExpression._of(n, n, {mono: 1}), den, even_basis)])
    return coefficient_matrix([
        {(m, key): c for m in range(n) for key, c in nums[col * n + m].items()}
        for col in range(len(monos))])


@cache
def _balance_kernels(n):
    """The part of `balanced_corpus` that depends on n alone: the kernels of
    the balance conditions in the s basis, over the denominators 1 and u_n
    (s_n), of the candidate t/tau keys of weight <= min(2n, n + 2).  Each
    kernel vector is kept as a row of its nonzero (key, weight) pairs."""
    monos = tuple(key for weight in range(1, min(2 * n, n + 2) + 1)
                  for key in _ttau_monomials(n, weight))

    def kernel(den):
        return tuple(tuple((key, w) for key, w in zip(monos, vec) if w != 0)
                     for vec in linalg.nullspace(_condition_rows(n, monos, den, "s")))

    return kernel(1), kernel(TTauExpression.even_symbol(n, n, n))


def _kernel_combinations(rng, rows, count, n):
    """Up to count nonzero random integer combinations of kernel rows, each a
    tuple of (key, weight) pairs, summed in one term dict per combination
    and brought to the integer form once."""
    out = []
    for _ in range(count):
        terms = {}
        for row in rows:
            c = rng.randint(-2, 2)
            if c == 0:
                continue
            for key, weight in row:
                terms[key] = terms.get(key, 0) + weight * c
        combo = TTauExpression._of(n, n, *_integer_form({k: c for k, c in terms.items() if c}))
        if not combo.is_zero():
            out.append(combo)
    return out


def balanced_corpus(n, seed, combos=4):
    """A deterministic family of balanced expressions for property tests.

    Contains the plain odd symbols, the small worked closed forms, and random
    rational combinations drawn from the exact kernel of the balance
    conditions, with and without an even denominator.  Both kernels depend
    on n alone and come from the table `_balance_kernels(n)`, built once per
    n; only the combinations use the seed.  n must be a positive and combos
    a non-negative integer, and seed an integer; otherwise ValidationError.
    """
    if not is_int(n) or n < 1:
        raise ValidationError("n must be a positive integer")
    if not is_int(combos) or combos < 0:
        raise ValidationError("combos must be a non-negative integer")
    rng = seeded_rng(seed)
    corpus = []
    for i in range(1, n + 1):
        corpus.append(BalancedExpression(TTauExpression.odd_symbol(n, n, i)))
    if n == 1:
        u1 = TTauExpression.even_symbol(1, 1, 1)
        x1 = TTauExpression.odd_symbol(1, 1, 1)
        corpus.append(BalancedExpression(u1 * x1))
        corpus.append(BalancedExpression(u1 * u1 * x1))
        corpus.append(BalancedExpression(x1, u1))
    if n == 2:
        u1 = TTauExpression.even_symbol(2, 2, 1)
        u2 = TTauExpression.even_symbol(2, 2, 2)
        x1 = TTauExpression.odd_symbol(2, 2, 1)
        x2 = TTauExpression.odd_symbol(2, 2, 2)
        corpus.append(BalancedExpression(x2 - u1 * x1, u2))
    kernel, den_kernel = _balance_kernels(n)
    for combo in _kernel_combinations(rng, kernel, combos, n):
        corpus.append(BalancedExpression(combo))
    den_expr = TTauExpression.even_symbol(n, n, n)
    for combo in _kernel_combinations(rng, den_kernel, max(1, combos // 2), n):
        corpus.append(BalancedExpression(combo, den_expr))
    return corpus
