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

import random
from fractions import Fraction

from . import linalg
from .errors import (
    InternalError,
    MultipleEigenvalue,
    NotInL,
    NotInvariant,
    ShapeMismatch,
    ValidationError,
    ZeroDiscriminant,
    ZeroEigenvalue,
)
from .grassmann import GrassmannScalar, is_int
from .reduction import diagonalize, rational_spectrum, reduce_odd
from .supermatrix import Queer, SuperMatrix
from .sympoly import (
    BalancedExpression,
    TTauExpression,
    coefficient_matrix,
    elementary_from_roots,
    signed_elementary_poly,
    verify_recurrence,
    _symmetric_residual,
    _ttau_monomials,
)


def _moment(pairs, k):
    """sum_i alpha_i a_i^(k-1), the k-th odd moment of the diagonal data."""
    acc = GrassmannScalar.zero(pairs[0][0].q)
    for a, alpha in pairs:
        acc = acc + alpha * a ** (k - 1)
    return acc


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


def _relevant_body(a):
    """The body matrix whose spectrum the reductions use.

    The body itself for a queer matrix; for an odd square (X Y; Z T), the
    top-left block b(Y)b(Z) of the body of its square, since b(X) = 0.
    """
    if isinstance(a.shape, Queer):
        return a.body_rows()
    a.family_size()
    _x, y, z, _t = a.blocks()
    return linalg.matmul(y.body_rows(), z.body_rows())


def body_signed_elementary(a):
    """Bodies of the semi-invariants, straight from the body spectrum.

    For the monic characteristic polynomial sum_i c_i x^i of the relevant
    body matrix, the recurrence convention pins body(s_j) = -c_{n-j}.
    """
    n = a.family_size()
    coeffs = linalg.charpoly(_relevant_body(a))
    return [-coeffs[n - j] for j in range(1, n + 1)]


def _check_eligible(a):
    """The relevant body spectrum; raises the reduction error if a has no eigendata."""
    spectrum = rational_spectrum(_relevant_body(a))
    queer = isinstance(a.shape, Queer)
    if not spectrum.is_simple():
        raise MultipleEigenvalue("%s has a repeated eigenvalue"
                                 % ("body" if queer else "the square's body"))
    if not queer and any(lam == 0 for lam, _ in spectrum.pairs):
        raise ZeroEigenvalue("the square's body has a zero eigenvalue")
    return spectrum


def evaluate_invariants(a, fs, s_values=None):
    """Evaluate balanced expressions on a matrix: [f(s_1..s_n, tau_1..tau_n) for f in fs].

    Every f is checked (its n, then its balance) before anything is computed
    on a; s and tau_1..tau_n are then computed once for the whole sequence.
    When s_values is supplied it is validated against the recurrence and the
    body pin instead; any admissible choice gives the same values.
    """
    n = a.family_size()
    fs = list(fs)
    for f in fs:
        if f.n != n:
            raise ValidationError("expression is for n=%d, matrix has n=%d" % (f.n, n))
        ok, witness = f.is_balanced()
        if not ok:
            raise NotInvariant("expression is not balanced", witness=witness)
    if s_values is None:
        s_values = list(compute_s(a))
    else:
        s_values = list(s_values)
        if len(s_values) != n:
            raise ValidationError("need exactly %d semi-invariant values" % n)
        if not verify_recurrence(a.tau_values(2 * n), s_values):
            raise ValidationError("supplied semi-invariant values fail the recurrence")
        bodies = body_signed_elementary(a)
        for j, (value, want) in enumerate(zip(s_values, bodies), start=1):
            if value.body() != want:
                raise ValidationError("supplied s_%d has body %s, expected %s"
                                      % (j, value.body(), want))
    taus = a.tau_values(n)
    return [f.evaluate(s_values, taus) for f in fs]


def evaluate_invariant(a, f, s_values=None):
    """Evaluate one balanced expression on a matrix; see `evaluate_invariants`."""
    return evaluate_invariants(a, [f], s_values)[0]


def indistinguishable(a1, a2):
    """Whether all invariant functions agree on the two matrices.

    True exactly when the first 2n odd moments coincide and the bodies of the
    semi-invariants do; those bodies are the signed elementary values of the
    body spectrum, so they agree exactly when the spectra do.
    """
    n = a1.family_size()
    if a2.family_size() != n:
        raise ShapeMismatch("the two matrices belong to different families")
    spectrum1 = _check_eligible(a1)
    spectrum2 = _check_eligible(a2)
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
    pairs = eigendata(a)
    out = []
    if isinstance(a.shape, Queer):
        for j in range(1, count + 1):
            out.append(-_moment(pairs, j))
        return out
    q = a.gq
    for j in range(1, count + 1):
        if j % 2 == 1:
            out.append(GrassmannScalar.zero(q))
        else:
            k = j // 2
            out.append(-(2 * k - 1) * _moment(pairs, k))
    return out


# ----------------------------------------------------------------------
# balanced corpus for property testing


def _residual_rows(polys, den):
    """Coefficient matrix of the first balance residuals, one column per
    symmetric candidate numerator N; its kernel holds the N with N/D invariant."""
    return coefficient_matrix([_symmetric_residual(poly, den).terms for poly in polys])


def _kernel_combinations(rng, kernel, candidates, count, n):
    """Up to count nonzero random integer combinations of kernel vectors."""
    out = []
    for _ in range(count):
        combo = TTauExpression.zero(n, n)
        nonzero = False
        for vec in kernel:
            c = rng.randint(-2, 2)
            if c == 0:
                continue
            nonzero = True
            for cand, weight in zip(candidates, vec):
                if weight != 0:
                    combo = combo + cand * (weight * c)
        if nonzero and not combo.is_zero():
            out.append(combo)
    return out


def balanced_corpus(n, seed, combos=4):
    """A deterministic family of balanced expressions for property tests.

    Contains the plain odd symbols, the small worked closed forms, and random
    rational combinations drawn from the exact kernel of the balance
    conditions, with and without an even denominator.  n must be a positive
    and combos a non-negative integer; otherwise ValidationError.
    """
    if not is_int(n) or n < 1:
        raise ValidationError("n must be a positive integer")
    if not is_int(combos) or combos < 0:
        raise ValidationError("combos must be a non-negative integer")
    rng = random.Random(seed)
    cap = min(2 * n, n + 2)
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
    monos = []
    for weight in range(1, cap + 1):
        for exps, mask in _ttau_monomials(n, weight):
            monos.append((exps, mask))
    candidates = [TTauExpression.monomial(n, n, e, m) for e, m in monos]
    pullbacks = [c.expand(even_basis="s") for c in candidates]
    kernel = linalg.nullspace(_residual_rows(pullbacks, 1))
    for combo in _kernel_combinations(rng, kernel, candidates, combos, n):
        corpus.append(BalancedExpression(combo))
    den_expr = TTauExpression.even_symbol(n, n, n)
    kernel = linalg.nullspace(_residual_rows(pullbacks, signed_elementary_poly(n, n)))
    for combo in _kernel_combinations(rng, kernel, candidates, max(1, combos // 2), n):
        corpus.append(BalancedExpression(combo, den_expr))
    return corpus
