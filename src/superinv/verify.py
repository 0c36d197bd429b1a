"""Seeded property suites and the samplers that feed them.

Each suite is a claim table for one family of exact identities: suite(seed)
returns (claim, seed offset, trial cap, one_trial) tuples and runs nothing.
run_suite is the one runner; it calls _run_trials once per claim, on
min(trials, cap) trials (all of them when the cap is None) seeded from the
suite's base seed plus the offset, and the command line front end serializes
the records.  All randomness flows through explicit seeds, so a rerun with
the same seed reproduces the report byte for byte.  Claims draw their
matrices through _queer_sample, _odd_sample and _conjugated, which consume
the trial rng in a fixed order.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import reduce
from itertools import combinations, permutations
from operator import mul

from . import linalg
from .errors import NotInL, SuperInvError, ValidationError, ZeroDiscriminant
from .grassmann import GrassmannScalar, is_int
from .invariants import (
    balanced_corpus,
    body_signed_elementary,
    compute_s,
    evaluate_invariants,
    indistinguishable,
    l_invariants,
    q2_closed_form,
    qet_generating_coefficients,
)
from .reduction import (
    antidiagonalize,
    block_diagonalize,
    diagonalize,
    reduce_odd,
    solve_sylvester,
)
from .supermatrix import (
    ANY,
    EVEN,
    ODD,
    GroupElement,
    Queer,
    Standard,
    SuperMatrix,
    random_group_element,
    random_matrix,
    random_scalar,
    seeded_rng,
)
from .sympoly import (
    SuperPolynomial,
    TTauExpression,
    coefficient_matrix,
    invariant_normal_form,
    power_sum_even,
    power_sum_odd,
    rewrite_symmetric,
    vandermonde_adjoint,
    verify_recurrence,
    _ttau_monomials,
)

# ----------------------------------------------------------------------
# eligible-input samplers

_BOUND = 2  # coefficient bound of every sampler's random entries


def pick_distinct(rng, count, low=-6, high=6, nonzero=False):
    """Deterministically pick pairwise distinct rational integers."""
    if not is_int(count) or count < 0:
        raise ValidationError("count must be a non-negative integer")
    pool = [v for v in range(low, high + 1) if not (nonzero and v == 0)]
    if count > len(pool):
        raise ValidationError("range too small for %d distinct values" % count)
    out = []
    while len(out) < count:
        v = pool[rng.randrange(len(pool))]
        if v not in out:
            out.append(v)
    return out


def _diagonal(shape, parity, entries):
    """Matrix with the given diagonal entries and zeros elsewhere."""
    zero = GrassmannScalar.zero(entries[0].q)
    return SuperMatrix(shape, parity, [[x if i == j else zero for j in range(len(entries))]
                                       for i, x in enumerate(entries)])


def _is_diagonal(m):
    return all(i == j or x.is_zero() for i, row in enumerate(m.rows) for j, x in enumerate(row))


def _check_count(values, count):
    if len(values) != count:
        raise ValidationError("need %d eigenvalues, got %d" % (count, len(values)))


def _conjugated(rng, a):
    """a conjugated by a random group element seeded from the next draw."""
    return a.conjugate(random_group_element(a.shape, a.gq, rng.randrange(1 << 30), _BOUND))


def _random_with_spectrum(shape, eigenvalues, gq, seed, soul_terms=1):
    """Random group-parity matrix with the given body diagonal, conjugated."""
    _check_count(eigenvalues, shape.dim)
    rng = seeded_rng(seed)
    diag = _diagonal(shape, shape.group_parity,
                     [GrassmannScalar.rational(gq, eigenvalues[i]) for i in range(shape.dim)])
    soul = random_matrix(shape, shape.group_parity, gq, rng.randrange(1 << 30), _BOUND,
                         max_terms=soul_terms).soul()
    return _conjugated(rng, diag + soul)


def random_queer_with_spectrum(n, eigenvalues, gq, seed, soul_terms=1):
    """Random queer matrix whose body spectrum is the given rational list."""
    return _random_with_spectrum(Queer(n), eigenvalues, gq, seed, soul_terms)


def random_standard_even_with_spectrum(p, q, eigs_x, eigs_t, gq, seed):
    _check_count(eigs_x, p)  # the total count is checked below
    return _random_with_spectrum(Standard(p, q), list(eigs_x) + list(eigs_t), gq, seed)


def random_odd_reducible(n, body_values, gq, seed):
    """Random odd matrix reducible to the paired canonical form.

    body_values are the distinct nonzero body eigenvalues of the square.
    """
    _check_count(body_values, n)
    rng = seeded_rng(seed)
    x, y = [], []
    for value in body_values:
        x.append(random_scalar(rng, gq, _BOUND, parity=ODD, max_terms=1))
        even_soul = random_scalar(rng, gq, _BOUND, parity=EVEN, max_terms=1).soul()
        y.append(GrassmannScalar.rational(gq, value) + even_soul)
    shape = Queer(n)
    a = SuperMatrix.from_blocks(ODD, _diagonal(shape, ANY, x), _diagonal(shape, ANY, y),
                                SuperMatrix.identity(shape, gq), SuperMatrix.zeros(shape, gq))
    return _conjugated(rng, a)


def random_locus_member(n, gq, seed):
    """Random matrix on which all the odd moments vanish."""
    rng = seeded_rng(seed)
    eigs = pick_distinct(rng, n)
    entries = [GrassmannScalar.rational(gq, e)
               + random_scalar(rng, gq, _BOUND, parity=EVEN, max_terms=1).soul() for e in eigs]
    return _conjugated(rng, _diagonal(Queer(n), ANY, entries))


def random_commuting_odd_pair(n, gq, seed):
    """An odd matrix of the shape (X Y; 1 -X) whose square is block diagonal.

    Y is built from a polynomial in X^2 plus a nonzero rational scalar, so X
    and Y commute and the square is exactly block diagonal.
    """
    rng = seeded_rng(seed)
    x = random_matrix(Queer(n), ANY, gq, rng.randrange(1 << 30), _BOUND, max_terms=1)
    x = SuperMatrix(Queer(n), ANY, [[e.odd_part() for e in row] for row in x.rows])
    c = rng.randint(1, _BOUND)
    if rng.random() < 0.5:
        c = -c
    x2 = x @ x
    one = SuperMatrix.identity(Queer(n), gq)
    y = one * c + x2 * rng.randint(-_BOUND, _BOUND)
    return SuperMatrix.from_blocks(ODD, x, y, one, -x)


def random_sector_conjugator(n, gq, seed):
    """Group element of the form diag(P, Q); preserves sector splits."""
    p, _y, _z, q = random_group_element(Standard(n, n), gq, seed, _BOUND).matrix.blocks()
    zero = SuperMatrix.zeros(Queer(n), gq)
    return GroupElement(SuperMatrix.from_blocks(EVEN, p, zero, zero, q))


def _queer_sample(rng, n, gq, soul_terms=1):
    """Queer matrix with distinct nonzero body eigenvalues drawn from rng."""
    eigs = pick_distinct(rng, n, nonzero=True)
    return random_queer_with_spectrum(n, eigs, gq, rng.randrange(1 << 30), soul_terms)


def _odd_sample(rng, n, gq):
    """Reducible odd matrix with distinct nonzero square eigenvalues."""
    vals = pick_distinct(rng, n, nonzero=True)
    return random_odd_reducible(n, vals, gq, rng.randrange(1 << 30))


# ----------------------------------------------------------------------
# report plumbing


def _run_trials(claim, trials, seed, one_trial):
    """Run one_trial(t, rng) for each t; stop at the first failure.

    A library error raised inside a trial fails the claim, and its
    counterexample names the error class; any other exception propagates.
    """
    failure = None
    for t in range(trials):
        # arithmetic mixing only: string hashes are not stable across runs
        rng = random.Random(seed * 1000003 + t)
        try:
            detail = one_trial(t, rng)
        except SuperInvError as exc:
            detail = "raised %s: %s" % (type(exc).__name__, exc)
        if detail is not None:
            failure = {"trial": t, "info": detail}
            break
    return {
        "claim": claim,
        "trials": trials,
        "seed": seed,
        "status": "fail" if failure is not None else "pass",
        "counterexample": failure,
    }


def _corpus_agrees(corpus, a1, a2, s1=None, s2=None):
    """True when every corpus expression evaluates equally on both sides.

    Every expression is evaluated on both sides, so an error raised by a late
    expression surfaces even when an earlier one already disagrees.
    """
    return evaluate_invariants(a1, corpus, s1) == evaluate_invariants(a2, corpus, s2)


# ----------------------------------------------------------------------
# suites


def suite_grassmann(seed):
    def sample(rng):
        q = rng.randint(1, 8)
        return q, [random_scalar(rng, q, 9, max_terms=3) for _ in range(3)]

    def supercommute(t, rng):
        q, (x, y, _) = sample(rng)
        for xp in x.parity_split():
            for yp in y.parity_split():
                sign = -1 if (xp.is_odd() and not xp.is_zero()
                              and yp.is_odd() and not yp.is_zero()) else 1
                if xp * yp != yp * xp * sign:
                    return "supercommutativity fails for %s, %s" % (xp, yp)
        return None

    def associativity(t, rng):
        q, (x, y, z) = sample(rng)
        if (x * y) * z != x * (y * z):
            return "associativity fails"
        if x * (y + z) != x * y + x * z:
            return "distributivity fails"
        return None

    def body_hom(t, rng):
        q, (x, y, _) = sample(rng)
        if (x * y).body() != x.body() * y.body():
            return "body of product differs from product of bodies"
        if (x + y).body() != x.body() + y.body():
            return "body of sum differs from sum of bodies"
        return None

    def invert_back(t, rng):
        q, (x, _, _) = sample(rng)
        x = x + (1 if x.body() == 0 else 0)
        inv = x.invert()
        if x * inv != 1 or inv * x != 1:
            return "inverse does not multiply back to one"
        return None

    def soul_nilpotent(t, rng):
        q, (x, _, _) = sample(rng)
        s = x.soul()
        if not (s ** (q + 1)).is_zero():
            return "soul power q+1 is nonzero"
        return None

    return [("supercommutativity-on-homogeneous-parts", 0, None, supercommute),
            ("associativity-and-distributivity", 0, None, associativity),
            ("body-is-a-ring-homomorphism", 0, None, body_hom),
            ("invert-multiplies-back", 0, None, invert_back),
            ("soul-nilpotency", 0, None, soul_nilpotent)]


def suite_invariance(seed):
    """qtr, qet, str and the odd moments are conjugation invariants."""

    def queer_case(n):
        def one(t, rng):
            gq = rng.choice([2, 2, 3, 3, 4] if n >= 3 else [2, 3, 3, 4, 6])
            a = _queer_sample(rng, n, gq)
            conj = _conjugated(rng, a)
            if conj.qtr() != a.qtr():
                return "qtr moved under conjugation"
            if conj.qet() != a.qet():
                return "qet moved under conjugation"
            if conj.tau_values(2 * n) != a.tau_values(2 * n):
                return "an odd moment moved under conjugation"
            return None

        return one

    def odd_case(n):
        def one(t, rng):
            gq = rng.choice([2, 3, 3, 4] if n >= 2 else [2, 3, 4, 6])
            a = _odd_sample(rng, n, gq)
            conj = _conjugated(rng, a)
            if conj.tau_values(2 * n) != a.tau_values(2 * n):
                return "an odd moment moved under conjugation"
            if conj.supertrace() != a.supertrace():
                return "supertrace moved under conjugation"
            return None

        return one

    def commutator(t, rng):
        gq = rng.randint(2, 4)
        p, q = rng.randint(1, 2), rng.randint(1, 2)
        pa = rng.choice([EVEN, ODD])
        pb = rng.choice([EVEN, ODD])
        a = random_matrix(Standard(p, q), pa, gq, rng.randrange(1 << 30), 3)
        b = random_matrix(Standard(p, q), pb, gq, rng.randrange(1 << 30), 3)
        sign = -1 if (pa == ODD and pb == ODD) else 1
        comm = (a @ b) - (b @ a) * sign
        if comm.supertrace() != 0:
            return "supertrace of a supercommutator is nonzero"
        odd = random_matrix(Standard(p, p), ODD, gq, rng.randrange(1 << 30), 3)
        k = rng.randint(1, 2)
        if (odd ** (2 * k)).supertrace() != 0:
            return "supertrace of an even power of an odd matrix is nonzero"
        return None

    return [*(("queer-invariants-n%d" % n, n, None, queer_case(n)) for n in (1, 2, 3)),
            *(("odd-invariants-n%d" % n, 10 + n, None, odd_case(n)) for n in (1, 2)),
            ("supercommutator-trace-vanishes", 20, None, commutator)]


def suite_thm_1_3(seed):
    def worked_odd_form(t, rng):
        q = 2
        x1, x2 = GrassmannScalar.generator(q, 1), GrassmannScalar.generator(q, 2)
        a = SuperMatrix(Standard(1, 1), ODD,
                        [[x1, GrassmannScalar.rational(q, 2)],
                         [GrassmannScalar.rational(q, 3), x2]])
        dec = reduce_odd(a)
        blk = dec.blocks[0][1]
        want_top = (x1 + x2, GrassmannScalar.rational(q, 6) - x1 * x2)
        if (blk.rows[0][0], blk.rows[0][1]) != want_top:
            return "canonical block is %r" % (blk.rows,)
        if not dec.verify(a):
            return "conjugation identity fails"
        return None

    def queer_blocks(t, rng):
        n = rng.randint(2, 3)
        gq = rng.choice([2, 3, 3, 4])
        k = rng.randint(1, n - 1)
        values = pick_distinct(rng, k)
        eigs = list(values)
        while len(eigs) < n:
            eigs.append(values[rng.randrange(k)])
        a = random_queer_with_spectrum(n, eigs, gq, rng.randrange(1 << 30))
        log = []
        dec = block_diagonalize(a, filtration_log=log)
        if not dec.verify(a):
            return "plug-back identity fails"
        mins = [d for d in log if d is not None]
        if any(m < level + 1 for level, m in enumerate(mins)):
            return "filtration did not advance: %r" % (log,)
        for lam, block in dec.blocks:
            body = block.body_rows()
            k = len(body)
            shifted = [[body[i][j] - (lam if i == j else 0) for j in range(k)] for i in range(k)]
            power = shifted
            for _ in range(k - 1):
                power = linalg.matmul(power, shifted)
            if any(x != 0 for row in power for x in row):
                return "block body minus its eigenvalue is not nilpotent"
        return None

    def queer_diag(t, rng):
        n = rng.randint(1, 3)
        gq = rng.choice([2, 3, 3, 4])
        eigs = pick_distinct(rng, n)
        a = random_queer_with_spectrum(n, eigs, gq, rng.randrange(1 << 30))
        dec = diagonalize(a)
        if not dec.verify(a):
            return "plug-back identity fails"
        if [lam for lam, _ in dec.blocks] != sorted(eigs):
            return "eigenvalues disagree"
        return None

    def standard_blocks(t, rng):
        p = rng.randint(1, 2)
        q_odd = rng.randint(1, 2)
        gq = rng.choice([2, 3, 3])
        shared = rng.random() < 0.5
        if shared:
            common = pick_distinct(rng, 1)[0]
            eigs_x = [common] + pick_distinct(rng, p - 1, low=7, high=12)
            eigs_t = [common] + pick_distinct(rng, q_odd - 1, low=-12, high=-7)
        else:
            vals = pick_distinct(rng, p + q_odd)
            eigs_x, eigs_t = vals[:p], vals[p:]
        a = random_standard_even_with_spectrum(p, q_odd, eigs_x, eigs_t, gq, rng.randrange(1 << 30))
        dec = block_diagonalize(a)
        if not dec.verify(a):
            return "plug-back identity fails"
        return None

    def odd_reduction(t, rng):
        n = rng.randint(1, 3)
        gq = 2 if n == 3 else rng.choice([2, 3, 3])
        a = _odd_sample(rng, n, gq)
        dec = reduce_odd(a)
        if not dec.verify(a):
            return "plug-back identity fails"
        x, y, z, t = dec.assembled().blocks()
        if not z.is_identity():
            return "lower-left block is not the identity"
        if not t.is_zero():
            return "lower-right block is nonzero"
        if not (_is_diagonal(x) and _is_diagonal(y)):
            return "upper blocks are not diagonal"
        return None

    def uniqueness(t, rng):
        n = rng.randint(2, 3)
        gq = rng.choice([2, 3])
        eigs = pick_distinct(rng, n)
        a = random_queer_with_spectrum(n, eigs, gq, rng.randrange(1 << 30))
        dec1 = block_diagonalize(a)
        dec2 = block_diagonalize(_conjugated(rng, a))
        for (l1, b1), (l2, b2) in zip(dec1.blocks, dec2.blocks):
            if l1 != l2:
                return "eigenvalue lists diverge"
            upto = 2 * b1.dim
            if b1.tau_values(upto) != b2.tau_values(upto):
                return "block invariants diverge between reductions"
            if linalg.charpoly(b1.body_rows()) != linalg.charpoly(b2.body_rows()):
                return "block body polynomials diverge"
        return None

    def sylvester(t, rng):
        n1, n2 = rng.randint(1, 3), rng.randint(1, 3)
        vals = pick_distinct(rng, n1 + n2)
        b = [[Fraction(vals[i]) if i == j else Fraction(rng.randint(-2, 2)) for j in range(n1)] for i in range(n1)]
        d = [[Fraction(vals[n1 + i]) if i == j else Fraction(rng.randint(-2, 2)) for j in range(n2)] for i in range(n2)]
        for i in range(n1):
            for j in range(i):
                b[i][j] = Fraction(0)
        for i in range(n2):
            for j in range(i):
                d[i][j] = Fraction(0)
        r = [[Fraction(rng.randint(-5, 5)) for _ in range(n2)] for _ in range(n1)]
        x = solve_sylvester(b, d, r)
        lhs = linalg.mat_sub(linalg.matmul(b, x), linalg.matmul(x, d))
        if lhs != r:
            return "solution does not satisfy the equation"
        return None

    return [("worked-odd-normal-form", 0, 1, worked_odd_form),
            ("queer-block-diagonalization", 1, None, queer_blocks),
            ("queer-diagonalization", 2, None, queer_diag),
            ("standard-even-block-diagonalization", 3, None, standard_blocks),
            ("odd-paired-reduction", 4, None, odd_reduction),
            ("block-uniqueness-up-to-conjugation", 5, None, uniqueness),
            ("sylvester-plug-back", 6, None, sylvester)]


def suite_lemma_3_2(seed):
    products = {}  # n -> the entries of M'M, built once per n for both claims

    def adjoint_product(n):
        if n not in products:
            m, mp = vandermonde_adjoint(n)
            # M's first row is 1, and so is the last entry of each row of M':
            # those terms need no product
            products[n] = [[sum((mp[k][i] * m[i][l] for i in range(1, n - 1)),
                                mp[k][0] + m[n - 1][l] if n > 1 else mp[k][0])
                            for l in range(n)] for k in range(n)]
        return products[n]

    def symbolic(t, rng):
        n = t % 4 + 1
        product = adjoint_product(n)
        for k in range(n):
            for l in range(n):
                entry = product[k][l]
                if k != l:
                    if not entry.is_zero():
                        return "off-diagonal entry (%d,%d) is nonzero" % (k + 1, l + 1)
                else:
                    ak = SuperPolynomial.even_var(n, k + 1)
                    factors = [ak - SuperPolynomial.even_var(n, i)
                               for i in range(1, n + 1) if i != k + 1]
                    expected = reduce(mul, factors) if factors else SuperPolynomial.one(n)
                    if entry != expected:
                        return "diagonal entry (%d,%d) differs" % (k + 1, k + 1)
        return None

    def numeric(t, rng):
        n = rng.randint(1, 4)
        vals = [Fraction(v, rng.randint(1, 3)) for v in pick_distinct(rng, n, low=-8, high=8)]
        if len(set(vals)) != n:
            return None
        product = adjoint_product(n)
        a_scalars = [GrassmannScalar.rational(0, v) for v in vals]
        zeros = [GrassmannScalar.zero(0)] * n
        for k in range(n):
            for l in range(n):
                got = product[k][l].evaluate(a_scalars, zeros)
                want = Fraction(1)
                for i in range(n):
                    if i != k:
                        want *= vals[l] - vals[i]
                if got != want:
                    return "numeric product entry differs at (%d,%d)" % (k + 1, l + 1)
        return None

    return [("adjoint-product-symbolic", 0, 4, symbolic),
            ("adjoint-product-numeric", 1, None, numeric)]


def _random_symmetric_polynomial(n, rng):
    """Symmetrize a few random monomials of total degree at most 6."""
    acc = SuperPolynomial.zero(n)
    for _ in range(rng.randint(1, 3)):
        odd_count = rng.randint(0, n)
        mask = 0
        while mask.bit_count() < odd_count:
            mask |= 1 << rng.randrange(n)
        budget = 6 - odd_count
        exps = []
        for _i in range(n):
            e = rng.randint(0, max(0, budget))
            exps.append(e)
            budget -= e
        coeff = rng.randint(-3, 3) or 1
        mono = SuperPolynomial(n, {(tuple(exps), mask): coeff})
        for perm in permutations(range(n)):
            acc = acc + mono.permute(list(perm))
    return acc


def suite_thm_3_2(seed):
    def worked(t, rng):
        a1 = SuperPolynomial.even_var(2, 1)
        a2 = SuperPolynomial.even_var(2, 2)
        b1 = SuperPolynomial.odd_var(2, 1)
        b2 = SuperPolynomial.odd_var(2, 2)
        g = rewrite_symmetric(b1 + b2)
        if g != TTauExpression.odd_symbol(2, 2, 1):
            return "odd sum does not rewrite to the first odd symbol"
        g = rewrite_symmetric(b1 * a2 + b2 * a1)
        want = (TTauExpression.even_symbol(2, 2, 1) * TTauExpression.odd_symbol(2, 2, 1)
                - TTauExpression.odd_symbol(2, 2, 2))
        if g != want:
            return "crossed sum rewrites to %s" % g
        g = rewrite_symmetric(a1 * a2)
        u1 = TTauExpression.even_symbol(2, 2, 1)
        u2 = TTauExpression.even_symbol(2, 2, 2)
        if g != (u1 * u1 - u2) * Fraction(1, 2):
            return "product rewrites to %s" % g
        return None

    def round_trip(t, rng):
        n = rng.randint(1, 3)
        f = _random_symmetric_polynomial(n, rng)
        g = rewrite_symmetric(f)
        if g.expand(even_basis="t") != f:
            return "expansion of the rewrite differs from the input"
        return None

    def uniqueness(t, rng):
        n = rng.randint(1, 3)
        cap = 5
        monos = []
        for w in range(1, cap + 1):
            monos.extend(_ttau_monomials(n, w))
        expr = TTauExpression.zero(n, n)
        for _ in range(rng.randint(1, 4)):
            exps, mask = monos[rng.randrange(len(monos))]
            expr = expr + TTauExpression.monomial(n, n, exps, mask, rng.randint(-3, 3) or 1)
        back = rewrite_symmetric(expr.expand(even_basis="t"))
        if back != expr:
            return "round trip through expansion changes the expression"
        return None

    def power_sum_identity(t, rng):
        n = rng.randint(1, 3)
        k = rng.randint(1, 2 * n)
        acc = SuperPolynomial.zero(n)
        for i in range(1, n + 1):
            acc = acc + (SuperPolynomial.even_var(n, i) + SuperPolynomial.odd_var(n, i)) ** k
        if acc != power_sum_even(n, k) + k * power_sum_odd(n, k):
            return "nonhomogeneous power sum identity fails"
        return None

    return [("worked-rewrites", 0, 1, worked),
            ("rewrite-round-trip", 1, None, round_trip),
            ("rewrite-uniqueness", 2, None, uniqueness),
            ("nonhomogeneous-power-sums", 3, None, power_sum_identity)]


def _index_tuples(n, max_index):
    """Increasing index tuples from 1..max_index of length 1..n, shortest first."""
    return [tup for size in range(1, n + 1)
            for tup in combinations(range(1, max_index + 1), size)]


def _odd_moment_product(n, tup):
    """The product of the odd power sums indexed by a nonempty tup, in n variables."""
    return reduce(mul, [power_sum_odd(n, i) for i in tup])


def tau_monomial_matrix(n, max_index):
    """Coefficient matrix of all odd-moment products of length <= n."""
    monos = _index_tuples(n, max_index)
    return monos, coefficient_matrix([_odd_moment_product(n, tup).terms for tup in monos])


def suite_thm_3_3(seed):
    def vanishing(t, rng):
        n = t % 3 + 1
        for tup in combinations(range(1, 2 * n + 2), n + 1):
            if not _odd_moment_product(n, tup).is_zero():
                return "product of indices %r is nonzero" % (tup,)
        return None

    def independence(t, rng):
        n = t % 3 + 1
        monos, matrix = tau_monomial_matrix(n, 2 * n)
        if linalg.rank(matrix) != len(monos):
            return "expansions are linearly dependent"
        return None

    def normal_form_round_trip(t, rng):
        n = rng.randint(1, 3)
        all_monos = _index_tuples(n, 2 * n)
        expr_terms = {}
        for _ in range(rng.randint(1, 3)):
            tup = all_monos[rng.randrange(len(all_monos))]
            mask = 0
            for i in tup:
                mask |= 1 << (i - 1)
            key = ((0,) * (2 * n), mask)
            expr_terms[key] = expr_terms.get(key, 0) + (rng.randint(-3, 3) or 1)
        expr = TTauExpression(n, 2 * n, expr_terms)
        f = expr.expand()
        back = invariant_normal_form(f)
        if back.expand() != f:
            return "normal form does not expand back"
        got = {mask: c for (_e, mask), c in back.terms.items()}
        want = {mask: c for (_e, mask), c in expr.terms.items()}
        if got != want:
            return "normal form coefficients differ"
        return None

    return [("products-of-length-n-plus-1-vanish", 0, 3, vanishing),
            ("monomial-expansions-independent", 1, 3, independence),
            ("normal-form-round-trip", 2, None, normal_form_round_trip)]


def suite_eq_4_1(seed):
    def queer_residuals(t, rng):
        n = rng.randint(1, 3)
        gq = rng.choice([2, 3, 3, 4])
        a = _queer_sample(rng, n, gq)
        s = compute_s(a)
        if not verify_recurrence(a.tau_values(2 * n), s):
            return "recurrence residual is nonzero"
        bodies = body_signed_elementary(a)
        if [v.body() for v in s] != bodies:
            return "semi-invariant bodies disagree with the spectrum"
        return None

    def odd_residuals(t, rng):
        n = rng.randint(1, 2)
        gq = rng.choice([2, 3, 3])
        a = _odd_sample(rng, n, gq)
        s = compute_s(a)
        if not verify_recurrence(a.tau_values(2 * n), s):
            return "recurrence residual is nonzero"
        return None

    def closed_form_residuals(t, rng):
        gq = rng.choice([2, 3, 4])
        a = _queer_sample(rng, 2, gq)
        s = q2_closed_form(a)
        if not verify_recurrence(a.tau_values(4), s):
            return "closed form fails the recurrence"
        return None

    return [("queer-recurrence-residuals", 0, None, queer_residuals),
            ("odd-recurrence-residuals", 1, None, odd_residuals),
            ("closed-form-recurrence-residuals", 2, None, closed_form_residuals)]


def suite_thm_4_5(seed):
    corpora = {n: balanced_corpus(n, seed=seed + 100 + n, combos=3) for n in (1, 2, 3)}

    def conjugation(t, rng):
        n = rng.randint(1, 3)
        gq = rng.choice([2, 3])
        a = _queer_sample(rng, n, gq)
        conj = _conjugated(rng, a)
        if not _corpus_agrees(corpora[n], a, conj, compute_s(a), compute_s(conj)):
            return "evaluation moved under conjugation"
        return None

    def admissible_choice(t, rng):
        n = rng.randint(1, 3)
        gq = rng.choice([2, 3])
        a = _queer_sample(rng, n, gq)
        s1 = compute_s(a)
        s2 = compute_s(_conjugated(rng, a))
        if not _corpus_agrees(corpora[n], a, a, s1, s2):
            return "two admissible solutions give different values"
        return None

    def dual_route_n2(t, rng):
        gq = rng.choice([2, 3, 4])
        a = _queer_sample(rng, 2, gq)
        s_spec = compute_s(a)
        s_closed = q2_closed_form(a)
        if not _corpus_agrees(corpora[2], a, a, s_spec, s_closed):
            return "spectral and closed-form routes disagree"
        return None

    def certificate_n1(t, rng):
        # family with odd parameters: one extra generator plays the parameter
        gq = 4
        x = [GrassmannScalar.generator(gq, i) for i in range(1, 5)]
        gamma = x[0] * x[1] * x[2]
        a = SuperMatrix(Standard(1, 1), ODD,
                        [[gamma, GrassmannScalar.one(gq)],
                         [GrassmannScalar.one(gq), GrassmannScalar.zero(gq)]])
        h_true = compute_s(a)
        h_alt = [GrassmannScalar.one(gq) + x[0] * x[1]]
        if not _corpus_agrees(corpora[1], a, a, h_true, h_alt):
            return "the two admissible certificates disagree"
        return None

    return [("evaluation-conjugation-invariance", 0, None, conjugation),
            ("admissible-solution-independence", 1, None, admissible_choice),
            ("dual-route-evaluations", 2, None, dual_route_n2),
            ("certificate-ambiguity-n1", 3, 1, certificate_n1)]


def suite_cor_4_5(seed):
    corpora = {n: balanced_corpus(n, seed=seed + 200 + n, combos=2) for n in (1, 2, 3)}

    def matched_pairs(t, rng):
        n = rng.randint(1, 3)
        gq = rng.choice([2, 3])
        a1 = _queer_sample(rng, n, gq)
        a2 = _conjugated(rng, a1)
        if not indistinguishable(a1, a2):
            return "conjugate pair declared distinguishable"
        if not _corpus_agrees(corpora[n], a1, a2):
            return "evaluations differ on a matched pair"
        return None

    def soul_shifted_pairs(t, rng):
        n = rng.randint(2, 3)
        gq = 4
        eigs = pick_distinct(rng, n, nonzero=True)
        diag1, diag2 = [], []
        for i in range(n):
            alpha = GrassmannScalar.generator(gq, i + 1)
            rho = GrassmannScalar.generator(gq, i + 2)
            base = GrassmannScalar.rational(gq, eigs[i])
            diag1.append(base + alpha)
            diag2.append(base + alpha + alpha * rho)
        a1 = _diagonal(Queer(n), ANY, diag1)
        a2 = _diagonal(Queer(n), ANY, diag2)
        if a1.tau_values(2 * n) != a2.tau_values(2 * n):
            return "soul shift changed an odd moment"
        if not indistinguishable(a1, a2):
            return "equivalent pair declared distinguishable"
        if not _corpus_agrees(corpora[n], a1, a2):
            return "evaluations differ on an equivalent pair"
        return None

    def odd_value_pairs(t, rng):
        # equal supertrace and cubed supertrace force equal invariants
        gq = 3
        gamma = GrassmannScalar.generator(gq, 1)
        eps = GrassmannScalar.generator(gq, 2)
        g0 = rng.randint(1, 4)
        a1 = SuperMatrix(Standard(1, 1), ODD,
                         [[gamma, GrassmannScalar.rational(gq, g0)],
                          [GrassmannScalar.one(gq), GrassmannScalar.zero(gq)]])
        a2 = SuperMatrix(Standard(1, 1), ODD,
                         [[gamma, GrassmannScalar.rational(gq, g0) + eps * gamma],
                          [GrassmannScalar.one(gq), GrassmannScalar.zero(gq)]])
        if a1.supertrace() != a2.supertrace():
            return "supertraces differ"
        if (a1 ** 3).supertrace() != (a2 ** 3).supertrace():
            return "cubed supertraces differ"
        if not indistinguishable(a1, a2):
            return "matched odd pair declared distinguishable"
        if not _corpus_agrees(corpora[1], a1, a2):
            return "evaluations differ on a matched odd pair"
        return None

    def mismatched_pairs(t, rng):
        n = rng.randint(1, 3)
        gq = rng.choice([2, 3])
        eigs1 = pick_distinct(rng, n, nonzero=True)
        eigs2 = list(eigs1)
        eigs2[rng.randrange(n)] += 13
        if len(set(eigs2)) != n:
            return None
        a1 = random_queer_with_spectrum(n, eigs1, gq, rng.randrange(1 << 30))
        a2 = random_queer_with_spectrum(n, eigs2, gq, rng.randrange(1 << 30))
        if indistinguishable(a1, a2):
            return "different spectra not distinguished"
        rows = [list(row) for row in a1.rows]
        rows[0][0] = rows[0][0] + GrassmannScalar.generator(gq, 1)
        a3 = SuperMatrix(Queer(n), ANY, rows)
        if a3.tau_values(2 * n) != a1.tau_values(2 * n) and indistinguishable(a1, a3):
            return "different moments not distinguished"
        return None

    def truncation(t, rng):
        # moments beyond 2n do not carry extra information
        n = rng.randint(2, 3)
        gq = 4
        eigs = pick_distinct(rng, n, nonzero=True)
        diag1, diag2 = [], []
        for i in range(n):
            alpha = GrassmannScalar.generator(gq, i + 1)
            other = GrassmannScalar.generator(gq, ((i + 1) % n) + 1)
            base = GrassmannScalar.rational(gq, eigs[i])
            diag1.append(base + alpha)
            diag2.append(base + alpha + alpha * other * rng.randint(1, 3))
        a1 = _diagonal(Queer(n), ANY, diag1)
        a2 = _diagonal(Queer(n), ANY, diag2)
        if a1.tau_values(2 * n) != a2.tau_values(2 * n):
            return None
        if not _corpus_agrees(corpora[n], a1, a2):
            return "matching first 2n moments but different evaluations"
        return None

    def product_vanishing(t, rng):
        n = rng.randint(1, 2)
        gq = rng.choice([3, 4])
        a = _queer_sample(rng, n, gq)
        taus = a.tau_values(2 * n + 1)
        for tup in combinations(range(1, 2 * n + 2), n + 1):
            if not reduce(mul, [taus[i - 1] for i in tup]).is_zero():
                return "moment product of length n+1 is nonzero"
        return None

    return [("conjugate-pairs-indistinguishable", 0, None, matched_pairs),
            ("soul-shifted-pairs-indistinguishable", 1, None, soul_shifted_pairs),
            ("odd-pairs-with-equal-moments", 2, None, odd_value_pairs),
            ("mismatched-pairs-distinguished", 3, None, mismatched_pairs),
            ("moment-truncation-sufficiency", 4, None, truncation),
            ("moment-products-vanish-on-matrices", 5, None, product_vanishing)]


def suite_sec_5_1(seed):
    def diagonal_qet(t, rng):
        n = rng.randint(1, 3)
        gq = max(n, rng.choice([2, 3, 4]))
        eigs = pick_distinct(rng, n, nonzero=True)
        avals = [GrassmannScalar.rational(gq, e) for e in eigs]
        alphas = [GrassmannScalar.generator(gq, (i % gq) + 1) * (rng.randint(-2, 2) or 1)
                  for i in range(n)]
        a = _diagonal(Queer(n), ANY, [a_i + alpha_i for a_i, alpha_i in zip(avals, alphas)])
        want = GrassmannScalar.zero(gq)
        for a_i, alpha_i in zip(avals, alphas):
            want = want + alpha_i * a_i.invert()
        if a.qet() != want:
            return "qet differs from the diagonal formula"
        return None

    def n2_identity(t, rng):
        gq = rng.choice([2, 3, 4])
        a = _queer_sample(rng, 2, gq)
        s = compute_s(a)
        taus = a.tau_values(2)
        lhs = a.qet()
        rhs = (taus[0] * s[0] - taus[1]) * (-s[1]).invert()
        if lhs != rhs:
            return "closed two-variable identity fails"
        return None

    def queer_series(t, rng):
        n = rng.randint(1, 3)
        gq = rng.choice([2, 3])
        a = _queer_sample(rng, n, gq)
        count = 2 * n
        coeffs = qet_generating_coefficients(a, count)
        taus = a.tau_values(count)
        for j in range(count):
            if coeffs[j] != -taus[j]:
                return "coefficient %d is not minus the moment" % (j + 1)
        return None

    def odd_series(t, rng):
        n = rng.randint(1, 2)
        gq = rng.choice([2, 3])
        a = _odd_sample(rng, n, gq)
        count = 2 * n
        coeffs = qet_generating_coefficients(a, 2 * count)
        taus = a.tau_values(count)
        for j in range(1, 2 * count + 1):
            if j % 2 == 1:
                if not coeffs[j - 1].is_zero():
                    return "odd-order coefficient %d is nonzero" % j
            else:
                k = j // 2
                if coeffs[j - 1] != -(2 * k - 1) * taus[k - 1]:
                    return "even-order coefficient %d differs" % j
        return None

    return [("diagonal-qet-formula", 0, None, diagonal_qet),
            ("qet-two-variable-identity", 1, None, n2_identity),
            ("queer-generating-coefficients", 2, None, queer_series),
            ("odd-generating-coefficients", 3, None, odd_series)]


def suite_sec_5_2(seed):
    def beta_zero(t, rng):
        gq = rng.choice([2, 3])
        eigs = pick_distinct(rng, 2)
        b = SuperMatrix.from_rationals(Queer(2), ANY, [[eigs[0], rng.randint(-3, 3)],
                                                       [0, eigs[1]]], gq)
        s = q2_closed_form(b)
        if s[0] != eigs[0] + eigs[1]:
            return "first value is not the trace"
        if s[1] != -eigs[0] * eigs[1]:
            return "second value is not minus the determinant"
        return None

    def residuals(t, rng):
        gq = rng.choice([3, 4])
        a = _queer_sample(rng, 2, gq, soul_terms=2)
        s = q2_closed_form(a)
        if not verify_recurrence(a.tau_values(4), s):
            return "closed form fails the recurrence"
        s_spec = compute_s(a)
        if [v.body() for v in s] != [v.body() for v in s_spec]:
            return "bodies disagree with the spectral route"
        return None

    def zero_discriminant(t, rng):
        gq = 2
        b = SuperMatrix.from_rationals(Queer(2), ANY, [[1, 0], [0, 1]], gq)
        try:
            q2_closed_form(b)
        except ZeroDiscriminant:
            return None
        return "zero discriminant accepted"

    return [("vanishing-odd-part", 0, None, beta_zero),
            ("closed-form-contract", 1, None, residuals),
            ("zero-discriminant-rejected", 2, 1, zero_discriminant)]


def suite_sec_5_3_1(seed):
    def displayed(t, rng):
        n = rng.randint(1, 2)
        gq = rng.choice([2, 3, 4])
        a = random_commuting_odd_pair(n, gq, rng.randrange(1 << 30))
        x, y, _z, _t = a.blocks()
        if antidiagonalize(a).assembled().blocks()[1] != y + x @ x:
            return "upper block is not y plus x squared"
        return None

    def round_trip(t, rng):
        n = rng.randint(1, 2)
        gq = rng.choice([2, 3])
        if rng.random() < 0.5:
            base = random_commuting_odd_pair(n, gq, rng.randrange(1 << 30))
        else:
            y, z = [], []
            for _ in range(n):
                y.append([random_scalar(rng, gq, 3, parity=EVEN, max_terms=1) for _ in range(n)])
                z.append(GrassmannScalar.rational(gq, rng.randint(1, 3)))
            zero = SuperMatrix.zeros(Queer(n), gq)
            base = SuperMatrix.from_blocks(ODD, zero, SuperMatrix(Queer(n), ANY, y),
                                           _diagonal(Queer(n), ANY, z), zero)
        h = random_sector_conjugator(n, gq, rng.randrange(1 << 30))
        a = base.conjugate(h)
        x, _y, z, t = antidiagonalize(a).assembled().blocks()
        if not (x.is_zero() and t.is_zero()):
            return "diagonal blocks are nonzero"
        if not z.is_identity():
            return "lower-left block is not the identity"
        return None

    return [("displayed-identity", 0, None, displayed),
            ("antidiagonal-round-trip", 1, None, round_trip)]


def suite_thm_4_6(seed):
    def constancy(t, rng):
        n = rng.randint(1, 3)
        gq = rng.choice([2, 3, 4])
        a = random_locus_member(n, gq, rng.randrange(1 << 30))
        values = l_invariants(a)
        if l_invariants(_conjugated(rng, a)) != values:
            return "locus invariants moved under conjugation"
        return None

    def rejection(t, rng):
        gq = 2
        x1 = GrassmannScalar.generator(gq, 1)
        a = SuperMatrix(Queer(1), ANY, [[GrassmannScalar.rational(gq, 2) + x1]])
        try:
            l_invariants(a)
        except NotInL as exc:
            if exc.index == 1:
                return None
            return "wrong first nonzero index"
        return "matrix outside the locus accepted"

    return [("locus-invariants-constant", 0, None, constancy),
            ("outside-locus-rejected", 1, 1, rejection)]


SUITES = {
    "grassmann": suite_grassmann,
    "invariance": suite_invariance,
    "thm-1.3": suite_thm_1_3,
    "lemma-3.2": suite_lemma_3_2,
    "thm-3.2": suite_thm_3_2,
    "thm-3.3": suite_thm_3_3,
    "eq-4.1": suite_eq_4_1,
    "thm-4.5": suite_thm_4_5,
    "cor-4.5": suite_cor_4_5,
    "sec-5.1": suite_sec_5_1,
    "sec-5.2": suite_sec_5_2,
    "sec-5.3.1": suite_sec_5_3_1,
    "thm-4.6": suite_thm_4_6,
}


def run_suite(name, seed, trials):
    """Run one suite (or "all"); returns the list of claim records.

    Each suite's claims run from its base seed: `seed` for a single suite,
    and seed + 1000 * (index in sorted order) within "all", so a suite run
    on its own at that seed reproduces its slice of "all".
    """
    if not is_int(seed):
        raise ValidationError("seed must be an integer")
    if not is_int(trials) or trials < 1:
        raise ValidationError("trials must be an integer >= 1")
    if name != "all" and name not in SUITES:
        raise ValidationError("unknown suite %r" % name)
    records = []
    for idx, key in enumerate(sorted(SUITES)):
        if name not in ("all", key):
            continue
        base = seed + 1000 * idx if name == "all" else seed
        for claim, offset, cap, one_trial in SUITES[key](base):
            record = _run_trials(claim, trials if cap is None else min(trials, cap),
                                 base + offset, one_trial)
            record["suite"] = key
            records.append(record)
    return records
