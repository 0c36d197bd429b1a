"""Canonical forms of matrices over the Grassmann algebra.

The reduction runs in two stages.  The body stage works over the rationals:
generalized eigenspaces of the body group the indices into a partition, one
part per eigenvalue.  The nilpotent stage then removes cross-partition terms
degree by degree: at filtration level d every cross entry is supported on
monomials of degree >= d, and conjugating by 1 + D pushes the support to
degree d + 1.  The Sylvester operators are rational, so each ordered pair of
parts solves level d in the ring core: each cell of D is one sum of the
pair's degree-d cell parts scaled by a row of the pair's inverse operator.
After q levels the cross terms vanish identically.  Each step is inverted
by its finite series in -D on integer numerators
(`supermatrix._inverse_series`).  Above d = q/2 the steps square to zero,
so the series is 1 - D with no product, and any two multiply to zero, so
the conjugator takes them all in one product by 1 + their sum.  The matrix and
its conjugator are converted once into integer grids, term dicts over one
denominator (`supermatrix._term_rows`' form).  Every level is read,
conjugated and extended on them (`supermatrix._integer_conjugate` and
`_integer_product`), each product and series power on the kernel
`supermatrix._route` picks for its two factors, and they become scalars
once, after the last level.

One body stage serves both shapes: a queer body is a single half, a standard
body the two halves X and T.  reduce_odd checks its input with the one rule
for diagonal data, _eligible_spectrum, grounds both halves of its square's
body stage on that spectrum, and refines A itself: A's body commutes with its
square's, so on the part for eigenvalue lam it is a block (0 y; z 0) with
yz = lam and eigenvalues +-sqrt(lam), and distinct lam keep the Sylvester
steps solvable over Q even when sqrt(lam) is irrational or imaginary.  Both
odd forms, (R T; 1 0) and (0 Y; 1 0), end in the one lower-identity step:
conjugation of (X Y; Z T) by (1 -Z^-1 T Z; 0 Z).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from . import linalg
from .errors import (
    InternalError,
    MultipleEigenvalue,
    NonSplitting,
    NotBlockDiagonalSquare,
    ShapeMismatch,
    SharedEigenvalue,
    SingularBody,
    SingularZ,
    ValidationError,
    ZeroEigenvalue,
)
from .grassmann import (
    GrassmannScalar,
    common_denominator,
    is_coeff,
    is_int,
    parse_coeff,
    ratio_text,
    reduced_scalar,
)
from .supermatrix import (
    _PARITIES,
    EVEN,
    ODD,
    GroupElement,
    Queer,
    Standard,
    SuperMatrix,
    _integer_conjugate,
    _integer_product,
    _inverse_series,
    _reduced_matrix,
    _term_rows,
    to_plain,
)


@dataclass(frozen=True)
class RationalSpectrum:
    """Eigenvalues with algebraic multiplicities, sorted ascending."""

    pairs: tuple


def rational_spectrum(rows):
    """All eigenvalues of an exact rational matrix, with multiplicity.

    Raises NonSplitting with the irreducible residual factor when the
    characteristic polynomial has an irrational root.
    """
    _exact_grid(rows)
    coeffs = linalg.charpoly(rows)
    roots, residual = linalg.rational_roots(coeffs)
    if residual is not None:
        raise NonSplitting("characteristic polynomial does not split over the rationals",
                           residual=residual)
    return RationalSpectrum(tuple(roots))


def _exact_grid(rows, shape=None):
    """Check that rows is a grid of ints and Fractions, (r, c) = shape or
    square when shape is None, and return its row count r."""
    try:
        r = len(rows)
        want = shape or (r, r)
        fits = r == want[0] and all(len(row) == want[1] for row in rows)
    except TypeError:
        fits = False
    if not fits:
        raise ShapeMismatch("expected a %s matrix" % ("%d x %d" % shape if shape else "square"))
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            if not is_coeff(x):
                raise ValidationError("matrix entries must be ints or Fractions", cell=(i + 1, j + 1))
    return r


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


def _eligible_spectrum(a):
    """The relevant body's spectrum, which must be simple, and nonzero for an
    odd matrix; the first sorted eigenvalue that fails decides the error."""
    spectrum = rational_spectrum(_relevant_body(a))
    queer = isinstance(a.shape, Queer)
    for lam, mult in spectrum.pairs:
        if lam == 0 and not queer:
            raise ZeroEigenvalue("the square's body has a zero eigenvalue")
        if mult != 1:
            raise MultipleEigenvalue("%s has a repeated eigenvalue"
                                     % ("body" if queer else "the square's body"))
    return spectrum


def solve_sylvester(b, d, r):
    """Unique rational X with bX - Xd = r, for disjoint spectra of b and d."""
    n1 = _exact_grid(b)
    n2 = _exact_grid(d)
    _exact_grid(r, (n1, n2))
    x = linalg.matvec(_sylvester_inverse(b, d), [r[i][j] for j in range(n2) for i in range(n1)])
    return [[x[j * n1 + i] for j in range(n2)] for i in range(n1)]


def _sylvester_inverse(b, d):
    """Inverse of the operator X -> bX - Xd; SharedEigenvalue if it is singular."""
    inv = linalg.inverse(_sylvester_operator(b, d))
    if inv is None:
        raise SharedEigenvalue("the two coefficient matrices share an eigenvalue")
    return inv


def _sylvester_operator(b, d):
    # matrix of X -> bX - Xd on column-stacked X: cell (i, j) is entry j * n1 + i
    n1 = len(b)
    n2 = len(d)
    size = n1 * n2
    kron = [[0] * size for _ in range(size)]
    for i in range(n1):
        for j in range(n2):
            row = j * n1 + i
            for k in range(n1):
                kron[row][j * n1 + k] += b[i][k]
            for l in range(n2):
                kron[row][l * n1 + i] -= d[l][j]
    return kron


@dataclass
class SpectralDecomposition:
    """Conjugator plus the per-eigenvalue blocks it produces.

    conjugator^-1 @ A @ conjugator equals the assembly of the blocks over the
    partition, entry for entry; `verify` checks it as A @ conjugator =
    conjugator @ assembly.  For odd-matrix reductions the recorded eigenvalue
    is the body eigenvalue of the block's square.
    """

    conjugator: GroupElement
    blocks: list
    partition: list
    parity: str

    def assembled(self):
        g = self.conjugator.matrix
        zero = GrassmannScalar.zero(g.gq)
        grid = [[zero] * g.dim for _ in range(g.dim)]
        for part, (_lam, block) in zip(self.partition, self.blocks):
            for a, i in enumerate(part):
                for b, j in enumerate(part):
                    grid[i - 1][j - 1] = block.rows[a][b]
        return SuperMatrix(g.shape, self.parity, grid)

    def verify(self, a):
        # g^-1 A g = D exactly when A g = g D, since g's body is invertible
        g = self.conjugator.matrix
        return a @ g == g @ self.assembled()

    def _fields(self):
        """The JSON layout one level deep: the matrices stay objects."""
        return {
            "conjugator": self.conjugator.matrix,
            "parity": self.parity,
            "partition": self.partition,
            "blocks": [
                {"eigenvalue": None if lam is None else ratio_text(lam.numerator, lam.denominator),
                 "block": block}
                for lam, block in self.blocks
            ],
        }

    def to_obj(self):
        return to_plain(self._fields())

    @classmethod
    def from_obj(cls, obj):
        if not isinstance(obj, dict):
            raise ValidationError("decomposition object must be a JSON object")
        for field in ("conjugator", "parity", "partition", "blocks"):
            if field not in obj:
                raise ValidationError("decomposition object missing field %r" % field)
        try:
            conjugator = GroupElement(SuperMatrix.from_obj(obj["conjugator"]))
        except SingularBody as exc:
            raise ValidationError("decomposition conjugator is not invertible: %s" % exc) from exc
        partition = obj["partition"]
        if not isinstance(partition, list) or not all(
            isinstance(part, list) and all(is_int(i) and i >= 1 for i in part)
            for part in partition
        ):
            raise ValidationError("partition must be lists of 1-based indices")
        if not isinstance(obj["blocks"], list):
            raise ValidationError("decomposition field 'blocks' must be a list")
        blocks = []
        for item in obj["blocks"]:
            if not isinstance(item, dict) or "block" not in item:
                raise ValidationError("decomposition block must be an object with a 'block' field")
            lam = item.get("eigenvalue")
            lam = None if lam is None else parse_coeff(lam)
            blocks.append((lam if lam is None else Fraction(lam), SuperMatrix.from_obj(item["block"])))
        parity = obj["parity"]
        if parity not in _PARITIES:
            raise ValidationError("parity must be 'even', 'odd' or 'any'")
        dim = conjugator.matrix.dim
        seen = sorted(i for part in partition for i in part)
        if seen != list(range(1, dim + 1)):
            raise ValidationError("partition must cover 1..%d exactly once" % dim)
        if len(blocks) != len(partition):
            raise ValidationError("%d blocks for %d partition parts"
                                  % (len(blocks), len(partition)))
        for part, (_lam, block) in zip(partition, blocks):
            if block.dim != len(part):
                raise ValidationError("a block of dimension %d for a part of size %d"
                                      % (block.dim, len(part)))
            if block.gq != conjugator.matrix.gq:
                raise ValidationError("a block's grassmann_q differs from the conjugator's")
            if block.parity != parity:
                raise ValidationError("a block's parity label differs from the decomposition's")
        return cls(conjugator, blocks, partition, parity)


# ----------------------------------------------------------------------
# body stage


def _grouped_basis(body, spectrum):
    """Columns grouping the generalized eigenspaces, eigenvalue-sorted."""
    n = len(body)
    columns = []
    for lam, mult in spectrum.pairs:
        shifted = [[body[i][j] - (lam if i == j else 0) for j in range(n)] for i in range(n)]
        power = shifted
        for _ in range(mult - 1):
            power = linalg.matmul(power, shifted)
        basis = linalg.nullspace(power)
        if len(basis) != mult:  # dim ker (B - lam)^mult is mult for correct code
            raise InternalError(
                "generalized eigenspace dimension %d does not match multiplicity %d"
                % (len(basis), mult)
            )
        columns.extend(basis)
    return [[columns[c][i] for c in range(n)] for i in range(n)]


def _body_stage(shape, body, gq, spectrum=None):
    """Rational conjugator grouping body eigenvalues, with its partition data.

    The body splits into the halves (0, split) and (split, dim): a queer body
    is one half, a standard one the X and T halves.  Each half is grouped by
    its own spectrum, or by one given for both, and one eigenvalue's indices
    in both halves form a part.
    """
    queer = isinstance(shape, Queer)
    dim = len(body)
    split = dim if queer else shape.p
    p_rows = [[0] * dim for _ in range(dim)]
    mults = []
    for lo, hi in ((0, split), (split, dim)):
        half = [row[lo:hi] for row in body[lo:hi]]
        spec = spectrum or rational_spectrum(half)
        mults.append(dict(spec.pairs))
        for i, row in enumerate(_grouped_basis(half, spec)):
            p_rows[lo + i][lo:hi] = row
    mult_x, mult_t = mults
    eigs = sorted(set(mult_x) | set(mult_t))
    parts = []
    block_shapes = []
    off_x = 0
    off_t = split
    for lam in eigs:
        mx = mult_x.get(lam, 0)
        mt = mult_t.get(lam, 0)
        parts.append(list(range(off_x, off_x + mx)) + list(range(off_t, off_t + mt)))
        block_shapes.append(Queer(mx) if queer else Standard(mx, mt))
        off_x += mx
        off_t += mt
    parity = shape.group_parity
    conj = SuperMatrix.from_rationals(shape, parity, p_rows, gq)
    # the generalized eigenspaces span the body, so p_rows is invertible
    conj_inv = SuperMatrix.from_rationals(shape, parity, linalg.inverse(p_rows), gq)
    return GroupElement(conj, _inverse=conj_inv), parts, eigs, block_shapes


# ----------------------------------------------------------------------
# nilpotent stage


def _cross_cells(parts, dim):
    """Row-major (i, j) cells off the partition's blocks."""
    owner = [None] * dim
    for r, part in enumerate(parts):
        for i in part:
            owner[i] = r
    return [(i, j) for i in range(dim) for j in range(dim) if owner[i] != owner[j]]


def _cross_terms(parts, m):
    """Row-major (i, j) cells of m's nonzero entries off the partition's blocks."""
    return [(i, j) for i, j in _cross_cells(parts, m.dim) if m.rows[i][j].num]


def _lower_identity_step(a):
    """The conjugator h = (1 C; 0 Z), C = -Z^-1 T Z, of an odd square (X Y; Z T).

    h^-1 a h has lower blocks (1 0) and upper-left block X + Z^-1 T Z.  Z is
    inverted as an n x n matrix, so a singular body raises SingularBody.
    """
    _x, _y, z, t = a.blocks()
    zinv = z.invert()
    zinv_t = zinv @ t
    one = SuperMatrix.identity(z.shape, a.gq)
    zero = SuperMatrix.zeros(z.shape, a.gq)
    return GroupElement(SuperMatrix.from_blocks(EVEN, one, -(zinv_t @ z), zero, z),
                        _inverse=SuperMatrix.from_blocks(EVEN, one, zinv_t, zero, zinv))


def _require_odd_square(a):
    if not (isinstance(a.shape, Standard) and a.shape.p == a.shape.q):
        raise ShapeMismatch("input must be a standard square matrix")
    if a.parity != ODD:
        raise ShapeMismatch("input must have odd parity class")


def _refine(m, parts, g, filtration_log=None):
    """Remove cross-partition terms degree by degree; exact conjugators.

    Returns the refined m and the conjugator matrix g times every step; each
    step 1 + D is inverted by `_inverse_series`, and g takes the steps above
    level gq / 2 in one product by 1 plus their sum, as any two of them
    multiply to 0.  The body blocks of m on distinct
    parts must have disjoint spectra.  At each level every ordered pair
    (r, s) of parts with cross terms of that degree solves in the ring core:
    with the pair's cells column-stacked (j outer, i inner), cell c of the
    step D is minus the combination of the cells' degree-level parts weighted
    by row c of the inverse Sylvester operator of the pair's body blocks, one
    `_sum` of scaled scalars.

    m and g are converted once into term dicts over one denominator
    (`_term_rows`' form); every level reads, conjugates and extends them by
    steps kept in the same form, each product and series power on the
    kernel `supermatrix._route` picks for its two factors, and they become
    scalars once, at the end.
    """
    gq = m.gq
    dim = m.dim
    body = m.body_rows()
    body_blocks = [[[body[i][j] for j in part] for i in part] for part in parts]
    cross = _cross_cells(parts, dim)
    inverses = {}
    shape = m.shape
    zero = GrassmannScalar.zero(gq)
    one = GrassmannScalar.one(gq)
    m_parity, g_parity = m.parity, g.parity
    m, g = _term_rows(m), _term_rows(g)
    batched = {}  # cell -> the solved values of the steps above gq / 2
    for level in range(1, gq + 1):
        m_den, m_rows = m
        cross_min = min(map(int.bit_count, chain.from_iterable(m_rows[i][j] for i, j in cross)),
                        default=None)
        if filtration_log is not None:
            filtration_log.append(cross_min)
        if cross_min is None:
            break
        if cross_min < level:
            raise InternalError(
                "filtration contract violated: cross term of degree %d at level %d"
                % (cross_min, level)
            )
        # one scalar per cross cell: its pair's inverse row against minus the
        # degree-level parts of the pair's cells
        solved = {}
        for r, part_r in enumerate(parts):
            for s, part_s in enumerate(parts):
                if r == s:
                    continue
                cells = [(i, j) for j in part_s for i in part_r]
                rhs = [reduced_scalar(gq, {k: c for k, c in m_rows[i][j].items()
                                           if k.bit_count() == level}, m_den)
                       for i, j in cells]
                if not any(y.num for y in rhs):
                    continue
                if (r, s) not in inverses:
                    inverses[r, s] = _sylvester_inverse(body_blocks[r], body_blocks[s])
                for cell, row in zip(cells, inverses[r, s]):
                    solved[cell] = zero._sum([y._scale(-w) for w, y in zip(row, rhs)
                                              if w and y.num])
        if not solved:
            continue
        grid = [[solved.get((i, j), zero) for j in range(dim)] for i in range(dim)]
        # the SuperMatrix checks delta's parity class; delta lives on cross
        # cells only, so 1 + delta is its rows with den on the diagonal; it
        # has degree >= level, so its powers past gq // level vanish, and
        # above gq / 2 the series is 1 - delta, with no product
        den, rows = _term_rows(SuperMatrix(shape, shape.group_parity, grid))
        h = den, [[{0: den} if i == j else t for j, t in enumerate(row)]
                  for i, row in enumerate(rows)]
        if 2 * level > gq:
            # g takes this step with the batch below
            for cell, x in solved.items():
                batched.setdefault(cell, []).append(x)
        else:
            g = _integer_product(gq, g, h)
        m = _integer_conjugate(gq, m, h, _inverse_series(den, rows, gq, gq // level))
    if batched:
        # any product of two steps above gq / 2 has degree > gq, so together
        # they are 1 + their sum: one extension of g for all of them
        den, nums = common_denominator([zero._sum(batched.get((i, j), [one] if i == j else []))
                                        for i in range(dim) for j in range(dim)])
        g = _integer_product(gq, g, (den, [nums[i:i + dim] for i in range(0, len(nums), dim)]))
    m, g = _reduced_matrix(shape, m_parity, gq, *m), _reduced_matrix(shape, g_parity, gq, *g)
    if _cross_terms(parts, m):
        raise InternalError("cross terms survived the filtration")
    return m, g


def _decomposition(m, g, parts, eigs, shapes, parity):
    """Every reduction's result: m's block on each part, the partition
    numbered from 1, and the conjugator matrix g in its one GroupElement."""
    blocks = [(lam, m.submatrix(part, part, shape, parity))
              for part, lam, shape in zip(parts, eigs, shapes)]
    partition = [[i + 1 for i in part] for part in parts]
    return SpectralDecomposition(GroupElement(g), blocks, partition, parity)


def block_diagonalize(a, filtration_log=None):
    """Group a queer or even standard matrix into per-eigenvalue blocks.

    The body's characteristic polynomial must split over the rationals; the
    optional filtration_log collects the minimal cross-term degree seen at
    each nilpotent level.
    """
    if a.parity != a.shape.group_parity:
        raise ShapeMismatch("standard-shaped input must have even parity class")
    g0, parts, eigs, block_shapes = _body_stage(a.shape, a.body_rows(), a.gq)
    m, g = _refine(a.conjugate(g0), parts, g0.matrix, filtration_log=filtration_log)
    return _decomposition(m, g, parts, eigs, block_shapes, a.parity)


def diagonalize(a):
    """Full diagonalization; body eigenvalues must be pairwise distinct."""
    dec = block_diagonalize(a)
    for part in dec.partition:
        if len(part) != 1:
            raise MultipleEigenvalue("body has a repeated eigenvalue; blocks stay %d-dimensional" % len(part))
    return dec


def reduce_odd(a):
    """Reduce an odd standard square matrix to the paired canonical form.

    The square's body must have pairwise distinct nonzero rational
    eigenvalues.  The result assembles to rows (R T; 1 0) with R odd diagonal
    and T even diagonal.
    """
    _require_odd_square(a)
    n = a.shape.p
    spectrum = _eligible_spectrum(a)
    body = a.body_rows()
    # For A = (X Y; Z T) the square's body is diag(b(Y)b(Z), b(Z)b(Y)), and YZ
    # and ZY share a characteristic polynomial: both halves have one spectrum
    g0, parts, eigs, block_shapes = _body_stage(a.shape, linalg.matmul(body, body), a.gq, spectrum)
    if any(len(part) != 2 or part[0] + n != part[1] for part in parts):
        raise InternalError("unexpected partition for an odd reduction")
    # A's body commutes with its square's: its block on lam has eigenvalues
    # +-sqrt(lam), disjoint across parts, so the Sylvester steps refine A itself
    m, g = _refine(a.conjugate(g0), parts, g0.matrix)
    # Z and T of m are diagonal, so the step's upper-right block is -T
    step = _lower_identity_step(m)
    dec = _decomposition(m.conjugate(step), g @ step.matrix, parts, eigs, block_shapes, ODD)
    for _lam, block in dec.blocks:
        if block.rows[1][0] != 1 or not block.rows[1][1].is_zero():
            raise InternalError("block did not reach the (R T; 1 0) form")
    return dec


def antidiagonalize(a):
    """Conjugate an odd matrix with block-diagonal square to (0 Y; 1 0) form.

    Returns one block spanning all indices: g^-1 a g antidiagonal with
    identity lower-left block, with no eigenvalue attached.
    """
    _require_odd_square(a)
    n = a.shape.p
    cross = _cross_terms([range(n), range(n, 2 * n)], a @ a)
    if cross:
        raise NotBlockDiagonalSquare("the square has a nonzero off-diagonal block at (%d, %d)"
                                     % (cross[0][0] + 1, cross[0][1] + 1))
    # a block-diagonal square has ZX + TZ = 0, so the step is (1 X; 0 Z)
    try:
        g = _lower_identity_step(a)
    except SingularBody:
        raise SingularZ("the lower-left block has a singular body") from None
    final = a.conjugate(g)
    x, _y, z, t = final.blocks()
    if not (x.is_zero() and t.is_zero()):
        raise InternalError("diagonal blocks survived")
    if not z.is_identity():
        raise InternalError("lower-left block is not the identity")
    return _decomposition(final, g.matrix, [range(a.dim)], [None], [a.shape], ODD)
