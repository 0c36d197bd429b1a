"""Canonical forms of matrices over the Grassmann algebra.

The reduction runs in two stages.  The body stage works over the rationals:
generalized eigenspaces of the body group the indices into a partition, one
part per eigenvalue.  The nilpotent stage then removes cross-partition terms
degree by degree: at filtration level d every cross entry is supported on
monomials of degree >= d, and conjugating by 1 + D with D solving the
per-monomial Sylvester equations pushes the support to degree d + 1.  After q
levels the cross terms vanish identically.

One body stage serves both shapes: a queer body is a single half, a standard
body the two halves X and T.  reduce_odd reads its preconditions off the
block reduction of its square instead of computing the square's spectrum
twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .errors import (
    InternalError,
    MultipleEigenvalue,
    NonSplitting,
    NotBlockDiagonalSquare,
    ShapeMismatch,
    SharedEigenvalue,
    SingularZ,
    ValidationError,
    ZeroEigenvalue,
)
from .grassmann import GrassmannScalar, coeff_text, geometric_sum, is_int, parse_coeff
from .supermatrix import _PARITIES, EVEN, ODD, GroupElement, Queer, Standard, SuperMatrix


@dataclass(frozen=True)
class RationalSpectrum:
    """Eigenvalues with algebraic multiplicities, sorted ascending."""

    pairs: tuple

    def is_simple(self):
        return all(m == 1 for _, m in self.pairs)


def rational_spectrum(rows):
    """All eigenvalues of an exact rational matrix, with multiplicity.

    Raises NonSplitting with the irreducible residual factor when the
    characteristic polynomial has an irrational root.
    """
    coeffs = linalg.charpoly(rows)
    roots, residual = linalg.rational_roots(coeffs)
    if residual is not None:
        raise NonSplitting(
            "characteristic polynomial does not split over the rationals",
            residual=[Fraction(c) for c in residual],
        )
    return RationalSpectrum(tuple(sorted(roots)))


def solve_sylvester(b, d, r):
    """Unique rational X with bX - Xd = r, for disjoint spectra of b and d."""
    return _PairSolvers([b, d]).solve(0, 1, r)


def _sylvester_operator(b, d):
    # column-stacked matrix of X -> bX - Xd
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
    partition, entry for entry.  For odd-matrix reductions the recorded
    eigenvalue is the body eigenvalue of the block's square.
    """

    conjugator: GroupElement
    blocks: list
    partition: list
    parity: str

    @property
    def shape(self):
        return self.conjugator.matrix.shape

    @property
    def gq(self):
        return self.conjugator.matrix.gq

    def assembled(self):
        shape = self.shape
        gq = self.gq
        zero = GrassmannScalar.zero(gq)
        grid = [[zero] * shape.dim for _ in range(shape.dim)]
        for part, (_lam, block) in zip(self.partition, self.blocks):
            for a, i in enumerate(part):
                for b, j in enumerate(part):
                    grid[i - 1][j - 1] = block.rows[a][b]
        return SuperMatrix(shape, self.parity, grid)

    def verify(self, a):
        return a.conjugate(self.conjugator) == self.assembled()

    def to_obj(self):
        return {
            "conjugator": self.conjugator.matrix.to_obj(),
            "parity": self.parity,
            "partition": [list(part) for part in self.partition],
            "blocks": [
                {
                    "eigenvalue": None if lam is None else coeff_text(lam),
                    "block": block.to_obj(),
                }
                for lam, block in self.blocks
            ],
        }

    @classmethod
    def from_obj(cls, obj):
        if not isinstance(obj, dict):
            raise ValidationError("decomposition object must be a JSON object")
        for field in ("conjugator", "parity", "partition", "blocks"):
            if field not in obj:
                raise ValidationError("decomposition object missing field %r" % field)
        conjugator = GroupElement(SuperMatrix.from_obj(obj["conjugator"]))
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
        return cls(conjugator, blocks, partition, parity)


# ----------------------------------------------------------------------
# body stage


def _grouped_basis(body, spectrum):
    """Columns grouping the generalized eigenspaces, eigenvalue-sorted."""
    n = len(body)
    columns = []
    for lam, mult in spectrum.pairs:
        shifted = [[body[i][j] - (lam if i == j else 0) for j in range(n)] for i in range(n)]
        power = linalg.identity(n)
        for _ in range(mult):
            power = linalg.matmul(power, shifted)
        basis = linalg.nullspace(power)
        if len(basis) != mult:
            raise MultipleEigenvalue(
                "generalized eigenspace dimension %d does not match multiplicity %d"
                % (len(basis), mult)
            )
        columns.extend(basis)
    return [[columns[c][i] for c in range(n)] for i in range(n)]


def _body_stage(a):
    """Rational conjugator grouping body eigenvalues; returns partition data.

    The body splits into the halves (0, split) and (split, dim): a queer body
    is one half, a standard one the X and T halves.  Each half is grouped by
    its own spectrum, and one eigenvalue's indices in both halves form a part.
    """
    queer = isinstance(a.shape, Queer)
    dim = a.dim
    split = dim if queer else a.shape.p
    body = a.body_rows()
    p_rows = [[0] * dim for _ in range(dim)]
    mults = []
    for lo, hi in ((0, split), (split, dim)):
        half = [row[lo:hi] for row in body[lo:hi]]
        spectrum = rational_spectrum(half) if half else RationalSpectrum(())
        mults.append(dict(spectrum.pairs))
        for i, row in enumerate(_grouped_basis(half, spectrum)):
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
    conj = SuperMatrix.from_rationals(a.shape, a.shape.group_parity, p_rows, a.gq)
    return conj, parts, eigs, block_shapes


# ----------------------------------------------------------------------
# nilpotent stage


class _PairSolvers:
    """Cached inverse Sylvester operators for ordered block pairs."""

    def __init__(self, body_blocks):
        self.body_blocks = body_blocks
        self._inv = {}

    def solve(self, r, s, rhs):
        key = (r, s)
        inv = self._inv.get(key)
        if inv is None:
            kron = _sylvester_operator(self.body_blocks[r], self.body_blocks[s])
            inv = linalg.inverse(kron)
            if inv is None:
                raise SharedEigenvalue("the two coefficient matrices share an eigenvalue")
            self._inv[key] = inv
        n1 = len(self.body_blocks[r])
        n2 = len(self.body_blocks[s])
        vec = [rhs[i][j] for j in range(n2) for i in range(n1)]
        x = linalg.matvec(inv, vec)
        return [[x[j * n1 + i] for j in range(n2)] for i in range(n1)]


def _cross_terms(parts, m):
    """The nonzero entries of m outside the diagonal blocks of the partition."""
    owner = [None] * m.dim
    for r, part in enumerate(parts):
        for i in part:
            owner[i] = r
    return [x for i, row in enumerate(m.rows) for j, x in enumerate(row)
            if owner[i] != owner[j] and x.terms]


def _identity_grid(a):
    """A fresh, mutable identity entry grid of a's shape and generator count."""
    return [list(row) for row in SuperMatrix.identity(a.shape, a.gq).rows]


def _require_odd_square(a):
    if not (isinstance(a.shape, Standard) and a.shape.p == a.shape.q):
        raise ShapeMismatch("input must be a standard square matrix")
    if a.parity != ODD:
        raise ShapeMismatch("input must have odd parity class")


def _refine(m, parts, filtration_log=None):
    """Remove cross-partition terms degree by degree; exact conjugators."""
    gq = m.gq
    dim = m.dim
    body = m.body_rows()
    body_blocks = [[[body[i][j] for j in part] for i in part] for part in parts]
    solvers = _PairSolvers(body_blocks)
    shape = m.shape
    ident = SuperMatrix.identity(shape, gq)
    g = GroupElement.identity(shape, gq)
    for level in range(1, gq + 1):
        cross = _cross_terms(parts, m)
        cross_min = min((x.min_degree() for x in cross), default=None)
        if filtration_log is not None:
            filtration_log.append(cross_min)
        if cross_min is None:
            break
        if cross_min < level:
            raise InternalError(
                "filtration contract violated: cross term of degree %d at level %d"
                % (cross_min, level)
            )
        masks = {mask for x in cross for mask in x.terms if mask.bit_count() == level}
        if not masks:
            continue
        zero = GrassmannScalar.zero(gq)
        delta = [[zero] * dim for _ in range(dim)]
        for mask in sorted(masks):
            for r, part_r in enumerate(parts):
                for s, part_s in enumerate(parts):
                    if r == s:
                        continue
                    rhs = [
                        [-m.rows[i][j].terms.get(mask, 0) for j in part_s]
                        for i in part_r
                    ]
                    if all(x == 0 for row in rhs for x in row):
                        continue
                    sol = solvers.solve(r, s, rhs)
                    for a, i in enumerate(part_r):
                        for b, j in enumerate(part_s):
                            if sol[a][b] != 0:
                                delta[i][j] = delta[i][j] + GrassmannScalar(
                                    gq, {mask: sol[a][b]}
                                )
        step = ident + SuperMatrix(shape, shape.group_parity, delta)
        # delta has degree >= level, so its powers past gq // level vanish
        inv = geometric_sum(ident, ident - step, gq // level)
        m = inv @ m @ step
        g = g.compose(GroupElement(step, inv, _trusted=True))
    if _cross_terms(parts, m):
        raise InternalError("cross terms survived the filtration")
    return m, g


def block_diagonalize(a, filtration_log=None):
    """Group a queer or even standard matrix into per-eigenvalue blocks.

    The body's characteristic polynomial must split over the rationals; the
    optional filtration_log collects the minimal cross-term degree seen at
    each nilpotent level.
    """
    if isinstance(a.shape, Standard):
        if a.parity != EVEN:
            raise ShapeMismatch("standard-shaped input must have even parity class")
    elif not isinstance(a.shape, Queer):
        raise ShapeMismatch("input must be queer or standard shaped")
    conj0, parts, eigs, block_shapes = _body_stage(a)
    g0 = GroupElement(conj0)
    m = a.conjugate(g0)
    m, g = _refine(m, parts, filtration_log=filtration_log)
    conjugator = g0.compose(g)
    blocks = []
    partition = []
    for part, lam, bshape in zip(parts, eigs, block_shapes):
        blocks.append((lam, m.submatrix(part, part, bshape, a.parity)))
        partition.append([i + 1 for i in part])
    return SpectralDecomposition(conjugator, blocks, partition, a.parity)


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
    dec2 = block_diagonalize(a @ a)
    # For A = (X Y; Z T) the square's body is diag(b(Y)b(Z), b(Z)b(Y)), and YZ
    # and ZY share a characteristic polynomial: both halves of the square's
    # body have one spectrum, so each eigenvalue's part is twice its multiplicity.
    for lam, block in dec2.blocks:
        if lam == 0:
            raise ZeroEigenvalue("the square's body has a zero eigenvalue")
        if block.dim != 2:
            raise MultipleEigenvalue("the square's body has a repeated eigenvalue")
    g1 = dec2.conjugator
    m = a.conjugate(g1)
    if _cross_terms([[i - 1 for i in part] for part in dec2.partition], m):
        raise InternalError("the matrix does not respect its square's blocks")
    h = _identity_grid(a)
    hinv = _identity_grid(a)
    blocks = []
    partition = []
    for r, part in enumerate(dec2.partition):
        if len(part) != 2 or part[0] + n != part[1]:
            raise InternalError("unexpected partition for an odd reduction")
        e, o = part[0] - 1, part[1] - 1
        t = m.rows[o][o]
        z = m.rows[o][e]
        zinv = z.invert()
        h[e][o] = -t
        h[o][o] = z
        hinv[e][o] = t * zinv
        hinv[o][o] = zinv
        partition.append(list(part))
    h_mat = SuperMatrix(a.shape, EVEN, h)
    h_inv = SuperMatrix(a.shape, EVEN, hinv)
    step = GroupElement(h_mat, h_inv)
    final = m.conjugate(step)
    lams = [lam for lam, _ in dec2.blocks]
    for r, part in enumerate(partition):
        e, o = part[0] - 1, part[1] - 1
        block = final.submatrix([e, o], [e, o], Standard(1, 1), ODD)
        if block.rows[1][0] != 1 or not block.rows[1][1].is_zero():
            raise InternalError("block did not reach the (R T; 1 0) form")
        blocks.append((lams[r], block))
    conjugator = g1.compose(step)
    return SpectralDecomposition(conjugator, blocks, partition, ODD)


def antidiagonalize(a):
    """Conjugate an odd matrix with block-diagonal square to (0 Y; 1 0) form.

    Returns one block spanning all indices: g^-1 a g antidiagonal with
    identity lower-left block, with no eigenvalue attached.
    """
    _require_odd_square(a)
    n = a.shape.p
    squared = a @ a
    for i in range(2 * n):
        for j in range(2 * n):
            if (i < n) != (j < n) and squared.rows[i][j].terms:
                raise NotBlockDiagonalSquare(
                    "the square has a nonzero off-diagonal block at (%d, %d)" % (i + 1, j + 1)
                )
    z_rows = [[a.rows[n + i][j] for j in range(n)] for i in range(n)]
    z_body = [[x.body() for x in row] for row in z_rows]
    if linalg.inverse(z_body) is None:
        raise SingularZ("the lower-left block has a singular body")
    g1_grid = _identity_grid(a)
    for i in range(n):
        for j in range(n):
            g1_grid[n + i][n + j] = z_rows[i][j]
    g1 = GroupElement(SuperMatrix(a.shape, EVEN, g1_grid))
    m = a.conjugate(g1)
    for i in range(n):
        for j in range(n):
            low = m.rows[n + i][j]
            if low != (1 if i == j else 0):
                raise InternalError("lower-left block is not the identity")
            if not (m.rows[i][j] + m.rows[n + i][n + j]).is_zero():
                raise InternalError("diagonal blocks do not cancel")
    g2_grid = _identity_grid(a)
    g2_inv_grid = _identity_grid(a)
    for i in range(n):
        for j in range(n):
            g2_grid[i][n + j] = m.rows[i][j]
            g2_inv_grid[i][n + j] = -m.rows[i][j]
    g2 = GroupElement(SuperMatrix(a.shape, EVEN, g2_grid),
                      SuperMatrix(a.shape, EVEN, g2_inv_grid))
    g = g1.compose(g2)
    final = a.conjugate(g)
    for i in range(n):
        for j in range(n):
            if final.rows[i][j].terms or final.rows[n + i][n + j].terms:
                raise InternalError("diagonal blocks survived")
            if final.rows[n + i][j] != (1 if i == j else 0):
                raise InternalError("lower-left block is not the identity")
    return SpectralDecomposition(g, [(None, final)], [list(range(1, 2 * n + 1))], ODD)
