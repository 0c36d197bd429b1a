"""Matrices over a finite Grassmann algebra: queer and standard block shapes.

A queer-shaped matrix is an arbitrary n x n matrix over the algebra; its even
part A0 collects the even-parity entry components and its odd part A1 the odd
ones.  A standard (p|q)-shaped matrix is split into blocks

    [ X  Y ]        X: p x p,  T: q x q,
    [ Z  T ]

and is declared even when X, T have even entries and Y, Z odd entries, odd in
the swapped situation.  The declared parity class is validated at
construction; the zero matrix passes either.  A queer matrix declares "any".
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import chain, product, starmap

from .errors import (
    GeneratorCountMismatch,
    SamplingError,
    ShapeMismatch,
    SingularBody,
    UnconstrainedParity,
    ValidationError,
)
from .grassmann import (
    GrassmannScalar,
    common_denominator,
    disjoint_table,
    is_int,
    left_table,
    mul_table_into,
    mul_terms_into,
    reduced_scalar,
)
from . import linalg

EVEN = "even"
ODD = "odd"
ANY = "any"

_PARITIES = (EVEN, ODD, ANY)

# The table walk's cut, read only by `_takes_table`: per generator count the
# table serves, the share of the 2**gq monomials a factor's entries must
# average for the walk to take it (`_product`'s right factor, or at gq 5..10
# its left one for the left walk; `invert`'s U).  The cuts are where the two
# kernels break even on the products the benchmark workloads make: near 1/4
# at gq 4, near 1/8 at gq 5..7.  Gq 8 keeps 1/8; at gq 9 and 10, which no
# workload reaches, single products (`tools/bench_kernel.py`) favour the
# table at a tenth of the monomials and the pair kernel at a twentieth, so
# the cut there is 1/16.  Below gq 4 products are a few terms each and the
# table measured slower over whole verify runs, at gq 4 the left walk
# measured slower on the workloads' products, above gq 10 the table's memory
# grows 3x per generator, and on sparse factors most table steps read zeros:
# these stay on the pair kernel.  The table walks 2**(gq - degree) tuples per
# sparse term, so sparse terms of low degree still cost it more than the cut
# sees.
_TABLE_DENSITY = {4: 1 / 4, **dict.fromkeys(range(5, 9), 1 / 8), 9: 1 / 16, 10: 1 / 16}

# The gate of dense cells in `reduction._refine`'s `IntegerGrid`s, and so of
# the table walk in its step inverses: at a gq in _TABLE_DENSITY, the share
# of the 2**gq monomials the entries of the matrix to refine must average.
# On Q(3) `diagonalize` runs dense cells lost to the pair kernel below a
# quarter (gq 10: 14.5 -> 25.5 ms at 0.08, 33 -> 34-38 ms at 0.22; gq 8:
# 7.7 -> 8.5 ms at 0.20) and won above it (gq 10: 191 -> 133 ms at 0.77;
# gq 8: 16.4 -> 15.0 ms at 0.51).
_GRID_DENSITY = 1 / 4


@dataclass(frozen=True)
class Queer:
    n: int
    group_parity = ANY  # parity class of the group elements of this shape

    def __post_init__(self):
        if not is_int(self.n) or self.n < 1:
            raise ValidationError("queer shape needs a positive integer 'n'")

    @property
    def dim(self):
        return self.n

    def to_obj(self):
        return {"kind": "queer", "n": self.n}


@dataclass(frozen=True)
class Standard:
    p: int
    q: int
    group_parity = EVEN

    def __post_init__(self):
        p, q = self.p, self.q
        if not is_int(p) or not is_int(q) or p < 0 or q < 0 or p + q < 1:
            raise ValidationError("standard shape needs non-negative 'p' and 'q_odd', not both zero")

    @property
    def dim(self):
        return self.p + self.q

    def to_obj(self):
        return {"kind": "standard", "p": self.p, "q_odd": self.q}


def shape_from_obj(obj):
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValidationError("shape object must have a 'kind' field")
    if obj["kind"] == "queer":
        return Queer(obj.get("n"))
    if obj["kind"] == "standard":
        return Standard(obj.get("p"), obj.get("q_odd"))
    raise ValidationError("unknown shape kind %r" % (obj["kind"],))


def to_plain(value):
    """value with each library object in it replaced by its JSON layout: its
    `_fields()`, converted in turn, or else its `to_obj()`; tuples become lists."""
    kind = type(value)
    if kind is dict:
        return {k: to_plain(v) for k, v in value.items()}
    if kind is list or kind is tuple:
        return [to_plain(v) for v in value]
    if hasattr(value, "_fields"):
        return to_plain(value._fields())
    if hasattr(value, "to_obj"):
        return value.to_obj()
    return value


def _dense(num, size):
    """A term dict's numerators as a list indexed by mask, 0 where it has no term."""
    dense = [0] * size
    for m, c in num.items():
        dense[m] = c
    return dense


def _holds_share(nums, dim, gq, share):
    """Whether the term dicts nums of a dim x dim grid average at least share
    of the 2**gq monomials: the density test of both table gates."""
    return sum(map(len, nums)) >= share * ((1 << gq) * dim * dim)


def _takes_table(nums, dim, gq):
    """Whether a factor whose dim x dim grid holds the term dicts nums passes
    _TABLE_DENSITY's cut at gq: `_product`'s test on either factor, and
    `invert`'s on U."""
    cut = _TABLE_DENSITY.get(gq)
    return cut is not None and _holds_share(nums, dim, gq, cut)


@cache
def _masks_by_degree(q):
    """The masks below 2**q grouped by popcount: list d holds those of degree d."""
    out = [[] for _ in range(q + 1)]
    for m in range(1 << q):
        out[m.bit_count()].append(m)
    return out


@cache
def _masks_by_parity(q):
    """The masks below 2**q of even popcount, then those of odd popcount."""
    by_degree = _masks_by_degree(q)
    return ([m for masks in by_degree[0::2] for m in masks],
            [m for masks in by_degree[1::2] for m in masks])


def _walked(cell, q, table):
    """A dense cell as the table kernel's dense operand (table(q, parity),
    cell), the parity read from the cell's own nonzero numerators; None for
    a zero cell, found by one scan before the parity scans."""
    if not any(cell):
        return None
    even, odd = _masks_by_parity(q)
    if not any(map(cell.__getitem__, odd)):
        return table(q, 0), cell
    return table(q, None if any(map(cell.__getitem__, even)) else 1), cell


def _walk(q, lines):
    """The dense cells, in order, that each accumulate the table kernel over
    one line: a pair (term dicts, dense operands)."""
    size = 1 << q
    cells = []
    for terms, dense in lines:
        acc = [0] * size
        for t, y in zip(terms, dense):
            if t and y:
                mul_table_into(acc, t, y)
        cells.append(acc)
    return cells


def _paired(first, second):
    """The pair kernel's cell over one line, two sequences of term dicts
    multiplied entry by entry and summed, zeros pruned."""
    acc = {}
    for x, y in zip(first, second):
        if x and y:
            mul_terms_into(acc, x, y)
    return {m: c for m, c in acc.items() if c}


def _combination(pairs):
    """The sum of c * t over pairs of an int c and a term dict t, zeros pruned."""
    acc = {}
    for c, t in pairs:
        if c:
            for m, v in t.items():
                acc[m] = acc.get(m, 0) + c * v
    return {m: v for m, v in acc.items() if v}


def _inverse_series(den, rows, gq, order, *, table):
    """(1 + x)^-1 = sum (-x)^k, k = 0..order, for the square grid x of term
    dicts rows over den (`_term_rows`' form) with x^(order + 1) = 0, as
    (den**K, term dicts, not reduced), K the last nonzero power.

    Each power x^k is the last one's term rows times the columns of x, on
    the table walk when the caller asks for it (table) at a gq the table
    serves, else on the pair kernel, and stays over den**k; the powers are
    summed with their signs over den**K once.  At order 1 it makes no product.
    """
    dim = len(rows)
    powers = [rows] if order and any(chain.from_iterable(rows)) else []
    if powers and order > 1:  # x's columns, read only when forming x^2 on
        cols = list(zip(*rows))
        walk = table and gq in _TABLE_DENSITY
        if walk:
            cols = [[_walked(_dense(t, 1 << gq), gq, disjoint_table) for t in col] for col in cols]
    while powers and len(powers) < order:
        lines = ((row, col) for row in powers[-1] for col in cols)
        cells = ([{m: c for m, c in enumerate(cell) if c} for cell in _walk(gq, lines)] if walk
                 else list(starmap(_paired, lines)))
        if not any(cells):
            break
        powers.append([cells[i:i + dim] for i in range(0, len(cells), dim)])
    top = len(powers)
    out = [[{0: den ** top} if i == j else {} for j in range(dim)] for i in range(dim)]
    for k, power in enumerate(powers, 1):
        scale = (-1) ** k * den ** (top - k)
        for out_row, row in zip(out, power):
            for acc, t in zip(out_row, row):
                for m, c in t.items():
                    acc[m] = acc.get(m, 0) + c * scale
    return den ** top, [[{m: c for m, c in t.items() if c} for t in row] for row in out]


def _reduced_matrix(shape, parity, gq, den, rows):
    """A SuperMatrix of the grid of term dicts rows over den, each cell
    reduced once and no label checked."""
    return SuperMatrix(shape, parity, [[reduced_scalar(gq, t, den) for t in row] for row in rows],
                       validate=False)


def _scalars(q, den, cells):
    """Dense cells of numerators over den as scalars, each reduced once."""
    return [reduced_scalar(q, {m: c for m, c in enumerate(cell) if c}, den) for cell in cells]


def _term_rows(matrix):
    """A SuperMatrix's entries as numerator dicts over one denominator d: (d, rows)."""
    dim = matrix.dim
    den, nums = common_denominator([x for row in matrix.rows for x in row])
    return den, [nums[i:i + dim] for i in range(0, len(nums), dim)]


def _product_parity(p1, p2):
    if p1 == ANY or p2 == ANY:
        return ANY
    return EVEN if p1 == p2 else ODD


class SuperMatrix:
    """Immutable matrix over the Grassmann algebra with a declared shape."""

    __slots__ = ("shape", "parity", "rows", "gq")

    def __init__(self, shape, parity, rows, validate=True):
        if not isinstance(shape, (Queer, Standard)):
            raise ShapeMismatch("shape must be Queer or Standard")
        if parity not in _PARITIES:
            raise ValidationError("parity must be 'even', 'odd' or 'any'")
        dim = shape.dim
        rows = tuple(tuple(row) for row in rows)
        if len(rows) != dim or any(len(row) != dim for row in rows):
            raise ShapeMismatch("entry grid must be %d x %d" % (dim, dim))
        gq = getattr(rows[0][0], "q", None)  # _validate rejects a non-scalar entry
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "parity", parity)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "gq", gq)
        if validate:
            self._validate()

    def __setattr__(self, name, value):
        raise AttributeError("SuperMatrix is immutable")

    def _validate(self):
        if isinstance(self.shape, Queer) and self.parity != ANY:
            raise ValidationError("a queer matrix must declare parity 'any', not %r" % self.parity)
        for i, row in enumerate(self.rows):
            for j, x in enumerate(row):
                if not isinstance(x, GrassmannScalar):
                    raise ValidationError("entries must be GrassmannScalar", cell=(i + 1, j + 1))
                if x.q != self.gq:
                    raise GeneratorCountMismatch(
                        "entry (%d, %d) has generator count %d, expected %d"
                        % (i + 1, j + 1, x.q, self.gq)
                    )
                want = _entry_parity(self.shape, self.parity, i, j)
                if want is not None and not (x.is_even() if want == EVEN else x.is_odd()):
                    raise ValidationError(
                        "entry (%d, %d) violates the declared %s parity class"
                        % (i + 1, j + 1, self.parity),
                        cell=(i + 1, j + 1),
                    )

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def identity(cls, shape, gq):
        one = GrassmannScalar.one(gq)
        zero = GrassmannScalar.zero(gq)
        dim = shape.dim
        rows = [[one if i == j else zero for j in range(dim)] for i in range(dim)]
        return cls(shape, shape.group_parity, rows, validate=False)

    @classmethod
    def zeros(cls, shape, gq, parity=ANY):
        zero = GrassmannScalar.zero(gq)
        dim = shape.dim
        return cls(shape, parity, [[zero] * dim for _ in range(dim)])

    @classmethod
    def from_rationals(cls, shape, parity, rows, gq):
        grid = [[GrassmannScalar.rational(gq, x) for x in row] for row in rows]
        return cls(shape, parity, grid)

    # ------------------------------------------------------------------
    # structure

    @property
    def dim(self):
        return self.shape.dim

    def body_rows(self):
        return [[x.body() for x in row] for row in self.rows]

    def soul(self):
        return SuperMatrix(self.shape, self.parity,
                           [[x.soul() for x in row] for row in self.rows], validate=False)

    def is_zero(self):
        return all(x.is_zero() for row in self.rows for x in row)

    def is_identity(self):
        return all(
            x == (1 if i == j else 0)
            for i, row in enumerate(self.rows)
            for j, x in enumerate(row)
        )

    def queer_split(self):
        """Unique decomposition into an all-even and an all-odd entry part."""
        if not isinstance(self.shape, Queer):
            raise ShapeMismatch("queer_split needs a queer-shaped matrix")
        even = [[x.even_part() for x in row] for row in self.rows]
        odd = [[x.odd_part() for x in row] for row in self.rows]
        return (SuperMatrix(self.shape, ANY, even, validate=False),
                SuperMatrix(self.shape, ANY, odd, validate=False))

    def submatrix(self, row_idx, col_idx, shape, parity):
        grid = [[self.rows[i][j] for j in col_idx] for i in row_idx]
        return SuperMatrix(shape, parity, grid)

    def blocks(self):
        """The n x n blocks (X, Y, Z, T) of a standard (n|n) matrix (X Y; Z T)."""
        shape = self.shape
        if not (isinstance(shape, Standard) and shape.p == shape.q):
            raise ShapeMismatch("blocks needs a standard (n|n)-shaped matrix")
        n = shape.p
        halves = (slice(0, n), slice(n, None))
        return tuple(SuperMatrix(Queer(n), ANY, [row[c] for row in self.rows[r]], validate=False)
                     for r in halves for c in halves)

    @classmethod
    def from_blocks(cls, parity, x, y, z, t):
        """The standard (n|n) matrix (X Y; Z T); its parity class is validated."""
        parts = (x, y, z, t)
        if not all(isinstance(b, SuperMatrix) for b in parts) or len({b.dim for b in parts}) != 1:
            raise ShapeMismatch("from_blocks needs four n x n matrices")
        top = [rx + ry for rx, ry in zip(x.rows, y.rows)]
        bottom = [rz + rt for rz, rt in zip(z.rows, t.rows)]
        return cls(Standard(x.dim, x.dim), parity, top + bottom)

    # ------------------------------------------------------------------
    # arithmetic

    def _check_compatible(self, other):
        if not isinstance(other, SuperMatrix):
            raise ShapeMismatch("expected a SuperMatrix")
        if self.shape != other.shape:
            raise ShapeMismatch("shape mismatch: %r vs %r" % (self.shape, other.shape))
        if self.gq != other.gq:
            raise GeneratorCountMismatch(
                "generator counts differ: %d vs %d" % (self.gq, other.gq)
            )

    def __add__(self, other):
        if not isinstance(other, SuperMatrix):
            return NotImplemented
        self._check_compatible(other)
        rows = [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        parity = self.parity if self.parity == other.parity else ANY
        return SuperMatrix(self.shape, parity, rows, validate=False)

    def __sub__(self, other):
        if not isinstance(other, SuperMatrix):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return SuperMatrix(self.shape, self.parity,
                           [[-x for x in row] for row in self.rows], validate=False)

    def __matmul__(self, other):
        if not isinstance(other, SuperMatrix):
            return NotImplemented
        return self._product(other)

    def _product(self, other, diagonal=False):
        """self @ other, or with diagonal=True only the list of its diagonal entries."""
        self._check_compatible(other)
        gq = self.gq
        # The gate, O(n**2) len() calls on each factor, makes a dense factor
        # an `IntegerGrid` (_TABLE_DENSITY's comment gives its reasons); the
        # pair kernel reads rows of self and columns of other over their own lcm.
        dim = self.dim
        if _takes_table((x.num for row in other.rows for x in row), dim, gq):
            out = _scalars(gq, *IntegerGrid(other, dense=True).under(*_term_rows(self), diagonal))
        elif gq >= 5 and _takes_table((x.num for row in self.rows for x in row), dim, gq):
            out = _scalars(gq, *IntegerGrid(self, dense=True).times(*_term_rows(other), diagonal))
        else:
            rows = [common_denominator(row) for row in self.rows]
            cols = [common_denominator(col) for col in zip(*other.rows)]
            cells = zip(rows, cols) if diagonal else ((row, col) for row in rows for col in cols)
            out = [reduced_scalar(gq, _paired(first, second), d1 * d2)
                   for (d1, first), (d2, second) in cells]
        if diagonal:
            return out
        parity = _product_parity(self.parity, other.parity)
        return SuperMatrix(self.shape, parity, [out[i:i + dim] for i in range(0, len(out), dim)],
                           validate=False)

    def __mul__(self, other):
        if isinstance(other, SuperMatrix):
            return self.__matmul__(other)
        if isinstance(other, (int, Fraction)):
            # each entry's product checks the factor, so a bool raises ValidationError
            return SuperMatrix(self.shape, self.parity,
                               [[x * other for x in row] for row in self.rows], validate=False)
        return NotImplemented

    __rmul__ = __mul__  # only a non-matrix left operand reaches it

    def __pow__(self, k):
        if not is_int(k) or k < 0:
            raise ValidationError("matrix exponent must be a non-negative integer")
        out = self if k else SuperMatrix.identity(self.shape, self.gq)
        for _ in range(k - 1):
            out = out @ self
        return out

    def invert(self):
        """Exact inverse: rational body inverse plus a nilpotent correction.

        A = B(1 + U) with U = B^-1 S, S the soul part, so A^-1 is
        (1 + U)^-1 B^-1, whose series in -U terminates because soul entries
        have monomial degree >= 1.  It runs on integers: with d self's one
        denominator, (dB)^-1 over its lcm, U = (dB)^-1 (dS) and the product
        by B^-1 = d (dB)^-1 as sums of ints times term dicts, the series as
        `_inverse_series`, each cell reduced once.
        """
        d, rows = _term_rows(self)
        body_inv, rk = linalg.inverse_with_rank([[t.get(0, 0) for t in row] for row in rows])
        if body_inv is None:
            raise _singular_body(rk, self.dim)
        gq = self.gq
        lcm = math.lcm(*[x.denominator for row in body_inv for x in row])
        binv = [[x.numerator * (lcm // x.denominator) for x in row] for row in body_inv]
        souls = [[{m: c for m, c in t.items() if m} for t in col] for col in zip(*rows)]
        u = [[_combination(zip(brow, col)) for col in souls] for brow in binv]
        den, series = _inverse_series(lcm, u, gq, gq,
                                      table=_takes_table(chain.from_iterable(u), len(u), gq))
        binv_cols = [[d * c for c in col] for col in zip(*binv)]  # B^-1 = d (dB)^-1
        # B^-1 has self's block pattern and U, a product of two matrices of
        # self's class, is even: the inverse keeps self's parity class
        return _reduced_matrix(self.shape, self.parity, gq, den * lcm,
                               [[_combination(zip(col, row)) for col in binv_cols]
                                for row in series])

    # ------------------------------------------------------------------
    # invariant functions

    def supertrace(self):
        """tr X - tr T on even matrices, tr X + tr T on odd ones."""
        if not isinstance(self.shape, Standard):
            raise ShapeMismatch("supertrace needs a standard-shaped matrix")
        if self.parity == ANY:
            raise UnconstrainedParity("supertrace needs a declared even or odd parity class")
        diagonal = [self.rows[i][i] for i in range(self.dim)]
        if self.parity == EVEN:
            p = self.shape.p
            diagonal[p:] = [-x for x in diagonal[p:]]
        return GrassmannScalar.zero(self.gq)._sum(diagonal)

    def qtr(self):
        """Trace of the odd part, which is tau_1; linear and odd-valued."""
        if not isinstance(self.shape, Queer):
            raise ShapeMismatch("qtr needs a queer-shaped matrix")
        return self.tau_values(1)[0]

    def qet(self):
        """Odd log-determinant analogue: sum_i (1/i) tr P^i with P = A0^-1 A1.

        P has odd entries, and tr XY = -tr YX for matrices X, Y with odd
        entries, so tr P^(2k) = 0 and tr P^i = qtr P^i: qet is the sum of the
        odd moments tau_1(P) + ... + tau_q(P).  The series is finite: P^i has
        entries of monomial degree at least i.
        """
        if not isinstance(self.shape, Queer):
            raise ShapeMismatch("qet needs a queer-shaped matrix")
        a0, a1 = self.queer_split()
        return GrassmannScalar.zero(self.gq)._sum((a0.invert() @ a1).tau_values(self.gq))

    def tau(self, k):
        """k-th odd invariant: qtr(A^k)/k on queer matrices, and
        str(A^(2k-1))/(2k-1) on odd standard square ones."""
        if not is_int(k) or k < 1:
            raise ValidationError("invariant index must be a positive integer")
        return self.tau_values(k)[-1]

    def family_size(self):
        """The n of the invariant family: Q(n), or an odd (n|n) square."""
        if isinstance(self.shape, Queer):
            return self.shape.n
        if self.shape.p == self.shape.q and self.parity == ODD:
            return self.shape.p
        raise ShapeMismatch("expected a queer matrix or an odd standard square matrix")

    def tau_values(self, upto):
        """tau(1..upto), reading about half of the matrix powers.

        tau_k is the trace of A^k / k on a queer matrix, and of
        A^(2k-1) / (2k-1) on an odd square, whose odd powers are odd, so
        their supertrace is the plain trace.  The powers read by
        tau_1..tau_h, h = ceil(upto / 2), are formed; each higher tau_k reads
        the diagonal of A^h A^(k-h), or of A^(2h) A^(2(k-h)-1), and only those
        cells are computed.  Every moment after a zero power is zero.
        """
        if not is_int(upto) or upto < 0:
            raise ValidationError("invariant count must be a non-negative integer")
        self.family_size()
        queer = isinstance(self.shape, Queer)
        half = (upto + 1) // 2
        powers = [self]  # A^k, or A^(2k-1) on an odd square, for k = 1..half
        if half > 1:
            step = self if queer else self @ self
            while len(powers) < half and not powers[-1].is_zero():
                powers.append(powers[-1] @ step)
        diagonals = [[p.rows[i][i] for i in range(self.dim)] for p in powers]
        if upto > half and not powers[-1].is_zero():  # so powers reached A^half
            top = powers[-1] if queer else powers[-1] @ self
            if not top.is_zero():
                diagonals += [top._product(p, diagonal=True) for p in powers[:upto - half]]
        zero = GrassmannScalar.zero(self.gq)
        out = []
        for k in range(1, upto + 1):
            diagonal = diagonals[k - 1] if k <= len(diagonals) else ()
            if queer:
                out.append(zero._sum([x.odd_part() for x in diagonal]) * Fraction(1, k))
            else:
                out.append(zero._sum(diagonal) * Fraction(1, 2 * k - 1))
        return out

    def conjugate(self, g):
        """g^-1 A g, exactly; the parity class of A is preserved."""
        if not isinstance(g, GroupElement):
            raise ShapeMismatch("conjugate needs a GroupElement")
        self._check_compatible(g.matrix)
        return g.inverse @ self @ g.matrix

    # ------------------------------------------------------------------
    # comparison / io

    def __eq__(self, other):
        # mathematical equality: declared parity classes are not compared
        if not isinstance(other, SuperMatrix):
            return NotImplemented
        return self.shape == other.shape and self.gq == other.gq and self.rows == other.rows

    __hash__ = None

    def __str__(self):
        lines = []
        for row in self.rows:
            lines.append("[" + ", ".join(str(x) for x in row) + "]")
        return "\n".join(lines)

    def __repr__(self):
        return "SuperMatrix(%r, %r, gq=%d)" % (self.shape, self.parity, self.gq)

    def _fields(self):
        """The JSON layout one level deep: shape and entries stay objects."""
        return {"shape": self.shape, "parity": self.parity, "grassmann_q": self.gq,
                "entries": self.rows}

    def to_obj(self):
        return to_plain(self._fields())

    @classmethod
    def from_obj(cls, obj):
        if not isinstance(obj, dict):
            raise ValidationError("matrix object must be a JSON object")
        for field in ("shape", "parity", "grassmann_q", "entries"):
            if field not in obj:
                raise ValidationError("matrix object missing field %r" % field)
        shape = shape_from_obj(obj["shape"])
        parity = obj["parity"]
        gq = obj["grassmann_q"]
        if not is_int(gq) or gq < 0:
            raise ValidationError("grassmann_q must be a non-negative integer")
        entries = obj["entries"]
        dim = shape.dim
        if not isinstance(entries, list) or len(entries) != dim:
            raise ValidationError("entry grid must have %d rows" % dim)
        grid = []
        for i, row in enumerate(entries):
            if not isinstance(row, list) or len(row) != dim:
                raise ValidationError("row %d must have %d entries" % (i + 1, dim))
            out_row = []
            for j, item in enumerate(row):
                try:
                    x = GrassmannScalar.from_obj(item)
                except ValidationError as exc:
                    raise ValidationError(
                        "entry (%d, %d): %s" % (i + 1, j + 1, exc), cell=(i + 1, j + 1)
                    ) from exc
                if x.q != gq:
                    raise ValidationError(
                        "entry (%d, %d) has generator count %d, expected %d"
                        % (i + 1, j + 1, x.q, gq),
                        cell=(i + 1, j + 1),
                    )
                out_row.append(x)
            grid.append(out_row)
        return cls(shape, parity, grid)


def _singular_body(rk, dim):
    return SingularBody("matrix body is singular (rank %d of %d)" % (rk, dim), rank=rk)


class GroupElement:
    """An invertible matrix; its exact inverse is computed on first use.

    The constructor tests the body's rank, so a singular body raises
    SingularBody at once and every element has an invertible body.  The
    inverse is `matrix.invert()`, read once and cached.  The private
    `_inverse` carries an inverse the library has built exactly itself and
    is not checked.
    """

    __slots__ = ("matrix", "_inverse")

    def __init__(self, matrix, *, _inverse=None):
        if not isinstance(matrix, SuperMatrix):
            raise ShapeMismatch("GroupElement needs a SuperMatrix")
        if matrix.parity != matrix.shape.group_parity:
            raise ValidationError("standard-shaped group elements must be even")
        if _inverse is None:
            rk = linalg.rank(matrix.body_rows())
            if rk < matrix.dim:
                raise _singular_body(rk, matrix.dim)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "_inverse", _inverse)

    def __setattr__(self, name, value):
        raise AttributeError("GroupElement is immutable")

    @property
    def inverse(self):
        if self._inverse is None:
            object.__setattr__(self, "_inverse", self.matrix.invert())
        return self._inverse

    @classmethod
    def identity(cls, shape, gq):
        e = SuperMatrix.identity(shape, gq)
        return cls(e, _inverse=e)

    def compose(self, other):
        """Group product self @ other: one matmul and a body rank test."""
        return GroupElement(self.matrix @ other.matrix)

    def inverted(self):
        return GroupElement(self.inverse, _inverse=self.matrix)

    def __repr__(self):
        return "GroupElement(%r)" % (self.matrix,)


class IntegerGrid:
    """A matrix as int numerators over one denominator `den`, in the cell
    form its caller picks: dense, a list of a cell's 2**gq numerators
    indexed by mask (the table kernel's one dense form), or sparse, a term
    dict for the pair kernel (`_paired`).  `SuperMatrix._product` converts a
    dense factor for one product, dense; `reduction._refine` converts its
    matrix and conjugator once, dense when `serves` passes the matrix, and
    runs its filtration on them.

    The other factor is term dicts over one denominator, (den, rows) as
    `_term_rows` gives them.  On dense cells `under` (rows @ self) walks each
    cell over `disjoint_table`, `times` (self @ rows) over `left_table`, the
    same disjoint pairs with the factors' roles swapped.  A cell whose
    numerators share one parity walks only that half of each table row,
    read from its own nonzero numerators, never from a parity label, which
    could be false and would then drop terms.  Both return the product's
    denominator and unreduced cells in self's form, row-major (the diagonal
    ones alone with diagonal=True); `@` and `conjugate` leave through one
    gcd over the grid, and `matrix()` makes the cells scalars once.

    `_product` converts a factor only where the table measured faster, by
    _TABLE_DENSITY's cut, whose comment gives the reasons.
    """

    __slots__ = ("shape", "parity", "gq", "den", "cells", "dense")

    def __init__(self, matrix, dense):
        self.den, rows = _term_rows(matrix)
        self.shape, self.parity, self.gq, self.dense = matrix.shape, matrix.parity, matrix.gq, dense
        self.cells = [[_dense(num, 1 << self.gq) for num in row] for row in rows] if dense else rows

    @staticmethod
    def serves(matrix):
        """Whether the table serves matrix's gq and its entries average at
        least _GRID_DENSITY of the monomials: `_refine`'s choice of form."""
        gq = matrix.gq
        return gq in _TABLE_DENSITY and _holds_share((x.num for row in matrix.rows for x in row),
                                                     matrix.dim, gq, _GRID_DENSITY)

    def min_degree(self, i, j):
        """The least degree of cell (i, j)'s monomials, None when it is zero."""
        cell = self.cells[i][j]
        if not self.dense:
            return min(map(int.bit_count, cell), default=None)
        return next((d for d, masks in enumerate(_masks_by_degree(self.gq))
                     if any(map(cell.__getitem__, masks))), None)

    def degree_part(self, i, j, level):
        """The scalar of cell (i, j)'s terms of degree level."""
        cell = self.cells[i][j]
        masks = (_masks_by_degree(self.gq)[level] if self.dense
                 else [m for m in cell if m.bit_count() == level])
        return reduced_scalar(self.gq, {m: cell[m] for m in masks if cell[m]}, self.den)

    def times(self, den, rows, diagonal=False):
        """self @ (den, rows) as (den, cells); dense cells take the left
        walk, each over `left_table`, walked by a column of rows."""
        cols = list(zip(*rows))
        if self.dense:
            own = [[_walked(cell, self.gq, left_table) for cell in row] for row in self.cells]
            lines = zip(cols, own) if diagonal else ((col, row) for row in own for col in cols)
            return den * self.den, _walk(self.gq, lines)
        lines = zip(self.cells, cols) if diagonal else product(self.cells, cols)
        return den * self.den, list(starmap(_paired, lines))

    def under(self, den, rows, diagonal=False):
        """(den, rows) @ self as (den, cells); dense cells take the right
        walk, each over `disjoint_table`, walked by a row of rows."""
        own = self.cells
        if self.dense:
            own = [[_walked(cell, self.gq, disjoint_table) for cell in row] for row in own]
        cols = list(zip(*own))
        lines = zip(rows, cols) if diagonal else product(rows, cols)
        return den * self.den, _walk(self.gq, lines) if self.dense else list(starmap(_paired, lines))

    def __matmul__(self, other):
        return self._over(*self.times(*other))

    def conjugate(self, h, inverse):
        """h^-1 self h, for h and its inverse each a (den, rows)."""
        return self._over(*self.under(*inverse)) @ h

    def _over(self, den, cells):
        """The grid of self's shape and form with the row-major cells over
        den, after one gcd over den and every numerator."""
        dense = self.dense
        g = den
        for cell in cells:
            if g == 1:
                break
            g = math.gcd(g, *(cell if dense else cell.values()))
        if g != 1:
            cells = [list(map(g.__rfloordiv__, cell)) if dense else
                     {m: c // g for m, c in cell.items()} for cell in cells]
            den //= g
        dim = self.shape.dim
        out = object.__new__(IntegerGrid)
        out.shape, out.parity, out.gq, out.dense = self.shape, self.parity, self.gq, dense
        out.den, out.cells = den, [cells[i:i + dim] for i in range(0, len(cells), dim)]
        return out

    def matrix(self):
        """The grid as a SuperMatrix, each cell reduced to a scalar once."""
        cells = self.cells
        if self.dense:
            cells = [[{m: c for m, c in enumerate(cell) if c} for cell in row] for row in cells]
        return _reduced_matrix(self.shape, self.parity, self.gq, self.den, cells)


# ----------------------------------------------------------------------
# seeded random sampling

def seeded_rng(seed):
    """random.Random(seed) for an integer seed, the one seed check of every
    seeded sampler.  Anything else, a bool included, is a ValidationError:
    Random would seed None from the clock and raise TypeError on a tuple."""
    if not is_int(seed):
        raise ValidationError("seed must be an integer")
    return random.Random(seed)


def _random_mask(rng, q, degree):
    mask = 0
    count = 0
    while count < degree:
        bit = 1 << rng.randrange(q)
        if not mask & bit:
            mask |= bit
            count += 1
    return mask


def random_scalar(rng, q, bound, parity=None, max_terms=2):
    """Sparse random scalar with integer coefficients in [-bound, bound]."""
    if parity == EVEN:
        degrees = list(range(0, q + 1, 2))
    elif parity == ODD:
        degrees = list(range(1, q + 1, 2))
    else:
        degrees = list(range(0, q + 1))
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        if not degrees:
            break
        d = degrees[rng.randrange(len(degrees))]
        c = rng.randint(-bound, bound)
        if c == 0:
            c = 1
        mask = _random_mask(rng, q, d)
        terms[mask] = terms.get(mask, 0) + c
    return GrassmannScalar(q, terms)


def _entry_parity(shape, parity, i, j):
    if isinstance(shape, Queer) or parity == ANY:
        return None
    diagonal_block = (i < shape.p) == (j < shape.p)
    if parity == EVEN:
        return EVEN if diagonal_block else ODD
    return ODD if diagonal_block else EVEN


def _check_bound(coefficient_bound):
    if not is_int(coefficient_bound) or coefficient_bound < 1:
        raise ValidationError("coefficient_bound must be a positive integer")


def random_matrix(shape, parity, q, seed, coefficient_bound, max_terms=2):
    """Deterministic random matrix honoring the declared parity class."""
    _check_bound(coefficient_bound)
    if not is_int(max_terms) or max_terms < 0:
        raise ValidationError("max_terms must be a non-negative integer")
    rng = seeded_rng(seed)
    dim = shape.dim
    grid = []
    for i in range(dim):
        row = []
        for j in range(dim):
            row.append(random_scalar(rng, q, coefficient_bound,
                                     parity=_entry_parity(shape, parity, i, j),
                                     max_terms=max_terms))
        grid.append(row)
    return SuperMatrix(shape, parity, grid)


_GROUP_TERMS = 1  # random_scalar max_terms of each group-element entry
_GROUP_TRIES = 64  # rejection draws before giving up on an invertible body


def random_group_element(shape, q, seed, coefficient_bound):
    """Deterministic random group element: invertible body by rejection."""
    _check_bound(coefficient_bound)
    rng = seeded_rng(seed)
    parity = shape.group_parity
    dim = shape.dim
    for _ in range(_GROUP_TRIES):
        grid = []
        for i in range(dim):
            row = []
            for j in range(dim):
                x = random_scalar(rng, q, coefficient_bound,
                                  parity=_entry_parity(shape, parity, i, j),
                                  max_terms=_GROUP_TERMS)
                if i == j:
                    x = x + rng.randint(-coefficient_bound, coefficient_bound)
                row.append(x)
            grid.append(row)
        try:
            return GroupElement(SuperMatrix(shape, parity, grid))
        except SingularBody:
            continue
    raise SamplingError("could not sample an invertible body in %d tries" % _GROUP_TRIES)
