"""Exact arithmetic in the Grassmann algebra on q anticommuting generators.

A scalar is a finite sum of monomials e_{i1}...e_{ik} (1 <= i1 < ... < ik <= q)
with exact rational coefficients.  Monomials are stored as bitmasks over the
generators (bit j set means generator j+1 is present); the empty monomial
carries the body.  Coefficients are ints or Fractions, never floats, so
equality testing is exact and structural.  `geometric_sum` is the one
(1 + nilpotent)^-1 series that scalar and matrix inverses share.

Matrix products run on integer numerators: `integer_numerators` scales a
matrix row or column to ints over one common denominator, one of two kernels
then multiplies and adds plain ints, and `prune_terms` divides each output
coefficient once.  The pair kernel `mul_terms_into` visits every pair of
terms and skips the overlapping ones.  The table kernel `mul_table_into`
reads its right operand as a dense list of 2**q coefficients and walks
`disjoint_table(q)`, which lists only the disjoint pairs: 3**q steps for two
full operands, against 4**q.  `SuperMatrix.__matmul__` holds the one gate
between them: the table serves 4 <= q <= 10 when the right factor's entries
average at least a quarter (q = 4) or an eighth (q >= 5) of the 2**q
monomials, and the pair kernel everything else, scalar products included,
whose operands are mostly a few terms.  Both kernels take their signs from
`below_parity`, cached per monomial mask, so the cache holds at most 2**q
entries.  `SparseRingElement` is the ring core GrassmannScalar shares with
`sympoly.SuperPolynomial`.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import cache

from .errors import GeneratorCountMismatch, ValidationError, ZeroBody

DEFAULT_GENERATOR_CAP = 16

_generator_cap = DEFAULT_GENERATOR_CAP


def generator_cap():
    return _generator_cap


def set_generator_cap(limit):
    """Set the global bound on generator counts (dense size is 2**q)."""
    global _generator_cap
    if not is_int(limit) or limit < 0:
        raise ValidationError("generator cap must be a non-negative integer")
    _generator_cap = limit


@cache
def below_parity(m):
    """The bits with an odd number of m's bits below them, as an int mask.

    Bits above m's top bit qualify when m has an odd popcount, so the mask
    is then a negative (two's-complement) int; `a & below_parity(m)` is
    finite for any a >= 0.  Cached per mask: at most 2**q entries.
    """
    out = 0
    while m:
        low = m & -m
        out ^= -(low << 1)  # every bit above this one
        m ^= low
    return out


def merge_sign(a, b):
    """Sign of sorting the concatenation of two disjoint increasing index sets.

    Each pair (i in a, j in b) with i > j is one transposition; bit i of a
    sees an odd number of them exactly when it is set in below_parity(b).
    """
    return -1 if (a & below_parity(b)).bit_count() & 1 else 1


def integer_numerators(term_dicts):
    """One common denominator d of the term dicts, and the dicts scaled by d.

    The scaled coefficients are ints; when d is 1 the dicts come back as
    they are.
    """
    d = 1
    for terms in term_dicts:
        for c in terms.values():
            if type(c) is not int:
                d = math.lcm(d, c.denominator)
    if d == 1:
        return 1, term_dicts
    return d, [{m: c.numerator * (d // c.denominator) for m, c in terms.items()}
               for terms in term_dicts]


def mul_terms_into(acc, t1, t2):
    """Accumulate the product of two term dicts into acc (no pruning)."""
    for m2, c2 in t2.items():
        odd_below = below_parity(m2)
        for m1, c1 in t1.items():
            if m1 & m2:
                continue
            c = c1 * c2
            if (m1 & odd_below).bit_count() & 1:
                c = -c
            m = m1 | m2
            v = acc.get(m)
            acc[m] = c if v is None else v + c


@cache
def disjoint_table(q):
    """For each mask m1 < 2**q, the tuples (m2, m1 | m2, sign) over every
    submask m2 of m1's complement, where the product of monomials m1 and m2
    is sign times monomial m1 | m2.

    3**q tuples in all; cached per q, so build it only for small q.
    """
    full = (1 << q) - 1
    table = []
    for m1 in range(1 << q):
        rest = full & ~m1
        row = []
        m2 = rest
        while True:
            sign = -1 if (m1 & below_parity(m2)).bit_count() & 1 else 1
            row.append((m2, m1 | m2, sign))
            if not m2:
                break
            m2 = (m2 - 1) & rest
        table.append(row)
    return table


def mul_table_into(table, acc, t1, dense2):
    """Accumulate the product of a term dict and a dense coefficient list
    (dense2[m] is the coefficient of monomial m) into the dense list acc,
    through table, the `disjoint_table` of their generator count."""
    for m1, c1 in t1.items():
        for m2, m, sign in table[m1]:
            c2 = dense2[m2]
            if c2:
                acc[m] += sign * c1 * c2


def _norm(c):
    # keep integral coefficients as ints: cheaper arithmetic, same exactness
    if isinstance(c, Fraction) and c.denominator == 1:
        return c.numerator
    return c


def prune_terms(terms, denominator=1):
    """The nonzero terms divided by denominator, integral coefficients as ints."""
    if denominator == 1:
        return {m: _norm(c) for m, c in terms.items() if c != 0}
    out = {}
    for m, c in terms.items():
        if c != 0:
            whole, rest = divmod(c, denominator)
            out[m] = Fraction(c, denominator) if rest else whole
    return out


_COEFF_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


def is_int(x):
    """True for a plain int; JSON true/false load as bools, an int subclass."""
    return type(x) is int


def is_coeff(x):
    """True for an exact coefficient: a Fraction or a plain int, not a bool or float."""
    return is_int(x) or isinstance(x, Fraction)


def parse_coeff(text):
    """Parse a decimal-free rational string such as "-3/2" or "7"."""
    if not isinstance(text, str) or not _COEFF_RE.match(text):
        raise ValidationError("coefficient must be a decimal-free rational string: %r" % (text,))
    try:
        return _norm(Fraction(text))
    except ValueError as exc:  # beyond the interpreter's integer string-conversion limit
        raise ValidationError("coefficient has too many digits (%d characters)" % len(text)) from exc


def coeff_text(c):
    """The exact string form of a coefficient, the inverse of parse_coeff."""
    try:
        return str(c)
    except ValueError as exc:  # beyond the interpreter's integer string-conversion limit
        raise ValidationError("result coefficient has too many digits to write out") from exc


def geometric_sum(one, x, order):
    """1 + x + ... + x^order, stopping at the first power that is zero.

    The result is exactly (1 - x)^-1 when x^(order+1) = 0, as it is for a
    nilpotent x whose terms all have monomial degree > q / (order + 1).
    Scalars and matrices alike: it only uses `*`, `+` and `is_zero`.
    """
    acc = one
    term = one
    for _ in range(order):
        term = term * x
        if term.is_zero():
            break
        acc = acc + term
    return acc


def mask_to_indices(mask):
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def indices_to_mask(indices, q):
    mask = 0
    prev = 0
    for i in indices:
        if not is_int(i) or i <= prev or i > q:
            raise ValidationError(
                "generator indices must be strictly increasing integers in 1..%d: %r" % (q, indices)
            )
        mask |= 1 << (i - 1)
        prev = i
    return mask


class SparseRingElement:
    """An immutable dict `terms` of nonzero exact coefficients by monomial key.

    Subclasses supply `_like(terms)` (same shape, pruned terms), `_const_key()`
    (the key of the constant monomial), `_coerce(other)`, `_same_shape(other)`,
    `_sorted_terms()` and `_monomial_text(key)`, and their own `__add__` and
    `__mul__`.
    """

    __slots__ = ()
    __hash__ = None

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def _const(self, c):
        if not is_coeff(c):
            raise ValidationError("coefficient must be an int or Fraction: %r" % (c,))
        c = _norm(c)
        return self._like({self._const_key(): c} if c != 0 else {})

    def _scale(self, c):
        """The product with an exact coefficient c."""
        if c == 0:
            return self._like({})
        return self._like({k: _norm(v * c) for k, v in self.terms.items()})

    def __pow__(self, k):
        if not is_int(k) or k < 0:
            raise ValidationError("exponent must be a non-negative integer")
        out = self._const(1)
        for _ in range(k):
            out = out * self
            if out.is_zero():
                break
        return out

    def __eq__(self, other):
        if type(other) is type(self):
            return self._same_shape(other) and self.terms == other.terms
        if is_coeff(other):  # a bool is not a coefficient: NotImplemented
            return self.terms == ({self._const_key(): other} if other != 0 else {})
        return NotImplemented

    def __str__(self):
        parts = []
        for key, c in self._sorted_terms():
            body = self._monomial_text(key)
            if not body:
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append("-" + body)
            else:
                parts.append("%s*%s" % (c, body))
        return " + ".join(parts).replace("+ -", "- ") if parts else "0"


class GrassmannScalar(SparseRingElement):
    """Immutable element of the Grassmann algebra on q generators."""

    __slots__ = ("q", "terms")

    def __init__(self, q, terms=None):
        self._check_q(q)
        clean = {}
        if terms:
            limit = 1 << q
            for mask, coeff in terms.items():
                if not is_int(mask) or mask < 0 or mask >= limit:
                    raise ValidationError("monomial mask %r out of range for q=%d" % (mask, q))
                if not is_coeff(coeff):
                    raise ValidationError("coefficient must be an int or Fraction: %r" % (coeff,))
                if coeff != 0:
                    clean[mask] = _norm(clean.get(mask, 0) + coeff)
                    if clean[mask] == 0:
                        del clean[mask]
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _raw(cls, q, terms):
        # internal fast path: terms already pruned and normalized
        self = object.__new__(cls)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "terms", terms)
        return self

    @staticmethod
    def _check_q(q):
        if not is_int(q) or q < 0:
            raise ValidationError("generator count must be a non-negative integer")
        if q > _generator_cap:
            raise ValidationError("generator count %d exceeds the cap %d" % (q, _generator_cap))

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, q):
        cls._check_q(q)
        return cls._raw(q, {})

    @classmethod
    def one(cls, q):
        cls._check_q(q)
        return cls._raw(q, {0: 1})

    @classmethod
    def rational(cls, q, value):
        return cls.zero(q)._const(value)

    @classmethod
    def generator(cls, q, i):
        cls._check_q(q)
        if not is_int(i) or not 1 <= i <= q:
            raise ValidationError("generator index %r out of range 1..%d" % (i, q))
        return cls._raw(q, {1 << (i - 1): 1})

    @classmethod
    def monomial(cls, q, indices, coeff=1):
        return cls(q, {indices_to_mask(indices, q): coeff})

    # ------------------------------------------------------------------
    # structure

    def body(self):
        """Coefficient of the empty monomial; a ring homomorphism onto Q."""
        return self.terms.get(0, 0)

    def soul(self):
        return self._raw(self.q, {m: c for m, c in self.terms.items() if m})

    def even_part(self):
        return self._raw(self.q, {m: c for m, c in self.terms.items() if not m.bit_count() & 1})

    def odd_part(self):
        return self._raw(self.q, {m: c for m, c in self.terms.items() if m.bit_count() & 1})

    def parity_split(self):
        return self.even_part(), self.odd_part()

    def is_even(self):
        return all(not m.bit_count() & 1 for m in self.terms)

    def is_odd(self):
        return all(m.bit_count() & 1 for m in self.terms)

    def min_degree(self):
        """Smallest monomial length present, or None for the zero scalar."""
        if not self.terms:
            return None
        return min(m.bit_count() for m in self.terms)

    # ------------------------------------------------------------------
    # arithmetic

    def _like(self, terms):
        return self._raw(self.q, terms)

    def _const_key(self):
        return 0

    def _same_shape(self, other):
        return self.q == other.q

    def _coerce(self, other):
        if isinstance(other, GrassmannScalar):
            if other.q != self.q:
                raise GeneratorCountMismatch(
                    "operands over different generator counts: %d vs %d" % (self.q, other.q)
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self._const(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for m, c in other.terms.items():
            v = terms.get(m)
            terms[m] = c if v is None else v + c
        return self._raw(self.q, prune_terms(terms))

    __radd__ = __add__

    def __mul__(self, other):
        if is_coeff(other):
            return self._scale(other)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        acc = {}
        mul_terms_into(acc, self.terms, other.terms)
        return self._raw(self.q, prune_terms(acc))

    __rmul__ = __mul__  # only a non-scalar left operand reaches it

    def __truediv__(self, other):
        if is_coeff(other):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            return self * _norm(Fraction(1, 1) / other)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.invert()

    def invert(self):
        """Exact inverse; the body must be nonzero.

        Writes x = b(1 + u) with u nilpotent and sums the geometric series,
        which terminates because every soul monomial has degree >= 1.
        """
        b = self.terms.get(0, 0)
        if b == 0:
            raise ZeroBody("cannot invert a scalar with zero body")
        binv = _norm(Fraction(1, 1) / b)
        return geometric_sum(self.one(self.q), 1 - (self * binv), self.q) * binv

    # ------------------------------------------------------------------
    # io

    def _sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: (kv[0].bit_count(), kv[0]))

    def _monomial_text(self, m):
        return "".join("e%d" % i for i in mask_to_indices(m))

    def __repr__(self):
        return "GrassmannScalar(q=%d, %s)" % (self.q, self)

    def to_obj(self):
        return {
            "q": self.q,
            "terms": [{"idx": mask_to_indices(m), "coeff": coeff_text(c)}
                      for m, c in self._sorted_terms()],
        }

    @classmethod
    def from_obj(cls, obj):
        if not isinstance(obj, dict) or "q" not in obj or "terms" not in obj:
            raise ValidationError("scalar object must have 'q' and 'terms' fields")
        q = obj["q"]
        if not is_int(q) or q < 0:
            raise ValidationError("scalar field 'q' must be a non-negative integer")
        terms = {}
        if not isinstance(obj["terms"], list):
            raise ValidationError("scalar field 'terms' must be a list")
        for item in obj["terms"]:
            if not isinstance(item, dict) or "idx" not in item or "coeff" not in item:
                raise ValidationError("scalar term must have 'idx' and 'coeff' fields")
            if not isinstance(item["idx"], list):
                raise ValidationError("scalar field 'idx' must be a list")
            mask = indices_to_mask(item["idx"], q)
            coeff = parse_coeff(item["coeff"])
            if coeff == 0:
                raise ValidationError("stored coefficients must be nonzero")
            if mask in terms:
                raise ValidationError("duplicate monomial %r" % (item["idx"],))
            terms[mask] = coeff
        return cls(q, terms)
