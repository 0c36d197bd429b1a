"""Exact arithmetic in the Grassmann algebra on q anticommuting generators.

A scalar is a finite sum of monomials e_{i1}...e_{ik} (1 <= i1 < ... < ik <= q)
with exact rational coefficients.  Monomials are stored as bitmasks over the
generators (bit j set means generator j+1 is present); the empty monomial
carries the body.  Coefficients are ints or Fractions, never floats, so
equality testing is exact and structural.  `geometric_sum` is the one
(1 + nilpotent)^-1 series that scalar and matrix inverses share.
"""

from __future__ import annotations

import re
from fractions import Fraction

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


_SIGN_CACHE = {}


def merge_sign(a, b):
    """Sign of sorting the concatenation of two disjoint increasing index sets.

    Counts the pairs (i in a, j in b) with i > j; each contributes one
    transposition.
    """
    key = (a, b)
    sign = _SIGN_CACHE.get(key)
    if sign is None:
        swaps = 0
        t = b
        while t:
            low = t & -t
            swaps += (a >> low.bit_length()).bit_count()
            t ^= low
        sign = -1 if swaps & 1 else 1
        _SIGN_CACHE[key] = sign
    return sign


def mul_terms_into(acc, t1, t2):
    """Accumulate the product of two term dicts into acc (no pruning)."""
    for m1, c1 in t1.items():
        for m2, c2 in t2.items():
            if m1 & m2:
                continue
            c = c1 * c2
            if merge_sign(m1, m2) < 0:
                c = -c
            m = m1 | m2
            v = acc.get(m)
            acc[m] = c if v is None else v + c


def _norm(c):
    # keep integral coefficients as ints: cheaper arithmetic, same exactness
    if isinstance(c, Fraction) and c.denominator == 1:
        return c.numerator
    return c


def prune_terms(terms):
    return {m: _norm(c) for m, c in terms.items() if c != 0}


_COEFF_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


def is_int(x):
    """True for a plain int; JSON true/false load as bools, an int subclass."""
    return type(x) is int


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


class GrassmannScalar:
    """Immutable element of the Grassmann algebra on q generators."""

    __slots__ = ("q", "terms")

    def __init__(self, q, terms=None):
        self._check_q(q)
        clean = {}
        if terms:
            limit = 1 << q
            for mask, coeff in terms.items():
                if not isinstance(mask, int) or mask < 0 or mask >= limit:
                    raise ValidationError("monomial mask %r out of range for q=%d" % (mask, q))
                if isinstance(coeff, float):
                    raise ValidationError("floating point coefficients are not exact")
                if not isinstance(coeff, (int, Fraction)):
                    raise ValidationError("coefficient must be an int or Fraction: %r" % (coeff,))
                if coeff != 0:
                    clean[mask] = _norm(clean.get(mask, 0) + coeff)
                    if clean[mask] == 0:
                        del clean[mask]
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("GrassmannScalar is immutable")

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
        cls._check_q(q)
        if isinstance(value, float):
            raise ValidationError("floating point coefficients are not exact")
        value = _norm(Fraction(value))
        return cls._raw(q, {0: value} if value != 0 else {})

    @classmethod
    def generator(cls, q, i):
        cls._check_q(q)
        if not 1 <= i <= q:
            raise ValidationError("generator index %d out of range 1..%d" % (i, q))
        return cls._raw(q, {1 << (i - 1): 1})

    @classmethod
    def monomial(cls, q, indices, coeff=1):
        return cls(q, {indices_to_mask(indices, q): coeff})

    # ------------------------------------------------------------------
    # structure

    def is_zero(self):
        return not self.terms

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

    def _coerce(self, other):
        if isinstance(other, GrassmannScalar):
            if other.q != self.q:
                raise GeneratorCountMismatch(
                    "operands over different generator counts: %d vs %d" % (self.q, other.q)
                )
            return other
        if isinstance(other, (int, Fraction)):
            return GrassmannScalar.rational(self.q, other)
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

    def __neg__(self):
        return self._raw(self.q, {m: -c for m, c in self.terms.items()})

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

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return self.zero(self.q)
            return self._raw(self.q, {m: _norm(c * other) for m, c in self.terms.items()})
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        acc = {}
        mul_terms_into(acc, self.terms, other.terms)
        return self._raw(self.q, prune_terms(acc))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.__mul__(other)
        return NotImplemented

    def __pow__(self, k):
        if not is_int(k) or k < 0:
            raise ValidationError("exponent must be a non-negative integer")
        out = self.one(self.q)
        for _ in range(k):
            out = out * self
            if out.is_zero():
                break
        return out

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            return self * _norm(Fraction(1, 1) / other)
        if isinstance(other, GrassmannScalar):
            return self * other.invert()
        return NotImplemented

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
    # comparison / io

    def __eq__(self, other):
        if isinstance(other, GrassmannScalar):
            return self.q == other.q and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return not self.terms
            return self.terms == {0: other}
        return NotImplemented

    __hash__ = None

    def __bool__(self):
        return bool(self.terms)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m, c in sorted(self.terms.items(), key=lambda kv: (kv[0].bit_count(), kv[0])):
            gens = "".join("e%d" % i for i in mask_to_indices(m))
            if not gens:
                parts.append(str(c))
            elif c == 1:
                parts.append(gens)
            elif c == -1:
                parts.append("-" + gens)
            else:
                parts.append("%s*%s" % (c, gens))
        text = " + ".join(parts)
        return text.replace("+ -", "- ")

    def __repr__(self):
        return "GrassmannScalar(q=%d, %s)" % (self.q, self)

    def to_obj(self):
        items = sorted(self.terms.items(), key=lambda kv: (kv[0].bit_count(), kv[0]))
        return {
            "q": self.q,
            "terms": [{"idx": mask_to_indices(m), "coeff": coeff_text(c)} for m, c in items],
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
