"""Exact arithmetic in the Grassmann algebra on q anticommuting generators.

A scalar is a finite sum of monomials e_{i1}...e_{ik} (1 <= i1 < ... < ik <= q)
with exact rational coefficients.  Monomials are stored as bitmasks over the
generators (bit j set means generator j+1 is present); the empty monomial
carries the body.  A scalar is stored as integer numerators over one
denominator: `num` maps each mask to a nonzero int and `den` is a positive
int with gcd(den, *num) = 1, zero being ({}, 1).  The form is unique, so
equality is structural, and every ring operation works on ints and leaves
through one gcd reduction.  `terms`, the coefficients as exact values
(integral ones as ints), is a read-only view built on first read.
`SparseRingElement` is the ring core that holds this form and every rule
that reads it, for GrassmannScalar and for `sympoly`'s polynomials alike;
a subclass supplies only its key shape.  `geometric_sum` is the scalars'
(1 + nilpotent)^-1 series; a matrix sums its own on integer numerators
(`supermatrix._inverse_series`).

Matrix products run on the same numerators: `common_denominator` brings
scalars over the lcm of their denominators, rescaling only those whose
denominator differs, one of two kernels then multiplies and adds plain ints,
and each output cell is reduced by one gcd.  The pair kernel
`mul_terms_into` visits every pair of terms and skips the overlapping ones.
The table kernel `mul_table_into` reads its right operand as a dense list
of 2**q coefficients and walks `disjoint_table(q, parity)`, which lists only
the disjoint pairs, in an add and a subtract list per row: 3**q steps for
two full operands, against 4**q.  A dense operand whose nonzero coefficients
share one parity walks only that half of the pairs.  A dense left operand
takes the same walk with the factors' roles swapped, over
`left_table(q, parity)`: the table with supercommutativity,
e_m1 * e_m2 = (-1)**(|m1| |m2|) e_m2 * e_m1, written into its signs once.
The kernel's one caller is `supermatrix._walk`, whose dense operands are
term dicts laid out by mask for the walk: a `SuperMatrix` product's, each
row or column over its own lcm, or a filtration grid's, over its one
denominator.  One rule picks the kernel of every matrix product
(`supermatrix._route`): the table walks whichever factor holds more
terms, the right one on a tie, for 4 <= q <= 10 when that factor's
entries average at least a quarter (q = 4), an eighth (q = 5..8) or a
sixteenth (q = 9, 10) of the 2**q monomials.  `supermatrix._grid_product`,
the one routine of every matrix product, asks it and runs the kernel it
names.  The pair kernel
serves everything else, scalar products included, whose operands are
mostly a few terms.  The kernels take their signs from `below_parity`,
cached per monomial mask, so the cache holds at most 2**q entries.

`GrassmannScalar.from_obj` reads a scalar's JSON layout in one bulk check
of its whole term list (`_integer_terms`), a fixed number of C-level calls
per scalar plus, for a fractional one, one pass over its denominators.  The
masks are looked up in `index_masks(q)`, the table of every increasing
index tuple, built only for q <= 10 like the disjoint tables (above that
the same routine computes each mask), and the numerators and their one
denominator are built straight from the coefficient strings, with no
Fraction.  Only a term list the check rejects goes through the per-term
loop `_first_bad_term`, which diagnoses: it raises the first bad term's
ValidationError, or InternalError if it finds none, and never returns a
scalar.  `parse_coeff` and `indices_to_mask`, which that loop calls, also
serve `sympoly`, a decomposition's eigenvalues and `monomial`.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import cache, partial
from itertools import chain, repeat
from operator import floordiv, mul

from .errors import GeneratorCountMismatch, InternalError, ValidationError, ZeroBody

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


def common_denominator(scalars):
    """The lcm d of the ring elements' denominators and their numerator dicts
    over d.  An element already over d gives its own `num`, which must not be
    mutated.
    """
    d = math.lcm(*[x.den for x in scalars])
    return d, [x.num if x.den == d else _times(x.num, d // x.den) for x in scalars]


def _times(num, k):
    return {m: c * k for m, c in num.items()}


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
def disjoint_table(q, parity):
    """For each mask m1 < 2**q, a pair (plus, minus) of tuples of
    (m2, m1 | m2) over the submasks m2 of m1's complement whose popcount has
    the given parity (0 even, 1 odd, None any).  A pair is in minus when the
    product of monomials m1 and m2 is minus monomial m1 | m2, else in plus.

    Cached per (q, parity).  The rows of parity None join those of the two
    halves and reuse their pair tuples, and all pairs share one int object
    per mask, so each q stores its 3**q pairs once; build it only for small q.
    """
    if parity is None:
        return [(p0 + p1, n0 + n1)
                for (p0, n0), (p1, n1) in zip(disjoint_table(q, 0), disjoint_table(q, 1))]
    full = (1 << q) - 1
    masks = list(range(1 << q))  # one int object per mask, shared by every pair
    table = []
    for m1 in masks:
        rest = full & ~m1
        row = ([], [])
        m2 = rest
        while True:
            if m2.bit_count() & 1 == parity:
                row[(m1 & below_parity(m2)).bit_count() & 1].append((masks[m2], masks[m1 | m2]))
            if not m2:
                break
            m2 = (m2 - 1) & rest
        table.append((tuple(row[0]), tuple(row[1])))
    return table


def mul_table_into(acc, t1, dense):
    """Accumulate the product of a term dict and a dense operand into the
    dense list acc.  dense is (table, dense2): dense2[m] is the coefficient
    of monomial m, and table is, for a parity every nonzero coefficient of
    dense2 has, the `disjoint_table` of their generator count for t1 * dense2
    or its `left_table` for dense2 * t1."""
    table, dense2 = dense
    for m1, c1 in t1.items():
        plus, minus = table[m1]
        for m2, m in plus:
            c2 = dense2[m2]
            if c2:
                acc[m] += c1 * c2
        for m2, m in minus:
            c2 = dense2[m2]
            if c2:
                acc[m] -= c1 * c2


@cache
def left_table(q, parity):
    """`disjoint_table(q, parity)` read from the other side: row m2 lists the
    pairs (m1, m1 | m2) over the submasks m1 of m2's complement with the
    given popcount parity, in minus when e_m1 * e_m2 is minus e_(m1 | m2).

    e_m1 * e_m2 = (-1)**(|m1| |m2|) e_m2 * e_m1, so the even half is
    `disjoint_table`'s own and the odd half swaps plus and minus on the odd
    rows; None joins the two.  Cached per (q, parity); the rows reuse
    `disjoint_table`'s pair tuples.
    """
    if parity == 0:
        return disjoint_table(q, 0)
    odd = [(minus, plus) if m2.bit_count() & 1 else (plus, minus)
           for m2, (plus, minus) in enumerate(disjoint_table(q, 1))]
    if parity == 1:
        return odd
    return [(p0 + p1, n0 + n1) for (p0, n0), (p1, n1) in zip(disjoint_table(q, 0), odd)]


def _norm(c):
    # keep integral coefficients as ints: cheaper arithmetic, same exactness
    # (c is an int or a Fraction; the exact type test skips an ABC isinstance)
    if type(c) is not int and c.denominator == 1:
        return c.numerator
    return c


def _ratio(n, d):
    """n / d for ints n and d > 0: an int when d divides n, else a Fraction."""
    return n // d if n % d == 0 else Fraction(n, d)


class _TermsView(dict):
    """A read-only dict: the exact-value view of a scalar's terms."""

    __slots__ = ()

    def _read_only(self, *args, **kwargs):
        raise TypeError("a scalar's terms are read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only


# ASCII digits only, matched in full: `\d` takes other scripts' digits and
# `$` a trailing newline
_COEFF = r"[+-]?[0-9]+(?:/[1-9][0-9]*)?"
_COEFF_RE = re.compile(_COEFF)
# a scalar's coefficients joined by ",", matched at once: a failed match backs
# off one digit run at a time, so it stays linear in the text's length
_COEFFS_RE = re.compile(r"%s(?:,%s)*" % (_COEFF, _COEFF))


def is_int(x):
    """True for a plain int; JSON true/false load as bools, an int subclass."""
    return type(x) is int


def is_coeff(x):
    """True for an exact coefficient: a Fraction or a plain int, not a bool or float."""
    return is_int(x) or isinstance(x, Fraction)


def parse_coeff(text):
    """Parse a decimal-free rational string such as "-3/2" or "7"."""
    if not isinstance(text, str) or not _COEFF_RE.fullmatch(text):
        raise ValidationError("coefficient must be a decimal-free rational string: %r" % (text,))
    num, slash, den = text.partition("/")
    try:
        if not slash:
            return int(num)
        return _norm(Fraction(int(num), int(den)))
    except ValueError as exc:  # beyond the interpreter's integer string-conversion limit
        raise ValidationError("coefficient has too many digits (%d characters)" % len(text)) from exc


def ratio_text(n, d):
    """The exact string form of n / d for ints n and d > 0, the inverse of
    parse_coeff, with no Fraction: one gcd against d when d is not 1."""
    if d != 1:
        g = math.gcd(n, d)
        if g != 1:
            n //= g
            d //= g
    try:
        return str(n) if d == 1 else "%d/%d" % (n, d)
    except ValueError as exc:  # beyond the interpreter's integer string-conversion limit
        raise ValidationError("result coefficient has too many digits to write out") from exc


def mask_order(m):
    """The sort key of a monomial mask in written output: degree, then mask."""
    return m.bit_count(), m


def geometric_sum(one, x, order):
    """1 + x + ... + x^order, stopping at the first power that is zero.

    The result is exactly (1 - x)^-1 when x^(order+1) = 0, as it is for a
    nilpotent x whose terms all have monomial degree > q / (order + 1).
    It serves the scalars; it only uses `*`, `+` and `is_zero`, so on
    SuperMatrix products it is the tests' oracle of the matrices' integer
    series.  The powers start at x itself, so order k costs at most k - 1
    products.
    """
    acc = one
    term = x
    for k in range(1, order + 1):
        if term.is_zero():
            break
        acc = acc + term
        if k < order:
            term = term * x
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


@cache
def index_masks(q):
    """{increasing index tuple: its mask} over every monomial on q
    generators.  Cached per q; like the disjoint tables, it is built only
    for q <= 10, at most 2**10 entries."""
    return {tuple(mask_to_indices(m)): m for m in range(1 << q)}


def _index_mask(q, idx):
    """The mask of a tuple of ints, or None unless they increase strictly
    within 1..q: `index_masks(q).get` for q above 10."""
    if idx and (idx[0] < 1 or idx[-1] > q) or list(idx) != sorted(set(idx)):
        return None
    return sum(map((1).__lshift__, idx)) >> 1


def _integer_terms(q, items):
    """(num, den) in lowest terms of a nonempty list of term objects, or None
    when a term fails a check of the per-term loop `_first_bad_term`.  Each
    check runs over the whole list at once; `dict.get` takes only dicts and
    reads a missing field as None, which the list and string checks reject.
    """
    try:
        idxs = list(map(dict.get, items, repeat("idx")))
        coeffs = list(map(dict.get, items, repeat("coeff")))
        text = ",".join(coeffs)
    except TypeError:  # a term that is not a dict, or a coefficient that is not a string
        return None
    if not (all(map(isinstance, idxs, repeat(list)))
            and {int}.issuperset(map(type, chain.from_iterable(idxs)))):
        return None
    lookup = index_masks(q).get if q <= 10 else partial(_index_mask, q)
    masks = list(map(lookup, map(tuple, idxs)))
    if None in masks or len(set(masks)) < len(masks) or not _COEFFS_RE.fullmatch(text):
        return None
    # `int` raises ValueError beyond the interpreter's integer string-conversion
    # limit, and on a coefficient holding ",", which the match reads as a
    # boundary between two terms
    try:
        if "/" not in text:
            nums, den = list(map(int, coeffs)), 1
        else:
            tops, _, bottoms = zip(*map(str.partition, coeffs, repeat("/")))
            dens = [int(b) if b else 1 for b in bottoms]
            den = math.lcm(*dens)
            nums = list(map(mul, map(int, tops), map(floordiv, repeat(den), dens)))
    except ValueError:
        return None
    if 0 in nums:
        return None
    num = dict(zip(masks, nums))
    return _lowest_terms(num, den) if den != 1 else (num, 1)


def _first_bad_term(q, items):
    """Raise the ValidationError of the first term of items that
    `_integer_terms` rejects: the per-term loop, which only diagnoses.  It
    raises InternalError when it finds no such term, and never returns."""
    seen = set()
    for item in items:
        if not isinstance(item, dict) or "idx" not in item or "coeff" not in item:
            raise ValidationError("scalar term must have 'idx' and 'coeff' fields")
        if not isinstance(item["idx"], list):
            raise ValidationError("scalar field 'idx' must be a list")
        mask = indices_to_mask(item["idx"], q)
        if parse_coeff(item["coeff"]) == 0:
            raise ValidationError("stored coefficients must be nonzero")
        if mask in seen:
            raise ValidationError("duplicate monomial %r" % (item["idx"],))
        seen.add(mask)
    raise InternalError("the scalar check rejected terms that each pass the per-term check")


class SparseRingElement:
    """The ring core: an immutable element stored as int numerators `num`
    by monomial key over one int `den` > 0, in lowest terms, with `terms`
    its read-only exact-value view (see the module docstring).

    Every method here works on ints and leaves through `_reduced`, one gcd.
    A subclass carries the shape: `_like(num, den)` (a new element of its
    class and shape, with no checks), `_const_key()`, `_same_shape(other)`,
    `_coerce(other)`, `_sorted_terms()` and `_monomial_text(key)`, and its
    own `__add__` (through `_add`) and `__mul__`.
    """

    __slots__ = ("num", "den", "_terms")
    __hash__ = None

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    @property
    def terms(self):
        """The exact coefficients by key, integral ones as ints: a read-only
        dict, built on first read and cached."""
        try:
            return self._terms
        except AttributeError:
            den = self.den
            view = _TermsView(self.num if den == 1 else
                              {k: _ratio(c, den) for k, c in self.num.items()})
            _set_terms(self, view)
            return view

    def _reduced(self, num, den):
        """num / den in lowest terms, shaped like self, for a dict num of
        nonzero int numerators and an int den > 0.  num is not mutated."""
        if den != 1:
            num, den = _lowest_terms(num, den)
        return self._like(num, den)

    def is_zero(self):
        return not self.num

    def __bool__(self):
        return bool(self.num)

    def __neg__(self):
        return self._like({k: -c for k, c in self.num.items()}, self.den)

    def _add(self, other):
        """self + other, or NotImplemented: the numerators over the lcm of the
        two denominators, added in one dict and reduced once."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        den, b = self.den, other.den
        if den == b:
            num, b = dict(self.num), other.num
        else:
            den = math.lcm(den, b)
            num, b = _times(self.num, den // self.den), _times(other.num, den // b)
        for k, c in b.items():
            v = num.get(k)
            num[k] = c if v is None else v + c
        return self._reduced({k: c for k, c in num.items() if c}, den)

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
        return self._like({self._const_key(): c.numerator} if c else {}, c.denominator)

    def _scale(self, c):
        """The product with an exact coefficient c: the numerators times c's
        numerator over den times c's denominator, reduced once."""
        if c == 0:
            return self._like({}, 1)
        p = c.numerator
        return self._reduced({k: v * p for k, v in self.num.items()}, self.den * c.denominator)

    def _sum(self, items):
        """The sum of a list of elements shaped like self: their numerators
        over the lcm of their denominators, added in one dict and reduced once."""
        den, nums = common_denominator(items)
        acc = {}
        for num in nums:
            for k, c in num.items():
                v = acc.get(k)
                acc[k] = c if v is None else v + c
        return self._reduced({k: c for k, c in acc.items() if c}, den)

    def __pow__(self, k):
        if not is_int(k) or k < 0:
            raise ValidationError("exponent must be a non-negative integer")
        out = self if k else self._const(1)
        for _ in range(k - 1):
            if out.is_zero():
                break
            out = out * self
        return out

    def __eq__(self, other):
        if type(other) is type(self):
            return self._same_shape(other) and self.den == other.den and self.num == other.num
        if is_coeff(other):  # a bool is not a coefficient: NotImplemented
            if other == 0:
                return not self.num
            return (self.den == other.denominator
                    and self.num == {self._const_key(): other.numerator})
        return NotImplemented

    def __str__(self):
        den = self.den
        parts = []
        for key, c in self._sorted_terms():
            body = self._monomial_text(key)
            if not body:
                parts.append(ratio_text(c, den))
            elif c == den:
                parts.append(body)
            elif c == -den:
                parts.append("-" + body)
            else:
                parts.append("%s*%s" % (ratio_text(c, den), body))
        return " + ".join(parts).replace("+ -", "- ") if parts else "0"


def _lowest_terms(num, den):
    """(num, den) divided by their gcd, for a dict num of nonzero int
    numerators and an int den > 1: one gcd, and one division when it is not 1."""
    g = math.gcd(den, *num.values())
    if g == 1:
        return num, den
    return {k: c // g for k, c in num.items()}, den // g


_new = object.__new__
_set_num, _set_den, _set_terms = (SparseRingElement.__dict__[name].__set__
                                  for name in SparseRingElement.__slots__)


def _integer_form(terms):
    """(num, den) of a dict of nonzero exact coefficients, den the lcm of
    their denominators.  It is reduced: each prime p of den divides some
    coefficient's denominator as often as it divides den, so p does not
    divide that coefficient's scaled numerator."""
    if all(type(c) is int for c in terms.values()):
        return terms, 1
    den = math.lcm(*[c.denominator for c in terms.values()])
    return {k: c.numerator * (den // c.denominator) for k, c in terms.items()}, den


class GrassmannScalar(SparseRingElement):
    """Immutable element of the Grassmann algebra on q generators, stored
    as `num` over `den` in lowest terms (see the module docstring)."""

    __slots__ = ("q",)

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
                    clean[mask] = coeff
        num, den = _integer_form(clean)
        _set_q(self, q)
        _set_num(self, num)
        _set_den(self, den)

    @staticmethod
    def _check_q(q):
        if not is_int(q) or q < 0:
            raise ValidationError("generator count must be a non-negative integer")
        if q > _generator_cap:
            raise ValidationError("generator count %d exceeds the cap %d" % (q, _generator_cap))

    def _like(self, num, den):
        # `_raw`'s body, inlined: every ring operation on a scalar ends here
        x = _new(GrassmannScalar)
        _set_q(x, self.q)
        _set_num(x, num)
        _set_den(x, den)
        return x

    def _const_key(self):
        return 0

    def _same_shape(self, other):
        return self.q == other.q

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, q):
        cls._check_q(q)
        return _raw(q, {})

    @classmethod
    def one(cls, q):
        cls._check_q(q)
        return _raw(q, {0: 1})

    @classmethod
    def rational(cls, q, value):
        return cls.zero(q)._const(value)

    @classmethod
    def generator(cls, q, i):
        cls._check_q(q)
        if not is_int(i) or not 1 <= i <= q:
            raise ValidationError("generator index %r out of range 1..%d" % (i, q))
        return _raw(q, {1 << (i - 1): 1})

    @classmethod
    def monomial(cls, q, indices, coeff=1):
        return cls(q, {indices_to_mask(indices, q): coeff})

    # ------------------------------------------------------------------
    # structure

    def coefficient(self, mask):
        """The exact coefficient of monomial mask, an int when integral."""
        return _ratio(self.num.get(mask, 0), self.den)

    def body(self):
        """Coefficient of the empty monomial; a ring homomorphism onto Q."""
        return self.coefficient(0)

    def soul(self):
        return self._reduced({m: c for m, c in self.num.items() if m}, self.den)

    def even_part(self):
        return self._reduced({m: c for m, c in self.num.items() if not m.bit_count() & 1},
                             self.den)

    def odd_part(self):
        return self._reduced({m: c for m, c in self.num.items() if m.bit_count() & 1}, self.den)

    def parity_split(self):
        return self.even_part(), self.odd_part()

    def is_even(self):
        return all(not m.bit_count() & 1 for m in self.num)

    def is_odd(self):
        return all(m.bit_count() & 1 for m in self.num)

    def min_degree(self):
        """Smallest monomial length present, or None for the zero scalar."""
        if not self.num:
            return None
        return min(m.bit_count() for m in self.num)

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
            return self._const(other)
        return None

    def __add__(self, other):
        return self._add(other)

    __radd__ = __add__

    def __mul__(self, other):
        if is_coeff(other):
            return self._scale(other)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        acc = {}
        mul_terms_into(acc, self.num, other.num)
        return self._reduced({m: c for m, c in acc.items() if c}, self.den * other.den)

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
        b = self.body()
        if b == 0:
            raise ZeroBody("cannot invert a scalar with zero body")
        binv = _norm(Fraction(1, 1) / b)
        return geometric_sum(self.one(self.q), 1 - (self * binv), self.q) * binv

    # ------------------------------------------------------------------
    # io

    def _sorted_terms(self):
        return sorted(self.num.items(), key=lambda kv: mask_order(kv[0]))

    def _monomial_text(self, m):
        return "".join("e%d" % i for i in mask_to_indices(m))

    def __repr__(self):
        return "GrassmannScalar(q=%d, %s)" % (self.q, self)

    def to_obj(self):
        # `cli._json_text` writes this layout straight from `num` and `den`
        num, den = self.num, self.den
        return {
            "q": self.q,
            "terms": [{"idx": mask_to_indices(m), "coeff": ratio_text(num[m], den)}
                      for m in sorted(num, key=mask_order)],
        }

    @classmethod
    def from_obj(cls, obj):
        """The scalar of `to_obj`'s layout, its term list read in one bulk
        check, `_integer_terms`; only a list it rejects goes through the
        per-term loop `_first_bad_term`, for the first bad term's error."""
        if not isinstance(obj, dict) or "q" not in obj or "terms" not in obj:
            raise ValidationError("scalar object must have 'q' and 'terms' fields")
        q = obj["q"]
        cls._check_q(q)  # before any term: the cap bounds every mask
        items = obj["terms"]
        if not isinstance(items, list):
            raise ValidationError("scalar field 'terms' must be a list")
        if not items:
            return _raw(q, {})
        form = _integer_terms(q, items)
        if form is None:
            _first_bad_term(q, items)
        return _raw(q, *form)


_set_q = GrassmannScalar.__dict__["q"].__set__


def _raw(q, num, den=1):
    """The scalar num / den, already in lowest terms, with no checks."""
    x = _new(GrassmannScalar)
    _set_q(x, q)
    _set_num(x, num)
    _set_den(x, den)
    return x


def reduced_scalar(q, num, den):
    """The scalar num / den over q generators in lowest terms, for a dict num
    of nonzero int numerators and an int den > 0, with no other checks: the
    exit of each cell of a matrix product.  num is not mutated."""
    if den != 1:
        num, den = _lowest_terms(num, den)
    return _raw(q, num, den)
