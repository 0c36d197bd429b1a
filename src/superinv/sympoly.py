"""Exact polynomial algebra in even and odd formal variables.

A SuperPolynomial lives in variables a_1..a_n (even) and b_1..b_n (odd,
anticommuting, square zero).  Monomials are keyed by the even exponent vector
together with a bitmask of odd indices; odd factors are normalized to
increasing index order, so the stored coefficient absorbs the reordering
sign.  TTauExpression is a SuperPolynomial whose keys range over formal
symbols u_1..u_K (even) and x_1..x_K (odd) standing for the symmetric kernels
the algebra rewrites into: the one ring implementation serves both, and
`expand` maps an expression onto the polynomial it names.  Those kernels
(t_k, tau_k and s_j) are pure functions of two small ints, so each is built
once and then served from a module-level table.
`coefficient_matrix` turns term dicts into the exact linear systems that
the balance conditions solve.  Neither rewrite solves one: `rewrite_symmetric`
reads one coefficient per S_n orbit and writes each orbit sum in t and tau
through the lattice of set partitions, and the invariant normal form reads
its coefficients off the invariant decomposition.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache, reduce
from itertools import combinations
from math import factorial, prod
from operator import add, lt, mul

from .errors import InternalError, NotInvariant, NotSymmetric, ValidationError
from .grassmann import (
    GrassmannScalar,
    SparseRingElement,
    _norm,
    coeff_text,
    indices_to_mask,
    is_coeff,
    is_int,
    mask_to_indices,
    merge_sign,
    parse_coeff,
    prune_terms,
)


def _sort_sign(seq):
    """Sign of sorting a sequence of distinct indices, plus the mask."""
    sign, mask = 1, 0
    for i in seq:
        bit = 1 << i
        sign *= merge_sign(mask, bit)
        mask |= bit
    return sign, mask


class SuperPolynomial(SparseRingElement):
    """Sparse exact polynomial with n even and n odd variables.

    Keys range over `width` even and `width` odd variables; here the width is
    n, and a subclass may widen it.  Every result is built through `_like`,
    so it keeps the class and shape of its left operand; the ring operations
    other than `+` and `*` come from `grassmann.SparseRingElement`.
    """

    __slots__ = ("n", "terms")
    _letters = ("a", "b")

    def __init__(self, n, terms=None):
        if not is_int(n) or n < 0:
            raise ValidationError("variable count must be a non-negative integer")
        object.__setattr__(self, "n", n)
        width = self.width
        clean = {}
        if terms:
            for (exps, mask), c in terms.items():
                exps = tuple(exps)
                if len(exps) != width or any(not is_int(e) or e < 0 for e in exps):
                    raise ValidationError("exponent vector must be %d non-negative ints" % width)
                if not is_int(mask) or mask < 0 or mask >= (1 << width):
                    raise ValidationError("odd index mask out of range")
                if not is_coeff(c):
                    raise ValidationError("coefficient must be an int or Fraction: %r" % (c,))
                if c != 0:
                    key = (exps, mask)
                    clean[key] = _norm(clean.get(key, 0) + c)
                    if clean[key] == 0:
                        del clean[key]
        object.__setattr__(self, "terms", clean)

    @property
    def width(self):
        """How many even (and odd) variables the monomial keys range over."""
        return self.n

    def _like(self, terms):
        """A polynomial of this class and shape with already-pruned terms."""
        new = object.__new__(type(self))
        object.__setattr__(new, "n", self.n)
        object.__setattr__(new, "terms", terms)
        return new

    def _const_key(self):
        return ((0,) * self.width, 0)

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, n):
        return cls(n)

    @classmethod
    def constant(cls, n, c):
        return cls.zero(n)._const(c)

    @classmethod
    def one(cls, n):
        return cls.constant(n, 1)

    @staticmethod
    def _check_index(i, width, what):
        if not is_int(i) or not 1 <= i <= width:
            raise ValidationError("%s index %r out of range 1..%d" % (what, i, width))

    @classmethod
    def even_var(cls, n, i):
        cls._check_index(i, n, "even variable")
        exps = tuple(1 if j == i - 1 else 0 for j in range(n))
        return cls.zero(n)._like({(exps, 0): 1})

    @classmethod
    def odd_var(cls, n, i):
        cls._check_index(i, n, "odd variable")
        return cls.zero(n)._like({((0,) * n, 1 << (i - 1)): 1})

    # ------------------------------------------------------------------
    # ring structure

    def _same_shape(self, other):
        return self.n == other.n

    def _coerce(self, other):
        # an exact type match: a subclass never mixes with its base
        if type(other) is type(self):
            if not self._same_shape(other):
                raise ValidationError("operand shapes differ: %r vs %r" % (
                    (self.n, self.width), (other.n, other.width)))
            return other
        if isinstance(other, (int, Fraction)):
            return self._const(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for k, c in other.terms.items():
            v = terms.get(k)
            terms[k] = c if v is None else v + c
        return self._like(prune_terms(terms))

    __radd__ = __add__

    def __mul__(self, other):
        if is_coeff(other):
            return self._scale(other)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        acc = {}
        for (e1, m1), c1 in self.terms.items():
            for (e2, m2), c2 in other.terms.items():
                if m1 & m2:
                    continue
                c = c1 * c2
                if merge_sign(m1, m2) < 0:
                    c = -c
                key = (tuple(map(add, e1, e2)), m1 | m2)
                v = acc.get(key)
                acc[key] = c if v is None else v + c
        return self._like(prune_terms(acc))

    __rmul__ = __mul__  # only a non-polynomial left operand reaches it

    # ------------------------------------------------------------------
    # structure

    def constant_term(self):
        return self.terms.get(self._const_key(), 0)

    def even_part(self):
        return self._like({k: c for k, c in self.terms.items() if not k[1].bit_count() & 1})

    def odd_part(self):
        return self._like({k: c for k, c in self.terms.items() if k[1].bit_count() & 1})

    def is_even_polynomial(self):
        """True when no odd variable appears at all."""
        return all(mask == 0 for _, mask in self.terms)

    def homogeneous_component(self, d):
        return self._like(
            {k: c for k, c in self.terms.items() if sum(k[0]) + k[1].bit_count() == d}
        )

    def degrees(self):
        return sorted({sum(e) + m.bit_count() for e, m in self.terms})

    def coefficient_of_odd(self, mask):
        """The even-variable polynomial multiplying the given odd monomial."""
        return self._like({(e, 0): c for (e, m), c in self.terms.items() if m == mask})

    def derivative(self, i):
        """Partial derivative in the i-th even variable (1-based)."""
        self._check_index(i, self.width, "even variable")
        out = {}
        idx = i - 1
        for (exps, mask), c in self.terms.items():
            e = exps[idx]
            if e == 0:
                continue
            new = list(exps)
            new[idx] = e - 1
            key = (tuple(new), mask)
            out[key] = out.get(key, 0) + c * e
        return self._like(prune_terms(out))

    def odd_multiply(self, i):
        """Left multiplication by the i-th odd variable."""
        self._check_index(i, self.width, "odd variable")
        bit = 1 << (i - 1)
        out = {}
        for (exps, mask), c in self.terms.items():
            if mask & bit:
                continue
            if merge_sign(bit, mask) < 0:
                c = -c
            out[(exps, mask | bit)] = c
        return self._like(prune_terms(out))

    def permute(self, perm):
        """Apply a permutation of variable indices (0-based image list)."""
        width = self.width
        if not all(map(is_int, perm)) or sorted(perm) != list(range(width)):
            raise ValidationError("perm must be a permutation of 0..n-1")
        out = {}
        for (exps, mask), c in self.terms.items():
            new_exps = [0] * width
            for i, e in enumerate(exps):
                new_exps[perm[i]] = e
            sign, new_mask = _sort_sign(perm[i - 1] for i in mask_to_indices(mask))
            key = (tuple(new_exps), new_mask)
            out[key] = out.get(key, 0) + (c if sign > 0 else -c)
        return self._like(prune_terms(out))

    def is_symmetric(self):
        """Check invariance under all adjacent transpositions.

        Returns (True, None) or (False, (i, i+1)) with the witnessing
        transposition (1-based).
        """
        for i in range(self.width - 1):
            perm = list(range(self.width))
            perm[i], perm[i + 1] = perm[i + 1], perm[i]
            if self.permute(perm) != self:
                return False, (i + 1, i + 2)
        return True, None

    def evaluate(self, a_vals, alpha_vals):
        """Exact evaluation at Grassmann scalar arguments."""
        if len(a_vals) != self.n or len(alpha_vals) != self.n:
            raise ValidationError("need %d even and %d odd values" % (self.n, self.n))
        q = a_vals[0].q if self.n else 0
        return self._substitute(GrassmannScalar.zero(q), a_vals.__getitem__,
                                alpha_vals.__getitem__)

    def _substitute(self, zero, even, odd):
        """Substitute even(i) for a_(i+1) and odd(i) for b_(i+1), i 0-based, in
        the ring whose zero is given.  A term is the product of its factors
        from the first on, each even value repeated by its exponent and the odd
        values in index order, scaled by its coefficient once."""
        acc = zero
        for (exps, mask), c in self.terms.items():
            factors = []
            for i, e in enumerate(exps):
                if e:
                    factors += [even(i)] * e
            factors += [odd(i - 1) for i in mask_to_indices(mask)]
            acc = acc + (reduce(mul, factors)._scale(c) if factors else zero._const(c))
        return acc

    # ------------------------------------------------------------------
    # io

    def _sorted_terms(self):
        return sorted(self.terms.items())

    def _monomial_text(self, key):
        even, odd = self._letters
        bits = ["%s%d^%d" % (even, i + 1, e) if e > 1 else "%s%d" % (even, i + 1)
                for i, e in enumerate(key[0]) if e]
        return "*".join(bits + ["%s%d" % (odd, i) for i in mask_to_indices(key[1])])

    def __repr__(self):
        return "SuperPolynomial(n=%d, %s)" % (self.n, self)

    def _terms_obj(self):
        return [
            {"even": list(e), "odd": mask_to_indices(m), "coeff": coeff_text(c)}
            for (e, m), c in self._sorted_terms()
        ]

    def to_obj(self):
        return {"n": self.n, "terms": self._terms_obj()}

    @staticmethod
    def _terms_from_obj(items, width):
        if not isinstance(items, list):
            raise ValidationError("'terms' must be a list")
        terms = {}
        for item in items:
            if not isinstance(item, dict):
                raise ValidationError("polynomial term must be an object")
            exps = item.get("even")
            odd = item.get("odd")
            if (not isinstance(exps, list) or len(exps) != width
                    or not all(is_int(e) and e >= 0 for e in exps)):
                raise ValidationError("'even' must list %d non-negative integer exponents" % width)
            if not isinstance(odd, list):
                raise ValidationError("'odd' must be a list of indices")
            key = (tuple(exps), indices_to_mask(odd, width))
            if key in terms:
                raise ValidationError("duplicate monomial in polynomial object")
            terms[key] = parse_coeff(item.get("coeff"))
        return terms

    @classmethod
    def from_obj(cls, obj):
        if not isinstance(obj, dict) or "n" not in obj or "terms" not in obj:
            raise ValidationError("polynomial object must have 'n' and 'terms' fields")
        n = obj["n"]
        if not is_int(n) or n < 0:
            raise ValidationError("'n' must be a non-negative integer")
        return cls(n, cls._terms_from_obj(obj["terms"], n))


# ----------------------------------------------------------------------
# concrete symmetric kernels


def _check_kernel_args(n, k, least):
    """n must be an int >= 0 and k an int >= least; bools are not ints here."""
    if not is_int(n) or n < 0:
        raise ValidationError("n must be a non-negative integer")
    if not is_int(k) or k < least:
        raise ValidationError("k must be an integer >= %d" % least)


def power_sum_even(n, k):
    """t_k = sum_i a_i^k, so t_0 = n.  Served from a table keyed on (n, k)."""
    _check_kernel_args(n, k, 0)
    return _power_sum_even(n, k)


@cache
def _power_sum_even(n, k):
    acc = SuperPolynomial.zero(n)
    for i in range(1, n + 1):
        acc = acc + SuperPolynomial.even_var(n, i) ** k
    return acc


def power_sum_odd(n, k):
    """tau_k = sum_i b_i a_i^(k-1), k >= 1.  Served from a table keyed on (n, k)."""
    _check_kernel_args(n, k, 1)
    return _power_sum_odd(n, k)


@cache
def _power_sum_odd(n, k):
    acc = SuperPolynomial.zero(n)
    for i in range(1, n + 1):
        b_i = SuperPolynomial.odd_var(n, i)
        acc = acc + (b_i * SuperPolynomial.even_var(n, i) ** (k - 1) if k > 1 else b_i)
    return acc


def signed_elementary(values):
    """s_1..s_n, s_j = (-1)^(j-1) e_j, of n commuting values.

    e_1..e_k of the first k values take the next value v as e_(k+1) = e_k v,
    e_j += e_(j-1) v and e_1 += v, so n values cost n(n-1)/2 products, none
    with a constant.  The sign convention is the one the odd-moment
    recurrence forces.
    """
    e = list(values[:1])
    for v in values[1:]:
        e.append(e[-1] * v)
        for j in range(len(e) - 2, 0, -1):
            e[j] = e[j] + e[j - 1] * v
        e[0] = e[0] + v
    return [x if j % 2 == 0 else -x for j, x in enumerate(e)]


def signed_elementary_poly(n, j):
    """s_j in the even variables a_1..a_n, j >= 1; zero for j > n.

    s_1..s_n are computed together and kept in a table keyed on n.
    """
    _check_kernel_args(n, j, 1)
    if j > n:
        return SuperPolynomial.zero(n)
    return _signed_elementary_polys(n)[j - 1]


@cache
def _signed_elementary_polys(n):
    variables = [SuperPolynomial.even_var(n, i) for i in range(1, n + 1)]
    return tuple(signed_elementary(variables))


# ----------------------------------------------------------------------
# expressions in the rewritten symbols


class TTauExpression(SuperPolynomial):
    """Polynomial in formal even symbols u_1..u_K and odd symbols x_1..x_K.

    n is the even/odd variable count of the expansion target; K, the symbol
    range, is the width of the keys and may exceed n (balanced-function work
    uses indices up to 2n-1).
    """

    __slots__ = ("symbol_range",)
    _letters = ("u", "x")

    def __init__(self, n, symbol_range, terms=None):
        if not is_int(symbol_range) or symbol_range < 0:
            raise ValidationError("symbol range must be a non-negative integer")
        object.__setattr__(self, "symbol_range", symbol_range)
        super().__init__(n, terms)

    @property
    def width(self):
        return self.symbol_range

    def _like(self, terms):
        new = super()._like(terms)
        object.__setattr__(new, "symbol_range", self.symbol_range)
        return new

    def _same_shape(self, other):
        return self.n == other.n and self.symbol_range == other.symbol_range

    @classmethod
    def zero(cls, n, symbol_range):
        return cls(n, symbol_range)

    @classmethod
    def constant(cls, n, symbol_range, c):
        return cls.zero(n, symbol_range)._const(c)

    @classmethod
    def even_symbol(cls, n, symbol_range, k):
        cls._check_index(k, symbol_range, "even symbol")
        exps = tuple(1 if j == k - 1 else 0 for j in range(symbol_range))
        return cls.zero(n, symbol_range)._like({(exps, 0): 1})

    @classmethod
    def odd_symbol(cls, n, symbol_range, k):
        cls._check_index(k, symbol_range, "odd symbol")
        return cls.zero(n, symbol_range)._like({((0,) * symbol_range, 1 << (k - 1)): 1})

    @classmethod
    def monomial(cls, n, symbol_range, exps, mask, coeff=1):
        return cls(n, symbol_range, {(tuple(exps), mask): coeff})

    def expand(self, even_basis="t"):
        """Substitute the concrete kernels for the formal symbols.

        even_basis selects what u_k stands for: "t" the power sums, "s" the
        signed elementary polynomials.  Odd symbols always expand to the odd
        moments tau_k.
        """
        n = self.n
        if even_basis == "t":
            kernel = power_sum_even
        elif even_basis == "s":
            kernel = signed_elementary_poly
        else:
            raise ValidationError("even_basis must be 't' or 's'")
        return self._substitute(SuperPolynomial.zero(n), lambda i: kernel(n, i + 1),
                                lambda i: power_sum_odd(n, i + 1))

    def evaluate(self, even_vals, odd_vals):
        """Exact evaluation at Grassmann scalar symbol values.

        Supplying fewer values than the symbol range is fine as long as every
        symbol that actually appears is covered; with no values at all, a
        constant evaluates over q = 0.
        """
        if len(even_vals) < self.symbol_range or len(odd_vals) < self.symbol_range:
            used_e = max([k + 1 for (e, m) in self.terms for k, x in enumerate(e) if x] or [0])
            used_o = max([k for (e, m) in self.terms for k in mask_to_indices(m)] or [0])
            if len(even_vals) < used_e or len(odd_vals) < used_o:
                raise ValidationError(
                    "need %d even and %d odd symbol values" % (used_e, used_o)
                )
        given = even_vals or odd_vals
        q = given[0].q if given else 0
        return self._substitute(GrassmannScalar.zero(q), even_vals.__getitem__,
                                odd_vals.__getitem__)

    def __repr__(self):
        return "TTauExpression(n=%d, K=%d, %s)" % (self.n, self.symbol_range, self)

    def to_obj(self):
        return {"n": self.n, "symbol_range": self.symbol_range, "terms": self._terms_obj()}

    @classmethod
    def from_obj(cls, obj):
        if not isinstance(obj, dict) or any(k not in obj for k in ("n", "symbol_range", "terms")):
            raise ValidationError("expression object must have 'n', 'symbol_range' and 'terms'")
        n = obj["n"]
        sr = obj["symbol_range"]
        if not is_int(n) or n < 0 or not is_int(sr) or sr < 0:
            raise ValidationError("'n' and 'symbol_range' must be non-negative integers")
        return cls(n, sr, cls._terms_from_obj(obj["terms"], sr))


class BalancedExpression:
    """A rational expression in the signed elementary symbols and odd moments.

    The numerator is a TTauExpression whose even symbols stand for s_1..s_n;
    the denominator uses even symbols only.  Balancedness means the pullback
    along the concrete kernels is an invariant function.
    """

    __slots__ = ("numerator", "denominator", "_balance_memo")

    def __init__(self, numerator, denominator=None):
        if not isinstance(numerator, TTauExpression):
            raise ValidationError("numerator must be a TTauExpression")
        if denominator is None:
            denominator = TTauExpression.constant(numerator.n, numerator.symbol_range, 1)
        elif not isinstance(denominator, TTauExpression):
            raise ValidationError("denominator must be a TTauExpression")
        if denominator.is_zero():
            raise ValidationError("denominator must be nonzero")
        if not denominator.is_even_polynomial():
            raise ValidationError("denominator must use even symbols only")
        if (numerator.n, numerator.symbol_range) != (denominator.n, denominator.symbol_range):
            raise ValidationError("numerator and denominator shapes differ")
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "denominator", denominator)
        object.__setattr__(self, "_balance_memo", None)

    def __setattr__(self, name, value):
        raise AttributeError("BalancedExpression is immutable")

    @property
    def n(self):
        return self.numerator.n

    def is_balanced(self):
        """Exact check that the pullback is invariant under the odd action.

        Uses the quotient rule with cleared denominators: the pullback is
        symmetric, so it is invariant exactly when b_1 (dN/da_1 D - N dD/da_1)
        vanishes identically.  The verdict and its witness are memoized.
        """
        if self._balance_memo is None:
            object.__setattr__(self, "_balance_memo", _residual_witness(
                self.numerator.expand(even_basis="s"), self.denominator.expand(even_basis="s")))
        return self._balance_memo

    def evaluate(self, s_vals, tau_vals):
        num = self.numerator.evaluate(s_vals, tau_vals)
        den = self.denominator.evaluate(s_vals, tau_vals)
        return num * den.invert()

    def __repr__(self):
        return "BalancedExpression((%s) / (%s))" % (self.numerator, self.denominator)

    def to_obj(self):
        return {"numerator": self.numerator.to_obj(), "denominator": self.denominator.to_obj()}

    @classmethod
    def from_obj(cls, obj):
        if not isinstance(obj, dict) or "numerator" not in obj or "denominator" not in obj:
            raise ValidationError("balanced expression needs 'numerator' and 'denominator'")
        return cls(TTauExpression.from_obj(obj["numerator"]),
                   TTauExpression.from_obj(obj["denominator"]))


# ----------------------------------------------------------------------
# the structure and rewriting operations


def balance_residual(num, den, i):
    """b_i (dN/da_i D - N dD/da_i), the quotient rule with D cleared.

    For a nonzero D, N/D is invariant under the odd action exactly when
    this vanishes for every i.  A denominator equal to 1, as a polynomial
    or the integer, leaves b_i dN/da_i.
    """
    if den == 1:
        return num.derivative(i).odd_multiply(i)
    dnum, dden = num.derivative(i), den.derivative(i)
    # a constant derivative, zero included, scales the other factor: no ring product
    c, e = dnum.constant_term(), dden.constant_term()
    residual = den._scale(c) if dnum == c else dnum * den
    residual = residual - (num._scale(e) if dden == e else num * dden)
    return residual.odd_multiply(i)


def _symmetric_residual(num, den):
    """b_1 (dN/da_1 D - N dD/da_1); residual i is this with (a_1, b_1), (a_i, b_i)
    swapped, so it alone decides a symmetric N/D.  Zero when n = 0."""
    return balance_residual(num, den, 1) if num.n else SuperPolynomial.zero(0)


def _residual_witness(num, den):
    """(True, None) when the symmetric N/D is balanced, else (False, (1, residual))."""
    residual = _symmetric_residual(num, den)
    return (True, None) if residual.is_zero() else (False, (1, residual))


def _require_polynomial(f):
    """Raise ValidationError unless f is a SuperPolynomial (an expression is not)."""
    if type(f) is not SuperPolynomial:
        raise ValidationError("need a SuperPolynomial, not %s" % type(f).__name__)


def _require_invariant(f):
    """Raise NotInvariant, with its witness, unless f is symmetric and odd-invariant."""
    _require_polynomial(f)
    ok, witness = f.is_symmetric()
    if not ok:
        raise NotInvariant("polynomial is not symmetric", witness=witness)
    ok, witness = _residual_witness(f, 1)
    if not ok:
        raise NotInvariant("polynomial is not invariant under the odd action", witness=witness)


def invariant_decomposition(f):
    """Split an invariant polynomial into its canonical components.

    Returns (constant, [f_1, ..., f_n]) where f_k is an even polynomial in k
    variables, skew-symmetric for k >= 2, such that f reassembles as the sum
    of the constant and the products b_{i1}..b_{ik} f_k(a_{i1}, .., a_{ik})
    over increasing index tuples.
    """
    _require_invariant(f)
    n = f.n
    constant = f.constant_term()
    components = []
    for s in range(1, n + 1):
        mask = (1 << s) - 1
        g = f.coefficient_of_odd(mask)
        comp_terms = {}
        for (exps, _zero), c in g.terms.items():
            if any(exps[i] for i in range(s, n)):
                raise InternalError("component depends on excluded variables")
            comp_terms[(exps[:s], 0)] = c
        comp = SuperPolynomial(s, comp_terms)
        if s >= 2:
            for i in range(s - 1):
                perm = list(range(s))
                perm[i], perm[i + 1] = perm[i + 1], perm[i]
                if comp.permute(perm) != -comp:
                    raise InternalError("component is not skew-symmetric")
        components.append(comp)
    if assemble_invariant(n, constant, components) != f:
        raise InternalError("decomposition does not reassemble")
    return constant, components


def assemble_invariant(n, constant, components):
    """Rebuild a polynomial from its canonical invariant components."""
    acc = SuperPolynomial.constant(n, constant)
    for s, comp in enumerate(components, start=1):
        if comp.is_zero():
            continue
        for subset in combinations(range(n), s):
            mask = 0
            for i in subset:
                mask |= 1 << i
            terms = {}
            for (exps, _zero), c in comp.terms.items():
                new = [0] * n
                for local, i in enumerate(subset):
                    new[i] = exps[local]
                terms[(tuple(new), mask)] = c
            acc = acc + SuperPolynomial(n, terms)
    return acc


def vandermonde_adjoint(n):
    """The power matrix M and its polynomial adjoint M'.

    M has rows (a_1^k .. a_n^k) for k = 0..n-1; row s of M' lists the
    coefficients of prod_{i != s}(x - a_i) by increasing power, so that
    (M'M)_{kl} = prod_{i != k}(a_l - a_i) exactly.
    """
    if not is_int(n) or n < 1:
        raise ValidationError("need at least one variable")
    m = [[SuperPolynomial.even_var(n, l + 1) ** k for l in range(n)] for k in range(n)]
    one = SuperPolynomial.one(n)
    mp = []
    for s in range(1, n + 1):
        others = [SuperPolynomial.even_var(n, i) for i in range(1, n + 1) if i != s]
        # the coefficient of x^k is (-1)^(n-1-k) e_(n-1-k) = -s_(n-1-k)
        mp.append([-c for c in reversed(signed_elementary(others))] + [one])
    return m, mp


def _ttau_monomials(symbol_range, weight):
    """All (exps, mask) with sum k*E_k + sum_{k in mask} k == weight."""
    masks = []

    def rec_mask(k, mask, w):
        if w > weight:
            return
        if k > symbol_range:
            masks.append((mask, w))
            return
        rec_mask(k + 1, mask, w)
        rec_mask(k + 1, mask | (1 << (k - 1)), w + k)

    rec_mask(1, 0, 0)
    out = []
    for mask, wm in masks:
        target = weight - wm
        exps_list = []

        def rec_exps(k, left, acc):
            if k > symbol_range:
                if left == 0:
                    exps_list.append(tuple(acc))
                return
            for e in range(left // k + 1):
                rec_exps(k + 1, left - e * k, acc + [e])

        rec_exps(1, target, [])
        for exps in exps_list:
            out.append((exps, mask))
    return out


def coefficient_matrix(columns):
    """The matrix with one term dict per column, rows keyed by first appearance."""
    rows_index = {}
    for terms in columns:
        for key in terms:
            rows_index.setdefault(key, len(rows_index))
    matrix = [[0] * len(columns) for _ in range(len(rows_index))]
    for col, terms in enumerate(columns):
        for key, c in terms.items():
            matrix[rows_index[key]][col] = c
    return matrix


@cache
def _set_partitions(size):
    """The set partitions of the parts 0..size-1, each with its Moebius value.

    Each is (blocks, mu): the blocks are ordered by their least part, and
    mu = prod_B (-1)^(|B|-1) (|B|-1)! is the Moebius function from the
    partition into singletons.  A table keyed on size.
    """
    partitions = [[]]
    for p in range(size):
        partitions = [blocks[:i] + [blocks[i] + [p]] + blocks[i + 1:]
                      for blocks in partitions for i in range(len(blocks))] + [
                          blocks + [[p]] for blocks in partitions]
    return tuple((tuple(map(tuple, blocks)),
                  prod((-1) ** (len(b) - 1) * factorial(len(b) - 1) for b in blocks))
                 for blocks in partitions)


@cache
def _t_symbol(n, k):
    """t_k in the symbols of n variables: u_k for k <= n, else sum_j s_j t_(k-j)."""
    if k <= n:
        return TTauExpression.even_symbol(n, n, k)
    return reduce(add, [_s_symbol(n, j) * _t_symbol(n, k - j) for j in range(1, n + 1)])


@cache
def _tau_symbol(n, k):
    """tau_k in the symbols of n variables: x_k for k <= n, else sum_j tau_(k-j) s_j."""
    if k <= n:
        return TTauExpression.odd_symbol(n, n, k)
    return reduce(add, [_tau_symbol(n, k - j) * _s_symbol(n, j) for j in range(1, n + 1)])


@cache
def _s_symbol(n, j):
    """s_j in u_1..u_j, j <= n, by Newton's identity j s_j = t_j - sum_(i<j) s_(j-i) t_i."""
    acc = _t_symbol(n, j)
    for i in range(1, j):
        acc = acc - _s_symbol(n, j - i) * _t_symbol(n, i)
    return acc._scale(Fraction(1, j))


def rewrite_symmetric(f):
    """Rewrite a symmetric polynomial in the power-sum symbols.

    Returns the unique TTauExpression g with g(t_1..t_n, tau_1..tau_n) = f.
    There is no solve.  f is a sum of orbit sums, and the coefficient of each
    is read off one term of its orbit, times the sign that orders the term's
    odd indices by exponent.  A term's parts are the variables it touches,
    each an exponent, odd or even; the sum of a monomial over all injective
    maps of its parts into the variables is, by Moebius inversion on the set
    partitions of the parts (Doubilet, Stud. Appl. Math. 51, 1972),
    sum_pi mu(pi) prod_B P_B.  P_B is t_w for a block of even parts of total
    exponent w, tau_(w+1) for a block with one odd part and zero for a block
    with two; with the odd parts first, in order of exponent, the odd blocks
    multiply in that order with no sign.  That sum counts each term of the
    orbit once per permutation of equal even parts.  Symbols above n are
    then written in u_1..u_n and x_1..x_n by the power-sum and odd-moment
    recurrences.
    """
    _require_polynomial(f)
    ok, witness = f.is_symmetric()
    if not ok:
        raise NotSymmetric("polynomial is not symmetric", transposition=witness)
    n = f.n
    orbits = {}
    for (exps, mask), c in f.terms.items():
        odd = sorted((exps[i - 1], i) for i in mask_to_indices(mask))
        key = (tuple(e for e, _i in odd),
               tuple(sorted(e for i, e in enumerate(exps) if e and not mask >> i & 1)))
        if key not in orbits:
            orbits[key] = c if _sort_sign([i for _e, i in odd])[0] > 0 else -c
    symbol_range = max([n] + f.degrees())
    formal = {}
    for (odd, even), c in orbits.items():
        parts = odd + even
        c = Fraction(c, prod(map(factorial, Counter(even).values())))
        for blocks, mu in _set_partitions(len(parts)):
            exps = [0] * symbol_range  # of t_1..t_K
            seq = []  # the 0-based tau indices of the odd blocks, in order
            for block in blocks:
                w = sum(parts[p] for p in block)
                if block[0] >= len(odd):  # even parts only: t_w
                    exps[w - 1] += 1
                elif len(block) > 1 and block[1] < len(odd):  # two odd parts: zero
                    break
                else:  # one odd part: tau_(w+1)
                    seq.append(w)
            else:
                sign, mask = _sort_sign(seq)
                if mask.bit_count() == len(seq):  # else two odd blocks share tau_(w+1)
                    key = (tuple(exps), mask)
                    formal[key] = formal.get(key, 0) + sign * mu * c
    # the formal expression names t_k and tau_k up to the top degree K
    return TTauExpression(n, symbol_range, formal)._substitute(
        TTauExpression.zero(n, n), lambda i: _t_symbol(n, i + 1), lambda i: _tau_symbol(n, i + 1))


def is_balanced(h):
    """Whether h(t_1..t_n, tau_1..tau_K) is an invariant polynomial.

    h is a TTauExpression whose even symbols stand for the power sums (only
    u_1..u_n may appear) and whose odd symbols stand for the odd moments.
    The pullback f is symmetric, so its first balance residual decides:
    returns (True, None), or (False, (1, b_1 df/da_1)).
    """
    if not isinstance(h, TTauExpression):
        raise ValidationError("is_balanced needs a TTauExpression")
    n = h.n
    if any(any(exps[n:]) for exps, _mask in h.terms):
        raise ValidationError("even symbols beyond u_%d may not appear" % n)
    return _residual_witness(h.expand(even_basis="t"), 1)


def invariant_normal_form(f):
    """Express an invariant polynomial as a combination of odd-moment products.

    Returns a TTauExpression with no even symbols: a constant plus products
    x_{i1}..x_{is} of length at most n; substitution of the concrete odd
    moments reproduces f exactly, and the coefficients are unique.

    The coefficients are read off `invariant_decomposition`.  For
    t_1 < .. < t_s, the product tau_(t_1)..tau_(t_s) is the only odd-moment
    product whose expansion holds b_1..b_s a_1^(t_1-1)..a_s^(t_s-1), and it
    holds it with coefficient 1.  So x_(t_1)..x_(t_s) gets the coefficient of
    a^e, e_l = t_l - 1, in f_s.  The decomposition certifies f_s
    skew-symmetric, hence the unique combination of the alternants
    det[a_j^(e_l)] over strictly increasing e, each weighted by its
    coefficient of a^e; and it certifies that the components reassemble to
    f.  Those two self-checks certify the result.
    """
    constant, components = invariant_decomposition(f)
    symbol_range = max([d for d in f.degrees() if d > 0] + [1, f.n])
    no_even = (0,) * symbol_range
    terms = {(no_even, 0): constant}
    for comp in components:
        for (exps, _zero), c in comp.terms.items():
            if all(map(lt, exps, exps[1:])):
                terms[(no_even, sum(1 << e for e in exps))] = c
    return TTauExpression(f.n, symbol_range, terms)


def elementary_from_roots(values):
    """Signed elementary symmetric values s_j = (-1)^(j-1) e_j of even scalars."""
    if not values:
        return []
    q = values[0].q
    for v in values:
        if not isinstance(v, GrassmannScalar) or v.q != q:
            raise ValidationError("values must be scalars over one algebra")
        if not v.is_even():
            raise ValidationError("values must be even scalars")
    return signed_elementary(values)


def verify_recurrence(taus, s):
    """Exact check of tau_{n+k} = sum_j tau_{n+k-j} s_j for k = 1..n."""
    n = len(s)
    if len(taus) != 2 * n:
        raise ValidationError("need exactly 2n odd moments for n semi-invariant values")
    for k in range(1, n + 1):
        acc = taus[n + k - 1] * 0
        for j in range(1, n + 1):
            acc = acc + taus[n + k - j - 1] * s[j - 1]
        if taus[n + k - 1] != acc:
            return False
    return True
