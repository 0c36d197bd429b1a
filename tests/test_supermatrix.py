import json
import random
from fractions import Fraction
from functools import partial

import pytest

from superinv import (
    ANY,
    EVEN,
    ODD,
    GeneratorCountMismatch,
    GrassmannScalar,
    GroupElement,
    Queer,
    ShapeMismatch,
    SingularBody,
    Standard,
    SuperMatrix,
    SuperPolynomial,
    UnconstrainedParity,
    ValidationError,
    balanced_corpus,
    qet_generating_coefficients,
    random_group_element,
    random_matrix,
)
from superinv.grassmann import generator_cap, set_generator_cap
from superinv.supermatrix import _entry_parity
from superinv.verify import (
    pick_distinct,
    random_commuting_odd_pair,
    random_locus_member,
    random_odd_reducible,
    random_queer_with_spectrum,
    random_sector_conjugator,
    random_standard_even_with_spectrum,
)

G = GrassmannScalar


def q1(v, q=2):
    return G.rational(q, v)


def gens(q):
    return [G.generator(q, i) for i in range(1, q + 1)]


def test_identity_multiplication():
    a = random_matrix(Queer(3), ANY, 3, seed=1, coefficient_bound=3)
    e = SuperMatrix.identity(Queer(3), 3)
    assert e @ a == a
    assert a @ e == a


def test_unipotent_pair():
    q = 1
    x1 = G.generator(q, 1)
    a = SuperMatrix(Queer(2), ANY, [[G.one(q), x1], [G.zero(q), G.one(q)]])
    b = SuperMatrix(Queer(2), ANY, [[G.one(q), -x1], [G.zero(q), G.one(q)]])
    assert (a @ b).is_identity()


def test_associativity_random():
    rng = random.Random(2)
    for _ in range(25):
        q = rng.randint(1, 4)
        n = rng.randint(1, 3)
        a = random_matrix(Queer(n), ANY, q, rng.randrange(1 << 30), 3)
        b = random_matrix(Queer(n), ANY, q, rng.randrange(1 << 30), 3)
        c = random_matrix(Queer(n), ANY, q, rng.randrange(1 << 30), 3)
        assert (a @ b) @ c == a @ (b @ c)


def _entrywise_product(a, b):
    """a @ b as sums of GrassmannScalar products, entry by entry."""
    n = a.dim
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = G.zero(a.gq)
            for k in range(n):
                acc = acc + a.rows[i][k] * b.rows[k][j]
            row.append(acc)
        rows.append(row)
    return SuperMatrix(a.shape, ANY, rows)


def _scalar(rng, q, denominators):
    terms = {}
    for _ in range(rng.randint(1, 6)):
        c = Fraction(rng.randint(-9, 9), rng.choice(denominators))
        if c:
            terms[rng.getrandbits(q)] = c
    return G(q, terms)


def _assert_ints_stored_as_int(m):
    for row in m.rows:
        for x in row:
            for c in x.terms.values():
                assert type(c) is int or c.denominator != 1, c


def test_matmul_matches_entrywise_products():
    rng = random.Random(53)
    big = (1000003, 2 ** 61 - 1)
    kinds = {
        # each row of a and each column of b carries its own denominators
        "mixed denominators": lambda q, i, j: _scalar(rng, q, (1, 2 + i, 3 * (j + 1)) + big),
        "all int": lambda q, i, j: _scalar(rng, q, (1,)),
        # row 0 of a and column 0 of b are zero, the rest mixed
        "zero rows and columns": lambda q, i, j: (
            G.zero(q) if i == 0 or j == 0 else _scalar(rng, q, (1, 4, 9) + big)),
    }
    for name, entry in kinds.items():
        for _ in range(12):
            q = rng.randint(1, 5)
            n = rng.randint(1, 3)
            a = SuperMatrix(Queer(n), ANY, [[entry(q, i, j) for j in range(n)] for i in range(n)])
            # entry(q, j, i) puts the zero lines of b in its columns
            b = SuperMatrix(Queer(n), ANY, [[entry(q, j, i) for j in range(n)] for i in range(n)])
            got = a @ b
            assert got == _entrywise_product(a, b), name
            _assert_ints_stored_as_int(got)
            if name == "all int":
                assert all(type(c) is int for row in got.rows for x in row
                           for c in x.terms.values())
            if name == "zero rows and columns":
                assert all(x.is_zero() for x in got.rows[0])
                assert all(row[0].is_zero() for row in got.rows)


def test_matmul_integral_result_from_fractions():
    q = 1
    x1 = G.generator(q, 1)
    a = SuperMatrix(Queer(2), ANY, [[q1(Fraction(1, 2), q), x1 * Fraction(1, 3)],
                                    [q1(Fraction(2, 3), q), q1(5, q)]])
    b = SuperMatrix(Queer(2), ANY, [[q1(2, q), q1(Fraction(3, 7), q)],
                                    [q1(3, q), q1(Fraction(1, 5), q)]])
    got = a @ b
    assert got.rows[0][0].terms == {0: 1, 1: 1}
    assert got.rows[1][0].terms == {0: Fraction(49, 3)}
    assert got.rows[1][1].terms == {0: Fraction(9, 7)}
    _assert_ints_stored_as_int(got)


def test_invert_examples():
    a = SuperMatrix.from_rationals(Queer(2), ANY, [[2, 0], [0, 3]], 2)
    inv = a.invert()
    assert inv == SuperMatrix.from_rationals(Queer(2), ANY,
                                             [[Fraction(1, 2), 0], [0, Fraction(1, 3)]], 2)
    q = 1
    x1 = G.generator(q, 1)
    u = SuperMatrix(Queer(2), ANY, [[G.one(q), x1], [G.zero(q), G.one(q)]])
    assert u.invert() == SuperMatrix(Queer(2), ANY, [[G.one(q), -x1], [G.zero(q), G.one(q)]])


def test_invert_round_trip_random():
    rng = random.Random(3)
    done = 0
    while done < 25:
        q = rng.randint(1, 4)
        n = rng.randint(1, 3)
        try:
            g = random_group_element(Queer(n), q, rng.randrange(1 << 30), 3)
        except Exception:
            continue
        a = g.matrix
        inv = a.invert()
        assert (a @ inv).is_identity() and (inv @ a).is_identity()
        done += 1


def test_invert_singular_body_reports_rank():
    a = SuperMatrix.from_rationals(Queer(2), ANY, [[1, 1], [1, 1]], 2)
    with pytest.raises(SingularBody) as err:
        a.invert()
    assert err.value.rank == 1


def test_queer_split():
    q = 2
    x1 = G.generator(q, 1)
    a = SuperMatrix(Queer(2), ANY, [[q1(2) + x1, G.zero(q)], [G.zero(q), q1(1)]])
    a0, a1 = a.queer_split()
    assert a0 == SuperMatrix.from_rationals(Queer(2), ANY, [[2, 0], [0, 1]], q)
    assert a1 == SuperMatrix(Queer(2), ANY, [[x1, G.zero(q)], [G.zero(q), G.zero(q)]])
    assert a0 + a1 == a
    b = SuperMatrix.from_rationals(Queer(2), ANY, [[1, 2], [3, 4]], q)
    b0, b1 = b.queer_split()
    assert b0 == b and b1.is_zero()


def test_supertrace_examples():
    q = 2
    x1, x2 = gens(q)
    even = SuperMatrix(Standard(1, 1), EVEN, [[q1(5), G.zero(q)], [G.zero(q), q1(3)]])
    assert even.supertrace() == 2
    odd = SuperMatrix(Standard(1, 1), ODD, [[x1, q1(2)], [q1(3), x2]])
    assert odd.supertrace() == x1 + x2
    sq = odd @ odd
    assert sq == SuperMatrix(Standard(1, 1), EVEN,
                             [[q1(6), 2 * x1 + 2 * x2], [3 * x1 + 3 * x2, q1(6)]])
    assert sq.supertrace() == 0
    with pytest.raises(UnconstrainedParity):
        SuperMatrix.from_rationals(Standard(1, 1), ANY, [[1, 0], [0, 1]], q).supertrace()


def test_qtr_examples():
    q = 1
    x1 = G.generator(q, 1)
    a = SuperMatrix(Queer(1), ANY, [[q1(2, q) + x1]])
    assert a.qtr() == x1
    b = SuperMatrix.from_rationals(Queer(2), ANY, [[1, 2], [3, 4]], q)
    assert b.qtr() == 0


def test_qtr_linear_and_odd_valued():
    rng = random.Random(6)
    for _ in range(20):
        q = rng.randint(1, 4)
        n = rng.randint(1, 3)
        a = random_matrix(Queer(n), ANY, q, rng.randrange(1 << 30), 3)
        b = random_matrix(Queer(n), ANY, q, rng.randrange(1 << 30), 3)
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        assert (a + b).qtr() == a.qtr() + b.qtr()
        assert (a * c).qtr() == a.qtr() * c
        assert a.qtr().is_odd()


def test_qet_examples():
    q = 2
    x1, x2 = gens(q)
    a = SuperMatrix(Queer(1), ANY, [[q1(2) + x1]])
    assert a.qet() == x1 * Fraction(1, 2)
    d = SuperMatrix(Queer(2), ANY, [[q1(1) + x1, G.zero(q)], [G.zero(q), q1(2) + x2]])
    assert d.qet() == x1 + x2 * Fraction(1, 2)
    assert SuperMatrix.identity(Queer(2), q).qet() == 0


def test_tau_examples():
    q = 2
    x1, x2 = gens(q)
    a = SuperMatrix(Standard(1, 1), ODD, [[x1, q1(3)], [G.one(q), G.zero(q)]])
    assert a.tau(2) == 3 * x1
    d = SuperMatrix(Queer(2), ANY, [[q1(1) + x1, G.zero(q)], [G.zero(q), q1(2) + x2]])
    assert d.tau_values(3) == [x1 + x2, x1 + 2 * x2, x1 + 4 * x2]
    with pytest.raises(ShapeMismatch):
        SuperMatrix.from_rationals(Standard(1, 2), ODD,
                                   [[0, 1, 1], [1, 0, 0], [1, 0, 0]], q).tau(1)


_QUEER = SuperMatrix(Queer(1), ANY, [[q1(2) + G.generator(2, 1)]])


def _cap_true():
    """set_generator_cap(True), with the cap put back whatever happens."""
    cap = generator_cap()
    try:
        set_generator_cap(True)
    finally:
        set_generator_cap(cap)


# every seeded sampler takes its seed through one check: random.Random would
# seed None from the clock, raise TypeError on a tuple and read True as 1
_SEEDED = {
    "matrix": lambda seed: random_matrix(Queer(1), ANY, 2, seed, 3),
    "group": lambda seed: random_group_element(Queer(1), 2, seed, 3),
    "queer-spectrum": lambda seed: random_queer_with_spectrum(1, [2], 2, seed),
    "standard-spectrum": lambda seed: random_standard_even_with_spectrum(1, 1, [2], [3], 2, seed),
    "odd-reducible": lambda seed: random_odd_reducible(1, [2], 2, seed),
    "locus": lambda seed: random_locus_member(1, 2, seed),
    "commuting-pair": lambda seed: random_commuting_odd_pair(1, 2, seed),
    "sector": lambda seed: random_sector_conjugator(1, 2, seed),
    "corpus": lambda seed: balanced_corpus(2, seed),
}
_BAD_SEEDS = {"none": None, "tuple": (1, 2), "bool": True}


@pytest.mark.parametrize("call", [
    lambda: _QUEER.tau(True),
    lambda: _QUEER ** True,
    lambda: q1(2) ** True,
    lambda: SuperPolynomial.even_var(1, 1) ** True,
    lambda: qet_generating_coefficients(_QUEER, True),
    _cap_true,
    lambda: _QUEER.tau_values(True),
    lambda: _QUEER.tau_values(-1),
    lambda: _QUEER.tau_values(1.5),
    lambda: random_matrix(Queer(1), ANY, 2, 1, True),
    lambda: random_matrix(Queer(1), ANY, 2, 1, 1.5),
    lambda: random_group_element(Queer(1), 2, 1, True),
    lambda: random_group_element(Queer(1), 2, 1, 1.5),
    lambda: pick_distinct(random.Random(1), -1),
    lambda: pick_distinct(random.Random(1), 1.5),
    lambda: pick_distinct(random.Random(1), True),
    lambda: SuperPolynomial(1, {((1,), True): 1}),
    lambda: G(2, {True: True}),
    lambda: G.generator(2, True),
    lambda: G.generator(2, 1.0),
] + [partial(make, seed) for make in _SEEDED.values() for seed in _BAD_SEEDS.values()],
    ids=["tau", "matrix-pow", "scalar-pow", "poly-pow", "qet-coefficients",
         "generator-cap", "tau-values-bool", "tau-values-negative", "tau-values-float",
         "matrix-bound-bool", "matrix-bound-float", "group-bound-bool", "group-bound-float",
         "pick-negative", "pick-float", "pick-bool", "poly-mask-bool", "scalar-mask-bool",
         "generator-bool", "generator-float"]
    + ["%s-seed-%s" % (name, label) for name in _SEEDED for label in _BAD_SEEDS])
def test_booleans_and_bad_counts_rejected(call):
    with pytest.raises(ValidationError):
        call()


def test_pick_distinct_zero_count():
    assert pick_distinct(random.Random(1), 0) == []


def test_invariance_under_conjugation():
    rng = random.Random(8)
    for _ in range(20):
        q = rng.randint(2, 4)
        n = rng.randint(1, 3)
        a = random_matrix(Queer(n), ANY, q, rng.randrange(1 << 30), 3)
        g = random_group_element(Queer(n), q, rng.randrange(1 << 30), 2)
        conj = a.conjugate(g)
        assert conj.qtr() == a.qtr()
        assert conj.tau_values(2 * n) == a.tau_values(2 * n)
        if all(x == 0 for row in a.body_rows() for x in row):
            continue
        from superinv import linalg

        if linalg.inverse(a.body_rows()) is not None:
            assert conj.qet() == a.qet()


def test_conjugate_worked_identity():
    q = 2
    x1, x2 = gens(q)
    a = SuperMatrix(Standard(1, 1), ODD, [[x1, q1(2)], [q1(3), x2]])
    g = GroupElement(SuperMatrix(Standard(1, 1), EVEN, [[G.one(q), -x2], [G.zero(q), q1(3)]]))
    got = a.conjugate(g)
    want = SuperMatrix(Standard(1, 1), ODD,
                       [[x1 + x2, q1(6) - x1 * x2], [G.one(q), G.zero(q)]])
    assert got == want
    assert a.conjugate(GroupElement.identity(Standard(1, 1), q)) == a
    back = got.conjugate(g.inverted())
    assert back == a


def test_conjugate_needs_a_group_element():
    a = SuperMatrix(Standard(1, 1), ODD, [[G.zero(2), q1(2)], [q1(3), G.zero(2)]])
    # an odd matrix is no group element: conjugating by it would lose the parity class
    with pytest.raises(ShapeMismatch, match="conjugate needs a GroupElement"):
        a.conjugate(a)


def test_group_element_inverse_is_the_matrix_inverse():
    rng = random.Random(31)
    for shape in (Queer(2), Standard(1, 2), Standard(2, 2)):
        m = random_group_element(shape, 3, rng.randrange(1 << 30), 3).matrix
        assert GroupElement(m).inverse == m.invert()


def test_group_element_inverse_is_computed_on_first_use(monkeypatch):
    m = random_group_element(Queer(2), 3, seed=32, coefficient_bound=3).matrix
    want = m.invert()
    calls = []
    real = SuperMatrix.invert

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(SuperMatrix, "invert", counting)
    g = GroupElement(m)
    assert calls == []
    # inverted() of an element whose inverse has not been computed yet
    back = g.inverted()
    assert back.matrix == want and back.inverse == m
    assert g.inverse == want and len(calls) == 1
    assert g.inverse is g.inverse and len(calls) == 1


_E1 = G.generator(2, 1)
_STANDARD = SuperMatrix.from_rationals(Standard(1, 1), EVEN, [[1, 0], [0, 1]], 2)


@pytest.mark.parametrize("call, error, message", [
    (lambda: SuperMatrix("queer", ANY, [[_E1]]), ShapeMismatch, "shape must be Queer or Standard"),
    (lambda: SuperMatrix(Queer(1), "bogus", [[_E1]]), ValidationError,
     "parity must be 'even', 'odd' or 'any'"),
    (lambda: SuperMatrix(Queer(2), ANY, [[_E1]]), ShapeMismatch, "entry grid must be 2 x 2"),
    (_STANDARD.queer_split, ShapeMismatch, "queer_split needs a queer-shaped matrix"),
    (_STANDARD.qtr, ShapeMismatch, "qtr needs a queer-shaped matrix"),
    (_STANDARD.qet, ShapeMismatch, "qet needs a queer-shaped matrix"),
    (lambda: SuperMatrix.identity(Queer(1), 2) @ SuperMatrix.identity(Queer(1), 3),
     GeneratorCountMismatch, "generator counts differ: 2 vs 3"),
    (lambda: GroupElement(SuperMatrix(Standard(1, 1), ODD, [[_E1, G.one(2)], [G.one(2), _E1]])),
     ValidationError, "standard-shaped group elements must be even"),
], ids=["shape-string", "parity-label", "grid-size", "queer-split", "qtr", "qet",
        "generator-counts", "odd-group-element"])
def test_matrix_input_checks(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message


@pytest.mark.parametrize("matrix", [5, None, [[1]], G.one(2)])
def test_group_element_needs_a_supermatrix(matrix):
    with pytest.raises(ShapeMismatch, match="GroupElement needs a SuperMatrix"):
        GroupElement(matrix)


def test_group_element_singular_body_rejected_at_construction(monkeypatch):
    q = 2
    x1, x2 = gens(q)
    singular = SuperMatrix(Queer(2), ANY, [[G.one(q), G.one(q) + x1], [x2, x1 * x2]])

    def never(self):
        raise AssertionError("invert() called")

    monkeypatch.setattr(SuperMatrix, "invert", never)
    with pytest.raises(SingularBody, match=r"matrix body is singular \(rank 1 of 2\)") as err:
        GroupElement(singular)
    assert err.value.rank == 1


def test_group_element_stays_immutable():
    g = random_group_element(Queer(2), 2, seed=33, coefficient_bound=3)
    h = g.compose(g)
    for element in (g, h):
        for name in ("inverse", "matrix", "_inverse", "other"):
            with pytest.raises(AttributeError, match="immutable"):
                setattr(element, name, element.matrix)


def test_long_compose_chains_invert_without_recursion():
    h = GroupElement(SuperMatrix(Queer(1), ANY, [[G.rational(1, 2) + G.generator(1, 1)]]))
    left = right = GroupElement.identity(Queer(1), 1)
    for _ in range(3000):  # deeper than the interpreter's recursion limit
        left, right = left.compose(h), h.compose(right)
    want = h.matrix.invert() ** 3000
    assert left.inverse == want and right.inverse == want


def _dense_odd(n, body_values, gq, seed):
    """A reducible odd matrix whose every entry carries a dense soul."""
    from superinv.verify import random_odd_reducible

    a = random_odd_reducible(n, body_values, gq, seed)
    return a + random_matrix(a.shape, ODD, gq, seed + 1, 3, max_terms=6).soul()


def test_composed_inverses_invert_exactly():
    from superinv import block_diagonalize, reduce_odd
    from superinv.verify import random_queer_with_spectrum

    rng = random.Random(34)
    chain = GroupElement.identity(Queer(2), 3)
    for _ in range(4):
        chain = chain.compose(random_group_element(Queer(2), 3, rng.randrange(1 << 30), 3))
    conjugators = [chain, chain.compose(chain.inverted())]
    for eigs in ([1, 1, 2], [-2, 3, 5]):
        a = random_queer_with_spectrum(3, eigs, 4, rng.randrange(1 << 30), soul_terms=6)
        conjugators.append(block_diagonalize(a).conjugator)
    for values in ([2], [1, 4]):
        a = _dense_odd(len(values), values, 4, rng.randrange(1 << 30))
        conjugators.append(reduce_odd(a).conjugator)
    for g in conjugators:
        assert (g.matrix @ g.inverse).is_identity()
        assert (g.inverse @ g.matrix).is_identity()


def test_family_size():
    assert SuperMatrix.identity(Queer(3), 2).family_size() == 3
    assert SuperMatrix.zeros(Standard(2, 2), 2, ODD).family_size() == 2
    for m in (SuperMatrix.identity(Standard(2, 2), 2), SuperMatrix.zeros(Standard(1, 2), 2, ODD)):
        with pytest.raises(ShapeMismatch):
            m.family_size()
        with pytest.raises(ShapeMismatch):
            m.tau_values(1)


def test_random_matrix_determinism_and_contracts():
    a = random_matrix(Queer(2), ANY, 3, seed=99, coefficient_bound=4)
    b = random_matrix(Queer(2), ANY, 3, seed=99, coefficient_bound=4)
    assert a == b
    g1 = random_group_element(Standard(1, 2), 3, seed=5, coefficient_bound=3)
    g2 = random_group_element(Standard(1, 2), 3, seed=5, coefficient_bound=3)
    assert g1.matrix == g2.matrix
    from superinv import linalg

    assert linalg.inverse(g1.matrix.body_rows()) is not None
    even = random_matrix(Standard(2, 1), EVEN, 3, seed=17, coefficient_bound=3)
    even._validate()  # block parities respect the declared class
    odd = random_matrix(Standard(1, 1), ODD, 3, seed=18, coefficient_bound=3)
    odd._validate()


def test_parity_validation_reports_cell():
    q = 2
    x1 = G.generator(q, 1)
    with pytest.raises(ValidationError) as err:
        SuperMatrix(Standard(1, 1), EVEN, [[x1, G.zero(q)], [G.zero(q), G.one(q)]])
    assert err.value.cell == (1, 1)


@pytest.mark.parametrize("parity", [EVEN, ODD])
def test_queer_matrix_declares_any(parity):
    q = 1
    e1 = G.generator(q, 1)
    with pytest.raises(ValidationError, match="queer matrix must declare parity 'any'"):
        SuperMatrix(Queer(1), parity, [[e1]])
    with pytest.raises(ValidationError, match="queer matrix must declare parity 'any'"):
        SuperMatrix.zeros(Queer(1), q, parity)
    obj = SuperMatrix(Queer(1), ANY, [[e1]]).to_obj()
    obj["parity"] = parity
    with pytest.raises(ValidationError, match="queer matrix must declare parity 'any'"):
        SuperMatrix.from_obj(obj)


def test_non_scalar_entry_reports_cell():
    with pytest.raises(ValidationError) as err:
        SuperMatrix(Queer(1), ANY, [[1]])
    assert err.value.cell == (1, 1)
    with pytest.raises(ValidationError) as err:
        SuperMatrix(Queer(2), ANY, [[q1(1), q1(0)], [None, q1(1)]])
    assert err.value.cell == (2, 1)


@pytest.mark.parametrize("make", [
    lambda: Queer(0),
    lambda: Queer(-1),
    lambda: Queer(True),
    lambda: Queer(2.0),
    lambda: Standard(-1, 2),
    lambda: Standard(0, 0),
    lambda: Standard(1, True),
    lambda: SuperMatrix(Queer(0), ANY, []),
], ids=["queer-0", "queer-neg", "queer-bool", "queer-float", "standard-neg", "standard-0-0",
        "standard-bool", "matrix-queer-0"])
def test_bad_shape_dimensions_rejected(make):
    with pytest.raises(ValidationError):
        make()


def test_matrix_serialization_round_trip():
    rng = random.Random(44)
    for _ in range(20):
        q = rng.randint(1, 4)
        kind = rng.choice(["queer", "even", "odd"])
        if kind == "queer":
            a = random_matrix(Queer(rng.randint(1, 3)), ANY, q, rng.randrange(1 << 30), 3)
        elif kind == "even":
            a = random_matrix(Standard(rng.randint(1, 2), rng.randint(1, 2)), EVEN, q,
                              rng.randrange(1 << 30), 3)
        else:
            a = random_matrix(Standard(rng.randint(1, 2), rng.randint(1, 2)), ODD, q,
                              rng.randrange(1 << 30), 3)
        obj = json.loads(json.dumps(a.to_obj()))
        back = SuperMatrix.from_obj(obj)
        assert back == a and back.parity == a.parity


def test_from_obj_validation():
    obj = {
        "shape": {"kind": "standard", "p": 1, "q_odd": 1},
        "parity": "even",
        "grassmann_q": 2,
        "entries": [
            [{"q": 2, "terms": [{"idx": [1], "coeff": "1"}]},
             {"q": 2, "terms": []}],
            [{"q": 2, "terms": []},
             {"q": 2, "terms": [{"idx": [], "coeff": "1"}]}],
        ],
    }
    with pytest.raises(ValidationError) as err:
        SuperMatrix.from_obj(obj)
    assert err.value.cell == (1, 1)
    obj["entries"][0][0] = {"q": 1, "terms": []}
    with pytest.raises(ValidationError) as err:
        SuperMatrix.from_obj(obj)
    assert err.value.cell == (1, 1)


def test_shape_mismatch_operations():
    a = SuperMatrix.from_rationals(Queer(2), ANY, [[1, 0], [0, 1]], 2)
    b = SuperMatrix.from_rationals(Queer(3), ANY, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], 2)
    with pytest.raises(ShapeMismatch):
        a @ b
    with pytest.raises(ShapeMismatch):
        b.queer_split() and a.supertrace()


# ----------------------------------------------------------------------
# the (n|n) block view


def test_blocks_round_trip():
    for n in (1, 2, 3):
        for parity in (EVEN, ODD):
            a = random_matrix(Standard(n, n), parity, 3, seed=10 * n, coefficient_bound=3)
            x, y, z, t = a.blocks()
            assert all(b.shape == Queer(n) and b.parity == ANY for b in (x, y, z, t))
            assert x.rows[n - 1][0] == a.rows[n - 1][0]
            assert y.rows[0][n - 1] == a.rows[0][2 * n - 1]
            assert z.rows[n - 1][0] == a.rows[2 * n - 1][0]
            assert t.rows[0][0] == a.rows[n][n]
            b = SuperMatrix.from_blocks(parity, x, y, z, t)
            assert b == a and b.parity == parity and b.shape == a.shape


def test_blocks_need_a_standard_square():
    for a in (random_matrix(Queer(2), ANY, 2, seed=1, coefficient_bound=2),
              random_matrix(Standard(2, 1), EVEN, 2, seed=2, coefficient_bound=2)):
        with pytest.raises(ShapeMismatch):
            a.blocks()


def test_from_blocks_validates():
    x, y, z, t = random_matrix(Standard(2, 2), ODD, 3, seed=5, coefficient_bound=2).blocks()
    assert any(e.terms for row in x.rows for e in row)
    with pytest.raises(ValidationError, match="violates the declared even parity class"):
        SuperMatrix.from_blocks(EVEN, x, y, z, t)
    other = SuperMatrix.identity(Queer(2), 4)
    with pytest.raises(GeneratorCountMismatch):
        SuperMatrix.from_blocks(ANY, x, y, z, other)
    with pytest.raises(ShapeMismatch):
        SuperMatrix.from_blocks(ODD, x, y, z, SuperMatrix.identity(Queer(1), 3))


def _count_calls(monkeypatch, owner, name):
    """Wrap owner.name so that each call appends to the returned list."""
    real = getattr(owner, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def _invertible_queer(n, q, seed):
    # a dominant diagonal keeps the body invertible
    shift = SuperMatrix.from_rationals(
        Queer(n), ANY, [[10 * n if i == j else 0 for j in range(n)] for i in range(n)], q)
    return random_matrix(Queer(n), ANY, q, seed, 3, max_terms=3) + shift


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_qet_is_the_log_series_of_a0_inverse_a1(n):
    for q in range(8):
        a = _invertible_queer(n, q, seed=100 * n + q)
        a0, a1 = a.queer_split()
        p = a0.invert() @ a1
        want, power = G.zero(q), p
        for i in range(1, q + 1):
            trace = G.zero(q)
            for k in range(n):
                trace = trace + power.rows[k][k]
            if i % 2 == 0:
                assert trace == 0  # tr XY = -tr YX for odd-entry matrices
            want = want + trace * Fraction(1, i)
            power = power @ p
        assert a.qet() == want


def test_qet_of_the_readme_example_makes_one_product(monkeypatch):
    q = 2
    x1, x2 = gens(q)
    a = SuperMatrix(Queer(2), ANY, [[q1(1) + x1, G.zero(q)], [G.zero(q), q1(2) + x2]])
    full, diagonal = _count_products(monkeypatch)
    assert a.qet() == x1 + x2 * Fraction(1, 2)
    # A0^-1 A1 alone: A0's inverse makes no SuperMatrix product, and the
    # square's trace comes from one diagonal-only product
    assert (len(full), len(diagonal)) == (1, 1)


def test_tau_values_stops_multiplying_at_a_zero_power(monkeypatch):
    x1 = gens(2)[0]
    a = SuperMatrix(Queer(1), ANY, [[x1]])
    matmuls = _count_calls(monkeypatch, SuperMatrix, "__matmul__")
    assert a.tau_values(4) == [x1, 0, 0, 0]
    assert len(matmuls) == 1


def _tau_by_every_power(a, upto):
    """tau_1..tau_upto from every power in turn, with no early stop."""
    queer = isinstance(a.shape, Queer)
    step = a if queer else a @ a
    power, out = a, []
    for k in range(1, upto + 1):
        if k > 1:
            power = power @ step
        out.append(power.qtr() * Fraction(1, k) if queer
                   else power.supertrace() * Fraction(1, 2 * k - 1))
    return out


def _dense_soul_matrix(rng, shape, parity, q, body=True):
    """Every entry holds every monomial of its parity, Fraction coefficients;
    with body=False the constant terms are dropped, so the matrix is nilpotent."""
    def entry(want):
        return G(q, {mask: Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 3))
                     for mask in range(1 << q)
                     if (body or mask) and (want is None or mask.bit_count() % 2 == (want == ODD))})
    return SuperMatrix(shape, parity, [[entry(_entry_parity(shape, parity, i, j))
                                        for j in range(shape.dim)] for i in range(shape.dim)])


@pytest.mark.parametrize("shape,parity,q", [(Queer(n), ANY, 4 if n < 4 else 3) for n in range(1, 6)]
                         + [(Standard(n, n), ODD, 3) for n in range(1, 4)])
def test_tau_values_matches_the_per_power_loop(shape, parity, q):
    rng = random.Random(shape.dim * 31 + q)
    n = shape.dim if isinstance(shape, Queer) else shape.p
    dense = _dense_soul_matrix(rng, shape, parity, q)
    for upto in range(2 * n + 2):
        assert dense.tau_values(upto) == _tau_by_every_power(dense, upto), upto
    # nilpotent inputs: a power vanishes and every later moment is zero
    for soul_q in (1, 2, 3):
        soul = _dense_soul_matrix(rng, shape, parity, soul_q, body=False)
        for upto in range(2 * n + 2):
            assert soul.tau_values(upto) == _tau_by_every_power(soul, upto), (soul_q, upto)


@pytest.mark.parametrize("parity", [EVEN, ODD])
def test_invert_keeps_true_parity_labels(monkeypatch, parity):
    # the inverse carries the input's label, and its entries satisfy it; it
    # is built from integers, with no SuperMatrix product
    rng = random.Random(29 if parity == EVEN else 31)
    done = 0
    for n in (1, 2):
        for q in (2, 3, 4):
            a = _dense_soul_matrix(rng, Standard(n, n), parity, q)
            full, diagonal = _count_products(monkeypatch)
            try:
                inv = a.invert()
            except SingularBody:
                continue
            finally:
                monkeypatch.undo()
            assert (full, diagonal) == ([], [])
            assert inv.parity == a.parity == parity
            inv._validate()
            assert (a @ inv).is_identity() and (inv @ a).is_identity()
            done += 1
    assert done >= 4


def _count_products(monkeypatch):
    """Lists that grow by one per full product and per diagonal-only product."""
    full = _count_calls(monkeypatch, SuperMatrix, "__matmul__")
    diagonals = []
    product = SuperMatrix._product

    def counting(self, other, diagonal=False):
        if diagonal:
            diagonals.append(other)
        return product(self, other, diagonal)

    monkeypatch.setattr(SuperMatrix, "_product", counting)
    return full, diagonals


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_tau_values_forms_half_the_powers(monkeypatch, n):
    rng = random.Random(n)
    queer = _dense_soul_matrix(rng, Queer(n), ANY, 3)
    odd = _dense_soul_matrix(rng, Standard(n, n), ODD, 2) if n <= 3 else None
    full, diagonal = _count_products(monkeypatch)
    # queer: A .. A^n, then the diagonals of A^n A^1 .. A^n A^n
    queer.tau_values(2 * n)
    assert (len(full), len(diagonal)) == (n - 1, n)
    if odd is not None:
        del full[:], diagonal[:]
        # odd: A^2, A^3, A^5 .. A^(2n-1) and A^(2n) (at n = 1, A^2 is A^(2n)),
        # then the diagonals of A^(2n) A^1, A^(2n) A^3 .. A^(2n) A^(2n-1)
        odd.tau_values(2 * n)
        assert (len(full), len(diagonal)) == (n + 1 if n > 1 else 1, n)


@pytest.mark.parametrize("shape,parity", [(Queer(2), ANY), (Standard(1, 1), ODD)])
def test_matrix_powers_start_at_the_base(monkeypatch, shape, parity):
    a = random_matrix(shape, parity, 3, 5, 3)
    products = [SuperMatrix.identity(shape, 3)]
    for _ in range(5):
        products.append(products[-1] @ a)
    matmuls = _count_calls(monkeypatch, SuperMatrix, "__matmul__")
    for k, want in enumerate(products):
        del matmuls[:]
        assert a ** k == want
        assert len(matmuls) == max(k - 1, 0)


def test_scalar_powers_start_at_the_base(monkeypatch):
    x = G(4, {0: 2, 0b1: 1})  # 2 + e1, so x^k = 2^k + k 2^(k-1) e1
    wants = [G(4, {0: 2 ** k, 0b1: k * 2 ** k // 2}) for k in range(7)]
    products = _count_calls(monkeypatch, G, "__mul__")
    for k, want in enumerate(wants):
        del products[:]
        assert x ** k == want
        assert len(products) == max(k - 1, 0)


def test_a_scalar_power_stops_at_zero(monkeypatch):
    x = G(4, {0b1: 1, 0b10: 1})  # (e1 + e2)^2 = e1e2 + e2e1 = 0
    products = _count_calls(monkeypatch, G, "__mul__")
    assert x ** 9 == 0
    assert len(products) == 1


@pytest.mark.parametrize("max_terms", [-1, 1.5, True])
def test_random_matrix_rejects_a_bad_max_terms(max_terms):
    with pytest.raises(ValidationError):
        random_matrix(Queer(2), ANY, 3, 1, 3, max_terms=max_terms)
