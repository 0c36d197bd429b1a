import json
import random
from fractions import Fraction

import pytest

from superinv import (
    ANY,
    EVEN,
    ODD,
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
    qet_generating_coefficients,
    random_group_element,
    random_matrix,
)
from superinv.grassmann import generator_cap, set_generator_cap
from superinv.verify import pick_distinct

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
], ids=["tau", "matrix-pow", "scalar-pow", "poly-pow", "qet-coefficients",
        "generator-cap", "tau-values-bool", "tau-values-negative", "tau-values-float",
        "matrix-bound-bool", "matrix-bound-float", "group-bound-bool", "group-bound-float",
        "pick-negative", "pick-float", "pick-bool"])
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
