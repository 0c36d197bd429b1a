import json
import random
from fractions import Fraction

import pytest

from superinv import (
    ANY,
    EVEN,
    MultipleEigenvalue,
    NonSplitting,
    NotBlockDiagonalSquare,
    ODD,
    Queer,
    ShapeMismatch,
    SharedEigenvalue,
    SingularZ,
    Standard,
    SuperMatrix,
    ValidationError,
    ZeroEigenvalue,
    antidiagonalize,
    block_diagonalize,
    diagonalize,
    linalg,
    rational_spectrum,
    reduce_odd,
    solve_sylvester,
)
from superinv.grassmann import GrassmannScalar as G
from superinv.reduction import SpectralDecomposition
from superinv.verify import (
    random_commuting_odd_pair,
    random_odd_reducible,
    random_queer_with_spectrum,
    random_sector_conjugator,
    random_standard_even_with_spectrum,
)


def test_rational_spectrum_examples():
    spec = rational_spectrum([[Fraction(1), 0, 0], [0, Fraction(1), 0], [0, 0, Fraction(2)]])
    assert spec.pairs == ((Fraction(1), 2), (Fraction(2), 1))
    spec = rational_spectrum([[0, Fraction(1)], [Fraction(1), 0]])
    assert spec.pairs == ((Fraction(-1), 1), (Fraction(1), 1))
    with pytest.raises(NonSplitting) as err:
        rational_spectrum([[0, Fraction(-1)], [Fraction(1), 0]])
    assert err.value.residual == [Fraction(1), Fraction(0), Fraction(1)]


def test_solve_sylvester_examples():
    x = solve_sylvester([[Fraction(1)]], [[Fraction(-1)]], [[Fraction(4)]])
    assert x == [[Fraction(2)]]
    x = solve_sylvester([[Fraction(1)]], [[Fraction(-1)]], [[Fraction(0)]])
    assert x == [[Fraction(0)]]
    with pytest.raises(SharedEigenvalue):
        solve_sylvester([[Fraction(1)]], [[Fraction(1)]], [[Fraction(1)]])


def test_solve_sylvester_plug_back_random():
    rng = random.Random(4)
    for _ in range(30):
        n1, n2 = rng.randint(1, 3), rng.randint(1, 3)
        vals = []
        while len(vals) < n1 + n2:
            v = rng.randint(-6, 6)
            if v not in vals:
                vals.append(v)
        b = [[Fraction(vals[i]) if i == j else Fraction(rng.randint(-2, 2)) if j > i else Fraction(0)
              for j in range(n1)] for i in range(n1)]
        d = [[Fraction(vals[n1 + i]) if i == j else Fraction(rng.randint(-2, 2)) if j > i else Fraction(0)
              for j in range(n2)] for i in range(n2)]
        r = [[Fraction(rng.randint(-5, 5)) for _ in range(n2)] for _ in range(n1)]
        x = solve_sylvester(b, d, r)
        assert linalg.mat_sub(linalg.matmul(b, x), linalg.matmul(x, d)) == r


def test_block_diagonalize_worked_example():
    q = 2
    x1 = G.generator(q, 1)
    a = SuperMatrix(Queer(2), ANY, [[G.one(q), x1], [G.zero(q), G.rational(q, 2)]])
    dec = diagonalize(a)
    assert dec.verify(a)
    assert dec.conjugator.matrix == SuperMatrix(Queer(2), ANY,
                                                [[G.one(q), x1], [G.zero(q), G.one(q)]])
    assert [(lam, blk.rows[0][0]) for lam, blk in dec.blocks] == [
        (Fraction(1), G.one(q)),
        (Fraction(2), G.rational(q, 2)),
    ]


def test_block_diagonalize_already_diagonal():
    q = 2
    x1, x2 = G.generator(q, 1), G.generator(q, 2)
    a = SuperMatrix(Queer(2), ANY,
                    [[G.rational(q, 1) + x1, G.zero(q)], [G.zero(q), G.rational(q, 2) + x2]])
    dec = diagonalize(a)
    assert dec.conjugator.matrix.soul().is_zero()
    assert dec.assembled() == a
    assert dec.verify(a)


def test_block_diagonalize_plug_back_and_filtration():
    rng = random.Random(10)
    for _ in range(15):
        n = rng.randint(2, 3)
        gq = rng.randint(2, 3)
        k = rng.randint(1, n - 1)
        values = []
        while len(values) < k:
            v = rng.randint(-5, 5)
            if v not in values:
                values.append(v)
        eigs = list(values)
        while len(eigs) < n:
            eigs.append(values[rng.randrange(k)])
        a = random_queer_with_spectrum(n, eigs, gq, rng.randrange(1 << 30))
        log = []
        dec = block_diagonalize(a, filtration_log=log)
        assert dec.verify(a)
        mins = [d for d in log if d is not None]
        for level, m in enumerate(mins, start=1):
            assert m >= level
        # block bodies are eigenvalue plus nilpotent
        for lam, blk in dec.blocks:
            body = blk.body_rows()
            kdim = len(body)
            shifted = [[body[i][j] - (lam if i == j else 0) for j in range(kdim)]
                       for i in range(kdim)]
            power = linalg.identity(kdim)
            for _ in range(kdim):
                power = linalg.matmul(power, shifted)
            assert all(x == 0 for row in power for x in row)


def test_diagonalize_random_plug_back():
    rng = random.Random(12)
    for _ in range(15):
        n = rng.randint(1, 3)
        gq = rng.randint(2, 3)
        eigs = []
        while len(eigs) < n:
            v = rng.randint(-5, 5)
            if v not in eigs:
                eigs.append(v)
        a = random_queer_with_spectrum(n, eigs, gq, rng.randrange(1 << 30))
        dec = diagonalize(a)
        assert dec.verify(a)
        assert [lam for lam, _ in dec.blocks] == sorted(Fraction(e) for e in eigs)
        assert all(len(part) == 1 for part in dec.partition)


def test_diagonalize_rejects_repeats():
    a = random_queer_with_spectrum(3, [1, 1, 2], 2, seed=77)
    with pytest.raises(MultipleEigenvalue):
        diagonalize(a)


def test_block_diagonalize_jordan_structure_body():
    # a nilpotent part inside a repeated-eigenvalue block: the per-monomial
    # solves then run against genuinely non-scalar body blocks
    rng = random.Random(81)
    for _ in range(8):
        gq = rng.randint(2, 3)
        lam, mu = 1, rng.choice([2, 3, -1])
        jordan = [[lam, 1, 0], [0, lam, 0], [0, 0, mu]]
        rows = [[G.rational(gq, jordan[i][j]) for j in range(3)] for i in range(3)]
        from superinv.supermatrix import random_matrix as rmat

        soul = rmat(Queer(3), ANY, gq, rng.randrange(1 << 30), 2, max_terms=1).soul()
        g = None
        from superinv import random_group_element as rge

        g = rge(Queer(3), gq, rng.randrange(1 << 30), 2)
        a = (SuperMatrix(Queer(3), ANY, rows) + soul).conjugate(g)
        dec = block_diagonalize(a)
        assert dec.verify(a)
        assert [len(p) for p in dec.partition] in ([2, 1], [1, 2])
        for blk_lam, blk in dec.blocks:
            body = blk.body_rows()
            k = len(body)
            shifted = [[body[i][j] - (blk_lam if i == j else 0) for j in range(k)]
                       for i in range(k)]
            power = linalg.identity(k)
            for _ in range(k):
                power = linalg.matmul(power, shifted)
            assert all(x == 0 for row in power for x in row)


def test_block_diagonalize_deep_soul_tower():
    # six generators: the filtration runs through all six levels exactly
    a = random_queer_with_spectrum(2, [0, 1], 6, seed=83, soul_terms=2)
    log = []
    dec = block_diagonalize(a, filtration_log=log)
    assert dec.verify(a)
    assert len(log) <= 7


def test_standard_even_reduction():
    rng = random.Random(14)
    for _ in range(10):
        p, q_odd = rng.randint(1, 2), rng.randint(1, 2)
        gq = rng.randint(2, 3)
        vals = []
        while len(vals) < p + q_odd:
            v = rng.randint(-5, 5)
            if v not in vals:
                vals.append(v)
        a = random_standard_even_with_spectrum(p, q_odd, vals[:p], vals[p:], gq,
                                               rng.randrange(1 << 30))
        dec = diagonalize(a)
        assert dec.verify(a)
    # shared eigenvalue across the two sectors gives a 1|1 block
    a = random_standard_even_with_spectrum(1, 1, [2], [2], 3, seed=5)
    dec = block_diagonalize(a)
    assert dec.verify(a)
    assert dec.partition == [[1, 2]]
    assert isinstance(dec.blocks[0][1].shape, Standard)
    with pytest.raises(MultipleEigenvalue):
        diagonalize(a)


def test_block_diagonalize_requires_even_standard():
    a = SuperMatrix.from_rationals(Standard(1, 1), ODD, [[0, 1], [1, 0]], 2)
    with pytest.raises(ShapeMismatch):
        block_diagonalize(a)


def test_nonsplitting_propagates():
    a = SuperMatrix.from_rationals(Queer(2), ANY, [[0, -1], [1, 0]], 2)
    with pytest.raises(NonSplitting):
        block_diagonalize(a)


def test_reduce_odd_worked_identity():
    q = 2
    x1, x2 = G.generator(q, 1), G.generator(q, 2)
    a = SuperMatrix(Standard(1, 1), ODD, [[x1, G.rational(q, 2)], [G.rational(q, 3), x2]])
    dec = reduce_odd(a)
    assert dec.verify(a)
    blk = dec.blocks[0][1]
    assert blk.rows[0][0] == x1 + x2
    assert blk.rows[0][1] == G.rational(q, 6) - x1 * x2
    assert blk.rows[1][0] == 1 and blk.rows[1][1] == 0
    assert dec.blocks[0][0] == 6


def test_reduce_odd_canonical_input_unchanged():
    q = 2
    x1 = G.generator(q, 1)
    a = SuperMatrix(Standard(1, 1), ODD, [[x1, G.rational(q, 3)], [G.one(q), G.zero(q)]])
    dec = reduce_odd(a)
    assert dec.verify(a)
    assert dec.conjugator.matrix.soul().is_zero()
    assert dec.assembled() == a


def test_reduce_odd_random_plug_back():
    rng = random.Random(16)
    for _ in range(10):
        n = rng.randint(1, 2)
        gq = rng.randint(2, 3)
        vals = []
        while len(vals) < n:
            v = rng.randint(1, 6)
            if v not in vals:
                vals.append(v)
        a = random_odd_reducible(n, vals, gq, rng.randrange(1 << 30))
        dec = reduce_odd(a)
        assert dec.verify(a)
        final = dec.assembled()
        for i in range(n):
            for j in range(n):
                assert final.rows[n + i][j] == (1 if i == j else 0)
                assert final.rows[n + i][n + j].is_zero()
                if i != j:
                    assert not final.rows[i][j].terms and not final.rows[i][n + j].terms
        for lam, blk in dec.blocks:
            assert (blk @ blk).body_rows()[0][0] == lam


def test_reduce_odd_rejections():
    a = random_odd_reducible(2, [0, 3], 2, seed=9)
    with pytest.raises(ZeroEigenvalue):
        reduce_odd(a)
    b = random_odd_reducible(2, [3, 3], 2, seed=10)
    with pytest.raises(MultipleEigenvalue):
        reduce_odd(b)
    c = SuperMatrix.from_rationals(Queer(2), ANY, [[1, 0], [0, 2]], 2)
    with pytest.raises(ShapeMismatch):
        reduce_odd(c)


def test_antidiagonalize_trivial():
    a = SuperMatrix.from_rationals(Standard(1, 1), ODD, [[0, -1], [1, 0]], 2)
    dec = antidiagonalize(a)
    assert dec.conjugator.matrix.is_identity()
    assert dec.assembled() == a
    assert dec.partition == [[1, 2]] and dec.blocks[0][0] is None


def test_antidiagonalize_displayed_identity():
    q = 2
    x1 = G.generator(q, 1)
    a = SuperMatrix(Standard(1, 1), ODD, [[x1, G.rational(q, 2)], [G.one(q), -x1]])
    final = antidiagonalize(a).assembled()
    want = SuperMatrix(Standard(1, 1), ODD,
                       [[G.zero(q), G.rational(q, 2) + x1 * x1], [G.one(q), G.zero(q)]])
    assert final == want


def test_antidiagonalize_round_trip_random():
    rng = random.Random(18)
    for _ in range(12):
        n = rng.randint(1, 2)
        gq = rng.randint(2, 3)
        base = random_commuting_odd_pair(n, gq, rng.randrange(1 << 30))
        h = random_sector_conjugator(n, gq, rng.randrange(1 << 30))
        a = base.conjugate(h)
        dec = antidiagonalize(a)
        assert dec.verify(a)
        final = dec.assembled()
        for i in range(n):
            for j in range(n):
                assert not final.rows[i][j].terms
                assert not final.rows[n + i][n + j].terms
                assert final.rows[n + i][j] == (1 if i == j else 0)


def test_antidiagonalize_rejections():
    q = 2
    x1, x2 = G.generator(q, 1), G.generator(q, 2)
    a = SuperMatrix(Standard(1, 1), ODD, [[x1, G.rational(q, 2)], [G.rational(q, 3), x2]])
    with pytest.raises(NotBlockDiagonalSquare):
        antidiagonalize(a)
    b = SuperMatrix(Standard(1, 1), ODD, [[G.zero(q), G.one(q)], [x1 * x2, G.zero(q)]])
    with pytest.raises(SingularZ):
        antidiagonalize(b)


def test_decomposition_serialization_round_trip():
    a = random_queer_with_spectrum(3, [0, 1, 2], 3, seed=21)
    dec = diagonalize(a)
    obj = json.loads(json.dumps(dec.to_obj()))
    back = SpectralDecomposition.from_obj(obj)
    assert back.verify(a)
    assert back.partition == dec.partition
    assert [lam for lam, _ in back.blocks] == [lam for lam, _ in dec.blocks]
    assert back.assembled() == dec.assembled()


@pytest.mark.parametrize("field, value", [
    ("blocks", 5),                        # not a list
    ("blocks", [5]),                      # a block item that is not an object
    ("blocks", [{"eigenvalue": "1"}]),    # no "block" field
    ("parity", "weird"),                  # not a parity class
    ("partition", [[1, 2]]),              # one part for two blocks
    ("blocks", lambda obj: obj["blocks"][:1]),  # one block for two parts
    # a 2x2 block for a part of size 1
    ("blocks", lambda obj: [obj["blocks"][0], {"eigenvalue": "1", "block": obj["conjugator"]}]),
    # a block over three generators under a conjugator over two
    ("blocks", lambda obj: [obj["blocks"][0], {
        "eigenvalue": "1", "block": SuperMatrix.identity(Queer(1), 3).to_obj()}]),
])
def test_decomposition_json_shape_errors(field, value):
    a = random_queer_with_spectrum(2, [0, 1], 2, seed=22)
    obj = json.loads(json.dumps(diagonalize(a).to_obj()))
    obj[field] = value(obj) if callable(value) else value
    with pytest.raises(ValidationError):
        SpectralDecomposition.from_obj(obj)
