import json
import random
from fractions import Fraction

import pytest

from superinv import (
    ANY,
    EVEN,
    GroupElement,
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
from superinv import cli, reduction
from superinv.errors import InternalError
from superinv.grassmann import GrassmannScalar as G
from superinv.reduction import SpectralDecomposition
from superinv.supermatrix import IntegerGrid, random_matrix
from superinv.verify import (
    random_commuting_odd_pair,
    random_odd_reducible,
    random_queer_with_spectrum,
    random_sector_conjugator,
    random_standard_even_with_spectrum,
)

from refine_oracle import refine_matches


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


def _bodies_are_eigenvalue_plus_nilpotent(dec):
    """Whether every block body minus its eigenvalue is nilpotent."""
    for lam, blk in dec.blocks:
        body = blk.body_rows()
        k = len(body)
        shifted = [[body[i][j] - (lam if i == j else 0) for j in range(k)] for i in range(k)]
        power = shifted
        for _ in range(k - 1):
            power = linalg.matmul(power, shifted)
        if any(x != 0 for row in power for x in row):
            return False
    return True


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
        assert _bodies_are_eigenvalue_plus_nilpotent(dec)


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
    # a nilpotent part inside a repeated-eigenvalue block: the Sylvester
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
        assert _bodies_are_eigenvalue_plus_nilpotent(dec)


def _unequal_jordan_queer():
    """Q(5) at gq 4: body P (J_2(1) + J_3(3)) P^-1, every soul monomial in every entry."""
    gq = 4
    jordan = [[1, 1, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 3, 1, 0], [0, 0, 0, 3, 1], [0, 0, 0, 0, 3]]
    p = [[1, 2, 0, 1, 0], [0, 1, 1, 0, 0], [0, 0, 1, 2, 1], [1, 0, 0, 1, 0], [0, 1, 0, 0, 1]]
    body = linalg.matmul(linalg.matmul(p, jordan), linalg.inverse(p))
    rng = random.Random(5)
    rows = [[G(gq, {mask: rng.choice([-2, -1, 1, 2]) if mask else body[i][j]
                    for mask in range(1 << gq)}) for j in range(5)] for i in range(5)]
    return SuperMatrix(Queer(5), ANY, rows)


def test_block_diagonalize_unequal_parts_with_jordan_bodies(monkeypatch):
    # parts of sizes 2 and 3 with non-diagonal body blocks: the cross blocks
    # solve through 6 x 6 operators, with several monomials at every level
    a = _unequal_jordan_queer()
    inverses = []
    real_inverse = reduction._sylvester_inverse

    def recording_inverse(b, d):
        inverses.append(real_inverse(b, d))
        return inverses[-1]

    monkeypatch.setattr(reduction, "_sylvester_inverse", recording_inverse)
    log = []
    dec = block_diagonalize(a, filtration_log=log)
    monkeypatch.undo()
    assert dec.verify(a)
    assert dec.partition == [[1, 2], [3, 4, 5]]
    assert [lam for lam, _ in dec.blocks] == [1, 3]
    # neither block body is diagonal
    assert all(any(x for i, row in enumerate(blk.body_rows()) for j, x in enumerate(row) if i != j)
               for _lam, blk in dec.blocks)
    # one inverse per ordered part pair, built once for all four levels, and
    # the ring-core solve equal to the coefficient-matrix oracle, on the
    # integer grid: the input is dense at gq 4
    assert log == [1, 2, 3, 4]
    assert [len(inv) for inv in inverses] == [6, 6]
    assert refine_matches(monkeypatch, block_diagonalize, a) == [True]
    assert _bodies_are_eigenvalue_plus_nilpotent(dec)
    back = SpectralDecomposition.from_obj(json.loads(json.dumps(dec.to_obj())))
    assert back.verify(a)


def test_block_diagonalize_deep_soul_tower():
    # six generators: the filtration runs through all six levels exactly; the
    # entries are even, so each even cross degree is the minimum at two levels
    a = random_queer_with_spectrum(2, [0, 1], 6, seed=83, soul_terms=2)
    log = []
    dec = block_diagonalize(a, filtration_log=log)
    assert dec.verify(a)
    assert log == [2, 2, 4, 4, 6, 6]


def test_short_generalized_eigenspace_is_an_internal_error(monkeypatch):
    # dim ker (B - lam)^mult equals mult, so a short basis is a failed self-check
    nullspace = linalg.nullspace
    monkeypatch.setattr(linalg, "nullspace", lambda rows: nullspace(rows)[1:])
    a = random_queer_with_spectrum(2, [1, 2], 2, seed=3)
    with pytest.raises(InternalError,
                       match="^generalized eigenspace dimension 0 does not match multiplicity 1$"):
        block_diagonalize(a)


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


def _dense_odd(n, body_values, gq, seed):
    """A reducible odd matrix whose every entry carries a dense soul."""
    a = random_odd_reducible(n, body_values, gq, seed)
    return a + random_matrix(a.shape, ODD, gq, seed + 1, 3, max_terms=6).soul()


def _reduce_odd_through_the_square(a, filtration_log):
    """reduce_odd by the older route: block-diagonalize A^2, then conjugate A by
    that conjugator, which multiplies out its inverse."""
    dec2 = block_diagonalize(a @ a, filtration_log=filtration_log)
    g1 = GroupElement(dec2.conjugator.matrix)
    m = a.conjugate(g1)
    step = reduction._lower_identity_step(m)
    final = m.conjugate(step)
    blocks = []
    for (lam, _), part in zip(dec2.blocks, dec2.partition):
        idx = [i - 1 for i in part]
        blocks.append((lam, final.submatrix(idx, idx, Standard(1, 1), ODD)))
    return SpectralDecomposition(g1.compose(step), blocks, dec2.partition, ODD)


def test_reduce_odd_matches_the_square_route():
    rng = random.Random(50)
    refined = 0
    for n in (1, 2, 3):
        for gq in (4, 5):
            a = _dense_odd(n, rng.sample(range(1, 8), n), gq, rng.randrange(1 << 30))
            log = []
            want = _reduce_odd_through_the_square(a, log)
            got = reduce_odd(a)
            assert got.to_obj() == want.to_obj()
            assert got.verify(a)
            refined += sum(level is not None for level in log) > 1
    # every case with n >= 2 refines its square over several filtration levels
    assert refined == 4


def test_reduce_odd_matches_the_square_route_on_irrational_roots():
    # the body eigenvalues lam of the square have irrational or imaginary
    # square roots: A's body blocks on distinct parts keep disjoint spectra
    rng = random.Random(51)
    for n in (1, 2, 3):
        for gq in range(2, 7):
            lams = rng.sample([-5, -3, -1, 2, 3, 6, 7], n)
            a = _dense_odd(n, lams, gq, rng.randrange(1 << 30))
            got = reduce_odd(a)
            assert got.to_obj() == _reduce_odd_through_the_square(a, []).to_obj()
            assert got.verify(a)


def _worked_odd_example():
    """The (1|1) worked example [[e1, 2], [3, e2]] at q = 2."""
    q = 2
    x1, x2 = G.generator(q, 1), G.generator(q, 2)
    return SuperMatrix(Standard(1, 1), ODD, [[x1, G.rational(q, 2)], [G.rational(q, 3), x2]])


def _dense_odd_3(q):
    """An odd (3|3) at q whose refine input averages over a quarter of the
    2**q monomials, so its filtration runs on the integer grid."""
    a = random_odd_reducible(3, [1, 2, 5], q, seed=7)
    soul = random_matrix(a.shape, EVEN, q, 12, 9, max_terms=32).soul()
    return a.conjugate(GroupElement(SuperMatrix.identity(a.shape, q) + soul))


# The ids keep the counts the test first asserted, so that its names stay
# stable when a count changes.
@pytest.mark.parametrize("make, grid", [
    pytest.param(_worked_odd_example, False, id="_worked_odd_example-9"),
    pytest.param(lambda: random_odd_reducible(2, [3, -1], 4, seed=3), False, id="<lambda>-17"),
    pytest.param(lambda: random_odd_reducible(3, [1, 2, 5], 5, seed=7), False, id="<lambda>-26"),
    pytest.param(lambda: _dense_odd_3(5), True, id="dense-16-grid"),
])
def test_reduce_odd_refines_a_without_its_square(monkeypatch, make, grid):
    a = make()
    real = SuperMatrix.__matmul__
    operands = []
    grids = []

    def recording(x, y):
        operands.append((x, y))
        return real(x, y)

    class Converting(IntegerGrid):
        # `_refine`'s own conversions: products convert dense factors too
        def __init__(self, matrix, dense):
            super().__init__(matrix, dense)
            grids.append(self)

    monkeypatch.setattr(SuperMatrix, "__matmul__", recording)
    monkeypatch.setattr(reduction, "IntegerGrid", Converting)
    dec = reduce_odd(a)
    # two products for the body stage's conjugation, two in the lower-identity
    # step, two for its conjugation and one to extend the conjugator by it:
    # `_refine` makes none, and no Grassmann square of A is formed.  m and g
    # are converted once, in the form the gate picks: dense cells on the
    # dense input, term dicts on the others
    assert len(operands) == 7
    assert not any(x is a and y is a for x, y in operands)
    assert [type(x.cells[0][0]) for x in grids] == [list if grid else dict] * 2
    monkeypatch.undo()
    assert dec.verify(a)


def _corrupt_lower_identity_step(monkeypatch):
    """Make the lower-identity step carry a wrong inverse: one soul term more
    in its upper-right block."""
    real = reduction._lower_identity_step

    def corrupted(a):
        h = real(a)
        n = h.matrix.shape.p
        rows = [list(row) for row in h.inverse.rows]
        rows[0][n] = rows[0][n] + G.generator(h.matrix.gq, 1)
        return GroupElement(h.matrix, _inverse=SuperMatrix(h.matrix.shape, EVEN, rows))

    monkeypatch.setattr(reduction, "_lower_identity_step", corrupted)


def test_a_wrong_step_inverse_is_caught(monkeypatch, tmp_path):
    q = 2
    x1, x2 = G.generator(q, 1), G.generator(q, 2)
    a = SuperMatrix(Standard(1, 1), ODD, [[x1, G.rational(q, 2)], [G.rational(q, 3), x2]])
    b = random_commuting_odd_pair(2, 3, seed=111)
    assert reduce_odd(a).verify(a)
    antidiagonalize(b)
    _corrupt_lower_identity_step(monkeypatch)
    assert not reduce_odd(a).verify(a)
    with pytest.raises(InternalError, match="diagonal blocks survived"):
        antidiagonalize(b)
    path = tmp_path / "odd.json"
    path.write_text(json.dumps(a.to_obj()))
    assert cli.main(["reduce", str(path), "--mode", "odd"]) == 5


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


def test_antidiagonalize_reports_the_first_off_block_cell():
    q = 2
    x1, x2 = G.generator(q, 1), G.generator(q, 2)
    # the square is (0 0; 3e1 + 3e2 0): only its (2, 1) cell is off the blocks
    a = SuperMatrix(Standard(1, 1), ODD, [[x1, G.zero(q)], [G.rational(q, 3), x2]])
    with pytest.raises(NotBlockDiagonalSquare, match=r"block at \(2, 1\)$"):
        antidiagonalize(a)


def test_antidiagonalize_inverts_z_once(monkeypatch):
    a = random_commuting_odd_pair(2, 3, seed=111)
    sizes = []
    real = linalg.inverse_with_rank

    def recording(rows):
        sizes.append(len(rows))
        return real(rows)

    monkeypatch.setattr(linalg, "inverse_with_rank", recording)
    antidiagonalize(a)
    # only the n x n body of Z is inverted, once
    assert sizes == [2]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_reduce_odd_finds_the_spectrum_once(monkeypatch, n):
    a = random_odd_reducible(n, [2, -3, 5][:n], 2, seed=120 + n)
    calls = []
    real = reduction.rational_spectrum

    def recording(rows):
        calls.append(len(rows))
        return real(rows)

    monkeypatch.setattr(reduction, "rational_spectrum", recording)
    assert reduce_odd(a).verify(a)
    # one n x n relevant body b(Y)b(Z), not one per half of the square's body
    assert calls == [n]


def _count_calls(monkeypatch, owner, name):
    """Wrap owner.name so that each call appends to the returned list."""
    real = getattr(owner, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_block_diagonalize_of_a_split_body_makes_one_conjugation(monkeypatch):
    a = SuperMatrix.from_rationals(Queer(2), ANY, [[1, 0], [0, 2]], 2)
    matmuls = _count_calls(monkeypatch, SuperMatrix, "__matmul__")
    composes = _count_calls(monkeypatch, GroupElement, "compose")
    dec = block_diagonalize(a)
    # g0^-1 A g0 is the only product: the body stage's conjugator is returned as is
    assert (len(matmuls), len(composes)) == (2, 0)
    assert dec.assembled() == a


@pytest.mark.parametrize("seed", [21, 22, 23])
def test_the_conjugator_is_extended_once_per_step(monkeypatch, seed):
    a = random_queer_with_spectrum(3, [0, 1, 2], 3, seed=seed)
    b = random_odd_reducible(2, [2, -3], 3, seed=seed)
    # a Sylvester solve is the witness that some step ran, however its
    # inverse is built: every cross term of b may lie above gq / 2
    steps = _count_calls(monkeypatch, reduction, "_sylvester_inverse")
    ranks = _count_calls(monkeypatch, linalg, "rank")
    dec = block_diagonalize(a)
    # the steps extend a plain matrix: only the result's GroupElement tests a rank
    assert steps and len(ranks) == 1
    steps.clear()
    ranks.clear()
    # reduce_odd's lower-identity step extends the same matrix
    dec_odd = reduce_odd(b)
    assert steps and len(ranks) == 1
    assert dec.verify(a) and dec_odd.verify(b)


def test_grouped_basis_multiplies_only_for_a_repeated_eigenvalue(monkeypatch):
    simple = [[2, 1, 0], [0, 3, 5], [0, 0, -1]]
    repeated = [[1, 1, 0], [0, 1, 0], [0, 0, 4]]
    spectra = [rational_spectrum(simple), rational_spectrum(repeated)]
    matmuls = _count_calls(monkeypatch, linalg, "matmul")
    reduction._grouped_basis(simple, spectra[0])
    assert matmuls == []
    # (B - 1)^2 is one product; the simple eigenvalue 4 needs none
    reduction._grouped_basis(repeated, spectra[1])
    assert len(matmuls) == 1


def test_decomposition_serialization_round_trip():
    a = random_queer_with_spectrum(3, [0, 1, 2], 3, seed=21)
    dec = diagonalize(a)
    obj = json.loads(json.dumps(dec.to_obj()))
    back = SpectralDecomposition.from_obj(obj)
    assert back.verify(a)
    assert back.partition == dec.partition
    assert [lam for lam, _ in back.blocks] == [lam for lam, _ in dec.blocks]
    assert back.assembled() == dec.assembled()


def _bump(q, parity):
    """A soul term that fits an entry of the given parity (even for ANY)."""
    x1, x2 = G.generator(q, 1), G.generator(q, 2)
    return x1 if parity == ODD else x1 * x2


def _with_entry_bumped(m):
    """m with one soul term added to its (1, 1) entry, in m's parity class."""
    rows = [list(row) for row in m.rows]
    rows[0][0] = rows[0][0] + _bump(m.gq, m.parity)
    return SuperMatrix(m.shape, m.parity, rows)


def _certified_case(name):
    """(a, decomposition) from one of the four reductions, on conjugated input."""
    seed = 40
    if name == "block_diagonalize":
        a = random_queer_with_spectrum(3, [1, 1, 2], 3, seed, soul_terms=3)
    elif name == "diagonalize":
        a = random_queer_with_spectrum(2, [-1, 3], 3, seed, soul_terms=3)
    elif name == "reduce_odd":
        a = random_odd_reducible(2, [2, 5], 3, seed)
    else:
        h = random_sector_conjugator(2, 3, seed)
        a = random_commuting_odd_pair(2, 3, seed + 1).conjugate(h)
    reduce = {"block_diagonalize": block_diagonalize, "diagonalize": diagonalize,
              "reduce_odd": reduce_odd, "antidiagonalize": antidiagonalize}[name]
    return a, reduce(a)


@pytest.mark.parametrize("name", ["block_diagonalize", "diagonalize", "reduce_odd",
                                  "antidiagonalize"])
def test_certificate_rejects_every_perturbation(name):
    a, dec = _certified_case(name)
    assert dec.verify(a)
    # one block entry with a soul term changed
    lam, block = dec.blocks[0]
    blocks = [(lam, _with_entry_bumped(block))] + dec.blocks[1:]
    assert not SpectralDecomposition(dec.conjugator, blocks, dec.partition, dec.parity).verify(a)
    # the conjugator with a soul term changed; its body stays invertible
    g = _with_entry_bumped(dec.conjugator.matrix)
    moved = SpectralDecomposition(GroupElement(g), dec.blocks, dec.partition, dec.parity)
    assert not moved.verify(a)
    # a different matrix
    assert not dec.verify(_with_entry_bumped(a))
    assert not dec.verify(a * 2)
    # a matrix of the wrong shape
    with pytest.raises(ShapeMismatch):
        dec.verify(SuperMatrix.identity(Queer(1), a.gq))


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


def test_decomposition_json_names_its_first_missing_field():
    with pytest.raises(ValidationError, match="decomposition object missing field 'parity'"):
        SpectralDecomposition.from_obj({"conjugator": 1})


def test_decomposition_json_rejects_a_block_label_that_differs():
    # an odd reduction whose own label is edited to "even" while its blocks say "odd":
    # loading it used to succeed, and `verify` then failed inside `assembled()`
    a = random_odd_reducible(2, [2, -3], 2, seed=1)
    obj = json.loads(json.dumps(reduce_odd(a).to_obj()))
    assert [item["block"]["parity"] for item in obj["blocks"]] == [ODD, ODD]
    assert SpectralDecomposition.from_obj(obj).verify(a)
    obj["parity"] = EVEN
    with pytest.raises(ValidationError,
                       match="a block's parity label differs from the decomposition's"):
        SpectralDecomposition.from_obj(obj)


@pytest.mark.parametrize("b,d,r", [
    ([[1]], [[2]], [[1, 2]]),
    ([[1, 2]], [[2]], [[1]]),
    ([[1, 0], [0, 3]], [[2]], [[1]]),
], ids=["r-too-wide", "b-not-square", "r-too-short"])
def test_solve_sylvester_rejects_mismatched_shapes(b, d, r):
    with pytest.raises(ShapeMismatch):
        solve_sylvester(b, d, r)


@pytest.mark.parametrize("rows,error", [
    ([[1, 2]], ShapeMismatch),
    ([[1, 2], [3]], ShapeMismatch),
    ([[1.5]], ValidationError),
    ([[True]], ValidationError),
    (5, ShapeMismatch),
], ids=["wide", "ragged", "float", "bool", "scalar"])
def test_rational_spectrum_rejects_a_malformed_matrix(rows, error):
    with pytest.raises(error):
        rational_spectrum(rows)
