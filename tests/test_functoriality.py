"""Functoriality in the Grassmann algebra.

An algebra map phi: Lambda -> Lambda' applied entrywise must commute with the
invariants and with the canonical reductions: phi of the value computed on A
equals the value computed on phi(A).  Three cheap maps are checked: the
inclusion Lambda_q in Lambda_(q+2), a permutation of the generators, and the
body map onto Lambda_0 = Q.
"""

import random

import pytest

from superinv import EVEN, ODD, SuperMatrix, compute_s, diagonalize, reduce_odd
from superinv.grassmann import GrassmannScalar as G
from superinv.grassmann import mask_to_indices
from superinv.supermatrix import _entry_parity
from superinv.sympoly import _sort_sign
from superinv.verify import random_odd_reducible, random_queer_with_spectrum

GQ = 3


def _include(x):
    return G(x.q + 2, x.terms)


def _permuter(perm):
    """The automorphism sending generator i + 1 to perm[i] + 1, perm 0-based."""
    def permute(x):
        out = {}
        for mask, c in x.terms.items():
            sign, image = _sort_sign(perm[i - 1] for i in mask_to_indices(mask))
            out[image] = sign * c
        return G(x.q, out)
    return permute


def _body(x):
    return G.rational(0, x.body())


MAPS = {
    "include": _include,
    "permute": _permuter([2, 0, 1]),
    "swap": _permuter([1, 0, 2]),
    "body": _body,
}


def _on_matrix(phi, m):
    return SuperMatrix(m.shape, m.parity, [[phi(x) for x in row] for row in m.rows])


def _with_dense_soul(a, seed):
    """a plus a soul holding every monomial of each entry's parity."""
    rng = random.Random(seed)
    wanted = {None: (0, 1), EVEN: (0,), ODD: (1,)}
    rows = [[G(GQ, {mask: rng.choice([-2, -1, 1, 2]) for mask in range(1, 1 << GQ)
                    if mask.bit_count() % 2 in wanted[_entry_parity(a.shape, a.parity, i, j)]})
             for j in range(a.dim)] for i in range(a.dim)]
    return a + SuperMatrix(a.shape, a.parity, rows)


def _queer(n, seed):
    return _with_dense_soul(random_queer_with_spectrum(n, [-2, 1, 3][:n], GQ, seed), seed)


def _odd(n, seed):
    return _with_dense_soul(random_odd_reducible(n, [2, -3][:n], GQ, seed), seed)


CASES = [("queer", n, seed) for n in (1, 2, 3) for seed in (1, 2)] + [
    ("odd", n, seed) for n in (1, 2) for seed in (1, 2)
]


def _case(kind, n, seed):
    return _queer(n, seed) if kind == "queer" else _odd(n, seed)


def test_the_maps_are_algebra_maps():
    rng = random.Random(3)
    for _ in range(20):
        x = G(GQ, {m: rng.randint(-3, 3) for m in range(1 << GQ)})
        y = G(GQ, {m: rng.randint(-3, 3) for m in range(1 << GQ)})
        for phi in MAPS.values():
            assert phi(x * y) == phi(x) * phi(y)
            assert phi(x + y) == phi(x) + phi(y)
            assert phi(G.one(GQ)) == G.one(phi(x).q)


@pytest.mark.parametrize("name", sorted(MAPS))
@pytest.mark.parametrize("kind, n, seed", CASES)
def test_invariants_commute_with_the_map(name, kind, n, seed):
    phi = MAPS[name]
    a = _case(kind, n, seed)
    b = _on_matrix(phi, a)
    assert [phi(t) for t in a.tau_values(2 * n)] == b.tau_values(2 * n)
    if kind == "queer":
        assert phi(a.qtr()) == b.qtr()
        assert phi(a.qet()) == b.qet()
    else:
        assert phi(a.supertrace()) == b.supertrace()
    assert [phi(s) for s in compute_s(a)] == list(compute_s(b))


@pytest.mark.parametrize("name", sorted(MAPS))
@pytest.mark.parametrize("kind, n, seed", CASES)
def test_reductions_commute_with_the_map(name, kind, n, seed):
    phi = MAPS[name]
    a = _case(kind, n, seed)
    reduce = diagonalize if kind == "queer" else reduce_odd
    dec = reduce(a)
    image = reduce(_on_matrix(phi, a))
    assert image.partition == dec.partition
    assert _on_matrix(phi, dec.conjugator.matrix) == image.conjugator.matrix
    assert [(lam, _on_matrix(phi, blk)) for lam, blk in dec.blocks] == image.blocks


def test_the_cases_have_souls_the_maps_move():
    # every case has a soul, and each permutation moves some case, so no
    # check above passes because phi fixes A
    assert not any(_case(*case).soul().is_zero() for case in CASES)
    for name in ("permute", "swap"):
        assert any(_on_matrix(MAPS[name], _case(*case)) != _case(*case) for case in CASES)
