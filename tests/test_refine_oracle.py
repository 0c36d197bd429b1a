"""The ring-core nilpotent stage against its Fraction and `linalg.matmul` oracle."""

import random
from fractions import Fraction

import pytest

from superinv import block_diagonalize, reduce_odd
from superinv.verify import (
    random_odd_reducible,
    random_queer_with_spectrum,
    random_standard_even_with_spectrum,
)

from refine_oracle import refine_matches


@pytest.mark.parametrize("eigenvalues,gq,seed", [
    ([1, 2, 5], 4, 1),                                     # distinct
    ([-1, 3, 3, 7], 4, 2),                                 # one repeated
    ([2, 2, 2], 3, 3),                                     # one part
    ([Fraction(1, 2), 3, Fraction(-2, 3)], 4, 4),          # Fractions, 1/2 among them
    ([Fraction(1, 2), Fraction(1, 2), Fraction(5, 7)], 5, 5),
    ([999983, 1000003], 5, 6),                             # primes near 1e6
    ([Fraction(999983, 2), 1000003, 999979], 4, 7),
    ([1, Fraction(1, 2), 999983], 6, 8),                   # six levels
])
def test_queer_refine_matches_oracle(monkeypatch, eigenvalues, gq, seed):
    a = random_queer_with_spectrum(len(eigenvalues), eigenvalues, gq, seed, soul_terms=6)
    assert refine_matches(monkeypatch, block_diagonalize, a) == 1


def test_even_standard_refine_matches_oracle(monkeypatch):
    rng = random.Random(21)
    for eigs_x, eigs_t in [([1, 3], [2]), ([2], [2, -1]), ([Fraction(1, 2), 4], [4, Fraction(-3, 5)])]:
        a = random_standard_even_with_spectrum(len(eigs_x), len(eigs_t), eigs_x, eigs_t,
                                               rng.randint(2, 4), rng.randrange(1 << 30))
        assert refine_matches(monkeypatch, block_diagonalize, a) == 1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_odd_refine_matches_oracle(monkeypatch, n):
    rng = random.Random(30 + n)
    values = [[2], [-3, Fraction(1, 2)], [1, 5, Fraction(-7, 3)]][n - 1]
    for gq in range(2, 7):
        a = random_odd_reducible(n, values, gq, rng.randrange(1 << 30))
        assert refine_matches(monkeypatch, reduce_odd, a) == 1
