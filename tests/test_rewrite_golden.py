"""Rewriting outputs are pinned byte for byte on seeded inputs.

Each case hashes the canonical JSON of the expression `rewrite_symmetric` or
`invariant_normal_form` returns, or the type and message of the error it
raises.
"""

import hashlib
import json
from fractions import Fraction
from random import Random

import pytest

from superinv import (
    SuperPolynomial,
    TTauExpression,
    invariant_normal_form,
    power_sum_even,
    rewrite_symmetric,
)
from superinv.errors import SuperInvError
from superinv.verify import _random_symmetric_polynomial


def _odd_products_plus_seven(n, rng):
    """The expansion of a few random odd-symbol products, plus the constant 7."""
    terms = {}
    for _ in range(rng.randint(1, 3)):
        mask = 0
        for i in rng.sample(range(2 * n), rng.randint(1, n)):
            mask |= 1 << i
        terms[((0,) * (2 * n), mask)] = rng.randint(-3, 3) or 1
    return TTauExpression(n, 2 * n, terms).expand() + 7


SHARED = {
    "zero n=2": lambda: SuperPolynomial.zero(2),
    "constant n=0": lambda: SuperPolynomial.constant(0, 5),
    "constant n=1": lambda: SuperPolynomial.constant(1, Fraction(-3, 2)),
}

CASES = {}
for _n in (1, 2, 3):
    for _s in range(4):
        CASES["rewrite n=%d s=%d" % (_n, _s)] = (
            lambda n=_n, s=_s: rewrite_symmetric(
                _random_symmetric_polynomial(n, Random(100 * n + s))).to_obj())
        CASES["normal form n=%d s=%d" % (_n, _s)] = (
            lambda n=_n, s=_s: invariant_normal_form(
                _odd_products_plus_seven(n, Random(100 * n + s))).to_obj())
for _name, _make in SHARED.items():
    CASES["rewrite " + _name] = lambda make=_make: rewrite_symmetric(make()).to_obj()
    CASES["normal form " + _name] = lambda make=_make: invariant_normal_form(make()).to_obj()
CASES["rewrite a1"] = lambda: rewrite_symmetric(SuperPolynomial.even_var(2, 1))
CASES["normal form t_2"] = lambda: invariant_normal_form(power_sum_even(2, 2))

# sha256 of each case's canonical outcome JSON; a changed output or error shows here
GOLDEN = {
    "normal form constant n=0": "9f769b8fe7a287d48d1175bababbe48a8734d8941f934be1b0dbe3a75e58ae56",
    "normal form constant n=1": "6262ffe0619c8ff6eefb6ad0dd421e2f54de9e48a4d48af4a5ca60f1167ae2cf",
    "normal form n=1 s=0": "282510a0b81431f002d91ae28194db366519e440f5322673d1208b6529e909a6",
    "normal form n=1 s=1": "a75a4eb43c58c0b11298f4b78efe07f95d13ec2143c0e0d2587c4271a3c9d726",
    "normal form n=1 s=2": "c810d5d8d0076c6edd900dc673ce563aadf55ca40bc36bdf6a7563d2911c52d2",
    "normal form n=1 s=3": "d6deeacaaf196a34587c96bf5439ed67e17d2b4bf0abfb7c3deb7cc4637adfb6",
    "normal form n=2 s=0": "0df9d36f33477440ef59fca5cd9e693f30d8faa66d1c6f3f9ec1dc7efed92351",
    "normal form n=2 s=1": "2fbd55f4e366c8baf460bb131cd2b3645225b7bfe2f3a1b6db3318ba19463555",
    "normal form n=2 s=2": "7d923d48ca2395d5732986fea3d6d8aa821dd0323113a0a60c7fd215871cdf48",
    "normal form n=2 s=3": "bcffdeee167292d667ce15df85f610f7003ac05d5786a2a4756b30555e5623f9",
    "normal form n=3 s=0": "0ae4a4e22ba9dcb384df79c19baa3e98ae20139d24b52991c99ebbea326efe4f",
    "normal form n=3 s=1": "451a3bc47484c193c9da5156601a0d0e4ab0b8f7024484081e498f82d39afdc6",
    "normal form n=3 s=2": "09d9f4f29e33ebed8d24cd02de0a969f797696e5395b901cac7cac5751a55c14",
    "normal form n=3 s=3": "7f50902d3a134e0e583ce5173aed36e920f2a548e196bcd287a306e8b46b1154",
    "normal form t_2": "2afd21930ec2548aad77dbaf317c0983cb621f9a2fa27fcb47a7b0b06d3b0438",
    "normal form zero n=2": "00ce645c162eb112b7ee2e8fb38e4d2bf1aafed40e6b1ee18e98afae6d82a876",
    "rewrite a1": "32d871f8f56a28df91a242fcb38d205713f967e2b91759db2d09b5c6262a7ba4",
    "rewrite constant n=0": "df5d084f6fbe84ef43ab192d23e62776e7257c5f3915f373ea811fa22b19a7fe",
    "rewrite constant n=1": "6262ffe0619c8ff6eefb6ad0dd421e2f54de9e48a4d48af4a5ca60f1167ae2cf",
    "rewrite n=1 s=0": "f61b333c4cced1dc5188a5b18efa4bf30b15959ef5f39995dd3925d88fa73cd2",
    "rewrite n=1 s=1": "69cbd271963733041bf276b60e2003c0e7b70d46b91562f234af2910a92ac20b",
    "rewrite n=1 s=2": "d1dad084bcc237c7f9a70c4c71794fff62a9e3b0d5500104cc69e52434863874",
    "rewrite n=1 s=3": "ee549769459e0cc2690a206dd316a7db359b4828ac45533f530c2ca5504f4019",
    "rewrite n=2 s=0": "ab32b9d52aabce4b3906a0a61c653fde6620dd826408d9f4974578ae86a56a93",
    "rewrite n=2 s=1": "eae26aca31aeed8c35572dc891fb0a6556612fcc7bc781d46225b0e602963d76",
    "rewrite n=2 s=2": "bae41ce55c5dccd01b8360acff89c4c90f8824dc290cc1e154d165cdd8f93169",
    "rewrite n=2 s=3": "749c0d2f1c79f11a7f5ba3964613363ac0cf43eab2272ce7637391a9f97af27c",
    "rewrite n=3 s=0": "0829f93df4ff13f31cd911b6caea42d664af8baf2da562445d79340d5e7ebbf3",
    "rewrite n=3 s=1": "5dceb3e60b373423b44a66150d36063dc0a0097a17415ecd5bef09eabbf8ea9f",
    "rewrite n=3 s=2": "7c112c48b00f2a8b5fb902b7501d46d16d70d5b372620d58349be917872fc9c9",
    "rewrite n=3 s=3": "7ebb6550ddcc379576556c9e1b28fd8ba931d600cbc0c12e785de4dbfa39a259",
    "rewrite zero n=2": "00ce645c162eb112b7ee2e8fb38e4d2bf1aafed40e6b1ee18e98afae6d82a876",
}


def _outcome(case):
    try:
        return {"result": case()}
    except SuperInvError as exc:
        return {"error": type(exc).__name__, "message": str(exc)}


@pytest.mark.parametrize("name", sorted(CASES))
def test_rewrite_output_digest(name):
    text = json.dumps(_outcome(CASES[name]), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN[name]
