"""Reduction outputs are pinned byte for byte on seeded inputs.

Each case hashes the canonical JSON of a decomposition (or of a conjugator),
or the type, message and residual of the error the reduction raises.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from superinv import cli
from superinv import (
    ANY,
    EVEN,
    ODD,
    GrassmannScalar,
    Queer,
    Standard,
    SuperMatrix,
    antidiagonalize,
    block_diagonalize,
    diagonalize,
    reduce_odd,
)
from superinv.errors import SuperInvError
from superinv.supermatrix import GroupElement, random_matrix
from superinv.verify import (
    random_commuting_odd_pair,
    random_odd_reducible,
    random_queer_with_spectrum,
    random_standard_even_with_spectrum,
)


def _conjugator_obj(g):
    return {"matrix": g.matrix.to_obj(), "inverse": g.inverse.to_obj()}


def _dense_conjugate(a, seed, max_terms):
    """a conjugated by 1 plus a random soul of up to max_terms terms per entry."""
    soul = random_matrix(a.shape, a.shape.group_parity, a.gq, seed, 9, max_terms=max_terms).soul()
    return a.conjugate(GroupElement(SuperMatrix.identity(a.shape, a.gq) + soul))


CASES = {
    "diagonalize queer 2": lambda: diagonalize(
        random_queer_with_spectrum(2, [-3, 4], 3, seed=101)).to_obj(),
    "diagonalize queer 3": lambda: diagonalize(
        random_queer_with_spectrum(3, [2, -1, 5], 2, seed=102)).to_obj(),
    "block_diagonalize queer 2": lambda: block_diagonalize(
        random_queer_with_spectrum(2, [1, 0], 3, seed=103)).to_obj(),
    "block_diagonalize queer 3 repeated": lambda: block_diagonalize(
        random_queer_with_spectrum(3, [1, 1, 2], 2, seed=104)).to_obj(),
    "block_diagonalize standard 1|1 shared": lambda: block_diagonalize(
        random_standard_even_with_spectrum(1, 1, [2], [2], 3, seed=105)).to_obj(),
    "block_diagonalize standard 2|1": lambda: block_diagonalize(
        random_standard_even_with_spectrum(2, 1, [1, -2], [3], 3, seed=106)).to_obj(),
    "block_diagonalize standard 2|0": lambda: block_diagonalize(
        random_standard_even_with_spectrum(2, 0, [4, -1], [], 3, seed=107)).to_obj(),
    "block_diagonalize standard 0|2": lambda: block_diagonalize(
        random_standard_even_with_spectrum(0, 2, [], [0, 3], 3, seed=108)).to_obj(),
    "reduce_odd 1|1": lambda: reduce_odd(random_odd_reducible(1, [-2], 3, seed=109)).to_obj(),
    "reduce_odd 2|2": lambda: reduce_odd(random_odd_reducible(2, [5, -3], 2, seed=110)).to_obj(),
    "antidiagonalize 2|2": lambda: _conjugator_obj(
        antidiagonalize(random_commuting_odd_pair(2, 3, seed=111)).conjugator),
    "reduce_odd zero": lambda: reduce_odd(random_odd_reducible(2, [0, 3], 2, seed=112)),
    "reduce_odd repeated": lambda: reduce_odd(random_odd_reducible(2, [3, 3], 2, seed=113)),
    "reduce_odd repeated before zero": lambda: reduce_odd(
        random_odd_reducible(3, [-1, -1, 0], 2, seed=114)),
    "reduce_odd zero before repeated": lambda: reduce_odd(
        random_odd_reducible(3, [0, 2, 2], 2, seed=115)),
    "reduce_odd nonsplitting": lambda: reduce_odd(SuperMatrix.from_rationals(
        Standard(2, 2), ODD, [[0, 0, 0, -1], [0, 0, 1, 0], [1, 0, 0, 0], [0, 1, 0, 0]], 2)),
    "reduce_odd even input": lambda: reduce_odd(SuperMatrix.identity(Standard(2, 2), 2)),
    "diagonalize queer 3 repeated": lambda: diagonalize(
        random_queer_with_spectrum(3, [1, 1, 2], 2, seed=116)),
    "block_diagonalize nonsplitting": lambda: block_diagonalize(
        SuperMatrix.from_rationals(Queer(2), ANY, [[0, -1], [1, 0]], 2)),
    "block_diagonalize nonsplitting both halves": lambda: block_diagonalize(
        SuperMatrix.from_rationals(Standard(2, 2), EVEN,
                                   [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -2], [0, 0, 1, 0]], 2)),
    "block_diagonalize odd input": lambda: block_diagonalize(
        SuperMatrix.from_rationals(Standard(1, 1), ODD, [[0, 1], [1, 0]], 2)),
    "antidiagonalize 1|1": lambda: _conjugator_obj(
        antidiagonalize(random_commuting_odd_pair(1, 5, seed=117)).conjugator),
    "antidiagonalize 3|3": lambda: _conjugator_obj(
        antidiagonalize(random_commuting_odd_pair(3, 3, seed=118)).conjugator),
    "antidiagonalize singular Z": lambda: antidiagonalize(
        SuperMatrix.from_rationals(Standard(1, 1), ODD, [[0, 1], [0, 0]], 2)),
    "antidiagonalize square not block diagonal": lambda: antidiagonalize(SuperMatrix(
        Standard(1, 1), ODD,
        [[GrassmannScalar.generator(2, 1), GrassmannScalar.one(2)],
         [GrassmannScalar.one(2), GrassmannScalar.zero(2)]])),
    "reduce_odd 3|3": lambda: reduce_odd(random_odd_reducible(3, [1, -2, 3], 2, seed=119)).to_obj(),
    # cross terms at every level up to gq: the steps above gq / 2 extend the
    # conjugator together
    "reduce_odd dense 2|2 gq 6": lambda: reduce_odd(_dense_conjugate(
        random_odd_reducible(2, [2, -3], 6, seed=120), 121, 32)).to_obj(),
    "reduce_odd dense 2|2 gq 7": lambda: reduce_odd(_dense_conjugate(
        random_odd_reducible(2, [5, -1], 7, seed=122), 123, 64)).to_obj(),
    "diagonalize dense queer 2 gq 7": lambda: diagonalize(_dense_conjugate(
        random_queer_with_spectrum(2, [1, -2], 7, seed=124), 125, 128)).to_obj(),
    "diagonalize dense queer 3 gq 6": lambda: diagonalize(_dense_conjugate(
        random_queer_with_spectrum(3, [2, -1, 3], 6, seed=126), 127, 64)).to_obj(),
    # generator counts no benchmark workload reaches: the table's gate at gq
    # 8..10 on dense inputs, the pair kernel on a sparse one, and a dense
    # input with a fractional body
    "diagonalize dense queer 2 gq 8": lambda: diagonalize(_dense_conjugate(
        random_queer_with_spectrum(2, [1, -2], 8, seed=4), 5, 3 << 5)).to_obj(),
    "diagonalize dense queer 2 gq 9": lambda: diagonalize(_dense_conjugate(
        random_queer_with_spectrum(2, [1, -2], 9, seed=4), 5, 3 << 6)).to_obj(),
    "reduce_odd dense 2|2 gq 10": lambda: reduce_odd(_dense_conjugate(
        random_odd_reducible(2, [5, -1], 10, seed=3), 8, 512)).to_obj(),
    "diagonalize sparse queer 3 gq 10": lambda: diagonalize(_dense_conjugate(
        random_queer_with_spectrum(3, [1, -2, 3], 10, seed=4), 5, 2)).to_obj(),
    "diagonalize dense queer 2 half gq 8": lambda: diagonalize(_dense_conjugate(
        random_queer_with_spectrum(2, [Fraction(1, 2), -3], 8, seed=6), 7, 3 << 5)).to_obj(),
}

# sha256 of each case's canonical outcome JSON; a changed output or error shows here
GOLDEN = {
    "antidiagonalize 1|1": "907dc476097a7a84af84c54d952031d3a442f6040806fa1bfd8de1ec07bc21b6",
    "antidiagonalize 2|2": "548568b6b0ee8a11dbd5b8202a67df8d540633196230c30bd133fdeeb3234348",
    "antidiagonalize 3|3": "daef88043d3ed7bc3eae61cb09d8677ded15784230ae0052ce05c9d9a668c13b",
    "antidiagonalize singular Z": "f81dc01d0797ea1e31d434fd4b316c169f053bbf9b967b3db1c5647a2331e2f8",
    "antidiagonalize square not block diagonal": "a35375800f47682fbf0df75a1234b95caa235a39672d9407c4242b4f288f036b",
    "block_diagonalize nonsplitting": "52b3561a435ab69b07b1748c3d420b21a2cb60ff8ab5450b0831962e1bb55a7f",
    "block_diagonalize nonsplitting both halves": "52b3561a435ab69b07b1748c3d420b21a2cb60ff8ab5450b0831962e1bb55a7f",
    "block_diagonalize odd input": "460760b51cc03f50c8935871b7b83895c1df1c5e91b23a5747b0a473b9e71cf7",
    "block_diagonalize queer 2": "0ea6d26a4a9efb251c542f843725c30b6ca8cb928bb1083e7dc3137047f2b7b7",
    "block_diagonalize queer 3 repeated": "4754bca7f1be22d79daaecc775a1aa7c9a6a92ec16b44800448ca589f0763f06",
    "block_diagonalize standard 0|2": "83117870d26d2e260097788b43387ce6075380b0a7b050ecc5eaf71f1b740eb0",
    "block_diagonalize standard 1|1 shared": "7d5fcc980af2ca8ba7bf8bd3d16b984b930e8e025653d651e4b9e4903a63c1db",
    "block_diagonalize standard 2|0": "adc3fdc252293b8559f9e36ea0f0634bd9736b94957a50fe4d112bcc9bd63d25",
    "block_diagonalize standard 2|1": "9a3cf1abebe2d28b090a3a949e87deecec1756f53aaec6e9fea324baa2cfec97",
    "diagonalize queer 2": "83f9056816c50f163b98531e20a547d7cb3beed4b1d59531c2349791e8606995",
    "diagonalize queer 3": "bf9366652e88ac73717aa152af571ac0327d2124c64306d13244ccb00ffa4e6c",
    "diagonalize queer 3 repeated": "4c2e83ddc522f00aec4f6cf0bf0badec712ae6055aa09aa7b63241901b7a99fe",
    "diagonalize dense queer 2 gq 7": "e1ff48db8704b293cea31abdf8700df606d3035a50be42f392824ea2b35747af",
    "diagonalize dense queer 3 gq 6": "e9244bcff8b8c8521e12dfec8260afa2f6ab738199399551ffa5b4563e1d9902",
    "diagonalize dense queer 2 gq 8": "c5e862f036cb7a488e87acb2e006145e44d259a492d94c8252efb1695c29d864",
    "diagonalize dense queer 2 gq 9": "0678f42165b37538b9d91b0d9a65bebc354a172cce71d26580288bd04a5a3d79",
    "diagonalize dense queer 2 half gq 8": "1d3f6619f29677b068ff26121216941be89adf95e68f81364637ab528d976884",
    "diagonalize sparse queer 3 gq 10": "dcf5fd1129f835da938248863b42c7d5ce3638783eb1d5c8b094e8074cd534c5",
    "reduce_odd 1|1": "78430390e9e4557f81983a40e9538ace77ca787863fedf043b5e7263f78c55e8",
    "reduce_odd 2|2": "689190484f036e737de9dd735dddae83a7f7f43f6d5dee80a3455bb7d5591ac5",
    "reduce_odd 3|3": "0d318158eedf914b22a74b9b2ce120319f4374b9a4388b22cf5aabd5f015bf65",
    "reduce_odd dense 2|2 gq 6": "53f4c0df17ae948d0a8e68593277e0209bbdbf8bb7ff2a3e8473f8322e3c4016",
    "reduce_odd dense 2|2 gq 7": "66a8586cced712e23fe86cb22a527595fa99650e5ffa4a3920432d6a046b03d2",
    "reduce_odd dense 2|2 gq 10": "2c88bdc532e489a60b52897a85d7652fb80f4f1fa15db7b934367a8a09706424",
    "reduce_odd even input": "56abd0f039cdb3411cfd7aefee903cdb72df0b8a7de3c239144469498641f343",
    "reduce_odd nonsplitting": "52b3561a435ab69b07b1748c3d420b21a2cb60ff8ab5450b0831962e1bb55a7f",
    "reduce_odd repeated": "ea252379699aea7d40833fa64b3e1359943b0e31946b441433e527df41b1b980",
    "reduce_odd repeated before zero": "ea252379699aea7d40833fa64b3e1359943b0e31946b441433e527df41b1b980",
    "reduce_odd zero": "a71052d0ab7b8ae719973787b5317fcbd36333fd0b21325b76ad837b0bf0d544",
    "reduce_odd zero before repeated": "a71052d0ab7b8ae719973787b5317fcbd36333fd0b21325b76ad837b0bf0d544",
}


def _outcome(case):
    try:
        return {"result": case()}
    except SuperInvError as exc:
        residual = getattr(exc, "residual", None)
        return {
            "error": type(exc).__name__,
            "message": str(exc),
            "residual": None if residual is None else [str(c) for c in residual],
        }


@pytest.mark.parametrize("name", sorted(CASES))
def test_reduction_output_digest(name):
    text = json.dumps(_outcome(CASES[name]), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_reduction_output_emits_as_json_dumps(name):
    outcome = _outcome(CASES[name])
    assert cli._json_text(outcome) == json.dumps(outcome, sort_keys=True, indent=2)
