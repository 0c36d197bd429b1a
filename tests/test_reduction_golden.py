"""Reduction outputs are pinned byte for byte on seeded inputs.

Each case hashes the canonical JSON of a decomposition (or of a conjugator),
or the type, message and residual of the error the reduction raises.
"""

import hashlib
import json

import pytest

from superinv import (
    ANY,
    EVEN,
    ODD,
    Queer,
    Standard,
    SuperMatrix,
    antidiagonalize,
    block_diagonalize,
    diagonalize,
    reduce_odd,
)
from superinv.errors import SuperInvError
from superinv.verify import (
    random_commuting_odd_pair,
    random_odd_reducible,
    random_queer_with_spectrum,
    random_standard_even_with_spectrum,
)


def _conjugator_obj(g):
    return {"matrix": g.matrix.to_obj(), "inverse": g.inverse.to_obj()}


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
}

# sha256 of each case's canonical outcome JSON; a changed output or error shows here
GOLDEN = {
    "antidiagonalize 2|2": "548568b6b0ee8a11dbd5b8202a67df8d540633196230c30bd133fdeeb3234348",
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
    "reduce_odd 1|1": "78430390e9e4557f81983a40e9538ace77ca787863fedf043b5e7263f78c55e8",
    "reduce_odd 2|2": "689190484f036e737de9dd735dddae83a7f7f43f6d5dee80a3455bb7d5591ac5",
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
