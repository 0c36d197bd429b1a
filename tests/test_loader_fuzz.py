"""Mutated JSON documents never get past the input boundary as a traceback.

Valid small documents (n <= 2, q <= 3) are mutated: type swaps, bools,
numbers up to 10^30, literals over 4,300 digits, NaN/Infinity, deep nesting
and missing or extra fields.  The CLI must exit 0, 3 or 4 on every mutated
matrix file (5 would be a failed self-check, a defect), and `from_obj` of
polynomials, expressions and decompositions may raise only ValidationError.
"""

import contextlib
import copy
import io
import json
import os
import tempfile
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from superinv import (  # noqa: E402
    ANY,
    EVEN,
    ODD,
    BalancedExpression,
    Queer,
    Standard,
    SuperPolynomial,
    TTauExpression,
    block_diagonalize,
    random_matrix,
)
from superinv.cli import _MODES, main  # noqa: E402
from superinv.errors import ValidationError  # noqa: E402
from superinv.reduction import SpectralDecomposition  # noqa: E402
from superinv.verify import (  # noqa: E402
    random_commuting_odd_pair,
    random_odd_reducible,
    random_queer_with_spectrum,
    random_standard_even_with_spectrum,
)


class Raw:
    """JSON text spliced in verbatim where json.dumps cannot produce it."""

    def __init__(self, text):
        self.text = text


_RAW = [
    Raw("9" * 4301),                    # an integer literal past the conversion limit
    Raw('"%s"' % ("7" * 4301)),        # a coefficient string just as long
    Raw("NaN"), Raw("Infinity"), Raw("-Infinity"),
    Raw("[" * 20000 + "]" * 20000),     # nesting deeper than the decoder allows
    Raw("[" * 400 + "]" * 400),
    Raw('{"a": ' * 400 + "1" + "}" * 400),
]

_VALUES = st.one_of(
    st.sampled_from([None, True, False, 0, 1, -1, 2, 1.5, "", "x", "1", "-3/2", "0",
                     [], [1], [True], {}, {"a": 1}]),
    st.integers(-10 ** 30, 10 ** 30),
    st.integers(-10 ** 30, 10 ** 30).map(str),
    st.sampled_from(_RAW),
)


def _dumps(obj):
    """json.dumps with every Raw value spliced in as its own text."""
    raws = []

    def default(value):
        raws.append(value.text)
        return "\x00raw%d\x00" % (len(raws) - 1)

    text = json.dumps(obj, default=default)
    for k, raw in enumerate(raws):
        text = text.replace('"\\u0000raw%d\\u0000"' % k, raw)
    return text


def _paths(obj, prefix=()):
    yield prefix
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _paths(value, prefix + (i,))


_COEFFS = st.one_of(st.integers(-10 ** 30, 10 ** 30).map(str), st.builds(
    "{}/{}".format, st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 30)))


@st.composite
def _mutated(draw, documents):
    obj = json.loads(json.dumps(draw(st.sampled_from(documents))))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(obj))
        coeffs = [path for path in paths if path[-1:] == ("coeff",)]
        if coeffs and draw(st.booleans()):
            # usually still valid: the same document with a coefficient of another size
            path, value = draw(st.sampled_from(coeffs)), draw(_COEFFS)
        else:
            # a copy: a later mutation may append to a list or dict drawn here
            path, value = draw(st.sampled_from(paths)), copy.deepcopy(draw(_VALUES))
        if not path:
            obj = value
            break
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        action = "replace" if path in coeffs else draw(
            st.sampled_from(["replace", "delete", "extra"]))
        if action == "replace":
            parent[path[-1]] = value
        elif action == "delete":
            del parent[path[-1]]
        elif isinstance(parent, dict):
            parent["extra"] = value
        else:
            parent.append(value)
    return _dumps(obj)


_SHAPES = [(Queer(1), ANY), (Queer(2), ANY), (Standard(1, 1), EVEN), (Standard(1, 1), ODD),
           (Standard(2, 1), EVEN), (Standard(2, 2), ODD), (Standard(1, 0), ANY)]
_MATRICES = [random_matrix(shape, parity, q, seed, 3).to_obj()
             for seed, (shape, parity) in enumerate(_SHAPES) for q in (0, 2, 3)] + [
    # inputs every reduction mode accepts before mutation
    random_queer_with_spectrum(2, [1, -2], 3, seed=1).to_obj(),
    random_standard_even_with_spectrum(1, 1, [2], [-1], 2, seed=2).to_obj(),
    random_odd_reducible(2, [3, -1], 2, seed=3).to_obj(),
    random_odd_reducible(1, [2], 3, seed=4).to_obj(),
    random_commuting_odd_pair(2, 3, seed=5).to_obj(),
    random_commuting_odd_pair(1, 2, seed=6).to_obj(),
]
_POLYNOMIALS = [
    SuperPolynomial(2, {((1, 0), 0b01): 3, ((0, 2), 0b11): Fraction(-1, 2)}).to_obj(),
    SuperPolynomial(1, {((0,), 0): 5}).to_obj(),
]
_EXPRESSIONS = [
    TTauExpression(2, 3, {((1, 0, 2), 0b101): Fraction(3, 7), ((0, 0, 0), 0): 1}).to_obj(),
    TTauExpression(1, 1, {((2,), 0b1): -4}).to_obj(),
]
_BALANCED = [{"numerator": _EXPRESSIONS[0], "denominator": TTauExpression(
    2, 3, {((1, 0, 0), 0): 2}).to_obj()}]
_DECOMPOSITIONS = [
    block_diagonalize(random_matrix(Queer(2), ANY, 2, 5, 3)).to_obj(),
    block_diagonalize(random_standard_even_with_spectrum(1, 1, [2], [-1], 2, seed=2)).to_obj(),
]


def _singular_conjugator():
    """A decomposition document whose conjugator has a zero first row."""
    obj = json.loads(json.dumps(_DECOMPOSITIONS[0]))
    conjugator = obj["conjugator"]
    conjugator["entries"][0] = [{"q": conjugator["grassmann_q"], "terms": []}] * 2
    return json.dumps(obj)


_FUZZ = settings(derandomize=True, deadline=None, max_examples=200, database=None)


@_FUZZ
@given(_mutated(_MATRICES))
def test_cli_exit_codes_on_mutated_matrix_files(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        runs = [["invariants", path]] + [["reduce", path, "--mode", mode] for mode in _MODES]
        for argv in runs:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            assert code in (0, 3, 4), (argv[0], argv[-1], code)


def _from_obj_rejects_only_as_validation(loader, text):
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError):
        return  # the decoder rejects it before any from_obj sees it
    try:
        loader(obj)
    except ValidationError:
        pass


@_FUZZ
@given(_mutated(_POLYNOMIALS))
def test_polynomial_from_obj_on_mutated_json(text):
    _from_obj_rejects_only_as_validation(SuperPolynomial.from_obj, text)


@_FUZZ
@given(_mutated(_EXPRESSIONS))
def test_expression_from_obj_on_mutated_json(text):
    _from_obj_rejects_only_as_validation(TTauExpression.from_obj, text)


@_FUZZ
@given(_mutated(_BALANCED))
def test_balanced_expression_from_obj_on_mutated_json(text):
    _from_obj_rejects_only_as_validation(BalancedExpression.from_obj, text)


@_FUZZ
@given(_mutated(_DECOMPOSITIONS))
@example(_singular_conjugator())
def test_decomposition_from_obj_on_mutated_json(text):
    _from_obj_rejects_only_as_validation(SpectralDecomposition.from_obj, text)
