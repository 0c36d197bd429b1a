"""`GrassmannScalar.from_obj`'s bulk check against the per-term route.

The per-term route is the loop the library used before the bulk check, kept
here as the reference: it reads every term with `indices_to_mask` and
`parse_coeff` and builds the scalar from Fractions.  On every input both
routes must end alike, with the same q, numerators and denominator or with
the same ValidationError message.  The library's own per-term loop,
`grassmann._first_bad_term`, only diagnoses: it must raise a ValidationError
on every term list `grassmann._integer_terms` rejects and InternalError on
every list it accepts.
"""

import json
import random
from collections import OrderedDict, defaultdict
from fractions import Fraction

import pytest

from superinv import grassmann
from superinv.errors import InternalError, SuperInvError, ValidationError
from superinv.grassmann import GrassmannScalar, indices_to_mask, mask_to_indices, parse_coeff

from test_reduction_golden import CASES, _outcome


def _per_term_route(obj):
    """The reference: one term at a time, as before the bulk check."""
    if not isinstance(obj, dict) or "q" not in obj or "terms" not in obj:
        raise ValidationError("scalar object must have 'q' and 'terms' fields")
    q = obj["q"]
    GrassmannScalar._check_q(q)
    terms = {}
    if not isinstance(obj["terms"], list):
        raise ValidationError("scalar field 'terms' must be a list")
    for item in obj["terms"]:
        if not isinstance(item, dict) or "idx" not in item or "coeff" not in item:
            raise ValidationError("scalar term must have 'idx' and 'coeff' fields")
        if not isinstance(item["idx"], list):
            raise ValidationError("scalar field 'idx' must be a list")
        mask = indices_to_mask(item["idx"], q)
        coeff = parse_coeff(item["coeff"])
        if coeff == 0:
            raise ValidationError("stored coefficients must be nonzero")
        if mask in terms:
            raise ValidationError("duplicate monomial %r" % (item["idx"],))
        terms[mask] = coeff
    return GrassmannScalar(q, terms)


def _ending(parse, obj):
    try:
        x = parse(obj)
    except SuperInvError as exc:
        return type(exc).__name__, str(exc)
    return "scalar", x.q, x.num, x.den


def assert_same_ending(obj):
    """Both routes end alike, and the diagnosis loop agrees with the bulk check."""
    want = _ending(_per_term_route, obj)
    assert _ending(GrassmannScalar.from_obj, obj) == want, obj
    q, items = obj.get("q"), obj.get("terms")
    if type(q) is not int or not 0 <= q <= grassmann.generator_cap() or not items \
            or not isinstance(items, list):
        return want
    form = grassmann._integer_terms(q, items)
    if form is None:
        with pytest.raises(ValidationError) as exc:
            grassmann._first_bad_term(q, items)
        assert ("ValidationError", str(exc.value)) == want
    else:
        assert form == want[2:]
        with pytest.raises(InternalError):
            grassmann._first_bad_term(q, items)
    return want


# ----------------------------------------------------------------------
# accepted inputs


def _scalar_objects(obj):
    if isinstance(obj, dict):
        if set(obj) == {"q", "terms"}:
            yield obj
        else:
            for value in obj.values():
                yield from _scalar_objects(value)
    elif isinstance(obj, list):
        for value in obj:
            yield from _scalar_objects(value)


def test_every_scalar_of_the_reduction_goldens():
    count = 0
    for name in sorted(CASES):
        for obj in _scalar_objects(json.loads(json.dumps(_outcome(CASES[name])))):
            assert assert_same_ending(obj)[0] == "scalar"
            count += 1
    assert count > 300


def _spell(rng, value):
    """value (a nonzero Fraction) written in one of several accepted ways."""
    n, d = value.numerator, value.denominator
    k = rng.choice((1, 1, 2, 3, 10))
    sign = "-" if n < 0 else rng.choice(("", "+"))
    top = rng.choice(("", "0", "00")) + str(abs(n) * k)
    if d == 1 and k == 1 and rng.random() < 0.7:
        return sign + top
    return "%s%s/%d" % (sign, top, d * k)


def _random_object(rng, q, fractional):
    masks = rng.sample(range(1 << q), rng.randint(1, min(1 << q, 40)))
    terms = []
    for m in masks:
        value = Fraction(rng.choice((-1, 1)) * rng.randint(1, 10 ** rng.randint(1, 25)),
                         rng.randint(1, 60) if fractional and rng.random() < 0.6 else 1)
        terms.append({"idx": mask_to_indices(m), "coeff": _spell(rng, value)})
    return {"q": q, "terms": terms}


@pytest.mark.parametrize("q", range(13))
def test_random_spellings_on_both_sides_of_the_table_cap(q):
    rng = random.Random(5400 + q)
    for trial in range(40):
        obj = _random_object(rng, q, fractional=trial % 2 == 1)
        ending = assert_same_ending(obj)
        assert ending[0] == "scalar"
        assert ending[3] == 1 or trial % 2 == 1


@pytest.mark.parametrize("spelled, reduced", [
    (["4/6", "+2", "007"], ["2/3", "2", "7"]),
    (["-12/8", "+0001/1", "-007/7"], ["-3/2", "1", "-1"]),
    (["10/5", "6/3"], ["2", "2"]),
])
def test_unreduced_spellings_read_as_their_reduced_form(spelled, reduced):
    def obj(coeffs):
        return {"q": 2, "terms": [{"idx": idx, "coeff": c}
                                  for idx, c in zip(([], [1], [1, 2]), coeffs)]}
    x = GrassmannScalar.from_obj(obj(spelled))
    assert x == GrassmannScalar.from_obj(obj(reduced))
    assert x.to_obj() == obj(reduced)
    assert_same_ending(obj(spelled))


def test_extra_keys_and_dict_subclasses_are_read_like_dicts():
    for item in ({"idx": [1], "coeff": "-3/4", "note": None},
                 OrderedDict([("coeff", "-3/4"), ("idx", [1])]),
                 defaultdict(list, {"idx": [1], "coeff": "-3/4"})):
        obj = {"q": 2, "terms": [{"idx": [], "coeff": "1"}, item]}
        assert assert_same_ending(obj) == ("scalar", 2, {0: 4, 1: -3}, 4)


# ----------------------------------------------------------------------
# rejected inputs: each needs the message it had before the bulk check

def _bad_indices(q, idx):
    return "generator indices must be strictly increasing integers in 1..%d: %r" % (q, idx)


def _bad_coeff(text):
    return "coefficient must be a decimal-free rational string: %r" % (text,)


FIELDS = "scalar term must have 'idx' and 'coeff' fields"
LONG = "7" * 4301

# (idx, coeff) of one term after a valid one, or a whole term, and the message
MUTATIONS = [
    ([True], "1", _bad_indices(2, [True])),
    ([1, True], "1", _bad_indices(2, [1, True])),
    ([1.0], "1", _bad_indices(2, [1.0])),
    ([2, 1], "1", _bad_indices(2, [2, 1])),
    ([1, 1], "1", _bad_indices(2, [1, 1])),
    ([3], "1", _bad_indices(2, [3])),
    ([0], "1", _bad_indices(2, [0])),
    ([-1], "1", _bad_indices(2, [-1])),
    ([10 ** 40], "1", _bad_indices(2, [10 ** 40])),
    (["1"], "1", _bad_indices(2, ["1"])),
    ([None], "1", _bad_indices(2, [None])),
    ([1], "0/5", "stored coefficients must be nonzero"),
    ([1], "-0", "stored coefficients must be nonzero"),
    ([1], "+000", "stored coefficients must be nonzero"),
    ([1], "1/0", _bad_coeff("1/0")),
    ([1], "1/02", _bad_coeff("1/02")),
    ([1], " 3", _bad_coeff(" 3")),
    ([1], "3 ", _bad_coeff("3 ")),
    ([1], "3\n", _bad_coeff("3\n")),
    ([1], "3_0", _bad_coeff("3_0")),
    ([1], "٣", _bad_coeff("٣")),
    ([1], "1.5", _bad_coeff("1.5")),
    ([1], "", _bad_coeff("")),
    ([1], "/2", _bad_coeff("/2")),
    ([1], "1/2/3", _bad_coeff("1/2/3")),
    ([1], "+-1", _bad_coeff("+-1")),
    ([1], "1,2", _bad_coeff("1,2")),
    ([1], "2,", _bad_coeff("2,")),
    ([1], ",2", _bad_coeff(",2")),
    ([1], LONG, "coefficient has too many digits (4301 characters)"),
    ([1], "1/" + LONG, "coefficient has too many digits (4303 characters)"),
    ([1], 3, _bad_coeff(3)),
    ([1], 1.5, _bad_coeff(1.5)),
    ([1], True, _bad_coeff(True)),
    ([1], None, _bad_coeff(None)),
    ([1], ["1"], _bad_coeff(["1"])),
    ([], "2", "duplicate monomial []"),
    ((1,), "1", "scalar field 'idx' must be a list"),
    ("1", "1", "scalar field 'idx' must be a list"),
    ({1: 1}, "1", "scalar field 'idx' must be a list"),
    (None, "1", "scalar field 'idx' must be a list"),
]

WHOLE_TERMS = [
    ({"idx": [1]}, FIELDS),
    ({"coeff": "1"}, FIELDS),
    ({}, FIELDS),
    ([[1], "1"], FIELDS),
    ("idx", FIELDS),
    (None, FIELDS),
    (7, FIELDS),
    (defaultdict(lambda: "1", {"idx": [1]}), FIELDS),
    (defaultdict(lambda: [1], {"coeff": "1"}), FIELDS),
    (OrderedDict([("idx", [1]), ("coeff", "0")]), "stored coefficients must be nonzero"),
    (OrderedDict([("idx", [2, 1]), ("coeff", "1")]), _bad_indices(2, [2, 1])),
]


def _with(term):
    return {"q": 2, "terms": [{"idx": [], "coeff": "1"}, term]}


@pytest.mark.parametrize("idx, coeff, message", MUTATIONS, ids=range(len(MUTATIONS)))
def test_mutated_term_keeps_its_message(idx, coeff, message):
    obj = _with({"idx": idx, "coeff": coeff})
    assert assert_same_ending(obj) == ("ValidationError", message)


@pytest.mark.parametrize("term, message", WHOLE_TERMS, ids=range(len(WHOLE_TERMS)))
def test_mutated_whole_term_keeps_its_message(term, message):
    assert assert_same_ending(_with(term)) == ("ValidationError", message)


def test_a_separator_inside_a_coefficient_is_not_a_term_boundary():
    # joined, "1,2" and "3" read "1,2,3": three well-formed coefficients for two terms
    obj = {"q": 2, "terms": [{"idx": [], "coeff": "1,2"}, {"idx": [1], "coeff": "3"}]}
    assert assert_same_ending(obj) == ("ValidationError", _bad_coeff("1,2"))


def test_the_first_bad_term_names_the_error():
    obj = {"q": 3, "terms": [{"idx": [1], "coeff": "1"}, {"idx": [3, 2], "coeff": "x"},
                             {"idx": [1], "coeff": "0"}, {"coeff": "1"}]}
    assert assert_same_ending(obj) == ("ValidationError", _bad_indices(3, [3, 2]))


@pytest.mark.parametrize("q", (10, 11, 12))
def test_index_checks_on_both_sides_of_the_table_cap(q):
    for idx in ([q + 1], [q, q], [q, q - 1], [0, 1], [1, q, q + 1], [True], [float(q)]):
        assert assert_same_ending({"q": q, "terms": [{"idx": idx, "coeff": "1"}]}) == (
            "ValidationError", _bad_indices(q, idx))
    assert assert_same_ending({"q": q, "terms": [{"idx": list(range(1, q + 1)), "coeff": "1"}]}) \
        == ("scalar", q, {(1 << q) - 1: 1}, 1)


# ----------------------------------------------------------------------
# random mutations of valid scalars

POOL = [None, True, False, 0, 1, -1, 2, 1.0, 10 ** 30, "", "1", "-0", "0/5", "4/6", "+2",
        "007", " 3", "3_0", "٣", "1/0", "1,2", [], [1], [True], [2, 1], {}, {"a": 1}]


def _mutate(rng, obj):
    terms = obj["terms"]
    k = rng.randrange(len(terms))
    term = dict(terms[k]) if isinstance(terms[k], dict) else {"idx": [1], "coeff": "1"}
    action = rng.randrange(6)
    if action == 0:
        term[rng.choice(("idx", "coeff"))] = rng.choice(POOL)
    elif action == 1:
        term.pop(rng.choice(("idx", "coeff")), None)
    elif action == 2:
        term["extra"] = rng.choice(POOL)
    elif action == 3 and isinstance(term.get("idx"), list) and term["idx"]:
        idx = list(term["idx"])
        idx[rng.randrange(len(idx))] = rng.choice(POOL)
        term["idx"] = idx
    elif action == 4:
        term = rng.choice(POOL)
    else:
        term = terms[rng.randrange(len(terms))]  # maybe a duplicate
    terms[k] = term


def test_random_mutations_end_alike():
    rng = random.Random(54)
    endings = set()
    for _ in range(1500):
        obj = _random_object(rng, rng.randint(0, 12), fractional=rng.random() < 0.5)
        for _ in range(rng.randint(1, 2)):
            _mutate(rng, obj)
        endings.add(assert_same_ending(obj)[0])
    assert endings == {"scalar", "ValidationError"}


def test_hypothesis_mutations_end_alike():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    values = st.one_of(st.sampled_from(POOL), st.integers(-3, 13), st.text("0123456789+-/, ", max_size=6))
    term = st.one_of(
        st.fixed_dictionaries({"idx": st.one_of(st.lists(st.integers(0, 13), max_size=4), values),
                               "coeff": st.one_of(values, st.integers(-9, 9).map(str))}),
        values)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(0, 12), st.lists(term, min_size=1, max_size=6))
    def check(q, terms):
        assert_same_ending({"q": q, "terms": terms})

    check()
