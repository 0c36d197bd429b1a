import pytest

from superinv import SingularZ, ValidationError, ZeroDiscriminant, verify
from superinv.cli import main
from superinv.sympoly import SuperPolynomial
from superinv.verify import (
    SUITES,
    random_odd_reducible,
    random_queer_with_spectrum,
    random_standard_even_with_spectrum,
    run_suite,
)


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_passes(name):
    records = run_suite(name, seed=2024, trials=4)
    assert records
    for record in records:
        assert record["status"] == "pass", record
        assert record["suite"] == name


def test_run_all_aggregates():
    records = run_suite("all", seed=5, trials=1)
    suites = {r["suite"] for r in records}
    assert suites == set(SUITES)
    assert all(r["status"] == "pass" for r in records)


def test_unknown_suite():
    with pytest.raises(ValidationError):
        run_suite("missing", seed=0, trials=1)


@pytest.mark.parametrize("seed, trials", [
    (0, 0), (0, -2), (0, True), (0, 1.5), (0, "3"), ("1", 1), (1.5, 1), (True, 1),
], ids=["trials-zero", "trials-negative", "trials-bool", "trials-float", "trials-str",
        "seed-str", "seed-float", "seed-bool"])
def test_run_suite_rejects_bad_seed_or_trials(seed, trials):
    with pytest.raises(ValidationError):
        run_suite("grassmann", seed, trials)


def test_single_suite_equals_its_slice_of_all():
    seed, trials = 9, 2
    everything = run_suite("all", seed, trials)
    for idx, key in enumerate(sorted(SUITES)):
        alone = run_suite(key, seed + 1000 * idx, trials)
        assert alone == [r for r in everything if r["suite"] == key], key


def test_library_error_inside_a_trial_fails_the_claim(monkeypatch, capsys):
    def injected(a):
        raise ZeroDiscriminant("injected")

    monkeypatch.setattr(verify, "q2_closed_form", injected)
    records = run_suite("eq-4.1", 1, 2)
    assert [r["status"] for r in records] == ["pass", "pass", "fail"]
    assert records[2]["counterexample"] == {"trial": 0, "info": "raised ZeroDiscriminant: injected"}
    assert main(["verify", "eq-4.1", "--seed", "1", "--trials", "2"]) == 1
    assert "raised ZeroDiscriminant: injected" in capsys.readouterr().out


def _claim_record(monkeypatch, suite, claim, target, planted):
    """One trial of a claim, as run_suite runs it, with verify.<target> raising planted."""
    def raising(*args):
        raise planted

    monkeypatch.setattr(verify, target, raising)
    seed = 1
    for name, offset, _cap, one_trial in SUITES[suite](seed):
        if name == claim:
            return verify._run_trials(name, 1, seed + offset, one_trial)
    raise AssertionError("no claim %r in %r" % (claim, suite))


@pytest.mark.parametrize("suite, claim, target, planted", [
    ("sec-5.3.1", "antidiagonal-round-trip", "antidiagonalize", TypeError("planted")),
    ("sec-5.2", "zero-discriminant-rejected", "q2_closed_form", KeyError("planted")),
], ids=["round-trip", "zero-discriminant"])
def test_non_library_error_inside_a_claim_propagates(monkeypatch, suite, claim, target, planted):
    with pytest.raises(type(planted)):
        _claim_record(monkeypatch, suite, claim, target, planted)


def test_library_error_inside_round_trip_fails_the_claim(monkeypatch):
    record = _claim_record(monkeypatch, "sec-5.3.1", "antidiagonal-round-trip",
                           "antidiagonalize", SingularZ("planted"))
    assert record["status"] == "fail"
    assert record["counterexample"] == {"trial": 0, "info": "raised SingularZ: planted"}


def test_reports_are_reproducible():
    a = run_suite("grassmann", seed=11, trials=5)
    b = run_suite("grassmann", seed=11, trials=5)
    assert a == b


@pytest.mark.parametrize("call", [
    lambda: random_queer_with_spectrum(2, [1], 2, 1),
    lambda: random_queer_with_spectrum(2, [1, 2, 3], 2, 1),
    lambda: random_odd_reducible(2, [1], 2, 1),
    lambda: random_odd_reducible(2, [1, 2, 3], 2, 1),
    lambda: random_standard_even_with_spectrum(1, 1, [1, 5], [2], 2, 1),
    lambda: random_standard_even_with_spectrum(2, 1, [1], [2, 3], 2, 1),
], ids=["queer-short", "queer-long", "odd-short", "odd-long", "standard-long-x",
        "standard-split"])
def test_sampler_eigenvalue_counts_checked(call):
    with pytest.raises(ValidationError, match="eigenvalues"):
        call()


def test_lemma_3_2_builds_each_adjoint_product_once_per_suite_call(monkeypatch):
    built = []
    real = verify.vandermonde_adjoint

    def counting(n):
        built.append(n)
        return real(n)

    monkeypatch.setattr(verify, "vandermonde_adjoint", counting)
    # the symbolic claim visits n = 1..4 in its four trials; the numeric claim
    # draws n in 1..4 in each of its 30 and reuses those products
    records = run_suite("lemma-3.2", seed=7, trials=30)
    assert all(r["status"] == "pass" for r in records)
    assert sorted(built) == [1, 2, 3, 4]


def test_lemma_3_2_multiplies_no_constant(monkeypatch):
    # M's first row is 1 and each row of M' ends in 1: those terms of M'M
    # are read, not multiplied
    constant = []
    real = SuperPolynomial.__mul__

    def counting(self, other):
        if isinstance(other, SuperPolynomial) and any(
                p == p.constant_term() for p in (self, other)):
            constant.append((self, other))
        return real(self, other)

    monkeypatch.setattr(SuperPolynomial, "__mul__", counting)
    records = run_suite("lemma-3.2", seed=7, trials=30)
    assert all(r["status"] == "pass" for r in records)
    assert constant == []
