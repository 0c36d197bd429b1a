import pytest

from superinv import ValidationError
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
