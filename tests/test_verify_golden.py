"""`superinv verify all` output is pinned byte for byte at a fixed seed."""

import hashlib

from superinv.cli import main

# sha256 of the stdout of `superinv verify all --seed 3 --trials 2`
GOLDEN = "7ad70209e8bc685471a013a9205b9671e434ee1877cf6cd71111c5ffb74549a3"
# the same at --trials 10, which reaches late trials and vacuous branches
GOLDEN_TEN = "488619a63a83ea3a3c2eee6939164671928a7763287a36c58b4bfb77116e95f2"


def _digest(capsys, trials):
    assert main(["verify", "all", "--seed", "3", "--trials", trials]) == 0
    return hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()


def test_verify_all_stdout_digest(capsys):
    assert _digest(capsys, "2") == GOLDEN


def test_verify_all_ten_trials_stdout_digest(capsys):
    assert _digest(capsys, "10") == GOLDEN_TEN
