"""`superinv verify all` output is pinned byte for byte at a fixed seed."""

import hashlib

from superinv.cli import main

# sha256 of the stdout of `superinv verify all --seed 3 --trials 2`
GOLDEN = "7ad70209e8bc685471a013a9205b9671e434ee1877cf6cd71111c5ffb74549a3"


def test_verify_all_stdout_digest(capsys):
    assert main(["verify", "all", "--seed", "3", "--trials", "2"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN
