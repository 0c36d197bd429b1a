import hashlib
import json
import os
import time

import pytest

from superinv import (
    ANY,
    EVEN,
    GrassmannScalar,
    ODD,
    Queer,
    Standard,
    SuperMatrix,
)
from superinv import cli, errors
from superinv.cli import main
from superinv.reduction import SpectralDecomposition
from superinv.verify import random_commuting_odd_pair

G = GrassmannScalar


def write_matrix(path, matrix):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(matrix.to_obj(), handle)
    return str(path)


@pytest.fixture
def q1_file(tmp_path):
    q = 1
    a = SuperMatrix(Queer(1), ANY, [[G.rational(q, 2) + G.generator(q, 1)]])
    return write_matrix(tmp_path / "q1.json", a)


@pytest.fixture
def odd_file(tmp_path):
    q = 2
    x1, x2 = G.generator(q, 1), G.generator(q, 2)
    a = SuperMatrix(Standard(1, 1), ODD, [[x1, G.rational(q, 2)], [G.rational(q, 3), x2]])
    return write_matrix(tmp_path / "odd.json", a)


def test_invariants_command_json(q1_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["invariants", q1_file, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    from fractions import Fraction

    assert G.from_obj(report["qtr"]) == G.generator(1, 1)
    assert G.from_obj(report["qet"]) == G.generator(1, 1) * Fraction(1, 2)
    taus = [G.from_obj(t) for t in report["tau"]]
    assert taus == [G.generator(1, 1), 2 * G.generator(1, 1)]


def test_invariants_rational_matrix_zero_taus(tmp_path):
    a = SuperMatrix.from_rationals(Queer(2), ANY, [[1, 2], [3, 4]], 2)
    path = write_matrix(tmp_path / "rational.json", a)
    out = tmp_path / "r.json"
    assert main(["invariants", path, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert all(G.from_obj(t).is_zero() for t in report["tau"])


def test_invariants_text_format(q1_file, capsys):
    assert main(["invariants", q1_file, "--format", "text"]) == 0
    text = capsys.readouterr().out
    assert "qtr = e1" in text
    assert "tau[2] = 2*e1" in text


def test_invariants_malformed_parity_exit_code(tmp_path, capsys):
    obj = SuperMatrix.from_rationals(Standard(1, 1), EVEN, [[1, 0], [0, 1]], 2).to_obj()
    obj["entries"][0][1] = {"q": 2, "terms": [{"idx": [], "coeff": "1"}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    assert main(["invariants", str(path)]) == 3
    err = capsys.readouterr().err
    assert "(1, 2)" in err


def test_reduce_modes_round_trip(odd_file, tmp_path):
    out = tmp_path / "dec.json"
    assert main(["reduce", odd_file, "--mode", "odd", "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    dec = SpectralDecomposition.from_obj(obj)
    original = SuperMatrix.from_obj(json.loads(open(odd_file).read()))
    assert dec.verify(original)
    q = 2
    x1, x2 = G.generator(q, 1), G.generator(q, 2)
    blk = dec.blocks[0][1]
    assert blk.rows[0][0] == x1 + x2
    assert blk.rows[0][1] == G.rational(q, 6) - x1 * x2


def test_reduce_blockdiag_and_diagonalize(tmp_path):
    a = SuperMatrix(Queer(2), ANY,
                    [[G.one(1), G.generator(1, 1)], [G.zero(1), G.rational(1, 2)]])
    path = write_matrix(tmp_path / "upper.json", a)
    for mode in ("blockdiag", "diagonalize"):
        out = tmp_path / ("%s.json" % mode)
        assert main(["reduce", path, "--mode", mode, "--out", str(out)]) == 0
        dec = SpectralDecomposition.from_obj(json.loads(out.read_text()))
        assert dec.verify(a)


def test_reduce_antidiag(tmp_path):
    a = SuperMatrix(Standard(1, 1), ODD,
                    [[G.generator(1, 1), G.rational(1, 2)], [G.one(1), -G.generator(1, 1)]])
    path = write_matrix(tmp_path / "anti.json", a)
    out = tmp_path / "anti_dec.json"
    assert main(["reduce", path, "--mode", "antidiag", "--out", str(out)]) == 0
    dec = SpectralDecomposition.from_obj(json.loads(out.read_text()))
    assert dec.verify(a)
    reduced = dec.blocks[0][1]
    assert reduced.rows[0][0].is_zero()
    assert reduced.rows[1][0] == 1


def test_reduce_antidiag_stdout_digest(tmp_path, capsys):
    # sha256 of the stdout of `superinv reduce --mode antidiag` on a seeded pair
    path = write_matrix(tmp_path / "pair.json", random_commuting_odd_pair(2, 3, seed=111))
    assert main(["reduce", path, "--mode", "antidiag"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digest == "c6e6b30fc1f9657ad2524d5948008eb2882145dc168ed4c30f31109dba5f5fb8"


def test_reduce_nonsplitting_exit_code(tmp_path):
    a = SuperMatrix.from_rationals(Queer(2), ANY, [[0, -1], [1, 0]], 2)
    path = write_matrix(tmp_path / "rot.json", a)
    assert main(["reduce", path, "--mode", "diagonalize"]) == 4


def test_verify_pass_and_exit_codes(tmp_path, capsys):
    out = tmp_path / "report.ndjson"
    assert main(["verify", "thm-3.3", "--seed", "7", "--trials", "3",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    summary = json.loads(lines[-1])["summary"]
    assert summary["failures"] == 0
    records = [json.loads(line) for line in lines[:-1]]
    assert all(r["status"] == "pass" for r in records)
    assert all(r["suite"] == "thm-3.3" for r in records)


def test_verify_worked_command_line(tmp_path):
    out = tmp_path / "t33.ndjson"
    assert main(["verify", "thm-3.3", "--seed", "7", "--trials", "50",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert json.loads(lines[-1])["summary"]["failures"] == 0


def test_verify_unknown_suite_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "nonsense"])
    assert err.value.code == 2


def test_verify_deterministic_output(tmp_path):
    out1 = tmp_path / "a.ndjson"
    out2 = tmp_path / "b.ndjson"
    assert main(["verify", "lemma-3.2", "--seed", "3", "--trials", "4", "--out", str(out1)]) == 0
    assert main(["verify", "lemma-3.2", "--seed", "3", "--trials", "4", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_env_q_cap_override(tmp_path, q1_file):
    q2 = 2
    a = SuperMatrix(Queer(1), ANY, [[G.rational(q2, 2) + G.generator(q2, 1) * G.generator(q2, 2)]])
    q2_file = write_matrix(tmp_path / "q2.json", a)
    os.environ["SUPERINV_MAX_Q"] = "1"
    try:
        assert main(["invariants", q1_file]) == 0
        assert main(["invariants", q2_file]) == 3
    finally:
        del os.environ["SUPERINV_MAX_Q"]
    from superinv.grassmann import DEFAULT_GENERATOR_CAP, generator_cap

    # the override holds for one call only
    assert generator_cap() == DEFAULT_GENERATOR_CAP == 16
    assert main(["invariants", q2_file]) == 0


def test_missing_file_exit_code(capsys):
    assert main(["invariants", "/nonexistent/file.json"]) == 3


def test_reduce_large_body_eigenvalues(tmp_path):
    # body g^-1 diag(a, b) g with g = [[1, 1], [1, 2]], plus a small soul
    a, b = 1000000007, -999999937
    q = 2
    e1, e2 = G.generator(q, 1), G.generator(q, 2)
    body = [[2 * a - b, 2 * a - 2 * b], [b - a, 2 * b - a]]
    soul = [[e1, e2], [e1 * e2, G.zero(q)]]
    m = SuperMatrix(Queer(2), ANY,
                    [[G.rational(q, body[i][j]) + soul[i][j] for j in range(2)] for i in range(2)])
    path = write_matrix(tmp_path / "wide.json", m)
    out = tmp_path / "wide_dec.json"
    start = time.perf_counter()
    assert main(["reduce", path, "--mode", "diagonalize", "--out", str(out)]) == 0
    assert time.perf_counter() - start < 5
    dec = SpectralDecomposition.from_obj(json.loads(out.read_text()))
    assert dec.verify(m)
    assert sorted(lam for lam, _ in dec.blocks) == [b, a]


def test_reduce_rejects_format_option(q1_file):
    with pytest.raises(SystemExit) as err:
        main(["reduce", q1_file, "--mode", "diagonalize", "--format", "text"])
    assert err.value.code == 2


def _set_grassmann_q(obj):
    obj["grassmann_q"] = True


def _set_shape_n(obj):
    obj["shape"]["n"] = True


def _set_shape_p(obj):
    obj["shape"] = {"kind": "standard", "p": True, "q_odd": 0}


def _set_scalar_q(obj):
    obj["entries"][0][0]["q"] = True


def _set_index(obj):
    obj["entries"][0][0]["terms"][1]["idx"] = [True]


@pytest.mark.parametrize("mutate", [_set_grassmann_q, _set_shape_n, _set_shape_p,
                                    _set_scalar_q, _set_index])
def test_json_booleans_are_not_integers(q1_file, tmp_path, capsys, mutate):
    # q1_file is 1x1 with q = 1, so `true` would pass as the integer 1
    obj = json.loads(open(q1_file).read())
    mutate(obj)
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(obj))
    assert main(["invariants", str(path)]) == 3
    assert capsys.readouterr().out == ""


def test_overlong_coefficient_exit_code(q1_file, tmp_path, capsys):
    obj = json.loads(open(q1_file).read())
    obj["entries"][0][0]["terms"][0]["coeff"] = "7" * 5000
    path = tmp_path / "long.json"
    path.write_text(json.dumps(obj))
    assert main(["invariants", str(path)]) == 3
    assert "too many digits" in capsys.readouterr().err


def test_overlong_result_coefficient_exit_code(tmp_path, capsys):
    # 2,200-digit inputs parse, but the odd moments square them past the
    # interpreter's 4,300-digit limit for printing an integer
    q = 1
    big = int("9" * 2200)
    e1 = G.generator(q, 1)
    a = SuperMatrix(Queer(2), ANY, [[G.rational(q, big) + e1, G.zero(q)],
                                    [G.zero(q), G.rational(q, big + 1) + e1]])
    path = write_matrix(tmp_path / "big.json", a)
    assert main(["invariants", path]) == 3
    assert "too many digits" in capsys.readouterr().err


def test_overlong_json_integer_exit_code(q1_file, tmp_path):
    text = open(q1_file).read().replace('"grassmann_q": 1', '"grassmann_q": 1' + "0" * 5000)
    path = tmp_path / "longint.json"
    path.write_text(text)
    assert main(["invariants", str(path)]) == 3


@pytest.mark.parametrize("command", [["invariants"], ["reduce", "--mode", "odd"]])
def test_deeply_nested_json_exit_code(tmp_path, capsys, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    assert main([command[0], str(path)] + command[1:]) == 3
    assert "invalid JSON" in capsys.readouterr().err


EXIT_CODES = {
    "SuperInvError": 1,
    "SamplingError": 1,
    "InputError": 3,
    "ValidationError": 3,
    "GeneratorCountMismatch": 3,
    "ShapeMismatch": 3,
    "UnconstrainedParity": 3,
    "PreconditionError": 4,
    "NonSplitting": 4,
    "SharedEigenvalue": 4,
    "MultipleEigenvalue": 4,
    "ZeroEigenvalue": 4,
    "NotBlockDiagonalSquare": 4,
    "SingularZ": 4,
    "SingularBody": 4,
    "ZeroBody": 4,
    "ZeroDiscriminant": 4,
    "NotInL": 4,
    "NotSymmetric": 4,
    "NotInvariant": 4,
    "InternalError": 5,
}

ERROR_CLASSES = sorted(
    (c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, errors.SuperInvError)),
    key=lambda c: c.__name__,
)


def test_exit_code_table_names_every_error_class():
    assert sorted(EXIT_CODES) == [c.__name__ for c in ERROR_CLASSES]


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda c: c.__name__)
def test_error_class_exit_code(q1_file, monkeypatch, capsys, cls):
    def fail(_path):
        raise cls("planted failure")

    monkeypatch.setattr(cli, "_load_matrix", fail)
    assert main(["invariants", q1_file]) == EXIT_CODES[cls.__name__]
    err = capsys.readouterr().err
    assert "planted failure" in err
    assert ("invariants %s" % q1_file in err) == (cls is errors.InternalError)


def test_failed_self_check_exit_code(odd_file, monkeypatch, capsys):
    monkeypatch.setattr(SpectralDecomposition, "verify", lambda self, a: False)
    assert main(["reduce", odd_file, "--mode", "odd"]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("internal error: emitted decomposition does not re-verify "
                            "(reduce %s)\n" % odd_file)
