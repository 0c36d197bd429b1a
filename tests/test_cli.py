import hashlib
import json
import os
import random
import time
from fractions import Fraction

import pytest

from superinv import (
    ANY,
    EVEN,
    GrassmannScalar,
    ODD,
    Queer,
    Standard,
    SuperMatrix,
    antidiagonalize,
    diagonalize,
    reduce_odd,
)
from superinv import cli, errors, verify
from superinv.cli import main
from superinv.grassmann import mask_to_indices
from superinv.reduction import SpectralDecomposition
from superinv.supermatrix import random_matrix
from superinv.verify import (
    random_commuting_odd_pair,
    random_odd_reducible,
    random_queer_with_spectrum,
)

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
    assert G.from_obj(report["qtr"]) == G.generator(1, 1)
    assert G.from_obj(report["qet"]) == G.generator(1, 1) * Fraction(1, 2)
    taus = [G.from_obj(t) for t in report["tau"]]
    assert taus == [G.generator(1, 1), 2 * G.generator(1, 1)]


def test_invariants_reads_qtr_off_the_tau_list(tmp_path, monkeypatch):
    # a queer input's moments come from one tau_values(2n) call, whose
    # first entry is qtr; qet's own call is on A0^-1 A1, not on the input
    a = random_queer_with_spectrum(2, [1, -2], 4, seed=4)
    path = write_matrix(tmp_path / "queer.json", a)
    calls = []
    tau_values = SuperMatrix.tau_values
    monkeypatch.setattr(SuperMatrix, "tau_values",
                        lambda self, upto: calls.append((self == a, upto)) or tau_values(self, upto))
    out = tmp_path / "r.json"
    assert main(["invariants", path, "--out", str(out)]) == 0
    assert [upto for on_input, upto in calls if on_input] == [4]
    report = json.loads(out.read_text())
    assert report["qtr"] == report["tau"][0] == a.qtr().to_obj()


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


def test_invariants_text_singular_qet(tmp_path, capsys):
    a = SuperMatrix.from_rationals(Queer(2), ANY, [[1, 2], [2, 4]], 1)
    assert main(["invariants", write_matrix(tmp_path / "s.json", a), "--format", "text"]) == 0
    assert "qet = null\n" in capsys.readouterr().out


# sha256 of the stdout of `superinv invariants` on three seeded matrices
_INVARIANTS_DIGESTS = {
    ("queer", "json"): "5411d431eb82730396a8144320e38b9f2e23ededa7b8a1f996c8d7d5648d8573",
    ("queer", "text"): "1472aa42e44599ca64e88b0a1e3edccd04ccca4fefe846d7bdfaf5302cb86b58",
    ("odd", "json"): "4cf3d94283f4ce1908cd3f058457e50f7fbb57f3d14ac68351ca39b1c899d0da",
    ("odd", "text"): "008e33d7f820eb584fe04dffcd46225ebae2f30d5b27da7e88a624484b59b4d6",
    ("even", "json"): "a0de4e48e6db5d4b4def98c3ced8f67486d60bcfb2ac36756143b202b2dbcd6d",
    ("even", "text"): "7cbfe7707d71c4d5e1d1c9dd4d0456a232254c0db334068a7b6d49386bbba1b0",
}


@pytest.mark.parametrize("kind, fmt", sorted(_INVARIANTS_DIGESTS))
def test_invariants_stdout_digest(kind, fmt, tmp_path, capsys):
    matrix = {
        "queer": lambda: random_matrix(Queer(2), ANY, 3, 30, 5, max_terms=3),
        "odd": lambda: random_matrix(Standard(2, 2), ODD, 3, 22, 5, max_terms=3),
        "even": lambda: random_matrix(Standard(1, 2), EVEN, 3, 23, 5, max_terms=3),
    }[kind]()
    assert main(["invariants", write_matrix(tmp_path / "m.json", matrix), "--format", fmt]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digest == _INVARIANTS_DIGESTS[kind, fmt]


def test_invariants_malformed_parity_exit_code(tmp_path, capsys):
    obj = SuperMatrix.from_rationals(Standard(1, 1), EVEN, [[1, 0], [0, 1]], 2).to_obj()
    obj["entries"][0][1] = {"q": 2, "terms": [{"idx": [], "coeff": "1"}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    assert main(["invariants", str(path)]) == 3
    err = capsys.readouterr().err
    assert "(1, 2)" in err


def test_unknown_parity_label_exit_code(q1_file, tmp_path, capsys):
    with open(q1_file, encoding="utf-8") as handle:
        obj = json.load(handle)
    obj["parity"] = "bogus"
    path = tmp_path / "bogus.json"
    path.write_text(json.dumps(obj))
    assert main(["invariants", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "parity must be 'even', 'odd' or 'any'" in captured.err


def test_queer_matrix_labelled_even_exit_code(tmp_path, capsys):
    # Q(1) with the single entry e1 at q = 1, labelled "even"
    obj = SuperMatrix(Queer(1), ANY, [[G.generator(1, 1)]]).to_obj()
    obj["parity"] = EVEN
    path = tmp_path / "even_queer.json"
    path.write_text(json.dumps(obj))
    assert main(["invariants", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "parity 'any'" in captured.err


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


def test_reduce_odd_zero_eigenvalue_exit_code(tmp_path, capsys):
    # [[e1, 0], [3, e2]]: the square's body b(Y)b(Z) is zero
    q = 2
    x1, x2 = G.generator(q, 1), G.generator(q, 2)
    a = SuperMatrix(Standard(1, 1), ODD, [[x1, G.zero(q)], [G.rational(q, 3), x2]])
    path = write_matrix(tmp_path / "ineligible.json", a)
    assert main(["reduce", path, "--mode", "odd"]) == 4
    assert "zero eigenvalue" in capsys.readouterr().err


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


def test_verify_zero_trials_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "grassmann", "--trials", "0"])
    assert err.value.code == 2
    assert "--trials must be at least 1" in capsys.readouterr().err


def test_verify_text_format_digest(capsys):
    # five "PASS grassmann/... (trials=1)" lines and the summary line
    assert main(["verify", "grassmann", "--seed", "1", "--trials", "1", "--format", "text"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digest == "adac4baf9b439c6fe9fa13aa7467a7363760bc09a4c125c00ea2e42e18208779"


def test_verify_text_format_reports_a_failed_claim(monkeypatch, capsys):
    def suite(base):
        return [("always-fails", 0, None, lambda t, rng: "no luck")]

    monkeypatch.setitem(verify.SUITES, "always-fails", suite)
    assert main(["verify", "always-fails", "--seed", "1", "--trials", "2", "--format", "text"]) == 1
    assert capsys.readouterr().out == (
        "FAIL always-fails/always-fails (trials=2)\n"
        '     counterexample: {"info": "no luck", "trial": 0}\n'
        "claims=1 failures=1 seed=1 trials=2\n"
    )


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


def test_env_q_cap_must_be_an_integer(monkeypatch, q1_file, capsys):
    monkeypatch.setenv("SUPERINV_MAX_Q", "abc")
    assert main(["invariants", q1_file]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "input error: SUPERINV_MAX_Q must be an integer\n"


def test_missing_file_exit_code(capsys):
    assert main(["invariants", "/nonexistent/file.json"]) == 3


@pytest.mark.parametrize("command", [
    ["invariants", "{q1}"],
    ["reduce", "{q1}", "--mode", "diagonalize"],
    ["verify", "grassmann", "--seed", "1", "--trials", "1"],
], ids=["invariants", "reduce", "verify"])
@pytest.mark.parametrize("where", ["directory", "missing-parent"])
def test_unwritable_out_exit_code(q1_file, tmp_path, capsys, command, where):
    out = tmp_path if where == "directory" else tmp_path / "missing" / "out.json"
    argv = [arg.format(q1=q1_file) for arg in command] + ["--out", str(out)]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [captured.err.strip()]
    assert captured.err.startswith("input error: cannot write %s: " % out)


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


def test_self_check_reads_the_written_bytes(odd_file, monkeypatch, capsys):
    # the first coefficient written (in the first block) comes out doubled:
    # the parsed decomposition then differs from the computed one
    written = []
    ratio_text = cli.ratio_text

    def planted(n, d):
        written.append(n)
        return ratio_text(2 * n if len(written) == 1 else n, d)

    monkeypatch.setattr(cli, "ratio_text", planted)
    assert main(["reduce", odd_file, "--mode", "odd"]) == 5
    assert written
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "emitted decomposition does not re-verify" in captured.err


@pytest.mark.parametrize("coeff", ["2\n", "٣", "1/2\n", " 2", "1_000"])
def test_non_ascii_or_padded_coefficient_exit_code(q1_file, tmp_path, capsys, coeff):
    # int() and `\d` take these; the coefficient grammar does not
    obj = json.loads(open(q1_file).read())
    obj["entries"][0][0]["terms"][0]["coeff"] = coeff
    path = tmp_path / "coeff.json"
    path.write_text(json.dumps(obj))
    assert main(["invariants", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "entry (1, 1)" in captured.err


@pytest.mark.parametrize("coeff", ["1/" + "7" * 5000, "-" + "7" * 5000 + "/3"])
def test_overlong_fraction_coefficient_exit_code(q1_file, tmp_path, capsys, coeff):
    obj = json.loads(open(q1_file).read())
    obj["entries"][0][0]["terms"][0]["coeff"] = coeff
    path = tmp_path / "long.json"
    path.write_text(json.dumps(obj))
    assert main(["invariants", str(path)]) == 3
    assert "too many digits" in capsys.readouterr().err


def test_generator_count_over_the_cap_exit_code(q1_file, tmp_path, capsys):
    # an index this large would be a 12.5 MB mask; the cap rejects q before it is read
    obj = json.loads(open(q1_file).read())
    obj["entries"][0][0] = {"q": 10 ** 8, "terms": [{"idx": [10 ** 8], "coeff": "1"}]}
    path = tmp_path / "bigq.json"
    path.write_text(json.dumps(obj))
    assert main(["invariants", str(path)]) == 3
    assert "exceeds the cap" in capsys.readouterr().err


_JSON_STRINGS = ["", "x", 'a"b', "back\\slash", "café", "٣", "line\nbreak",
                 "\t\x00\x1f", " ", "\U0001f600", "/"]


def _random_tree(rng, depth):
    kind = rng.randrange(8 if depth else 5)
    if kind == 0:
        return rng.choice(_JSON_STRINGS) + str(rng.randrange(3))
    if kind == 1:
        return rng.choice([0, -1, 7, -10 ** 40, 10 ** 40 + 1, rng.randint(-999, 999)])
    if kind == 2:
        return None
    if kind == 3:
        return rng.random() < 0.5
    if kind == 4:
        return rng.choice([[], {}])
    if kind == 5:
        return [_random_tree(rng, depth - 1) for _ in range(rng.randrange(1, 4))]
    return {rng.choice(_JSON_STRINGS) + str(k): _random_tree(rng, depth - 1)
            for k in range(rng.randrange(1, 4))}


def _assert_dumps_bytes(obj):
    want = json.dumps(obj, sort_keys=True, indent=2, default=lambda x: x.to_obj())
    assert cli._json_text(obj) == want


def test_json_text_matches_json_dumps_on_random_trees():
    rng = random.Random(27)
    for _ in range(300):
        _assert_dumps_bytes(_random_tree(rng, 4))


def test_json_text_matches_json_dumps_on_library_objects():
    rng = random.Random(28)
    for seed in range(20):
        q = rng.randint(0, 5)
        x = G(q, {rng.getrandbits(q): Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                  for _ in range(rng.randint(0, 4))})
        _assert_dumps_bytes(x.to_obj())
        _assert_dumps_bytes({"scalar": x, "none": None})  # to_obj() for a library type
        shape = rng.choice([Queer(2), Standard(1, 2)])
        parity = ANY if isinstance(shape, Queer) else rng.choice([EVEN, ODD, ANY])
        _assert_dumps_bytes(random_matrix(shape, parity, 3, seed, 5, max_terms=3).to_obj())
    decompositions = [
        diagonalize(random_queer_with_spectrum(2, [-3, 4], 3, seed=101)),
        reduce_odd(random_odd_reducible(2, [5, -3], 2, seed=110)),
        antidiagonalize(random_commuting_odd_pair(2, 3, seed=111)),  # a null eigenvalue
    ]
    assert decompositions[2].to_obj()["blocks"][0]["eigenvalue"] is None
    for dec in decompositions:
        _assert_dumps_bytes(dec.to_obj())
        _assert_dumps_bytes(dec)  # walked as an object, with no to_obj() tree
        _assert_dumps_bytes({"decomposition": [dec, dec.conjugator.matrix]})
        _assert_dumps_bytes(dec.blocks[0][1])


def _edge_scalars():
    """Scalars whose written form has each shape the writer meets."""
    rng = random.Random(29)
    full = G(7, {m: Fraction(rng.choice([-1, 1]) * rng.randint(1, 10 ** 6),
                             rng.choice([1, 2, 6, 997 * 1009, 999983]))
                 for m in range(1 << 7)})
    assert len(full.num) == 128
    big = 10 ** 40
    return [
        G.zero(3),
        G.zero(0),
        G.rational(0, Fraction(-5, 3)),
        G.rational(4, 7),
        G.rational(2, Fraction(big + 1, 999983)),
        full,
        G(5, {0: -big * 3 - 1, 0b10110: Fraction(big + 7, 2 * 3 * 5 * 7 * 11 * 13),
              0b00001: Fraction(-1, 997 * 1009), 0b11111: big ** 2}),
        G(2, {0b11: Fraction(-2 * big, 3), 0b01: Fraction(1, 999983 * 1000003)}),
    ]


def test_json_text_writes_scalars_at_depth():
    for x in _edge_scalars():
        _assert_dumps_bytes(x)
        _assert_dumps_bytes([[x]])
        _assert_dumps_bytes({"a": [{"b": x, "c": [x, None]}], "d": x})


def test_json_text_writes_an_invariants_report():
    q = 3
    a = random_matrix(Queer(2), ANY, q, 5, 5, max_terms=6)
    scalars = _edge_scalars()
    report = {"shape": a.shape, "parity": a.parity, "grassmann_q": q, "qtr": a.qtr(),
              "qet": None, "tau": a.tau_values(4) + scalars}
    _assert_dumps_bytes(report)
    _assert_dumps_bytes({"matrix": a, "report": [report]})


def test_scalar_to_obj_matches_the_terms_view():
    rng = random.Random(30)
    for _ in range(200):
        q = rng.randint(0, 6)
        dens = [1, 2, 9, 35, 999983, rng.randint(1, 10 ** 6)]
        x = G(q, {rng.getrandbits(q): Fraction(rng.randint(-10 ** 12, 10 ** 12), rng.choice(dens))
                  for _ in range(rng.randint(0, 12))})
        terms = sorted(x.terms.items(), key=lambda kv: (kv[0].bit_count(), kv[0]))
        old = {"q": x.q, "terms": [{"idx": mask_to_indices(m), "coeff": str(c)} for m, c in terms]}
        assert x.to_obj() == old
