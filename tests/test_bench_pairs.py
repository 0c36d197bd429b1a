"""The pair runner's record builder, on canned `perfbench/run.py` outputs.

Nothing here runs the benchmark itself.
"""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", os.path.join(ROOT, "tools", "bench_pairs.py"))
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "ops_per_s", "unit": "op/s", "better": "higher", "bound": 0.2},
    {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.2},
]


def canned_stdout(seed, ops_per_s, p50, correct=True, sha="a" * 40):
    """What run.py prints: the info line, then the result line."""
    info = {"info": {"seed": seed, "git_sha": sha, "python": "3.11.7", "nproc": 2,
                     "workload": "dense_soul", "trace": 0}}
    result = {
        "correct": correct,
        "attempted": 30,
        "failed": 0 if correct else 2,
        "metrics": {"ops_per_s": {"value": ops_per_s, "unit": "op/s"},
                    "latency_p50_ms": {"value": p50, "unit": "ms"}},
    }
    return "warm-up chatter\n%s\n%s\n" % (json.dumps(info), json.dumps(result))


def make_pairs(base_ops, change_ops, correct=True):
    pairs = []
    for i, (b, c) in enumerate(zip(base_ops, change_ops)):
        base = bench_pairs.parse_run(canned_stdout(100 + i, b, 1000.0 / b))
        change = bench_pairs.parse_run(canned_stdout(100 + i, c, 1000.0 / c, correct))
        pairs.append((100 + i, "base" if i % 2 == 0 else "change", base, change))
    return pairs


def test_parse_run_reads_the_last_two_json_lines():
    run = bench_pairs.parse_run(canned_stdout(7, 12.5, 40.0))
    assert run["seed"] == 7
    assert run["correct"] is True
    assert run["attempted"] == 30
    assert run["metrics"] == {"ops_per_s": 12.5, "latency_p50_ms": 40.0}
    with pytest.raises(ValueError):
        bench_pairs.parse_run("no json here\n")


def test_record_medians_iqrs_and_wins():
    base = [10.0, 11.0, 12.0, 13.0, 14.0]
    change = [20.0, 10.5, 21.0, 22.0, 23.0]
    record = bench_pairs.build_record("dense_soul", "b" * 40, "c" * 40, True, 15.0,
                                      make_pairs(base, change), END_TO_END)
    assert record["seeds"] == [100, 101, 102, 103, 104]
    assert record["pairs"] == 5 and record["seconds"] == 15.0
    assert record["base_sha"] == "b" * 40 and record["change_sha"] == "c" * 40
    assert record["change_dirty"] is True
    assert record["all_correct"] is True
    ops = record["metrics"]["ops_per_s"]
    assert ops["base_median"] == 12.0 and ops["base_iqr"] == 2.0
    assert ops["change_median"] == 21.0 and ops["change_iqr"] == 2.0
    assert ops["wins"] == 4
    assert ops["clear_gain"] is True
    assert ops["relative_change"] == pytest.approx(0.75)
    # lower is better for latency: the change wins the same four pairs
    p50 = record["metrics"]["latency_p50_ms"]
    assert p50["wins"] == 4 and p50["clear_gain"] is True
    # ten runs, alternating which side went first
    assert len(record["runs"]) == 10
    firsts = [(r["pair"], r["side"]) for r in record["runs"] if r["first"]]
    assert firsts == [(0, "base"), (1, "change"), (2, "base"), (3, "change"), (4, "base")]


def test_record_without_a_clear_gain():
    base = [10.0, 12.0, 14.0, 16.0]
    change = [12.5, 12.5, 12.5, 12.5]
    record = bench_pairs.build_record("dense_soul", "b" * 40, "c" * 40, False, 15.0,
                                      make_pairs(base, change), END_TO_END)
    ops = record["metrics"]["ops_per_s"]
    assert ops["wins"] == 2
    assert ops["clear_gain"] is False  # gap 0.5 against a base IQR of 3


def test_incorrect_or_missing_runs():
    pairs = make_pairs([10.0, 11.0], [12.0, 13.0], correct=False)
    broken = {"seed": 102, "correct": False, "attempted": 0, "failed": 0, "metrics": {},
              "error": "exit 2"}
    pairs.append((102, "base", pairs[0][2], broken))
    record = bench_pairs.build_record("dense_soul", "b" * 40, "c" * 40, False, 1.0, pairs,
                                      END_TO_END)
    assert record["all_correct"] is False
    # the run without metrics counts in neither median nor wins
    assert record["metrics"]["ops_per_s"]["change_median"] == 12.5
    assert record["metrics"]["ops_per_s"]["wins"] == 2


def test_single_pair_has_zero_iqr():
    record = bench_pairs.build_record("rewrite", "b" * 40, "c" * 40, False, 1.0,
                                      make_pairs([10.0], [9.0]), END_TO_END)
    ops = record["metrics"]["ops_per_s"]
    assert ops["base_iqr"] == 0 and ops["wins"] == 0 and ops["clear_gain"] is False


def test_append_record_keeps_earlier_records(tmp_path):
    path = str(tmp_path / "BENCH_dense_soul.json")
    bench_pairs.append_record(path, {"n": 1})
    bench_pairs.append_record(path, {"n": 2})
    with open(path, encoding="utf-8") as handle:
        assert json.load(handle) == [{"n": 1}, {"n": 2}]


def test_summary_names_every_metric():
    record = bench_pairs.build_record("dense_soul", "b" * 40, "c" * 40, True, 15.0,
                                      make_pairs([10.0, 11.0], [20.0, 21.0]), END_TO_END)
    text = bench_pairs.summary(record)
    assert "ops_per_s" in text and "latency_p50_ms" in text and "wins 2/2" in text


def test_label_is_stored_and_shown():
    pairs = make_pairs([10.0, 11.0], [20.0, 21.0])
    record = bench_pairs.build_record("rewrite", "b" * 40, "b" * 40, True, 15.0, pairs,
                                      END_TO_END, label="sparse-rref")
    assert record["label"] == "sparse-rref"
    # the label names the change; the SHAs and the dirty flag stay as measured
    assert record["base_sha"] == record["change_sha"] == "b" * 40
    assert record["change_dirty"] is True
    assert bench_pairs.summary(record).startswith("rewrite [sparse-rref]: 2 pairs")
    unlabelled = bench_pairs.build_record("rewrite", "b" * 40, "c" * 40, False, 15.0, pairs,
                                          END_TO_END)
    assert unlabelled["label"] is None
    assert bench_pairs.summary(unlabelled).startswith("rewrite: 2 pairs")
