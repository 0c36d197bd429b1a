"""The kernel benchmark's record builder, on canned timings.

Nothing here times a kernel.
"""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "bench_kernel", os.path.join(ROOT, "tools", "bench_kernel.py"))
bench_kernel = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_kernel)

# (operands, q, density, terms per entry, gate's kernel, pair s, table s, gated s)
TIMINGS = [
    ("Q(3)", 3, 1, 8.0, "pair", 0.0002, 0.0003, 0.0002),
    ("Q(3)", 5, 0.2, 6.1, "table", 0.0010, 0.0012, 0.0012),
    ("odd (2|2)", 7, 1, 64.0, "table", 0.0340, 0.0050, 0.0051),
]
TABLES = {"q": 10, "rss_mb_before": 19.5, "rss_mb_after": 22.8, "pairs": 59049}


def test_record_compares_the_kernels_per_cell():
    record = bench_kernel.build_record("table kernel", "a" * 40, True, 1, 0.3, TABLES, TIMINGS)
    assert record["label"] == "table kernel"
    assert record["git_sha"] == "a" * 40 and record["dirty"] is True
    assert record["seed"] == 1 and record["budget_s"] == 0.3
    assert record["tables"] == TABLES
    cells = record["cells"]
    assert [(c["operands"], c["q"], c["density"], c["gate"]) for c in cells] == [
        ("Q(3)", 3, 1, "pair"), ("Q(3)", 5, 0.2, "table"), ("odd (2|2)", 7, 1, "table")]
    assert [c["faster"] for c in cells] == ["pair", "pair", "table"]
    assert [c["gate_took_faster"] for c in cells] == [True, False, True]
    assert record["gate_took_faster"] == 2
    assert cells[2]["table_speedup"] == pytest.approx(6.8)
    assert cells[0]["terms_per_entry"] == 8.0 and cells[1]["gated_s"] == 0.0012


def test_summary_names_every_cell_and_the_misses():
    record = bench_kernel.build_record(None, "a" * 40, False, 1, 0.3, TABLES, TIMINGS)
    text = bench_kernel.summary(record)
    assert text.startswith("unlabelled: gate took the faster kernel in 2 of 3 cells")
    assert "59049 pair tuples, peak RSS 19.5 -> 22.8 MB" in text
    assert len(text.splitlines()) == 5
    assert text.count("(slower kernel)") == 1 and "6.80x" in text
    assert text.count("odd (2|2)") == 1
