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

# (q, density, terms per entry, gate's kernel, pair s, table s, gated s)
TIMINGS = [
    (3, 1, 8.0, "pair", 0.0002, 0.0003, 0.0002),
    (5, 0.2, 6.1, "table", 0.0010, 0.0012, 0.0012),
    (7, 1, 128.0, "table", 0.0340, 0.0050, 0.0051),
]


def test_record_compares_the_kernels_per_cell():
    record = bench_kernel.build_record("table kernel", "a" * 40, True, 1, 0.3, TIMINGS)
    assert record["label"] == "table kernel"
    assert record["git_sha"] == "a" * 40 and record["dirty"] is True
    assert record["n"] == 3 and record["seed"] == 1 and record["budget_s"] == 0.3
    cells = record["cells"]
    assert [(c["q"], c["density"], c["gate"]) for c in cells] == [
        (3, 1, "pair"), (5, 0.2, "table"), (7, 1, "table")]
    assert [c["faster"] for c in cells] == ["pair", "pair", "table"]
    assert [c["gate_took_faster"] for c in cells] == [True, False, True]
    assert record["gate_took_faster"] == 2
    assert cells[2]["table_speedup"] == pytest.approx(6.8)
    assert cells[0]["terms_per_entry"] == 8.0 and cells[1]["gated_s"] == 0.0012


def test_summary_names_every_cell_and_the_misses():
    record = bench_kernel.build_record(None, "a" * 40, False, 1, 0.3, TIMINGS)
    text = bench_kernel.summary(record)
    assert text.startswith("unlabelled: gate took the faster kernel in 2 of 3 cells")
    assert len(text.splitlines()) == 4
    assert text.count("(slower kernel)") == 1 and "6.80x" in text

