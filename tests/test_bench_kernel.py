"""The kernel benchmark's record builder, on canned timings.

Nothing here times a kernel.
"""

import importlib.util
import itertools
import os
import types

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "bench_kernel", os.path.join(ROOT, "tools", "bench_kernel.py"))
bench_kernel = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_kernel)

# (operands, q, density, terms per entry, gate's kernel, pair s, table s, gated s, rounds)
TIMINGS = [
    ("Q(3)", 3, 1, 8.0, "pair", 0.0002, 0.0003, 0.0002, 500),
    ("Q(3)", 5, 0.2, 6.1, "table", 0.0010, 0.0012, 0.0012, 110),
    ("odd (2|2)", 7, 1, 64.0, "table", 0.0340, 0.0050, 0.0051, 7),
]
TABLES = {"q": 10, "rss_mb_before": 19.5, "rss_mb_after": 22.8, "pairs": 59049}


def test_record_compares_the_kernels_per_cell():
    record = bench_kernel.build_record("table kernel", "a" * 40, True, 1, 0.3, TABLES, TIMINGS)
    assert record["label"] == "table kernel"
    assert record["git_sha"] == "a" * 40 and record["dirty"] is True
    assert record["seed"] == 1 and record["budget_s"] == 0.3
    assert record["min_rounds"] == bench_kernel.MIN_ROUNDS == 5
    assert record["timing"] == "median of alternating rounds"
    assert record["tables"] == TABLES
    cells = record["cells"]
    assert [(c["operands"], c["q"], c["density"], c["gate"]) for c in cells] == [
        ("Q(3)", 3, 1, "pair"), ("Q(3)", 5, 0.2, "table"), ("odd (2|2)", 7, 1, "table")]
    assert [c["faster"] for c in cells] == ["pair", "pair", "table"]
    assert [c["gate_took_faster"] for c in cells] == [True, False, True]
    assert record["gate_took_faster"] == 2
    assert cells[2]["table_speedup"] == pytest.approx(6.8)
    assert cells[0]["terms_per_entry"] == 8.0 and cells[1]["gated_s"] == 0.0012
    assert [c["rounds"] for c in cells] == [500, 110, 7]


def test_summary_names_every_cell_and_the_misses():
    record = bench_kernel.build_record(None, "a" * 40, False, 1, 0.3, TABLES, TIMINGS)
    text = bench_kernel.summary(record)
    assert text.startswith("unlabelled: gate took the faster kernel in 2 of 3 cells")
    assert "59049 pair tuples, peak RSS 19.5 -> 22.8 MB" in text
    assert len(text.splitlines()) == 5
    assert text.count("(slower kernel)") == 1 and "6.80x" in text
    assert "  7 rounds" in text
    assert text.count("odd (2|2)") == 1


def test_gate_choice_counts_either_walk_of_the_table(monkeypatch):
    # a dense left factor over a sparse right one takes the left walk, which
    # the cell records as the table; every patched name is restored
    sm = bench_kernel.supermatrix
    q = 5
    scalar = bench_kernel.GrassmannScalar
    full = scalar(q, {m: m + 1 for m in range(1 << q)})
    dense = sm.SuperMatrix(sm.Queer(3), sm.ANY, [[full] * 3] * 3)
    sparse = sm.SuperMatrix(sm.Queer(3), sm.ANY, [[scalar(q, {3: 2})] * 3] * 3)
    gate = sm._route
    for factors, kernel in (((dense, sparse), "table"), ((sparse, dense), "table"),
                            ((sparse, sparse), "pair")):
        draws = iter(factors)
        monkeypatch.setattr(bench_kernel, "random_matrix", lambda *args: next(draws))
        terms, got, *_times, rounds = bench_kernel.time_cell("Q(3)", q, 1, 1, 0)
        assert got == kernel and terms == len(factors[1].rows[0][0].num)
        assert rounds == bench_kernel.MIN_ROUNDS
        assert sm._route is gate


def test_left_cells_force_the_left_walk(monkeypatch):
    # a dense left factor over a sparse right one: the gate and the route
    # forced to "left" both take the left walk (the table kernel over the
    # left table of the dense entries, all of them mixed), the route forced
    # to the pair kernel never does, and the cell counts the dense
    # factor's terms
    sm = bench_kernel.supermatrix
    routes, tables, forced = [], set(), {}
    walk = sm.mul_table_into
    gate = sm._route
    make = bench_kernel.forced
    monkeypatch.setattr(bench_kernel, "forced", lambda name: forced.setdefault(name, make(name)))

    def spy(acc, t1, dense):
        # the route in place, by the walk it was forced to, else the gate's
        routes.append(next((name for name, r in forced.items() if r is sm._route), "gate"))
        tables.add(id(dense[0]))
        return walk(acc, t1, dense)

    monkeypatch.setattr(sm, "mul_table_into", spy)
    terms, kernel, *_times = bench_kernel.time_cell(bench_kernel.LEFT, 6, 0.5, 1, 0)
    assert kernel == "table" and 16 <= terms <= 48  # about half the 64 monomials
    assert set(forced) == {None, "left"} and set(routes) == {"gate", "left"}
    assert tables == {id(bench_kernel.left_table(6, None))}
    assert sm._route is gate and sm.mul_table_into is spy


def test_table_memory_reads_both_tables_of_one_set_of_pairs(monkeypatch):
    # the left tables of the odd half and the full one are built too, and
    # reuse the disjoint tables' pair tuples: 3**10 in all
    built = []
    left_table = bench_kernel.left_table
    monkeypatch.setattr(bench_kernel, "left_table",
                        lambda q, parity: built.append((q, parity)) or left_table(q, parity))
    tables = bench_kernel.table_memory()
    assert built == [(10, 1), (10, None)]
    assert tables["q"] == bench_kernel.TABLE_Q == 10
    assert tables["pairs"] == 3 ** 10
    assert tables["rss_mb_before"] <= tables["rss_mb_after"]


@pytest.mark.parametrize("budget, rounds", [(0, 5), (35, 7)])
def test_cells_alternate_the_three_gates_and_report_medians(monkeypatch, budget, rounds):
    # on a fake clock: every round times the pair kernel, the forced table
    # and the gate once, in that order, outside the patching of the route; a
    # zero budget still runs MIN_ROUNDS rounds, and each time is the median
    sm = bench_kernel.supermatrix
    now = [0]
    monkeypatch.setattr(bench_kernel, "time", types.SimpleNamespace(perf_counter=lambda: now[0]))
    pair, table, gate = bench_kernel.forced(None), bench_kernel.forced("right"), sm._route
    monkeypatch.setattr(sm, "_route", gate)  # restored after the patching below
    costs = {id(pair): itertools.chain([5, 1, 4, 2, 3], itertools.repeat(1)),
             id(table): itertools.repeat(1),
             id(gate): itertools.chain([2, 1, 3, 1, 3], itertools.repeat(1))}
    order = []

    class Operand:
        def __matmul__(self, other):
            order.append(sm._route)
            now[0] += next(costs[id(sm._route)])

    times, got = bench_kernel.median_times(Operand(), None, (pair, table, gate), budget)
    assert got == rounds
    assert order == [pair, table, gate] * rounds
    assert times == ([3, 1, 2] if rounds == 5 else [2, 1, 1])
    assert (pair(4, (), ()), table(4, (), ())) == (None, "right")
