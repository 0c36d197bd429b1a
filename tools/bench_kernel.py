"""Per-product times of the two Grassmann matrix kernels, and the gate's choice.

    python3 tools/bench_kernel.py [--label TEXT] [--seed K] [--budget S]

The cells come in two kinds of operands.  "Q(3)": for q = 3..10, two 3 x 3
queer matrices whose entries hold each of the 2**q monomials with the
cell's density.  "odd (2|2)": for q = 4..10, two odd standard (2|2)
matrices whose entries hold each monomial of their cell's parity (odd in
the diagonal blocks, even in the others) with that density, so every entry
has one parity and the table kernel walks half of each row.  The densities
are 0.05, 0.1, 0.15, 0.2, 0.25, 0.5 and 1.  "Q(3) left": for q = 5..10, a
dense 3 x 3 queer left factor (density 0.25, 0.5 or 1) times a sparse one
(density 0.05), the products the table's left walk serves.  Coefficients
are ints in [-99, 99].  Each product is timed three ways: forced onto the
pair kernel, forced onto the table kernel (its right walk, or its left walk
for "Q(3) left"), and through `SuperMatrix._product`'s gate.  The kernels
are forced by patching the gate's route function, `supermatrix._route`,
for the timed calls, to answer None (the pair kernel), "right" or "left",
so all three run the same product code.  The three run in alternating
rounds, one product each per round, for as many rounds as fit in
`--budget` seconds and at least MIN_ROUNDS, and each time is the median
of its rounds: host drift then moves all three alike, where the fastest
repeat of one variant after another let a cell's pair-kernel time move by
more than half between two runs.  The kernel the gate took is read from
the route's answer on one untimed product: either walk counts as the
table.

Before any cell, the script builds the q = 10 tables, `disjoint_table` of
both parity halves and the full one and `left_table`'s odd half and full
one (its even half is `disjoint_table`'s), and reads the process's peak RSS
(ru_maxrss) before and after, and the number of distinct pair tuples the
five tables hold.

One record is appended to `BENCH_grassmann.json` at the repository root:
the git SHA and whether the tree was dirty, the `--label`, the seed, the
budget and MIN_ROUNDS, the q = 10 table memory, and per cell the operands,
the mean terms per entry of the dense factor (the right one, the left one
for "Q(3) left"), the three median times and the round count, the table's
speed-up over the pair kernel, the faster kernel and whether the gate
took it.
"""

from __future__ import annotations

import argparse
import os
import platform
import random
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from bench_pairs import append_record, git  # noqa: E402
from superinv import supermatrix  # noqa: E402
from superinv.grassmann import GrassmannScalar, disjoint_table, left_table  # noqa: E402

QUEER = "Q(3)"
ODD = "odd (2|2)"
LEFT = "Q(3) left"
DENSITIES = (0.05, 0.1, 0.15, 0.2, 0.25, 0.5, 1)
# the q and densities of each cell set
CELLS = {QUEER: (range(3, 11), DENSITIES), ODD: (range(4, 11), DENSITIES),
         LEFT: (range(5, 11), (0.25, 0.5, 1))}
SPARSE = 0.05  # the density of the right factor of "Q(3) left"
TABLE_Q = 10
MIN_ROUNDS = 5  # alternating rounds per cell, however small the budget


# ----------------------------------------------------------------------
# the timings


def random_matrix(rng, operands, q, density):
    if operands != ODD:
        shape, parity = supermatrix.Queer(3), supermatrix.ANY
    else:
        shape, parity = supermatrix.Standard(2, 2), supermatrix.ODD

    def entry(i, j):
        # an odd matrix's diagonal blocks hold odd monomials, the others even
        want = None if operands != ODD else int((i < 2) == (j < 2))
        return GrassmannScalar(q, {m: rng.randint(-99, 99) or 1 for m in range(1 << q)
                                   if (want is None or m.bit_count() % 2 == want)
                                   and rng.random() < density})

    rows = [[entry(i, j) for j in range(shape.dim)] for i in range(shape.dim)]
    return supermatrix.SuperMatrix(shape, parity, rows)


def median_times(a, b, routes, budget):
    """The median time of a @ b under each route function of routes,
    patched in turn as `supermatrix._route` outside the timed call, over
    rounds that each time every route once, for budget seconds and at least
    MIN_ROUNDS rounds; and the round count."""
    times = [[] for _ in routes]
    deadline = time.perf_counter() + budget
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        for route, out in zip(routes, times):
            supermatrix._route = route
            start = time.perf_counter()
            a @ b
            out.append(time.perf_counter() - start)
        rounds += 1
    return [statistics.median(t) for t in times], rounds


def forced(walk):
    """A route function that names walk for every product."""
    return lambda gq, first, second: walk


def time_cell(operands, q, density, seed, budget):
    """(mean terms per entry of the dense factor, gate's kernel, pair s,
    table s, gated s, rounds)."""
    # Q(3) cells draw the seeds of the earlier records, so that they compare across records
    rng = random.Random("%d-%d-%s" % (seed, q, density) if operands == QUEER
                        else "%d-%s-%d-%s" % (seed, operands, q, density))
    right = SPARSE if operands == LEFT else density
    a, b = random_matrix(rng, operands, q, density), random_matrix(rng, operands, q, right)
    dense = a if operands == LEFT else b
    terms = sum(len(x.num) for row in dense.rows for x in row) / dense.dim ** 2
    gate = supermatrix._route
    answers = []

    def recorded(*args):
        answers.append(gate(*args))
        return answers[-1]

    table = forced("left" if operands == LEFT else "right")
    try:
        supermatrix._route = recorded
        want = a @ b
        kernel = "table" if answers[0] else "pair"
        supermatrix._route = table
        if a @ b != want:
            raise AssertionError("the kernels disagree on %s at q=%d, density %s"
                                 % (operands, q, density))
        (pair_s, table_s, gated_s), rounds = median_times(a, b, (forced(None), table, gate),
                                                          budget)
    finally:
        supermatrix._route = gate
    return terms, kernel, pair_s, table_s, gated_s, rounds


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def table_memory():
    """Peak RSS before and after building the q = TABLE_Q disjoint tables
    of both parity halves and the full one and the left tables of the odd
    half and the full one, and the distinct pair tuples they hold."""
    before = peak_rss_mb()
    tables = ([disjoint_table(TABLE_Q, parity) for parity in (0, 1, None)]
              + [left_table(TABLE_Q, parity) for parity in (1, None)])
    after = peak_rss_mb()
    pairs = {id(pair) for table in tables for row in table for side in row for pair in side}
    return {"q": TABLE_Q, "rss_mb_before": before, "rss_mb_after": after, "pairs": len(pairs)}


# ----------------------------------------------------------------------
# the record


def build_record(label, git_sha, dirty, seed, budget, tables, timings):
    """One BENCH_grassmann record from the table memory and per-cell timings.

    tables is `table_memory()`'s dict; timings is a list of (operands, q,
    density, terms per entry, gate's kernel, pair s, table s, gated s,
    rounds), one per cell.
    """
    cells = []
    for operands, q, density, terms, kernel, pair_s, table_s, gated_s, rounds in timings:
        faster = "table" if table_s < pair_s else "pair"
        cells.append({
            "operands": operands,
            "q": q,
            "density": density,
            "terms_per_entry": terms,
            "gate": kernel,
            "pair_s": pair_s,
            "table_s": table_s,
            "gated_s": gated_s,
            "rounds": rounds,
            "table_speedup": pair_s / table_s,
            "faster": faster,
            "gate_took_faster": kernel == faster,
        })
    return {
        "label": label,
        "git_sha": git_sha,
        "dirty": dirty,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "budget_s": budget,
        "min_rounds": MIN_ROUNDS,
        "timing": "median of alternating rounds",
        "tables": tables,
        "gate_took_faster": sum(c["gate_took_faster"] for c in cells),
        "cells": cells,
    }


def summary(record):
    tables = record["tables"]
    lines = ["%s: gate took the faster kernel in %d of %d cells" % (
        record["label"] or "unlabelled", record["gate_took_faster"], len(record["cells"])),
        "  q=%d tables (disjoint and left, halves and full): %d pair tuples, peak RSS %.1f -> %.1f MB" % (
            tables["q"], tables["pairs"], tables["rss_mb_before"], tables["rss_mb_after"])]
    for c in record["cells"]:
        lines.append("  %-9s q=%-2d density %-4s terms %7.1f  pair %9.3f ms  table %9.3f ms"
                     "  %5.2fx  %3d rounds  gate %-5s%s" % (
                         c["operands"], c["q"], c["density"], c["terms_per_entry"],
                         1e3 * c["pair_s"], 1e3 * c["table_s"], c["table_speedup"], c["rounds"],
                         c["gate"], "" if c["gate_took_faster"] else "  (slower kernel)"))
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", help="name of the measured change, stored in the record")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--budget", type=float, default=0.3,
                        help="seconds of alternating rounds per cell (at least %d rounds)"
                        % MIN_ROUNDS)
    args = parser.parse_args(argv)
    tables = table_memory()
    timings = []
    for operands, (qs, densities) in CELLS.items():
        for q in qs:
            for density in densities:
                timings.append((operands, q, density)
                               + time_cell(operands, q, density, args.seed, args.budget))
                print("%s q=%d density %s done" % (operands, q, density), file=sys.stderr,
                      flush=True)
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    record = build_record(args.label, git("rev-parse", "HEAD"), dirty, args.seed, args.budget,
                          tables, timings)
    append_record(os.path.join(ROOT, "BENCH_grassmann.json"), record)
    print(summary(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
