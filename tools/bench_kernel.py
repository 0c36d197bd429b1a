"""Per-product times of the two Grassmann matrix kernels, and the gate's choice.

    python3 tools/bench_kernel.py [--label TEXT] [--seed K] [--budget S]

The cells come in two kinds of operands.  "Q(3)": for q = 3..10, two 3 x 3
queer matrices whose entries hold each of the 2**q monomials with the
cell's density.  "odd (2|2)": for q = 4..10, two odd standard (2|2)
matrices whose entries hold each monomial of their cell's parity (odd in
the diagonal blocks, even in the others) with that density, so every entry
has one parity and the table kernel walks half of each row.  The densities
are 0.05, 0.1, 0.15, 0.2, 0.25, 0.5 and 1, and coefficients are ints in
[-99, 99].  Each product is timed three ways: forced onto the pair kernel,
forced onto the table kernel, and through `SuperMatrix.__matmul__`'s gate.
The kernels are forced by patching the gate's private table of density
cuts, `supermatrix._TABLE_DENSITY`, for the timed calls (empty for the pair
kernel, a cut of 0 at q for the table), so all three run the same product
code.  Each time is the fastest of as many repeats as fit in `--budget`
seconds (at least one).  The kernel the gate took is read from a counter on
both walks of the table: a product on either walk counts as the table.

Before any cell, the script builds the q = 10 tables of both parity halves
and the full one, and reads the process's peak RSS (ru_maxrss) before and
after, and the number of distinct pair tuples the three tables hold.

One record is appended to `BENCH_grassmann.json` at the repository root:
the git SHA and whether the tree was dirty, the `--label`, the seed, the
q = 10 table memory, and per cell the operands, the mean terms per entry,
the three times, the table's speed-up over the pair kernel, the faster
kernel and whether the gate took it.
"""

from __future__ import annotations

import argparse
import os
import platform
import random
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from bench_pairs import append_record, git  # noqa: E402
from superinv import supermatrix  # noqa: E402
from superinv.grassmann import GrassmannScalar, disjoint_table  # noqa: E402

QUEER = "Q(3)"
ODD = "odd (2|2)"
QS = {QUEER: range(3, 11), ODD: range(4, 11)}
DENSITIES = (0.05, 0.1, 0.15, 0.2, 0.25, 0.5, 1)
TABLE_Q = 10


# ----------------------------------------------------------------------
# the timings


def random_matrix(rng, operands, q, density):
    if operands == QUEER:
        shape, parity = supermatrix.Queer(3), supermatrix.ANY
    else:
        shape, parity = supermatrix.Standard(2, 2), supermatrix.ODD

    def entry(i, j):
        # an odd matrix's diagonal blocks hold odd monomials, the others even
        want = None if operands == QUEER else int((i < 2) == (j < 2))
        return GrassmannScalar(q, {m: rng.randint(-99, 99) or 1 for m in range(1 << q)
                                   if (want is None or m.bit_count() % 2 == want)
                                   and rng.random() < density})

    rows = [[entry(i, j) for j in range(shape.dim)] for i in range(shape.dim)]
    return supermatrix.SuperMatrix(shape, parity, rows)


def best_time(fn, budget):
    best = None
    deadline = time.perf_counter() + budget
    while best is None or time.perf_counter() < deadline:
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def time_cell(operands, q, density, seed, budget):
    """(mean terms per entry of the right factor, gate's kernel, pair s, table s, gated s)."""
    # Q(3) cells draw the seeds of the earlier records, so that they compare across records
    rng = random.Random("%d-%d-%s" % (seed, q, density) if operands == QUEER
                        else "%d-%s-%d-%s" % (seed, operands, q, density))
    a, b = random_matrix(rng, operands, q, density), random_matrix(rng, operands, q, density)
    terms = sum(len(y.num) for row in b.rows for y in row) / b.dim ** 2
    gate = (supermatrix._TABLE_DENSITY, supermatrix.mul_table_into,
            supermatrix.mul_left_table_into)
    table_calls = []

    def counted(walk):
        def wrapper(*args):
            table_calls.append(1)
            return walk(*args)
        return wrapper

    try:
        supermatrix.mul_table_into, supermatrix.mul_left_table_into = map(counted, gate[1:])
        want = a @ b
        kernel = "table" if table_calls else "pair"
        supermatrix.mul_table_into, supermatrix.mul_left_table_into = gate[1:]
        gated_s = best_time(lambda: a @ b, budget)
        supermatrix._TABLE_DENSITY = {}
        pair_s = best_time(lambda: a @ b, budget)
        supermatrix._TABLE_DENSITY = {q: 0}
        if a @ b != want:
            raise AssertionError("the kernels disagree on %s at q=%d, density %s"
                                 % (operands, q, density))
        table_s = best_time(lambda: a @ b, budget)
    finally:
        (supermatrix._TABLE_DENSITY, supermatrix.mul_table_into,
         supermatrix.mul_left_table_into) = gate
    return terms, kernel, pair_s, table_s, gated_s


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def table_memory():
    """Peak RSS before and after building the q = TABLE_Q tables of both
    parity halves and the full one, and the distinct pair tuples they hold."""
    before = peak_rss_mb()
    tables = [disjoint_table(TABLE_Q, parity) for parity in (0, 1, None)]
    after = peak_rss_mb()
    pairs = {id(pair) for table in tables for row in table for side in row for pair in side}
    return {"q": TABLE_Q, "rss_mb_before": before, "rss_mb_after": after, "pairs": len(pairs)}


# ----------------------------------------------------------------------
# the record


def build_record(label, git_sha, dirty, seed, budget, tables, timings):
    """One BENCH_grassmann record from the table memory and per-cell timings.

    tables is `table_memory()`'s dict; timings is a list of (operands, q,
    density, terms per entry, gate's kernel, pair s, table s, gated s), one
    per cell.
    """
    cells = []
    for operands, q, density, terms, kernel, pair_s, table_s, gated_s in timings:
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
        "tables": tables,
        "gate_took_faster": sum(c["gate_took_faster"] for c in cells),
        "cells": cells,
    }


def summary(record):
    tables = record["tables"]
    lines = ["%s: gate took the faster kernel in %d of %d cells" % (
        record["label"] or "unlabelled", record["gate_took_faster"], len(record["cells"])),
        "  q=%d tables (both halves and full): %d pair tuples, peak RSS %.1f -> %.1f MB" % (
            tables["q"], tables["pairs"], tables["rss_mb_before"], tables["rss_mb_after"])]
    for c in record["cells"]:
        lines.append("  %-9s q=%-2d density %-4s terms %7.1f  pair %9.3f ms  table %9.3f ms"
                     "  %5.2fx  gate %-5s%s" % (
                         c["operands"], c["q"], c["density"], c["terms_per_entry"],
                         1e3 * c["pair_s"], 1e3 * c["table_s"], c["table_speedup"], c["gate"],
                         "" if c["gate_took_faster"] else "  (slower kernel)"))
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", help="name of the measured change, stored in the record")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--budget", type=float, default=0.3,
                        help="seconds of repeats per timing (at least one run)")
    args = parser.parse_args(argv)
    tables = table_memory()
    timings = []
    for operands, qs in QS.items():
        for q in qs:
            for density in DENSITIES:
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
