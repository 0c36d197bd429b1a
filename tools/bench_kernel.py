"""Per-product times of the two Grassmann matrix kernels, and the gate's choice.

    python3 tools/bench_kernel.py [--label TEXT] [--seed K] [--budget S]

For every cell of q = 3..10 and density 0.05, 0.1, 0.15, 0.2, 0.25, 0.5
and 1, the script draws two 3 x 3 queer matrices whose entries hold each of
the 2**q monomials with that probability (int coefficients in [-99, 99]),
and times their product three ways: forced onto the pair kernel, forced
onto the table kernel, and through `SuperMatrix.__matmul__`'s gate.  The
kernels are forced by patching the gate's private table of density cuts,
`supermatrix._TABLE_DENSITY`, for the timed calls (empty for the pair
kernel, a cut of 0 at q for the table), so all three run the same product
code.  Each time is the fastest of as many repeats as fit in `--budget`
seconds (at least one).  The kernel the gate took is read from a counter on
the table kernel.

One record is appended to `BENCH_grassmann.json` at the repository root:
the git SHA and whether the tree was dirty, the `--label`, the seed, and
per cell the mean terms per entry, the three times, the table's speed-up
over the pair kernel, the faster kernel and whether the gate took it.
"""

from __future__ import annotations

import argparse
import os
import platform
import random
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from bench_pairs import append_record, git  # noqa: E402
from superinv import supermatrix  # noqa: E402
from superinv.grassmann import GrassmannScalar  # noqa: E402

QS = range(3, 11)
DENSITIES = (0.05, 0.1, 0.15, 0.2, 0.25, 0.5, 1)
N = 3


# ----------------------------------------------------------------------
# the timings


def random_matrix(rng, q, density):
    rows = [[GrassmannScalar(q, {m: rng.randint(-99, 99) or 1
                                 for m in range(1 << q) if rng.random() < density})
             for _ in range(N)] for _ in range(N)]
    return supermatrix.SuperMatrix(supermatrix.Queer(N), supermatrix.ANY, rows)


def best_time(fn, budget):
    best = None
    deadline = time.perf_counter() + budget
    while best is None or time.perf_counter() < deadline:
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def time_cell(q, density, seed, budget):
    """(mean terms per entry of the right factor, gate's kernel, pair s, table s, gated s)."""
    rng = random.Random("%d-%d-%s" % (seed, q, density))
    a, b = random_matrix(rng, q, density), random_matrix(rng, q, density)
    terms = sum(len(y.terms) for row in b.rows for y in row) / N ** 2
    gate = (supermatrix._TABLE_DENSITY, supermatrix.mul_table_into)
    table_calls = []

    def counted(*args):
        table_calls.append(1)
        return gate[1](*args)

    try:
        supermatrix.mul_table_into = counted
        want = a @ b
        kernel = "table" if table_calls else "pair"
        supermatrix.mul_table_into = gate[1]
        gated_s = best_time(lambda: a @ b, budget)
        supermatrix._TABLE_DENSITY = {}
        pair_s = best_time(lambda: a @ b, budget)
        supermatrix._TABLE_DENSITY = {q: 0}
        if a @ b != want:
            raise AssertionError("the kernels disagree at q=%d, density %s" % (q, density))
        table_s = best_time(lambda: a @ b, budget)
    finally:
        supermatrix._TABLE_DENSITY, supermatrix.mul_table_into = gate
    return terms, kernel, pair_s, table_s, gated_s


# ----------------------------------------------------------------------
# the record


def build_record(label, git_sha, dirty, seed, budget, timings):
    """One BENCH_grassmann record from per-cell timings.

    timings is a list of (q, density, terms per entry, gate's kernel, pair s,
    table s, gated s), one per cell.
    """
    cells = []
    for q, density, terms, kernel, pair_s, table_s, gated_s in timings:
        faster = "table" if table_s < pair_s else "pair"
        cells.append({
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
        "n": N,
        "seed": seed,
        "budget_s": budget,
        "gate_took_faster": sum(c["gate_took_faster"] for c in cells),
        "cells": cells,
    }


def summary(record):
    lines = ["%s: gate took the faster kernel in %d of %d cells" % (
        record["label"] or "unlabelled", record["gate_took_faster"], len(record["cells"]))]
    for c in record["cells"]:
        lines.append("  q=%-2d density %-4s terms %7.1f  pair %9.3f ms  table %9.3f ms"
                     "  %5.2fx  gate %-5s%s" % (
                         c["q"], c["density"], c["terms_per_entry"], 1e3 * c["pair_s"],
                         1e3 * c["table_s"], c["table_speedup"], c["gate"],
                         "" if c["gate_took_faster"] else "  (slower kernel)"))
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", help="name of the measured change, stored in the record")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--budget", type=float, default=0.3,
                        help="seconds of repeats per timing (at least one run)")
    args = parser.parse_args(argv)
    timings = []
    for q in QS:
        for density in DENSITIES:
            timings.append((q, density) + time_cell(q, density, args.seed, args.budget))
            print("q=%d density %s done" % (q, density), file=sys.stderr, flush=True)
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    record = build_record(args.label, git("rev-parse", "HEAD"), dirty, args.seed, args.budget,
                          timings)
    append_record(os.path.join(ROOT, "BENCH_grassmann.json"), record)
    print(summary(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
