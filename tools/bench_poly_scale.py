"""Times of the polynomial layer at n = 5 and above, on one fixed input per n.

    python3 tools/bench_poly_scale.py [--max-n N]

For each n = 5..N (N defaults to 6), the input is one S_n orbit: the
monomial a_1 a_2^2 .. a_n^n b_1 b_2, symmetrised over all permutations of
the variables, so it has n! terms.  The script times `is_symmetric` and
`rewrite_symmetric` on it (Thm 3.2) and `is_balanced` on the rewrite, once
each, and the balanced-corpus kernels `_balance_kernels(n)` built cold,
after `cache_clear()`.  It prints one JSON line per n: n, the term counts of
the input and of its rewrite, the balance verdict and the four times in
seconds.  On a 2-core x86-64 machine under CPython 3.11 the rewrite costs
about 0.02 s at n = 5, 0.3 s at n = 6 and 5 s at n = 7, growing some
fifteenfold per step in n; the cold kernels take about 0.12 s at n = 5 and
0.5 s at n = 6.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from itertools import permutations

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from superinv.invariants import _balance_kernels  # noqa: E402
from superinv.sympoly import SuperPolynomial, is_balanced, rewrite_symmetric  # noqa: E402


def orbit_input(n):
    """The symmetrisation of a_1 a_2^2 .. a_n^n b_1 b_2, as one term dict."""
    mono = SuperPolynomial(n, {(tuple(range(1, n + 1)), 0b11): 1})
    terms = {}
    for perm in permutations(range(n)):
        for key, c in mono.permute(list(perm)).terms.items():
            terms[key] = terms.get(key, 0) + c
    return SuperPolynomial(n, terms)


def timed(fn, arg):
    start = time.perf_counter()
    out = fn(arg)
    return out, time.perf_counter() - start


def measure(n):
    f = orbit_input(n)
    _verdict, symmetric_s = timed(SuperPolynomial.is_symmetric, f)
    g, rewrite_s = timed(rewrite_symmetric, f)
    (balanced, _witness), balance_s = timed(is_balanced, g)
    _balance_kernels.cache_clear()
    _kernels, kernels_s = timed(_balance_kernels, n)
    return {"n": n, "input_terms": len(f.terms), "rewrite_terms": len(g.terms),
            "balanced": balanced, "is_symmetric_s": round(symmetric_s, 4),
            "rewrite_s": round(rewrite_s, 4), "is_balanced_s": round(balance_s, 4),
            "balance_kernels_s": round(kernels_s, 4)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--max-n", type=int, default=6, help="the largest n to time (at least 5)")
    args = parser.parse_args(argv)
    if args.max_n < 5:
        parser.error("--max-n must be at least 5")
    for n in range(5, args.max_n + 1):
        print(json.dumps(measure(n), sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
