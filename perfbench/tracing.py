"""Outside-in tracing of superinv's public functions, one layer per module.

`Tracer.install` wraps the functions listed below and rebinds every name
under which a superinv module, class or module-level table (such as the
command line's mode table) holds one, so calls made between modules go
through the wrapper too.  Functions at the supermatrix level and above
leave in-memory spans (name, start, end, parent span, op label); the hot
scalar calls only feed aggregated counters, because a span per scalar
product would cost more than the product.

Self time is a call's duration minus the time of the wrapped calls it made.
"""

from __future__ import annotations

import sys
import time

# (module, attribute path, metric prefix)
SPANNED = (
    ("supermatrix", "SuperMatrix.__matmul__", "supermatrix.matmul"),
    ("supermatrix", "SuperMatrix.invert", "supermatrix.invert"),
    ("supermatrix", "SuperMatrix.conjugate", "supermatrix.conjugate"),
    ("supermatrix", "SuperMatrix.tau_values", "supermatrix.tau_values"),
    ("supermatrix", "SuperMatrix.qet", "supermatrix.qet"),
    ("linalg", "charpoly", "linalg.charpoly"),
    ("linalg", "rational_roots", "linalg.rational_roots"),
    ("linalg", "nullspace", "linalg.nullspace"),
    ("linalg", "inverse_with_rank", "linalg.inverse_with_rank"),
    ("linalg", "solve_general", "linalg.solve_general"),
    ("reduction", "rational_spectrum", "reduction.rational_spectrum"),
    ("reduction", "block_diagonalize", "reduction.block_diagonalize"),
    ("reduction", "diagonalize", "reduction.diagonalize"),
    ("reduction", "reduce_odd", "reduction.reduce_odd"),
    ("invariants", "eigendata", "invariants.eigendata"),
    ("invariants", "compute_s", "invariants.compute_s"),
    ("invariants", "evaluate_invariant", "invariants.evaluate_invariant"),
    ("invariants", "indistinguishable", "invariants.indistinguishable"),
    ("invariants", "balanced_corpus", "invariants.balanced_corpus"),
    ("sympoly", "rewrite_symmetric", "sympoly.rewrite_symmetric"),
    ("sympoly", "invariant_normal_form", "sympoly.invariant_normal_form"),
    ("sympoly", "is_balanced", "sympoly.is_balanced"),
    ("sympoly", "TTauExpression.expand", "sympoly.expand"),
    ("verify", "run_suite", "verify.run_suite"),
    ("cli", "main", "cli.main"),
)

COUNTED = (
    ("grassmann", "GrassmannScalar.__mul__", "grassmann.mul"),
    ("grassmann", "GrassmannScalar.__add__", "grassmann.add"),
    ("grassmann", "GrassmannScalar.invert", "grassmann.invert"),
    ("grassmann", "mul_terms_into", "grassmann.mul_terms_into"),
    ("sympoly", "SuperPolynomial.__mul__", "sympoly.poly_mul"),
)


def _scalar_pairs(args):
    # term pairs a scalar product visits: |x| * |y| over the operand term dicts
    other = args[1]
    terms = getattr(other, "terms", None)
    return len(args[0].terms) * len(terms) if isinstance(terms, dict) else 0


def _matmul_pairs(args):
    a, b = args[0], args[1]
    rows = getattr(b, "rows", None)
    if rows is None:
        return 0
    col_sums = [sum(len(x.terms) for x in row) for row in rows]  # per k: sum_j |b_kj|
    return sum(len(x.terms) * col_sums[k] for row in a.rows for k, x in enumerate(row))


PAIRS = {"grassmann.mul": _scalar_pairs, "supermatrix.matmul": _matmul_pairs}


class Tracer:
    """Wraps the listed functions of a freshly imported superinv."""

    def __init__(self):
        self.stats = {}  # metric prefix -> [calls, total_s, self_s, term pairs]
        self.spans = []  # (name, start, end, parent span index, op label)
        self.op_label = None  # label of the operation running now
        self._stack = []  # per active wrapped call: [child time]
        self._span_stack = []
        self._originals = {}  # id(original) -> (original, wrapper)
        self._rebound = []  # (container, key, original)

    # ------------------------------------------------------------------
    # wrappers

    def _wrapper(self, name, fn, spanned):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self._stack
        span_stack = self._span_stack
        spans = self.spans
        pairs = PAIRS.get(name)
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if pairs is not None:
                stat[3] += pairs(args)
            frame = [0.0]
            stack.append(frame)
            if spanned:
                index = len(spans)
                spans.append(None)
                span_stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if spanned:
                    span_stack.pop()
                    parent = span_stack[-1] if span_stack else None
                    spans[index] = (name, start, end, parent, tracer.op_label)

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------------
    # install / check / remove

    @staticmethod
    def _modules():
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == "superinv" or n.startswith("superinv."))]

    @staticmethod
    def _resolve(module, path):
        owner = sys.modules["superinv." + module]
        parts = path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part)
        return owner, parts[-1]

    def install(self):
        for table, spanned in ((SPANNED, True), (COUNTED, False)):
            for module, path, name in table:
                owner, attr = self._resolve(module, path)
                fn = vars(owner)[attr]
                self._originals[id(fn)] = (fn, self._wrapper(name, fn, spanned))
        for container, key, value in self._bindings():
            hit = self._originals.get(id(value))
            if hit is not None and hit[0] is value:
                self._set(container, key, hit[1])
                self._rebound.append((container, key, value))

    def _bindings(self):
        """Every (container, key, value) a superinv module holds at top level,
        in its classes, and in its module-level dicts."""
        out = []
        for mod in self._modules():
            for key, value in list(vars(mod).items()):
                out.append((mod, key, value))
                if isinstance(value, dict):
                    out.extend((value, k, v) for k, v in list(value.items()))
                elif isinstance(value, type) and value.__module__.startswith("superinv"):
                    out.extend((value, k, v) for k, v in list(vars(value).items()))
        return out

    @staticmethod
    def _set(container, key, value):
        if isinstance(container, dict):
            container[key] = value
        else:
            setattr(container, key, value)

    def unwrapped(self):
        """Names under which a wrapped function is still bound unwrapped."""
        missed = []
        for container, key, value in self._bindings():
            hit = self._originals.get(id(value))
            if hit is not None and hit[0] is value:
                where = getattr(container, "__name__", type(container).__name__)
                missed.append("%s.%s" % (where, key))
        return sorted(set(missed))

    def uninstall(self):
        for container, key, original in reversed(self._rebound):
            self._set(container, key, original)
        self._rebound = []

    # ------------------------------------------------------------------
    # results

    def metrics(self):
        out = {}
        for name, (calls, total, self_s, pairs) in self.stats.items():
            out[name + ".calls"] = calls
            out[name + ".total_s"] = total
            out[name + ".self_s"] = self_s
            if name in PAIRS:
                out[name + ".term_pairs"] = pairs
        return out

    def span_records(self):
        return [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "op": s[4]}
                for s in self.spans if s is not None]
