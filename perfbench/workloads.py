"""Seeded inputs, operations and output checks of the benchmark workloads.

Every workload turns a seed into a JSON-serialisable input spec without
touching superinv (`spec`), builds the program's inputs from it - matrix
files for the command line, objects for the library API - with a freshly
imported superinv (`prepare`), and lists the operations of each pass (`ops`).

An operation returns its canonical output text.  Its check returns None or a
failure message; checks re-derive what the output claims from the planted
structure of the input, not from the program's own self-checks.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from fractions import Fraction
from itertools import combinations, permutations

COEFFS = (-3, -2, -1, 1, 2, 3)


class Op:
    """One operation: a label, a thunk giving its output text, a check."""

    __slots__ = ("label", "run", "check")

    def __init__(self, label, run, check):
        self.label = label
        self.run = run
        self.check = check


def cli_text(lib, argv):
    """stdout of `superinv.cli.main(argv)` run in process; a non-zero exit raises."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = lib.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    if code != 0:
        raise RuntimeError("superinv %s exited %r: %s" % (" ".join(argv), code, err.getvalue().strip()))
    return out.getvalue()


def canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------
# planted matrices: spec side (no superinv)


def _monomials(rng, q, per_degree, degrees):
    """Up to per_degree random monomials of each listed degree, as [mask, coeff]."""
    terms = {}
    for d in degrees:
        for _ in range(per_degree):
            mask = 0
            for bit in rng.sample(range(q), d):
                mask |= 1 << bit
            terms[mask] = terms.get(mask, 0) + rng.choice(COEFFS)
    return sorted([m, c] for m, c in terms.items() if c)


def _full(rng, q, parity):
    """Every soul monomial of the given parity (None: both), random coefficients."""
    return [[m, rng.choice(COEFFS)] for m in range(1, 1 << q)
            if parity is None or (bin(m).count("1") % 2 == 1) == (parity == "odd")]


def _degrees(q, parity):
    if parity == "even":
        return range(2, q + 1, 2)
    if parity == "odd":
        return range(1, q + 1, 2)
    return range(1, q + 1)


def _moves(rng, dim, q, block, dense):
    """One transvection I + x e_ij for every ordered pair i != j, in a fixed order.

    block is None for a queer matrix, or n for a (n|n) one, whose even group
    elements need x even inside the diagonal blocks and odd (bodiless) off
    them.  Positions and bodies are fixed, so the body conjugator and the
    eigenvector denominators are the same for every seed.  A dense x holds
    every monomial of degree <= 2 that its parity allows, so the masks of
    the cross terms - and the cost - do not depend on the seed either; a
    sparse x has one random monomial per degree up to 3.
    """
    out = []
    for i in range(dim):
        for j in range(dim):
            if i == j:
                continue
            parity = None if block is None else ("even" if (i < block) == (j < block) else "odd")
            body = 0 if parity == "odd" else 1
            if dense:
                soul = [[m, c] for m, c in _full(rng, q, parity) if bin(m).count("1") <= 2]
            else:
                soul = _monomials(rng, q, 1, [d for d in _degrees(q, parity) if d <= 3])
            out.append([i, j, body, soul])
    return out


def _prime_at_least(v):
    while v < 2 or any(v % d == 0 for d in range(2, int(v ** 0.5) + 1)):
        v += 1
    return v


def _soul(rng, q, per_degree, parity):
    """per_degree random monomials of every degree, or all of them when None."""
    if per_degree is None:
        return _full(rng, q, parity)
    return _monomials(rng, q, per_degree, _degrees(q, parity))


def queer_spec(rng, label, n, q, per_degree, body, mode):
    """diag(body) + soul, to be conjugated by transvections."""
    return {
        "label": label, "kind": "queer", "n": n, "q": q, "mode": mode, "body": body,
        "soul": [[_soul(rng, q, per_degree, None) for _ in range(n)] for _ in range(n)],
        "moves": _moves(rng, n, q, None, per_degree is None),
    }


def odd_spec(rng, label, n, q, body):
    """Paired canonical form (R T; 1 0) of a (n|n) odd matrix with full souls, conjugated.

    body lists the distinct nonzero body eigenvalues of the square, which
    are the bodies of the T entries.
    """
    return {
        "label": label, "kind": "odd", "n": n, "q": q, "mode": "odd", "body": body,
        "r": [_full(rng, q, "odd") for _ in range(n)],
        "t": [_full(rng, q, "even") for _ in range(n)],
        "moves": _moves(rng, 2 * n, q, n, True),
    }


# ----------------------------------------------------------------------
# planted matrices: program side


def _scalar(lib, q, body, terms):
    d = {m: c for m, c in terms}
    if body:
        d[0] = d.get(0, 0) + body
    return lib.grassmann.GrassmannScalar(q, d)


def planted_matrix(lib, spec):
    """The unconjugated matrix M of a spec."""
    sm, G = lib.supermatrix, lib.grassmann.GrassmannScalar
    q, n = spec["q"], spec["n"]
    if spec["kind"] == "queer":
        rows = [[_scalar(lib, q, spec["body"][i] if i == j else 0, spec["soul"][i][j])
                 for j in range(n)] for i in range(n)]
        return sm.SuperMatrix(sm.Queer(n), sm.ANY, rows)
    dim = 2 * n
    rows = [[G.zero(q)] * dim for _ in range(dim)]
    for i in range(n):
        rows[i][i] = _scalar(lib, q, 0, spec["r"][i])
        rows[i][n + i] = _scalar(lib, q, spec["body"][i], spec["t"][i])
        rows[n + i][i] = G.one(q)
    return sm.SuperMatrix(sm.Standard(n, n), sm.ODD, rows)


def conjugated_matrix(lib, spec, m):
    """g^-1 M g for g the product of the spec's transvections, exact inverse known."""
    sm = lib.supermatrix
    shape, q = m.shape, m.gq
    parity = sm.ANY if spec["kind"] == "queer" else sm.EVEN
    ident = sm.SuperMatrix.identity(shape, q)
    g, g_inv = ident, ident
    for i, j, body, soul in spec["moves"]:
        x = _scalar(lib, q, body, soul)
        grid = [list(row) for row in ident.rows]
        grid[i][j] = x
        inv_grid = [list(row) for row in ident.rows]
        inv_grid[i][j] = -x
        g = g @ sm.SuperMatrix(shape, parity, grid)
        g_inv = sm.SuperMatrix(shape, parity, inv_grid) @ g_inv
    return g_inv @ m @ g


def _odd_trace_terms(spec):
    """qtr of a queer spec (or str of an odd one): the summed odd diagonal terms."""
    acc = {}
    if spec["kind"] == "queer":
        diag = [spec["soul"][i][i] for i in range(spec["n"])]
    else:
        diag = spec["r"]
    for terms in diag:
        for m, c in terms:
            if bin(m).count("1") % 2:
                acc[m] = acc.get(m, 0) + c
    return {m: c for m, c in acc.items() if c}


def _scalar_terms(obj):
    out = {}
    for item in obj["terms"]:
        mask = 0
        for i in item["idx"]:
            mask |= 1 << (i - 1)
        out[mask] = Fraction(item["coeff"])
    return out


class MatrixOps:
    """The `invariants` and `reduce` operations on one planted matrix."""

    def __init__(self, lib, spec, workdir):
        self.lib = lib
        self.spec = spec
        self.planted = planted_matrix(lib, spec)
        self.matrix = conjugated_matrix(lib, spec, self.planted)
        self.path = os.path.join(workdir, spec["label"] + ".json")
        self.planted_path = os.path.join(workdir, spec["label"] + ".planted.json")
        for path, m in ((self.path, self.matrix), (self.planted_path, self.planted)):
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(m.to_obj(), handle, sort_keys=True)

    def invariants(self):
        argv = ["invariants", self.path]
        return Op("invariants:" + self.spec["label"],
                  lambda: cli_text(self.lib, argv), self.check_invariants)

    def reduce(self):
        argv = ["reduce", self.path, "--mode", self.spec["mode"]]
        return Op("reduce:" + self.spec["label"],
                  lambda: cli_text(self.lib, argv), self.check_reduce)

    def check_invariants(self, text):
        got = json.loads(text)
        key = "qtr" if self.spec["kind"] == "queer" else "str"
        if _scalar_terms(got[key]) != _odd_trace_terms(self.spec):
            return "%s differs from the planted diagonal" % key
        # every reported invariant equals its value on the unconjugated matrix
        want = json.loads(cli_text(self.lib, ["invariants", self.planted_path]))
        if got != want:
            return "invariants differ from those of the planted matrix"
        return None

    def check_reduce(self, text):
        lib = self.lib
        dec = lib.reduction.SpectralDecomposition.from_obj(json.loads(text))
        if self.matrix.conjugate(dec.conjugator) != dec.assembled():
            return "g^-1 A g differs from the assembled blocks"
        eigs = sorted(Fraction(lam) for lam, _block in dec.blocks)
        if eigs != sorted(Fraction(v) for v in self.spec["body"]):
            return "block eigenvalues differ from the planted spectrum"
        if any(len(part) != (1 if self.spec["kind"] == "queer" else 2) for part in dec.partition):
            return "blocks are not of the canonical size"
        return None


# ----------------------------------------------------------------------
# workloads


class Workload:
    """name, why, seconds per pass in reference units, passes of the traced run.

    A fixed-pool workload instantiates its POOL templates `copies` times
    with independent random content: more distinct inputs per pass average
    out the seed-to-seed differences in cost.  It repeats its first pass;
    a workload whose passes differ sets `repeats` to False.
    """

    name = ""
    why = ""
    pass_seconds = 1.0
    trace_passes = 1
    copies = 1
    repeats = True

    def spec(self, seed):
        raise NotImplementedError

    def prepare(self, lib, spec, workdir):
        raise NotImplementedError

    def ops(self, ctx, p):
        """Operations of pass p."""
        return ctx["ops"]

    def warmup(self, ctx):
        """Operations run once in set-up, to fill caches."""
        return ctx["ops"][-2:]


class VerifySuites(Workload):
    name = "verify_suites"
    why = ("every paper claim through `superinv verify <suite>`, one suite per op; "
           "matmul and rational linalg on Fractions dominate")
    pass_seconds = 0.85
    trace_passes = 2
    repeats = False
    stride = 13000  # pass p runs suite idx at seed + stride*p + 1000*idx, as `verify all` does
    # trials per suite, chosen so that most operations take tens of ms; with
    # one trial each, the op latencies split into far-apart clusters and their
    # median jumps from seed to seed
    TRIALS = {
        "cor-4.5": 1, "eq-4.1": 3, "grassmann": 100, "invariance": 2, "lemma-3.2": 30,
        "sec-5.1": 4, "sec-5.2": 10, "sec-5.3.1": 10, "thm-1.3": 2, "thm-3.2": 2,
        "thm-3.3": 3, "thm-4.5": 1, "thm-4.6": 8,
    }
    WARMUP = ("grassmann", "sec-5.2", "sec-5.3.1")

    def spec(self, seed):
        return {"seed": seed, "stride": self.stride, "trials": self.TRIALS}

    def prepare(self, lib, spec, workdir):
        suites = sorted(lib.verify.SUITES)
        if suites != sorted(spec["trials"]):
            raise RuntimeError("superinv's suites %r differ from the benchmark's" % (suites,))
        return {"lib": lib, "spec": spec, "suites": suites}

    def ops(self, ctx, p):
        lib, spec = ctx["lib"], ctx["spec"]
        base = spec["seed"] + spec["stride"] * p
        out = []
        for idx, suite in enumerate(ctx["suites"]):
            argv = ["verify", suite, "--seed", str(base + 1000 * idx),
                    "--trials", str(spec["trials"][suite])]
            out.append(Op("verify:%s:%d" % (suite, base + 1000 * idx),
                          (lambda argv=argv: cli_text(lib, argv)),
                          (lambda text, suite=suite: check_verify(text, suite))))
        return out

    def warmup(self, ctx):
        return [op for op in self.ops(ctx, 0) if op.label.split(":")[1] in self.WARMUP]


def check_verify(text, suite):
    lines = [json.loads(line) for line in text.splitlines()]
    records, summary = lines[:-1], lines[-1].get("summary")
    if not records or summary is None:
        return "no records or no summary"
    if summary["failures"] != 0 or summary["claims"] != len(records):
        return "summary reports %r" % (summary,)
    for r in records:
        if r["status"] != "pass" or r["suite"] != suite:
            return "claim %s/%s: %s" % (r["suite"], r["claim"], r["status"])
    return None


class MatrixWorkload(Workload):
    """A fixed pool of planted matrices; each gets `invariants` and `reduce`."""

    def matrix_specs(self, rng):
        raise NotImplementedError

    def spec(self, seed):
        return {"seed": seed, "matrices": self.matrix_specs(random.Random(seed))}

    def prepare(self, lib, spec, workdir):
        ops = []
        for mspec in spec["matrices"]:
            mo = MatrixOps(lib, mspec, workdir)
            if mspec["invariants"]:
                ops.append(mo.invariants())
            ops.append(mo.reduce())
        return {"ops": ops}

class DenseSoul(MatrixWorkload):
    name = "dense_soul"
    why = ("invariants and reduce on matrices whose souls hold every monomial at q=5..7, "
           "with small bodies: the Grassmann kernel and matmul do nearly all the work")
    pass_seconds = 2.7
    copies = 3
    # (kind, n, q, body eigenvalues, reduce mode).  Souls are full, so the
    # term counts do not depend on the seed; the spectra are fixed per slot
    # because they set the denominators, and with them the Fraction costs.
    POOL = (
        ("queer", 2, 6, (-1, 2), "diagonalize"),
        ("queer", 3, 5, (-2, 1, 3), "blockdiag"),
        ("odd", 2, 6, (2, -1), "odd"),
        ("odd", 3, 5, (-1, 2, 3), "odd"),
        ("odd", 1, 7, (-2,), "odd"),
    )

    def matrix_specs(self, rng):
        out = []
        for idx, (kind, n, q, body, mode) in enumerate(self.POOL * self.copies):
            label = "%s%d-q%d-%d" % (kind, n, q, idx)
            if kind == "queer":
                out.append(queer_spec(rng, label, n, q, None, list(body), mode))
            else:
                out.append(odd_spec(rng, label, n, q, list(body)))
            out[-1]["invariants"] = True
        return out


class WideBody(MatrixWorkload):
    name = "wide_body"
    why = ("reduce and invariants on sparse q=4 queer matrices with prime body eigenvalues "
           "near 1e4 (n=3) and 1e6 (n=2): rational root finding dominates, the kernel idles")
    pass_seconds = 2.3
    copies = 3
    # (n, reduce mode).  Eigenvalues are primes of fixed size, so every
    # body's determinant has the same magnitude and few divisors: the
    # trial-division root search then costs about the same for every seed.
    POOL = ((2, "diagonalize"),) * 3 + ((3, "diagonalize"),) * 3
    SIZES = {2: (950000, 1050000), 3: (9500, 10500)}

    def matrix_specs(self, rng):
        out = []
        for idx, (n, mode) in enumerate(self.POOL * self.copies):
            body = []
            while len(body) < n:
                v = _prime_at_least(rng.randint(*self.SIZES[n])) * rng.choice((-1, 1))
                if abs(v) not in [abs(b) for b in body]:
                    body.append(v)
            mspec = queer_spec(rng, "wide%d-%d" % (n, idx), n, 4, 1, body, mode)
            # `invariants` on every other matrix only: it is far cheaper than
            # `reduce`, and an even split would put the median latency
            # between the two clusters
            mspec["invariants"] = idx % 2 == 0
            out.append(mspec)
        return out


# ----------------------------------------------------------------------
# rewriting


def symmetric_poly_spec(rng, n, degree, count):
    """Random monomials [exps, odd indices, coeff] of total degree exactly `degree`."""
    monos = []
    for _ in range(count):
        odd = sorted(rng.sample(range(1, n + 1), rng.randint(0, min(n, 2))))
        exps = [0] * n
        for _unit in range(degree - len(odd)):
            exps[rng.randrange(n)] += 1
        monos.append([exps, odd, rng.choice(COEFFS)])
    return monos


def odd_moment_products_spec(rng, n, weights):
    """One product of odd moments tau_i (distinct i <= 2n, at most n factors)
    per requested weight sum(i), each with a coefficient."""
    by_weight = {}
    for size in range(1, n + 1):
        for t in combinations(range(1, 2 * n + 1), size):
            by_weight.setdefault(sum(t), []).append(list(t))
    return [[rng.choice(by_weight[w]), rng.choice(COEFFS)] for w in weights]


class Rewrite(Workload):
    name = "rewrite"
    why = ("symmetric-function rewriting, invariant normal forms and balanced corpora: "
           "sympoly arithmetic and exact elimination with no matrices")
    pass_seconds = 1.8
    copies = 3
    # (operation, n, parameter): the exact degree of the symmetrised
    # monomials, the weights of the planted odd-moment products, or the
    # number of random kernel combinations in the corpus
    POOL = (
        ("rewrite_symmetric", 3, 6),
        ("rewrite_symmetric", 3, 7),
        ("rewrite_symmetric", 4, 5),
        ("rewrite_symmetric", 4, 6),
        ("normal_form", 2, (3, 5)),
        ("normal_form", 3, (6, 9)),
        ("normal_form", 4, (8, 12)),
        ("balanced_corpus", 2, 4),
        ("balanced_corpus", 3, 2),
    )

    def spec(self, seed):
        rng = random.Random(seed)
        items = []
        for idx, (op, n, param) in enumerate(self.POOL * self.copies):
            item = {"label": "%s%d-%d" % (op, n, idx), "op": op, "n": n}
            if op == "rewrite_symmetric":
                item["monomials"] = symmetric_poly_spec(rng, n, param, 2)
            elif op == "normal_form":
                item["products"] = odd_moment_products_spec(rng, n, param)
            else:
                item["combos"] = param
                item["corpus_seed"] = rng.randrange(1 << 30)
            items.append(item)
        return {"seed": seed, "items": items}

    def prepare(self, lib, spec, workdir):
        ops = []
        for item in spec["items"]:
            if item["op"] == "rewrite_symmetric":
                ops.append(_rewrite_op(lib, item))
            elif item["op"] == "normal_form":
                ops.append(_normal_form_op(lib, item))
            else:
                ops.append(_corpus_op(lib, item))
        return {"ops": ops}

    def warmup(self, ctx):
        return [ctx["ops"][0], ctx["ops"][4], ctx["ops"][7]]


def symmetric_polynomial(lib, item):
    sp = lib.sympoly
    n = item["n"]
    acc = sp.SuperPolynomial.zero(n)
    for exps, odd, coeff in item["monomials"]:
        mask = sum(1 << (i - 1) for i in odd)
        mono = sp.SuperPolynomial(n, {(tuple(exps), mask): coeff})
        for perm in permutations(range(n)):
            acc = acc + mono.permute(list(perm))
    return acc


def _rewrite_op(lib, item):
    f = symmetric_polynomial(lib, item)

    def run():
        g = lib.sympoly.rewrite_symmetric(f)
        balanced, _witness = lib.sympoly.is_balanced(g)
        return canonical({"rewrite": g.to_obj(), "balanced": balanced})

    def check(text):
        g = lib.sympoly.TTauExpression.from_obj(json.loads(text)["rewrite"])
        if g.expand(even_basis="t") != f:
            return "rewrite does not expand back to its input"
        return None

    return Op("rewrite:" + item["label"], run, check)


def _normal_form_op(lib, item):
    sp = lib.sympoly
    n = item["n"]
    planted = {}
    for idx, coeff in item["products"]:
        mask = sum(1 << (i - 1) for i in idx)
        planted[mask] = planted.get(mask, 0) + coeff
    planted = {m: c for m, c in planted.items() if c}
    expr = sp.TTauExpression(n, 2 * n, {((0,) * (2 * n), m): c for m, c in planted.items()})
    f = expr.expand()

    def run():
        return canonical(sp.invariant_normal_form(f).to_obj())

    def check(text):
        h = sp.TTauExpression.from_obj(json.loads(text))
        if h.expand() != f:
            return "normal form does not expand back to its input"
        if {m: c for (_e, m), c in h.terms.items()} != planted:
            return "normal form coefficients differ from the planted combination"
        return None

    return Op("normal_form:" + item["label"], run, check)


def _corpus_op(lib, item):
    def run():
        corpus = lib.invariants.balanced_corpus(item["n"], item["corpus_seed"], combos=item["combos"])
        return canonical([{"expr": f.to_obj(), "balanced": f.is_balanced()[0]} for f in corpus])

    def check(text):
        entries = json.loads(text)
        if not entries or not all(e["balanced"] for e in entries):
            return "corpus holds an unbalanced expression"
        for e in entries:
            f = lib.sympoly.BalancedExpression.from_obj(e["expr"])
            if f.n != item["n"] or not f.is_balanced()[0]:
                return "corpus expression fails a fresh balance check"
        return None

    return Op("corpus:" + item["label"], run, check)


WORKLOADS = {w.name: w for w in (VerifySuites(), DenseSoul(), WideBody(), Rewrite())}
