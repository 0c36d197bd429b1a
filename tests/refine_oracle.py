"""The Fraction and `linalg.matmul` route of the nilpotent stage, kept as a test oracle.

The library solves each filtration level of `reduction._refine` in the ring
core.  This module solves it through exact coefficients instead: at each
level every ordered part pair with cross terms of that degree makes one
product of its inverse Sylvester operator with a matrix whose rows are the
pair's cells, column-stacked (j outer, i inner), and whose columns are the
pair's monomials of that degree, sorted.  The step D is rebuilt from those
coefficients through the validating scalar constructor, and h = 1 + D.
It reads every level on SuperMatrix entries, whichever kernel the library
takes, and logs each level's least cross-term degree as `filtration_log`.
"""

from superinv import linalg, reduction, supermatrix
from superinv.errors import InternalError
from superinv.grassmann import GrassmannScalar, geometric_sum
from superinv.supermatrix import GroupElement, SuperMatrix


def refine(m, parts, g, filtration_log):
    """`reduction._refine(m, parts, g, filtration_log)` through Fractions and
    `linalg.matmul`."""
    gq = m.gq
    dim = m.dim
    body = m.body_rows()
    body_blocks = [[[body[i][j] for j in part] for i in part] for part in parts]
    inverses = {}
    shape = m.shape
    ident = SuperMatrix.identity(shape, gq)
    zero = GrassmannScalar.zero(gq)
    for level in range(1, gq + 1):
        cross = reduction._cross_terms(parts, m)
        filtration_log.append(min((m.rows[i][j].min_degree() for i, j in cross), default=None))
        if not cross:
            break
        terms = {}
        for r, part_r in enumerate(parts):
            for s, part_s in enumerate(parts):
                if r == s:
                    continue
                cells = [(i, j) for j in part_s for i in part_r]
                masks = sorted({mask for i, j in cells for mask in m.rows[i][j].num
                                if mask.bit_count() == level})
                if not masks:
                    continue
                if (r, s) not in inverses:
                    inverses[r, s] = reduction._sylvester_inverse(body_blocks[r], body_blocks[s])
                rhs = [[-m.rows[i][j].coefficient(mask) for mask in masks] for i, j in cells]
                for cell, sol in zip(cells, linalg.matmul(inverses[r, s], rhs)):
                    terms[cell] = dict(zip(masks, sol))
        if not terms:
            continue
        delta = SuperMatrix(shape, shape.group_parity,
                            [[GrassmannScalar(gq, terms[i, j]) if (i, j) in terms else zero
                              for j in range(dim)] for i in range(dim)])
        h = GroupElement(ident + delta, _inverse=geometric_sum(ident, -delta, gq // level))
        m = m.conjugate(h)
        g = g @ h.matrix
    if reduction._cross_terms(parts, m):
        raise InternalError("cross terms survived the filtration")
    return m, g


def counted_walks(monkeypatch):
    """A list that grows by one on each call of `supermatrix._walk`, the table
    kernel's one caller, while monkeypatch's patches hold."""
    walks = []
    real = supermatrix._walk
    monkeypatch.setattr(supermatrix, "_walk", lambda q, lines: (walks.append(1), real(q, lines))[1])
    return walks


def expected_walk(gq, first, second):
    """The walk of first @ second, two square grids of term dicts, each
    given by its rows or by its columns, by the kernel rule restated: the
    factor with more terms, the right one on a tie, when its entries
    average `supermatrix._TABLE_DENSITY`'s cut at gq of the 2**gq
    monomials, else None, the pair kernel."""
    cut = supermatrix._TABLE_DENSITY.get(gq)
    left, right = (sum(len(t) for row in grid for t in row) for grid in (first, second))
    if cut is None or max(left, right) < cut * (len(first) ** 2 << gq):
        return None
    return "left" if left > right else "right"


def counted_products(monkeypatch):
    """A list that grows on each call of `supermatrix._grid_product`, the one
    routine of every grid product and series power, while monkeypatch's
    patches hold, by a triple: the walk `expected_walk` names for its
    factors, the walk `supermatrix._route` answered inside the call, and
    whether it called `supermatrix._walk`, the table kernel's one caller."""
    records = []
    walks = counted_walks(monkeypatch)
    routes = []
    real_route, real = supermatrix._route, supermatrix._grid_product

    def route(*args):
        routes.append(real_route(*args))
        return routes[-1]

    def spy(gq, first, second, diagonal=False):
        want = expected_walk(gq, first, second)
        before, routed = len(walks), len(routes)
        out = real(gq, first, second, diagonal)
        assert len(routes) == routed + 1
        records.append((want, routes[-1], len(walks) > before))
        return out

    monkeypatch.setattr(supermatrix, "_route", route)
    monkeypatch.setattr(supermatrix, "_grid_product", spy)
    return records


def took_the_rule(records):
    """Whether every product of `counted_products`' records was routed the
    walk the rule names and walked the table exactly when it names a factor."""
    return all(want == walk and walked == (walk is not None) for want, walk, walked in records)


def refine_matches(monkeypatch, reduce, a):
    """Run reduce(a) with `reduction._refine` recorded, check each call's
    (m, g) rows and filtration log equal to refine's, and check that each
    grid product and series power of the call takes the walk the kernel
    rule names for its two factors (`took_the_rule`).  Return, per call,
    whether any of them walked."""
    calls = []
    real = reduction._refine

    def recording(m, parts, g, filtration_log=None):
        log = []
        with monkeypatch.context() as patch:
            records = counted_products(patch)
            out = real(m, parts, g, filtration_log=log)
        if filtration_log is not None:
            filtration_log.extend(log)
        calls.append(((m, parts, g), out, log, records))
        return out

    monkeypatch.setattr(reduction, "_refine", recording)
    try:
        reduce(a)
    finally:
        monkeypatch.setattr(reduction, "_refine", real)
    for args, (m, g), log, records in calls:
        want_log = []
        want_m, want_g = refine(*args, want_log)
        assert m.rows == want_m.rows
        assert g.rows == want_g.rows
        assert log == want_log
        assert took_the_rule(records)
    return [any(walked for *_walks, walked in records) for *_call, records in calls]
