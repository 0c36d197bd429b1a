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

from itertools import chain

from superinv import linalg, reduction, supermatrix
from superinv.errors import InternalError
from superinv.grassmann import GrassmannScalar, geometric_sum
from superinv.supermatrix import GroupElement, IntegerGrid, SuperMatrix, _takes_table


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


def _walk_checks(monkeypatch, records):
    """Patch `IntegerGrid`'s products and `reduction._inverse_series` so that
    each appends to records a pair: whether its walked operand (the grid's
    cells, or the series' x when it forms a power) passes `_takes_table`,
    and whether it called `supermatrix._walk`."""
    walks = counted_walks(monkeypatch)

    def checked(run, operand):
        def call(*args):
            before = len(walks)
            out = run(*args)
            records.append((operand(*args), len(walks) > before))
            return out
        return call

    def passes(rows, gq):
        return _takes_table(chain.from_iterable(rows), len(rows), gq)

    for name in ("under", "times"):
        monkeypatch.setattr(IntegerGrid, name, checked(getattr(IntegerGrid, name),
                                                       lambda grid, *_: passes(grid.cells, grid.gq)))
    monkeypatch.setattr(reduction, "_inverse_series", checked(
        reduction._inverse_series, lambda den, rows, gq, order: (
            order > 1 and any(chain.from_iterable(rows)) and passes(rows, gq))))


def refine_matches(monkeypatch, reduce, a):
    """Run reduce(a) with `reduction._refine` recorded, check each call's
    (m, g) rows and filtration log equal to refine's, and check that each
    grid product and series power of the call walks the table exactly when
    its walked operand passes `_takes_table`.  Return, per call, whether any
    of them walked."""
    calls = []
    real = reduction._refine

    def recording(m, parts, g, filtration_log=None):
        log, records = [], []
        with monkeypatch.context() as patch:
            _walk_checks(patch, records)
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
        assert all(passes == walked for passes, walked in records)
    return [any(walked for _passes, walked in records) for *_call, records in calls]
