"""The Fraction and `linalg.matmul` route of the nilpotent stage, kept as a test oracle.

The library solves each filtration level of `reduction._refine` in the ring
core.  This module solves it through exact coefficients instead: at each
level every ordered part pair with cross terms of that degree makes one
product of its inverse Sylvester operator with a matrix whose rows are the
pair's cells, column-stacked (j outer, i inner), and whose columns are the
pair's monomials of that degree, sorted.  The step D is rebuilt from those
coefficients through the validating scalar constructor, and h = 1 + D.
It reads every level on SuperMatrix entries, whichever form the library
takes, and logs each level's least cross-term degree as `filtration_log`.
"""

from superinv import linalg, reduction
from superinv.errors import InternalError
from superinv.grassmann import GrassmannScalar, geometric_sum
from superinv.supermatrix import GroupElement, IntegerGrid, SuperMatrix


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


def refine_matches(monkeypatch, reduce, a):
    """Run reduce(a) with `reduction._refine` recorded, and return, per call,
    whether its `IntegerGrid`s took the dense cell form, once each call's
    (m, g) rows and filtration log are checked equal to refine's."""
    calls = []
    real = reduction._refine

    def recording(m, parts, g, filtration_log=None):
        log = []
        out = real(m, parts, g, filtration_log=log)
        if filtration_log is not None:
            filtration_log.extend(log)
        calls.append(((m, parts, g), out, log))
        return out

    monkeypatch.setattr(reduction, "_refine", recording)
    try:
        reduce(a)
    finally:
        monkeypatch.setattr(reduction, "_refine", real)
    for args, (m, g), log in calls:
        want_log = []
        want_m, want_g = refine(*args, want_log)
        assert m.rows == want_m.rows
        assert g.rows == want_g.rows
        assert log == want_log
    return [IntegerGrid.serves(args[0]) for args, _out, _log in calls]
