"""Command-line front end.

Three subcommands: `invariants` reports the invariant functions of a matrix
file, `reduce` emits a canonical decomposition, and `verify` runs the seeded
property suites.  Exit codes: 0 success, 1 property failure, 2 usage; every
library error exits with the code its class in `errors` carries (3 input,
4 violated mathematical precondition, 5 failed internal self-check), except
one raised inside a verify trial, which fails that claim (exit 1).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache

from . import grassmann
from .errors import InternalError, SingularBody, SuperInvError, ValidationError
from .grassmann import GrassmannScalar, mask_order, mask_to_indices, ratio_text
from .reduction import (
    SpectralDecomposition,
    antidiagonalize,
    block_diagonalize,
    diagonalize,
    reduce_odd,
)
from .supermatrix import ANY, ODD, Queer, SuperMatrix
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_FAILURE = 1

_STR_TEXT = json.encoder.encode_basestring_ascii


@cache
def _indent(depth):
    """The newline and indent that start a line at nesting depth."""
    return "\n" + "  " * depth


def _json_text(obj, depth=0):
    """`json.dumps(obj, sort_keys=True, indent=2)`, byte for byte, with library
    objects written as their `to_obj()`.

    With `indent` set, `json.dumps` runs CPython's pure-Python encoder, so
    this walk on exact types is the cheaper spelling of the same bytes.  Dict
    keys are strings.  A scalar is written straight from its integer form, an
    object with `_fields()` as that map, any other type as its `to_obj()`.
    """
    kind = type(obj)
    if kind is GrassmannScalar:
        return _scalar_text(obj, depth)
    if kind is str:
        return _STR_TEXT(obj)
    if kind is int:
        return int.__repr__(obj)
    if obj is None:
        return "null"
    if kind is bool:
        return "true" if obj else "false"
    if kind is dict:
        if not obj:
            return "{}"
        newline, inner = _indent(depth), _indent(depth + 1)
        items = [_STR_TEXT(k) + ": " + _json_text(v, depth + 1) for k, v in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if kind is list or kind is tuple:
        if not obj:
            return "[]"
        newline, inner = _indent(depth), _indent(depth + 1)
        return ("[" + inner + ("," + inner).join([_json_text(v, depth + 1) for v in obj])
                + newline + "]")
    return _json_text(obj._fields() if hasattr(obj, "_fields") else obj.to_obj(), depth)


def _scalar_text(x, depth):
    """`_json_text(x.to_obj(), depth)` for a GrassmannScalar x, with no dict per term."""
    newline, inner, term, field = (_indent(depth + k) for k in range(4))
    head = "{" + inner + '"q": ' + int.__repr__(x.q) + "," + inner + '"terms": '
    num = x.num
    if not num:
        return head + "[]" + newline + "}"
    den = x.den
    coeff = "{" + field + '"coeff": "'
    idx = '",' + field + '"idx": '
    terms = [coeff + ratio_text(num[m], den) + idx + _idx_text(m, depth + 3)
             for m in sorted(num, key=mask_order)]
    return (head + "[" + term + (term + "}," + term).join(terms) + term + "}" + inner + "]"
            + newline + "}")


@cache
def _idx_text(m, depth):
    """The text of monomial m's index list at nesting depth."""
    if not m:
        return "[]"
    inner = _indent(depth + 1)
    return "[" + inner + ("," + inner).join(map(str, mask_to_indices(m))) + _indent(depth) + "]"


def _emit(text, out_path):
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise ValidationError("cannot write %s: %s" % (out_path, exc)) from exc
    else:
        sys.stdout.write(text)


def _load_matrix(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            obj = json.load(handle)
    except OSError as exc:
        raise ValidationError("cannot read %s: %s" % (path, exc)) from exc
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, an integer literal too long to convert, or nesting
        # deeper than the decoder's recursion limit
        raise ValidationError("invalid JSON in %s: %s" % (path, exc)) from exc
    return SuperMatrix.from_obj(obj)


def cmd_invariants(args):
    a = _load_matrix(args.matrix)
    report = {"shape": a.shape.to_obj(), "parity": a.parity, "grassmann_q": a.gq}
    if isinstance(a.shape, Queer):
        taus = a.tau_values(2 * a.shape.n)
        report["qtr"] = taus[0]  # qtr is tau_1
        try:
            report["qet"] = a.qet()
        except SingularBody:
            report["qet"] = None
        report["tau"] = taus
    else:
        if a.parity != ANY:
            report["str"] = a.supertrace()
        if a.shape.p == a.shape.q and a.parity == ODD:
            report["tau"] = a.tau_values(2 * a.shape.p)
    if args.format == "json":
        text = _json_text(report) + "\n"
    else:
        lines = []
        for key in sorted(report):
            value = report[key]
            if key == "tau":
                lines.extend("tau[%d] = %s" % (k, x) for k, x in enumerate(value, start=1))
            elif isinstance(value, GrassmannScalar):
                lines.append("%s = %s" % (key, value))
            else:
                lines.append("%s = %s" % (key, json.dumps(value, sort_keys=True)))
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return EXIT_OK


_MODES = {
    "blockdiag": block_diagonalize,
    "diagonalize": diagonalize,
    "odd": reduce_odd,
    "antidiag": antidiagonalize,
}


def cmd_reduce(args):
    a = _load_matrix(args.matrix)
    dec = _MODES[args.mode](a)
    text = _json_text(dec) + "\n"
    # the emitted bytes must re-verify after a parse round trip
    if not SpectralDecomposition.from_obj(json.loads(text)).verify(a):
        raise InternalError("emitted decomposition does not re-verify")
    _emit(text, args.out)
    return EXIT_OK


def _format_records(records, fmt, seed, trials):
    failures = sum(1 for r in records if r["status"] != "pass")
    summary = {
        "summary": {
            "claims": len(records),
            "failures": failures,
            "seed": seed,
            "trials": trials,
        }
    }
    if fmt == "json":
        lines = [json.dumps(r, sort_keys=True) for r in records]
        lines.append(json.dumps(summary, sort_keys=True))
    else:
        lines = []
        for r in records:
            mark = "PASS" if r["status"] == "pass" else "FAIL"
            lines.append("%s %s/%s (trials=%d)" % (mark, r["suite"], r["claim"], r["trials"]))
            if r["counterexample"]:
                lines.append("     counterexample: %s" % json.dumps(r["counterexample"], sort_keys=True))
        lines.append("claims=%d failures=%d seed=%d trials=%d"
                     % (len(records), failures, seed, trials))
    return "\n".join(lines) + "\n", failures


def cmd_verify(args):
    records = run_suite(args.suite, args.seed, args.trials)
    text, failures = _format_records(records, args.format, args.seed, args.trials)
    _emit(text, args.out)
    return EXIT_FAILURE if failures else EXIT_OK


def _apply_env():
    raw = os.environ.get("SUPERINV_MAX_Q")
    if raw is not None:
        try:
            grassmann.set_generator_cap(int(raw))
        except ValueError as exc:
            raise ValidationError("SUPERINV_MAX_Q must be an integer") from exc


def build_parser():
    parser = argparse.ArgumentParser(
        prog="superinv",
        description="Exact invariants and canonical forms of supermatrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_inv = sub.add_parser("invariants", help="report the invariant functions of a matrix file")
    p_inv.add_argument("matrix", help="path to a matrix JSON file")
    p_inv.add_argument("--out", default=None, help="output path (default: stdout)")
    p_inv.add_argument("--format", choices=("json", "text"), default="json")
    p_inv.set_defaults(func=cmd_invariants)

    p_red = sub.add_parser("reduce", help="emit a canonical decomposition of a matrix file")
    p_red.add_argument("matrix", help="path to a matrix JSON file")
    p_red.add_argument("--mode", choices=tuple(_MODES), required=True)
    p_red.add_argument("--out", default=None)
    p_red.set_defaults(func=cmd_reduce)

    p_ver = sub.add_parser("verify", help="run a seeded property suite")
    p_ver.add_argument("suite", help="suite name or 'all'")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--trials", type=int, default=25)
    p_ver.add_argument("--out", default=None)
    p_ver.add_argument("--format", choices=("json", "text"), default="json")
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify":
        if args.suite != "all" and args.suite not in SUITES:
            parser.error("unknown suite %r (choose from %s or 'all')"
                         % (args.suite, ", ".join(sorted(SUITES))))
        if args.trials < 1:
            parser.error("--trials must be at least 1")
    cap = grassmann.generator_cap()  # SUPERINV_MAX_Q holds for this call only
    try:
        _apply_env()
        return args.func(args)
    except InternalError as exc:
        subject = args.suite if args.command == "verify" else args.matrix
        print("%s: %s (%s %s)" % (exc.label, exc, args.command, subject), file=sys.stderr)
        return exc.exit_code
    except SuperInvError as exc:
        print("%s: %s" % (exc.label, exc), file=sys.stderr)
        return exc.exit_code
    finally:
        grassmann.set_generator_cap(cap)


if __name__ == "__main__":
    sys.exit(main())
