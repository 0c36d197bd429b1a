"""Command-line front end.

Three subcommands: `invariants` reports the invariant functions of a matrix
file, `reduce` emits a canonical decomposition, and `verify` runs the seeded
property suites.  Exit codes: 0 success, 1 property failure, 2 usage; every
library error exits with the code its class in `errors` carries (3 input,
4 violated mathematical precondition, 5 failed internal self-check).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import grassmann
from .errors import InternalError, SingularBody, SuperInvError, ValidationError
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


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
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
        n = a.shape.n
        report["qtr"] = a.qtr().to_obj()
        try:
            report["qet"] = a.qet().to_obj()
        except SingularBody:
            report["qet"] = None
        report["tau"] = [v.to_obj() for v in a.tau_values(2 * n)]
    else:
        if a.parity != ANY:
            report["str"] = a.supertrace().to_obj()
        if a.shape.p == a.shape.q and a.parity == ODD:
            report["tau"] = [v.to_obj() for v in a.tau_values(2 * a.shape.p)]
    if args.format == "json":
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    else:
        lines = []
        for key in sorted(report):
            value = report[key]
            if key == "tau":
                for k, item in enumerate(value, start=1):
                    lines.append("tau[%d] = %s" % (k, _scalar_text(item)))
            elif isinstance(value, dict) and "terms" in value:
                lines.append("%s = %s" % (key, _scalar_text(value)))
            else:
                lines.append("%s = %s" % (key, json.dumps(value, sort_keys=True)))
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return EXIT_OK


def _scalar_text(obj):
    if obj is None:
        return "undefined"
    return str(grassmann.GrassmannScalar.from_obj(obj))


_MODES = {
    "blockdiag": block_diagonalize,
    "diagonalize": diagonalize,
    "odd": reduce_odd,
    "antidiag": antidiagonalize,
}


def cmd_reduce(args):
    a = _load_matrix(args.matrix)
    dec = _MODES[args.mode](a)
    obj = dec.to_obj()
    # the emitted document must re-verify after a parse round trip
    reparsed = SpectralDecomposition.from_obj(json.loads(json.dumps(obj)))
    if not reparsed.verify(a):
        raise InternalError("emitted decomposition does not re-verify")
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
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
