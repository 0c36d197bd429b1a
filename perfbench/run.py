"""End-to-end and per-layer benchmark of superinv.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

Run from anywhere; superinv is imported from the `src` directory next to
this one, and the run fails (exit 2) when that source is missing.  One
client runs a closed loop in this single process, with every SUPERINV_*
variable cleared.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the line before it records the run
(git SHA, Python, nproc, seed, sample count, tail percentile, raw timings).
`--all` runs every workload in fresh processes and prints every metric by
name with its unit.

--trace 0 reports the end-to-end metrics.  Set-up (fresh import of
superinv, input generation, warm-up) is repeated SETUP_ROUNDS times and its
median reported.  The timed phase then runs round(S / pass_seconds) passes
over the workload's operations, so both sides of a comparison do the same
work, and checks every output afterwards.

Inputs are made from the seed modulo GOLDEN_SEEDS, the input seeds whose
output digests golden.json records, so every run is compared with them.

Timings are in reference units.  Host load on a shared machine moves the
speed of a fixed piece of Python by more than half over tens of seconds.  So
after every operation, and after every set-up round, the benchmark times
fixed calibration loops that do not touch superinv (`calibrate`), in wall
and in CPU time.  Each wall time is scaled by CAL_REF_S over the mean of the
wall calibrations just before and after it, and each CPU time likewise by
the CPU calibrations: a reference second is what a second is on a machine
where `calibrate` takes CAL_REF_S.  That cancels the machine's drift but not
a change in superinv.  The raw values are in the info line.

--trace 1 runs the traced passes: first untraced, then with every layer's
public functions wrapped (see tracing.py).  It reports calls, self and total
time per function and the term pairs the kernel visits, plus the untraced
time and the tracing overhead in reference seconds, and writes the spans to
.perfbench_out/.  The run fails if the traced outputs differ from the
untraced ones, or if a wrapped function is still bound unwrapped somewhere
in superinv.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import tracing  # noqa: E402
from workloads import WORKLOADS, Op, canonical  # noqa: E402

LAYERS = ("grassmann", "supermatrix", "linalg", "reduction", "invariants", "sympoly",
          "verify", "cli")
SETUP_ROUNDS = 5
CAL_REF_S = 0.001
GOLDEN = os.path.join(HERE, "golden.json")
GOLDEN_SEEDS = 32

END_TO_END = (
    ("ops_per_s", "op/s"),
    ("cpu_ms_per_op", "ms"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("ok_ratio", "1"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def per_layer_metrics():
    out = []
    for _module, _path, name in tracing.SPANNED + tracing.COUNTED:
        out.append((name + ".calls", "count"))
        out.append((name + ".self_s", "s"))
        out.append((name + ".total_s", "s"))
        if name in tracing.PAIRS:
            out.append((name + ".term_pairs", "count"))
    out.append(("trace.untraced_s", "s"))
    out.append(("trace.overhead_s", "s"))
    return out


# ----------------------------------------------------------------------
# calibration

_CAL_A = {m: Fraction(m % 7 + 1, m % 5 + 1) for m in range(0, 256, 3)}
_CAL_B = {m: (m % 11) - 5 for m in range(1, 256, 5)}


def _cal_products():
    acc = {}
    for m1, c1 in _CAL_A.items():
        for m2, c2 in _CAL_B.items():
            if m1 & m2:
                continue
            m = m1 | m2
            acc[m] = acc.get(m, 0) + c1 * c2


def _cal_division():
    n = 1000003 * 999983
    d = 1
    while d < 6000:
        n % d
        d += 1


def _cal_objects():
    table = {}
    for key in [(i, j) for i in range(60) for j in range(40)]:
        table[key] = table.get(key, 0) + key[0] * key[1]
    sorted(table.items(), key=lambda kv: -kv[1])


def _cal_elimination():
    n = 7
    rows = [[Fraction(1, i + j + 1) + (i == j) for j in range(n)] + [Fraction(i + 1)]
            for i in range(n)]
    for c in range(n):
        for r in range(n):
            if r != c:
                f = rows[r][c] / rows[c][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]


def calibrate():
    """Geometric means of the wall and of the CPU seconds four fixed loops take.

    A sparse signed product on Fractions, a trial-division loop, a burst of
    small-object allocation and a Gauss-Jordan elimination on Fractions:
    host load slows these kinds of work unequally, and their mean tracks
    superinv's mix better than any one of them.  Time stolen from the
    process lengthens the wall figure only, so CPU times are scaled by the
    CPU figure.
    """
    walls, cpus = [], []
    for loop in (_cal_products, _cal_division, _cal_objects, _cal_elimination):
        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        loop()
        walls.append(time.perf_counter() - wall0)
        cpus.append(time.process_time() - cpu0)
    return statistics.geometric_mean(walls), statistics.geometric_mean(cpus)


def scales(cals, first, clock):
    """CAL_REF_S over the mean of the calibrations just before and after each
    sample, on clock 0 (wall) or 1 (CPU)."""
    after = [c[clock] for c in cals]
    before = [first[clock]] + after[:-1]
    return [2 * CAL_REF_S / (a + b) for a, b in zip(before, after)]


# ----------------------------------------------------------------------
# set-up


def import_superinv():
    """A fresh import of every superinv layer from SRC."""
    for name in [n for n in sys.modules if n == "superinv" or n.startswith("superinv.")]:
        del sys.modules[name]
    lib = types.SimpleNamespace(**{m: importlib.import_module("superinv." + m) for m in LAYERS})
    origin = os.path.abspath(lib.cli.__file__)
    if not origin.startswith(os.path.join(SRC, "superinv") + os.sep):
        raise RuntimeError("superinv was imported from %s, not from %s" % (origin, SRC))
    return lib


def inputs_digest(spec, workdir):
    h = hashlib.sha256(canonical(spec).encode())
    for name in sorted(os.listdir(workdir)):
        with open(os.path.join(workdir, name), "rb") as handle:
            h.update(name.encode() + b"\0" + handle.read())
    return h.hexdigest()


def setup_round(workload, seed, workdir):
    start = time.perf_counter()
    lib = import_superinv()
    spec = workload.spec(seed)
    ctx = workload.prepare(lib, spec, workdir)
    for op in workload.warmup(ctx):
        op.run()
    return time.perf_counter() - start, lib, ctx, inputs_digest(spec, workdir)


# ----------------------------------------------------------------------
# the timed loop


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Run:
    """Outputs and failures of a sequence of passes."""

    def __init__(self, calibrated=True):
        self.calibrated = calibrated
        self.first_cal = calibrate() if calibrated else None
        self.samples = []  # (wall s, cpu s, (wall, cpu) calibration s after the op)
        self.pass_sizes = []
        self.labels = []
        self.digests = []
        self.pass_digests = []
        self.first = {}  # label -> first output text
        self.failures = {}  # sample index -> message

    def run_pass(self, ops):
        start = len(self.labels)
        for op in ops:
            index = len(self.labels)
            cpu0 = time.process_time()
            wall0 = time.perf_counter()
            try:
                text = op.run()
            except Exception as exc:  # an operation that raises counts as failed
                text = None
                self.failures[index] = "%s raised %s: %s" % (op.label, type(exc).__name__, exc)
            wall = time.perf_counter() - wall0
            cpu = time.process_time() - cpu0
            cal = calibrate() if self.calibrated else None
            self.samples.append((wall, cpu, cal))
            self.labels.append(op.label)
            d = None if text is None else digest(text)
            self.digests.append(d)
            if text is not None:
                if op.label not in self.first:
                    self.first[op.label] = (text, op.check)
                elif self.digests[self.labels.index(op.label)] != d:
                    self.failures[index] = "%s: output differs from its first run" % op.label
        self.pass_sizes.append(len(self.labels) - start)
        joined = "\n".join(str(d) for d in self.digests[start:])
        self.pass_digests.append(hashlib.sha256(joined.encode()).hexdigest()[:16])

    def check_outputs(self, golden, repeats):
        """Check each distinct output once; compare pass digests with the golden ones.

        golden lists the recorded pass digests; every pass needs one.  When
        the workload repeats its first pass, each pass is compared with the
        first digest.  golden is None only while the digests are recorded.
        """
        bad_labels = {}
        for label, (text, check) in self.first.items():
            try:
                message = check(text)
            except Exception as exc:  # a check that cannot parse the output fails it
                message = "check raised %s: %s" % (type(exc).__name__, exc)
            if message:
                bad_labels[label] = message
        for index, label in enumerate(self.labels):
            if label in bad_labels:
                self.failures.setdefault(index, "%s: %s" % (label, bad_labels[label]))
        if golden is None:
            return
        start = 0
        for p, (d, size) in enumerate(zip(self.pass_digests, self.pass_sizes)):
            k = 0 if repeats else p
            if k >= len(golden):
                message = "pass %d has no golden digest" % p
            elif golden[k] != d:
                message = "pass %d digest differs from the golden one" % p
            else:
                message = None
            for index in range(start, start + size):
                if message:
                    self.failures.setdefault(index, "%s: %s" % (self.labels[index], message))
            start += size


def tail_percentile(n):
    """Highest integer percentile with at least 10 samples beyond it (nearest rank)."""
    for p in range(99, 0, -1):
        if n - math.ceil(p * n / 100) >= 10:
            return p
    return 50


def nearest_rank(sorted_values, p):
    return sorted_values[max(0, math.ceil(p * len(sorted_values) / 100) - 1)]


# ----------------------------------------------------------------------
# run record


def git_sha():
    """HEAD of the git checkout at ROOT; None when ROOT is not one."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, env=env, check=False)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def input_seed(seed):
    """The seed the inputs are made from: one whose digests golden.json records."""
    return seed % GOLDEN_SEEDS


def passes_for(workload, seconds):
    return max(1, round(seconds / workload.pass_seconds))


def load_golden(workload, seed):
    """The recorded pass digests of a workload at an input seed; [] if none."""
    try:
        with open(GOLDEN, encoding="utf-8") as handle:
            table = json.load(handle)
    except FileNotFoundError:
        return []
    return table.get(workload, {}).get(str(seed), [])


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# the two kinds of run


def measure(workload, seed, seconds, workdir):
    setups, setup_digests = [], set()
    for _ in range(SETUP_ROUNDS):
        before = statistics.median(calibrate()[0] for _ in range(5))
        elapsed, _lib, ctx, inputs = setup_round(workload, seed, workdir)
        after = statistics.median(calibrate()[0] for _ in range(5))
        setups.append((elapsed, elapsed * 2 * CAL_REF_S / (before + after)))
        setup_digests.add(inputs)
    passes = passes_for(workload, seconds)
    run = Run()
    for p in range(passes):
        run.run_pass(workload.ops(ctx, p))
    golden = load_golden(workload.name, seed)
    run.check_outputs(golden, workload.repeats)
    if len(setup_digests) != 1:
        run.failures[-1] = "set-up rounds generated different inputs"

    n = len(run.samples)
    cals = [s[2] for s in run.samples]
    scaled = [(s[0] * fw, s[1] * fc) for s, fw, fc in zip(
        run.samples, scales(cals, run.first_cal, 0), scales(cals, run.first_cal, 1))]
    # throughput and CPU cost per pass, median over passes
    per_pass, start = [], 0
    for size in run.pass_sizes:
        chunk = scaled[start:start + size]
        start += size
        per_pass.append((size / sum(w for w, _c in chunk), 1000.0 * sum(c for _w, c in chunk) / size))
    walls = sorted(w for w, _c in scaled)
    pct = tail_percentile(n)
    failed = len(run.failures)
    metrics = {
        "ops_per_s": statistics.median(p[0] for p in per_pass),
        "cpu_ms_per_op": statistics.median(p[1] for p in per_pass),
        "latency_p50_ms": 1000.0 * statistics.median(walls),
        "latency_tail_ms": 1000.0 * nearest_rank(walls, pct),
        "ok_ratio": (n - failed) / n,
        "setup_s": statistics.median(s[1] for s in setups),
        "peak_rss_mb": peak_rss_mb(),
    }
    raw_walls = sorted(s[0] for s in run.samples)
    info = {
        "passes": passes,
        "samples": n,
        "tail_percentile": pct,
        "golden_digests": len(golden),
        "raw": {
            "ops_per_s": n / sum(raw_walls),
            "cpu_ms_per_op": 1000.0 * sum(s[1] for s in run.samples) / n,
            "latency_p50_ms": 1000.0 * statistics.median(raw_walls),
            "latency_tail_ms": 1000.0 * nearest_rank(raw_walls, pct),
            "setup_s": statistics.median(s[0] for s in setups),
            "calibration_s": statistics.median(c[0] for c in cals),
            "calibration_cpu_s": statistics.median(c[1] for c in cals),
        },
    }
    return run, metrics, info


def scaled_wall(run):
    """Summed wall time of a run's operations, in reference seconds."""
    factor = scales([s[2] for s in run.samples], run.first_cal, 0)
    return sum(s[0] * f for s, f in zip(run.samples, factor))


def tagged(tracer, op):
    """The operation, marking the spans it causes with its label."""
    def run():
        tracer.op_label = op.label
        return op.run()
    return Op(op.label, run, op.check)


def measure_traced(workload, seed, workdir):
    _elapsed, _lib, ctx, _inputs = setup_round(workload, seed, workdir)
    plain = Run()
    for p in range(workload.trace_passes):
        plain.run_pass(workload.ops(ctx, p))

    tracer = tracing.Tracer()
    tracer.install()
    traced = Run()
    try:
        missed = tracer.unwrapped()
        for p in range(workload.trace_passes):
            traced.run_pass([tagged(tracer, op) for op in workload.ops(ctx, p)])
    finally:
        tracer.uninstall()

    golden = load_golden(workload.name, seed)
    traced.check_outputs(golden, workload.repeats)
    for index, (a, b) in enumerate(zip(plain.digests, traced.digests)):
        if a != b:
            traced.failures.setdefault(index, "%s: traced output differs" % traced.labels[index])
    if missed:
        traced.failures[-1] = "wrapped functions still bound unwrapped: " + ", ".join(missed)

    untraced_s, traced_s = scaled_wall(plain), scaled_wall(traced)
    values = tracer.metrics()
    values["trace.untraced_s"] = untraced_s
    values["trace.overhead_s"] = traced_s - untraced_s
    metrics = {name: values.get(name, 0) for name, _unit in per_layer_metrics()}

    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    span_path = os.path.join(out_dir, "spans-%s-%d.json" % (workload.name, seed))
    with open(span_path, "w", encoding="utf-8") as handle:
        json.dump(tracer.span_records(), handle, separators=(",", ":"))
    info = {
        "passes": workload.trace_passes,
        "samples": len(traced.samples),
        "spans": len(tracer.spans),
        "span_file": os.path.relpath(span_path, ROOT),
        "golden_digests": len(golden),
    }
    return traced, metrics, info


def run_one(args):
    if not os.path.isfile(os.path.join(SRC, "superinv", "__init__.py")):
        print("perfbench: no superinv source at %s" % SRC, file=sys.stderr)
        return 2
    for key in [k for k in os.environ if k.startswith("SUPERINV_")]:
        del os.environ[key]
    sys.path.insert(0, SRC)
    workload = WORKLOADS[args.workload]
    seed = input_seed(args.seed)
    scratch = os.path.join(ROOT, ".perfbench_tmp", "%s-%d" % (workload.name, os.getpid()))
    os.makedirs(scratch)
    try:
        if args.trace:
            run, metrics, info = measure_traced(workload, seed, scratch)
            units = dict(per_layer_metrics())
        else:
            run, metrics, info = measure(workload, seed, args.seconds, scratch)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    info.update({
        "workload": workload.name,
        "seed": args.seed,
        "input_seed": seed,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    })
    for message in sorted(set(run.failures.values()))[:20]:
        print("FAILED " + message, file=sys.stderr)
    print(json.dumps({"info": info}, sort_keys=True))
    attempted = len(run.samples)
    print(json.dumps({
        "correct": not run.failures,
        "attempted": attempted,
        "failed": min(len(run.failures), attempted),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def run_all(args):
    """Every workload in its own fresh process, plain and traced; a metric table."""
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print("%s trace=%d: exit %d\n%s" % (name, trace, proc.returncode, proc.stderr))
                status = 1
                continue
            result = json.loads(lines[-1])
            print("== %s (trace %d): correct=%s attempted=%d failed=%d"
                  % (name, trace, result["correct"], result["attempted"], result["failed"]))
            for metric, entry in result["metrics"].items():
                print("  %-44s %16.6g %s" % (metric, entry["value"], entry["unit"]))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload and print a table")
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload is required unless --all is given")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
