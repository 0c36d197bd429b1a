"""Alternating before/after pairs of one perfbench workload, kept as JSON.

    python3 tools/bench_pairs.py --base REV --workload W --pairs N [--seconds S] [--seed K]
                                 [--label TEXT]

The "change" side is the working tree this script lives in; the "base" side
is REV's committed files, exported with `git archive` under `.perfbench_tmp/`
(a local operation) and removed again at the end.  Pair i runs
`perfbench/run.py --trace 0` on both trees at seed K + i, base first in even
pairs and change first in odd ones, so drift on the host favours neither
side.  Every run is bytecode-free: it gets `PYTHONDONTWRITEBYTECODE=1` and
a fresh, empty `PYTHONPYCACHEPREFIX` of its own, so neither side reads a
`__pycache__` left in its tree, which would time the compiler's absence
rather than the change.  One record is appended to `BENCH_<workload>.json`
at the repository root: both SHAs, the `--label` (a name for the change,
which matters when it is measured before it is committed), the seeds,
`--seconds`, every run's metrics and `correct` flag, and per end-to-end
metric (from BENCHMARK.json) the median and IQR of each side, the number
of pairs the change wins, and whether the medians differ in the better
direction by more than the base side's IQR.

The command exits 1 when any run is incorrect or fails to produce a result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TMP = os.path.join(ROOT, ".perfbench_tmp")


def benchmark_config():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def git(*args):
    proc = subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True, check=True)
    return proc.stdout.strip()


def export_tree(sha, dest):
    """Write the files committed at sha under the new directory dest."""
    archive = subprocess.run(["git", "-C", ROOT, "archive", sha], capture_output=True,
                             check=True).stdout
    os.makedirs(dest)
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


# ----------------------------------------------------------------------
# one run


def parse_run(stdout):
    """The result and the info line of one `run.py` run, from its stdout."""
    lines = [line for line in stdout.strip().splitlines() if line.startswith("{")]
    if len(lines) < 2:
        raise ValueError("run.py printed no result")
    info = json.loads(lines[-2])["info"]
    result = json.loads(lines[-1])
    return {
        "seed": info["seed"],
        "git_sha": info["git_sha"],
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: entry["value"] for name, entry in result["metrics"].items()},
        "python": info["python"],
        "nproc": info["nproc"],
    }


def run_side(tree, workload, seed, seconds):
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    # bytecode writes off, and an empty prefix as the only place it is looked up
    with tempfile.TemporaryDirectory(prefix="pycache-") as prefix:
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPYCACHEPREFIX=prefix)
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False, env=env)
    try:
        return parse_run(proc.stdout)
    except (ValueError, KeyError) as exc:
        return {"seed": seed, "correct": False, "attempted": 0, "failed": 0, "metrics": {},
                "error": "exit %d: %s %s" % (proc.returncode, exc, proc.stderr.strip()[-500:])}


# ----------------------------------------------------------------------
# the record


def quartiles(values):
    """(lower quartile, median, upper quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def build_record(workload, base_sha, change_sha, change_dirty, seconds, pairs, end_to_end,
                 label=None):
    """One BENCH record from the runs of each pair.

    pairs is a list of (seed, first side, base run, change run), each run as
    `parse_run` returns it; end_to_end is BENCHMARK.json's metric list; label
    is the `--label` text, or None.
    """
    metrics = {}
    for spec in end_to_end:
        name, higher = spec["name"], spec["better"] == "higher"
        base = [b["metrics"][name] for _s, _f, b, c in pairs if name in b["metrics"]]
        change = [c["metrics"][name] for _s, _f, b, c in pairs if name in c["metrics"]]
        if not base or not change:
            continue
        wins = sum(1 for _s, _f, b, c in pairs
                   if name in b["metrics"] and name in c["metrics"]
                   and (c["metrics"][name] > b["metrics"][name] if higher
                        else c["metrics"][name] < b["metrics"][name]))
        b1, bmed, b3 = quartiles(base)
        c1, cmed, c3 = quartiles(change)
        metrics[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "bound": spec["bound"],
            "base_median": bmed,
            "base_iqr": b3 - b1,
            "change_median": cmed,
            "change_iqr": c3 - c1,
            "relative_change": (cmed - bmed) / bmed if bmed else None,
            "wins": wins,
            # the gap between the medians, in the better direction, beyond the base IQR
            "clear_gain": (cmed - bmed if higher else bmed - cmed) > b3 - b1,
        }
    runs = []
    for i, (seed, first, base, change) in enumerate(pairs):
        for side, run in (("base", base), ("change", change)):
            entry = {"pair": i, "side": side, "first": side == first}
            entry.update(run)
            runs.append(entry)
    return {
        "workload": workload,
        "base_sha": base_sha,
        "change_sha": change_sha,
        "change_dirty": change_dirty,
        "label": label,
        "seconds": seconds,
        "seeds": [seed for seed, _f, _b, _c in pairs],
        "pairs": len(pairs),
        "all_correct": all(b["correct"] and c["correct"] for _s, _f, b, c in pairs),
        "metrics": metrics,
        "runs": runs,
    }


def append_record(path, record):
    records = []
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            records = json.load(handle)
    records.append(record)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(records, handle, indent=1, sort_keys=True)
        handle.write("\n")


def summary(record):
    label = " [%s]" % record["label"] if record["label"] else ""
    lines = ["%s%s: %d pairs, base %s, change %s%s, all correct: %s" % (
        record["workload"], label, record["pairs"], record["base_sha"][:10],
        record["change_sha"][:10], " (dirty)" if record["change_dirty"] else "",
        record["all_correct"])]
    for name, m in record["metrics"].items():
        rel = m["relative_change"]
        lines.append("  %-16s base %10.4g (IQR %.3g)  change %10.4g (IQR %.3g)  %s  wins %d/%d" % (
            name, m["base_median"], m["base_iqr"], m["change_median"], m["change_iqr"],
            "n/a" if rel is None else "%+.1f%%" % (100 * rel), m["wins"], record["pairs"]))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# the command


def main(argv=None):
    config = benchmark_config()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision of the base side")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in config["workloads"]])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=config["run_seconds"])
    parser.add_argument("--seed", type=int, default=100, help="seed of the first pair")
    parser.add_argument("--label", help="name of the measured change, stored in the record")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be positive")

    base_sha = git("rev-parse", "--verify", args.base + "^{commit}")
    change_sha = git("rev-parse", "HEAD")
    change_dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    base_tree = os.path.join(TMP, "base-%s-%d" % (base_sha[:12], os.getpid()))
    pairs = []
    try:
        export_tree(base_sha, base_tree)
        for i in range(args.pairs):
            seed = args.seed + i
            first = "base" if i % 2 == 0 else "change"
            runs = {}
            for side in (("base", "change") if first == "base" else ("change", "base")):
                tree = base_tree if side == "base" else ROOT
                runs[side] = run_side(tree, args.workload, seed, args.seconds)
                print("pair %d seed %d %-6s correct=%s ops_per_s=%s" % (
                    i, seed, side, runs[side]["correct"],
                    runs[side]["metrics"].get("ops_per_s")), file=sys.stderr, flush=True)
            pairs.append((seed, first, runs["base"], runs["change"]))
    finally:
        shutil.rmtree(base_tree, ignore_errors=True)

    record = build_record(args.workload, base_sha, change_sha, change_dirty, args.seconds,
                          pairs, config["end_to_end"], args.label)
    append_record(os.path.join(ROOT, "BENCH_%s.json" % args.workload), record)
    print(summary(record))
    return 0 if record["all_correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
