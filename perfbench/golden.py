"""Record the output digests that later runs are compared with.

    python3 perfbench/golden.py

For each workload and each input seed 0..GOLDEN_SEEDS-1 this runs the passes
of a run of BENCHMARK.json's run_seconds once, checks every output, and
writes the digest of each pass to golden.json; a workload that repeats its
first pass gets one digest.  Run it only on a commit whose outputs are
trusted: a later run whose pass digest differs, or that has no recorded
digest, counts every operation of that pass as failed.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
from workloads import WORKLOADS


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        run_seconds = json.load(handle)["run_seconds"]
    sys.path.insert(0, run.SRC)
    table = {}
    for workload in WORKLOADS.values():
        passes = 1 if workload.repeats else run.passes_for(workload, run_seconds)
        table[workload.name] = {}
        for seed in range(run.GOLDEN_SEEDS):
            workdir = os.path.join(run.ROOT, ".perfbench_tmp", "golden-%d" % os.getpid())
            os.makedirs(workdir)
            try:
                _elapsed, _lib, ctx, _inputs = run.setup_round(workload, seed, workdir)
                result = run.Run(calibrated=False)
                for p in range(passes):
                    result.run_pass(workload.ops(ctx, p))
                result.check_outputs(None, workload.repeats)
            finally:
                shutil.rmtree(workdir)
            if result.failures:
                print("%s seed %d failed: %s" % (workload.name, seed, sorted(result.failures.values())[0]),
                      file=sys.stderr)
                return 1
            table[workload.name][str(seed)] = result.pass_digests
            print(workload.name, seed, file=sys.stderr, flush=True)
    with open(run.GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
