"""Check that traced call counts repeat exactly, and state tracing overhead.

    python3 bench/repeat_check.py

For every workload it makes two traced runs with seed 1, and for the
seed-independent workloads one more with seed 2, then compares
every count the tracer keeps (``*.calls``, ``linalg.rref.max_cells`` and the
ratios).  Each traced run has already matched its counts against cProfile's
``ncalls``; this adds the repeat across processes and seeds.  The summary
goes to ``bench/out/repeat-check.json`` and standard output; the exit code is
1 when any count differs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED_INDEPENDENT = ("realform-slices", "classify-cli")
SEEDS = (1, 2)


def traced_run(workload, seed):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    path = next(line.split("record: ", 1)[1] for line in proc.stdout.splitlines()
                if line.startswith("record: "))
    with open(os.path.join(ROOT, path)) as fh:
        return json.load(fh)


def counts_of(record):
    return {k: v for k, v in record["layer_counts"].items() if not k.endswith(".self_s")}


def main():
    first, second = SEEDS

    from workloads import WORKLOADS

    summary = {}
    for workload in WORKLOADS:
        runs = [(first, traced_run(workload, first)), (first, traced_run(workload, first))]
        if workload in SEED_INDEPENDENT:
            runs.append((second, traced_run(workload, second)))
        base = counts_of(runs[0][1])
        differ = sorted({k for _, r in runs[1:] for k, v in counts_of(r).items()
                         if base.get(k) != v})
        summary[workload] = {
            "seeds": [seed for seed, _ in runs],
            "counts_compared": len(base),
            "identical": not differ,
            "differing": differ,
            "correct": [r["attempted"] > 0 and r["failed"] == 0 for _, r in runs],
            "untraced_pass_s": [r["untraced_pass_s"] for _, r in runs],
            "traced_pass_s": [r["traced_pass_s"] for _, r in runs],
            "overhead_ratio": [r["overhead_ratio"] for _, r in runs],
            "overhead_s": [r["overhead_s"] for _, r in runs],
            "git_sha": runs[0][1]["git_sha"],
        }
        print(workload, json.dumps(summary[workload]), flush=True)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "repeat-check.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    return 0 if all(s["identical"] for s in summary.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
