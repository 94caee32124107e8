"""kmforge benchmark: one workload per run, from the root of a checkout.

    python3 bench/run.py --workload realform-slices --seed 1 --seconds 10 --trace 0

With ``--trace 0`` the run times whole passes with tracing off and prints the
end-to-end metrics: set-up time (the median over fresh interpreters, each
timed from ``import kmforge`` to catalogs ready and scaled to a nominal host
speed, see ``yardstick.py``), pass time divided by a reference timing, and
peak RSS; with ``--trace 1`` it prints the per-layer metrics of one traced
pass, checks the traced call counts against a cProfile pass, and states the
tracing overhead.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.  A record of
the run (environment, every sample, cProfile's top rows) goes to
``bench/out/``.  One process, one thread; the program under test is imported
from ``src/``.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import platform
import pstats
import resource
import statistics
import subprocess
import sys
import tempfile
import time

from yardstick import NOMINAL_REFERENCE_S, reference_s

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
SETUP_CHILD = os.path.join(HERE, "setup_child.py")
LEVEL_ENV = "KMFORGE_LEVEL"

SETUP_SAMPLES = 9     # at least this many set-up children per run
MIN_PASSES = 2        # measured passes per run, whatever --seconds says
TOP_ROWS = 20         # cProfile rows kept per profiled pass


def _fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _git_sha():
    """HEAD of the checkout, or None where the checkout is not a git
    repository (git would otherwise answer for an enclosing one)."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def _where(path):
    """A profiled file's path, relative to the checkout or the interpreter."""
    return path.replace(sys.base_prefix, "<python>").removeprefix(ROOT + os.sep)


def _norm(pass_result):
    """A pass's wall time over the mean of its reference timings."""
    return pass_result.wall_s / statistics.mean(pass_result.reference_s)


def _p90(values):
    """90th percentile of the pooled samples, or None with fewer than 100,
    where fewer than ten samples would lie beyond it."""
    if len(values) < 100:
        return None
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


# -- set-up ------------------------------------------------------------------------


def measure_setup(workload, env, count, samples):
    """Set up kmforge in ``count`` fresh interpreters, one after another.

    Each child reports its time from ``import kmforge`` to catalogs ready and
    a reference timing taken right after; ``samples`` gets both.
    """
    for _ in range(count):
        proc = subprocess.run([sys.executable, SETUP_CHILD, *workload.algebras],
                              cwd=ROOT, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            _fail(f"set-up child failed:\n{proc.stderr}")
        setup_s, ref_s = map(float, proc.stdout.split())
        samples.append((setup_s, ref_s))


# -- passes ------------------------------------------------------------------------


def _tally(passes):
    attempted = sum(len(p.verdicts) for p in passes)
    failed = sum(p.verdicts.count(False) for p in passes)
    # a pass whose bytes changed fails all of its units
    failed += sum(p.verdicts.count(True) for p in passes if not p.digest_ok)
    return attempted, failed


def run_untraced(workload, env, commands, seconds):
    """Warm-up pass, then passes until ``seconds`` and MIN_PASSES are reached.

    Set-up children run between passes, so that set-up time and pass time
    sample the host over the same stretch of the run.
    """
    from workloads import run_pass

    setup = []
    measure_setup(workload, env, 3, setup)
    warm = run_pass(commands, workload.name, reference_s)
    measured = []
    while len(measured) < MIN_PASSES or sum(p.wall_s for p in measured) < seconds:
        measured.append(run_pass(commands, workload.name, reference_s))
        measure_setup(workload, env, 2, setup)
    measure_setup(workload, env, max(0, SETUP_SAMPLES - len(setup)), setup)
    return setup, warm, measured


def run_traced(workload, commands, key):
    """Untraced pass, traced pass, profiled pass, after a warm-up pass."""
    from tracer import Tracer, check_against_profile
    from workloads import build_catalogs, run_pass

    tracer = Tracer()
    tracer.install()
    build_catalogs(workload)  # catalog.build is a set-up cost: trace it here
    setup_counts = tracer.snapshot()
    tracer.uninstall()

    # The plain and traced passes take reference timings, so that the
    # overhead compares pass_norm values and leaves out the host's drift.
    warm = run_pass(commands, key)
    plain = run_pass(commands, key, reference_s)
    tracer.reset()
    tracer.install()
    try:
        traced = run_pass(commands, key, reference_s)
    finally:
        tracer.uninstall()
    counts = tracer.snapshot()

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        profiled = run_pass(commands, key)
    finally:
        profiler.disable()
    stats = pstats.Stats(profiler)
    mismatches = check_against_profile(tracer, counts, stats.stats)

    top = sorted(stats.stats.items(), key=lambda kv: kv[1][2], reverse=True)[:TOP_ROWS]
    rows = [{"function": f"{_where(k[0])}:{k[1]}({k[2]})",
             "ncalls": v[1], "tottime_s": v[2], "cumtime_s": v[3]} for k, v in top]
    counts["catalog.build.calls"] = setup_counts["catalog.build.calls"]
    counts["catalog.build.self_s"] = setup_counts["catalog.build.self_s"]
    overhead = _norm(traced) / _norm(plain) - 1
    return {
        "passes": [warm, plain, traced, profiled],
        "counts": counts,
        "mismatches": mismatches,
        "overhead_ratio": overhead,
        "overhead_s": overhead * plain.wall_s,
        "untraced_pass_s": plain.wall_s,
        "traced_pass_s": traced.wall_s,
        "untraced_pass_norm": _norm(plain),
        "traced_pass_norm": _norm(traced),
        "profiled_pass_s": profiled.wall_s,
        "profile_top": rows,
    }


# -- main --------------------------------------------------------------------------


def _metric_specs():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return spec["end_to_end"], spec["per_layer"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "kmforge", "__init__.py")):
        _fail(f"no kmforge sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        _fail(f"--workload must be one of {sorted(WORKLOADS)}")
    end_to_end, per_layer = _metric_specs()

    # One thread on one CPU: a process that migrates between CPUs measures
    # the migrations too.  The set-up children inherit the affinity.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    previous_level = os.environ.pop(LEVEL_ENV, None)
    env = dict(os.environ)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "loadavg_start": os.getloadavg(),
        "kmforge_level": {"cleared": True, "was": previous_level},
    }

    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="work-") as workdir:
        from workloads import build_catalogs

        import kmforge  # noqa: F401

        commands = workload.commands(args.seed, workdir)
        if args.trace == 0:
            build_catalogs(workload)
            setup, warm, measured = run_untraced(workload, env, commands, args.seconds)
            passes = [warm] + measured
            record["setup_samples_s"] = [s for s, _ in setup]
            record["setup_reference_samples_s"] = [r for _, r in setup]
        else:
            traced = run_traced(workload, commands, args.workload)
            passes = traced.pop("passes")
    record["loadavg_end"] = os.getloadavg()

    attempted, failed = _tally(passes)
    errors = [e for p in passes for e in p.errors]
    correct = failed == 0 and not errors and all(p.ok for p in passes)
    record.update(attempted=attempted, failed=failed, errors=errors[:20],
                  digests=sorted({p.digest for p in passes}))

    if args.trace == 0:
        units_ms = [u * 1000 for p in measured for u in p.unit_s]
        # Set-up time at the nominal host speed: each child's set-up over
        # its own reference timing, in seconds of a host where the
        # reference takes NOMINAL_REFERENCE_S.
        setup_raw = [s for s, _ in setup]
        values = {
            "setup_s": statistics.median(s / r for s, r in setup) * NOMINAL_REFERENCE_S,
            "pass_s": statistics.median(p.wall_s for p in measured),
            "pass_norm": statistics.median(_norm(p) for p in measured),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        specs = end_to_end
        # Raw pass time and unit percentiles are reported here, not gated:
        # between runs they spread more than the largest bound allows on a
        # shared host, and a p90 needs ten units beyond it.
        p50, p90 = statistics.median(units_ms), _p90(units_ms)
        record.update(pass_samples_s=[p.wall_s for p in measured],
                      reference_samples_s=[p.reference_s for p in measured],
                      warmup_pass_s=warm.wall_s, units_per_pass=len(measured[0].unit_s),
                      unit_samples_ms=units_ms, unit_p50_ms=p50, unit_p90_ms=p90)
        p90 = "unit_p90_ms not reported (under 100 units)" if p90 is None else f"unit_p90_ms={p90}"
        summary = (f"{args.workload} seed={args.seed}: pass_s={values['pass_s']} is the "
                   f"median of {len(measured)} passes (pass_norm: each pass over the mean "
                   f"of its {len(measured[0].reference_s)} reference timings); setup_s is the "
                   f"median of {len(setup)} fresh interpreters, each timed from import kmforge to "
                   f"catalogs ready and scaled by {NOMINAL_REFERENCE_S} s over its own reference "
                   f"timing (raw median {statistics.median(setup_raw)} s); unit_p50_ms={p50} over {len(units_ms)} units "
                   f"({len(measured[0].unit_s)} per pass); {p90}; "
                   f"failed_ratio={failed}/{attempted}")
    else:
        values = traced["counts"]
        specs = per_layer
        if traced["mismatches"]:
            _fail(f"traced counts differ from cProfile ncalls: {traced['mismatches']}")
        record.update({k: v for k, v in traced.items() if k != "counts"})
        record["layer_counts"] = values
        summary = (f"{args.workload} seed={args.seed}: one traced pass; traced counts match "
                   f"cProfile ncalls; tracing overhead {traced['overhead_ratio']:+.1%} of "
                   f"pass_norm, {traced['overhead_s']:.3f} s at the untraced pass's host "
                   f"speed (pass_norm traced {traced['traced_pass_norm']:.2f}, untraced "
                   f"{traced['untraced_pass_norm']:.2f}; raw traced {traced['traced_pass_s']:.3f} s, "
                   f"untraced {traced['untraced_pass_s']:.3f} s); every layer point, including "
                   f"those not among the per_layer metrics:\n"
                   + "\n".join(f"  {k} = {v}" for k, v in sorted(values.items())))

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}
    record["metrics"] = metrics
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    record_path = os.path.join(OUT_DIR, name)
    with open(record_path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    for error in errors[:5]:
        print(f"bench: {error}", file=sys.stderr)
    print(f"{summary}\nrecord: {os.path.relpath(record_path, ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
