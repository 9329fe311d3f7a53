"""liftgap benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload sa-lp --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The run imports liftgap from ./src,
builds the workload's job list from the seed (workloads.py), then runs
whole rounds of that list, one job after another in this one thread,
until --seconds have passed.  A run always ends at the end of a round:
with the 20 s of BENCHMARK.json and rounds of 31-50 s on the reference
machine (perfbench/README.md) a run is one round, and rounds repeat once
a round takes less than --seconds.  After the timed loop every output is
checked against computations made apart from the program (checks.py).

The last line of stdout is one JSON object: correct, attempted, failed
and the metrics.  With --trace 0 these are the end-to-end metrics; with
--trace 1 the liftgap functions are wrapped in spans (spans.py), the
per-layer metrics are reported instead, and the spans are written to
perfbench/results/trace-<workload>-seed<seed>.json.  The line before it
names the arithmetic backend, the Python version and the CPU count.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

# Standard modules the program imports, loaded here with their usual
# bytecode so that only liftgap itself is compiled during set-up.
import collections, dataclasses, fractions, hashlib, io, itertools  # noqa: E401,F401
import logging, math, random, typing, weakref  # noqa: E401,F401

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"


def _import_program():
    """Import liftgap from ROOT/src compiled from source: no bytecode cache
    is read or written, so set-up time does not depend on one existing."""
    src = ROOT / "src"
    if not (src / "liftgap" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no liftgap sources under {src}")
    sys.dont_write_bytecode = True
    sys.pycache_prefix = str(BENCH / "no-bytecode-cache")  # never created
    sys.path.insert(0, str(src))
    try:
        import liftgap
        import spans
        import workloads
    finally:
        sys.pycache_prefix = None
    if not Path(liftgap.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"perfbench: liftgap imported from {liftgap.__file__}, not {src}")
    return workloads, spans


def _environment() -> dict:
    """The rational type liftgap bound for its exact loops (lp and slack
    each fall back to Fraction on their own), Python and the CPU count."""
    bound = {f"{q.__module__}.{q.__name__}"
             for q in (sys.modules["liftgap.lp"]._inner_q, sys.modules["liftgap.slack"]._mpq)}
    return {
        "backend": "+".join(sorted(bound)),
        "python": platform.python_version(),
        "cpus": len(os.sched_getaffinity(0)),
    }


def _timed_loop(jobs, seconds: float, tracer):
    """Whole rounds of the job list until `seconds` have passed.  Returns
    the rounds' outputs, the completed jobs' durations, the errors and the
    loop's wall time."""
    rounds, durations, errors = [], [], []
    start = time.perf_counter()
    while True:
        outputs = {}
        for job in jobs:
            t0 = time.perf_counter()
            try:
                with tracer.job(job.name) if tracer else contextlib.nullcontext():
                    out = job.run()
            except Exception as exc:  # a job that raises is a failed job
                errors.append(f"{job.name}: {type(exc).__name__}: {exc}")
                continue
            durations.append(time.perf_counter() - t0)
            outputs[job.name] = out
        rounds.append(outputs)
        if time.perf_counter() - start >= seconds:
            return rounds, durations, errors, time.perf_counter() - start


def _check(jobs, rounds) -> list[str]:
    failures = []
    for outputs in rounds:
        for job in jobs:
            if job.name not in outputs:
                continue
            try:
                job.check(outputs[job.name])
            except Exception as exc:  # any check that does not pass fails the job
                failures.append(f"{job.name}: {type(exc).__name__}: {exc}")
    return failures


def _result(jobs, rounds, errors, failures, values, units) -> dict:
    """The run's result line.  A job fails when it raises or when one of its
    checks fails, and either makes the run incorrect."""
    return {
        "correct": not (errors or failures),
        "attempted": len(jobs) * len(rounds),
        "failed": len(errors) + len(failures),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sa-lp", "certify", "restriction"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # setup_s: importing liftgap, compiled from source, and generating the
    # workload's inputs from the seed.
    start = time.perf_counter()
    workloads, spans = _import_program()
    RESULTS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RESULTS))
    try:
        jobs = workloads.BUILDERS[args.workload](args.seed, workdir)
        setup_s = time.perf_counter() - start

        tracer = spans.Tracer() if args.trace else None
        if tracer:
            tracer.install()
        try:
            rounds, durations, errors, loop_s = _timed_loop(jobs, args.seconds, tracer)
        finally:
            if tracer:
                tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        failures = _check(jobs, rounds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in errors + failures:
        print(f"FAILED {line}", file=sys.stderr)
    jobs_per_s = len(durations) / loop_s
    if tracer:
        values = tracer.metrics(jobs_per_s)
        units = spans.per_layer_metric_units()
        trace_file = RESULTS / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "environment": _environment(),
            "span_fields": ["id", "parent", "job", "name", "start_s", "end_s"],
            "spans": [[i, p, j, name, s - start, e - start]
                      for i, p, j, name, s, e in tracer.spans],
            "metrics": values,
        }))
    else:
        values = {"setup_s": setup_s, "jobs_per_s": jobs_per_s,
                  "job_p50_s": statistics.median(durations) if durations else 0.0,
                  "peak_rss_mb": peak_rss_mb}
        units = {"setup_s": "s", "jobs_per_s": "jobs/s", "job_p50_s": "s",
                 "peak_rss_mb": "MiB"}
    print("environment " + json.dumps(_environment(), sort_keys=True))
    print(json.dumps(_result(jobs, rounds, errors, failures, values, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
