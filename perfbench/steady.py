"""Repeat the benchmark over seeds and summarise its spread.

    python3 perfbench/steady.py --workload sa-lp --seeds 1-10 [--traced-seed 1]

Runs perfbench/run.py once per seed, one run at a time, with the run
length from BENCHMARK.json, and prints for each end-to-end metric the
median, the quartiles (statistics.quantiles, n=4) and the spread, which
is the interquartile distance as a share of the median.  --traced-seed
adds one traced run of a seed from the list and reports its jobs_per_s
against the untraced run of the same seed: the tracing overhead.  The summary is also written to
perfbench/results/steady-<workload>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--traced-seed", type=int)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    runs = []
    for seed in _seeds(args.seeds):
        result = run_once(args.workload, seed, seconds, 0)
        runs.append({"seed": seed, **result})
        print(json.dumps(runs[-1]), flush=True)
    summary = {"workload": args.workload, "run_seconds": seconds, "runs": runs,
               "failed_share": [r["failed"] / r["attempted"] for r in runs]}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        stats = summarise([r["metrics"][name]["value"] for r in runs])
        summary[name] = stats
        print(f"{name:12s} median {stats['median']:.4g}  q1 {stats['q1']:.4g}  "
              f"q3 {stats['q3']:.4g}  spread {stats['spread']:.3f} "
              f"(bound {metric['bound']})")
    if args.traced_seed is not None:
        traced = run_once(args.workload, args.traced_seed, seconds, 1)
        rate = traced["metrics"]["traced.jobs_per_s"]["value"]
        summary["traced"] = traced
        untraced = next(r for r in runs if r["seed"] == args.traced_seed)
        summary["tracing_overhead"] = 1 - rate / untraced["metrics"]["jobs_per_s"]["value"]
        print(f"traced jobs_per_s {rate:.4g}: overhead "
              f"{summary['tracing_overhead']:+.3f} of the untraced run")
    (BENCH / "results").mkdir(exist_ok=True)
    (BENCH / "results" / f"steady-{args.workload}.json").write_text(
        json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
