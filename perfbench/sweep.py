"""Run the benchmark over several seeds and summarise every metric.

    python3 perfbench/sweep.py --workloads large-k,mc-small-k --seeds 1-10 [--trace 1]
    python3 perfbench/sweep.py --workloads transfer-64B --seeds 1-5 --holdout-seed 9001

Each run is a fresh ``run.py`` process, as the benchmark is meant to be run.
For every metric the table gives its unit, median, first and third quartile
and spread (interquartile distance as a share of the median), and for
end-to-end metrics the bound BENCHMARK.json fixes.  ``--holdout-seed`` runs
one more seed and reports it apart: keep it out of development and use it to
confirm a claim once.  Each seed's full result also stays in ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def summarise(results: list[dict], bounds: dict) -> None:
    ok = all(r["correct"] for r in results)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(f"  runs={len(results)} correct={ok} attempted={attempted} failed={failed}")
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = med
        spread = (q3 - q1) / abs(med) if med else 0.0
        bound = bounds.get(name)
        flag = "" if bound is None else f" bound={bound} {'ok' if spread <= bound / 3 else 'WIDE'}"
        print(f"  {name:48s} {first['unit']:6s} median={med:<12.6g} q1={q1:<12.6g} "
              f"q3={q3:<12.6g} spread={spread:.4f}{flag}")


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--holdout-seed", type=int, default=None)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]} if args.trace == 0 else {}
    for workload in args.workloads.split(","):
        results = [run_once(workload, s, args.seconds, args.trace) for s in parse_seeds(args.seeds)]
        print(f"{workload} seeds={args.seeds} trace={args.trace}")
        summarise(results, bounds)
        if args.holdout_seed is not None:
            print(f"{workload} held-out seed={args.holdout_seed}")
            summarise([run_once(workload, args.holdout_seed, args.seconds, args.trace)], bounds)
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
