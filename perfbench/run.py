"""Benchmark entry point.

    python3 perfbench/run.py --workload large-k --seed 1 --seconds 10 --trace 0

Makes the workload's inputs from ``--seed``, runs passes over its calls until
``--seconds`` have elapsed (at least one), checks every output, and prints as
the last line of standard output one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

With ``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json,
with ``--trace 1`` its per-layer metrics: one untraced pass, then one pass
with span wrappers installed (see tracing.py).  A readable table goes to
standard error, and a record with the seed, core count, Python and numpy
versions and git commit is written to ``perfbench/out/``.
``--list`` prints every metric by name with its unit and direction.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time

import tracing
import workloads as wl
from workloads import mean, median

BENCHMARK_JSON = os.path.join(wl.ROOT, "BENCHMARK.json")
OUT_DIR = os.path.join(wl.BENCH_DIR, "out")
#: fresh-interpreter set-ups per run, besides the run's own
SETUP_PROBES = 8
#: every session-loop call runs at least this often, for a median time
MIN_PASSES = 2
#: indexes into Pass.work
SYMBOLS, SESSIONS, BYTES = range(3)


def load_spec() -> dict:
    with open(BENCHMARK_JSON) as fh:
        return json.load(fh)


def load_catalogue() -> dict:
    """Metric name -> unit, for ``--trace 0`` and ``--trace 1``."""
    spec = load_spec()
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` directly (no git process)."""
    git = os.path.join(wl.ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup_samples(w: wl.Workload, seed: int, clock: wl.Clock) -> tuple[wl.Context, list[float]]:
    """Set-up in this process, then in fresh interpreters (import is once per process).

    A probe times its own set-up, so interpreter start is left out; the
    calibration loop runs around it here.
    """
    ctx, first, _ = clock.time(lambda: wl.setup(w, seed))
    samples = [first]
    argv = [sys.executable, os.path.abspath(__file__), "--setup-probe",
            "--workload", w.name, "--seed", str(seed)]
    for _ in range(SETUP_PROBES):
        proc, scaled, raw = clock.time(lambda: subprocess.run(
            argv, cwd=wl.ROOT, capture_output=True, text=True, timeout=120, check=True))
        samples.append(float(proc.stdout.split()[-1]) * scaled / raw)
    return ctx, samples


def rate(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def info_metrics(w: wl.Workload, passes: list[wl.Pass]) -> dict[str, float]:
    """Workload-specific figures; zero where the workload has no such calls."""
    return {
        "mc_trials_per_s": wl.median_rate(passes, SESSIONS) if w.kind == "mc" else 0.0,
        "transfer_MBps": wl.median_rate(passes, BYTES) / 1e6,
        "curve_rel_err": mean(passes[0].curve_err),
    }


def per_layer(w, base, jobs2, traced, tracer: tracing.Tracer) -> dict[str, float]:
    stats, counters = tracer.stats, tracer.counters
    out = {}
    for name in tracing.SPAN_NAMES + ("bench.predict_process",):
        calls, self_s, _ = stats.get(name, (0, 0.0, 0.0))
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s

    def calls(name):
        return stats.get(name, (0,))[0]

    useful = counters["case.CASE1"] + counters["case.CASE2"]
    outer_s = sum(end - start for _, start, end in tracer.outer)
    out.update({
        "schemes.Encoder.mean_degree": rate(counters["emitted_degree_sum"], calls("schemes.Encoder.next_symbol")),
        "graph.useful_ratio": rate(useful, calls("graph.DecodeGraph.classify")),
        "graph.xor_bytes.bytes": counters["xor_bytes"],
        "wire.framing_ratio": rate(counters["data_frame_bytes"], counters["data_payload_bytes"]),
        "sim.parallel_efficiency": rate(sum(base.call_s.values()), 2 * sum(jobs2.call_s.values()))
        if w.kind == "mc" else 0.0,
        "trace.overhead": rate(traced.wall_s, base.wall_s) - 1.0,
        "trace.wall_s": traced.wall_s,
        "trace.driver_s": traced.wall_s - outer_s,
    })
    out.update(info_metrics(w, [jobs2]))
    return out


def run(w: wl.Workload, seed: int, seconds: float, trace: bool, workdir: str) -> dict:
    record = {}
    if not trace:
        ctx, setup = setup_samples(w, seed, wl.Clock(sorted(os.sched_getaffinity(0))[:1]))
        runner = wl.Runner(ctx, workdir)
        passes = []
        start = time.perf_counter()
        while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
            passes.append(runner.run_pass(wl.Pass(jobs=w.jobs)))
        metrics = {
            "setup_s": median(setup),
            "sim_symbols_per_s": wl.median_rate(passes, SYMBOLS),
            # at one k the schemes' predicts do nearly the same work (the
            # completion-probability table), so all are repetitions of one call
            "predict_s": median([t for p in passes for t in p.predict_s.values()]),
            "overhead": mean(passes[0].overhead),
            "feedback_msgs": mean(passes[0].feedback),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        record["setup_samples_s"] = setup
        info = info_metrics(w, passes)
    else:
        # untraced, then the same calls traced; traced Monte Carlo runs
        # in-process (jobs=1), so jobs=1 is also timed untraced
        runner = wl.Runner(wl.setup(w, seed), workdir, calibrate=False)
        jobs2 = runner.run_pass(wl.Pass(jobs=w.jobs))
        base = runner.run_pass(wl.Pass(jobs=1)) if w.jobs > 1 else jobs2
        tracer = tracing.Tracer()
        before = tracing.snapshot()
        patches = tracing.install(tracer)
        try:
            traced = runner.run_pass(wl.Pass(jobs=1), tracer)
        finally:
            tracing.uninstall(patches)
        if tracing.snapshot() != before:
            traced.attempted += 1
            traced.failed += 1
            print(f"FAILED {w.name}: wrappers not restored", file=sys.stderr)
        metrics = per_layer(w, base, jobs2, traced, tracer)
        info = info_metrics(w, [jobs2])
        passes = [jobs2, traced] if base is jobs2 else [jobs2, base, traced]
        record["outer_spans"] = [list(s) for s in tracer.outer]
        record["span_stats"] = tracer.stats
        record["counters"] = dict(tracer.counters)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    info["error_rate"] = rate(failed, attempted)
    record["passes"] = [vars(p) for p in passes]
    record["info"] = info
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "record": record}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fountain-lab benchmark")
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list", action="store_true", help="print every metric with its unit")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.list:
        spec = load_spec()
        for section in ("end_to_end", "per_layer"):
            for m in spec[section]:
                print(f"{section:10s} {m['name']:48s} {m['unit']:6s} {m.get('better', '')}")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    w = wl.WORKLOADS[args.workload]
    if args.setup_probe:
        start = time.perf_counter()
        wl.setup(w, args.seed)
        print(repr(time.perf_counter() - start))
        return 0

    catalogue = load_catalogue()[args.trace]
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=OUT_DIR, prefix="work-")
    try:
        result = run(w, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = result["metrics"]
    if set(metrics) != set(catalogue):
        raise SystemExit(f"metrics and BENCHMARK.json disagree: {sorted(set(metrics) ^ set(catalogue))}")
    failed = result["failed"]
    for name, value in metrics.items():
        if not math.isfinite(value):
            print(f"FAILED {w.name}: metric {name} is {value}", file=sys.stderr)
            metrics[name] = 0.0
            failed += 1
    line = {
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": catalogue[name]} for name in catalogue},
    }
    import numpy

    record = dict(result["record"], workload=w.name, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, nproc=len(os.sched_getaffinity(0)),
                  python=platform.python_version(), numpy=numpy.__version__,
                  commit=git_commit(), result=line)
    path = os.path.join(OUT_DIR, f"{w.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, default=list)

    print(f"{w.name} seed={args.seed} nproc={record['nproc']} python={record['python']} "
          f"numpy={record['numpy']} commit={record['commit'][:12]} "
          f"attempted={line['attempted']} failed={failed}", file=sys.stderr)
    for name in catalogue:
        print(f"  {name:48s} {metrics[name]:14.6g} {catalogue[name]}", file=sys.stderr)
    for name, value in record["info"].items():
        if name not in catalogue:
            print(f"  {name:48s} {value:14.6g} (record only)", file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
