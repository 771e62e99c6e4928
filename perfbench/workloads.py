"""The benchmark's workloads: inputs from a seed, passes of calls, output checks.

Every workload runs the three schemes (``ofc``, ``ofcnb`` with
``gamma0 = 0.01``, ``sofc``) at erasure rate 0.1, closed loop: one process
makes one call at a time into the package's public API.  A pass runs the
closed-form reference, a cold ``fountain-lab predict`` per scheme at the
workload's ``k``, and then the workload's own calls.  The same inputs go into
every pass, so each call is repeated and the passes can be checked against
each other.  An operation fails when it raises or a check on its output fails.

Times are taken with a :class:`Clock`, which scales each one to a reference
machine speed measured by a calibration loop around it (see README.md).

numpy is imported inside functions: the package imports it, and that import
belongs to the timed set-up, which must not be paid before it is timed.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

import tracing

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
CLI_ENTRY = os.path.join(BENCH_DIR, "cli_entry.py")

EPS = 0.1
GAMMA0 = 0.01
SCHEMES = ("ofc", "ofcnb", "sofc")
#: Mean relative error of simulation vs closed form that the README documents
#: for aggregates over s/k in [0.05, 0.98].
CURVE_ERR_BOUND = 0.035
#: Time of :func:`kernel_s` at reference speed: about its fastest on the
#: 2-vCPU Xeon VM the benchmark was written on (3.7 ms; 5.5-6.2 ms typical).
REF_KERNEL_S = 0.004


def kernel_s() -> float:
    """Wall time of a fixed pure-Python loop, which tracks the CPU's current speed."""
    start = time.perf_counter()
    acc = 0
    counts: dict[int, int] = {}
    buf = bytes(range(256)) * 4
    out = []
    for i in range(12000):
        acc = (acc * 1103515245 + 12345) & 0xFFFFFFFF
        counts[acc & 1023] = counts.get(acc & 1023, 0) + 1
        if not i & 63:
            out.append(int.from_bytes(buf, "big") ^ acc)
    return time.perf_counter() - start


class Clock:
    """Times calls on a set of CPUs and scales them to reference speed.

    The speed of a shared vCPU changes by up to 1.7x within seconds.  A timed
    call runs pinned to ``cpus`` (child processes inherit the pinning), the
    calibration loop runs right before and after it on each of those CPUs,
    and the call's time is multiplied by ``REF_KERNEL_S`` over the loop's mean
    time.  With ``calibrate=False`` times are raw wall time.
    """

    def __init__(self, cpus, calibrate: bool = True):
        self.cpus = sorted(cpus)
        self.calibrate = calibrate

    def _loop_s(self) -> float:
        if len(self.cpus) == 1:
            return kernel_s()
        times = []
        try:
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                times.append(kernel_s())
        finally:
            os.sched_setaffinity(0, self.cpus)
        return statistics.fmean(times)

    def time(self, fn):
        """Call ``fn()``; returns (result, seconds at reference speed, raw seconds)."""
        saved = os.sched_getaffinity(0)
        os.sched_setaffinity(0, self.cpus)
        try:
            before = self._loop_s() if self.calibrate else 0.0
            start = time.perf_counter()
            result = fn()
            raw = time.perf_counter() - start
            after = self._loop_s() if self.calibrate else 0.0
        finally:
            os.sched_setaffinity(0, saved)
        if not self.calibrate:
            return result, raw, raw
        return result, raw * REF_KERNEL_S * 2 / (before + after), raw


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                # "session", "mc" or "transfer"
    k: int                   # source symbols per session
    trials: int = 1          # mc: trials per monte_carlo call
    jobs: int = 1            # mc: worker processes
    symbol_size: int = 0     # transfer: bytes per source symbol
    inputs: int = 0          # transfer: distinct inputs, each sent by every scheme
    curve_gate: bool = False  # check curve_rel_err against CURVE_ERR_BOUND

    @property
    def input_bytes(self) -> int:
        return self.k * self.symbol_size


WORKLOADS = {
    w.name: w
    for w in (
        Workload("large-k", "session", k=100_000, curve_gate=True),
        Workload("mc-small-k", "mc", k=1000, trials=200, jobs=2, curve_gate=True),
        Workload("transfer-1KiB", "transfer", k=1024, symbol_size=1024, inputs=4),
        Workload("transfer-64B", "transfer", k=4096, symbol_size=64, inputs=4),
    )
}


def import_package():
    """Import fountain_lab from the checkout's ``src/``, never from elsewhere."""
    sys.path.insert(0, SRC)
    import fountain_lab

    if not os.path.abspath(fountain_lab.__file__).startswith(SRC + os.sep):
        raise ImportError(f"fountain_lab imported from {fountain_lab.__file__}, not from {SRC}")
    return fountain_lab


@dataclass
class Context:
    workload: Workload
    seed: int
    fl: object
    configs: dict
    inputs: list[bytes]


def setup(w: Workload, seed: int) -> Context:
    """Import the package and make the inputs: the work ``setup_s`` times."""
    fl = import_package()
    configs = {"ofc": fl.OFC(), "ofcnb": fl.OFCNB(GAMMA0), "sofc": fl.SOFC()}
    rng = random.Random(seed)
    inputs = [rng.randbytes(w.input_bytes) for _ in range(w.inputs)]
    return Context(w, seed, fl, configs, inputs)


@dataclass
class Pass:
    """What one pass over a workload's calls did and how long it took."""

    jobs: int
    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    call_s: dict[str, float] = field(default_factory=dict)   # per session-loop call
    raw_s: dict[str, float] = field(default_factory=dict)    # the same, not scaled
    # per call: (coded symbols transmitted, sessions or trials, input bytes)
    work: dict[str, tuple[int, int, int]] = field(default_factory=dict)
    predict_s: dict[str, float] = field(default_factory=dict)   # per scheme
    overhead: list[float] = field(default_factory=list)
    feedback: list[float] = field(default_factory=list)
    curve_err: list[float] = field(default_factory=list)


def median_rate(passes: list[Pass], unit: int) -> float:
    """Work per second of the session-loop calls, each timed by its median repetition.

    ``unit`` indexes :attr:`Pass.work`.
    """
    times: dict[str, list[float]] = {}
    work: dict[str, int] = {}
    for p in passes:
        for label, seconds in p.call_s.items():
            times.setdefault(label, []).append(seconds)
            work[label] = p.work[label][unit]
    total = sum(statistics.median(ts) for ts in times.values())
    return sum(work.values()) / total if total > 0 else 0.0


class Runner:
    """Runs passes over one workload and checks each against the first."""

    def __init__(self, ctx: Context, workdir: str, calibrate: bool = True):
        self.ctx = ctx
        cpus = sorted(os.sched_getaffinity(0))
        # a cold predict is one process; Monte Carlo's calls use every CPU
        self.process_clock = Clock(cpus[:1], calibrate)
        self.clock = Clock(cpus if ctx.workload.jobs > 1 else cpus[:1], calibrate)
        self.w = ctx.workload
        self.workdir = workdir
        self.reference: dict[str, object] = {}
        self.curves: dict[str, object] = {}     # closed-form curves from the first pass

    # -- bookkeeping -------------------------------------------------------

    def _op(self, p: Pass, label: str, fn) -> None:
        p.attempted += 1
        try:
            problems = fn()
        except Exception:
            problems = [traceback.format_exc()]
        if problems:
            p.failed += 1
            for msg in problems:
                print(f"FAILED {self.w.name} {label}: {msg}", file=sys.stderr)

    def _same_as_before(self, label: str, signature) -> list[str]:
        """Outputs are a pure function of the inputs: every pass must agree."""
        first = self.reference.setdefault(label, signature)
        return [] if first == signature else [f"differs from the first pass: {signature} != {first}"]

    # -- operations --------------------------------------------------------

    def _predict(self, p: Pass, scheme: str, tracer) -> object:
        """Cold ``fountain-lab predict`` in a fresh interpreter; returns the curve."""
        import numpy as np

        k = self.w.k
        out = os.path.join(self.workdir, f"predict-{scheme}.csv")
        argv = [sys.executable, CLI_ENTRY] + (["--trace"] if tracer else []) + [
            "predict", "--scheme", scheme, "--k", str(k), "--eps", str(EPS), "--out", out,
        ] + (["--gamma0", str(GAMMA0)] if scheme == "ofcnb" else [])
        curve = None

        def spawn():
            proc, p.predict_s[scheme], _ = self.process_clock.time(
                lambda: subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120))
            if tracer is not None and proc.returncode == 0:
                tracer.merge_child(json.loads(proc.stdout.splitlines()[-1]))
            return proc

        def check():
            nonlocal curve
            proc = tracer.run("bench.predict_process", spawn) if tracer else spawn()
            if proc.returncode != 0:
                return [f"exit code {proc.returncode}: {proc.stderr.strip()}"]
            with open(out, "rb") as fh:
                raw = fh.read()
            lines = raw.decode().splitlines()
            if lines[0] != "s,expected_n" or len(lines) != k + 1:
                return [f"expected header and {k} rows, got {len(lines) - 1} rows"]
            rows = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
            problems = []
            if not np.array_equal(rows[:, 0], np.arange(1, k + 1)):
                problems.append("s column is not 1..k")
            if not (np.isfinite(rows[:, 1]).all() and (rows[:, 1] > 0).all()):
                problems.append("expected_n has non-finite or non-positive rows")
            curve = rows[:, 1]
            return problems + self._same_as_before(f"predict {scheme}", hashlib.sha256(raw).hexdigest())

        self._op(p, f"predict {scheme}", check)
        return curve

    def _curve_err(self, p: Pass, scheme: str, sent_mean, curve) -> list[str]:
        fl = self.ctx.fl
        milestones = fl.sim.milestone_grid(self.w.k)
        err = fl.analytics.compare_to_curve(milestones, sent_mean, curve, self.w.k)["mean_rel_err"]
        p.curve_err.append(err)
        if self.w.curve_gate and not err <= CURVE_ERR_BOUND:
            return [f"curve_rel_err {err:.4f} above {CURVE_ERR_BOUND}"]
        return []

    def _session(self, p: Pass, scheme: str, curve) -> None:
        fl, k = self.ctx.fl, self.w.k

        def check():
            res, p.call_s[scheme], p.raw_s[scheme] = self.clock.time(
                lambda: fl.run_session(self.ctx.configs[scheme], k, EPS, seed=self.ctx.seed))
            p.work[scheme] = (res.sent_total, 1, 0)
            if res.budget_exceeded:
                return [f"budget exceeded after {res.sent_total} symbols"]
            p.overhead.append(res.full_recovery_sent / k)
            p.feedback.append(res.feedback_total)
            problems = []
            if curve is not None:
                sent = fl.sim.sent_at_milestones(res, fl.sim.milestone_grid(k))
                problems += self._curve_err(p, scheme, sent, curve)
            signature = (res.sent_total, res.received_total, res.feedback_total)
            return problems + self._same_as_before(f"session {scheme}", signature)

        self._op(p, f"run_session {scheme}", check)

    def _monte_carlo(self, p: Pass, scheme: str, curve) -> None:
        fl, w = self.ctx.fl, self.w

        def check():
            agg, p.call_s[scheme], p.raw_s[scheme] = self.clock.time(
                lambda: fl.monte_carlo(self.ctx.configs[scheme], w.k, EPS, w.trials,
                                       seed=self.ctx.seed, jobs=p.jobs))
            p.work[scheme] = (round(agg.overhead_mean * w.k * w.trials), w.trials, 0)
            if agg.budget_exceeded_count:
                return [f"{agg.budget_exceeded_count} trials exceeded their budget"]
            p.overhead.append(agg.overhead_mean)
            p.feedback.append(agg.feedback_full_mean)
            problems = []
            if curve is not None:
                problems += self._curve_err(p, scheme, agg.sent_mean, curve)
            # the aggregate CSV must be byte-identical for any jobs value
            text = fl.sim.aggregate_csv(agg) + fl.sim.summary_json(agg)
            signature = hashlib.sha256(text.encode()).hexdigest()
            return problems + self._same_as_before(f"monte_carlo {scheme}", signature)

        self._op(p, f"monte_carlo {scheme}", check)

    def _transfers(self, p: Pass, scheme: str, curve) -> None:
        import numpy as np

        fl, w = self.ctx.fl, self.w
        milestones = fl.sim.milestone_grid(w.k)
        curves = []
        for j, data in enumerate(self.ctx.inputs):
            def check(j=j, data=data):
                label = f"{scheme} {j}"
                try:
                    (out, rep), p.call_s[label], p.raw_s[label] = self.clock.time(
                        lambda: fl.transfer(data, self.ctx.configs[scheme], EPS, seed=self.ctx.seed,
                                            symbol_size=w.symbol_size, trial_id=j))
                except fl.TransferFailed as exc:
                    return [f"TransferFailed: {exc}"]
                p.work[label] = (rep.frames_sent, 1, len(data))
                p.overhead.append(rep.overhead)
                p.feedback.append(rep.feedback_frames)
                curves.append(fl.sim.sent_at_milestones(rep, milestones))
                problems = [] if out == data else ["output differs from the input"]
                signature = (rep.frames_sent, rep.frames_delivered, rep.feedback_frames)
                return problems + self._same_as_before(f"transfer {scheme} {j}", signature)

            self._op(p, f"transfer {scheme} input {j}", check)
        if curve is not None and curves:
            # a handful of sessions per scheme: informational, not gated
            self._curve_err(p, scheme, np.mean(curves, axis=0), curve)

    # -- passes ------------------------------------------------------------

    def run_pass(self, p: Pass, tracer: tracing.Tracer | None = None) -> Pass:
        """Cold predicts, then one pass over the workload's session-loop calls."""
        op = {"session": self._session, "mc": self._monte_carlo, "transfer": self._transfers}[self.w.kind]
        start = time.perf_counter()
        for scheme in SCHEMES:
            curve = self._predict(p, scheme, tracer)
            if self.curves.get(scheme) is None:
                self.curves[scheme] = curve
        for scheme in SCHEMES:
            op(p, scheme, self.curves[scheme])
        p.wall_s = time.perf_counter() - start
        return p


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def mean(values) -> float:
    return statistics.fmean(values) if values else 0.0
