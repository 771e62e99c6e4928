"""Session driver, Monte Carlo aggregation, BER curves, erasure-rate sweeps.

One session loop wires encoder -> erasure channel -> decoder -> feedback over
a link (in memory here, bit-exact frames in :mod:`wire`) and records a trace
of (sent, received, recovered) at every recovery increment and every
feedback message.  Trials are fully determined by (master seed, trial id),
so aggregation is identical at any parallelism level: workers are mapped by
trial id and merged in trial order.
"""

from __future__ import annotations

import json
import math
import random
import warnings
from collections import deque
from dataclasses import dataclass

import numpy as np

from .channel import ErasureChannel, source_seed
from .graph import CodedSymbol, SourceBlock
from .schemes import (
    OFC,
    SOFC,
    Encoder,
    EveryDegreeChange,
    FeedbackMsg,
    FeedbackPolicy,
    OFCNB,
    Phase,
    Receiver,
    SchemeConfig,
    Threshold,
    scheme_name,
)

__all__ = [
    "PayloadMismatch",
    "TracePoint",
    "SessionResult",
    "AggregateResult",
    "run_session",
    "monte_carlo",
    "recovered_at_sent",
    "ber_from_results",
    "sweep_epsilon",
    "SweepPoint",
    "SweepResult",
    "milestone_grid",
    "sent_at_milestones",
    "aggregate_csv",
    "summary_dict",
]

DEFAULT_BUDGET_FACTOR = 50
CSV_HEADER = "scheme,k,eps,gamma0,policy,trial_or_agg,s,sent_mean,sent_std"


class PayloadMismatch(AssertionError):
    """A complete session recovered a payload that differs from the source.

    It subclasses AssertionError so that callers catching the bare error it
    replaces keep working.
    """


@dataclass(frozen=True)
class TracePoint:
    sent: int
    received: int
    recovered: int
    event: str | None = None


@dataclass
class SessionResult:
    scheme: str
    k: int
    eps: float
    trial_id: int
    trace: list[TracePoint]
    sent_total: int
    received_total: int
    full_recovery_sent: int | None
    budget_exceeded: bool
    feedback_total: int
    feedback_at_beta08: int


def policy_label(policy: FeedbackPolicy) -> str:
    if isinstance(policy, Threshold):
        return f"threshold-{policy.delta_p:g}"
    return "every"


class _ObjectLink:
    """In-memory link: symbols and feedback pass through unchanged."""

    def send(self, sym: CodedSymbol, slot: int) -> tuple[CodedSymbol, int]:
        return sym, slot

    def receive(self, carried: tuple[CodedSymbol, int]) -> tuple[CodedSymbol, int]:
        return carried

    def feedback(self, msg: FeedbackMsg) -> FeedbackMsg:
        return msg


def _drive(
    config: SchemeConfig,
    source: SourceBlock,
    eps: float,
    policy: FeedbackPolicy,
    seed: int,
    trial_id: int,
    budget: int | None,
    link,
    sent: int = 0,
    feedback_delay: int = 0,
) -> tuple[SessionResult, Encoder, Receiver]:
    """Set up and run one session: encoder -> link -> channel -> receiver -> feedback.

    ``budget`` defaults to 50 * k transmissions and may not be below k
    (ValueError).  ``link`` carries each transmitted symbol (``send`` before
    the channel, ``receive`` after a delivery) and each feedback message
    (``feedback``).  ``sent`` starts the transmitted count at frames already
    spent on setup; channel slots count from 0.  Feedback reaches the encoder
    ``feedback_delay`` transmissions after it is emitted.  Stops at COMPLETE
    or when ``budget`` transmissions are spent.

    A source of empty payloads runs in counting mode.  Otherwise every
    recovered payload of a complete session is checked against the source
    (PayloadMismatch "recovered payload mismatch" on any difference).
    """
    k = source.k
    if budget is None:
        budget = DEFAULT_BUDGET_FACTOR * k
    if budget < k:
        raise ValueError(f"budget {budget} cannot be below k={k}")
    carries_payloads = source.symbol_size > 0
    enc = Encoder(config, source, seed=seed, trial_id=trial_id)
    rcv = Receiver(k, config, policy, track_values=carries_payloads)
    chan = ErasureChannel(eps, seed=seed, trial_id=trial_id)

    trace: list[TracePoint] = []
    pending: deque[tuple[int, FeedbackMsg]] = deque()   # (deliverable_at_sent, msg)
    received = slot = 0
    fb_at_08 = None
    threshold_08 = math.ceil(0.8 * k)
    while sent < budget:
        while pending and pending[0][0] <= sent:
            enc.on_feedback(pending.popleft()[1])
        if enc.phase is Phase.DONE:
            break
        carried = link.send(enc.next_symbol(), slot)
        delivered = chan.deliver(slot)
        slot += 1
        sent += 1
        if not delivered:
            continue
        received += 1
        before = rcv.recovered
        sym, seq = link.receive(carried)
        msg = rcv.receive(sym, seq=seq)
        if rcv.recovered > before:
            trace.append(TracePoint(sent, received, rcv.recovered))
            if fb_at_08 is None and rcv.recovered >= threshold_08:
                fb_at_08 = rcv.feedback_sent
        if msg is not None:
            trace.append(TracePoint(sent, received, rcv.recovered, event=msg.kind.name.lower()))
            pending.append((sent + feedback_delay, link.feedback(msg)))

    complete = rcv.complete
    if carries_payloads and complete:
        got = rcv.recovered_payloads()
        for i in range(k):
            if got[i] != source.symbols[i]:
                raise PayloadMismatch(f"recovered payload mismatch at index {i}")
    result = SessionResult(
        scheme=scheme_name(config),
        k=k,
        eps=eps,
        trial_id=trial_id,
        trace=trace,
        sent_total=sent,
        received_total=received,
        full_recovery_sent=sent if complete else None,
        budget_exceeded=not complete,
        feedback_total=rcv.feedback_sent,
        feedback_at_beta08=fb_at_08 or 0,
    )
    return result, enc, rcv


def run_session(
    config: SchemeConfig,
    k: int,
    eps: float,
    policy: FeedbackPolicy = EveryDegreeChange(),
    seed: int = 0,
    trial_id: int = 0,
    budget: int | None = None,
    payload_mode: str = "counting",
    source: SourceBlock | None = None,
    feedback_delay: int = 0,
) -> SessionResult:
    """Run one encode/erase/decode/feedback session to completion or budget.

    ``budget`` defaults to 50 * k transmissions; a budget below k raises
    ValueError, and running out of budget is flagged in the result, not
    raised.  ``payload_mode="counting"`` moves no bytes; ``"full"`` encodes
    a seeded block of 32-byte payloads, and a given ``source`` block is used
    as is.  Whenever payloads move, every recovered payload of a complete
    session is checked against the source and a difference raises
    PayloadMismatch "recovered payload mismatch".  ``feedback_delay``
    postpones message arrival by that many symbol slots (0 = the idealized
    instant-feedback model).
    """
    if payload_mode not in ("counting", "full"):
        raise ValueError(f"unknown payload_mode {payload_mode!r}")
    if source is None:
        if payload_mode == "full":
            source = SourceBlock.random(k, rng=random.Random(source_seed(seed, trial_id)))
        else:
            source = SourceBlock(k, (b"",) * k)
    result, _, _ = _drive(
        config, source, eps, policy, seed, trial_id, budget, _ObjectLink(),
        feedback_delay=feedback_delay,
    )
    return result


def _recovery_arrays(result: SessionResult) -> tuple[np.ndarray, np.ndarray]:
    pts = [(p.sent, p.recovered) for p in result.trace if p.event is None]
    if not pts:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    sent = np.array([p[0] for p in pts], dtype=np.int64)
    rec = np.array([p[1] for p in pts], dtype=np.int64)
    return sent, rec


def recovered_at_sent(result: SessionResult, n_sent: int) -> int:
    """Recovered count right after ``n_sent`` symbols have been transmitted."""
    sent, rec = _recovery_arrays(result)
    idx = int(np.searchsorted(sent, n_sent, side="right")) - 1
    return int(rec[idx]) if idx >= 0 else 0


def milestone_grid(k: int) -> np.ndarray:
    """Recovered-count milestones: every integer up to k=2000, 1000 points above."""
    if k <= 2000:
        return np.arange(1, k + 1, dtype=np.int64)
    return np.unique(np.linspace(1, k, 1000).round().astype(np.int64))


def sent_at_milestones(result: SessionResult, milestones: np.ndarray) -> np.ndarray:
    """Sent count when each milestone was first reached (NaN if never)."""
    sent, rec = _recovery_arrays(result)
    out = np.full(len(milestones), np.nan)
    if len(rec):
        idx = np.searchsorted(rec, milestones, side="left")
        ok = idx < len(rec)
        out[ok] = sent[idx[ok]]
    return out


@dataclass
class AggregateResult:
    scheme: str
    k: int
    eps: float
    gamma0: float | None
    policy: str
    trials: int
    milestones: np.ndarray
    sent_mean: np.ndarray
    sent_std: np.ndarray
    overhead_mean: float
    overhead_std: float
    feedback_full_mean: float
    feedback_beta08_mean: float
    budget_exceeded_count: int


def _trial_task(args) -> tuple[np.ndarray, float, int, int, bool]:
    config, k, eps, policy, seed, trial_id, budget, milestones = args
    res = run_session(config, k, eps, policy=policy, seed=seed, trial_id=trial_id, budget=budget)
    sent = sent_at_milestones(res, milestones)
    full = float(res.full_recovery_sent) if res.full_recovery_sent is not None else np.nan
    return sent, full, res.feedback_total, res.feedback_at_beta08, res.budget_exceeded


def monte_carlo(
    config: SchemeConfig,
    k: int,
    eps: float,
    trials: int,
    policy: FeedbackPolicy = EveryDegreeChange(),
    seed: int = 0,
    jobs: int = 1,
    budget: int | None = None,
) -> AggregateResult:
    """Aggregate ``trials`` independent sessions (trial ids 0..trials-1).

    Results are byte-identical for any ``jobs`` value: per-trial outcomes
    depend only on (seed, trial id) and are merged in trial order.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    milestones = milestone_grid(k)
    tasks = [(config, k, eps, policy, seed, t, budget, milestones) for t in range(trials)]
    if jobs > 1:
        # imported here: the pool's modules are a tenth of the package's import time
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_trial_task, tasks, chunksize=max(1, trials // (4 * jobs))))
    else:
        rows = [_trial_task(t) for t in tasks]

    sent_matrix = np.vstack([r[0] for r in rows])
    fulls = np.array([r[1] for r in rows])
    fb_full = np.array([r[2] for r in rows], dtype=float)
    fb_08 = np.array([r[3] for r in rows], dtype=float)
    exceeded = sum(1 for r in rows if r[4])

    # milestones no trial reached stay NaN; silence the all-NaN column warning
    with np.errstate(invalid="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        sent_mean = np.nanmean(sent_matrix, axis=0)
        sent_std = np.nanstd(sent_matrix, axis=0)
    completed = fulls[~np.isnan(fulls)]
    overhead_mean = float(np.mean(completed) / k) if len(completed) else float("nan")
    overhead_std = float(np.std(completed) / k) if len(completed) else float("nan")

    return AggregateResult(
        scheme=scheme_name(config),
        k=k,
        eps=eps,
        gamma0=config.gamma0 if isinstance(config, OFCNB) else None,
        policy=policy_label(policy),
        trials=trials,
        milestones=milestones,
        sent_mean=sent_mean,
        sent_std=sent_std,
        overhead_mean=overhead_mean,
        overhead_std=overhead_std,
        feedback_full_mean=float(np.mean(fb_full)),
        feedback_beta08_mean=float(np.mean(fb_08)),
        budget_exceeded_count=exceeded,
    )


def ber_from_results(results: list[SessionResult], k: int, overhead_grid) -> list[tuple[float, float]]:
    """Mean unrecovered fraction at each overhead (sent = floor(overhead * k))."""
    grid = list(overhead_grid)
    n_sent = np.array([int(o * k) for o in grid], dtype=np.int64)
    recovered = np.empty((len(grid), len(results)), dtype=np.int64)
    for j, r in enumerate(results):
        sent, rec = _recovery_arrays(r)
        # rec prefixed with the 0 recovered before the first recovery
        recovered[:, j] = np.concatenate(([0], rec))[np.searchsorted(sent, n_sent, side="right")]
    missing = (k - recovered) / k
    # one contiguous row per overhead: np.mean sums it as it summed the list
    return [(float(o), float(np.mean(row))) for o, row in zip(grid, missing)]


@dataclass(frozen=True)
class SweepPoint:
    eps: float
    sofc_mean_sent: float
    ofc_mean_sent: float

    @property
    def diff(self) -> float:
        return self.sofc_mean_sent - self.ofc_mean_sent


@dataclass
class SweepResult:
    k: int
    points: list[SweepPoint]

    @property
    def crossover(self) -> float | None:
        """Erasure rate where the systematic scheme stops beating the baseline.

        Linear interpolation of the first sign change of (sofc - ofc) mean
        full-recovery sent counts; None when the sweep never changes sign.
        """
        for a, b in zip(self.points, self.points[1:]):
            if a.diff == 0:
                return a.eps
            if a.diff < 0 <= b.diff or a.diff > 0 >= b.diff:
                span = b.diff - a.diff
                return a.eps + (b.eps - a.eps) * (-a.diff / span)
        return None


def sweep_epsilon(
    k: int,
    eps_grid,
    trials: int,
    seed: int = 0,
    jobs: int = 1,
) -> SweepResult:
    """Full-recovery comparison of the systematic and two-phase schemes per eps."""
    points = []
    for eps in eps_grid:
        sofc = monte_carlo(SOFC(), k, eps, trials, seed=seed, jobs=jobs)
        ofc = monte_carlo(OFC(), k, eps, trials, seed=seed, jobs=jobs)
        points.append(SweepPoint(float(eps), sofc.overhead_mean * k, ofc.overhead_mean * k))
    return SweepResult(k, points)


def aggregate_csv(agg: AggregateResult) -> str:
    """Aggregate curve in the stable CSV schema (one row per milestone)."""
    rows = [CSV_HEADER]
    gamma = f"{agg.gamma0:.6f}" if agg.gamma0 is not None else ""
    for s, mean, std in zip(agg.milestones, agg.sent_mean, agg.sent_std):
        rows.append(
            f"{agg.scheme},{agg.k},{agg.eps:.6f},{gamma},{agg.policy},agg,"
            f"{int(s)},{mean:.6f},{std:.6f}"
        )
    return "\n".join(rows) + "\n"


def summary_dict(agg: AggregateResult) -> dict:
    return {
        "overhead_mean": None if math.isnan(agg.overhead_mean) else round(agg.overhead_mean, 6),
        "feedback_mean_beta08": round(agg.feedback_beta08_mean, 6),
        "feedback_mean_full": round(agg.feedback_full_mean, 6),
        "budget_exceeded_count": agg.budget_exceeded_count,
        "config": {
            "scheme": agg.scheme,
            "k": agg.k,
            "eps": agg.eps,
            "gamma0": agg.gamma0,
            "policy": agg.policy,
            "trials": agg.trials,
        },
    }


def summary_json(agg: AggregateResult) -> str:
    return json.dumps(summary_dict(agg), indent=2, sort_keys=True) + "\n"
