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
from collections import deque
from dataclasses import dataclass
from functools import partial
from itertools import islice
from typing import NamedTuple

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


class TracePoint(NamedTuple):
    """One point of a session trace, at a recovery or a feedback message.

    A tuple with a dataclass's ``repr``: it equals, and hashes like, the
    plain tuple of its fields.  ``_drive`` builds it positionally, from all
    four fields, with ``tuple.__new__``.
    """

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


def _budget(k: int, budget: int | None) -> int:
    """A run's transmission budget: 50 * k when None; below k is a ValueError."""
    budget = DEFAULT_BUDGET_FACTOR * k if budget is None else budget
    if budget < k:
        raise ValueError(f"budget {budget} cannot be below k={k}")
    return budget


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

    ``budget`` defaults to 50 * k transmissions and may not be below k, nor
    ``feedback_delay`` below 0 (ValueError).  ``link`` carries each
    transmitted symbol (``send`` before the channel, ``receive`` after a
    delivery) and each feedback message (``feedback``).  ``sent`` starts the
    transmitted count at frames already spent on setup; channel slots count
    from 0.  Feedback reaches the encoder ``feedback_delay`` transmissions
    after it is emitted.  Stops at COMPLETE or when ``budget`` transmissions
    are spent.

    A source of empty payloads runs in counting mode.  Otherwise every
    recovered payload of a complete session is checked against the source
    (PayloadMismatch "recovered payload mismatch" on any difference).
    """
    k = source.k
    budget = _budget(k, budget)
    if feedback_delay < 0:
        raise ValueError("feedback_delay must be >= 0")
    carries_payloads = source.symbol_size > 0
    enc = Encoder(config, source, seed=seed, trial_id=trial_id)
    rcv = Receiver(k, config, policy, track_values=carries_payloads)
    chan = ErasureChannel(eps, seed=seed, trial_id=trial_id)

    trace: list[TracePoint] = []
    pending: deque[tuple[int, FeedbackMsg]] = deque()   # (deliverable_at_sent, msg)
    received = slot = recovered = 0
    fb_at_08 = None
    threshold_08 = math.ceil(0.8 * k)
    graph = rcv.graph
    next_symbol, deliver, receive = enc.next_symbol, chan.deliver, rcv.receive
    link_send, link_receive = link.send, link.receive
    point = tuple.__new__      # a TracePoint from all four fields in order
    while sent < budget:
        while pending and pending[0][0] <= sent:
            enc.on_feedback(pending.popleft()[1])
        if enc.phase is Phase.DONE:
            break
        # ``carried`` is dropped on both paths, so that the next symbol is
        # drawn without this one alive: near completion at large k a symbol
        # holds tens of thousands of indices.
        carried = link_send(next_symbol(), slot)
        delivered = deliver(slot)
        slot += 1
        sent += 1
        if not delivered:
            del carried
            continue
        received += 1
        msg = receive(*link_receive(carried))
        del carried
        now = graph.recovered_count
        if now > recovered:
            recovered = now
            trace.append(point(TracePoint, (sent, received, now, None)))
            if fb_at_08 is None and now >= threshold_08:
                fb_at_08 = rcv.feedback_sent
        if msg is not None:
            trace.append(point(TracePoint, (sent, received, now, msg.kind.name.lower())))
            pending.append((sent + feedback_delay, link.feedback(msg)))

    complete = rcv.complete
    if carries_payloads and complete:
        got = graph.values
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

    ``budget`` defaults to 50 * k transmissions; a budget below k, a
    ``source`` of other than k symbols or a negative ``feedback_delay``
    raises ValueError, and running out of budget is flagged in the result,
    not raised.  ``payload_mode="counting"`` moves no bytes; ``"full"``
    encodes a seeded block of 32-byte payloads; a ``source`` is used as is.
    Whenever payloads move, every recovered payload of a complete session
    is checked against the source and a difference raises PayloadMismatch
    "recovered payload mismatch".  ``feedback_delay`` postpones feedback by
    that many symbol slots (0 = the idealized instant-feedback model).
    """
    if payload_mode not in ("counting", "full"):
        raise ValueError(f"unknown payload_mode {payload_mode!r}")
    if source is None:
        if payload_mode == "full":
            source = SourceBlock.random(k, rng=random.Random(source_seed(seed, trial_id)))
        else:
            source = SourceBlock(k, (b"",) * k)
    elif source.k != k:
        raise ValueError(f"source block holds {source.k} symbols, not k={k}")
    result, _, _ = _drive(
        config, source, eps, policy, seed, trial_id, budget, _ObjectLink(),
        feedback_delay=feedback_delay,
    )
    return result


def _recovery_arrays(result: SessionResult) -> tuple[np.ndarray, np.ndarray]:
    """Sent and recovered counts at each recovery, skipping feedback points."""
    trace = result.trace
    sent = np.fromiter((p.sent for p in trace if p.event is None), np.int64)
    rec = np.fromiter((p.recovered for p in trace if p.event is None), np.int64)
    return sent, rec


def _recovered_at(result: SessionResult, n_sent):
    """Recovered count right after each of ``n_sent`` transmissions."""
    sent, rec = _recovery_arrays(result)
    # rec prefixed with the 0 recovered before the first recovery
    return np.concatenate(([0], rec))[np.searchsorted(sent, n_sent, side="right")]


def recovered_at_sent(result: SessionResult, n_sent: int) -> int:
    """Recovered count right after ``n_sent`` symbols have been transmitted."""
    return int(_recovered_at(result, n_sent))


def milestone_grid(k: int) -> np.ndarray:
    """Recovered-count milestones: every integer up to k=2000, 1000 points above."""
    if k <= 2000:
        return np.arange(1, k + 1, dtype=np.int64)
    return np.unique(np.linspace(1, k, 1000).round().astype(np.int64))


def _sent_at(result: SessionResult, milestones: np.ndarray) -> np.ndarray:
    """Sent count when each milestone was first reached, -1 if never (int64)."""
    sent, rec = _recovery_arrays(result)
    # index len(rec) (never reached) reads the -1 appended to sent
    return np.append(sent, -1)[np.searchsorted(rec, milestones, side="left")]


def sent_at_milestones(result: SessionResult, milestones: np.ndarray) -> np.ndarray:
    """Sent count when each milestone was first reached (NaN if never)."""
    row = _sent_at(result, milestones)
    return np.where(row < 0, np.nan, row)


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


def _trial_task(k, policy, seed, budget, milestones, dtype, task) -> tuple[np.ndarray, float, int, int]:
    """Run one session; its row holds the sent count at each milestone, -1 if never."""
    config, eps, trial_id = task
    res = run_session(config, k, eps, policy=policy, seed=seed, trial_id=trial_id, budget=budget)
    full = float(res.full_recovery_sent) if res.full_recovery_sent is not None else np.nan
    return _sent_at(res, milestones).astype(dtype), full, res.feedback_total, res.feedback_at_beta08


def _aggregates(groups, k, trials, policy, seed, jobs, budget, milestones) -> list[AggregateResult]:
    """One AggregateResult per (config, eps) group, each over trial ids 0..trials-1.

    All sessions run on one pool of up to ``jobs`` processes (in-process for
    one).  Rows are merged as they arrive, group after group in trial order,
    so ``jobs`` changes nothing and only the group being merged keeps its rows.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    budget = _budget(k, budget)   # a row's sent counts are at most the budget
    dtype = np.int64 if budget >= 2**31 else np.int32
    # what varies per session; the rest is pickled once per pool chunk
    task = partial(_trial_task, k, policy, seed, budget, milestones, dtype)
    tasks = ((config, eps, t) for config, eps in groups for t in range(trials))

    def merge(rows):
        return [
            _aggregate(config, k, eps, policy, milestones, dtype, islice(rows, trials), trials)
            for config, eps in groups
        ]

    # The pool starts all its workers at once, so it gets no more than tasks.
    n_tasks = len(groups) * trials
    workers = min(jobs, n_tasks)
    if workers <= 1:
        return merge(map(task, tasks))
    # imported here: the pool's modules are a tenth of the package's import time
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        # at most 16 rows per result chunk: the chunks in flight stay bounded
        return merge(pool.map(task, tasks, chunksize=min(max(1, n_tasks // (4 * workers)), 16)))


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
    return _aggregates([(config, eps)], k, trials, policy, seed, jobs, budget, milestone_grid(k))[0]


def _aggregate(config, k, eps, policy, milestones, dtype, rows, trials) -> AggregateResult:
    """Merge one (config, eps) group's ``trials`` ``_trial_task`` rows, in trial order.

    Two passes give np.nanmean and np.nanstd of the stacked float rows (-1 as
    NaN) bit for bit: the sum of integer counts is exact, and the squared
    deviations are added row by row, as numpy reduces axis 0 of a C-ordered
    matrix.  Only the compact rows are kept for the second pass.
    """
    sent = np.empty((trials, len(milestones)), dtype)
    total = np.zeros(len(milestones))
    count = np.zeros(len(milestones), np.int64)
    fulls = np.empty(trials)
    fb_full = np.empty(trials)
    fb_08 = np.empty(trials)
    for t, (row, full, fb, fb8) in enumerate(rows):
        sent[t] = row
        fulls[t], fb_full[t], fb_08[t] = full, fb, fb8
        reached = row >= 0
        np.add(total, row, out=total, where=reached)
        count += reached
    sq = np.zeros(len(milestones))
    # milestones no trial reached are 0 / 0: NaN, without a warning
    with np.errstate(invalid="ignore"):
        sent_mean = total / count
        for row in sent:
            dev = row - sent_mean
            dev[row < 0] = 0.0
            sq += dev * dev
        sent_std = np.sqrt(sq / count)
    completed = fulls[~np.isnan(fulls)]
    overhead_mean = float(np.mean(completed) / k) if len(completed) else float("nan")
    overhead_std = float(np.std(completed) / k) if len(completed) else float("nan")

    return AggregateResult(
        scheme=scheme_name(config),
        k=k,
        eps=eps,
        gamma0=config.gamma0 if isinstance(config, OFCNB) else None,
        policy=f"threshold-{policy.delta_p:g}" if isinstance(policy, Threshold) else "every",
        trials=trials,
        milestones=milestones,
        sent_mean=sent_mean,
        sent_std=sent_std,
        overhead_mean=overhead_mean,
        overhead_std=overhead_std,
        feedback_full_mean=float(np.mean(fb_full)),
        feedback_beta08_mean=float(np.mean(fb_08)),
        budget_exceeded_count=trials - len(completed),
    )


def ber_from_results(results: list[SessionResult], k: int, overhead_grid) -> list[tuple[float, float]]:
    """Mean unrecovered fraction at each overhead (sent = floor(overhead * k))."""
    if not results or any(r.k != k for r in results):
        raise ValueError(f"need one or more sessions of k={k}, got k={sorted({r.k for r in results})}")
    grid = list(overhead_grid)
    n_sent = np.array([int(o * k) for o in grid], dtype=np.int64)
    recovered = np.empty((len(grid), len(results)), dtype=np.int64)
    for j, r in enumerate(results):
        recovered[:, j] = _recovered_at(r, n_sent)
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
    """Full-recovery comparison of the systematic and two-phase schemes per eps.

    Every (eps, scheme, trial) session runs on one pool of up to ``jobs``
    processes; each (eps, scheme) group is merged as ``monte_carlo`` merges
    it, so the result is the same for any ``jobs``.
    """
    grid = list(eps_grid)
    groups = [(config, eps) for eps in grid for config in (SOFC(), OFC())]
    # an empty milestone grid: a sweep reads only the full-recovery counts
    aggs = _aggregates(groups, k, trials, EveryDegreeChange(), seed, jobs, None, np.empty(0, np.int64))
    sent = [agg.overhead_mean * k for agg in aggs]
    points = [SweepPoint(float(eps), sofc, ofc) for eps, sofc, ofc in zip(grid, sent[0::2], sent[1::2])]
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
