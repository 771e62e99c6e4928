"""Differential property tests: the three session paths agree on generated cases.

A counting-mode session, a full-payload session and a framed ``transfer``
run the same protocol on the same seeds, so they must give the same result:
counting mode moves no bytes, and the framed link adds one header frame and
nothing else.  Hypothesis draws the cases from a fixed seed
(``derandomize=True``) with no example database, so every run checks the
same cases.

Generated cases also check that ``monte_carlo`` gives the same aggregate for
any ``jobs``, that every session's case and phase counts add up, and that
the peeling decoder recovers what GF(2) elimination over the symbols it
kept pins down.
"""

import random
from collections import Counter
from unittest.mock import patch

from hypothesis import given, settings
from hypothesis import strategies as st

from fountain_lab.config import OFC, OFCNB, SOFC, EveryDegreeChange, Threshold
from fountain_lab.graph import Case, CodedSymbol, DecodeGraph
from fountain_lab.graph import SourceBlock
from fountain_lab.sim import DEFAULT_BUDGET_FACTOR, run_session
from fountain_lab.sim import _drive, _ObjectLink, aggregate_csv, monte_carlo, summary_json
from fountain_lab.wire import TransferFailed, transfer

from reference import ReplayPeeler

CASES = settings(max_examples=150, derandomize=True, database=None, deadline=None)

configs = st.one_of(
    st.sampled_from([0.3, 0.5, 0.7]).map(OFC),
    st.sampled_from([0.01, 0.05, 0.1, 0.3, 0.5]).map(OFCNB),
    st.just(SOFC()),
)
policies = st.one_of(
    st.just(EveryDegreeChange()),
    st.sampled_from([0.001, 0.01, 0.1]).map(Threshold),
)
erasure_rates = st.sampled_from([0.0, 0.05, 0.1, 0.3, 0.5, 0.8])
seeds = st.integers(0, 2**32 - 1)
trials = st.integers(0, 5)


@CASES
@given(configs, policies, st.integers(2, 300), erasure_rates, seeds, trials, st.integers(0, 5))
def test_counting_and_full_payload_sessions_agree(config, policy, k, eps, seed, trial, delay):
    def session(mode):
        return run_session(config, k, eps, policy, seed=seed, trial_id=trial,
                           payload_mode=mode, feedback_delay=delay)

    assert session("counting") == session("full")


@CASES
@given(configs, policies, erasure_rates, seeds, trials, st.data())
def test_transfer_matches_the_full_payload_session(config, policy, eps, seed, trial, data):
    k = data.draw(st.integers(2, 300), label="k")
    size = data.draw(st.integers(1, 64), label="symbol_size")
    last = data.draw(st.integers(1, size), label="last block")     # ragged when < size
    budget = data.draw(st.none() | st.integers(k + 1, 3 * k + 1), label="budget")
    payload = random.Random(seed).randbytes((k - 1) * size + last)

    padded = payload.ljust(k * size, b"\x00")
    source = SourceBlock(k, tuple(padded[i * size:(i + 1) * size] for i in range(k)))
    # transfer's budget counts its header frame; the session sends data only
    frames = DEFAULT_BUDGET_FACTOR * k if budget is None else budget
    sim = run_session(config, k, eps, policy, seed=seed, trial_id=trial,
                      budget=frames - 1, payload_mode="full", source=source)
    try:
        out, report = transfer(payload, config, eps, seed=seed, symbol_size=size,
                               policy=policy, trial_id=trial, budget=budget)
    except TransferFailed as failed:
        assert sim.budget_exceeded
        report = failed.report
    else:
        assert not sim.budget_exceeded
        assert out == payload
    assert report.header_attempts == 1
    assert [p._replace(sent=p.sent - 1) for p in report.trace] == sim.trace


# Each jobs=2 case starts a process pool, so the cases are few.  At eps 0.99
# the default budget of 50k symbols delivers about k / 2, so trials starve.
@settings(CASES, max_examples=20)
@given(configs, policies, st.integers(2, 120), erasure_rates | st.just(0.99), seeds, st.integers(1, 6))
def test_monte_carlo_is_the_same_for_any_jobs(config, policy, k, eps, seed, n_trials):
    def aggregate(jobs):
        agg = monte_carlo(config, k, eps, n_trials, policy, seed=seed, jobs=jobs)
        return aggregate_csv(agg) + summary_json(agg)

    assert aggregate(1) == aggregate(2)


@CASES
@given(configs, policies, erasure_rates, seeds, trials, st.integers(0, 5), st.booleans(), st.data())
def test_case_and_phase_counts_add_up_over_sessions(config, policy, eps, seed, trial, delay, full, data):
    k = data.draw(st.integers(2, 300), label="k")
    budget = data.draw(st.none() | st.integers(k, 3 * k), label="budget")
    source = SourceBlock.random(k, 8, random.Random(seed)) if full else SourceBlock(k, (b"",) * k)
    cases: Counter = Counter()
    classify = DecodeGraph.classify

    def counted(graph, sym):
        cls = classify(graph, sym)
        cases[cls.case] += 1
        return cls

    with patch.object(DecodeGraph, "classify", counted):
        result, enc, _ = _drive(config, source, eps, policy, seed, trial, budget, _ObjectLink(),
                                feedback_delay=delay)
    assert sum(enc.phase_sent.values()) == result.sent_total
    assert sum(cases.values()) == result.received_total
    if not result.budget_exceeded:
        # each node is recovered by one CASE1 symbol or by peeling one CASE2 edge
        assert cases[Case.CASE1] + cases[Case.CASE2] == k


@CASES
@given(st.integers(2, 40), seeds, st.data())
def test_decoder_recovers_what_the_gf2_replay_oracle_pins(k, seed, data):
    rng = random.Random(seed)
    block = SourceBlock.random(k, 4, rng)
    graph, oracle = DecodeGraph(k), ReplayPeeler(k)
    for _ in range(data.draw(st.integers(1, 4 * k), label="symbols")):
        indices = tuple(sorted(rng.sample(range(k), min(k, rng.choice((1, 2, 2, 2, 3, 4))))))
        payload = block.encode(indices)
        graph.process(CodedSymbol(indices, payload))
        oracle.offer(indices, int.from_bytes(payload, "big"))
        recovered = {i: int.from_bytes(graph.values[i], "big") for i in range(k) if graph.color[i]}
        assert recovered == oracle.known
