import dataclasses
import random
import struct
import tracemalloc
import warnings

import pytest

import fountain_lab.degree as degree
import fountain_lab.schemes as schemes
from fountain_lab.channel import ErasureChannel
from fountain_lab.degree import optimal_degree, useful_prob
from fountain_lab.graph import CodedSymbol, SourceBlock
from fountain_lab.schemes import (
    OFC,
    OFCNB,
    SOFC,
    Encoder,
    EveryDegreeChange,
    FeedbackKind,
    FeedbackMsg,
    Phase,
    ProtocolError,
    Receiver,
    Threshold,
    degree_update_due,
    scheme_name,
)
from fountain_lab.sim import run_session


def make_encoder(config, k=20, seed=0):
    return Encoder(config, SourceBlock.random(k, 4, random.Random(1)), seed=seed)


def test_config_validation():
    with pytest.raises(ValueError):
        OFC(beta0=0.0)
    with pytest.raises(ValueError):
        OFC(beta0=1.0)
    with pytest.raises(ValueError):
        OFCNB(gamma0=0.0)
    with pytest.raises(ValueError):
        OFCNB(gamma0=1.2)
    with pytest.warns(UserWarning):
        OFCNB(gamma0=0.7)
    assert scheme_name(SOFC()) == "sofc"


def test_gamma0_warning_points_at_the_caller():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        OFCNB(gamma0=0.7)
    assert [w.filename for w in caught] == [__file__]


def test_gamma0_warning_points_at_the_caller_through_replace():
    # dataclasses.replace adds frames between the caller and __init__
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        dataclasses.replace(OFCNB(0.3), gamma0=0.7)
    assert [w.filename for w in caught] == [__file__]


def test_threshold_validation():
    with pytest.raises(ValueError):
        Threshold(0.0)
    with pytest.raises(ValueError):
        Threshold(1.0)


def test_sofc_systematic_indexes_then_completion():
    enc = make_encoder(SOFC(), k=5)
    symbols = [enc.next_symbol() for _ in range(5)]
    assert [s.indices for s in symbols] == [(0,), (1,), (2,), (3,), (4,)]
    assert enc.phase is Phase.SYSTEMATIC
    # sixth call: index pass exhausted, encoder flips itself to completion
    sixth = enc.next_symbol()
    assert enc.phase is Phase.COMPLETION
    assert sixth.degree == enc.current_m


def test_sofc_feedback_sets_completion_degree():
    enc = make_encoder(SOFC(), k=512)
    for _ in range(512):
        enc.next_symbol()
    enc.on_feedback(FeedbackMsg(FeedbackKind.BETA_UPDATE, 461))
    assert enc.phase is Phase.COMPLETION
    assert enc.current_m == optimal_degree(461 / 512, 512)


def test_ofcnb_seeding_is_all_degree1():
    enc = make_encoder(OFCNB(0.5), k=40)
    assert all(enc.next_symbol().degree == 1 for _ in range(100))


def test_ofcnb_trigger_update():
    enc = make_encoder(OFCNB(0.01), k=1000)
    enc.next_symbol()
    enc.on_feedback(FeedbackMsg(FeedbackKind.BETA_UPDATE, 10))
    assert enc.phase is Phase.COMPLETION
    assert enc.current_m == optimal_degree(0.01) == 2


def test_ofc_phase_walk_and_completion_degree():
    enc = make_encoder(OFC(), k=1000)
    assert enc.next_symbol().degree == 2
    enc.on_feedback(FeedbackMsg(FeedbackKind.LARGEST_COMPONENT_REACHED, 0))
    assert enc.phase is Phase.DEGREE1_SEEDING
    assert enc.next_symbol().degree == 1
    enc.on_feedback(FeedbackMsg(FeedbackKind.COMPONENT_BLACK, 600))
    assert enc.phase is Phase.COMPLETION
    assert enc.current_m == optimal_degree(0.6) == 3
    assert enc.next_symbol().degree == 3


def test_completion_degree_tracks_feedback():
    enc = make_encoder(OFC(), k=1000)
    enc.on_feedback(FeedbackMsg(FeedbackKind.LARGEST_COMPONENT_REACHED, 0))
    enc.on_feedback(FeedbackMsg(FeedbackKind.COMPONENT_BLACK, 520))
    for rec in (550, 640, 700, 810, 930, 990):
        enc.on_feedback(FeedbackMsg(FeedbackKind.BETA_UPDATE, rec))
        for _ in range(5):
            assert enc.next_symbol().degree == optimal_degree(rec / 1000, 1000)


def test_protocol_errors():
    enc = make_encoder(OFCNB(0.1), k=50)
    with pytest.raises(ProtocolError):
        enc.on_feedback(FeedbackMsg(FeedbackKind.LARGEST_COMPONENT_REACHED, 0))
    with pytest.raises(ProtocolError):
        enc.on_feedback(FeedbackMsg(FeedbackKind.COMPONENT_BLACK, 10))
    enc2 = make_encoder(OFC(), k=50)
    with pytest.raises(ProtocolError):
        enc2.on_feedback(FeedbackMsg(FeedbackKind.BETA_UPDATE, 5))
    with pytest.raises(ProtocolError):
        enc2.on_feedback(FeedbackMsg(FeedbackKind.COMPONENT_BLACK, 5))
    enc2.on_feedback(FeedbackMsg(FeedbackKind.COMPLETE, 50))
    with pytest.raises(ProtocolError):
        enc2.next_symbol()
    with pytest.raises(ProtocolError):
        enc2.on_feedback(FeedbackMsg(FeedbackKind.COMPLETE, 50))
    enc3 = make_encoder(OFC(), k=50)
    enc3.on_feedback(FeedbackMsg(FeedbackKind.LARGEST_COMPONENT_REACHED, 0))
    with pytest.raises(ProtocolError):
        enc3.on_feedback(FeedbackMsg(FeedbackKind.LARGEST_COMPONENT_REACHED, 0))


LCR = FeedbackKind.LARGEST_COMPONENT_REACHED
BLACK = FeedbackKind.COMPONENT_BLACK
BETA = FeedbackKind.BETA_UPDATE
COMPLETE = FeedbackKind.COMPLETE
M0, M20, M30 = (optimal_degree(r / 50, 50) for r in (0, 20, 30))

# Every reachable live phase at k=50: (scheme, label) -> (config, steps, phase,
# current_m, known_recovered).  A step is a feedback message or a count of
# symbols to draw; "self-completion" is SOFC past its index pass with no
# feedback seen.
WALKS = {
    ("ofc", "build-up"): (OFC(), [], Phase.BUILD_UP, 2, 0),
    ("ofc", "seeding"): (OFC(), [FeedbackMsg(LCR, 0)], Phase.DEGREE1_SEEDING, 1, 0),
    ("ofc", "completion"): (
        OFC(), [FeedbackMsg(LCR, 0), FeedbackMsg(BLACK, 20)], Phase.COMPLETION, M20, 20
    ),
    ("ofcnb", "seeding"): (OFCNB(0.1), [], Phase.DEGREE1_SEEDING, 1, 0),
    ("ofcnb", "completion"): (OFCNB(0.1), [FeedbackMsg(BETA, 20)], Phase.COMPLETION, M20, 20),
    ("sofc", "systematic"): (SOFC(), [], Phase.SYSTEMATIC, 1, 0),
    ("sofc", "completion"): (SOFC(), [FeedbackMsg(BETA, 20)], Phase.COMPLETION, M20, 20),
    ("sofc", "self-completion"): (SOFC(), [51], Phase.COMPLETION, M0, 0),
}

# (scheme, label, kind) -> (phase, current_m, known_recovered) after a message
# with recovered=30, or the ProtocolError text (state left unchanged).
TRANSITIONS = {
    ("ofc", "build-up", LCR): (Phase.DEGREE1_SEEDING, 1, 0),
    ("ofc", "build-up", BLACK): "unexpected COMPONENT_BLACK in phase BUILD_UP",
    ("ofc", "build-up", BETA): "unexpected BETA_UPDATE in phase BUILD_UP",
    ("ofc", "build-up", COMPLETE): (Phase.DONE, 2, 30),
    ("ofc", "seeding", LCR): "unexpected LARGEST_COMPONENT_REACHED in phase DEGREE1_SEEDING",
    ("ofc", "seeding", BLACK): (Phase.COMPLETION, M30, 30),
    ("ofc", "seeding", BETA): "unexpected BETA_UPDATE in phase DEGREE1_SEEDING",
    ("ofc", "seeding", COMPLETE): (Phase.DONE, 1, 30),
    ("ofc", "completion", LCR): "unexpected LARGEST_COMPONENT_REACHED in phase COMPLETION",
    ("ofc", "completion", BLACK): "unexpected COMPONENT_BLACK in phase COMPLETION",
    ("ofc", "completion", BETA): (Phase.COMPLETION, M30, 30),
    ("ofc", "completion", COMPLETE): (Phase.DONE, M20, 30),
    ("ofcnb", "seeding", LCR): "unexpected LARGEST_COMPONENT_REACHED in phase DEGREE1_SEEDING",
    ("ofcnb", "seeding", BLACK): "unexpected COMPONENT_BLACK in phase DEGREE1_SEEDING",
    ("ofcnb", "seeding", BETA): (Phase.COMPLETION, M30, 30),
    ("ofcnb", "seeding", COMPLETE): (Phase.DONE, 1, 30),
    ("ofcnb", "completion", LCR): "unexpected LARGEST_COMPONENT_REACHED in phase COMPLETION",
    ("ofcnb", "completion", BLACK): "unexpected COMPONENT_BLACK in phase COMPLETION",
    ("ofcnb", "completion", BETA): (Phase.COMPLETION, M30, 30),
    ("ofcnb", "completion", COMPLETE): (Phase.DONE, M20, 30),
    ("sofc", "systematic", LCR): "unexpected LARGEST_COMPONENT_REACHED in phase SYSTEMATIC",
    ("sofc", "systematic", BLACK): "unexpected COMPONENT_BLACK in phase SYSTEMATIC",
    ("sofc", "systematic", BETA): (Phase.COMPLETION, M30, 30),
    ("sofc", "systematic", COMPLETE): (Phase.DONE, 1, 30),
    ("sofc", "completion", LCR): "unexpected LARGEST_COMPONENT_REACHED in phase COMPLETION",
    ("sofc", "completion", BLACK): "unexpected COMPONENT_BLACK in phase COMPLETION",
    ("sofc", "completion", BETA): (Phase.COMPLETION, M30, 30),
    ("sofc", "completion", COMPLETE): (Phase.DONE, M20, 30),
    ("sofc", "self-completion", LCR): "unexpected LARGEST_COMPONENT_REACHED in phase COMPLETION",
    ("sofc", "self-completion", BLACK): "unexpected COMPONENT_BLACK in phase COMPLETION",
    ("sofc", "self-completion", BETA): (Phase.COMPLETION, M30, 30),
    ("sofc", "self-completion", COMPLETE): (Phase.DONE, M0, 30),
}


def state(enc):
    return (enc.phase, enc.current_m, enc.known_recovered)


def walk_encoder(scheme, label):
    config, steps, phase, m, recovered = WALKS[scheme, label]
    enc = make_encoder(config, k=50)
    for step in steps:
        if isinstance(step, FeedbackMsg):
            enc.on_feedback(step)
        else:
            for _ in range(step):
                enc.next_symbol()
    assert state(enc) == (phase, m, recovered)
    return enc


@pytest.mark.parametrize("scheme,label,kind", sorted(TRANSITIONS, key=str))
def test_transition_matrix(scheme, label, kind):
    enc = walk_encoder(scheme, label)
    expected = TRANSITIONS[scheme, label, kind]
    if isinstance(expected, str):
        before = state(enc)
        with pytest.raises(ProtocolError) as err:
            enc.on_feedback(FeedbackMsg(kind, 30))
        assert str(err.value) == expected
        assert state(enc) == before
    else:
        enc.on_feedback(FeedbackMsg(kind, 30))
        assert state(enc) == expected
        if enc.phase is not Phase.DONE:
            assert enc.next_symbol().degree == enc.current_m


@pytest.mark.parametrize("scheme,label", sorted(WALKS))
def test_done_rejects_everything(scheme, label):
    enc = walk_encoder(scheme, label)
    enc.on_feedback(FeedbackMsg(COMPLETE, 50))
    for kind in FeedbackKind:
        with pytest.raises(ProtocolError, match="^feedback after session completion$"):
            enc.on_feedback(FeedbackMsg(kind, 30))
    with pytest.raises(ProtocolError, match="^session already complete$"):
        enc.next_symbol()
    assert (enc.phase, enc.known_recovered) == (Phase.DONE, 50)


def test_degree_update_rule():
    assert optimal_degree(0.51) == 3
    assert degree_update_due(2, 0.51, 1000, EveryDegreeChange())
    assert not degree_update_due(3, 0.51, 1000, EveryDegreeChange())
    # just past the 2->3 boundary the gain is tiny: threshold stays quiet
    assert not degree_update_due(2, 0.51, 1000, Threshold(0.01))


def test_threshold_never_fires_more_than_every_change():
    rng = random.Random(3)
    every, thresh = EveryDegreeChange(), Threshold(0.01)
    for _ in range(500):
        beta = rng.random() * 0.999
        prev_m = rng.randint(1, 30)
        if degree_update_due(prev_m, beta, 1000, thresh):
            assert degree_update_due(prev_m, beta, 1000, every)


@pytest.mark.parametrize("policy", [EveryDegreeChange(), Threshold(), Threshold(0.001)], ids=repr)
def test_receiver_rule_on_table_degree_matches_degree_update_due(policy):
    # the receiver applies the rule to the table's degree at n; the
    # closed-form entry computes the degree at beta = n / k
    k = 1000
    for n in range(k // 2, k):
        m_new = schemes._table_degree(n, k)
        for m in range(max(1, m_new - 3), m_new + 4):
            assert schemes._update_due(m, m_new, n / k, policy) == degree_update_due(m, n / k, k, policy), (n, m)


def test_receiver_ofc_event_sequence():
    # tiny deterministic walk: k=4, threshold at 2
    rcv = Receiver(4, OFC(beta0=0.5), track_values=False)
    msg = rcv.receive(CodedSymbol((0, 1)))
    assert msg is not None and msg.kind is FeedbackKind.LARGEST_COMPONENT_REACHED
    assert rcv.receive(CodedSymbol((2, 3))) is None          # seeding: no event yet
    msg = rcv.receive(CodedSymbol((0,)))                      # marker component black
    assert msg is not None and msg.kind is FeedbackKind.COMPONENT_BLACK
    assert msg.recovered == 2
    msg = rcv.receive(CodedSymbol((2,)))                      # completes everything
    assert msg is not None and msg.kind is FeedbackKind.COMPLETE
    assert rcv.complete


def test_receiver_ofc_build_up_fires_on_the_merge_that_reaches_the_threshold():
    # k=3, beta0=0.3: threshold 1.  The rule reads the component a CASE2 edge
    # just formed, so an off-protocol degree-1 first symbol triggers nothing.
    rcv = Receiver(3, OFC(beta0=0.3), track_values=False)
    assert rcv.receive(CodedSymbol((0,))) is None
    msg = rcv.receive(CodedSymbol((1, 2)))
    assert msg is not None and msg.kind is FeedbackKind.LARGEST_COMPONENT_REACHED
    msg = rcv.receive(CodedSymbol((2,)))                      # recovers 1 and 2 too
    assert msg is not None and msg.kind is FeedbackKind.COMPLETE


def test_receiver_complete_subsumes_everything():
    with pytest.warns(UserWarning):
        config = OFCNB(0.9)
    rcv = Receiver(3, config, track_values=False)
    assert rcv.receive(CodedSymbol((0,))) is None
    assert rcv.receive(CodedSymbol((1,))) is None
    msg = rcv.receive(CodedSymbol((2,)))
    assert msg is not None and msg.kind is FeedbackKind.COMPLETE
    assert rcv.feedback_sent == 1


def test_receiver_sofc_waits_for_last_systematic_slot():
    rcv = Receiver(6, SOFC(), track_values=False)
    for i in range(4):
        assert rcv.receive(CodedSymbol((i,)), seq=i) is None
    # slot 4 erased; slot 5 delivered -> end of pass detected at seq k-1
    msg = rcv.receive(CodedSymbol((5,)), seq=5)
    assert msg is not None and msg.kind is FeedbackKind.BETA_UPDATE
    assert msg.recovered == 5


def test_encoder_stream_is_deterministic():
    a = make_encoder(OFC(), k=100, seed=5)
    b = make_encoder(OFC(), k=100, seed=5)
    stream_a = [a.next_symbol().indices for _ in range(200)]
    stream_b = [b.next_symbol().indices for _ in range(200)]
    assert stream_a == stream_b
    c = make_encoder(OFC(), k=100, seed=6)
    assert [c.next_symbol().indices for _ in range(200)] != stream_a


def test_empty_payload_source_emits_counting_symbols():
    # a block of empty payloads is counting mode: symbols carry no bytes
    for config in (OFC(), OFCNB(0.1), SOFC()):
        enc = Encoder(config, SourceBlock(10, (b"",) * 10))
        assert enc.next_symbol().payload is None
    assert make_encoder(SOFC()).next_symbol().payload is not None


@pytest.mark.parametrize("k", [2, 21, 22, 85, 86, 1024, 1044, 1045, 1046, 4096, 100000])
def test_sampler_reproduces_random_sample(k):
    # set-size boundaries: 21 (m <= 5), 85 (m = 6..21), 1045 (m = 86..341);
    # powers of two pin the bit count of each draw
    for m in (1, 2, 5, 6, 15, 86, 200, 1414):
        if m > k:
            continue
        for s in range(3):
            enc = Encoder(SOFC(), SourceBlock(k, (b"",) * k), seed=s)
            ref = random.Random()
            ref.setstate(enc.rng.getstate())
            for _ in range(4):
                assert enc._sample(m) == tuple(sorted(ref.sample(range(k), m)))
            assert enc.rng.getstate() == ref.getstate()


def _sampler_encoder(k, seed):
    enc = Encoder(SOFC(), SourceBlock(k, (b"",) * k), seed=seed)
    ref = random.Random()
    ref.setstate(enc.rng.getstate())
    return enc, ref


@pytest.mark.parametrize(
    "k,m",
    [(100000, m) for m in (255, 256, 257, 1000, 21845, 21846, 60000, 100000)]
    + [(k, m) for k in (4096, 20000) for m in sorted({1023, 1024, 4095, 4096, k})],
)
def test_sampler_bulk_paths_reproduce_random_sample(k, m):
    # both sides of the bulk thresholds (256 set, 1024 pool) and of the
    # set-size cut-off (m = 21845 | 21846 at k = 1e5, 1365 | 1366 at 4096,
    # 5461 | 5462 at 20000); m = k replays the shuffle down to one value
    enc, ref = _sampler_encoder(k, seed=m)
    for _ in range(2):
        got = enc._sample(m)
        assert got == tuple(sorted(ref.sample(range(k), m)))
        assert {type(i) for i in got} == {int}
    assert enc.rng.getstate() == ref.getstate()


def _pool_degrees(k, first):
    # the first pool-branch degree and the one before it, min(1023, k), k,
    # and each m that leaves n = k - m values at or just below a power of two
    ms = {first - 1, first, min(1023, k), k}
    for j in range(k.bit_length()):
        ms.update(m for m in (k - 2**j, k - 2**j + 1) if first <= m <= k)
    return sorted(ms)


@pytest.mark.parametrize(
    "k,m", [(1000, m) for m in _pool_degrees(1000, 86)] + [(4096, m) for m in _pool_degrees(4096, 342)]
)
def test_sampler_pool_branch_reproduces_random_sample(k, m):
    enc, ref = _sampler_encoder(k, seed=m)
    for _ in range(2):
        got = enc._sample(m)
        assert got == tuple(sorted(ref.sample(range(k), m)))
        assert {type(i) for i in got} == {int}
    assert enc.rng.getstate() == ref.getstate()


def test_sampler_rejects_degree_above_k_like_random_sample():
    enc, ref = _sampler_encoder(1000, seed=0)
    with pytest.raises(ValueError) as want:
        ref.sample(range(1000), 1001)
    with pytest.raises(ValueError) as got:
        enc._sample(1001)
    assert str(got.value) == str(want.value)
    assert enc.rng.getstate() == ref.getstate()


def test_sampler_word_stream_is_successive_getrandbits():
    # the bulk sampler reads getrandbits(32 * n) as n successive 32-bit
    # outputs, and a b-bit draw (b <= 32) as one output's top b bits
    a, b = random.Random(11), random.Random(11)
    n = 1000
    words = struct.unpack(f"<{n}I", a.getrandbits(32 * n).to_bytes(4 * n, "little"))
    assert list(words) == [b.getrandbits(32) for _ in range(n)]
    for bits in range(1, 33):
        assert a.getrandbits(32) >> (32 - bits) == b.getrandbits(bits)
    assert a.getstate() == b.getstate()


@pytest.mark.parametrize("m", [20000, 60000, 100000])
def test_sampler_memory_peak(m):
    # the pool branch of random.sample itself peaks at 4.95 MiB at m = k
    enc, _ = _sampler_encoder(100000, seed=1)
    enc._sample(m)
    tracemalloc.start()
    try:
        enc._sample(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 2**20


def test_phase_sent_has_no_key_for_a_phase_that_sent_nothing():
    # BETA_UPDATE and COMPLETE applied back to back: completion sends nothing
    enc = make_encoder(OFCNB(0.5), k=5)
    for _ in range(3):
        enc.next_symbol()
    enc.on_feedback(FeedbackMsg(BETA, 3))
    enc.on_feedback(FeedbackMsg(COMPLETE, 5))
    assert list(enc.phase_sent.items()) == [("degree1-seeding", 3)]


def test_phase_sent_counts_across_self_entered_completion_and_updates():
    enc = make_encoder(SOFC(), k=5)
    for _ in range(6):   # the sixth symbol enters completion by itself
        enc.next_symbol()
    enc.on_feedback(FeedbackMsg(BETA, 3))   # completion stays completion
    enc.next_symbol()
    assert list(enc.phase_sent.items()) == [("systematic", 5), ("completion", 2)]
    with pytest.raises(ProtocolError):
        enc.on_feedback(FeedbackMsg(LCR, 3))
    assert list(enc.phase_sent.items()) == [("systematic", 5), ("completion", 2)]


def test_sofc_entering_completion_by_itself_takes_the_degree_at_none_recovered():
    # no feedback came back during the pass, so no recovered count is known
    k = 20
    enc = make_encoder(SOFC(), k=k)
    for _ in range(k):
        enc.next_symbol()
    sym = enc.next_symbol()
    assert (enc.phase, enc.known_recovered) == (Phase.COMPLETION, 0)
    assert enc.current_m == len(sym.indices) == degree._table_degree(0, k) == 2


def test_phase_sent_is_a_read_only_snapshot():
    enc = make_encoder(SOFC(), k=5)
    enc.next_symbol()
    sent = enc.phase_sent
    sent["systematic"] = 99
    assert enc.phase_sent == {"systematic": 1}
    with pytest.raises(AttributeError):
        enc.phase_sent = {}


def test_completion_indices_sorted_distinct():
    enc = make_encoder(SOFC(), k=30)
    enc.on_feedback(FeedbackMsg(FeedbackKind.BETA_UPDATE, 27))
    for _ in range(50):
        s = enc.next_symbol()
        assert list(s.indices) == sorted(set(s.indices))
        assert s.degree == enc.current_m


def test_ofcnb_completion_never_degree1_past_half():
    # optimal degree is always >= 2, so completion never emits degree-1
    for beta in (0.51, 0.6, 0.75, 0.9, 0.99):
        assert optimal_degree(beta) >= 2
    with pytest.warns(UserWarning):
        heavy = OFCNB(0.6)
    enc = make_encoder(heavy, k=100)
    enc.on_feedback(FeedbackMsg(FeedbackKind.BETA_UPDATE, 60))
    assert all(enc.next_symbol().degree >= 2 for _ in range(100))


def test_useful_prob_threshold_comparison_is_strict():
    # equality with the bonus must not trigger (strict inequality rule)
    beta = 0.51
    m_new = optimal_degree(beta)
    gain = useful_prob(m_new, beta) - useful_prob(2, beta)
    assert not degree_update_due(2, beta, 1000, Threshold(gain + 1e-12))


# (scheme, label, kind) accepted at k=50 -> recovered counts outside its range
OUT_OF_RANGE = {
    ("ofc", "build-up", LCR): (-1, 50),
    ("ofc", "seeding", BLACK): (-1, 50),
    ("ofcnb", "seeding", BETA): (-1, 50),
    ("sofc", "systematic", BETA): (-1, 50),
    ("ofc", "completion", BETA): (-1, 50),
    ("ofc", "build-up", COMPLETE): (-1, 51),
    ("sofc", "self-completion", COMPLETE): (-1, 51),
}


@pytest.mark.parametrize("scheme,label,kind", sorted(OUT_OF_RANGE, key=str))
def test_out_of_range_recovered_is_a_protocol_error(scheme, label, kind):
    enc = walk_encoder(scheme, label)
    before = state(enc)
    most = 50 if kind is COMPLETE else 49
    for recovered in OUT_OF_RANGE[scheme, label, kind]:
        with pytest.raises(ProtocolError, match=f"^recovered {recovered} outside 0..{most}"):
            enc.on_feedback(FeedbackMsg(kind, recovered))
        assert state(enc) == before
    enc.on_feedback(FeedbackMsg(kind, most))


def test_phase_errors_come_before_range_errors():
    enc = walk_encoder("ofc", "build-up")
    with pytest.raises(ProtocolError, match="^unexpected BETA_UPDATE in phase BUILD_UP$"):
        enc.on_feedback(FeedbackMsg(BETA, 50))
    enc.on_feedback(FeedbackMsg(COMPLETE, 50))
    with pytest.raises(ProtocolError, match="^feedback after session completion$"):
        enc.on_feedback(FeedbackMsg(COMPLETE, 51))


# First pool-branch degree per k: random.sample shuffles a pool once
# k <= 21 + 4 ** ceil(log4(3m)), i.e. from m = 86 for k = 278..1045 and from
# m = 342 for k = 1046..4117.
_FIRST_POOL_DEGREE = {1024: 86, 1045: 86, 2048: 342, 4095: 342, 4096: 342, 4117: 342}


@pytest.mark.parametrize(
    "k,m",
    [(k, m) for k, first in _FIRST_POOL_DEGREE.items() for m in sorted({first, 1023, 1024, k}) if m <= k],
)
def test_sampler_pool_replay_either_side_of_its_k_threshold(k, m):
    # the bulk replay runs from k = 4096 on, the inline shuffle below it
    enc, ref = _sampler_encoder(k, seed=k + m)
    for _ in range(2):
        got = enc._sample(m)
        assert got == tuple(sorted(ref.sample(range(k), m)))
        assert {type(i) for i in got} == {int}
    assert enc.rng.getstate() == ref.getstate()


@pytest.mark.parametrize("k", [22, 23, 1000, 1024, 1025, 4096, 100000, 131072, 131073])
def test_sampler_degree_two_reproduces_random_sample(k):
    # k = 22 is the first k whose degree 2 takes the set branch; at small k
    # the second draw often repeats the first
    enc, ref = _sampler_encoder(k, seed=k)
    for _ in range(60):
        got = enc._sample(2)
        assert got == tuple(sorted(ref.sample(range(k), 2)))
        assert enc.rng.getstate() == ref.getstate()


# random.sample's set size, 21 + 4 ** ceil(log4(3m)) for m > 5, on either
# side of each of its steps: it takes the pool branch iff k <= set size.
_SET_SIZE = {5: 21, 6: 85, 21: 85, 22: 277, 85: 277, 86: 1045, 341: 1045, 342: 4117}


@pytest.mark.parametrize(
    "k,m",
    [(k, m) for lo, hi in ((5, 6), (21, 22), (85, 86), (341, 342))
     for k in sorted({_SET_SIZE[lo], _SET_SIZE[lo] + 1, _SET_SIZE[hi], _SET_SIZE[hi] + 1})
     for m in (lo, hi) if m <= k],
)
def test_sampler_set_or_pool_decision_at_set_size_steps(monkeypatch, k, m):
    pooled = []
    for name in ("_pool_sample", "_bulk_pool_sample"):
        def spy(getrandbits, k, m, _fn=getattr(schemes, name)):
            pooled.append(m)
            return _fn(getrandbits, k, m)

        monkeypatch.setattr(schemes, name, spy)
    enc, ref = _sampler_encoder(k, seed=k + m)
    for _ in range(3):
        assert enc._sample(m) == tuple(sorted(ref.sample(range(k), m)))
    assert enc.rng.getstate() == ref.getstate()
    assert pooled == ([m] * 3 if k <= _SET_SIZE[m] else [])


def test_receiver_sofc_without_seq_reads_the_pass_end_from_the_symbol():
    k = 6
    rcv = Receiver(k, SOFC(), track_values=False)
    for i in range(4):
        assert rcv.receive(CodedSymbol((i,))) is None
    # index 4 erased; index k-1 is the last systematic symbol
    msg = rcv.receive(CodedSymbol((k - 1,)))
    assert msg is not None and msg.kind is FeedbackKind.BETA_UPDATE
    assert msg.recovered == 5
    # erased tail: the first completion symbol (degree >= 2) ends the pass
    rcv = Receiver(k, SOFC(), track_values=False)
    for i in range(4):
        assert rcv.receive(CodedSymbol((i,))) is None
    msg = rcv.receive(CodedSymbol((4, 5)))
    assert msg is not None and msg.kind is FeedbackKind.BETA_UPDATE
    assert msg.recovered == 4


def _sofc_hand_session(k, eps, seed, with_seq):
    """Encoder -> channel -> receiver -> encoder with zero feedback delay."""
    enc = Encoder(SOFC(), SourceBlock(k, (b"",) * k), seed=seed)
    rcv = Receiver(k, SOFC(), track_values=False)
    chan = ErasureChannel(eps, seed=seed)
    sent, msgs = 0, []
    while enc.phase is not Phase.DONE and sent < 50 * k:
        sym = enc.next_symbol()
        if chan.deliver(sent):
            msg = rcv.receive(sym, sent if with_seq else None)
            if msg is not None:
                msgs.append((sent, msg))
                enc.on_feedback(msg)
        sent += 1
    return sent, msgs


@pytest.mark.parametrize("k,eps,seed", [(50, 0.1, 1), (200, 0.3, 4), (20, 0.5, 2), (1000, 0.05, 3)])
def test_sofc_session_without_seq_matches_the_session_with_it(k, eps, seed):
    sent, msgs = _sofc_hand_session(k, eps, seed, with_seq=True)
    assert _sofc_hand_session(k, eps, seed, with_seq=False) == (sent, msgs)
    result = run_session(SOFC(), k, eps, seed=seed)
    assert (sent, len(msgs)) == (result.sent_total, result.feedback_total)


@pytest.mark.parametrize("config", [OFC(), OFCNB(0.01), OFCNB(0.3), SOFC()], ids=["ofc", "ofcnb-0.01", "ofcnb-0.3", "sofc"])
def test_receiver_mirror_equals_the_encoder_state_after_each_message(monkeypatch, config):
    # The receiver picks its next message from the (phase, degree) it
    # mirrors, so after each message it sends, the encoder that applies that
    # message must hold the same pair.  SOFC's encoder enters completion at
    # the end of an unanswered index pass by applying a BETA_UPDATE of its
    # own through on_feedback; that message has no mirror entry and is
    # counted apart.
    mirrored, applied, produced = [], [], {}
    self_sent = 0
    send, on_feedback = Receiver._send, Encoder.on_feedback

    def spy_send(rcv, kind):
        msg = send(rcv, kind)
        produced[id(msg)] = msg   # kept alive, so its id stays unique
        mirrored.append((rcv._mirror, rcv._encoder_m))
        return msg

    def spy_on_feedback(enc, msg):
        nonlocal self_sent
        on_feedback(enc, msg)
        if produced.get(id(msg)) is msg:
            applied.append((enc.phase, enc.current_m))
        else:
            self_sent += 1

    monkeypatch.setattr(Receiver, "_send", spy_send)
    monkeypatch.setattr(Encoder, "on_feedback", spy_on_feedback)
    for policy in (EveryDegreeChange(), Threshold()):
        for delay in (0, 3):
            for seed in range(8):
                mirrored.clear()
                applied.clear()
                r = run_session(config, 300, 0.1, policy, seed=seed, feedback_delay=delay)
                assert not r.budget_exceeded
                assert applied == mirrored, (policy, delay, seed)
    # the sessions cover SOFC's self-entry: a lost last systematic slot or a
    # delayed answer leaves the pass unanswered
    assert (self_sent > 0) == isinstance(config, SOFC)
