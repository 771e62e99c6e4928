import random

import pytest

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
