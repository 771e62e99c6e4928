"""Feedback-driven rateless erasure codes over the binary erasure channel.

The package bundles three encoder variants sharing one peeling decoder, the
closed-form expected-overhead curves that predict them, a reproducible Monte
Carlo harness that validates simulation against the curves, and a bit-exact
frame format with an in-process lossy file-transfer pipeline.
"""

from .analytics import (
    DEGREE_AT_HALF,
    epsilon_threshold,
    expected_curve,
    expected_ofc,
    expected_ofcnb,
    expected_ofcnb_general,
    expected_ofcnb_large,
    expected_ofcnb_small,
    expected_sofc,
    lossy_adjust,
)
from .channel import ErasureChannel
from .degree import completion_prob, exact_case_probs, optimal_degree, useful_prob
from .graph import Case, Classification, CodedSymbol, DecodeGraph, SourceBlock
from .schemes import (
    OFC,
    OFCNB,
    SOFC,
    Encoder,
    EveryDegreeChange,
    FeedbackKind,
    FeedbackMsg,
    ProtocolError,
    Receiver,
    Threshold,
)
from .sim import (
    AggregateResult,
    PayloadMismatch,
    SessionResult,
    monte_carlo,
    run_session,
    sweep_epsilon,
)
from .wire import TransferFailed, TransferReport, decode_frame, encode_data, transfer

__version__ = "0.1.0"

__all__ = [
    "Case",
    "Classification",
    "CodedSymbol",
    "DecodeGraph",
    "SourceBlock",
    "ErasureChannel",
    "optimal_degree",
    "useful_prob",
    "completion_prob",
    "exact_case_probs",
    "OFC",
    "OFCNB",
    "SOFC",
    "Encoder",
    "Receiver",
    "EveryDegreeChange",
    "Threshold",
    "FeedbackKind",
    "FeedbackMsg",
    "ProtocolError",
    "run_session",
    "monte_carlo",
    "sweep_epsilon",
    "SessionResult",
    "AggregateResult",
    "PayloadMismatch",
    "DEGREE_AT_HALF",
    "epsilon_threshold",
    "expected_ofc",
    "expected_ofcnb",
    "expected_ofcnb_small",
    "expected_ofcnb_general",
    "expected_ofcnb_large",
    "expected_sofc",
    "expected_curve",
    "lossy_adjust",
    "encode_data",
    "decode_frame",
    "transfer",
    "TransferReport",
    "TransferFailed",
]
