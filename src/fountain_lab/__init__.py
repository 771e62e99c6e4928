"""Feedback-driven rateless erasure codes over the binary erasure channel.

The package bundles three encoder variants sharing one peeling decoder, the
closed-form expected-overhead curves that predict them, a reproducible Monte
Carlo harness that validates simulation against the curves, and a bit-exact
frame format with an in-process lossy file-transfer pipeline.

``import fountain_lab`` loads no submodule.  Each name in ``__all__`` and
each submodule (``fountain_lab.sim``, ``fountain_lab.analytics``, ...) is
imported at its first use, so a caller pays only for what it touches:
``fountain-lab predict`` loads the closed forms, not the session loop.  An
exported name is looked up in its home module on every access and never
stored here, so it is always the object that module holds.
"""

import sys

__version__ = "0.1.0"

# home module -> the names exported from it
_EXPORTS = {
    "graph": ("Case", "Classification", "CodedSymbol", "DecodeGraph", "SourceBlock"),
    "channel": ("ErasureChannel",),
    "degree": ("optimal_degree", "useful_prob", "completion_prob", "exact_case_probs"),
    # the configurations live in .config; through schemes, as before, a
    # config object comes with the encoder side loaded
    "schemes": (
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
    ),
    "sim": (
        "run_session",
        "monte_carlo",
        "sweep_epsilon",
        "SessionResult",
        "AggregateResult",
        "PayloadMismatch",
    ),
    "analytics": (
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
    ),
    "wire": ("encode_data", "decode_frame", "transfer", "TransferReport", "TransferFailed"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset((*_EXPORTS, "cli", "config"))

__all__ = list(_HOME)


def _submodule(name):
    # __import__ rather than importlib.import_module: only the former takes
    # the interpreter's import path, which ``python -X importtime`` reports
    full = f"{__name__}.{name}"
    __import__(full)
    return sys.modules[full]


def __getattr__(name):
    if name in _HOME:
        return getattr(_submodule(_HOME[name]), name)
    if name in _SUBMODULES:
        return _submodule(name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
