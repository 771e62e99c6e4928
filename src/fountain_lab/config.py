"""Scheme and feedback-policy configurations: plain values, checked on creation.

This module imports nothing else from the package, so the closed forms
(:mod:`fountain_lab.analytics`) and the command line read a configuration
without loading the encoder, the decoder or the session loop.
:mod:`fountain_lab.schemes` re-exports every name here.
"""

from __future__ import annotations

import dataclasses
import sys
import warnings
from dataclasses import dataclass

__all__ = [
    "OFC",
    "OFCNB",
    "SOFC",
    "SchemeConfig",
    "EveryDegreeChange",
    "Threshold",
    "FeedbackPolicy",
    "scheme_name",
]


@dataclass(frozen=True)
class OFC:
    """Two-phase scheme: component build-up to fraction beta0, then completion."""

    beta0: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.beta0 < 1.0:
            raise ValueError(f"beta0 must be in (0, 1), got {self.beta0}")


@dataclass(frozen=True)
class OFCNB:
    """Build-up-free scheme: degree-1 seeding to fraction gamma0, then completion."""

    gamma0: float

    def __post_init__(self):
        if not 0.0 < self.gamma0 <= 1.0:
            raise ValueError(f"gamma0 must be in (0, 1], got {self.gamma0}")
        if self.gamma0 > 0.5:
            # name the caller's line, past any dataclasses.replace frames
            level, frame = 3, sys._getframe(2)
            while frame.f_code.co_filename == dataclasses.__file__:
                level, frame = level + 1, frame.f_back
            warnings.warn(
                "gamma0 > 0.5 buys no extra intermediate performance and "
                "inflates the full-recovery overhead",
                UserWarning,
                stacklevel=level,
            )


@dataclass(frozen=True)
class SOFC:
    """Systematic scheme: each source symbol sent once, then completion."""


SchemeConfig = OFC | OFCNB | SOFC


def scheme_name(config: SchemeConfig) -> str:
    return {OFC: "ofc", OFCNB: "ofcnb", SOFC: "sofc"}[type(config)]


@dataclass(frozen=True)
class EveryDegreeChange:
    """Feed back whenever the optimal degree changes."""


@dataclass(frozen=True)
class Threshold:
    """Feed back only when the usable probability improves by more than delta_p."""

    delta_p: float = 0.01

    def __post_init__(self):
        if not 0.0 < self.delta_p < 1.0:
            raise ValueError(f"delta_p must be in (0, 1), got {self.delta_p}")


FeedbackPolicy = EveryDegreeChange | Threshold
