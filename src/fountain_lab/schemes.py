"""Encoder and receiver state machines for the three feedback-driven schemes.

Three encoders share one completion phase (degree-adaptive symbols at the
optimal degree for the last fed-back recovery fraction) and differ in how
they get there:

* ``OFC``   -- degree-2 symbols grow one large component to a fraction
  ``beta0`` of the nodes, then degree-1 symbols until that component turns
  black, then completion.
* ``OFCNB`` -- random degree-1 symbols until a fraction ``gamma0`` is
  recovered, then completion immediately (no component build-up stage).
* ``SOFC``  -- every source symbol is sent exactly once, in index order,
  then completion.

The receiver drives all phase changes through feedback messages, and both
sides read the one table of phase changes, ``_TRANSITIONS``, through
:func:`_next_phase`.  Zero feedback latency and a lossless feedback channel
are assumed; a configurable delay exists in the session driver for
experimentation.
"""

from __future__ import annotations

import enum
import math
import random
import warnings
from dataclasses import dataclass

from .channel import encoder_seed
from .degree import optimal_degree, useful_prob
from .graph import Case, CodedSymbol, DecodeGraph, SourceBlock

__all__ = [
    "OFC",
    "OFCNB",
    "SOFC",
    "SchemeConfig",
    "EveryDegreeChange",
    "Threshold",
    "FeedbackPolicy",
    "Phase",
    "FeedbackKind",
    "FeedbackMsg",
    "ProtocolError",
    "Encoder",
    "Receiver",
    "degree_update_due",
    "scheme_name",
]


class ProtocolError(RuntimeError):
    """A feedback message arrived that the current phase cannot accept."""


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
            warnings.warn(
                "gamma0 > 0.5 buys no extra intermediate performance and "
                "inflates the full-recovery overhead",
                UserWarning,
                stacklevel=2,
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


class Phase(enum.Enum):
    BUILD_UP = "build-up"
    DEGREE1_SEEDING = "degree1-seeding"
    SYSTEMATIC = "systematic"
    COMPLETION = "completion"
    DONE = "done"


class FeedbackKind(enum.IntEnum):
    LARGEST_COMPONENT_REACHED = 0
    COMPONENT_BLACK = 1
    BETA_UPDATE = 2
    COMPLETE = 3


@dataclass(frozen=True)
class FeedbackMsg:
    """Receiver-to-sender control message; ``recovered`` is the black count."""

    kind: FeedbackKind
    recovered: int = 0


# The protocol: (scheme, phase, message) -> next phase.  For every scheme,
# COMPLETE also ends any phase and BETA_UPDATE keeps COMPLETION in
# COMPLETION; any other message is a ProtocolError.  SOFC's encoder enters
# COMPLETION by itself when its index pass ends with no feedback seen.
_TRANSITIONS: dict[tuple[type, Phase, FeedbackKind], Phase] = {
    (OFC, Phase.BUILD_UP, FeedbackKind.LARGEST_COMPONENT_REACHED): Phase.DEGREE1_SEEDING,
    (OFC, Phase.DEGREE1_SEEDING, FeedbackKind.COMPONENT_BLACK): Phase.COMPLETION,
    (OFCNB, Phase.DEGREE1_SEEDING, FeedbackKind.BETA_UPDATE): Phase.COMPLETION,
    (SOFC, Phase.SYSTEMATIC, FeedbackKind.BETA_UPDATE): Phase.COMPLETION,
}

# Opening (phase, degree) of each scheme.
_START: dict[type, tuple[Phase, int]] = {
    OFC: (Phase.BUILD_UP, 2),
    OFCNB: (Phase.DEGREE1_SEEDING, 1),
    SOFC: (Phase.SYSTEMATIC, 1),
}


def _next_phase(config: SchemeConfig, phase: Phase, kind: FeedbackKind) -> Phase:
    """The phase after a ``kind`` message in ``phase``; ProtocolError if none."""
    if phase is Phase.DONE:
        raise ProtocolError("feedback after session completion")
    if kind is FeedbackKind.COMPLETE:
        return Phase.DONE
    if kind is FeedbackKind.BETA_UPDATE and phase is Phase.COMPLETION:
        return phase
    nxt = _TRANSITIONS.get((type(config), phase, kind))
    if nxt is None:
        raise ProtocolError(f"unexpected {kind.name} in phase {phase.name}")
    return nxt


def degree_update_due(m_current: int, beta: float, k: int, policy: FeedbackPolicy) -> bool:
    """Completion-phase rule: should the receiver feed back a new degree?

    With the threshold policy the update is sent only when the freshly
    optimal degree beats the degree the encoder is still using by more than
    ``delta_p`` in usable probability, both evaluated at the current beta.
    """
    m_new = optimal_degree(beta, k)
    if m_new == m_current:
        return False
    if isinstance(policy, EveryDegreeChange):
        return True
    return useful_prob(m_new, beta) > useful_prob(m_current, beta) + policy.delta_p


class Encoder:
    """Sender-side phase machine; emits coded symbols, consumes feedback."""

    def __init__(
        self,
        config: SchemeConfig,
        source: SourceBlock,
        seed: int = 0,
        trial_id: int = 0,
    ):
        self.config = config
        self.source = source
        self.k = source.k
        # A block of empty payloads is counting mode: symbols carry no bytes.
        self._carries_payloads = source.symbol_size > 0
        self.rng = random.Random(encoder_seed(seed, trial_id))
        self.phase, self.current_m = _START[type(config)]
        self.known_recovered = 0
        self.phase_sent: dict[str, int] = {}
        self._next_index = 0

    @property
    def known_beta(self) -> float:
        return self.known_recovered / self.k

    def _emit(self, indices: tuple[int, ...]) -> CodedSymbol:
        payload = self.source.encode(indices) if self._carries_payloads else None
        label = self.phase.value
        self.phase_sent[label] = self.phase_sent.get(label, 0) + 1
        return CodedSymbol._trusted(indices, payload)

    def _sample(self, m: int) -> tuple[int, ...]:
        """``tuple(sorted(rng.sample(range(k), m)))``, drawn without its overhead.

        Above CPython's set-size cut-off ``random.sample`` keeps redrawing
        ``getrandbits(k.bit_length())`` until a draw is below k and unseen;
        this loop makes exactly those calls, so the generator state and the
        result match it.  At or below the cut-off (and for m > k, which it
        rejects) ``random.sample`` runs its pool branch itself.
        """
        k = self.k
        setsize = 21
        if m > 5:
            setsize += 4 ** math.ceil(math.log(m * 3, 4))
        if k <= setsize:
            return tuple(sorted(self.rng.sample(range(k), m)))
        getrandbits = self.rng.getrandbits
        bits = k.bit_length()
        selected: set[int] = set()
        add = selected.add
        while len(selected) < m:
            j = getrandbits(bits)
            if j < k and j not in selected:
                add(j)
        return tuple(sorted(selected))

    def next_symbol(self) -> CodedSymbol:
        if self.phase is Phase.DONE:
            raise ProtocolError("session already complete")
        if self.phase is Phase.SYSTEMATIC:
            if self._next_index < self.k:
                idx = self._next_index
                self._next_index += 1
                return self._emit((idx,))
            # All indexes sent and no feedback seen yet (tail frames erased):
            # fall through to completion with the stale recovery estimate.
            self.phase = Phase.COMPLETION
            self.current_m = optimal_degree(self.known_beta, self.k)
        return self._emit(self._sample(self.current_m))

    def on_feedback(self, msg: FeedbackMsg) -> None:
        self.phase = phase = _next_phase(self.config, self.phase, msg.kind)
        if phase is Phase.DEGREE1_SEEDING:
            # OFC's build-up is over; seeding needs no recovery estimate.
            self.current_m = 1
            return
        self.known_recovered = msg.recovered
        if phase is Phase.COMPLETION:
            self.current_m = optimal_degree(self.known_beta, self.k)


class Receiver:
    """Decoder plus feedback generator.

    Mirrors the encoder's phase, advancing it by the same protocol table
    (``_TRANSITIONS``), so it knows which event to watch for: component-size
    threshold and component-black for OFC, the recovered-count threshold for
    OFCNB, and end of the systematic pass for SOFC (detected from delivered
    sequence numbers, so it works identically over the framed link).  During
    completion it applies the degree-update policy.  Emits at most one
    message per delivered symbol; COMPLETE subsumes anything else.
    """

    def __init__(
        self,
        k: int,
        config: SchemeConfig,
        policy: FeedbackPolicy = EveryDegreeChange(),
        track_values: bool = True,
    ):
        self.k = k
        self.config = config
        self.policy = policy
        self.graph = DecodeGraph(k, track_values=track_values)
        self._mirror, self._encoder_m = _START[type(config)]
        if isinstance(config, OFC):
            self._threshold = math.ceil(config.beta0 * k)
        elif isinstance(config, OFCNB):
            self._threshold = math.ceil(config.gamma0 * k)
        self._marker: int | None = None
        self.feedback_sent = 0

    @property
    def recovered(self) -> int:
        return self.graph.recovered_count

    @property
    def complete(self) -> bool:
        return self.graph.complete

    def recovered_payloads(self) -> list[bytes | None]:
        return list(self.graph.values)

    def _send(self, kind: FeedbackKind) -> FeedbackMsg:
        """Advance the mirror as the encoder will on ``kind``; returns the message."""
        self._mirror = _next_phase(self.config, self._mirror, kind)
        if self._mirror is Phase.COMPLETION:
            self._encoder_m = optimal_degree(self.graph.beta(), self.k)
        self.feedback_sent += 1
        return FeedbackMsg(kind, self.graph.recovered_count)

    def receive(self, sym: CodedSymbol, seq: int | None = None) -> FeedbackMsg | None:
        """Process one delivered symbol; returns the feedback to send, if any."""
        cls, newly = self.graph.process(sym)
        # Only the symbol that recovers the last node completes the graph.
        if newly and self.graph.complete:
            return self._send(FeedbackKind.COMPLETE)
        mirror = self._mirror
        if mirror is Phase.COMPLETION:
            # beta only moves on a recovery; at an unchanged beta the encoder's
            # degree was already synced or found not due.
            if newly and degree_update_due(self._encoder_m, self.graph.beta(), self.k, self.policy):
                return self._send(FeedbackKind.BETA_UPDATE)
        elif mirror is Phase.BUILD_UP:
            if self.graph.largest_white_component() >= self._threshold:
                # Remember one member of the threshold component; components
                # only merge, so it stays inside as the component grows.
                self._marker = cls.a if cls.case is Case.CASE2 else sym.indices[0]
                return self._send(FeedbackKind.LARGEST_COMPONENT_REACHED)
        elif mirror is Phase.DEGREE1_SEEDING:
            if self._marker is not None:   # OFC: wait for the marked component
                if self.graph.color[self._marker]:
                    return self._send(FeedbackKind.COMPONENT_BLACK)
            elif self.graph.recovered_count >= self._threshold:
                return self._send(FeedbackKind.BETA_UPDATE)
        elif mirror is Phase.SYSTEMATIC:
            # seq k-1 is the last systematic slot; any larger seq means the
            # sender has moved on and some tail frames were erased.
            if seq is not None and seq >= self.k - 1:
                return self._send(FeedbackKind.BETA_UPDATE)
        return None
