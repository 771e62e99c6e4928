"""Encoder and receiver state machines for the three feedback-driven schemes.

Three encoders share one completion phase (symbols at the degree that one
run table per k gives for the last fed-back recovered count) and differ in
how they get there:

* ``OFC``   -- degree-2 symbols grow one large component to a fraction
  ``beta0`` of the nodes, then degree-1 symbols until that component turns
  black, then completion.
* ``OFCNB`` -- random degree-1 symbols until a fraction ``gamma0`` is
  recovered, then completion immediately (no component build-up stage).
* ``SOFC``  -- every source symbol is sent exactly once, in index order,
  then completion, on the ``BETA_UPDATE`` that ends the pass; if none has
  come back when the pass ends, the encoder acts on one it has not received.

The receiver drives all phase changes through feedback messages, and both
ends apply one step to each, :func:`_step`, which reads the one table of
phase changes, ``_TRANSITIONS``.  Zero feedback latency and a lossless
feedback channel are assumed; a configurable delay exists in the session
driver for experimentation.
"""

from __future__ import annotations

import enum
import math
import random
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .channel import encoder_seed
from .config import (
    OFC,
    OFCNB,
    SOFC,
    EveryDegreeChange,
    FeedbackPolicy,
    SchemeConfig,
    Threshold,
    scheme_name,
)
from .degree import _table_degree, optimal_degree, useful_prob
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
# COMPLETION; any other message is a ProtocolError.
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


_SYSTEMATIC, _COMPLETION, _DONE = Phase.SYSTEMATIC, Phase.COMPLETION, Phase.DONE


def _step(config: SchemeConfig, phase: Phase, m: int, kind: FeedbackKind, n: int, k: int) -> tuple[Phase, int]:
    """The encoder's ``(phase, m)`` after a ``kind`` message reporting ``n`` of
    ``k`` recovered: degree 1 on entering seeding, the optimal degree at
    ``n / k`` in completion.  ProtocolError, before any change, if ``phase``
    takes no ``kind`` or ``n`` is out of range."""
    if phase is _DONE:
        raise ProtocolError("feedback after session completion")
    if kind is FeedbackKind.COMPLETE:
        nxt = _DONE
    elif kind is FeedbackKind.BETA_UPDATE and phase is _COMPLETION:
        nxt = phase
    elif (nxt := _TRANSITIONS.get((type(config), phase, kind))) is None:
        raise ProtocolError(f"unexpected {kind.name} in phase {phase.name}")
    # Only COMPLETE may report every node recovered.
    most = k if nxt is _DONE else k - 1
    if not 0 <= n <= most:
        raise ProtocolError(f"recovered {n} outside 0..{most} in {kind.name}")
    if nxt is _COMPLETION:
        return nxt, _table_degree(n, k)
    return nxt, 1 if nxt is Phase.DEGREE1_SEEDING else m


def degree_update_due(m_current: int, beta: float, k: int, policy: FeedbackPolicy) -> bool:
    """Completion-phase rule: should the receiver feed back a new degree?

    With the threshold policy the update is sent only when the freshly
    optimal degree beats the degree the encoder is still using by more than
    ``delta_p`` in usable probability, both evaluated at the current beta.
    """
    return _update_due(m_current, optimal_degree(beta, k), beta, policy)


def _update_due(m_current: int, m_new: int, beta: float, policy: FeedbackPolicy) -> bool:
    if m_new == m_current:
        return False
    if isinstance(policy, EveryDegreeChange):
        return True
    return useful_prob(m_new, beta) > useful_prob(m_current, beta) + policy.delta_p


# When Encoder._sample draws its generator words in bulk, measured on 2 vCPUs
# with CPython 3.11 and numpy 2.4.  Set branch: from degree 256, near its
# crossovers of m = 130-190 (k from 4096 to 1e6).  Pool branch: from k = 4096
# at any degree, because the crossover moves with k, not m.  The bulk replay
# takes 0.67-0.90x the inline shuffle's time at k = 4096 (m = 342 to 4096),
# 0.88-1.16x at k = 2048 and 1.23-1.67x at k = 1024.
_BULK_SET_MIN = 256
_BULK_POOL_K = 4096
# Words per bulk draw, which bounds the temporaries, and the number of draws
# left below which the scalar loops finish.
_CHUNK = 4096
_TAIL = 32


def _first_pool_degree(k: int) -> int:
    """The least m for which ``random.sample(range(k), m)`` shuffles a pool.

    CPython pools iff ``k <= 21``, or ``m > 5`` and ``k - 21 <= 4 ** c`` with
    ``c = ceil(log4(3m))``.  With ``4 ** e`` the least power of 4 not below
    ``k - 21``, the latter holds iff ``c >= e``, iff ``3m > 4 ** (e - 1)``.
    CPython's float ``log(3m, 4)`` has the exact ceiling for ``m < 2**31``: 3m
    is never a power of 4, so ``log4(3m)`` is over 1.6e-10 from any integer,
    far above the float error of about 1e-14.
    """
    e = ((k - 22).bit_length() + 1) // 2
    return 1 if k <= 21 else max(6, 4 ** e // 12 + 1)


def _words(getrandbits, n: int) -> np.ndarray:
    """The generator's next ``n`` 32-bit outputs, in order.

    ``getrandbits(32 * n)`` fills its result from the least significant word
    up, one Mersenne Twister output per 32 bits, so its little-endian bytes
    are those outputs in draw order; ``getrandbits(b)`` for ``b <= 32`` is
    one output shifted right by ``32 - b``.
    """
    return np.frombuffer(getrandbits(32 * n).to_bytes(4 * n, "little"), dtype="<u4")


def _bulk_set_sample(getrandbits, k: int, m: int) -> tuple[int, ...]:
    """``random.sample``'s set branch for ``k < 2**31``, in bulk rounds.

    Each draw ``j = getrandbits(bits)`` adds ``j`` if it is below k and new,
    so ``m - len(selected)`` more draws can never overshoot: every round
    consumes all its words, exactly as the scalar loop would.
    """
    bits = k.bit_length()
    selected = np.empty(0, np.uint32)
    while (need := m - len(selected)) > _TAIL:
        j = _words(getrandbits, min(need, _CHUNK)) >> (32 - bits)
        merged = np.concatenate((selected, j[j < k]))
        merged.sort()
        # np.unique does the same but takes ~20x as long here.
        first = np.empty(len(merged), bool)
        first[:1] = True
        np.not_equal(merged[1:], merged[:-1], out=first[1:])
        selected = merged[first]
    taken = selected.tolist()
    extra: set[int] = set()
    while len(extra) < need:
        j = getrandbits(bits)
        if j < k and j not in extra:
            i = bisect_left(taken, j)
            if i == len(taken) or taken[i] != j:
                extra.add(j)
    taken += extra
    taken.sort()
    return tuple(taken)


def _pool_sample(getrandbits, k: int, m: int) -> tuple[int, ...]:
    """``random.sample``'s pool branch (Fisher-Yates over ``range(k)``) for
    ``m <= k``, with its ``_randbelow`` calls written out.

    Step i draws ``getrandbits(b)`` with ``b = (k - i).bit_length()`` until a
    draw is below ``k - i``, takes ``pool[r]`` and moves ``pool[k-1-i]`` into
    slot r.  ``b`` drops by one each time ``k - i`` falls below ``low``.
    """
    pool = list(range(k))
    taken: list[int] = []
    take = taken.append
    b = k.bit_length()
    low = 1 << (b - 1)
    for n in range(k, k - m, -1):
        if n < low:
            b -= 1
            low >>= 1
        r = getrandbits(b)
        while r >= n:
            r = getrandbits(b)
        take(pool[r])
        pool[r] = pool[n - 1]
    taken.sort()
    return tuple(taken)


def _bulk_pool_sample(getrandbits, k: int, m: int) -> tuple[int, ...]:
    """``random.sample``'s pool branch (Fisher-Yates over ``range(k)``) for
    ``m <= k < 2**31``, replayed on arrays.

    Step i draws ``r_i = getrandbits(b)`` with ``b = (k - i).bit_length()``
    until ``r_i < k - i``, takes ``pool[r_i]`` and moves ``pool[k-1-i]`` into
    slot ``r_i``, so after m steps slots ``0 .. k-m-1`` hold the values not
    taken.  :func:`_shuffle_draws` finds every ``r_i``; the sample is the
    complement of what those slots hold.
    """
    chosen = np.ones(k, bool)
    chosen[_shuffle_left(_shuffle_draws(getrandbits, k, m), k)] = False
    return tuple(np.flatnonzero(chosen).tolist())


def _shuffle_draws(getrandbits, k: int, m: int) -> np.ndarray:
    """The accepted draws ``r_0 .. r_{m-1}`` of the shuffle's first m steps."""
    r = np.empty(m, np.int32)
    i = 0
    while i < m:
        n = k - i
        b = n.bit_length()
        # Each word settles at most one step, so ``size`` words stay within
        # the steps left and within the steps drawn with b bits.
        size = min(m - i, n - (1 << (b - 1)) + 1, _CHUNK)
        if size < _TAIL:
            v = getrandbits(b)
            while v >= n:
                v = getrandbits(b)
            r[i] = v
            i += 1
            continue
        v = _words(getrandbits, size) >> (32 - b)
        # A word is accepted at step i + s when v < n - s, for an s between
        # 0 and size - 1 that depends on the accepts before it in the chunk.
        # Only the words with n - size < v < n depend on that s.
        accept = v <= n - size
        unsure = np.flatnonzero((v > n - size) & (v < n))
        if len(unsure):
            before = np.cumsum(accept, dtype=np.int32)[unsure] - accept[unsure]
            late = 0
            hits = []
            for t, vt, bt in zip(unsure.tolist(), v[unsure].tolist(), before.tolist()):
                if vt < n - bt - late:
                    hits.append(t)
                    late += 1
            accept[hits] = True
        got = v[accept]
        r[i:i + len(got)] = got
        i += len(got)
    return r


def _shuffle_left(r: np.ndarray, k: int) -> np.ndarray:
    """What slots ``0 .. k-m-1`` hold after the shuffle steps with draws ``r``.

    A slot holds what the last step writing it moved there, or its own index
    if no step wrote it.  Step i moved the content of slot ``k-1-i``: no
    later step writes that slot, so it came from the slot's last writer, or
    is ``k-1-i``.  Following those links back to a step whose source slot was
    never written gives each moved value, by pointer jumping.  (When
    ``r_i = k-1-i`` step i is its source slot's last writer itself; such a
    step moves nothing, and no link or kept slot leads to it.)
    """
    m = len(r)
    steps = np.arange(m, dtype=np.int32)
    last_write = np.full(k, -1, np.int32)
    np.maximum.at(last_write, r, steps)
    src = last_write[::-1][:m]
    root = np.where(src < 0, steps, src)
    while not np.array_equal(hop := root[root], root):
        root = hop
    kept = last_write[:k - m]
    return np.where(kept < 0, np.arange(k - m, dtype=np.int32), (k - 1) - root[kept])


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
        # The draw width and the generator's getrandbits, read once for
        # _sample; self.rng is never rebound, so the method stays bound to it.
        self._bits, self._getrandbits = self.k.bit_length(), self.rng.getrandbits
        # random.sample's branch depends on (k, m) only: pool from this m on.
        self._pool_from = _first_pool_degree(self.k)
        self.phase, self.current_m = _START[type(config)]
        self.known_recovered = 0
        # Symbols sent so far, and (phase value, count at entry) per phase entered.
        self._sent = 0
        self._entries: list[tuple[str, int]] = [(self.phase.value, 0)]

    @property
    def phase_sent(self) -> dict[str, int]:
        """Symbols sent per phase, keyed by ``Phase.value`` in the order the
        phases first sent; a phase that sent nothing has no key."""
        # A phase ends where the next one was entered; the current one, now.
        ends = [at for _, at in self._entries[1:]] + [self._sent]
        return {value: end - at for (value, at), end in zip(self._entries, ends) if end > at}

    def _sample(self, m: int) -> tuple[int, ...]:
        """``tuple(sorted(rng.sample(range(k), m)))``, drawn without its overhead.

        The result and the generator state after it equal what
        ``random.sample`` gives on CPython 3.10-3.13.  Below CPython's
        set-size cut-off (m below ``_pool_from``, set once per encoder)
        ``random.sample`` keeps redrawing ``getrandbits(k.bit_length())``
        until a draw is below k and unseen; that draw width and the bound
        ``getrandbits`` are read once per encoder, in ``__init__``.  From the
        cut-off on, it runs Fisher-Yates over a pool of all k values.  Which
        path runs depends only on (k, m):

        * set branch, m = 2: two redraw loops, the second also skipping the
          first draw, and one compare to sort the pair;
        * set branch, other m < ``_BULK_SET_MIN``: the loop below, making
          exactly those calls;
        * set branch, larger m: :func:`_bulk_set_sample`, which takes the
          same 32-bit words in bulk and merges them with numpy;
        * pool branch, k < ``_BULK_POOL_K``: :func:`_pool_sample`, the
          shuffle with ``_randbelow``'s ``getrandbits`` loop written out;
        * pool branch, larger k: :func:`_bulk_pool_sample`, which replays
          the shuffle on arrays;
        * m > k: ``random.sample`` itself, which rejects it.

        The bulk paths never draw a word the scalar code would not, and need
        ``k < 2**31`` (at most 31 bits per draw, int32 indices).
        """
        k = self.k
        bulk = k < 1 << 31
        if m >= self._pool_from:
            if m > k:
                return tuple(sorted(self.rng.sample(range(k), m)))
            if bulk and k >= _BULK_POOL_K:
                return _bulk_pool_sample(self._getrandbits, k, m)
            return _pool_sample(self._getrandbits, k, m)
        getrandbits, bits = self._getrandbits, self._bits
        if m == 2:
            a = getrandbits(bits)
            while a >= k:
                a = getrandbits(bits)
            b = getrandbits(bits)
            while b >= k or b == a:
                b = getrandbits(bits)
            return (a, b) if a < b else (b, a)
        if bulk and m >= _BULK_SET_MIN:
            return _bulk_set_sample(getrandbits, k, m)
        selected: set[int] = set()
        add = selected.add
        while len(selected) < m:
            j = getrandbits(bits)
            if j < k:
                add(j)
        return tuple(sorted(selected))

    def next_symbol(self) -> CodedSymbol:
        phase = self.phase
        # SYSTEMATIC opens the session, so the running count is the next index.
        if phase is _SYSTEMATIC and self._sent < self.k:
            indices: tuple[int, ...] = (self._sent,)
        else:
            if phase is _DONE:
                raise ProtocolError("session already complete")
            if phase is _SYSTEMATIC:
                # All indexes sent and no feedback seen yet (tail frames erased
                # or answer delayed): act on the pass's closing BETA_UPDATE.
                # SYSTEMATIC accepts only messages that leave it, so no
                # recovered count has come back yet: it is 0.
                self.on_feedback(FeedbackMsg(FeedbackKind.BETA_UPDATE, 0))
            indices = self._sample(self.current_m)
        self._sent += 1
        return CodedSymbol._trusted(indices, self.source.encode(indices) if self._carries_payloads else None)

    def on_feedback(self, msg: FeedbackMsg) -> None:
        phase, self.current_m = _step(self.config, self.phase, self.current_m, msg.kind, msg.recovered, self.k)
        if phase is not self.phase:
            self.phase = phase
            self._entries.append((phase.value, self._sent))
        # OFC's build-up is over; seeding needs no recovery estimate.
        if phase is not Phase.DEGREE1_SEEDING:
            self.known_recovered = msg.recovered


class Receiver:
    """Decoder plus feedback generator.

    Mirrors the encoder's phase and degree, advancing them by the same step
    (:func:`_step`), so it knows which event to watch for: component-size
    threshold and component-black for OFC, the recovered-count threshold for
    OFCNB, and end of the systematic pass for SOFC (detected from the
    delivered sequence number ``seq``, so it works identically over the
    framed link; without ``seq``, from the symbol's indices).  During
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
    def complete(self) -> bool:
        return self.graph.complete

    def _send(self, kind: FeedbackKind) -> FeedbackMsg:
        """Advance the mirror as the encoder will on ``kind``; returns the message."""
        n = self.graph.recovered_count
        self._mirror, self._encoder_m = _step(self.config, self._mirror, self._encoder_m, kind, n, self.k)
        self.feedback_sent += 1
        return FeedbackMsg(kind, n)

    def receive(self, sym: CodedSymbol, seq: int | None = None) -> FeedbackMsg | None:
        """Process one delivered symbol; returns the feedback to send, if any.

        ``sym`` is any object with strictly increasing ``indices`` and a
        ``payload``, such as the ``DataFrame`` the framed link decodes.
        """
        graph = self.graph
        cls, newly = graph.process(sym)
        # Only the symbol that recovers the last node completes the graph, and
        # COMPLETE subsumes any other message.
        if newly and graph.recovered_count == self.k:
            return self._send(FeedbackKind.COMPLETE)
        mirror = self._mirror
        if mirror is _COMPLETION:
            # beta only moves on a recovery; at an unchanged beta the encoder's
            # degree was already synced or found not due.
            n = graph.recovered_count
            if newly and _update_due(self._encoder_m, _table_degree(n, self.k), n / self.k, self.policy):
                return self._send(FeedbackKind.BETA_UPDATE)
            return None
        if mirror is Phase.BUILD_UP:
            # In build-up only a CASE2 merge grows a component (degree-2
            # symbols, nothing black); end a stays in it as components merge.
            if cls.case is Case.CASE2 and graph.component_size(cls.a) >= self._threshold:
                self._marker = cls.a
                return self._send(FeedbackKind.LARGEST_COMPONENT_REACHED)
        elif mirror is Phase.DEGREE1_SEEDING:
            if self._marker is not None:   # OFC: wait for the marked component
                if graph.color[self._marker]:
                    return self._send(FeedbackKind.COMPONENT_BLACK)
            elif graph.recovered_count >= self._threshold:
                return self._send(FeedbackKind.BETA_UPDATE)
        elif mirror is _SYSTEMATIC:
            # seq k-1 is the last systematic slot; any larger seq means the
            # sender has moved on and some tail frames were erased.  Without
            # seq the symbol shows it: systematic symbol i goes out in slot i,
            # and every completion symbol has degree >= 2 (optimal_degree >= 2).
            if seq is None:
                seq = sym.indices[0] if len(sym.indices) == 1 else self.k
            if seq >= self.k - 1:
                return self._send(FeedbackKind.BETA_UPDATE)
        return None
