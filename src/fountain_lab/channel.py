"""Memoryless binary erasure channel with counter-addressable randomness.

Every delivery decision is a pure function of (master seed, trial id, slot):
trials can run in any order or on any number of workers without changing a
single outcome.  Per-trial substreams are derived by feeding
(seed, trial_id, stream tag) into numpy's SeedSequence, which is a stable,
documented splitting scheme.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ErasureChannel", "encoder_seed", "source_seed"]

# Fixed tags keep the channel, encoder, and source-payload streams disjoint.
_CHANNEL_STREAM = 0xC4A
_ENCODER_STREAM = 0xE2C
_SOURCE_STREAM = 0x50B

_BLOCK = 8192


def _substream(master_seed: int, trial_id: int, stream: int) -> np.random.SeedSequence:
    if master_seed < 0 or trial_id < 0:
        raise ValueError("seed and trial_id must be non-negative")
    return np.random.SeedSequence((master_seed, trial_id, stream))


def encoder_seed(master_seed: int, trial_id: int) -> int:
    """Deterministic integer seed for the encoder's index sampler."""
    return int(_substream(master_seed, trial_id, _ENCODER_STREAM).generate_state(1, np.uint64)[0])


def source_seed(master_seed: int, trial_id: int) -> int:
    """Deterministic integer seed for generating source payloads."""
    return int(_substream(master_seed, trial_id, _SOURCE_STREAM).generate_state(1, np.uint64)[0])


class ErasureChannel:
    """I.i.d. erasures: a slot is delivered with probability 1 - epsilon.

    Outcomes are materialized lazily in blocks from a counter-based Philox
    stream, so :meth:`deliver` for a given slot returns the same answer no
    matter when or how often it is asked.
    """

    def __init__(self, epsilon: float, seed: int = 0, trial_id: int = 0):
        if not 0.0 <= epsilon < 1.0:
            raise ValueError(f"epsilon must be in [0, 1), got {epsilon}")
        self.epsilon = epsilon
        self.seed = seed
        self.trial_id = trial_id
        self._gen = np.random.Generator(np.random.Philox(_substream(seed, trial_id, _CHANNEL_STREAM)))
        self._mask = np.zeros(0, dtype=bool)

    def _extend(self, upto: int) -> None:
        if upto < len(self._mask):
            return
        # At least double the mask, so a run of n slots copies O(n) in total.
        have = len(self._mask) // _BLOCK
        need = max(upto // _BLOCK + 1, 2 * have)
        blocks = [self._gen.random(_BLOCK) >= self.epsilon for _ in range(need - have)]
        self._mask = np.concatenate([self._mask, *blocks])

    def deliver(self, slot: int) -> bool:
        """True when the symbol sent in ``slot`` reaches the receiver."""
        if slot < 0:
            raise ValueError("slot must be non-negative")
        self._extend(slot)
        return bool(self._mask[slot])

    def deliver_mask(self, n_slots: int) -> np.ndarray:
        """Delivery outcomes for slots 0..n_slots-1 as a boolean array."""
        if n_slots < 0:
            raise ValueError("n_slots must be non-negative")
        if n_slots:
            self._extend(n_slots - 1)
        return self._mask[:n_slots].copy()
