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

    Slot outcomes are 8192-slot blocks of a counter-based Philox stream.
    :meth:`deliver` computes the block holding a slot directly, by advancing
    a fresh generator past the blocks before it, and keeps only that block:
    a slot's answer does not depend on when or how often it is asked, and
    memory stays at one block however far the session runs.
    """

    def __init__(self, epsilon: float, seed: int = 0, trial_id: int = 0):
        if not 0.0 <= epsilon < 1.0:
            raise ValueError(f"epsilon must be in [0, 1), got {epsilon}")
        self.epsilon = epsilon
        self._stream = _substream(seed, trial_id, _CHANNEL_STREAM)
        self._block_index = -1
        self._block: list[bool] = []

    def _draws(self, first_block: int, n_slots: int) -> np.ndarray:
        bits = np.random.Philox(self._stream)
        # Philox yields four 64-bit draws per counter step, one per slot.
        bits.advance(first_block * _BLOCK // 4)
        return np.random.Generator(bits).random(n_slots) >= self.epsilon

    def deliver(self, slot: int) -> bool:
        """True when the symbol sent in ``slot`` reaches the receiver."""
        if slot < 0:
            raise ValueError("slot must be non-negative")
        block, offset = divmod(slot, _BLOCK)
        if block != self._block_index:
            # Python bools: indexing a list beats indexing an array.
            self._block = self._draws(block, _BLOCK).tolist()
            self._block_index = block
        return self._block[offset]

    def deliver_mask(self, n_slots: int) -> np.ndarray:
        """Delivery outcomes for slots 0..n_slots-1 as a boolean array."""
        if n_slots < 0:
            raise ValueError("n_slots must be non-negative")
        return self._draws(0, n_slots)
