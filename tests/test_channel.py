import hashlib
import random
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from fountain_lab.channel import ErasureChannel, encoder_seed, source_seed


def test_zero_erasure_always_delivers():
    ch = ErasureChannel(0.0, seed=1, trial_id=0)
    assert ch.deliver_mask(10_000).all()


def test_epsilon_validation():
    with pytest.raises(ValueError):
        ErasureChannel(1.0)
    with pytest.raises(ValueError):
        ErasureChannel(-0.2)


def test_outcome_is_pure_function_of_coordinates():
    a = ErasureChannel(0.3, seed=9, trial_id=4)
    b = ErasureChannel(0.3, seed=9, trial_id=4)
    slots = list(range(2000))
    random.Random(0).shuffle(slots)
    for s in slots:                       # query order must not matter
        assert a.deliver(s) == b.deliver(s)
    assert a.deliver(17) == a.deliver(17)
    fresh = ErasureChannel(0.3, seed=9, trial_id=4)
    assert fresh.deliver(17) == a.deliver(17)


# SHA-256 of np.packbits(deliver_mask(3 * 8192 + 17)) for (0.3, seed 9, trial 4)
# and the outcomes around the 8192-slot block boundaries, frozen
GOLDEN_MASK_SHA256 = "fb627836132b3cdbd33e215525439950e250b39f8a02621fd5d2c40fa7201155"
GOLDEN_BOUNDARY = {
    8191: True, 8192: True, 8193: True, 16383: True,
    16384: False, 24575: True, 24576: False, 24592: True,
}


def test_stream_is_frozen_across_block_boundaries():
    mask = ErasureChannel(0.3, seed=9, trial_id=4).deliver_mask(3 * 8192 + 17)
    assert hashlib.sha256(np.packbits(mask).tobytes()).hexdigest() == GOLDEN_MASK_SHA256
    for order in (sorted, lambda s: sorted(s, reverse=True)):
        ch = ErasureChannel(0.3, seed=9, trial_id=4)
        for slot in order(GOLDEN_BOUNDARY):
            assert ch.deliver(slot) == GOLDEN_BOUNDARY[slot] == mask[slot]


def test_far_slot_keeps_one_block_in_memory():
    tracemalloc.start()
    try:
        ch = ErasureChannel(0.3, seed=9, trial_id=4)
        before = tracemalloc.get_traced_memory()[0]
        ch.deliver(5_000_000)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 1 << 20


def test_trials_are_distinct_streams():
    m0 = ErasureChannel(0.5, seed=9, trial_id=0).deliver_mask(4000)
    m1 = ErasureChannel(0.5, seed=9, trial_id=1).deliver_mask(4000)
    assert not np.array_equal(m0, m1)


def test_delivered_fraction_concentrates():
    n = 1_000_000
    mask = ErasureChannel(0.1, seed=3, trial_id=0).deliver_mask(n)
    frac = mask.mean()
    sigma = (0.1 * 0.9 / n) ** 0.5
    assert abs(frac - 0.9) <= 3 * sigma


@pytest.mark.parametrize("eps", [0.1, 0.3, 0.5, 0.7])
def test_chi_square_uniformity(eps):
    n = 100_000
    mask = ErasureChannel(eps, seed=12, trial_id=0).deliver_mask(n)
    delivered = int(mask.sum())
    observed = [delivered, n - delivered]
    expected = [n * (1 - eps), n * eps]
    _, p = stats.chisquare(observed, expected)
    assert p > 0.01


def test_seed_derivations_are_stable_and_disjoint():
    assert encoder_seed(5, 7) == encoder_seed(5, 7)
    assert encoder_seed(5, 7) != encoder_seed(5, 8)
    assert encoder_seed(5, 7) != source_seed(5, 7)
    with pytest.raises(ValueError):
        encoder_seed(-1, 0)


def test_negative_slots_are_rejected():
    chan = ErasureChannel(0.1)
    with pytest.raises(ValueError, match="slot must be non-negative"):
        chan.deliver(-1)
    with pytest.raises(ValueError, match="n_slots must be non-negative"):
        chan.deliver_mask(-1)
