import hashlib
import math

import numpy as np
import pytest

from fountain_lab import analytics
from fountain_lab.analytics import (
    DEGREE_AT_HALF,
    buildup_symbols,
    compare_to_curve,
    epsilon_threshold,
    expected_curve,
    expected_ofc,
    expected_ofcnb,
    expected_ofcnb_general,
    expected_ofcnb_large,
    expected_ofcnb_small,
    expected_sofc,
    expected_transmitted,
    lossy_adjust,
    mean_selection_degree,
)
from fountain_lab.degree import _completion_probs, _optimal_degrees, completion_prob, optimal_degree
from fountain_lab.schemes import OFC, OFCNB, SOFC

K = 1000
LN2 = math.log(2)
COMPLETION_FACTOR = 1 - DEGREE_AT_HALF / 4


def completion_sum(k, lo, hi):
    # independent re-summation against the module's cached prefix
    return sum(1.0 / completion_prob(i, k) for i in range(lo, hi))


def test_constants():
    assert abs(DEGREE_AT_HALF - 1.3863) < 1e-4
    assert abs(epsilon_threshold() - 0.3267) < 1e-4
    assert epsilon_threshold() == pytest.approx(0.5 - LN2 / 4)
    assert buildup_symbols(0.5, K) == pytest.approx(K * LN2)
    with pytest.raises(ValueError):
        mean_selection_degree(1.0)


def test_ofc_half_point_and_single_step():
    assert expected_ofc(500, K) == pytest.approx(K * LN2, rel=1e-9)
    step = COMPLETION_FACTOR / completion_prob(500, K)
    assert expected_ofc(501, K) == pytest.approx(K * LN2 + step, rel=1e-9)
    assert expected_ofc(501, K) == pytest.approx(694.02, abs=0.05)


def test_ofc_flat_before_half_and_errors():
    assert expected_ofc(10, K) == expected_ofc(499, K) == pytest.approx(K * LN2)
    with pytest.raises(ValueError):
        expected_ofc(0, K)
    with pytest.raises(ValueError):
        expected_ofc(K + 1, K)


def test_ofc_against_independent_sum():
    want = K * LN2 + COMPLETION_FACTOR * completion_sum(K, 500, 900)
    assert expected_ofc(900, K) == pytest.approx(want, rel=1e-12)


def test_ofcnb_small_pieces():
    g = 10  # gamma0*k
    assert expected_ofcnb_small(7, K, 0.01) == 7.0
    assert expected_ofcnb_small(g, K, 0.01) == float(g)
    u = 300 - g
    want = -(K * K) * math.log1p(-u / K) / (2 * u)
    assert expected_ofcnb_small(300, K, 0.01) == pytest.approx(want, rel=1e-12)
    with pytest.raises(ValueError):
        expected_ofcnb_small(300, K, 0.2)


def test_ofcnb_small_full_recovery_matches_two_phase():
    a = expected_ofcnb_small(K, K, 0.01)
    b = expected_ofc(K, K)
    assert abs(a - b) / b < 0.01


def test_ofcnb_large_values():
    s = round(K * (1 - math.exp(-1)))
    assert expected_ofcnb_large(s, K, 0.8) == pytest.approx(K, rel=2e-3)
    assert expected_ofcnb_large(500, K, 0.5) == pytest.approx(K * LN2, rel=1e-9)
    assert expected_ofcnb_large(K, K, 1.0) == math.inf
    with pytest.raises(ValueError):
        expected_ofcnb_large(500, K, 0.3)


def test_ofcnb_general_half_point_identity():
    for gamma0 in (0.05, 0.1, 0.3, 0.45):
        assert expected_ofcnb_general(500, K, gamma0) == pytest.approx(K * LN2, rel=1e-9)
    with pytest.raises(ValueError):
        expected_ofcnb_general(500, K, 0.6)


def test_ofcnb_general_stored_edge_composition():
    # recompute the completion factor from completion_prob directly
    gamma0, g, half = 0.3, 300, 500
    p_u = 0.5 * (completion_prob(g, K) + completion_prob(half, K))
    edges = math.log(2 - 2 * gamma0) * K * p_u - (0.5 - gamma0) * K
    want = K * LN2 + (1 - 2 * edges / K) * completion_sum(K, half, 800)
    assert expected_ofcnb_general(800, K, 0.3) == pytest.approx(want, rel=1e-12)


def test_ofcnb_general_slope_limit():
    # stage-average cost per recovery tends to 2*ln2 as seeding vanishes
    slope = math.log(2 - 2e-6) / (0.5 - 1e-6)
    assert slope == pytest.approx(2 * LN2, rel=1e-5)
    # and the small-seeding form agrees on the stage average
    avg = (expected_ofcnb_small(500, K, 0.001) - 1) / (500 - 1)
    assert avg == pytest.approx(2 * LN2, rel=5e-3)


def test_half_recovery_constant_across_regimes():
    # the half point costs k*ln2 for every seeding fraction; the small-
    # seeding form carries an O(gamma0) offset, so its bound is looser
    assert expected_ofcnb(500, K, 0.1) == pytest.approx(K * LN2, rel=5e-3)
    assert expected_ofcnb(500, K, 0.3) == pytest.approx(K * LN2, rel=5e-3)
    assert expected_ofcnb(500, K, 0.5) == pytest.approx(K * LN2, rel=5e-3)
    assert expected_ofcnb(500, K, 0.01) == pytest.approx(K * LN2, rel=1e-2)


def test_sofc_lossless_is_identity():
    for s in (1, 123, 500, K):
        assert expected_sofc(s, K, 0.0) == float(s)


def test_sofc_table_operating_point():
    k = 512
    overhead = expected_sofc(k, k, 0.1) / k
    assert abs(overhead - 1.18) <= 0.05 * 1.18


def test_sofc_matches_two_phase_at_threshold():
    eps0 = epsilon_threshold()
    sofc = expected_sofc(K, K, eps0)
    ofc = lossy_adjust(expected_ofc(K, K), eps0)
    assert abs(sofc - ofc) / ofc < 0.02


def test_sofc_regime_seam_is_smooth():
    for s in (300, 600, 900, K):
        below = expected_sofc(s, K, 0.4999)
        above = expected_sofc(s, K, 0.5001)
        assert abs(below - above) / below < 0.002


def test_ordering_flips_at_threshold():
    eps0 = epsilon_threshold()
    for eps in np.arange(0.05, 0.96, 0.05):
        sofc = expected_sofc(K, K, float(eps))
        ofc = lossy_adjust(expected_ofc(K, K), float(eps))
        diff = sofc - ofc
        if abs(diff) <= 0.01 * ofc:
            continue  # inside the crossover tolerance band
        assert (diff < 0) == (eps < eps0), eps


# -- piecewise continuity at the breakpoints --------------------------------


def test_continuity_ofcnb_small_at_half():
    gamma0, g = 0.01, 10
    right_piece_at_half = -K * math.log(0.5 + gamma0) / (1 - 2 * gamma0)
    assert abs(expected_ofcnb_small(500, K, gamma0) - right_piece_at_half) <= 1e-6 * K


def test_cliff_ofcnb_small_at_seeding_boundary():
    # genuine discontinuity: recovery stalls until the large component
    # emerges, so the curve jumps from gamma0*k to about k/2 here
    jump = expected_ofcnb_small(11, K, 0.01) - expected_ofcnb_small(10, K, 0.01)
    assert jump > 0.3 * K


def test_continuity_ofcnb_large_at_seeding_boundary():
    for gamma0 in (0.5, 0.8):
        g = round(gamma0 * K)
        right = -K * math.log1p(-gamma0)
        assert abs(expected_ofcnb_large(g, K, gamma0) - right) <= 1e-6 * K


def test_continuity_ofcnb_general_at_both_breakpoints():
    for gamma0 in (0.1, 0.3):
        g = round(gamma0 * K)
        right_at_g = -K * math.log1p(-gamma0)
        assert abs(expected_ofcnb_general(g, K, gamma0) - right_at_g) <= 1e-6 * K
        assert abs(expected_ofcnb_general(500, K, gamma0) - K * LN2) <= 1e-6 * K


def test_continuity_sofc_at_breakpoints():
    for eps in (0.1, 0.4):
        r = round((1 - eps) * K)
        assert abs(expected_sofc(r, K, eps) - K) <= 1e-6 * K
    eps = 0.7
    r = round((1 - eps) * K)
    assert abs(expected_sofc(r, K, eps) - K) <= 1e-6 * K
    right_at_half = K + K * math.log(2 * eps) / (1 - eps)
    assert abs(expected_sofc(500, K, eps) - right_at_half) <= 1e-6 * K
    eps = 0.995
    right_at_half = K + K * LN2 / (1 - eps)
    assert abs(expected_sofc(500, K, eps) - right_at_half) <= 1e-6 * K


# -- global curve properties -------------------------------------------------


def test_lower_bound_one_symbol_per_recovery():
    grid = [1, 50, 137, 300, 500, 640, 900, K]
    for s in grid:
        assert expected_ofc(s, K) >= s - 1e-9
        for gamma0 in (0.01, 0.1, 0.3, 0.5, 0.9):
            assert expected_ofcnb(s, K, gamma0) >= s - 1e-9
        for eps in (0.0, 0.1, 0.4, 0.7, 0.995):
            assert expected_sofc(s, K, eps) >= s / (1 - eps) - 1e-9


def test_seeding_tradeoff_monotonicity():
    # more seeding: better (<=) before the half point, worse (>=) at the end;
    # 1% slack absorbs the small-seeding form's O(gamma0) offset at s = k/2
    gammas = [0.01, 0.1, 0.3, 0.5]
    for s in (5, 60, 200, 350, 500):
        vals = [expected_ofcnb(s, K, g) for g in gammas]
        for a, b in zip(vals, vals[1:]):
            assert b <= a * 1.01, (s, vals)
    finals = [expected_ofcnb(K, K, g) for g in gammas]
    for a, b in zip(finals, finals[1:]):
        assert b >= a * 0.995, finals


def test_lossy_adjust_values_and_dispatch():
    assert lossy_adjust(693.1, 0.0) == pytest.approx(693.1)
    assert lossy_adjust(693.1, 0.5) == pytest.approx(1386.2)
    k = 512
    ofc_lossy = expected_transmitted(OFC(), k, k, 0.1)
    assert ofc_lossy == pytest.approx(expected_ofc(k, k) / 0.9, rel=1e-12)
    assert ofc_lossy / k == pytest.approx(1.32, abs=0.05 * 1.32)
    # systematic curves already embed eps: dispatch must not divide again
    assert expected_transmitted(SOFC(), k, k, 0.1) == expected_sofc(k, k, 0.1)
    with pytest.raises(ValueError):
        expected_transmitted(OFC(beta0=0.4), k, k, 0.0)
    with pytest.raises(ValueError):
        lossy_adjust(100.0, 1.0)


def test_expected_curve_shapes():
    curve = expected_curve(SOFC(), 64, 0.0)
    assert curve.shape == (64,)
    assert np.allclose(curve, np.arange(1, 65))
    curve = expected_curve(OFCNB(0.3), 200, 0.1)
    assert np.all(np.diff(curve) >= -1e-9)


def test_compare_to_curve_toy():
    milestones = np.arange(1, 101)
    analytic = np.linspace(10, 1000, 100)
    report = compare_to_curve(milestones, analytic * 1.02, analytic, 100, band=(0.05, 0.98))
    assert report["max_rel_err"] == pytest.approx(0.02, rel=1e-6)
    assert report["mean_rel_err"] == pytest.approx(0.02, rel=1e-6)
    assert report["n_points"] == 94


def test_expected_curve_rejects_fewer_than_two_symbols():
    for k in (1, 0, -5):
        with pytest.raises(ValueError, match="k >= 2"):
            expected_curve(OFC(), k)
    with pytest.raises(ValueError, match="k >= 2"):
        expected_ofcnb_small(1, 1, 0.01)


# -- golden curves: SHA-256 of expected_curve(...).tobytes() ----------------
# computed before the closed forms were vectorised; any change in the last
# bit of any point fails these

GOLDEN_CURVES = [
    (OFC, (), 1000, 0.0, "fb4e9bf35c4ac19877908c31a1d92e8fa51877183c833f2f6b784509183d8d69"),
    (OFC, (), 4096, 0.0, "bb39a5d73117972e67e01e34f664c4d726c02b39ebcabf557a7ab7121a7ec411"),
    (OFC, (), 100000, 0.0, "10b64fc793307f96f97f359fe0bb58cfd325ab87c0155efb814ba750dad63d73"),
    (OFC, (), 1000, 0.1, "910057fc0a08f195fbbf1e6671d92f9c16bba819096db7dec6d8b1787b2ea5c3"),
    (OFC, (), 4096, 0.1, "7fbdac48635f5de53d36d531cf44c5854c653d8c39b723702842294d05f0c8bb"),
    (OFC, (), 100000, 0.1, "c826ed82bf84d6cd158612b3edc63dc6dcc6c8ae82a7708fc67a15f82d642682"),
    (OFCNB, (0.01,), 1000, 0.0, "6aabbf095c7f43c48126ce2c5c80c65d00f783c42c3d3bd24b29f2913edaeefa"),
    (OFCNB, (0.01,), 4096, 0.0, "92b1201307a127c235e91805c58eb77adb8205b2a2bc01951a1730ffda7e7339"),
    (OFCNB, (0.01,), 100000, 0.0, "eb5e021535d85a18a0ff89b6555a3550f58bb260eac48cd6742bf4a510c1c2b2"),
    (OFCNB, (0.01,), 1000, 0.1, "75adc14949a99113653af9beefebbda36a98e589d461220f8b5af8ce2654ef76"),
    (OFCNB, (0.01,), 4096, 0.1, "37084505d3e54f4eb3f2c72684d83300bc456014f7e85baec2d83e9e7f99001b"),
    (OFCNB, (0.01,), 100000, 0.1, "11c94008a2cb4764423d0f7190a568780c7f58a9dcd199614a2ee5c8839fa8f3"),
    (SOFC, (), 1000, 0.0, "585faf7ba0df729ffb58c3e8476f297bae92a4e521706c9ca269a150be75cab6"),
    (SOFC, (), 4096, 0.0, "8ff64bb9c05d50d55e41099b3e3301f1b6ff6d43029a9d316859d957efd3b554"),
    (SOFC, (), 100000, 0.0, "252014329b19bc2b5ae6e9aa33a26520bcbac77e0727c7d5a5114fb9b586514b"),
    (SOFC, (), 1000, 0.1, "1b7476f40c8ebacbdb738f11fbb5a839b06f071122eb7fc4401553a4affaa5cc"),
    (SOFC, (), 4096, 0.1, "b99f378fe5ef7c794a2ef3b1d0fd52d9f196c6c4ebaf274ef44a5ae6c420bd22"),
    (SOFC, (), 100000, 0.1, "80a3428a6f3bb92f324ccadc3250f463d7ca193f7fa29637c1801c36a8e38808"),
    # one case per remaining regime
    (OFCNB, (0.05,), 1000, 0.1, "c59fff876c6c4ae317b817e382f56105262e1a285e1f2a43afa1d5c9c8b13d92"),
    (OFCNB, (0.3,), 1000, 0.1, "e09760dabd37eecac3447dd837ce17984cd71384c05346cbae8cd4168d99bd4c"),
    (OFCNB, (0.8,), 1000, 0.1, "7dfe8f260d8b85a8ae8982dec120fd1a35ddaa6523dfc3be62c292b3ddc2dad1"),
    (OFCNB, (1.0,), 1000, 0.1, "5c1b58257f4cecdbccc838ef437b4be124c900df0ac172147476dc197f3de5d6"),
    (SOFC, (), 1000, 0.6, "3f28424cfc7051a3cb436dc73426349395ced0fbb9be1055970654235d1d7244"),
    (SOFC, (), 1000, 0.995, "5ac23d35570408eb0a60b4b14ea2f668cb52c8708a60df8ff10f2cd04b4a4ee1"),
]


@pytest.mark.filterwarnings("ignore:gamma0 > 0.5")
@pytest.mark.parametrize("scheme,args,k,eps,digest", GOLDEN_CURVES)
def test_golden_curves(scheme, args, k, eps, digest):
    curve = expected_curve(scheme(*args), k, eps)
    assert curve.shape == (k,)
    assert hashlib.sha256(curve.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("k", [7, 36, 205, 3600, 7000, 7380, 100002])
def test_completion_table_matches_scalar(k):
    # these k put beta = n/k on exact degree ties (1/2, 6/7, 35/36, ...);
    # both degrees of a tie give bit-equal probabilities here, so the
    # degrees are pinned as well
    assert _optimal_degrees(k).tolist() == [optimal_degree(n / k, k) for n in range(k)]
    want = np.array([completion_prob(n, k) for n in range(k)])
    assert _completion_probs(k).tobytes() == want.tobytes()


def test_scalar_calls_at_one_k_build_the_completion_table_once(monkeypatch):
    k = 2000
    builds = []

    def counting(size):
        builds.append(size)
        return _completion_probs(size)

    analytics._completion_prefix.cache_clear()
    monkeypatch.setattr(analytics, "_completion_probs", counting)
    values = [expected_ofc(s, k) for s in (1500, 1999)]
    assert builds == [k]
    curve = expected_curve(OFC(), k)
    assert values[0] == curve[1499] and values[1] == curve[1998]
    assert builds == [k]


@pytest.mark.filterwarnings("ignore:gamma0 > 0.5")
@pytest.mark.parametrize("eps", [0.1, 0.7])
def test_scalar_forms_before_the_completion_breakpoint_build_no_table(monkeypatch, eps):
    k = 2000
    builds = []

    def counting(size):
        builds.append(size)
        return _completion_probs(size)

    monkeypatch.setattr(analytics, "_completion_probs", counting)
    # the last s before each form's completion tail: half recovery, the end
    # of heavy seeding at gamma0 * k, or SOFC's end of the index pass at
    # (1 - eps) * k when eps <= 0.5
    breakpoints = [
        (OFC(), 1000),
        (OFCNB(0.01), 1000),
        (OFCNB(0.3), 1000),
        (OFCNB(0.8), 1600),
        (SOFC(), 1800 if eps == 0.1 else 1000),
    ]
    for config, last in breakpoints:
        analytics._completion_prefix.cache_clear()
        builds.clear()
        for s in (1, last // 2, last):
            expected_transmitted(config, s, k, eps)
        assert builds == [], config
        expected_transmitted(config, last + 1, k, eps)
        assert builds == [k], config


def test_scalar_forms_reject_bad_eps_and_unknown_config():
    with pytest.raises(ValueError, match=r"eps must be in \[0, 1\), got 1.0"):
        expected_sofc(1, 10, 1.0)
    with pytest.raises(TypeError, match="unknown scheme config"):
        expected_transmitted(object(), 1, 10)
