import random
from array import array
from fractions import Fraction
from itertools import combinations

import pytest

from fountain_lab import degree
from fountain_lab.degree import (
    _completion_probs,
    _optimal_degrees,
    case1_prob,
    case2_prob,
    completion_prob,
    exact_case_probs,
    optimal_degree,
    useful_prob,
)


def brute_optimal(beta, m_max=400):
    # independent argmax: plain scan, ties toward the larger degree
    best_m, best = 1, useful_prob(1, beta)
    for m in range(2, m_max + 1):
        t = useful_prob(m, beta)
        if t >= best:
            best, best_m = t, m
    return best_m


def test_case1_values():
    assert case1_prob(1, 0.0) == 1.0
    assert case1_prob(2, 0.5) == pytest.approx(0.5)
    for m in (1, 2, 5, 17):
        assert case1_prob(m, 1.0) == 0.0


def test_case2_values():
    assert case2_prob(1, 0.3) == 0.0
    assert case2_prob(2, 0.5) == pytest.approx(0.25)
    assert case2_prob(2, 0.0) == 1.0


def test_optimal_degree_anchor_points():
    assert optimal_degree(0.3) == 2
    assert optimal_degree(0.6) == 3
    # tie between m=1 and m=2 at beta=0 breaks toward the larger degree
    assert optimal_degree(0.0) == 2


def test_optimal_degree_objective_values_at_06():
    assert useful_prob(2, 0.6) == pytest.approx(0.64)
    assert useful_prob(3, 0.6) == pytest.approx(0.72)
    assert useful_prob(4, 0.6) == pytest.approx(0.6912)


def test_optimal_degree_matches_brute_force():
    rng = random.Random(11)
    betas = [rng.random() * 0.99 for _ in range(60)] + [0.0, 0.5, 0.25, 0.75, 0.9]
    # exact ties between two degrees, where a float square root can land on
    # either side of the integer
    betas += [0.5, 6000 / 7000, 3500 / 3600, 7344 / 7380, 85716 / 100002]
    for beta in betas:
        assert optimal_degree(beta) == brute_optimal(beta)


def one_more_degree_helps(m, beta):
    """Exact useful_prob(m + 1, beta) >= useful_prob(m, beta), in rationals.

    Equivalent to (m + 1)(m - 2)x^2 + 4x - 2 <= 0 with x = 1 - beta; exact
    where adjacent float objective values are equal to the last bit.
    """
    x = 1 - Fraction(beta)
    return (m + 1) * (m - 2) * x * x + 4 * x - 2 <= 0


def test_step_criterion_matches_objective():
    for beta in (0.05, 0.3, 0.6, 0.8, 0.95, 0.99):
        for m in range(1, 60):
            gain = useful_prob(m + 1, beta) - useful_prob(m, beta)
            if abs(gain) > 1e-12:
                assert one_more_degree_helps(m, beta) == (gain > 0), (beta, m)


def test_optimal_degree_near_one():
    # optimal degree grows like sqrt(2)/(1 - beta): a scan would need ~1e9 steps
    for j in range(2, 10):
        beta = 1 - 10.0 ** -j
        m = optimal_degree(beta)
        assert one_more_degree_helps(m - 1, beta), j
        assert not one_more_degree_helps(m, beta), j
    assert optimal_degree(1 - 1e-9, k=10**6) == 10**6


def test_optimal_degree_never_one():
    # useful_prob(2, b) = (1-b)(1+b) >= 1-b = useful_prob(1, b)
    for beta in (0.0, 0.01, 0.2, 0.7, 0.99):
        assert optimal_degree(beta) >= 2


def test_optimal_degree_cap_and_errors():
    assert optimal_degree(0.999, k=50) == 50
    with pytest.raises(ValueError):
        optimal_degree(1.0)
    with pytest.raises(ValueError):
        optimal_degree(-0.1)


def test_optimal_degree_independent_of_k_when_uncapped():
    for beta in (0.1, 0.4, 0.6, 0.85):
        assert optimal_degree(beta) == optimal_degree(beta, k=5000)


def test_completion_prob_anchors():
    assert completion_prob(0, 1000) == pytest.approx(1.0)
    assert completion_prob(500, 1000) == pytest.approx(0.75)
    with pytest.raises(ValueError):
        completion_prob(1000, 1000)


def test_completion_prob_bounds():
    # only the probability bounds are promised; monotonicity is not
    k = 400
    vals = [completion_prob(n, k) for n in range(k)]
    assert all(0.0 < v <= 1.0 for v in vals)


def test_envelope_stays_useful():
    # the best achievable usable probability never dips to coin-flip level
    for i in range(96):
        beta = i / 100
        m = optimal_degree(beta)
        assert useful_prob(m, beta) > 0.5, beta


def enumerate_case_probs(k, r, m):
    # exhaustive oracle over all index sets; nodes 0..r-1 recovered
    n1 = n2 = total = 0
    for combo in combinations(range(k), m):
        unknown = sum(1 for i in combo if i >= r)
        total += 1
        n1 += unknown == 1
        n2 += unknown == 2
    return n1 / total, n2 / total


def test_exact_case_probs_small_enumeration():
    assert exact_case_probs(4, 2, 2) == pytest.approx(enumerate_case_probs(4, 2, 2))
    assert exact_case_probs(4, 2, 2)[0] == pytest.approx(4 / 6)
    for k, r, m in [(6, 3, 2), (7, 4, 3), (8, 2, 4), (9, 8, 9)]:
        assert exact_case_probs(k, r, m) == pytest.approx(enumerate_case_probs(k, r, m))


def test_exact_case_probs_full_cover():
    k = 30
    assert exact_case_probs(k, k - 1, k)[0] == pytest.approx(1.0)


def test_exact_converges_to_independent_draw():
    k = 10_000
    for m in range(1, 11):
        for beta in (0.1, 0.3, 0.5, 0.7, 0.9):
            r = int(beta * k)
            p1x, p2x = exact_case_probs(k, r, m)
            assert abs(p1x - case1_prob(m, r / k)) < 1e-3
            assert abs(p2x - case2_prob(m, r / k)) < 1e-3


def test_exact_case_probs_errors():
    with pytest.raises(ValueError):
        exact_case_probs(4, 2, 5)
    with pytest.raises(ValueError):
        exact_case_probs(4, 5, 2)


@pytest.mark.parametrize("prob", [case1_prob, case2_prob])
def test_case_probs_reject_degree_zero(prob):
    with pytest.raises(ValueError, match="degree must be >= 1, got 0"):
        prob(0, 0.5)


@pytest.mark.parametrize("ks", [range(2, 401), [25_200, 252_000]], ids=["2-400", "ties"])
def test_run_built_table_matches_scalar_forms(ks):
    # the table is built from runs of equal degree; 25_200 and 252_000 put
    # n / k on the exact ties at 1/2, 6/7 and 35/36
    for k in ks:
        assert _optimal_degrees(k).tolist() == [optimal_degree(n / k, k) for n in range(k)], k
        want = array("d", [completion_prob(n, k) for n in range(k)])
        assert _completion_probs(k).tobytes() == want.tobytes(), k


def test_table_costs_a_degree_per_run_not_per_n(monkeypatch):
    calls = []
    degree_at = degree._degree_at

    def counting(n, k):
        calls.append(n)
        return degree_at(n, k)

    monkeypatch.setattr(degree, "_degree_at", counting)
    degree._completion_table(100_000)
    # about 750 runs, each found by galloping and bisecting
    assert 0 < len(calls) <= 10_000


def test_degree_table_lookup_matches_optimal_degree():
    # sessions read their degree from the runs of one k; 25_200 puts n / k on
    # the exact ties at 1/2, 6/7 and 35/36
    for k in [2, 3, 21, 22, 1000, 1024, 4096, 100_000, 25_200]:
        assert [degree._table_degree(n, k) for n in range(k)] == [optimal_degree(n / k, k) for n in range(k)], k
    # the runs are kept for one k at a time, so alternating k rebuilds them
    for n in range(1000):
        for k in (1000, 1024):
            assert degree._table_degree(n, k) == optimal_degree(n / k, k), (n, k)


def test_degree_table_runs_end_exactly_at_large_k(monkeypatch):
    # from about k = 5e6 the tie window at beta = 1/2 spans several n, so the
    # closed-form guess at each run's end must be walked to the exact n
    rng = random.Random(36)
    for k in [5_300_002, 10_000_000, 25_200_000] + [rng.randrange(10**6, 10**8) for _ in range(3)]:
        end = 0
        for a, hi, m in degree._degree_runs(k):
            assert a == end < hi <= k, (k, a, hi)
            assert optimal_degree(a / k, k) == m == optimal_degree((hi - 1) / k, k), (k, a, hi)
            assert hi == k or optimal_degree(hi / k, k) != m, (k, hi)
            end = hi
        assert end == k
    # each end is placed by the closed form and checked, not searched for
    calls = []
    degree_at = degree._degree_at

    def counting(n, k):
        calls.append(n)
        return degree_at(n, k)

    monkeypatch.setattr(degree, "_degree_at", counting)
    for k in (1000, 100_000, 10_000_000):
        calls.clear()
        runs = sum(1 for _ in degree._degree_runs(k))
        assert len(calls) <= 3 * runs, (k, len(calls), runs)
