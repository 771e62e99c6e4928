"""Degree selection for feedback-driven fountain encoding.

A coded symbol is the XOR of ``m`` distinct source symbols.  With a fraction
``beta`` of the source already recovered at the receiver, a fresh symbol is
immediately decodable when all but one of its constituents are known
(case 1), and turns into a pending pairwise relation when exactly two are
unknown (case 2).  Everything else is dead weight.  The encoder therefore
picks the degree maximizing the probability of landing in case 1 or case 2.

The closed forms below treat index selection as m independent draws, which
is accurate for large k; :func:`exact_case_probs` gives the exact
without-replacement probabilities for validation.
"""

from __future__ import annotations

import math
from functools import lru_cache

__all__ = [
    "case1_prob",
    "case2_prob",
    "useful_prob",
    "optimal_degree",
    "completion_prob",
    "exact_case_probs",
]


def case1_prob(m: int, beta: float) -> float:
    """Probability that a degree-m symbol has exactly one unrecovered constituent."""
    if m < 1:
        raise ValueError(f"degree must be >= 1, got {m}")
    return m * beta ** (m - 1) * (1.0 - beta)


def case2_prob(m: int, beta: float) -> float:
    """Probability that a degree-m symbol has exactly two unrecovered constituents."""
    if m < 1:
        raise ValueError(f"degree must be >= 1, got {m}")
    if m < 2:
        return 0.0
    return (m * (m - 1) / 2.0) * beta ** (m - 2) * (1.0 - beta) ** 2


def useful_prob(m: int, beta: float) -> float:
    """Probability that a degree-m symbol is immediately usable (case 1 or 2)."""
    return case1_prob(m, beta) + case2_prob(m, beta)


@lru_cache(maxsize=None)
def optimal_degree(beta: float, k: int | None = None) -> int:
    """Degree maximizing the immediately-usable probability at recovery fraction beta.

    Scans m = 1, 2, ... exploiting unimodality of the objective: the scan
    stops once the objective has stayed strictly below the best value for
    three consecutive degrees.  Ties break toward the larger degree.  When
    ``k`` is given the degree is capped at k (a symbol cannot reference more
    than k distinct sources); supply it whenever beta approaches 1.
    """
    if not 0.0 <= beta < 1.0:
        raise ValueError(f"beta must be in [0, 1), got {beta}")
    best_m = 1
    best = useful_prob(1, beta)
    misses = 0
    m = 1
    while True:
        m += 1
        if k is not None and m > k:
            break
        total = useful_prob(m, beta)
        if total >= best:
            best, best_m = total, m
            misses = 0
        else:
            misses += 1
            if misses >= 3:
                break
    return best_m


@lru_cache(maxsize=None)
def completion_prob(n: int, k: int) -> float:
    """Probability that a completion-phase symbol is usable, n of k recovered.

    Evaluates the case-1/case-2 total at beta = n/k with the optimal degree
    for that beta.  Cached: analytic curves sum 1/completion_prob over O(k)
    points and the receiver re-evaluates it after every update.
    """
    if not 0 <= n < k:
        raise ValueError(f"need 0 <= n < k, got n={n}, k={k}")
    beta = n / k
    return useful_prob(optimal_degree(beta, k), beta)


def exact_case_probs(k: int, r: int, m: int) -> tuple[float, float]:
    """Exact case-1/case-2 probabilities for m distinct uniform indices.

    Hypergeometric counterpart of :func:`case1_prob`/:func:`case2_prob` with
    r of k sources recovered; used to validate the independent-draw
    approximation.
    """
    if m > k:
        raise ValueError(f"degree {m} exceeds source count {k}")
    if not 0 <= r <= k:
        raise ValueError(f"recovered count {r} out of range for k={k}")
    denom = math.comb(k, m)
    p1 = math.comb(r, m - 1) * math.comb(k - r, 1) / denom
    p2 = math.comb(r, m - 2) * math.comb(k - r, 2) / denom if m >= 2 else 0.0
    return p1, p2
