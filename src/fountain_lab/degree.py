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

import numpy as np

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


def optimal_degree(beta: float, k: int | None = None) -> int:
    """Degree maximizing the immediately-usable probability at recovery fraction beta.

    Closed form: with x = 1 - beta, one more degree does not hurt,
    ``useful_prob(m + 1, beta) >= useful_prob(m, beta)``, exactly when
    (m + 1)(m - 2)x^2 + 4x - 2 <= 0, i.e. when m <= M with
    M = 1/2 + sqrt(9x^2 - 16x + 8) / (2x).  The objective is unimodal, so the
    optimum is floor(M) + 1; ties break toward the larger degree.  Exact ties
    (integer M, e.g. beta = 1/2, 6/7, 35/36) are settled by comparing the two
    degrees directly, since a float square root can land on either side of
    the integer.  When ``k`` is given the degree is capped at k (a symbol
    cannot reference more than k distinct sources); supply it whenever beta
    approaches 1.
    """
    if not 0.0 <= beta < 1.0:
        raise ValueError(f"beta must be in [0, 1), got {beta}")
    x = 1.0 - beta
    root = 0.5 + 0.5 * math.sqrt(9.0 * x * x - 16.0 * x + 8.0) / x
    m = math.floor(root) + 1
    tie = round(root)
    if abs(root - tie) < 1e-6:
        m = tie + 1 if useful_prob(tie + 1, beta) >= useful_prob(tie, beta) else tie
    return m if k is None else min(m, k)


def completion_prob(n: int, k: int) -> float:
    """Probability that a completion-phase symbol is usable, n of k recovered.

    Evaluates the case-1/case-2 total at beta = n/k with the optimal degree
    for that beta.
    """
    if not 0 <= n < k:
        raise ValueError(f"need 0 <= n < k, got n={n}, k={k}")
    beta = n / k
    return useful_prob(optimal_degree(beta, k), beta)


def _optimal_degrees(k: int) -> np.ndarray:
    """``optimal_degree(n / k, k)`` for n = 0..k-1, as whole floats.

    floor(M) + 1 over the whole beta grid; the few tie indices go through
    the scalar itself, so its tie rule is the only one.
    """
    beta = np.arange(k) / k
    x = 1.0 - beta
    root = 0.5 + 0.5 * np.sqrt(9.0 * x * x - 16.0 * x + 8.0) / x
    m = np.floor(root) + 1.0
    for n in np.flatnonzero(np.abs(root - np.rint(root)) < 1e-6).tolist():
        m[n] = optimal_degree(n / k)
    return np.minimum(m, k, out=m)


def _completion_probs(k: int) -> np.ndarray:
    """``completion_prob(n, k)`` for n = 0..k-1 (k >= 2), bit-equal to the scalar.

    Powers use ``np.float_power``, which calls the C library's ``pow`` per
    element just as Python's ``**`` does; ``np.power`` may take a SIMD
    ``pow`` that differs in the last bit.
    """
    m = _optimal_degrees(k)
    beta = np.arange(k) / k
    x = 1.0 - beta
    # useful_prob(m, beta) = case1_prob + case2_prob, term for term
    return (m * np.float_power(beta, m - 1) * x
            + (m * (m - 1) / 2.0) * np.float_power(beta, m - 2) * np.float_power(x, 2))


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
