"""Degree selection for feedback-driven fountain encoding.

A coded symbol is the XOR of ``m`` distinct source symbols.  With a fraction
``beta`` of the source already recovered at the receiver, a fresh symbol is
immediately decodable when all but one of its constituents are known
(case 1), and turns into a pending pairwise relation when exactly two are
unknown (case 2).  Everything else is dead weight.  The encoder therefore
picks the degree maximizing the probability of landing in case 1 or case 2;
sessions and the completion table read it from one table of its runs per k.

The closed forms below treat index selection as m independent draws, which
is accurate for large k; :func:`exact_case_probs` gives the exact
without-replacement probabilities for validation.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
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


def _degree_at(n: int, k: int) -> int:
    """The completion table's degree at n: ``optimal_degree(n / k, k)``."""
    return optimal_degree(n / k, k)


def _degree_runs(k: int):
    """Yield (first n, end, degree) for each run of equal ``optimal_degree(n / k, k)``
    over n = 0..k-1: 73 runs at k = 1000, 150 at 4096 and 750 at 1e5.

    Degree m gives way to a larger one at beta_m = 1 - 2 / (2 + sqrt(2m(m - 1))),
    the root of (m + 1)(m - 2)x^2 + 4x - 2 in :func:`optimal_degree`.  A run of
    degree m from a ends near ceil(k * beta_m); :func:`_degree_at` walks that
    float guess up, then down, to the exact end, within one n in practice: at
    most three calls a run.  Exactness needs only that the degree never
    decreases in n, which holds:

    * the exact root rises strictly in beta, and float noise in it is about
      1e-15 relative, far below :func:`optimal_degree`'s 1e-6 tie window, so
      the floored root cannot step back;
    * inside a window, :func:`optimal_degree` compares ``useful_prob`` at the
      two degrees.  Their exact difference changes sign once, at the tie,
      with slope 0.486 to 1 in beta at every tie, so rounding can misplace
      that sign change by about 1e-15 in beta: never past a neighbouring n
      while k < 1e14, even where a window spans several n, d root/dn < 1e-6
      (near beta = 0, where every n gets degree 2, and for k above about
      5e6 at the first step, beta = 1/2, where d root/dn is 5.3/k).
    """
    a = 0
    m = d = _degree_at(0, k)
    while a < k:
        beta_m = 1.0 - 2.0 / (2.0 + math.sqrt(2 * m * (m - 1)))
        hi = min(max(a + 1, math.ceil(k * beta_m)), k)
        while hi < k and (d := _degree_at(hi, k)) == m:
            hi += 1
        while hi - 1 > a and (e := _degree_at(hi - 1, k)) != m:
            hi, d = hi - 1, e
        yield a, hi, m
        a, m = hi, d


@lru_cache(maxsize=1)
def _cached_runs(k: int, rule) -> tuple[tuple[int, ...], ...]:
    """The runs' firsts, ends and degrees, for the latest k and ``rule``, the
    ``optimal_degree`` in force: a patched rule is not served stale runs."""
    return tuple(zip(*_degree_runs(k)))


def _table_degree(n: int, k: int) -> int:
    """``optimal_degree(n / k, k)`` for 0 <= n < k, read from the runs of k."""
    starts, _, degrees = _cached_runs(k, optimal_degree)
    return degrees[bisect_right(starts, n) - 1]


def _completion_table(k: int) -> list[float]:
    """``completion_prob(n, k)`` for n = 0..k-1 (k >= 2), bit-equal: each run
    repeats :func:`useful_prob` term for term with its degree's constants
    hoisted (``**`` is the C ``pow`` in both)."""
    probs = []
    append = probs.append
    for a, hi, m in _degree_runs(k):
        # useful_prob(m, beta) = case1_prob + case2_prob
        e1 = m - 1
        e2 = m - 2
        c = m * (m - 1) / 2.0
        for n in range(a, hi):
            beta = n / k
            x = 1.0 - beta
            append(m * beta ** e1 * x + c * beta ** e2 * x ** 2)
    return probs


def _optimal_degrees(k: int) -> array:
    """``optimal_degree(n / k, k)`` for n = 0..k-1, expanded from the runs of k."""
    return array("q", [m for a, hi, m in zip(*_cached_runs(k, optimal_degree)) for _ in range(a, hi)])


def _completion_probs(k: int) -> array:
    return array("d", _completion_table(k))


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
