"""Closed-form expected transmitted-symbol counts for the three schemes.

Each function returns the expected number of transmitted coded symbols
needed to recover ``s`` of ``k`` source symbols.  The derivations rest on
two ingredients:

* random degree-2 symbols grow one large component; reaching a fraction
  ``alpha`` of the nodes costs about ``-k*ln(1-alpha)/(2*alpha)`` symbols
  (:func:`buildup_symbols`), and on the way there the surviving small-
  component edges prepay part of the later work;
* past the halfway point, recovering one more symbol when ``n`` are black
  costs ``1/completion_prob(n, k)`` transmissions, discounted by the stored
  edges.

Each regime is written once (``_ofc``, ``_ofcnb_*``, ``_sofc``), in one
shape: head pieces that are scalar functions of s, then a completion tail
given as four numbers (:func:`_piecewise`).  The public functions evaluate a
regime at a single s and :func:`expected_curve` over s = 1..k in one pass.
Every tail reads one prefix sum of ``1/completion_prob`` per k, built at the
first s past the breakpoint and kept for the latest k, so scalar calls at one
k share it.  Only :func:`expected_curve` and
:func:`compare_to_curve` import numpy: ``fountain-lab predict`` runs without it.

Random-selection schemes extend to a lossy channel by dividing the lossless
count by (1 - eps) (:func:`lossy_adjust`); the systematic scheme's formulas
depend on eps directly and must never be adjusted again.

Caveat: curves for the seeding-to-zero variants are genuinely discontinuous
where degree-2 transmission starts (recovery stalls until the large
component emerges), so continuity holds at the half-recovery breakpoint but
not at the seeding boundary.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate
from typing import TYPE_CHECKING

from .config import OFC, OFCNB, SOFC, SchemeConfig
from .degree import _completion_probs, completion_prob

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "DEGREE_AT_HALF",
    "mean_selection_degree",
    "buildup_symbols",
    "epsilon_threshold",
    "expected_ofc",
    "expected_ofcnb_small",
    "expected_ofcnb_large",
    "expected_ofcnb_general",
    "expected_ofcnb",
    "expected_sofc",
    "lossy_adjust",
    "expected_transmitted",
    "expected_curve",
    "compare_to_curve",
]

LN2 = math.log(2.0)


def mean_selection_degree(alpha: float) -> float:
    """Average times a node is selected when the largest component spans alpha."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    return -math.log1p(-alpha) / alpha


#: Selection degree at the half-size component (2*ln 2, about 1.3863); a
#: quarter of it counts surviving small-component edges per later recovery.
DEGREE_AT_HALF = mean_selection_degree(0.5)

def epsilon_threshold() -> float:
    """Erasure rate above which the systematic scheme loses its full-recovery edge."""
    return 0.5 - DEGREE_AT_HALF / 8.0


def buildup_symbols(alpha: float, k: int) -> float:
    """Expected degree-2 symbols to grow the largest component to fraction alpha."""
    return k * mean_selection_degree(alpha) / 2.0


def _ridx(x: float) -> int:
    """Round a fractional breakpoint to the nearest integer index."""
    return int(math.floor(x + 0.5))


@lru_cache(maxsize=1)
def _completion_prefix(k: int) -> tuple[float, ...]:
    """sum_{i<n} 1/completion_prob(i, k) for n = 0..k, summed left to right.

    Kept for the latest k only, so scalar calls at one k build the table once.
    """
    return tuple(accumulate((1.0 / p for p in _completion_probs(k)), initial=0.0))


def _piecewise(s: range, k: int, *pieces, tail: tuple[int, float, float, float]) -> list[float]:
    """Evaluate a piecewise curve at each s of the ascending range ``s``.

    ``pieces`` are (last, fn) pairs read like an if-chain: fn(s) gives the
    curve at the s that no earlier piece took and that are <= last.  Every
    remaining s falls to the completion ``tail`` = (lo, base, mul, div),
    which gives ``base + (sum_{i=lo}^{s-1} 1/completion_prob(i, k)) * mul / div``.
    A ``mul`` or ``div`` of 1.0 is exact, so each regime's tail keeps the bits
    of its written form.  A piece that takes no s is not evaluated, and the
    completion prefix is fetched only when some s reaches the tail, so a
    single s computes only its own piece.
    """
    out = []
    lo = s.start
    for last, fn in pieces:
        hi = max(lo, min(last + 1, s.stop))
        out += map(fn, range(lo, hi))
        lo = hi
    if lo < s.stop:
        first, base, mul, div = tail
        prefix = _completion_prefix(k)
        offset = prefix[first]
        out += [base + (prefix[t] - offset) * mul / div for t in range(lo, s.stop)]
    return out


def _check_s(s: int, k: int) -> None:
    if k < 2:
        raise ValueError(f"need k >= 2 source symbols, got k={k}")
    if not 1 <= s <= k:
        raise ValueError(f"need 1 <= s <= k, got s={s}, k={k}")


def _check_eps(eps: float) -> None:
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"eps must be in [0, 1), got {eps}")


def _at(curve, s: int, k: int, *args) -> float:
    """Evaluate the piecewise form ``curve(s, k, *args)`` at a single s."""
    _check_s(s, k)
    return curve(range(s, s + 1), k, *args)[0]


def _ofc(s: range, k: int) -> list[float]:
    half = _ridx(k / 2)
    base = k * LN2
    return _piecewise(s, k, (half, lambda s: base),
                      tail=(half, base, 1.0 - DEGREE_AT_HALF / 4.0, 1.0))


def expected_ofc(s: int, k: int) -> float:
    """Two-phase baseline (component threshold at half), lossless channel.

    Nothing is recovered before the build-up budget of k*ln(2) symbols, so
    the curve is flat there; past half recovery each step costs
    (1 - DEGREE_AT_HALF/4) / completion_prob.
    """
    return _at(_ofc, s, k)


def _ofcnb_small(s: range, k: int, gamma0: float) -> list[float]:
    if not 0.0 < gamma0 <= 0.05:
        raise ValueError(f"small-seeding form needs 0 < gamma0 <= 0.05, got {gamma0}")
    g = _ridx(gamma0 * k)
    half = _ridx(k / 2)
    base = -k * math.log(0.5 + gamma0) / (1.0 - 2.0 * gamma0)

    def degree_two(s):
        u = s - g
        return -(k * k) * math.log1p(-u / k) / (2.0 * u)

    return _piecewise(s, k, (g, float), (half, degree_two),
                      tail=(half, base, 1.0 - DEGREE_AT_HALF / 4.0, 1.0))


def expected_ofcnb_small(s: int, k: int, gamma0: float) -> float:
    """Build-up-free scheme in the small-seeding regime (gamma0 <= 0.05)."""
    return _at(_ofcnb_small, s, k, gamma0)


def _ofcnb_large(s: range, k: int, gamma0: float) -> list[float]:
    if not 0.5 <= gamma0 <= 1.0:
        raise ValueError(f"heavy-seeding form needs 0.5 <= gamma0 <= 1, got {gamma0}")
    g = _ridx(gamma0 * k)
    # log1p(-1) raises; at gamma0 = 1 seeding spans every s and the tail takes none
    base = -k * math.log1p(-gamma0) if gamma0 < 1.0 else math.inf
    return _piecewise(s, k, (min(g, k - 1), lambda s: -k * math.log1p(-s / k)),
                      (g, lambda s: math.inf),  # s = k while still seeding: never completes
                      tail=(g, base, 1.0, 1.0))


def expected_ofcnb_large(s: int, k: int, gamma0: float) -> float:
    """Build-up-free scheme with heavy seeding (0.5 <= gamma0 <= 1).

    Degree-1 coverage is a coupon-collector process; gamma0 = 1 with s = k
    diverges and returns +inf.
    """
    return _at(_ofcnb_large, s, k, gamma0)


def _ofcnb_general(s: range, k: int, gamma0: float) -> list[float]:
    if not 0.0 < gamma0 < 0.5:
        raise ValueError(f"general form needs 0 < gamma0 < 0.5, got {gamma0}")
    g = _ridx(gamma0 * k)
    half = _ridx(k / 2)
    # usable fraction of the degree-2 stage, averaged over its endpoints
    p_u = 0.5 * (completion_prob(g, k) + completion_prob(half, k))
    stored_edges = math.log(2.0 - 2.0 * gamma0) * k * p_u - (0.5 - gamma0) * k
    factor = 1.0 - 2.0 * stored_edges / k
    return _piecewise(
        s, k,
        (g, lambda s: -k * math.log1p(-s / k)),
        (half, lambda s: (s - gamma0 * k) * math.log(2.0 - 2.0 * gamma0) / (0.5 - gamma0)
         - k * math.log1p(-gamma0)),
        tail=(half, k * LN2, factor, 1.0),
    )


def expected_ofcnb_general(s: int, k: int, gamma0: float) -> float:
    """Build-up-free scheme for 0 < gamma0 < 0.5.

    The degree-2 stage between gamma0*k and k/2 is linearized at its average
    cost; the edges it leaves behind discount the completion stage through
    the stored-edge estimate below.
    """
    return _at(_ofcnb_general, s, k, gamma0)


def _ofcnb(s: range, k: int, gamma0: float) -> list[float]:
    if gamma0 <= 0.05:
        return _ofcnb_small(s, k, gamma0)
    if gamma0 < 0.5:
        return _ofcnb_general(s, k, gamma0)
    return _ofcnb_large(s, k, gamma0)


def expected_ofcnb(s: int, k: int, gamma0: float) -> float:
    """Dispatch to the seeding regime that covers ``gamma0``."""
    return _at(_ofcnb, s, k, gamma0)


def _sofc(s: range, k: int, eps: float) -> list[float]:
    _check_eps(eps)
    r = _ridx((1.0 - eps) * k)
    half = _ridx(k / 2)
    keep = 1.0 - eps
    systematic = (r, lambda s: s / keep)
    if eps <= 0.5:
        return _piecewise(s, k, systematic, tail=(r, k, 1.0, keep))
    if eps < 0.99:
        slope = math.log(2.0 * eps)
        p_u = 0.5 * (completion_prob(r, k) + completion_prob(half, k))
        stored_edges = slope * k * p_u - (eps - 0.5) * k
        factor = (k - 2.0 * stored_edges) / (k * keep)
        base = k + k * slope / keep
        return _piecewise(
            s, k,
            systematic,
            (half, lambda s: k + (s - keep * k) * slope / ((eps - 0.5) * keep)),
            tail=(half, base, factor, 1.0),
        )
    base = k + k * LN2 / keep
    factor = (1.0 - DEGREE_AT_HALF / 4.0) / keep
    return _piecewise(
        s, k,
        systematic,
        (half, lambda s: k - (k * k) * math.log1p(-s / k) / (2.0 * s * keep)),
        tail=(half, base, factor, 1.0),
    )


def expected_sofc(s: int, k: int, eps: float) -> float:
    """Systematic scheme at erasure rate eps (formulas already include eps).

    Three regimes: for eps <= 0.5 the completion phase never emits degree-2
    symbols; for 0.5 < eps < 0.99 a degree-2 stage appears, with stored
    edges discounting completion; at eps >= 0.99 the near-total-loss forms
    take over (numerical stand-in for the eps -> 1 asymptotics).
    """
    return _at(_sofc, s, k, eps)


def lossy_adjust(expected_lossless: float | np.ndarray, eps: float) -> float | np.ndarray:
    """Lift a lossless random-selection count (or array of counts) to erasure rate eps.

    Applies to the random-selection schemes only; the systematic scheme's
    formulas already embed eps and must not pass through here.
    """
    _check_eps(eps)
    return expected_lossless / (1.0 - eps)


def _transmitted(s: range, k: int, config: SchemeConfig, eps: float) -> list[float]:
    if isinstance(config, SOFC):
        return _sofc(s, k, eps)
    if isinstance(config, OFCNB):
        lossless = _ofcnb(s, k, config.gamma0)
    elif isinstance(config, OFC):
        if config.beta0 != 0.5:
            raise ValueError("closed forms cover the beta0 = 0.5 operating point only")
        lossless = _ofc(s, k)
    else:
        raise TypeError(f"unknown scheme config {config!r}")
    _check_eps(eps)
    keep = 1.0 - eps
    return [n / keep for n in lossless]  # lossy_adjust, count by count


def expected_transmitted(config: SchemeConfig, s: int, k: int, eps: float = 0.0) -> float:
    """Expected transmitted symbols for any scheme config at erasure rate eps."""
    return _at(_transmitted, s, k, config, eps)


def _curve(config: SchemeConfig, k: int, eps: float) -> list[float]:
    """:func:`expected_curve` as a list of floats, without numpy."""
    _check_s(k, k)  # k >= 2; every s in 1..k is then in range
    return _transmitted(range(1, k + 1), k, config, eps)


def expected_curve(config: SchemeConfig, k: int, eps: float = 0.0) -> np.ndarray:
    """Expected transmitted count for every s = 1..k (index s-1)."""
    import numpy as np

    return np.array(_curve(config, k, eps))


def compare_to_curve(
    milestones,
    sent_mean,
    analytic: np.ndarray,
    k: int,
    band: tuple[float, float] = (0.05, 0.98),
) -> dict:
    """Relative error of an empirical mean curve against an analytic one.

    Compares at every milestone with band[0] <= s/k <= band[1]; returns the
    max and mean of |empirical - analytic| / analytic.
    """
    import numpy as np

    milestones = np.asarray(milestones)
    sent_mean = np.asarray(sent_mean, dtype=float)
    lo, hi = band[0] * k, band[1] * k
    mask = (milestones >= lo) & (milestones <= hi) & ~np.isnan(sent_mean)
    ana = analytic[milestones[mask] - 1]
    rel = np.abs(sent_mean[mask] - ana) / ana
    return {
        "max_rel_err": float(rel.max()) if rel.size else float("nan"),
        "mean_rel_err": float(rel.mean()) if rel.size else float("nan"),
        "n_points": int(rel.size),
    }
