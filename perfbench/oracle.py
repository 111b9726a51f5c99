"""Independent reference computations the benchmark checks outputs against.

Nothing here imports the program.  Plane coordinates are rebuilt from their
formulas (Bandt & Pompe 2002; Rosso et al. 2007):

    H = S(P) / ln M
    C = H * Q0 * JSD(P, U),   JSD = S((P+U)/2) - S(P)/2 - S(U)/2

and the statistics come from scipy.  H and C depend only on the multiset of
pattern counts, so patterns are keyed by their argsort rows here, not by the
program's lexicographic pattern index.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import stats


def q0(m: int) -> float:
    """Reciprocal of the largest JSD against the uniform law over ``m`` states."""
    return -2.0 / ((m + 1) / m * math.log(m + 1) - 2.0 * math.log(2 * m) + math.log(m))


def plane_point(counts: np.ndarray, m: int) -> tuple[float, float]:
    """(H, C) of a histogram given by its nonzero ``counts`` over ``m`` states."""
    p = counts[counts > 0] / counts.sum()
    s = float(-(p * np.log(p)).sum())
    mix = 0.5 * (p + 1.0 / m)
    unobserved = m - p.size
    s_mix = float(-(mix * np.log(mix)).sum()) + unobserved * (0.5 / m) * math.log(2.0 * m)
    jsd = s_mix - 0.5 * s - 0.5 * math.log(m)
    h = s / math.log(m)
    return h, h * q0(m) * jsd


def pattern_counts(values: np.ndarray, dim: int) -> np.ndarray:
    """Nonzero ordinal-pattern counts of every length-``dim`` run of ``values``.

    Rows are ranked with a stable argsort, so equal values keep their time
    order; the program's tie rule differs in direction, which changes which
    pattern a tie maps to but not, on tie-free data, the count multiset.
    """
    emb = np.lib.stride_tricks.sliding_window_view(values, dim)
    order = np.argsort(emb, axis=1, kind="stable")
    keys = order @ (dim ** np.arange(dim))
    return np.unique(keys, return_counts=True)[1]


def batch_points(paths: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(H, C) of every row of a ``(n, length)`` array of paths."""
    m = math.factorial(dim)
    out = np.array([plane_point(pattern_counts(row, dim), m) for row in paths])
    return out[:, 0], out[:, 1]


def lower_bound(h: float, m: int) -> float:
    """Minimum complexity at entropy ``h``: one weight q, M-1 equal others."""
    return _family_c(h, m, zeros=0, upper=False)


def upper_bound(h: float, m: int) -> float:
    """Maximum complexity at entropy ``h``: one weight q below k equal others,
    the remaining states empty, with k fixed by where ``h * ln M`` falls."""
    if h >= 1.0:
        return 0.0
    k = min(max(int(math.exp(h * math.log(m))), 1), m - 1)
    return _family_c(h, m, zeros=m - 1 - k, upper=True)


def _family_c(h: float, m: int, zeros: int, upper: bool) -> float:
    k = m - zeros - 1
    target = h * math.log(m)

    def entropy(q: float) -> float:
        rest = 1.0 - q
        s_q = -q * math.log(q) if q > 0 else 0.0
        return s_q + (-rest * math.log(rest / k) if rest > 0 else 0.0)

    # Lower family: S falls from ln M to 0 as q runs 1/M -> 1.  Upper family:
    # S rises from ln k to ln(k+1) as q runs 0 -> 1/(k+1).
    lo, hi = (0.0, 1.0 / (k + 1)) if upper else (1.0 / m, 1.0)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (entropy(mid) > target) != upper:
            lo = mid
        else:
            hi = mid
    q = 0.5 * (lo + hi)
    probs = np.array([q] + [(1.0 - q) / k] * k)
    return plane_point(probs, m)[1]


def f_oneway(groups) -> tuple[float, float]:
    result = stats.f_oneway(*groups)
    return float(result.statistic), float(result.pvalue)


def spearman(x, y) -> tuple[float, float]:
    result = stats.spearmanr(x, y)
    return float(result.statistic), float(result.pvalue)


def close(a: float, b: float, rel: float = 1e-9, abs_: float = 1e-12) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_)
