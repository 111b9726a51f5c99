"""Theoretical complexity envelope of the complexity-entropy plane.

For a fixed number of states ``M`` the reachable region of the plane is
bounded by two curves traced by one-parameter families of distributions:

* minimum complexity: ``P(q) = (q, (1-q)/(M-1), ..., (1-q)/(M-1))`` with
  ``q`` running from ``1/M`` (uniform) to ``1`` (degenerate);
* maximum complexity: for each count ``n`` of zero entries
  (``n = 0 .. M-2``), the family with one free entry
  ``q ∈ [0, 1/(M-n)]`` and the remaining ``M-n-1`` entries sharing ``1-q``
  equally.  Family ``n`` covers normalized entropies between
  ``ln(M-n-1)/ln M`` and ``ln(M-n)/ln M``, so together the families tile
  ``[0, 1]`` and the upper envelope is their union.

Along every family the entropy is strictly monotone in ``q`` (increasing for
the upper families, decreasing for the lower one), so instead of sampling
``q`` densely and binning by entropy, each curve is evaluated on an exact
uniform grid of ``H`` values by bisecting ``q`` per grid point.  This keeps
the grid strictly increasing by construction and makes refinement trivially
stable.  Entropy and disequilibrium along a family use closed-form
expressions independent of the generic quantifier implementations, which the
tests exploit as a cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quantifiers import CecpPoint, q0_constant

__all__ = [
    "BoundCurve",
    "lower_bound_curve",
    "upper_bound_curve",
    "within_bounds",
]

# Bisection iterations; halving 80 times shrinks any bracket below 1e-24.
_BISECT_ITERS = 80


@dataclass(frozen=True)
class BoundCurve:
    """One boundary curve of the reachable (H, C) region for M states."""

    states: int
    kind: str  # "lower" or "upper"
    entropy: np.ndarray
    complexity: np.ndarray

    def __post_init__(self):
        if self.kind not in ("lower", "upper"):
            raise ValueError(f"kind must be 'lower' or 'upper', got {self.kind!r}")
        h = np.asarray(self.entropy, dtype=np.float64)
        c = np.asarray(self.complexity, dtype=np.float64)
        if h.shape != c.shape or h.ndim != 1 or h.size < 2:
            raise ValueError("entropy and complexity must be equal-length 1-d arrays")
        if not ((h >= 0).all() and (h <= 1).all() and (np.diff(h) > 0).all()):
            raise ValueError("entropy grid must be strictly increasing within [0, 1]")
        if (c < 0).any():
            raise ValueError("complexity values must be nonnegative")
        h.flags.writeable = False
        c.flags.writeable = False
        object.__setattr__(self, "entropy", h)
        object.__setattr__(self, "complexity", c)

    @property
    def points(self) -> np.ndarray:
        """The curve as an (n, 2) array of (H, C) rows."""
        return np.column_stack([self.entropy, self.complexity])

    def complexity_at(self, h: float | np.ndarray) -> float | np.ndarray:
        """Piecewise-linear interpolation of C at entropy ``h``."""
        return np.interp(h, self.entropy, self.complexity)


def _family_entropy(q: np.ndarray, m: int, n_zeros: int | np.ndarray) -> np.ndarray:
    """Shannon entropy (nats) of the family member with free weight ``q``.

    The distribution has one entry ``q``, ``m - n_zeros - 1`` entries sharing
    ``1 - q`` equally, and ``n_zeros`` zeros.  ``n_zeros`` is a scalar or an
    array broadcasting against ``q``, one family per element.
    """
    k = m - n_zeros - 1
    q = np.asarray(q, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        term_q = np.where(q > 0, -q * np.log(q), 0.0)
        rest = 1.0 - q
        term_rest = np.where(rest > 0, -rest * np.log(rest / k), 0.0)
    return term_q + term_rest


def _family_complexity(q: np.ndarray, m: int,
                       n_zeros: int | np.ndarray) -> np.ndarray:
    """Statistical complexity of the same family member, in closed form.

    The mixture (P + uniform)/2 has only three distinct entry values, so its
    entropy collapses to three terms.  ``n_zeros`` broadcasts as in
    :func:`_family_entropy`.
    """
    k = m - n_zeros - 1
    q = np.asarray(q, dtype=np.float64)
    s = _family_entropy(q, m, n_zeros)
    a = 0.5 * (q + 1.0 / m)                 # mixed weight of the free entry
    b = 0.5 * ((1.0 - q) / k + 1.0 / m)     # mixed weight of the k equal entries
    c = 0.5 / m                             # mixed weight of the zero entries
    # a > 0, so s_mid > 0 and subtracting the zero-entry term when
    # n_zeros == 0 (it is -0.0) leaves s_mid bit-for-bit unchanged.
    s_mid = -a * np.log(a) - k * b * np.log(b) - n_zeros * c * math.log(c)
    js = s_mid - 0.5 * s - 0.5 * math.log(m)
    h = s / math.log(m)
    return h * q0_constant(m) * js


def _bisect_q(target_s: np.ndarray, m: int, n_zeros: int | np.ndarray,
              q_lo: np.ndarray, q_hi: np.ndarray, increasing: bool) -> np.ndarray:
    """Solve ``_family_entropy(q) = target_s`` per element by bisection.

    Entropy is strictly monotone in ``q`` over each family's bracket, so the
    iteration converges unconditionally; targets at bracket endpoints resolve
    to the endpoints themselves.  Elements never interact, so each may sit in
    its own family (``n_zeros`` per element).
    """
    lo = q_lo.copy()
    hi = q_hi.copy()
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        s_mid = _family_entropy(mid, m, n_zeros)
        go_right = (s_mid < target_s) if increasing else (s_mid > target_s)
        lo = np.where(go_right, mid, lo)
        hi = np.where(go_right, hi, mid)
    return 0.5 * (lo + hi)


def _validate_args(m: int, resolution: int):
    if not isinstance(m, int) or m < 2:
        raise ValueError(f"M must be an integer >= 2, got {m!r}")
    if not isinstance(resolution, int) or resolution < 2:
        raise ValueError(f"resolution must be an integer >= 2, got {resolution!r}")


def lower_bound_curve(m: int, resolution: int) -> BoundCurve:
    """Minimum-complexity frontier on a uniform grid of ``resolution`` H values."""
    _validate_args(m, resolution)
    h_grid = np.linspace(0.0, 1.0, resolution)
    target_s = h_grid * math.log(m)
    # Entropy decreases from ln M at q = 1/M to 0 at q = 1.
    q = _bisect_q(target_s, m, 0,
                  np.full(resolution, 1.0 / m), np.ones(resolution),
                  increasing=False)
    c = _family_complexity(q, m, 0)
    # The envelope pinches to C = 0 at both ends; solved q already sits at the
    # bracket endpoints there, so clipping only removes residual rounding.
    c = np.clip(c, 0.0, None)
    return BoundCurve(states=m, kind="lower", entropy=h_grid, complexity=c)


def upper_bound_curve(m: int, resolution: int) -> BoundCurve:
    """Maximum-complexity frontier on a uniform grid of ``resolution`` H values.

    Each grid entropy falls in exactly one family's span
    ``[ln k / ln M, ln(k+1) / ln M]`` with ``k = M - n - 1``; adjacent
    families agree at shared endpoints, which makes the assignment
    unambiguous up to rounding.  The family is chosen per grid point, and one
    bisection solves every point within its own family at once.
    """
    _validate_args(m, resolution)
    h_grid = np.linspace(0.0, 1.0, resolution)
    # k = number of equal nonzero entries of the matching family.
    k_of = np.clip(np.floor(np.exp(h_grid * math.log(m))).astype(int), 1, m - 1)
    n_zeros = m - 1 - k_of
    q = _bisect_q(h_grid * math.log(m), m, n_zeros,
                  np.zeros(resolution), 1.0 / (m - n_zeros), increasing=True)
    c = np.clip(_family_complexity(q, m, n_zeros), 0.0, None)
    return BoundCurve(states=m, kind="upper", entropy=h_grid, complexity=c)


def within_bounds(point: CecpPoint, lower: BoundCurve, upper: BoundCurve,
                  tol: float) -> bool:
    """Whether a plane point lies between the two curves, within ``tol``.

    Curve values at the point's entropy come from piecewise-linear
    interpolation in H.
    """
    if lower.kind != "lower" or upper.kind != "upper":
        raise ValueError("pass curves as (lower=, upper=); kinds do not match")
    if lower.states != upper.states:
        raise ValueError(
            f"curves computed for different state counts: {lower.states} vs {upper.states}"
        )
    if tol < 0:
        raise ValueError(f"tol must be nonnegative, got {tol}")
    if not 0.0 <= point.entropy <= 1.0:
        raise ValueError(f"entropy {point.entropy} outside [0, 1]")
    c_lo = float(lower.complexity_at(point.entropy))
    c_hi = float(upper.complexity_at(point.entropy))
    return c_lo - tol <= point.complexity <= c_hi + tol
