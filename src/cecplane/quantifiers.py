"""Information-theoretic quantifiers over ordinal pattern distributions.

Given a probability vector ``P`` over ``M`` symbols these functions compute
Shannon entropy (in nats), its normalized form ``H = S(P)/ln M``, the
Jensen-Shannon disequilibrium against the uniform distribution, and the
statistical complexity ``C = H * Q``.  The pair ``(H, C)`` locates the
distribution on the complexity-entropy plane.

Plane points come from one vectorized kernel, :func:`_plane_points`, which
maps a ``(rows, M)`` probability matrix to ``H`` and ``C`` arrays.
:func:`cecp_point` calls it with a single row; rolling windows and fBm clouds
call it with many, so a window's point does not depend on which caller made
it.  The kernel works with the ratios ``r = M p`` to the uniform reference:
``H = 1 - KL(P || U) / ln M`` and the Jensen-Shannon divergence is a sum of
nonnegative per-symbol terms, so a uniform row gives ``H = 1`` exactly and
``C`` at rounding level, and a degenerate row gives ``H = 0`` exactly.  It clamps ``H`` to ``[0, 1]`` and
``C`` to ``>= 0``: this is the one numeric contract every plane point meets.
It stays within 1e-14 of the scalar functions in both coordinates.

The scalar functions (:func:`shannon_entropy` through
:func:`statistical_complexity`) are the reference: their reductions use
``math.fsum`` over explicitly materialized terms, and ``0 * ln 0`` is taken as
0 by skipping zero entries rather than by masking arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .patterns import OrdinalConfig, PatternDistribution, TimeSeries, extract_pattern_distribution

__all__ = [
    "shannon_entropy",
    "normalized_entropy",
    "q0_constant",
    "jensen_shannon_divergence",
    "jensen_shannon_disequilibrium",
    "disequilibrium",
    "statistical_complexity",
    "CecpPoint",
    "cecp_point",
]

ProbsLike = Union[PatternDistribution, np.ndarray, list, tuple]

# A probability vector must sum to 1 within this absolute tolerance.
_SUM_ATOL = 1e-8


def _validate_probs(probs: ProbsLike) -> np.ndarray:
    if isinstance(probs, PatternDistribution):
        return probs.probabilities
    arr = np.asarray(probs, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"probability vector must be one-dimensional, got shape {arr.shape}")
    if arr.size < 2:
        raise ValueError("probability vector needs at least two entries")
    if not np.isfinite(arr).all():
        raise ValueError("probability vector contains non-finite entries")
    if (arr < 0).any():
        raise ValueError("probability vector contains negative entries")
    total = math.fsum(arr.tolist())
    if abs(total - 1.0) > _SUM_ATOL:
        raise ValueError(f"probabilities sum to {total!r}, expected 1 within {_SUM_ATOL}")
    return arr


def shannon_entropy(probs: ProbsLike) -> float:
    """Shannon entropy ``S(P) = -sum p ln p`` in nats; zero entries contribute 0."""
    arr = _validate_probs(probs)
    return -math.fsum(p * math.log(p) for p in arr.tolist() if p > 0.0)


def normalized_entropy(probs: ProbsLike) -> float:
    """``H(P) = S(P) / ln M`` where ``M = len(P)``; lies in ``[0, 1]``."""
    arr = _validate_probs(probs)
    return shannon_entropy(arr) / math.log(arr.size)


def q0_constant(m: int) -> float:
    """Normalization making the disequilibrium's maximum exactly 1.

    The Jensen-Shannon divergence between a distribution over ``m`` symbols
    and the uniform distribution is largest for a degenerate ``P`` (all mass
    on one symbol), where it equals::

        -1/2 * ( (m+1)/m * ln(m+1) - 2 ln(2m) + ln m )

    ``q0_constant`` returns the reciprocal of that value.
    """
    if m < 2:
        raise ValueError(f"need at least two symbols, got m={m}")
    peak = (m + 1) / m * math.log(m + 1) - 2.0 * math.log(2 * m) + math.log(m)
    return -2.0 / peak


def jensen_shannon_divergence(p: ProbsLike, q: ProbsLike) -> float:
    """Symmetric divergence ``S((P+Q)/2) - S(P)/2 - S(Q)/2`` in nats."""
    p_arr = _validate_probs(p)
    q_arr = _validate_probs(q)
    if p_arr.size != q_arr.size:
        raise ValueError(f"length mismatch: {p_arr.size} vs {q_arr.size}")
    mid = 0.5 * (p_arr + q_arr)
    return shannon_entropy(mid) - 0.5 * shannon_entropy(p_arr) - 0.5 * shannon_entropy(q_arr)


def jensen_shannon_disequilibrium(p: ProbsLike, reference: ProbsLike) -> float:
    """Normalized Jensen-Shannon disequilibrium ``Q0 * JSD(P, reference)``.

    Symmetric in its arguments, 0 iff the distributions coincide, and exactly
    1 for a delta distribution against the uniform one (that case defines the
    normalization ``Q0``).
    """
    p_arr = _validate_probs(p)
    return q0_constant(p_arr.size) * jensen_shannon_divergence(p_arr, reference)


def disequilibrium(probs: ProbsLike) -> float:
    """Disequilibrium against the uniform reference over the same symbols."""
    arr = _validate_probs(probs)
    uniform = np.full(arr.size, 1.0 / arr.size)
    return jensen_shannon_disequilibrium(arr, uniform)


def statistical_complexity(probs: ProbsLike) -> float:
    """``C(P) = H(P) * Q(P)``: zero for both degenerate and uniform ``P``."""
    arr = _validate_probs(probs)
    return normalized_entropy(arr) * disequilibrium(arr)


@dataclass(frozen=True)
class CecpPoint:
    """A location on the complexity-entropy plane."""

    entropy: float
    complexity: float

    def __post_init__(self):
        if not -1e-12 <= self.entropy <= 1.0 + 1e-12:
            raise ValueError(f"normalized entropy {self.entropy} outside [0, 1]")
        if self.complexity < -1e-12:
            raise ValueError(f"complexity {self.complexity} negative")


def _plane_points(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(H, C)`` arrays for every row of a ``(rows, M)`` probability matrix.

    Callers validate their input; the kernel only computes.  With ``r = M p``
    the Kullback-Leibler divergence from the uniform distribution is
    ``sum p ln r = ln M - S(P)``, and the Jensen-Shannon divergence against
    the uniform distribution is ``1/(2M) * sum g(r)`` with
    ``g(r) = r ln r - (r+1) ln((r+1)/2) >= 0``; zero entries have
    ``r ln r = 0``.  Temporaries are updated in place, so the peak memory
    is a few copies of ``probs``.
    """
    m = probs.shape[1]
    r = probs * m
    r_log_r = np.log(r, out=np.zeros_like(r), where=r > 0.0)
    kl = (probs * r_log_r).sum(axis=1)
    r_log_r *= r
    # ln((r+1)/2) = log1p((r-1)/2), accurate where r is close to 1.
    log_mix = np.subtract(r, 1.0)
    log_mix *= 0.5
    np.log1p(log_mix, out=log_mix)
    r += 1.0
    log_mix *= r
    r_log_r -= log_mix
    jsd = r_log_r.sum(axis=1) / (2.0 * m)
    entropy = np.clip(1.0 - kl / np.log(np.float64(m)), 0.0, 1.0)
    complexity = np.maximum(entropy * (q0_constant(m) * jsd), 0.0)
    return entropy, complexity


def cecp_point(source: ProbsLike | TimeSeries, config: OrdinalConfig | None = None) -> CecpPoint:
    """Map a distribution — or a series via its pattern distribution — to
    its ``(H, C)`` coordinates on the plane.

    Pass either a probability vector / :class:`PatternDistribution`, or a
    :class:`TimeSeries` together with an :class:`OrdinalConfig`.  The point
    is the one-row case of the vectorized kernel, so it is bit-identical to
    the same distribution's point inside a rolling or fBm batch.
    """
    if isinstance(source, TimeSeries):
        if config is None:
            raise ValueError("a TimeSeries input needs an OrdinalConfig")
        source = extract_pattern_distribution(source, config)
    elif config is not None:
        raise ValueError("config is only meaningful with a TimeSeries input")
    entropy, complexity = _plane_points(_validate_probs(source)[np.newaxis, :])
    return CecpPoint(entropy=float(entropy[0]), complexity=float(complexity[0]))
