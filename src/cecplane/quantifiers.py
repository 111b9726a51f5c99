"""Information-theoretic quantifiers over ordinal pattern distributions.

Given a probability vector ``P`` over ``M`` symbols: the Shannon entropy
``S(P)`` in nats, its normalized form ``H = S(P)/ln M``, the disequilibrium
``Q`` (the Jensen-Shannon divergence from the uniform distribution, scaled to
1 at a degenerate ``P``) and the statistical complexity ``C = H * Q``.  The
pair ``(H, C)`` locates the distribution on the complexity-entropy plane
(Rosso et al., PRL 99:154102, 2007).

One vectorized kernel, :func:`_plane_points`, computes ``H``, ``Q`` and
``C`` for every row of a ``(rows, M)`` probability matrix.  Rolling windows
and fBm clouds use :func:`_window_points`; :func:`cecp_point` and the scalar
functions validate their input once and call it with one row, so a point
does not depend on its caller.  With ``r = M p``, ``H = 1 - KL(P || U) / ln M``
and the Jensen-Shannon divergence is a sum of nonnegative per-symbol terms:
a uniform row gives ``H = 1`` exactly, a degenerate one ``H = 0``.  ``H`` is
clamped to ``[0, 1]`` and ``Q`` to ``>= 0``, the one numeric contract of
every plane point, and ``C = H * Q`` exactly.  The tests hold every
coordinate within 1e-14 of ``math.fsum`` references.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Union

import numpy as np

from . import _EXPORTS
from .patterns import (OrdinalConfig, PatternDistribution, TimeSeries, _as_float_array,
                       _window_counts, extract_pattern_distribution)
from .special import _check_point, _checked, _integer

__all__ = [*_EXPORTS["quantifiers"]]

ProbsLike = Union[PatternDistribution, np.ndarray, list, tuple]

# A probability vector must sum to 1 within this absolute tolerance.
_SUM_ATOL = 1e-8


def _validate_probs(probs: ProbsLike) -> np.ndarray:
    if isinstance(probs, PatternDistribution):
        return probs.probabilities
    arr = _as_float_array(probs, "probability vector")
    if arr.size < 2:
        raise ValueError("probability vector needs at least two entries")
    if (arr < 0).any():
        raise ValueError("probability vector contains negative entries")
    total = math.fsum(arr.tolist())
    if abs(total - 1.0) > _SUM_ATOL:
        raise ValueError(f"probabilities sum to {total!r}, expected 1 within {_SUM_ATOL}")
    return arr


def q0_constant(m: int) -> float:
    """Normalization making the disequilibrium's maximum exactly 1.

    The Jensen-Shannon divergence between a distribution over ``m`` symbols
    and the uniform distribution is largest for a degenerate ``P`` (all mass
    on one symbol), where it equals::

        -1/2 * ( (m+1)/m * ln(m+1) - 2 ln(2m) + ln m )

    ``q0_constant`` returns the reciprocal of that value.
    """
    m = _integer(m, "m", 2)
    peak = (m + 1) / m * math.log(m + 1) - 2.0 * math.log(2 * m) + math.log(m)
    return -2.0 / peak


# The window edges x D! counts _window_points holds in one block, which the
# kernel copies a few times: 4 windows a block at D = 7, one from D = 8.
_COUNTS_PER_BLOCK = 8 * math.factorial(7)


def _plane_points(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(H, Q, C)`` arrays for every row of a ``(rows, M)`` probability matrix.

    Callers validate their input; the kernel only computes.  With ``r = M p``
    the Kullback-Leibler divergence from the uniform distribution is
    ``sum p ln r = ln M - S(P)``, and the Jensen-Shannon divergence against
    the uniform distribution is ``1/(2M) * sum g(r)`` with
    ``g(r) = r ln r - (r+1) ln((r+1)/2) >= 0``; zero entries have
    ``r ln r = 0``.  ``H`` is clamped to ``[0, 1]`` and ``Q`` to ``>= 0``, and
    ``C = H * Q``.  Temporaries are updated in place, so the peak memory is a
    few copies of ``probs``.
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
    diseq = np.maximum(q0_constant(m) * jsd, 0.0)
    return entropy, diseq, entropy * diseq


def _window_points(codes: np.ndarray, m: int, starts: np.ndarray,
                   per_window: int) -> tuple[np.ndarray, np.ndarray]:
    """``(H, C)`` of the windows ``codes[s:s + per_window]`` at increasing
    ``starts`` over ``m`` patterns, counted and scored a block at a time so
    that the count rows stay within ``_COUNTS_PER_BLOCK``."""
    entropies, complexities = np.empty(starts.size), np.empty(starts.size)
    block = max(1, _COUNTS_PER_BLOCK // (2 * m))  # two edges per window
    for lo in range(0, starts.size, block):
        rows = slice(lo, lo + block)
        entropies[rows], _, complexities[rows] = _plane_points(
            _window_counts(codes, m, starts[rows], per_window) / per_window)
    return entropies, complexities


def _one_row(probs: ProbsLike) -> tuple[int, float, float, float]:
    """``(M, H, Q, C)`` of one distribution, validated once."""
    arr = _validate_probs(probs)
    entropy, diseq, complexity = _plane_points(arr[np.newaxis, :])
    return arr.size, float(entropy[0]), float(diseq[0]), float(complexity[0])


def shannon_entropy(probs: ProbsLike) -> float:
    """Shannon entropy ``S(P) = -sum p ln p`` in nats; zero entries contribute 0."""
    m, entropy, _, _ = _one_row(probs)
    return entropy * math.log(m)


def normalized_entropy(probs: ProbsLike) -> float:
    """``H(P) = S(P) / ln M`` where ``M = len(P)``; lies in ``[0, 1]``."""
    return _one_row(probs)[1]


def disequilibrium(probs: ProbsLike) -> float:
    """Disequilibrium against the uniform reference over the same symbols."""
    return _one_row(probs)[2]


def statistical_complexity(probs: ProbsLike) -> float:
    """``C(P) = H(P) * Q(P)``: zero for both degenerate and uniform ``P``."""
    return _one_row(probs)[3]


def _jsd(p: np.ndarray, q: np.ndarray) -> float:
    """Jensen-Shannon divergence of two validated vectors: the mean of
    ``KL(P || mid)`` and ``KL(Q || mid)``, each summed over its support,
    where ``mid >= p / 2 > 0``."""
    if p.size != q.size:
        raise ValueError(f"length mismatch: {p.size} vs {q.size}")
    mid = 0.5 * (p + q)
    total = 0.0
    for x in (p, q):
        support = x > 0.0
        total += float(np.dot(x[support], np.log(x[support] / mid[support])))
    return 0.5 * total


def jensen_shannon_divergence(p: ProbsLike, q: ProbsLike) -> float:
    """Symmetric divergence ``S((P+Q)/2) - S(P)/2 - S(Q)/2`` in nats."""
    return _jsd(_validate_probs(p), _validate_probs(q))


def jensen_shannon_disequilibrium(p: ProbsLike, reference: ProbsLike) -> float:
    """Normalized Jensen-Shannon disequilibrium ``Q0 * JSD(P, reference)``.

    Symmetric in its arguments, 0 iff the distributions coincide, and exactly
    1 for a delta distribution against the uniform one (that case defines the
    normalization ``Q0``).
    """
    p_arr = _validate_probs(p)
    return q0_constant(p_arr.size) * _jsd(p_arr, _validate_probs(reference))


@_checked
class CecpPoint(NamedTuple):
    """A location on the complexity-entropy plane."""

    entropy: float
    complexity: float

    def _check(self):
        _check_point(self.entropy, self.complexity)
        return self


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
    _, entropy, _, complexity = _one_row(source)
    return CecpPoint(entropy=entropy, complexity=complexity)
