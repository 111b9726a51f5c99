"""Fractional Brownian motion baselines for the complexity-entropy plane.

Fractional Gaussian noise (fGn) with Hurst exponent ``H_exp`` is synthesized
exactly in distribution by circulant embedding of its autocovariance

    gamma(k) = 0.5 * (|k+1|^{2H} - 2|k|^{2H} + |k-1|^{2H})

(Davies-Harte, Biometrika 74:95, 1987).  The minimal embedding is
nonnegative definite for every Hurst exponent, so an inadmissible one is an
error, not a case to fall back from.  Exact sequential conditional sampling
via the Levinson-Durbin recursion (Hosking's method) remains available on
request as an independent route.  Cumulative sums of fGn give fBm paths.

``baseline_cloud`` summarizes the plane positions of many independent paths,
the reference crosses drawn alongside empirical trajectories.  All paths of a
cloud share the circulant eigenvalues, computed once; each path draws its
normals from its own seed, and fixed-size blocks of paths go through one
batched FFT, encode, count and plane-point kernel call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .patterns import OrdinalConfig, TimeSeries, _encode_starts, _pattern_counts
from .quantifiers import CecpPoint, _plane_points

__all__ = [
    "FbmSpec",
    "BaselineCloud",
    "fgn_autocovariance",
    "generate_fgn",
    "generate_fbm",
    "baseline_cloud",
]

# Eigenvalues of the embedding no more negative than this (relative to the
# largest) are treated as rounding noise and clipped to zero.
_EIG_RTOL = 1e-12

# Paths synthesized and scored together in baseline_cloud.  A small fixed
# block keeps peak RSS flat: on `cecplane fbm` over 5 x 500 paths of 360,
# 8 paths per block peak at the RSS of one path at a time (36.9 MB), 32 at
# 38.4 MB, and a whole 500-path cloud at once at 61 MB.
_PATHS_PER_BLOCK = 8


@dataclass(frozen=True)
class FbmSpec:
    """Hurst exponent, path length, and seed for one reproducible path."""

    hurst: float
    length: int
    seed: int

    def __post_init__(self):
        if not 0.0 < self.hurst < 1.0:
            raise ValueError(f"hurst must lie strictly inside (0, 1), got {self.hurst!r}")
        if not isinstance(self.length, int) or self.length < 2:
            raise ValueError(f"length must be an integer >= 2, got {self.length!r}")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")


@dataclass(frozen=True)
class BaselineCloud:
    """Mean and spread of plane positions over independent fBm paths."""

    hurst: float
    mean_point: CecpPoint
    std_entropy: float
    std_complexity: float
    sims: int

    def __post_init__(self):
        if self.sims < 1:
            raise ValueError("sims must be >= 1")
        if self.std_entropy < 0 or self.std_complexity < 0:
            raise ValueError("standard deviations must be nonnegative")


def fgn_autocovariance(hurst: float, lags) -> np.ndarray:
    """Exact fGn autocovariance ``gamma(k)`` at the given integer lags."""
    if not 0.0 < hurst < 1.0:
        raise ValueError(f"hurst must lie strictly inside (0, 1), got {hurst!r}")
    k = np.abs(np.asarray(lags, dtype=np.float64))
    two_h = 2.0 * hurst
    return 0.5 * ((k + 1.0) ** two_h - 2.0 * k ** two_h + np.abs(k - 1.0) ** two_h)


def _circulant_eigenvalues(hurst: float, n: int) -> np.ndarray:
    """Eigenvalues of the size-``2n`` circulant embedding of fGn covariance.

    They are the FFT of the wrapped first row ``gamma(0..n), gamma(n-1..1)``.
    The embedding is nonnegative definite for every Hurst exponent
    (Craigmile, J. Time Ser. Anal. 24:505, 2003), which the tests scan over
    Hurst 0.01-0.99 and lengths 2-4096; rounding noise is clipped to zero and
    anything larger raises.
    """
    gamma = fgn_autocovariance(hurst, np.arange(n + 1))
    lam = np.fft.fft(np.concatenate([gamma, gamma[-2:0:-1]])).real
    if lam.min() < -_EIG_RTOL * lam.max():
        raise ValueError(
            f"circulant embedding not nonnegative definite for hurst={hurst}, length={n}"
        )
    return np.clip(lam, 0.0, None)


def _standard_normals(seeds, size: int) -> np.ndarray:
    """Row ``i`` holds ``size`` standard normals from ``default_rng(seeds[i])``.

    One generator per path is the seeding contract: a path is the same
    whether it is drawn alone or inside a batch.
    """
    z = np.empty((len(seeds), size))
    for row, seed in zip(z, seeds):
        np.random.default_rng(int(seed)).standard_normal(out=row)
    return z


def _fgn_circulant(lam: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Davies-Harte synthesis of a ``(rows, n)`` batch of fGn paths.

    ``lam`` holds the ``2n`` circulant eigenvalues and row ``i`` of ``z`` the
    ``2n`` standard normals of path ``i``.  A Hermitian random spectrum with
    those variances transforms back to ``2n`` stationary Gaussian samples, of
    which the first ``n`` are returned.
    """
    size = lam.size
    n = size // 2
    w = np.empty(z.shape, dtype=np.complex128)
    w[:, 0] = math.sqrt(lam[0] / size) * z[:, 0]
    w[:, n] = math.sqrt(lam[n] / size) * z[:, 1]
    half = np.sqrt(lam[1:n] / (2.0 * size))
    w[:, 1:n] = half * (z[:, 2::2] + 1j * z[:, 3::2])
    w[:, n + 1:] = np.conj(w[:, n - 1:0:-1])
    return np.fft.fft(w)[:, :n].real


def _fgn_conditional(gamma: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Hosking's sequential exact method, O(n^2).

    Each sample is drawn from its exact Gaussian conditional given all
    previous ones; the prediction coefficients are updated by the
    Levinson-Durbin recursion.
    """
    n = gamma.size - 1
    z = rng.standard_normal(n)
    x = np.empty(n)
    x[0] = math.sqrt(gamma[0]) * z[0]
    phi = np.empty(n)  # phi[:t] are the order-t prediction coefficients
    var = gamma[0]
    for t in range(1, n):
        kappa = (gamma[t] - phi[:t - 1] @ gamma[t - 1:0:-1]) / var
        # RHS is materialized before assignment; the reversed view aliases phi[:t-1].
        phi[:t - 1] = phi[:t - 1] - kappa * phi[:t - 1][::-1]
        phi[t - 1] = kappa
        var *= 1.0 - kappa * kappa
        x[t] = phi[:t] @ x[t - 1::-1] + math.sqrt(var) * z[t]
    return x


def generate_fgn(spec: FbmSpec, method: str = "auto") -> TimeSeries:
    """Fractional Gaussian noise of ``spec.length`` samples.

    ``method`` selects the synthesis route: ``"circulant"`` (Davies-Harte;
    ``"auto"`` is the same route, since the embedding is always admissible)
    or ``"conditional"`` (Hosking).  Both routes are exact in distribution
    and consume the generator stream differently, so the same seed gives
    different — equally valid — paths per method.
    """
    if method not in ("auto", "circulant", "conditional"):
        raise ValueError(f"unknown method {method!r}")
    if method == "conditional":
        gamma = fgn_autocovariance(spec.hurst, np.arange(spec.length + 1))
        return TimeSeries(_fgn_conditional(gamma, np.random.default_rng(spec.seed)))
    lam = _circulant_eigenvalues(spec.hurst, spec.length)
    return TimeSeries(_fgn_circulant(lam, _standard_normals([spec.seed], lam.size))[0])


def generate_fbm(spec: FbmSpec, method: str = "auto") -> TimeSeries:
    """Fractional Brownian motion path: cumulative sum of fGn, starting at
    the first increment (the implicit ``X_0 = 0`` is not emitted)."""
    return TimeSeries(np.cumsum(generate_fgn(spec, method=method).values))


def baseline_cloud(hurst: float, sims: int, length: int,
                   config: OrdinalConfig, seed: int) -> BaselineCloud:
    """Plane-position summary of ``sims`` independent fBm paths.

    Per-simulation seeds are derived from ``seed`` by index, and path ``i``
    equals ``generate_fbm(FbmSpec(hurst, length, child_seed_i))``, so the
    result is identical no matter how the simulations are scheduled.
    Standard deviations are population (``ddof=0``): a single simulation has
    spread 0.
    """
    if sims < 1:
        raise ValueError(f"sims must be >= 1, got {sims}")
    FbmSpec(hurst, length, 0)  # validates hurst and length once for every path
    n_windows = config.windows_in(length)
    if n_windows < 1:
        raise ValueError(
            f"length {length} admits no ordinal window at dim={config.dim}, "
            f"delay={config.delay}"
        )
    lam = _circulant_eigenvalues(hurst, length)
    child_seeds = np.random.SeedSequence(seed).generate_state(sims, dtype=np.uint64)
    entropies = np.empty(sims)
    complexities = np.empty(sims)
    for lo in range(0, sims, _PATHS_PER_BLOCK):
        seeds = child_seeds[lo:lo + _PATHS_PER_BLOCK]
        paths = np.cumsum(_fgn_circulant(lam, _standard_normals(seeds, lam.size)), axis=1)
        counts = _pattern_counts(np.arange(seeds.size)[:, np.newaxis],
                                 _encode_starts(paths, config),
                                 seeds.size, config.num_patterns)
        block = slice(lo, lo + seeds.size)
        entropies[block], complexities[block] = _plane_points(counts / n_windows)
    return BaselineCloud(
        hurst=hurst,
        mean_point=CecpPoint(float(entropies.mean()), float(complexities.mean())),
        std_entropy=float(entropies.std()),
        std_complexity=float(complexities.std()),
        sims=sims,
    )
