"""Fractional Brownian motion baselines for the complexity-entropy plane.

Fractional Gaussian noise (fGn) with Hurst exponent ``H_exp`` is synthesized
exactly in distribution by circulant embedding of its autocovariance

    gamma(k) = 0.5 * (|k+1|^{2H} - 2|k|^{2H} + |k-1|^{2H})

(Davies-Harte, Biometrika 74:95, 1987).  The minimal embedding is
nonnegative definite for every Hurst exponent, so an inadmissible one is an
error, not a case to fall back from.  Cumulative sums of fGn give fBm
paths.

``baseline_cloud`` summarizes the plane positions of many independent paths,
the reference crosses drawn alongside empirical trajectories.  All paths of a
cloud share the circulant eigenvalues, computed once; each path draws its
normals from its own seed, the same seed in every cloud of one call.  So
``_baseline_clouds`` draws a block of paths' normals once for every Hurst
exponent; the block's paths of every exponent go through one encode and are
scored end to end as the windows of one series.  The blocks of a call split
into contiguous runs, one per process that ``_fork._count`` allows at
``_FORK_FLOOR`` samples each, and ``_fork`` owns the split: it scores the
first run here and each other in a forked child (or here, if the child
cannot be started or fails), which sends the run's (H, C) rows back through
a pipe.  Every block and seed is the same in any split, so the clouds are
the same bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._fork import _count, _map
from .patterns import OrdinalConfig, TimeSeries, _encode_starts
from .quantifiers import CecpPoint, _window_points
from .special import _integer

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

# Paths whose normals are drawn together, then synthesized, encoded and
# scored for every Hurst exponent of the call.  A small block keeps peak RSS
# flat: on `cecplane fbm` over 5 x 500 paths of 360, scored in two processes
# (one under one CPU), 8 paths per block peak at 37.0 MiB (37.0), one path at
# a time at 36.5 MiB (36.3), 32 paths at 39.3 MiB (39.2), 250 paths, half the
# cloud in each process, at 54.9 MiB (55.8), and a whole 500-path cloud at
# once, one block, at 73.3 MiB.
_PATHS_PER_BLOCK = 8
# A call's blocks are split among processes only with at least this many
# samples (paths x exponents x length) to each.  On a 2-vCPU host, in the
# first call of a fresh process, two processes broke even at 64 paths of 360
# over 5 exponents (57,600 samples each; medians of 25: 26.8 ms in one
# process, 25.7 ms in two) and lost below it (16 paths: 17.5 against 21.7 ms).
_FORK_FLOOR = 1 << 16


@dataclass(frozen=True)
class FbmSpec:
    """Hurst exponent, path length, and seed (any integer, stored as int)."""

    hurst: float
    length: int
    seed: int

    def __post_init__(self):
        if not 0.0 < self.hurst < 1.0:
            raise ValueError(f"hurst must lie strictly inside (0, 1), got {self.hurst!r}")
        object.__setattr__(self, "length", _integer(self.length, "length", 2))
        object.__setattr__(self, "seed", _integer(self.seed, "seed", 0))


@dataclass(frozen=True)
class BaselineCloud:
    """Mean and spread of plane positions over independent fBm paths."""

    hurst: float
    mean_point: CecpPoint
    std_entropy: float
    std_complexity: float
    sims: int

    def __post_init__(self):
        object.__setattr__(self, "sims", _integer(self.sims, "sims", 1))
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


def generate_fgn(spec: FbmSpec) -> TimeSeries:
    """Fractional Gaussian noise of ``spec.length`` samples (Davies-Harte)."""
    lam = _circulant_eigenvalues(spec.hurst, spec.length)
    return TimeSeries(_fgn_circulant(lam, _standard_normals([spec.seed], lam.size))[0])


def generate_fbm(spec: FbmSpec) -> TimeSeries:
    """Fractional Brownian motion path: cumulative sum of fGn, starting at
    the first increment (the implicit ``X_0 = 0`` is not emitted)."""
    return TimeSeries(np.cumsum(generate_fgn(spec).values))


def baseline_cloud(hurst: float, sims: int, length: int,
                   config: OrdinalConfig, seed: int) -> BaselineCloud:
    """Plane-position summary of ``sims`` independent fBm paths.

    Per-simulation seeds are derived from ``seed`` by index, and path ``i``
    equals ``generate_fbm(FbmSpec(hurst, length, child_seed_i))``, so the
    result is identical no matter how the simulations are scheduled.
    Standard deviations are population (``ddof=0``): a single simulation has
    spread 0.
    """
    return _baseline_clouds((hurst,), sims, length, config, seed)[0]


def _baseline_clouds(hursts, sims: int, length: int, config: OrdinalConfig,
                     seed: int) -> list[BaselineCloud]:
    """``[baseline_cloud(h, sims, length, config, seed) for h in hursts]``
    bit for bit, over a non-empty ``hursts``, drawing each block of paths'
    normals once for every exponent.

    The blocks split into contiguous runs, one per process (``_runs``),
    and ``_fork._map`` scores each with ``_score_paths``: the first here,
    each other in a forked child, or here if the child cannot be started or
    fails, which gives a ``RuntimeWarning`` naming its paths.  The runs'
    rows are joined in order."""
    sims = _integer(sims, "sims", 1)
    # validates every exponent, the length and the seed before any path
    specs = [FbmSpec(hurst, length, seed) for hurst in hursts]
    length, seed = specs[0].length, specs[0].seed
    if config.windows_in(length) < 1:
        raise ValueError(
            f"length {length} admits no ordinal window at dim={config.dim}, "
            f"delay={config.delay}"
        )
    lams = [_circulant_eigenvalues(spec.hurst, length) for spec in specs]
    child_seeds = np.random.SeedSequence(seed).generate_state(sims, dtype=np.uint64)
    runs = _map(functools.partial(_score_paths, lams, child_seeds, config),
                _runs(sims, len(specs) * length))
    rows = [np.concatenate(parts) for parts in zip(*runs)]  # entropies, complexities
    return [BaselineCloud(spec.hurst, CecpPoint(float(h.mean()), float(c.mean())),
                          float(h.std()), float(c.std()), sims)
            for spec, h, c in zip(specs, rows, rows[len(specs):])]


def _runs(sims: int, samples_per_path: int) -> list[tuple[int, int]]:
    """The paths ``[lo, hi)`` of each process, whole blocks of
    ``_PATHS_PER_BLOCK`` in order: as many runs as ``_fork._count`` allows
    at ``_FORK_FLOOR`` samples each, but no more than blocks."""
    blocks = -(-sims // _PATHS_PER_BLOCK)
    count = min(_count(sims * samples_per_path, _FORK_FLOOR), blocks)
    edges = [min(k * blocks // count * _PATHS_PER_BLOCK, sims) for k in range(count + 1)]
    return list(zip(edges, edges[1:]))


def _score_paths(lams, child_seeds, config: OrdinalConfig, lo: int,
                 hi: int) -> np.ndarray:
    """Score paths ``[lo, hi)`` of every exponent, ``lo`` at a block start;
    returns their entropies for each exponent, then their complexities for
    each, one row apiece."""
    length = lams[0].size // 2
    n_windows = config.windows_in(length)
    points = np.empty((2, len(lams), hi - lo))
    paths = np.empty((len(lams), _PATHS_PER_BLOCK, length))
    for start in range(lo, hi, _PATHS_PER_BLOCK):
        seeds = child_seeds[start:min(start + _PATHS_PER_BLOCK, hi)]
        z = _standard_normals(seeds, 2 * length)
        block = paths[:, :seeds.size]
        for lam, out in zip(lams, block):
            np.cumsum(_fgn_circulant(lam, z), axis=1, out=out)
        e, c = _window_points(
            _encode_starts(block, config).ravel(), config.num_patterns,
            np.arange(len(lams) * seeds.size) * n_windows, n_windows)
        cols = slice(start - lo, start - lo + seeds.size)
        points[0, :, cols] = e.reshape(len(lams), -1)
        points[1, :, cols] = c.reshape(len(lams), -1)
    return points.reshape(2 * len(lams), -1)
