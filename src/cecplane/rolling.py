"""Sliding-window evolution of plane coordinates along a series.

Window ``k`` covers samples ``[k*step, k*step + size)``; pattern vectors never
straddle a window edge, and trailing samples that cannot fill a window are
dropped.  Each window is mapped to its (H, C) point, yielding the temporal
trajectory of a series on the complexity-entropy plane.

The implementation encodes the full series once: the code at stream
position ``t`` depends only on samples ``t .. t + (dim-1)*delay``, which lie
inside window ``k`` exactly when ``t`` is one of the window's
``size - (dim-1)*delay`` admissible starts.  The window start and end
positions cut the code stream into blocks; one ``bincount`` counts every
block's patterns, a cumulative sum over blocks gives the counts before each
edge, and each window's histogram is the difference at its end and start
edges (the successive-pattern idea of Unakafova & Keller, Entropy 15:4392,
2013, without a per-window loop).  All windows then go through the plane-point
kernel at once.  The counts, hence the points, are bit-identical to
standalone per-window extraction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .patterns import OrdinalConfig, TimeSeries, _encode_starts, _pattern_counts
from .quantifiers import CecpPoint, _plane_points

__all__ = [
    "WindowParams",
    "RollingResult",
    "window_count",
    "rolling_quantifiers",
]


@dataclass(frozen=True)
class WindowParams:
    """Sliding-window geometry: samples per window and stride between starts."""

    size: int = 360
    step: int = 60

    def __post_init__(self):
        if not isinstance(self.size, int) or self.size < 2:
            raise ValueError(f"size must be an integer >= 2, got {self.size!r}")
        if not isinstance(self.step, int) or self.step < 1:
            raise ValueError(f"step must be an integer >= 1, got {self.step!r}")


@dataclass(frozen=True)
class RollingResult:
    """Per-window plane points, aligned with their window start offsets."""

    asset: str
    window_starts: np.ndarray
    points: tuple[CecpPoint, ...]
    samples_per_window: int
    end_timestamps: np.ndarray | None = None

    def __post_init__(self):
        starts = np.asarray(self.window_starts, dtype=np.int64)
        if starts.size != len(self.points):
            raise ValueError("window_starts and points must have equal length")
        if starts.size > 1:
            strides = np.diff(starts)
            if not (strides > 0).all() or strides.min() != strides.max():
                raise ValueError("window_starts must advance by a constant positive stride")
        starts.flags.writeable = False
        object.__setattr__(self, "window_starts", starts)
        if self.end_timestamps is not None and len(self.end_timestamps) != starts.size:
            raise ValueError("end_timestamps must align with window_starts")

    @property
    def entropies(self) -> np.ndarray:
        return np.array([p.entropy for p in self.points])

    @property
    def complexities(self) -> np.ndarray:
        return np.array([p.complexity for p in self.points])


def window_count(series_len: int, params: WindowParams) -> int:
    """Number of full windows: ``(series_len - size) // step + 1``."""
    if series_len < params.size:
        raise ValueError(
            f"series of length {series_len} shorter than one window of {params.size}"
        )
    return (series_len - params.size) // params.step + 1


def _window_counts(codes: np.ndarray, starts: np.ndarray, per_window: int,
                   m: int) -> np.ndarray:
    """``(windows, m)`` pattern counts of the code slices
    ``codes[start : start + per_window]``, for increasing ``starts``."""
    edges = np.union1d(starts, starts + per_window)
    block_of = np.repeat(np.arange(edges.size - 1, dtype=np.int64), np.diff(edges))
    blocks = _pattern_counts(block_of, codes[:edges[-1]], edges.size - 1, m)
    # before[j]: counts of every code ahead of edges[j].
    before = np.zeros((edges.size, m), dtype=np.int64)
    np.cumsum(blocks, axis=0, out=before[1:])
    return (before[np.searchsorted(edges, starts + per_window)]
            - before[np.searchsorted(edges, starts)])


def rolling_quantifiers(series: TimeSeries, params: WindowParams,
                        config: OrdinalConfig, asset: str = "") -> RollingResult:
    """Plane point of every full window of the series.

    A constant window is not an error: the tie rule maps it to a single
    pattern, hence to the plane origin (0, 0).
    """
    per_window = config.windows_in(params.size)
    if per_window < 1:
        raise ValueError(
            f"window size {params.size} admits no pattern at dim={config.dim}, "
            f"delay={config.delay}"
        )
    n_windows = window_count(len(series), params)
    starts = np.arange(n_windows, dtype=np.int64) * params.step
    counts = _window_counts(_encode_starts(series.values, config), starts, per_window,
                            config.num_patterns)
    entropy, complexity = _plane_points(counts / per_window)
    points = tuple(map(CecpPoint, entropy.tolist(), complexity.tolist()))
    ends = None
    if series.timestamps is not None:
        ends = series.timestamps[starts + params.size - 1].copy()
        ends.flags.writeable = False
    return RollingResult(
        asset=asset,
        window_starts=starts,
        points=points,
        samples_per_window=per_window,
        end_timestamps=ends,
    )
