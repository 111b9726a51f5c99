"""Sliding-window evolution of plane coordinates along a series.

Window ``k`` covers samples ``[k*step, k*step + size)``; pattern vectors never
straddle a window edge, and trailing samples that cannot fill a window are
dropped.  Each window is mapped to its (H, C) point, yielding the temporal
trajectory of a series on the complexity-entropy plane, which a
:class:`RollingResult` holds as two read-only float64 arrays.

The series is encoded once: the code at stream position ``t`` depends only
on samples ``t .. t + (dim-1)*delay``, which lie inside window ``k`` exactly
when ``t`` is one of the window's ``size - (dim-1)*delay`` admissible
starts.  The windows are scored a block at a time, the block's edges x D!
within the fBm clouds' cap.  In a block, the window start and end positions
cut the code stream into pieces; one ``bincount`` counts every piece's
patterns, a cumulative sum over pieces gives the counts before each edge,
and each window's dense count vector is the difference at its end and start
edges (the successive-pattern idea of Unakafova & Keller, Entropy 15:4392,
2013, without a per-window loop); the block's windows then go through the
plane-point kernel at once.  The counts, hence the points, are bit-identical
to standalone per-window extraction.  The encoder and the kernel load when
a series is rolled, so reading results back from a file loads neither.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .patterns import OrdinalConfig, TimeSeries

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


@dataclass(frozen=True, eq=False)
class RollingResult:
    """Per-window plane coordinates: read-only float64 ``entropies`` and
    ``complexities`` aligned with the window start offsets."""

    asset: str
    window_starts: np.ndarray
    entropies: np.ndarray
    complexities: np.ndarray
    samples_per_window: int
    end_timestamps: np.ndarray | None = None

    def __post_init__(self):
        starts = np.array(self.window_starts, dtype=np.int64)
        for name in ("entropies", "complexities"):
            values = np.array(getattr(self, name), dtype=np.float64)
            if values.shape != starts.shape:
                raise ValueError(f"window_starts and {name} must have equal length")
            values.flags.writeable = False
            object.__setattr__(self, name, values)
        if starts.size > 1:
            strides = np.diff(starts)
            if not (strides > 0).all() or strides.min() != strides.max():
                raise ValueError("window_starts must advance by a constant positive stride")
        starts.flags.writeable = False
        object.__setattr__(self, "window_starts", starts)
        if self.end_timestamps is not None and len(self.end_timestamps) != starts.size:
            raise ValueError("end_timestamps must align with window_starts")


def window_count(series_len: int, params: WindowParams) -> int:
    """Number of full windows: ``(series_len - size) // step + 1``."""
    if series_len < params.size:
        raise ValueError(
            f"series of length {series_len} shorter than one window of {params.size}"
        )
    return (series_len - params.size) // params.step + 1


def _window_counts(codes: np.ndarray, m: int, starts: np.ndarray,
                   per_window: int) -> np.ndarray:
    """``(windows, m)`` pattern counts of the windows whose admissible starts
    are ``start .. start + per_window - 1``, for increasing ``starts``, from
    the series' pattern ``codes``.

    The window edges cut the code stream into pieces.  The codes of piece
    ``b`` become the bincount keys ``(b + 1) * m + code``, in a new array
    (the windows of the next call overlap these codes), so one bincount
    counts every piece in row ``b + 1`` and leaves row 0 zero.  A cumulative
    sum over the rows, in place, then makes row ``j`` the counts of every
    code ahead of edge ``j``, and a window's counts are its end row minus
    its start row, subtracted into the gathered end rows.
    """
    # A repeated edge bounds an empty piece, which adds nothing to its row,
    # and searchsorted picks the first of equal edges, so no dedupe is needed.
    edges = np.sort(np.concatenate((starts, starts + per_window)))
    keys = codes[edges[0]:edges[-1]] + np.repeat(
        np.arange(m, edges.size * m, m, dtype=np.int64), np.diff(edges))
    before = np.bincount(keys, minlength=edges.size * m).reshape(edges.size, m)
    del keys
    np.cumsum(before, axis=0, out=before)
    counts = before[np.searchsorted(edges, starts + per_window)]
    counts -= before[np.searchsorted(edges, starts)]
    return counts


def rolling_quantifiers(series: TimeSeries, params: WindowParams,
                        config: OrdinalConfig, asset: str = "") -> RollingResult:
    """Plane point of every full window of the series.

    A constant window is not an error: the tie rule maps it to a single
    pattern, hence to the plane origin (0, 0).
    """
    from .patterns import _encode_starts
    from .quantifiers import _COUNTS_PER_BLOCK, _plane_points

    per_window = config.windows_in(params.size)
    if per_window < 1:
        raise ValueError(
            f"window size {params.size} admits no pattern at dim={config.dim}, "
            f"delay={config.delay}"
        )
    n_windows = window_count(len(series), params)
    starts = np.arange(n_windows, dtype=np.int64) * params.step
    codes = _encode_starts(series.values, config)
    m = config.num_patterns
    entropies, complexities = np.empty(n_windows), np.empty(n_windows)
    block = max(1, _COUNTS_PER_BLOCK // (2 * m))  # two edges per window
    for lo in range(0, n_windows, block):
        rows = slice(lo, lo + block)
        entropies[rows], _, complexities[rows] = _plane_points(
            _window_counts(codes, m, starts[rows], per_window) / per_window)
    ends = None
    if series.timestamps is not None:
        ends = series.timestamps[starts + params.size - 1].copy()
        ends.flags.writeable = False
    return RollingResult(
        asset=asset,
        window_starts=starts,
        entropies=entropies,
        complexities=complexities,
        samples_per_window=per_window,
        end_timestamps=ends,
    )
