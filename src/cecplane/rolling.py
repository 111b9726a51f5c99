"""Sliding-window evolution of plane coordinates along a series.

Window ``k`` covers samples ``[k*step, k*step + size)``; pattern vectors never
straddle a window edge, and trailing samples that cannot fill a window are
dropped.  Each window is mapped to its (H, C) point, yielding the temporal
trajectory of a series on the complexity-entropy plane, which a
:class:`RollingResult` holds as two read-only float64 arrays.

The series is encoded once: the code at stream position ``t`` depends only
on samples ``t .. t + (dim-1)*delay``, which lie inside window ``k`` exactly
when ``t`` is one of the window's ``size - (dim-1)*delay`` admissible
starts.  So each window is a span of the code stream, scored by
:func:`~cecplane.quantifiers._window_points` as fBm paths are, bit for bit
as standalone per-window extraction.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import _EXPORTS
from .patterns import OrdinalConfig, TimeSeries, _encode_starts
from .quantifiers import _window_points
from .special import _checked, _Holder, _integer, _stride_break

__all__ = [*_EXPORTS["rolling"]]


@_checked
class WindowParams(NamedTuple):
    """Sliding-window geometry: samples per window and stride between starts."""

    size: int = 360
    step: int = 60

    def _check(self):
        return _integer(self.size, "size", 2), _integer(self.step, "step", 1)


class RollingResult(_Holder):
    """Per-window plane coordinates: read-only float64 ``entropies`` and
    ``complexities`` aligned with the window start offsets."""

    __slots__ = ("asset", "window_starts", "entropies", "complexities", "samples_per_window",
                 "end_timestamps")

    def __init__(self, asset: str, window_starts, entropies, complexities,
                 samples_per_window: int, end_timestamps: np.ndarray | None = None):
        self.asset = asset
        self.samples_per_window = _integer(samples_per_window, "samples_per_window", 1)
        starts = np.array(window_starts, dtype=np.int64)
        if starts.ndim != 1:
            raise ValueError("window_starts must be one-dimensional")
        for name, values in (("entropies", entropies), ("complexities", complexities)):
            values = np.array(values, dtype=np.float64)
            if values.shape != starts.shape:
                raise ValueError(f"window_starts and {name} must have equal length")
            values.flags.writeable = False
            setattr(self, name, values)
        if _stride_break(starts.tolist()) is not None:
            raise ValueError("window_starts must advance by a constant positive stride")
        starts.flags.writeable = False
        self.window_starts = starts
        if end_timestamps is not None:
            end_timestamps = np.array(end_timestamps, dtype=np.float64)
            if end_timestamps.shape != starts.shape:
                raise ValueError("end_timestamps must align with window_starts")
            end_timestamps.flags.writeable = False
        self.end_timestamps = end_timestamps


def window_count(series_len: int, params: WindowParams) -> int:
    """Number of full windows: ``(series_len - size) // step + 1``."""
    series_len = _integer(series_len, "series_len", 0)
    if series_len < params.size:
        raise ValueError(
            f"series of length {series_len} shorter than one window of {params.size}"
        )
    return (series_len - params.size) // params.step + 1


def rolling_quantifiers(series: TimeSeries, params: WindowParams,
                        config: OrdinalConfig, asset: str = "") -> RollingResult:
    """Plane point of every full window of the series.

    A constant window is not an error: the tie rule maps it to a single
    pattern, hence to the plane origin (0, 0).
    """
    per_window = config._admitted_windows(params.size, "window")
    starts = np.arange(window_count(len(series), params), dtype=np.int64) * params.step
    entropies, complexities = _window_points(_encode_starts(series.values, config),
                                             config.num_patterns, starts, per_window)
    ends = None if series.timestamps is None else series.timestamps[starts + params.size - 1]
    return RollingResult(
        asset=asset,
        window_starts=starts,
        entropies=entropies,
        complexities=complexities,
        samples_per_window=per_window,
        end_timestamps=ends,
    )
