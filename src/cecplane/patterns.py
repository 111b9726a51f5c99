"""Ordinal pattern symbolization of univariate time series.

A window of ``dim`` values spaced ``delay`` samples apart is replaced by the
permutation describing the relative ordering of its entries (Bandt-Pompe
encoding, PRL 88:174102, 2002).  Counting pattern occurrences along a series
yields an ordinal pattern distribution, the input to every plane point.

Conventions used throughout:

* A window handed to :func:`encode_window` is chronological: ``window[k]`` is
  the value at lag offset ``(dim - 1 - k) * delay`` behind the window's final
  sample, i.e. ``window = (x[s-(D-1)t], ..., x[s-t], x[s])``.
* The encoded permutation ``(r0, ..., r_{D-1})`` lists lag offsets from the
  largest value (``r0``) down to the smallest (``r_{D-1}``); equal values are
  ordered so that the later entry carries the smaller offset (``r_i < r_{i-1}``
  whenever the two values tie).  This makes the encoding total and
  deterministic, with no randomization of ties.
* Patterns are identified by the lexicographic rank of the permutation tuple,
  an integer code in ``[0, D! - 1]``.

Codes flow through the package in the narrowest signed integer type that
holds ``D! - 1`` (int8 up to D = 5, int16 up to D = 7, int32 up to
``MAX_DIM``), and one ``np.bincount`` turns them into the dense
length-``D!`` int64 count vector a :class:`PatternDistribution` holds;
:func:`_window_counts` makes them for many spans of one code stream, on
int64 keys.  :class:`PatternId` objects are built only for
:func:`encode_window` and the ``counts`` mapping.

The code follows from order relations alone, with no sort (Unakafova &
Keller, Entropy 15:4392, 2013).  Write ``x_j`` for the value at lag offset
``j``.  By the tie rule, offset ``k < j`` comes after offset ``j`` in the
permutation exactly when ``x_k <= x_j``.  So the Lehmer digit at ``j``'s
position is ``cnt_j = #{k < j : x_k <= x_j}``, that position is
``rank_j = #{k < j : x_k > x_j} + #{k > j : x_j <= x_k}``, and the code is
``sum_j (D-1-rank_j)! * cnt_j``.  :func:`_encode_starts` evaluates these
``D(D-1)/2`` comparisons on strided views, ``_ENCODE_BLOCK`` window starts at
a time, so its temporaries stay a block long: on 4 assets x 250,000 log
returns at D = 6 the peak RSS of ``analyze`` is 46.9 MB (CPython 3.11,
numpy 2.4), reached while the assets are rolled, about 0.7 MB above the
load's own high-water mark.
"""

from __future__ import annotations

import math
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from . import _EXPORTS
from .special import _checked, _Holder, _integer

__all__ = [*_EXPORTS["patterns"], "permutation_to_index", "index_to_permutation"]

# D! must stay addressable with exact 64-bit integer counts.
MAX_DIM = 12

# Window starts _encode_starts encodes per block.  Its 250,000-sample encode
# at D = 4, 6 and 8 took 1.6, 2.9 and 5.2 ms at this size (one block:
# 2.9, 4.6 and 8.0 ms), within 0.4 ms of the fastest size tried, 8192 to
# 131,072 starts, on a Xeon with 2 MiB of L2 per core.
_ENCODE_BLOCK = 1 << 15

# Relative tolerance for the evenly-spaced-timestamps check.
_GRID_RTOL = 1e-9


def _as_float_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        bad = int(np.flatnonzero(~np.isfinite(arr))[0])
        raise ValueError(f"{name} contains a non-finite value at position {bad}")
    return arr


def _grid_violation(ts: np.ndarray) -> tuple[int, str] | None:
    """First sample that breaks a strictly increasing, evenly spaced grid,
    with the rule it breaks; ``None`` when there is none.

    The spacing is set by the first two samples.
    """
    gaps = np.diff(ts)
    if gaps.size == 0:
        return None
    ref = gaps[0]
    not_increasing = gaps <= 0
    # |gaps - ref| in place: no float temporary beside ``gaps``.
    gaps -= ref
    np.abs(gaps, out=gaps)
    broken = gaps > _GRID_RTOL * max(abs(ref), 1.0)
    broken |= not_increasing
    if not broken.any():
        return None
    first = int(np.argmax(broken))
    rule = "strictly increasing" if not_increasing[first] else "evenly spaced"
    return first + 1, rule


class TimeSeries(_Holder):
    """An evenly spaced sequence of finite real observations.

    ``timestamps``, when present, must be strictly increasing with constant
    spacing.  Both arrays are frozen after construction so instances can be
    shared freely across threads.
    """

    __slots__ = ("values", "timestamps")

    def __init__(self, values, timestamps: np.ndarray | None = None):
        values = _as_float_array(values, "values")
        if values.size < 1:
            raise ValueError("series must contain at least one observation")
        values.flags.writeable = False
        if timestamps is not None:
            timestamps = _as_float_array(timestamps, "timestamps")
            if timestamps.size != values.size:
                raise ValueError("timestamps and values must have equal length")
            violation = _grid_violation(timestamps)
            if violation is not None:
                raise ValueError(f"timestamps must be {violation[1]} "
                                 f"(first break at position {violation[0]})")
            timestamps.flags.writeable = False
        self.values, self.timestamps = values, timestamps

    def __len__(self) -> int:
        return int(self.values.size)


def _on_grid(values, timestamps: np.ndarray | None) -> TimeSeries:
    """A :class:`TimeSeries` of ``values`` on ``timestamps``, a read-only
    float64 grid as long as ``values`` that already passed
    :func:`_grid_violation` (or ``None``); only the values are checked."""
    series = TimeSeries(values)
    series.timestamps = timestamps
    return series


@_checked
class OrdinalConfig(NamedTuple):
    """Embedding dimension (pattern length) and delay for symbolization."""

    dim: int = 4
    delay: int = 1

    def _check(self):
        dim = _integer(self.dim, "dim", 2)
        if dim > MAX_DIM:
            raise ValueError(f"dim must be <= {MAX_DIM} so that dim! stays countable exactly")
        return dim, _integer(self.delay, "delay", 1)

    @property
    def num_patterns(self) -> int:
        """Number of distinct ordinal patterns, dim factorial."""
        return math.factorial(self.dim)

    def windows_in(self, series_len: int) -> int:
        """Number of ordinal windows a series of the given length admits."""
        return series_len - (self.dim - 1) * self.delay

    def _admitted_windows(self, samples: int, span: str) -> int:
        """``windows_in(samples)`` when it is at least 1; otherwise the one
        error for a span too short for a pattern, naming ``span``."""
        windows = self.windows_in(samples)
        if windows < 1:
            raise ValueError(f"{span} of {samples} samples admits no ordinal pattern at "
                             f"dim={self.dim}, delay={self.delay} (needs at least "
                             f"{(self.dim - 1) * self.delay + 1})")
        return windows


def permutation_to_index(perm: Sequence[int]) -> int:
    """Lexicographic rank of a permutation of ``0..D-1`` (Lehmer code)."""
    d = len(perm)
    rank = 0
    for i in range(d):
        smaller_after = sum(1 for j in range(i + 1, d) if perm[j] < perm[i])
        rank += smaller_after * math.factorial(d - 1 - i)
    return rank


def index_to_permutation(index: int, dim: int) -> tuple[int, ...]:
    """Inverse of :func:`permutation_to_index`."""
    if not 0 <= index < math.factorial(dim):
        raise ValueError(f"index {index} out of range for dim={dim}")
    remaining = list(range(dim))
    out = []
    for i in range(dim):
        f = math.factorial(dim - 1 - i)
        pos, index = divmod(index, f)
        out.append(remaining.pop(pos))
    return tuple(out)


@_checked
class PatternId(NamedTuple):
    """A single ordinal pattern: the permutation and its lexicographic rank."""

    permutation: tuple[int, ...]
    index: int

    def _check(self):
        d = len(self.permutation)
        if sorted(self.permutation) != list(range(d)):
            raise ValueError(f"{self.permutation} is not a permutation of 0..{d - 1}")
        index = _integer(self.index, "index", 0)
        if index != permutation_to_index(self.permutation):
            raise ValueError(f"index {index} does not match permutation {self.permutation}")
        return self.permutation, index

    @classmethod
    def from_index(cls, index: int, dim: int) -> "PatternId":
        return cls(index_to_permutation(index, dim), index)


class PatternDistribution(_Holder):
    """Exact ordinal pattern counts: ``histogram[i]`` is the number of
    windows with pattern code ``i``, a read-only int64 vector of length
    ``dim!``.  Everything else is derived from it on demand, so no rounding
    accumulates during counting.
    """

    __slots__ = ("config", "histogram")

    def __init__(self, config: OrdinalConfig, histogram):
        hist = np.asarray(histogram)
        if hist.dtype.kind not in "iu":
            raise ValueError(f"histogram must hold integer counts, got dtype {hist.dtype}")
        if hist.shape != (config.num_patterns,):
            raise ValueError(f"histogram must have shape ({config.num_patterns},) "
                             f"for dim={config.dim}, got {hist.shape}")
        if (hist < 0).any():
            raise ValueError("counts must be nonnegative")
        if hist.sum() < 1:
            raise ValueError("counts must sum to a positive sample count")
        hist = hist.astype(np.int64)
        hist.flags.writeable = False
        self.config, self.histogram = config, hist

    @property
    def sample_count(self) -> int:
        """Number of windows counted."""
        return int(self.histogram.sum())

    @property
    def probabilities(self) -> np.ndarray:
        """Dense probability vector over all ``dim!`` patterns (zeros included)."""
        return self.histogram / self.sample_count

    @property
    def counts(self) -> Mapping[PatternId, int]:
        """Read-only ``{PatternId: count}`` over the observed patterns."""
        return MappingProxyType({
            PatternId.from_index(int(code), self.config.dim): int(self.histogram[code])
            for code in np.flatnonzero(self.histogram)
        })


def _encode_starts(values: np.ndarray, config: OrdinalConfig) -> np.ndarray:
    """Pattern index for every admissible window start along the last axis.

    ``values`` is one series of shape ``(n,)`` or a batch of shape
    ``(rows, n)``; entry ``t`` of a row encodes the window whose final sample
    sits at ``t + (dim-1)*delay``.  The codes are of the narrowest signed
    integer type that holds ``D! - 1``: int8 up to D = 5, int16 up to D = 7,
    int32 up to ``MAX_DIM``.

    No window is sorted.  ``x_j = values[..., s:s + n]`` with
    ``s = (D-1-j)*delay`` is a strided view holding the value at lag offset
    ``j`` of every window, and each pair ``k < j`` is compared once,
    ``le = x_k <= x_j``.  The tie rule puts offset ``k`` after offset ``j``
    in the permutation exactly when ``le`` holds (a smaller value, or an
    equal one at the smaller offset), so

    * ``cnt_j = #{k < j : x_k <= x_j}`` counts the smaller offsets that
      follow ``j``, the Lehmer digit at ``j``'s position;
    * ``rank_j``, that position, counts the offsets ahead of ``j``: each
      pair adds ``le`` to ``rank_k`` and ``~le`` to ``rank_j``.  Summed
      over ``k < j`` the ``~le`` terms are ``j - cnt_j``.

    The code is ``sum_j (D-1-rank_j)! * cnt_j``, one gather per offset from a
    D-entry factorial table; ``cnt_0 = 0``.  Every term and partial sum is at
    most the code, so none overflows the code type.  The starts are encoded
    ``_ENCODE_BLOCK`` at a time, each block's views reaching ``(D-1)*delay``
    samples past it, straight into the one output: beside the codes the
    peak holds one block's int8 counts and ranks (``2 D`` bytes per start),
    its bool mask, its ``term`` and the intp copy of a rank row that
    ``np.take`` makes, and no ``(..., n, D)`` copy of the values.
    """
    d, tau = config.dim, config.delay
    span = (d - 1) * tau
    code_type = np.min_scalar_type(-config.num_patterns)
    factorial_at_rank = np.array([math.factorial(d - 1 - r) for r in range(d)],
                                 dtype=code_type)
    codes = np.zeros(values.shape[:-1] + (config.windows_in(values.shape[-1]),),
                     dtype=code_type)
    for lo in range(0, codes.shape[-1], _ENCODE_BLOCK):
        out = codes[..., lo:lo + _ENCODE_BLOCK]
        # x[j] starts (D-1-j)*delay samples past lo: the value at lag offset j.
        x = [values[..., s:s + out.shape[-1]] for s in range(lo + span, lo - 1, -tau)]
        rank = [np.full(out.shape, j, dtype=np.int8) for j in range(d)]
        cnt = [np.zeros(out.shape, dtype=np.int8) for _ in range(d)]
        le = np.empty(out.shape, dtype=bool)
        for j in range(1, d):
            for k in range(j):
                np.less_equal(x[k], x[j], out=le)
                cnt[j] += le
                rank[k] += le
            rank[j] -= cnt[j]  # its ~le terms: j - cnt_j
        term = np.empty(out.shape, dtype=code_type)
        for j in range(1, d):
            # Ranks are always in range; "clip" writes straight into ``term``,
            # where the default "raise" fills a buffer and copies it over.
            np.take(factorial_at_rank, rank[j], out=term, mode="clip")
            term *= cnt[j]
            out += term
    return codes


def _window_counts(codes: np.ndarray, m: int, starts: np.ndarray,
                   per_window: int) -> np.ndarray:
    """``(windows, m)`` counts of the spans ``codes[s:s + per_window]`` at
    increasing ``starts``, whether the spans overlap, abut or leave gaps.

    The span edges cut the code stream into pieces (the successive-pattern
    idea of Unakafova & Keller, Entropy 15:4392, 2013).  The codes of piece
    ``b`` become new bincount keys ``(b + 1) * m + code``, so one bincount
    counts every piece in row ``b + 1`` and leaves row 0 zero.  A cumulative
    sum over the rows, in place, makes row ``j`` the counts ahead of edge
    ``j``, and a span's counts are its end row minus its start row.
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


def encode_window(window, config: OrdinalConfig) -> PatternId:
    """Encode one chronological window of ``dim`` values into its pattern.

    Raises ValueError on a length mismatch or non-finite entries.
    """
    arr = _as_float_array(window, "window")
    if arr.size != config.dim:
        raise ValueError(f"window has {arr.size} values, config requires {config.dim}")
    # The window is already materialized, so its effective delay is 1.
    code = int(_encode_starts(arr, OrdinalConfig(config.dim, 1))[0])
    return PatternId.from_index(code, config.dim)


def extract_pattern_distribution(series: TimeSeries, config: OrdinalConfig) -> PatternDistribution:
    """Count every ordinal pattern along the series and normalize.

    The series must admit at least one window: ``len(series)`` greater than
    ``(dim-1)*delay``.
    """
    config._admitted_windows(len(series), "series")
    codes = _encode_starts(series.values, config)
    return PatternDistribution(config, np.bincount(codes, minlength=config.num_patterns))

