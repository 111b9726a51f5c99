"""Ordinal pattern symbolization of univariate time series.

A window of ``dim`` values spaced ``delay`` samples apart is replaced by the
permutation describing the relative ordering of its entries (Bandt-Pompe
encoding, PRL 88:174102, 2002).  Counting pattern occurrences along a series
yields an ordinal pattern probability distribution, the input to all
downstream quantifiers.

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
  an integer in ``[0, D! - 1]``.

The rank follows from order relations alone, with no sort (Unakafova &
Keller, Entropy 15:4392, 2013).  Write ``x_j`` for the value at lag offset
``j``.  By the tie rule, offset ``k < j`` comes after offset ``j`` in the
permutation exactly when ``x_k <= x_j``.  So the Lehmer digit at ``j``'s
position is ``cnt_j = #{k < j : x_k <= x_j}``, that position is
``rank_j = #{k < j : x_k > x_j} + #{k > j : x_j <= x_k}``, and the rank is
``sum_j (D-1-rank_j)! * cnt_j``.  :func:`_encode_starts` evaluates these
``D(D-1)/2`` comparisons on strided views of the whole series at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import permutations
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "TimeSeries",
    "OrdinalConfig",
    "PatternId",
    "PatternDistribution",
    "encode_window",
    "extract_pattern_distribution",
    "naive_pattern_oracle",
    "permutation_to_index",
    "index_to_permutation",
]

# D! must stay addressable with exact 64-bit integer counts.
MAX_DIM = 12

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
    broken = (gaps <= 0) | (np.abs(gaps - ref) > _GRID_RTOL * max(abs(ref), 1.0))
    if not broken.any():
        return None
    first = int(np.argmax(broken))
    rule = "strictly increasing" if gaps[first] <= 0 else "evenly spaced"
    return first + 1, rule


@dataclass(frozen=True)
class TimeSeries:
    """An evenly spaced sequence of finite real observations.

    ``timestamps``, when present, must be strictly increasing with constant
    spacing.  Both arrays are frozen after construction so instances can be
    shared freely across threads.
    """

    values: np.ndarray
    timestamps: np.ndarray | None = None

    def __post_init__(self):
        values = _as_float_array(self.values, "values")
        if values.size < 1:
            raise ValueError("series must contain at least one observation")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        if self.timestamps is not None:
            ts = _as_float_array(self.timestamps, "timestamps")
            if ts.size != values.size:
                raise ValueError("timestamps and values must have equal length")
            violation = _grid_violation(ts)
            if violation is not None:
                raise ValueError(f"timestamps must be {violation[1]} "
                                 f"(first break at position {violation[0]})")
            ts.flags.writeable = False
            object.__setattr__(self, "timestamps", ts)

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class OrdinalConfig:
    """Embedding dimension (pattern length) and delay for symbolization."""

    dim: int = 4
    delay: int = 1

    def __post_init__(self):
        if not isinstance(self.dim, int) or self.dim < 2:
            raise ValueError(f"dim must be an integer >= 2, got {self.dim!r}")
        if self.dim > MAX_DIM:
            raise ValueError(f"dim must be <= {MAX_DIM} so that dim! stays countable exactly")
        if not isinstance(self.delay, int) or self.delay < 1:
            raise ValueError(f"delay must be an integer >= 1, got {self.delay!r}")

    @property
    def num_patterns(self) -> int:
        """Number of distinct ordinal patterns, dim factorial."""
        return math.factorial(self.dim)

    def windows_in(self, series_len: int) -> int:
        """Number of ordinal windows a series of the given length admits."""
        return series_len - (self.dim - 1) * self.delay


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


@dataclass(frozen=True)
class PatternId:
    """A single ordinal pattern: the permutation and its lexicographic rank."""

    permutation: tuple[int, ...]
    index: int

    def __post_init__(self):
        d = len(self.permutation)
        if sorted(self.permutation) != list(range(d)):
            raise ValueError(f"{self.permutation} is not a permutation of 0..{d - 1}")
        if self.index != permutation_to_index(self.permutation):
            raise ValueError(
                f"index {self.index} does not match permutation {self.permutation}"
            )

    @classmethod
    def from_permutation(cls, perm: Sequence[int]) -> "PatternId":
        perm = tuple(int(p) for p in perm)
        return cls(perm, permutation_to_index(perm))

    @classmethod
    def from_index(cls, index: int, dim: int) -> "PatternId":
        return cls(index_to_permutation(index, dim), index)

    @property
    def dim(self) -> int:
        return len(self.permutation)


@dataclass(frozen=True)
class PatternDistribution:
    """Ordinal pattern counts and the probability vector they induce.

    ``counts`` holds exact integer occurrence counts for the observed
    patterns; probabilities are formed on demand as ``count / sample_count``
    so no rounding accumulates during counting.
    """

    config: OrdinalConfig
    counts: Mapping[PatternId, int]
    sample_count: int
    _probs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.sample_count < 1:
            raise ValueError("sample_count must be positive")
        total = sum(self.counts.values())
        if total != self.sample_count:
            raise ValueError(
                f"counts sum to {total}, expected sample_count={self.sample_count}"
            )
        probs = np.zeros(self.config.num_patterns)
        for pid, count in self.counts.items():
            if count < 0:
                raise ValueError("counts must be nonnegative")
            probs[pid.index] = count / self.sample_count
        probs.flags.writeable = False
        object.__setattr__(self, "_probs", probs)

    @property
    def probabilities(self) -> np.ndarray:
        """Dense probability vector over all ``dim!`` patterns (zeros included)."""
        return self._probs


def _encode_starts(values: np.ndarray, config: OrdinalConfig) -> np.ndarray:
    """Pattern index for every admissible window start along the last axis.

    ``values`` is one series of shape ``(n,)`` or a batch of shape
    ``(rows, n)``; entry ``t`` of a row encodes the window whose final sample
    sits at ``t + (dim-1)*delay``.

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
    D-entry factorial table; ``cnt_0 = 0``.  Counts and ranks are int8
    (``D <= MAX_DIM``): ``2 D`` bytes per window beside the int64 codes, and
    no ``(..., n, D)`` copy of the values.
    """
    d, tau = config.dim, config.delay
    n_windows = config.windows_in(values.shape[-1])
    # x[j] starts (D-1-j)*delay samples in: the value at lag offset j.
    x = [values[..., s:s + n_windows] for s in range((d - 1) * tau, -1, -tau)]
    shape = x[0].shape
    rank = [np.full(shape, j, dtype=np.int8) for j in range(d)]
    cnt = [np.zeros(shape, dtype=np.int8) for _ in range(d)]
    le = np.empty(shape, dtype=bool)
    for j in range(1, d):
        for k in range(j):
            np.less_equal(x[k], x[j], out=le)
            cnt[j] += le
            rank[k] += le
        rank[j] -= cnt[j]  # its ~le terms: j - cnt_j
    factorial_at_rank = np.array([math.factorial(d - 1 - r) for r in range(d)],
                                 dtype=np.int64)
    codes = np.zeros(shape, dtype=np.int64)
    term = np.empty(shape, dtype=np.int64)
    for j in range(1, d):
        np.take(factorial_at_rank, rank[j], out=term)
        term *= cnt[j]
        codes += term
    return codes


def _pattern_counts(rows: np.ndarray, codes: np.ndarray, n_rows: int, m: int) -> np.ndarray:
    """``(n_rows, m)`` counts of ``codes``, each counted in the row that
    ``rows`` (broadcast against ``codes``) gives for it."""
    return np.bincount((rows * m + codes).ravel(), minlength=n_rows * m).reshape(n_rows, m)


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


def _distribution_from_codes(codes: np.ndarray, config: OrdinalConfig) -> PatternDistribution:
    observed, occurrences = np.unique(codes, return_counts=True)
    counts = {
        PatternId.from_index(int(code), config.dim): int(count)
        for code, count in zip(observed, occurrences)
    }
    return PatternDistribution(config, counts, int(codes.size))


def extract_pattern_distribution(series: TimeSeries, config: OrdinalConfig) -> PatternDistribution:
    """Count every ordinal pattern along the series and normalize.

    The series must admit at least one window: ``len(series)`` greater than
    ``(dim-1)*delay``.
    """
    n_windows = config.windows_in(len(series))
    if n_windows < 1:
        raise ValueError(
            f"series of length {len(series)} too short for dim={config.dim}, "
            f"delay={config.delay} (needs at least {(config.dim - 1) * config.delay + 1})"
        )
    codes = _encode_starts(series.values, config)
    return _distribution_from_codes(codes, config)


def naive_pattern_oracle(series: TimeSeries, config: OrdinalConfig) -> PatternDistribution:
    """Reference implementation by explicit window materialization.

    Every window is sorted with plain Python and pattern ranks come from an
    enumerated permutation table, independent of the vectorized path.  Only
    meant for tests and small ``dim``.
    """
    d, tau = config.dim, config.delay
    n_windows = config.windows_in(len(series))
    if n_windows < 1:
        raise ValueError(
            f"series of length {len(series)} too short for dim={d}, delay={tau}"
        )
    rank_of = {perm: i for i, perm in enumerate(permutations(range(d)))}
    values = series.values
    counts: dict[PatternId, int] = {}
    for t in range(n_windows):
        last = t + (d - 1) * tau
        # (value, lag) pairs sorted ascending; equal values fall back to the
        # smaller lag offset, which is exactly the deterministic tie rule.
        by_value = sorted((values[last - j * tau], j) for j in range(d))
        perm = tuple(j for _, j in reversed(by_value))
        pid = PatternId(perm, rank_of[perm])
        counts[pid] = counts.get(pid, 0) + 1
    return PatternDistribution(config, counts, n_windows)
