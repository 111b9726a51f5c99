"""Summaries, efficiency ranking, and statistical tests over rolling results.

An asset's informational efficiency is proxied by the Euclidean distance of
its mean plane position to the fully-random corner (H, C) = (1, 0): smaller
distance, higher efficiency, better (smaller) rank.  One-way ANOVA compares
window-level quantifiers across assets or against a designated baseline;
Spearman's rho relates the efficiency ordering to external size metrics.

All reductions run through ``math.fsum`` over Python lists, so results do
not depend on summation order, and p-values come from the local
incomplete-beta routines (see ``special``).  The module loads no numpy: a
``RollingResult``'s arrays and the tuples the CLI reads back from
``windows.csv`` both enter through one conversion to a list of floats.  A
run takes each asset's list, fsum mean and fsum sum of squares once per
metric (``_Group``): its summary, the all-asset ANOVA and every pairwise
test read them (``_tests``), with the results of the public functions.
The result records follow the package's one record rule (``special``).
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Sequence

from . import _EXPORTS
from .special import _check_point, _checked, _integer, _labels, f_sf, student_t_sf_two_sided

if TYPE_CHECKING:
    from .rolling import RollingResult

__all__ = [*_EXPORTS["stats"], "average_ranks"]


@_checked
class AssetSummary(NamedTuple):
    """Mean and sample spread of an asset's windowed plane coordinates."""

    asset: str
    mean_entropy: float
    mean_complexity: float
    std_entropy: float
    std_complexity: float
    window_count: int

    def _check(self):
        _check_point(self.mean_entropy, self.mean_complexity, "mean ")
        if self.std_entropy < 0 or self.std_complexity < 0:
            raise ValueError("standard deviations must be nonnegative")
        return (*self[:5], _integer(self.window_count, "window_count", 1))


@_checked
class RankingEntry(NamedTuple):
    """One row of the efficiency ranking.

    ``rank`` is a float because tied distances share the average of the rank
    range they span (two assets tied for places 4-5 both get 4.5); ``tied``
    marks entries involved in such a tie.
    """

    asset: str
    distance: float
    rank: float
    tied: bool = False

    def _check(self):
        if self.distance < 0:
            raise ValueError("distance must be nonnegative")
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        return self


@_checked
class AnovaResult(NamedTuple):
    """Classical one-way fixed-effects decomposition.

    ``degenerate`` marks the all-values-identical case where both between-
    and within-group variation vanish; by convention it reports F = 0, p = 1.
    The fields, in order, are the columns of ``anova.csv`` and the keys of
    the ``anova`` command's JSON.
    """

    ss_between: float
    ss_within: float
    ss_total: float
    df_between: int
    df_within: int
    ms_between: float
    ms_within: float
    f_stat: float
    p_value: float
    degenerate: bool = False

    def _check(self):
        if min(self.ss_between, self.ss_within, self.ss_total) < 0:
            raise ValueError("sums of squares must be nonnegative")
        df = _integer(self.df_between, "df_between", 1), _integer(self.df_within, "df_within", 1)
        if self.f_stat < 0:
            raise ValueError("F statistic must be nonnegative")
        if not 0.0 <= self.p_value <= 1.0:
            raise ValueError(f"p-value {self.p_value} outside [0, 1]")
        return (*self[:3], *df, *self[5:])


@_checked
class SpearmanResult(NamedTuple):
    """Rank correlation with its two-sided t-approximation p-value."""

    rho: float
    p_value: float
    n: int

    def _check(self):
        if not -1.0 <= self.rho <= 1.0:
            raise ValueError(f"rho {self.rho} outside [-1, 1]")
        if not 0.0 <= self.p_value <= 1.0:
            raise ValueError(f"p-value {self.p_value} outside [0, 1]")
        return self.rho, self.p_value, _integer(self.n, "n", 3)


class _Group:
    """One asset's values of one metric, with their fsum mean and their
    fsum sum of squares about that mean, each taken once and read by the
    summary's spread, the all-asset ANOVA, every pairwise test and, over
    ranks, Spearman's rho.  (A
    plain class: a NamedTuple took 90 us more to import in each command.)"""

    __slots__ = ("label", "values", "mean", "ss")

    def __init__(self, label: str, values: list[float]):
        self.label, self.values, self.mean = label, values, math.fsum(values) / len(values)
        self.ss = math.fsum([(v - self.mean) ** 2 for v in values])

    @property
    def std(self) -> float:
        """The sample (n-1) standard deviation; 0 for a single value."""
        n = len(self.values)
        return math.sqrt(self.ss / (n - 1)) if n > 1 else 0.0


def _floats(values, error: str) -> list[float]:
    """``values`` as a list of floats, converted once (``tolist()`` for an
    array); ``ValueError(error)`` when it is not a one-dimensional sequence
    of numbers."""
    try:
        return list(map(float, values.tolist() if hasattr(values, "tolist") else values))
    except TypeError:
        raise ValueError(error) from None


def _coordinates(result: RollingResult) -> tuple[list[float], list[float]]:
    """The ``entropies`` and ``complexities`` of a result as float lists."""
    return (_floats(result.entropies, "entropies must be a one-dimensional sequence"),
            _floats(result.complexities, "complexities must be a one-dimensional sequence"))


def _groups(result: RollingResult) -> tuple[_Group, _Group]:
    """The entropy and complexity groups of a result with at least one window."""
    hs, cs = _coordinates(result)
    if not hs:
        raise ValueError("rolling result contains no windows")
    return _Group(result.asset, hs), _Group(result.asset, cs)


def _summary(entropy: _Group, complexity: _Group) -> AssetSummary:
    return AssetSummary(entropy.label, entropy.mean, complexity.mean, entropy.std,
                        complexity.std, len(entropy.values))


def summarize(result: RollingResult) -> AssetSummary:
    """Componentwise mean and sample (n-1) standard deviation of the windows."""
    return _summary(*_groups(result))


def efficiency_distance(summary: AssetSummary) -> float:
    """Euclidean distance of the mean plane position to (H, C) = (1, 0)."""
    return math.hypot(1.0 - summary.mean_entropy, summary.mean_complexity)


def rank_assets(summaries: Sequence[AssetSummary]) -> list[RankingEntry]:
    """Efficiency ranking: ascending distance to (1, 0), rank 1 = closest.

    The sort is stable, so assets with exactly equal distances keep their
    input order; each such group shares the average of its rank positions
    and is flagged ``tied``.
    """
    labels = _labels([s.asset for s in summaries], "summary assets")
    distances = [efficiency_distance(s) for s in summaries]
    ranks = average_ranks(distances)
    group_size = Counter(distances)
    return [RankingEntry(labels[k], distances[k], ranks[k], group_size[distances[k]] > 1)
            for k in sorted(range(len(distances)), key=distances.__getitem__)]


def _admit(label, values: list[float]) -> None:
    """Raise unless the group ``label`` may enter an ANOVA: at least 2
    observations, all finite."""
    if len(values) < 2:
        raise ValueError(f"group {label!r} needs at least 2 one-dimensional observations")
    if not all(map(math.isfinite, values)):
        raise ValueError(f"group {label!r} contains non-finite values")


def _as_groups(groups) -> list[_Group]:
    if isinstance(groups, Mapping):
        items: Iterable = groups.items()
    else:
        items = groups
    out = []
    for label, values in items:
        vals = _floats(values, f"group {label!r} needs at least 2 one-dimensional observations")
        _admit(label, vals)
        out.append((str(label), vals))
    if len(out) < 2:
        raise ValueError("ANOVA needs at least two groups")
    return [_Group(label, vals) for label, vals in out]


def _anova(groups: Sequence[_Group]) -> AnovaResult:
    """The one-way ANOVA of at least two admitted groups.  The groups'
    means and sums of squares are taken as they stand, so this sums only
    the terms about the grand mean."""
    n_total = sum(len(g.values) for g in groups)
    k = len(groups)
    grand = math.fsum(chain.from_iterable(g.values for g in groups)) / n_total
    ss_between = math.fsum(len(g.values) * (g.mean - grand) ** 2 for g in groups)
    ss_within = math.fsum(g.ss for g in groups)
    ss_total = math.fsum([(v - grand) ** 2 for g in groups for v in g.values])
    df_between = k - 1
    df_within = n_total - k
    ms_between = ss_between / df_between
    ms_within = ss_within / df_within
    # All observations identical: no variation to apportion.
    degenerate = ms_within == 0.0 == ms_between
    if ms_within == 0.0:
        f_stat, p_value = (0.0, 1.0) if degenerate else (math.inf, 0.0)
    else:
        f_stat = ms_between / ms_within
        p_value = f_sf(f_stat, df_between, df_within)
    return AnovaResult(ss_between, ss_within, ss_total, df_between, df_within,
                       ms_between, ms_within, f_stat, p_value, degenerate)


def one_way_anova(groups) -> AnovaResult:
    """One-way fixed-effects ANOVA over labeled observation groups.

    ``groups`` is a mapping of label to observations (or an iterable of such
    pairs).  The p-value is the F upper tail at (df_between, df_within).
    """
    return _anova(_as_groups(groups))


class PairwiseComparison(NamedTuple):
    """Two-group ANOVA of one asset against the baseline, per quantifier."""

    asset: str
    baseline: str
    entropy_anova: AnovaResult
    complexity_anova: AnovaResult
    entropy_mean_diff: float
    complexity_mean_diff: float

    def by_metric(self):
        """``(metric, anova, mean_diff)`` for entropy, then complexity."""
        yield "entropy", self.entropy_anova, self.entropy_mean_diff
        yield "complexity", self.complexity_anova, self.complexity_mean_diff


def _check_baseline(baseline: str, assets) -> None:
    """Raise unless ``baseline`` is one of ``assets`` (labels, or a mapping
    keyed by them)."""
    if baseline not in assets:
        raise ValueError(f"baseline asset {baseline!r} not among results")


def _pairwise(groups: Mapping[str, tuple[_Group, _Group]],
              baseline: str) -> list[PairwiseComparison]:
    """``pairwise_anova_vs_baseline`` over each asset's admitted groups."""
    base_h, base_c = groups[baseline]
    comparisons = []
    for asset in sorted(a for a in groups if a != baseline):
        h, c = groups[asset]
        comparisons.append(PairwiseComparison(asset, baseline, _anova([h, base_h]),
                                              _anova([c, base_c]), h.mean - base_h.mean,
                                              c.mean - base_c.mean))
    return comparisons


def pairwise_anova_vs_baseline(results: Mapping[str, RollingResult],
                               baseline: str) -> list[PairwiseComparison]:
    """Each non-baseline asset vs the baseline, for entropy and complexity.

    Mean differences are asset minus baseline.  Output is ordered by asset
    label so it is independent of mapping iteration order.
    """
    _check_baseline(baseline, results)
    columns = {asset: _coordinates(result) for asset, result in results.items()}
    others = sorted(a for a in results if a != baseline)
    if not others:
        return []
    for asset in others:  # each test's two groups in turn, entropy then complexity
        for k in (0, 1):
            _admit(asset, columns[asset][k])
            _admit(baseline, columns[baseline][k])
    return _pairwise({a: (_Group(a, hs), _Group(a, cs)) for a, (hs, cs) in columns.items()},
                     baseline)


def _tests(groups: Mapping[str, tuple[_Group, _Group]], baseline: str) -> tuple[
        AnovaResult, AnovaResult, list[PairwiseComparison]]:
    """The all-asset ANOVA of entropy and of complexity over ``groups`` (at
    least two assets, in their order), and ``pairwise_anova_vs_baseline``,
    with the same results and errors, each group's moments taken once."""
    anovas = []
    for k in (0, 1):
        for label, pair in groups.items():
            _admit(label, pair[k].values)
        anovas.append(_anova([pair[k] for pair in groups.values()]))
    _check_baseline(baseline, groups)
    return anovas[0], anovas[1], _pairwise(groups, baseline)


def average_ranks(values) -> list[float]:
    """1-based ranks with tied values sharing their average rank."""
    xs = _floats(values, "ranking expects a one-dimensional sequence")
    if not all(map(math.isfinite, xs)):
        raise ValueError("ranking expects finite values")
    order = sorted(range(len(xs)), key=xs.__getitem__)  # stable
    ranks = [0.0] * len(xs)
    i = 0
    while i < len(xs):
        j = i
        while j + 1 < len(xs) and xs[order[j + 1]] == xs[order[i]]:
            j += 1
        for k in order[i:j + 1]:
            ranks[k] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def spearman_rho(x, y) -> SpearmanResult:
    """Spearman rank correlation with average-rank ties.

    rho is the Pearson correlation of the two rank vectors; the two-sided
    p-value uses the t approximation ``t = rho * sqrt((n-2)/(1-rho^2))``
    with ``n - 2`` degrees of freedom (and p = 0 when |rho| = 1).
    """
    error = "x and y must be equal-length one-dimensional sequences"
    xs, ys = _floats(x, error), _floats(y, error)
    if len(xs) != len(ys):
        raise ValueError(error)
    n = len(xs)
    if n < 3:
        raise ValueError(f"need at least 3 pairs, got {n}")
    rx, ry = _Group("x", average_ranks(xs)), _Group("y", average_ranks(ys))
    if rx.ss == 0.0 or ry.ss == 0.0:
        raise ValueError("a variable with all values tied has zero rank variance")
    sxy = math.fsum((a - rx.mean) * (b - ry.mean) for a, b in zip(rx.values, ry.values))
    rho = sxy / math.sqrt(rx.ss * ry.ss)
    rho = max(-1.0, min(1.0, rho))
    if abs(rho) == 1.0:
        p = 0.0
    else:
        t = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
        p = student_t_sf_two_sided(t, n - 2)
    return SpearmanResult(rho=rho, p_value=p, n=n)
