import math
import re
from itertools import permutations
from typing import NamedTuple

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from cecplane import (
    AnovaResult,
    AssetSummary,
    RankingEntry,
    RollingResult,
    SpearmanResult,
    efficiency_distance,
    one_way_anova,
    pairwise_anova_vs_baseline,
    rank_assets,
    spearman_rho,
    summarize,
)
from cecplane import (BaselineCloud, CecpPoint, FbmSpec, OrdinalConfig, PatternId, RunConfig,
                      WindowParams, run_pipeline)
from cecplane.special import f_sf
from cecplane.stats import average_ranks
from oracles import spearman_permutation_p


def mk_result(asset, hs, cs):
    starts = np.arange(len(hs), dtype=np.int64) * 60
    return RollingResult(asset, starts, hs, cs, samples_per_window=357)


def mk_summary(asset, mean_h, mean_c):
    return AssetSummary(asset, mean_h, mean_c, 0.01, 0.01, 10)


class TestSummarize:
    def test_two_window_hand_example(self):
        result = mk_result("toy", [0.8, 0.9], [0.1, 0.2])
        s = summarize(result)
        assert s.asset == "toy"
        assert s.mean_entropy == pytest.approx(0.85, abs=1e-15)
        assert s.mean_complexity == pytest.approx(0.15, abs=1e-15)
        # sample std with n-1: sqrt(2 * 0.05^2 / 1)
        assert s.std_entropy == pytest.approx(math.sqrt(0.005), abs=1e-15)
        assert s.std_complexity == pytest.approx(math.sqrt(0.005), abs=1e-15)
        assert s.window_count == 2

    def test_single_window_has_zero_std(self):
        s = summarize(mk_result("one", [0.7], [0.2]))
        assert s.std_entropy == 0.0 and s.std_complexity == 0.0

    def test_matches_numpy_moments(self, rng):
        hs = rng.uniform(0.5, 1.0, size=40)
        cs = rng.uniform(0.0, 0.3, size=40)
        s = summarize(mk_result("x", hs, cs))
        assert s.mean_entropy == pytest.approx(hs.mean(), rel=1e-12)
        assert s.std_complexity == pytest.approx(cs.std(ddof=1), rel=1e-12)

    def test_empty_result_rejected(self):
        with pytest.raises(ValueError):
            summarize(mk_result("none", [], []))

    def test_summary_validation(self):
        with pytest.raises(ValueError):
            AssetSummary("a", 1.2, 0.1, 0.0, 0.0, 5)
        with pytest.raises(ValueError):
            AssetSummary("a", 0.5, 0.1, -0.1, 0.0, 5)
        with pytest.raises(ValueError):
            AssetSummary("a", 0.5, 0.1, 0.0, 0.0, 0)


class TestEfficiency:
    def test_fully_random_corner_is_zero(self):
        assert efficiency_distance(mk_summary("r", 1.0, 0.0)) == 0.0

    def test_pythagorean_example(self):
        assert efficiency_distance(mk_summary("p", 0.9, 0.1)) == pytest.approx(
            math.sqrt(0.02), abs=1e-15)

    def test_origin(self):
        assert efficiency_distance(mk_summary("o", 0.0, 0.0)) == 1.0


class TestRankAssets:
    def test_orders_by_distance_ascending(self):
        summaries = [mk_summary("far", 0.8, 0.0),
                     mk_summary("near", 0.95, 0.0),
                     mk_summary("mid", 0.9, 0.0)]
        ranking = rank_assets(summaries)
        assert [e.asset for e in ranking] == ["near", "mid", "far"]
        assert [e.rank for e in ranking] == [1.0, 2.0, 3.0]
        assert not any(e.tied for e in ranking)

    def test_input_order_does_not_matter_without_ties(self):
        summaries = [mk_summary(a, h, 0.0) for a, h in
                     [("a", 0.91), ("b", 0.94), ("c", 0.89)]]
        front = rank_assets(summaries)
        back = rank_assets(summaries[::-1])
        assert front == back

    def test_exact_tie_shares_average_rank(self):
        summaries = [mk_summary("first", 0.95, 0.0),
                     mk_summary("twin1", 0.9, 0.0),
                     mk_summary("twin2", 0.9, 0.0),
                     mk_summary("last", 0.8, 0.0)]
        ranking = rank_assets(summaries)
        assert [e.asset for e in ranking] == ["first", "twin1", "twin2", "last"]
        assert [e.rank for e in ranking] == [1.0, 2.5, 2.5, 4.0]
        assert [e.tied for e in ranking] == [False, True, True, False]

    def test_all_equal_distances(self):
        ranking = rank_assets([mk_summary(a, 0.9, 0.0) for a in "xyz"])
        assert all(e.rank == 2.0 and e.tied for e in ranking)

    def test_stable_within_tie_group(self):
        summaries = [mk_summary("b", 0.9, 0.0), mk_summary("a", 0.9, 0.0)]
        assert [e.asset for e in rank_assets(summaries)] == ["b", "a"]

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match=r"^summary assets must be one or more distinct "
                                             r"labels, got \('dup', 'dup'\)$"):
            rank_assets([mk_summary("dup", 0.9, 0.0), mk_summary("dup", 0.8, 0.0)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match=r"^summary assets must be one or more distinct "
                                             r"labels, got \(\)$"):
            rank_assets([])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from([0.7, 0.8, 0.9, 1.0]),
                              st.sampled_from([0.0, 0.05, 0.1])),
                    min_size=1, max_size=12))
    def test_ties_match_rankdata(self, points):
        # a few plane positions, so equal distances are common
        summaries = [mk_summary(f"a{k}", h, c) for k, (h, c) in enumerate(points)]
        distances = [efficiency_distance(s) for s in summaries]
        ranking = rank_assets(summaries)
        position = [int(e.asset[1:]) for e in ranking]
        assert position == sorted(range(len(points)), key=distances.__getitem__)
        expected = scipy.stats.rankdata(distances, method="average")
        assert [e.rank for e in ranking] == [expected[k] for k in position]
        assert [e.distance for e in ranking] == [distances[k] for k in position]
        assert [e.tied for e in ranking] == [distances.count(distances[k]) > 1
                                             for k in position]


class TestOneWayAnova:
    def test_worked_example(self):
        r = one_way_anova({"a": [1.0, 2.0, 3.0], "b": [2.0, 3.0, 4.0]})
        assert r.ss_between == 1.5
        assert r.ss_within == 4.0
        assert r.ss_total == 5.5
        assert (r.df_between, r.df_within) == (1, 4)
        assert r.ms_between == 1.5 and r.ms_within == 1.0
        assert r.f_stat == 1.5
        assert r.p_value == pytest.approx(0.2878641347266906, abs=1e-12)
        assert not r.degenerate

    def test_pairs_and_mapping_agree(self):
        groups = {"a": [1.0, 2.0, 3.0], "b": [2.0, 3.0, 4.0]}
        assert one_way_anova(groups) == one_way_anova(list(groups.items()))

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_scipy(self, seed):
        rng = np.random.default_rng(seed)
        k = rng.integers(2, 6)
        groups = {f"g{i}": rng.normal(rng.uniform(-1, 1), 1.0, size=rng.integers(5, 40))
                  for i in range(k)}
        r = one_way_anova(groups)
        f, p = scipy.stats.f_oneway(*groups.values())
        assert r.f_stat == pytest.approx(f, rel=1e-10)
        assert r.p_value == pytest.approx(p, rel=1e-9, abs=1e-12)

    def test_sum_of_squares_identity(self, rng):
        for _ in range(20):
            groups = {f"g{i}": rng.normal(i, 2.0, size=int(rng.integers(3, 25)))
                      for i in range(int(rng.integers(2, 7)))}
            r = one_way_anova(groups)
            assert r.ss_between + r.ss_within == pytest.approx(r.ss_total, rel=1e-9)

    def test_affine_invariance_of_f(self, rng):
        groups = {c: rng.normal(0, 1, 20) for c in "abc"}
        base = one_way_anova(groups)
        moved = one_way_anova({c: 3.7 * v - 11.0 for c, v in groups.items()})
        assert moved.f_stat == pytest.approx(base.f_stat, rel=1e-9)
        assert moved.p_value == pytest.approx(base.p_value, rel=1e-9)

    def test_equal_means_give_zero_f(self):
        r = one_way_anova({"a": [0.1, 0.2, 0.3], "b": [0.3, 0.2, 0.1]})
        assert r.f_stat == 0.0
        assert r.p_value == 1.0
        assert not r.degenerate

    def test_all_identical_is_degenerate(self):
        r = one_way_anova({"a": [5.0, 5.0], "b": [5.0, 5.0, 5.0]})
        assert r.degenerate
        assert r.f_stat == 0.0 and r.p_value == 1.0

    def test_separated_constants_give_infinite_f(self):
        r = one_way_anova({"a": [1.0, 1.0], "b": [2.0, 2.0]})
        assert math.isinf(r.f_stat)
        assert r.p_value == 0.0
        assert not r.degenerate

    def test_errors(self):
        with pytest.raises(ValueError):
            one_way_anova({"only": [1.0, 2.0]})
        with pytest.raises(ValueError):
            one_way_anova({"a": [1.0], "b": [1.0, 2.0]})
        with pytest.raises(ValueError):
            one_way_anova({"a": [1.0, math.nan], "b": [1.0, 2.0]})

    def test_result_validation(self):
        with pytest.raises(ValueError):
            AnovaResult(-1.0, 1.0, 0.0, 1, 4, 1.0, 1.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            AnovaResult(1.0, 1.0, 2.0, 0, 4, 1.0, 1.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            AnovaResult(1.0, 1.0, 2.0, 1, 4, 1.0, 1.0, 1.0, 1.5)


class TestPairwise:
    def test_identical_asset_is_insignificant(self, rng):
        hs = rng.uniform(0.8, 1.0, 30)
        cs = rng.uniform(0.0, 0.2, 30)
        results = {"base": mk_result("base", hs, cs),
                   "copy": mk_result("copy", hs, cs)}
        (cmp,) = pairwise_anova_vs_baseline(results, "base")
        assert cmp.asset == "copy" and cmp.baseline == "base"
        assert cmp.entropy_anova.f_stat == 0.0
        assert cmp.entropy_mean_diff == 0.0
        assert not cmp.entropy_anova.p_value < 0.05
        assert not cmp.complexity_anova.p_value < 0.05

    def test_shifted_asset_is_significant(self, rng):
        noise = rng.normal(0, 0.01, 40)
        results = {
            "base": mk_result("base", 0.9 + noise, 0.1 + noise / 2),
            "slow": mk_result("slow", 0.8 + noise, 0.2 + noise / 2),
        }
        (cmp,) = pairwise_anova_vs_baseline(results, "base")
        assert cmp.entropy_anova.p_value < 0.01
        assert cmp.complexity_anova.p_value < 0.01
        assert cmp.entropy_mean_diff == pytest.approx(-0.1, abs=1e-12)
        assert cmp.complexity_mean_diff == pytest.approx(0.1, abs=1e-12)

    def test_ordering_and_exclusion(self, rng):
        results = {name: mk_result(name, rng.uniform(0.8, 1.0, 12),
                                   rng.uniform(0.0, 0.2, 12))
                   for name in ["zeta", "base", "alpha", "mid"]}
        cmps = pairwise_anova_vs_baseline(results, "base")
        assert [c.asset for c in cmps] == ["alpha", "mid", "zeta"]

    def test_unknown_baseline(self):
        with pytest.raises(ValueError):
            pairwise_anova_vs_baseline({"a": mk_result("a", [0.9, 0.8], [0.1, 0.2])},
                                       "missing")


def fsum_mean(values):
    return math.fsum(values) / len(values)


def fsum_anova(groups):
    """``(ss_between, ss_within, ss_total, df_between, df_within)``, each
    sum one ``math.fsum`` over the plain terms."""
    values = [v for g in groups for v in g]
    grand = fsum_mean(values)
    means = [fsum_mean(g) for g in groups]
    return (math.fsum(len(g) * (m - grand) ** 2 for g, m in zip(groups, means)),
            math.fsum(math.fsum((v - m) ** 2 for v in g) for g, m in zip(groups, means)),
            math.fsum((v - grand) ** 2 for v in values),
            len(groups) - 1, len(values) - len(groups))


def assert_fsum_anova(result, groups):
    ss_between, ss_within, ss_total, df_between, df_within = fsum_anova(groups)
    ms_between, ms_within = ss_between / df_between, ss_within / df_within
    assert result[:7] == (ss_between, ss_within, ss_total, df_between, df_within,
                          ms_between, ms_within)
    if ms_within == 0.0:
        expected = (0.0, 1.0, True) if ms_between == 0.0 else (math.inf, 0.0, False)
        assert (result.f_stat, result.p_value, result.degenerate) == expected
    else:
        f_stat = ms_between / ms_within
        assert (result.f_stat, result.p_value, result.degenerate) == (
            f_stat, f_sf(f_stat, df_between, df_within), False)


# Entropies and complexities of three assets: unequal lengths, one asset
# constant in both metrics.
GROUPS = {
    "base": ([0.91, 0.87, 0.95, 0.9, 0.88], [0.12, 0.2, 0.07, 0.15, 0.11]),
    "long": ([0.8, 0.99, 0.85, 0.93, 0.97, 0.82, 0.9], [0.3, 0.02, 0.24, 0.1, 0.05, 0.27, 0.14]),
    "flat": ([0.9, 0.9, 0.9], [0.1, 0.1, 0.1]),
}


class TestSharedMoments:
    """Each asset's moments are taken once and shared by its summary, the
    all-asset ANOVA and the pairwise tests; every result equals a plain
    ``math.fsum`` recomputation, bit for bit."""

    @pytest.mark.parametrize("asset", list(GROUPS))
    def test_summary(self, asset):
        hs, cs = GROUPS[asset]
        s = summarize(mk_result(asset, hs, cs))
        mh, mc = fsum_mean(hs), fsum_mean(cs)
        assert s == (asset, mh, mc,
                     math.sqrt(math.fsum((v - mh) ** 2 for v in hs) / (len(hs) - 1)),
                     math.sqrt(math.fsum((v - mc) ** 2 for v in cs) / (len(cs) - 1)),
                     len(hs))

    @pytest.mark.parametrize("labels", [["base", "long", "flat"], ["base", "long"],
                                        ["long", "flat"]], ids=["three", "two", "with-flat"])
    @pytest.mark.parametrize("metric", [0, 1], ids=["entropy", "complexity"])
    def test_anova(self, labels, metric):
        groups = [GROUPS[a][metric] for a in labels]
        assert_fsum_anova(one_way_anova({a: GROUPS[a][metric] for a in labels}), groups)

    @pytest.mark.parametrize("groups", [[[0.5, 0.5], [0.5, 0.5, 0.5]], [[0.5, 0.5], [0.7, 0.7]]],
                             ids=["degenerate", "no-within-spread"])
    def test_constant_groups(self, groups):
        assert_fsum_anova(one_way_anova({"a": groups[0], "b": groups[1]}), groups)

    @pytest.mark.parametrize("baseline", list(GROUPS))
    def test_pairwise(self, baseline):
        results = {a: mk_result(a, hs, cs) for a, (hs, cs) in GROUPS.items()}
        comparisons = pairwise_anova_vs_baseline(results, baseline)
        assert [c.asset for c in comparisons] == sorted(a for a in GROUPS if a != baseline)
        for c in comparisons:
            assert c.baseline == baseline
            for k, (_, anova, diff) in enumerate(c.by_metric()):
                pair = [GROUPS[c.asset][k], GROUPS[baseline][k]]
                assert_fsum_anova(anova, pair)
                assert diff == fsum_mean(pair[0]) - fsum_mean(pair[1])

    def test_pipeline_shares_the_public_results(self, small_dataset):
        """``run_pipeline`` takes its statistics from shared moments; they
        equal the public functions' results on its rolling results."""
        bundle = run_pipeline(RunConfig(baseline="BBB"), small_dataset)
        rolling = bundle.rolling
        assert bundle.summaries == {a: summarize(r) for a, r in rolling.items()}
        assert bundle.anova_entropy == one_way_anova(
            [(a, r.entropies) for a, r in rolling.items()])
        assert bundle.anova_complexity == one_way_anova(
            [(a, r.complexities) for a, r in rolling.items()])
        assert bundle.pairwise == pairwise_anova_vs_baseline(rolling, "BBB")


class Windows(NamedTuple):
    """A result read back from a file: no check on its columns."""

    asset: str
    entropies: list
    complexities: list


class TestValidationMessages:
    """The checks of the public functions, in their order: the first
    defect met is the one reported."""

    @pytest.mark.parametrize("groups,message", [
        ({"only": [1.0, 2.0]}, "ANOVA needs at least two groups"),
        ({"a": [1.0], "b": [1.0, 2.0]}, "group 'a' needs at least 2 one-dimensional observations"),
        ({"a": [[1.0], [2.0]], "b": [1.0, 2.0]},
         "group 'a' needs at least 2 one-dimensional observations"),
        ({"a": [1.0, math.nan], "b": [1.0]}, "group 'a' contains non-finite values"),
        ({"a": [1.0, 2.0], "b": [math.inf, 2.0]}, "group 'b' contains non-finite values"),
        ({"a": [1.0, math.nan], "b": None},
         "group 'a' contains non-finite values"),
        ({"a": [1e308, 1e308], "b": [1.0]}, "group 'b' needs at least 2 one-dimensional "
                                            "observations"),
    ], ids=["one-group", "short", "not-flat", "nan-first", "inf-second", "nan-before-bad",
            "checks-before-sums"])
    def test_anova(self, groups, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            one_way_anova(groups)

    @pytest.mark.parametrize("results,baseline,message", [
        ({"a": Windows("a", [0.9, 0.8], [0.1, 0.2])}, "missing",
         "baseline asset 'missing' not among results"),
        ({"a": Windows("a", [0.9, 0.8], [0.1, 0.2]), "b": Windows("b", 0.5, [0.1])}, "a",
         "entropies must be a one-dimensional sequence"),
        ({"a": Windows("a", [0.9, 0.8], [0.1, 0.2]), "b": Windows("b", [0.9], [0.1])}, "a",
         "group 'b' needs at least 2 one-dimensional observations"),
        ({"a": Windows("a", [0.9], [0.1]), "b": Windows("b", [0.9, 0.8], [0.1, 0.2])}, "a",
         "group 'a' needs at least 2 one-dimensional observations"),
        ({"a": Windows("a", [0.9, 0.8], [0.1]), "b": Windows("b", [0.9, 0.8], [0.1, 0.2]),
          "c": Windows("c", [0.9], [0.1, 0.2])}, "a",
         "group 'a' needs at least 2 one-dimensional observations"),
        ({"a": Windows("a", [0.9, 0.8], [0.1, 0.2]),
          "b": Windows("b", [0.9, 0.8], [math.nan, 0.2])}, "a",
         "group 'b' contains non-finite values"),
    ], ids=["baseline", "not-a-sequence", "short-asset", "short-baseline",
            "short-baseline-complexity", "nan-complexity"])
    def test_pairwise(self, results, baseline, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            pairwise_anova_vs_baseline(results, baseline)

    def test_pairwise_alone_with_its_baseline_checks_nothing_more(self):
        assert pairwise_anova_vs_baseline({"a": Windows("a", [], [])}, "a") == []

    @pytest.mark.parametrize("result,error", [
        (Windows("a", [], []), "rolling result contains no windows"),
        (Windows("a", [[0.9]], [0.1]), "entropies must be a one-dimensional sequence"),
        (Windows("a", [0.9], 0.1), "complexities must be a one-dimensional sequence"),
    ])
    def test_summarize(self, result, error):
        with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
            summarize(result)


class TestAverageRanks:
    def test_matches_scipy_rankdata(self, rng):
        for _ in range(10):
            values = rng.integers(0, 8, size=25).astype(float)
            assert np.array_equal(average_ranks(values),
                                  scipy.stats.rankdata(values, method="average"))

    def test_simple_tie(self):
        assert average_ranks([10.0, 20.0, 20.0, 30.0]) == [1.0, 2.5, 2.5, 4.0]

    def test_errors(self):
        with pytest.raises(ValueError):
            average_ranks([[1.0, 2.0]])
        with pytest.raises(ValueError):
            average_ranks([1.0, math.inf])


class TestSpearman:
    def test_perfect_monotone(self):
        r = spearman_rho([1.0, 2.0, 3.0, 4.0], [10.0, 20.0, 40.0, 80.0])
        assert r.rho == 1.0 and r.p_value == 0.0 and r.n == 4
        r = spearman_rho([1.0, 2.0, 3.0, 4.0], [8.0, 4.0, 2.0, 1.0])
        assert r.rho == -1.0 and r.p_value == 0.0

    def test_matches_scipy_with_ties(self, rng):
        for _ in range(15):
            n = int(rng.integers(5, 40))
            x = rng.integers(0, 6, size=n).astype(float)
            y = rng.integers(0, 6, size=n).astype(float) + x * rng.uniform(-1, 1)
            try:
                ours = spearman_rho(x, y)
            except ValueError:
                assert np.unique(x).size == 1 or np.unique(y).size == 1
                continue
            want = scipy.stats.spearmanr(x, y)
            assert ours.rho == pytest.approx(want.statistic, abs=1e-12)
            assert ours.p_value == pytest.approx(want.pvalue, rel=1e-9, abs=1e-12)

    def test_negation_flips_sign(self, rng):
        x = rng.normal(size=12)
        y = rng.normal(size=12)
        fwd = spearman_rho(x, y)
        rev = spearman_rho(x, -y)
        assert rev.rho == pytest.approx(-fwd.rho, abs=1e-15)
        assert rev.p_value == pytest.approx(fwd.p_value, abs=1e-15)

    def test_monotone_transform_invariance(self, rng):
        x = rng.normal(size=15)
        y = rng.normal(size=15)
        base = spearman_rho(x, y)
        warped = spearman_rho(np.exp(x), y ** 3)
        assert warped.rho == base.rho
        assert warped.p_value == base.p_value

    def test_errors(self):
        with pytest.raises(ValueError):
            spearman_rho([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            spearman_rho([1.0, 2.0, 3.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            spearman_rho([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])


class TestSpearmanPermutation:
    """The exact permutation p-value of ``tests/oracles.py``; no command
    computes one."""

    def test_matches_brute_force_scipy(self):
        x = [1.0, 2.0, 2.0, 3.0, 4.0, 4.0]
        y = [2.0, 1.0, 3.0, 3.0, 5.0, 4.0]
        observed = abs(scipy.stats.spearmanr(x, y).statistic)
        hits = 0
        for perm in permutations(range(6)):
            rho = scipy.stats.spearmanr(x, [y[i] for i in perm]).statistic
            if abs(rho) >= observed - 1e-9:
                hits += 1
        assert spearman_permutation_p(x, y) == hits / math.factorial(6)

    def test_distinct_monotone_pairing(self):
        # only the identity and the full reversal reach |rho| = 1
        x = list(range(1, 9))
        y = [float(v * v) for v in x]
        assert spearman_permutation_p(x, y) == 2 / math.factorial(8)

    def test_size_guard(self):
        x = list(map(float, range(11)))
        with pytest.raises(ValueError):
            spearman_permutation_p(x, x)



class TestRecords:
    """The records that hold no arrays are NamedTuples, and each checked one
    checks its values whenever one is made."""

    # name: (a valid record, (a change that breaks it, the error it raises), ...)
    CASES = {
        "AssetSummary": (AssetSummary("a", 0.5, 0.1, 0.0, 0.0, 5),
                         ({"mean_entropy": 1.2},
                          r"^mean normalized entropy 1.2 outside \[0, 1\]$"),
                         ({"mean_complexity": -0.1}, "^mean complexity -0.1 negative$")),
        "RankingEntry": (RankingEntry("a", 0.1, 1.0), ({"rank": 0.5}, "rank must be >= 1"),
                         ({"distance": -0.1}, "distance must be nonnegative")),
        "AnovaResult": (AnovaResult(1.0, 1.0, 2.0, 1, 4, 1.0, 1.0, 1.0, 0.5),
                        ({"p_value": 1.5}, "p-value 1.5 outside"),
                        ({"f_stat": -1.0}, "F statistic must be nonnegative")),
        "SpearmanResult": (SpearmanResult(0.5, 0.2, 5), ({"n": 2}, "^n must be an integer >= 3, got 2$"),
                           ({"rho": 1.5}, r"rho 1.5 outside \[-1, 1\]"),
                           ({"p_value": -0.1}, r"p-value -0.1 outside \[0, 1\]")),
        "OrdinalConfig": (OrdinalConfig(4, 1), ({"dim": 13}, "dim must be <= 12")),
        "WindowParams": (WindowParams(360, 60), ({"step": 0}, "step must be an integer >= 1")),
        "PatternId": (PatternId((0, 2, 1), 1), ({"index": 2},
                      r"index 2 does not match permutation \(0, 2, 1\)")),
        "CecpPoint": (CecpPoint(0.9, 0.1), ({"complexity": -0.5}, "complexity -0.5 negative")),
        "FbmSpec": (FbmSpec(0.5, 10, 1), ({"hurst": 1.5}, "hurst must lie strictly inside")),
        "BaselineCloud": (BaselineCloud(0.5, CecpPoint(0.9, 0.1), 0.0, 0.0, 4),
                          ({"std_entropy": -0.1}, "standard deviations must be nonnegative")),
        "RunConfig": (RunConfig(), ({"window": WindowParams(3, 1)},
                      "window of 3 samples admits no ordinal pattern at dim=4")),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_every_way_of_making_one_runs_the_checks(self, name):
        record, *breaks = self.CASES[name]
        kind = type(record)
        for change, message in breaks:
            values = {**record._asdict(), **change}
            with pytest.raises(ValueError, match=message):
                kind(**values)
            with pytest.raises(ValueError, match=message):
                kind(*values.values())
            with pytest.raises(ValueError, match=message):
                kind._make(values.values())
            with pytest.raises(ValueError, match=message):
                record._replace(**change)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_tuple_protocol(self, name):
        record = self.CASES[name][0]
        kind = type(record)
        assert kind._make(record) == record == tuple(record)
        assert type(kind._make(record)) is kind and type(record._replace()) is kind
        assert tuple(record._asdict()) == kind._fields
        with pytest.raises(TypeError):
            kind._make(tuple(record)[:-1])
