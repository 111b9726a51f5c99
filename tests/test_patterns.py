import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cecplane.patterns import (
    MAX_DIM,
    OrdinalConfig,
    PatternDistribution,
    PatternId,
    TimeSeries,
    _encode_starts,
    encode_window,
    extract_pattern_distribution,
    index_to_permutation,
    naive_pattern_oracle,
    permutation_to_index,
)

CFG3 = OrdinalConfig(3, 1)


class TestEncodeWindow:
    def test_increasing(self):
        assert encode_window([1.0, 2.0, 3.0], CFG3).permutation == (0, 1, 2)

    def test_decreasing(self):
        assert encode_window([3.0, 2.0, 1.0], CFG3).permutation == (2, 1, 0)

    def test_leading_tie(self):
        # equal values ordered by ascending lag offset: the later (offset 1)
        # of the two fives outranks the earlier (offset 2) in the descent
        assert encode_window([5.0, 5.0, 1.0], CFG3).permutation == (2, 1, 0)

    def test_all_equal(self):
        assert encode_window([7.0, 7.0, 7.0], CFG3).permutation == (2, 1, 0)

    def test_interior(self):
        assert encode_window([2.0, 3.0, 1.0], CFG3).permutation == (1, 2, 0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            encode_window([1.0, 2.0], CFG3)

    def test_non_finite(self):
        with pytest.raises(ValueError):
            encode_window([1.0, math.nan, 2.0], CFG3)

    def test_deterministic(self):
        w = [0.3, 0.3, -1.2, 0.3]
        cfg = OrdinalConfig(4, 1)
        assert encode_window(w, cfg) == encode_window(w, cfg)


class TestPatternIndex:
    def test_round_trip_exhaustive(self):
        for d in (2, 3, 4, 5):
            for i in range(math.factorial(d)):
                assert permutation_to_index(index_to_permutation(i, d)) == i

    def test_lexicographic_extremes(self):
        assert permutation_to_index((0, 1, 2, 3)) == 0
        assert permutation_to_index((3, 2, 1, 0)) == math.factorial(4) - 1

    @given(st.permutations(list(range(7))))
    def test_round_trip_random(self, perm):
        idx = permutation_to_index(perm)
        assert index_to_permutation(idx, 7) == tuple(perm)

    def test_pattern_id_rejects_mismatched_index(self):
        with pytest.raises(ValueError):
            PatternId((0, 2, 1), 0)

    def test_pattern_id_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            PatternId((0, 0, 2), 0)


class TestExtractDistribution:
    def test_monotone_series(self):
        dist = extract_pattern_distribution(TimeSeries([1.0, 2.0, 3.0, 4.0]), CFG3)
        assert dist.sample_count == 2
        assert dist.counts == {PatternId.from_permutation((0, 1, 2)): 2}
        probs = dist.probabilities
        assert probs[PatternId.from_permutation((0, 1, 2)).index] == 1.0
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_sample_count_arithmetic(self, rng):
        series = TimeSeries(rng.standard_normal(360))
        dist = extract_pattern_distribution(series, OrdinalConfig(4, 1))
        assert dist.sample_count == 357

    def test_delay_two(self):
        # windows with delay 2 over (1,3,2,4): (1,2) and (3,4), both ascending
        dist = extract_pattern_distribution(TimeSeries([1.0, 3.0, 2.0, 4.0]),
                                            OrdinalConfig(2, 2))
        assert dist.counts == {PatternId.from_permutation((0, 1)): 2}

    def test_constant_series(self):
        dist = extract_pattern_distribution(TimeSeries([7.0] * 5), CFG3)
        assert dist.sample_count == 3
        assert dist.counts == {PatternId.from_permutation((2, 1, 0)): 3}

    def test_too_short(self):
        with pytest.raises(ValueError):
            extract_pattern_distribution(TimeSeries([1.0, 2.0]), CFG3)
        with pytest.raises(ValueError):
            extract_pattern_distribution(TimeSeries([1.0] * 6), OrdinalConfig(4, 2))

    def test_counts_sum_to_sample_count(self, rng):
        series = TimeSeries(rng.standard_normal(500))
        dist = extract_pattern_distribution(series, OrdinalConfig(4, 2))
        assert sum(dist.counts.values()) == dist.sample_count == 500 - 3 * 2

    def test_probabilities_are_exact_count_ratios(self, rng):
        series = TimeSeries(rng.integers(0, 4, 100).astype(float))
        dist = extract_pattern_distribution(series, CFG3)
        for pid, count in dist.counts.items():
            assert dist.probabilities[pid.index] == count / dist.sample_count

    def test_time_reversal_of_monotone(self):
        up = extract_pattern_distribution(TimeSeries(np.arange(10.0)), OrdinalConfig(4, 1))
        down = extract_pattern_distribution(TimeSeries(np.arange(10.0)[::-1]),
                                            OrdinalConfig(4, 1))
        assert up.counts == {PatternId.from_permutation((0, 1, 2, 3)): 7}
        assert down.counts == {PatternId.from_permutation((3, 2, 1, 0)): 7}


class TestNaiveOracleAgreement:
    def test_monotone(self):
        series = TimeSeries([1.0, 2.0, 3.0, 4.0])
        assert (extract_pattern_distribution(series, CFG3).counts
                == naive_pattern_oracle(series, CFG3).counts)

    def test_random_battery(self, rng):
        for _ in range(60):
            n = int(rng.integers(50, 800))
            if rng.random() < 0.5:
                values = rng.standard_normal(n)
            else:
                values = rng.integers(0, 5, n).astype(float)  # heavy ties
            series = TimeSeries(values)
            cfg = OrdinalConfig(int(rng.integers(3, 6)), int(rng.integers(1, 4)))
            fast = extract_pattern_distribution(series, cfg)
            slow = naive_pattern_oracle(series, cfg)
            assert fast.counts == slow.counts
            assert fast.sample_count == slow.sample_count

    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(st.integers(min_value=-3, max_value=3), min_size=20, max_size=120),
        dim=st.integers(min_value=2, max_value=5),
        delay=st.integers(min_value=1, max_value=3),
    )
    def test_property_agreement(self, values, dim, delay):
        cfg = OrdinalConfig(dim, delay)
        series = TimeSeries(np.asarray(values, dtype=float))
        if cfg.windows_in(len(series)) < 1:
            return
        assert (extract_pattern_distribution(series, cfg).counts
                == naive_pattern_oracle(series, cfg).counts)


def _argsort_encode_starts(values: np.ndarray, config: OrdinalConfig) -> np.ndarray:
    """Reference encoder: a stable argsort of the ``(..., n, D)`` embedding,
    then the Lehmer code of the reversed order."""
    d, tau = config.dim, config.delay
    n_windows = config.windows_in(values.shape[-1])
    emb = np.empty(values.shape[:-1] + (n_windows, d))
    for j in range(d):
        start = (d - 1 - j) * tau
        emb[..., j] = values[..., start:start + n_windows]
    chain = np.argsort(emb, axis=-1, kind="stable")  # offsets by ascending value
    perm = chain[..., ::-1]  # largest value first
    codes = np.zeros(emb.shape[:-1], dtype=np.int64)
    for i in range(d - 1):
        smaller_after = (perm[..., i + 1:] < perm[..., i:i + 1]).sum(axis=-1)
        codes += smaller_after.astype(np.int64) * math.factorial(d - 1 - i)
    return codes


TIED_VALUES = st.one_of(st.integers(-3, 3).map(float), st.sampled_from([-0.0, 0.0]))


@st.composite
def encoder_inputs(draw):
    """A config over every dim and delays 1-4, and a ``(rows, n)`` batch of
    heavily tied values; short series at large dim, often a single window."""
    dim = draw(st.integers(2, MAX_DIM))
    delay = draw(st.integers(1, 4))
    n_windows = draw(st.one_of(st.just(1), st.integers(1, 48 // dim)))
    rows = draw(st.integers(1, 3))
    length = (dim - 1) * delay + n_windows
    elements = st.one_of(TIED_VALUES, st.floats(-8.0, 8.0, allow_nan=False))
    values = draw(st.lists(elements, min_size=rows * length, max_size=rows * length))
    return OrdinalConfig(dim, delay), np.array(values).reshape(rows, length)


class TestSortFreeEncoder:
    """The comparison encoder gives exactly the argsort encoder's codes."""

    @settings(max_examples=300, deadline=None)
    @given(encoder_inputs())
    def test_matches_argsort_encoder(self, case):
        cfg, batch = case
        batched = _encode_starts(batch, cfg)
        assert batched.dtype == np.int64
        assert batched.shape == (batch.shape[0], cfg.windows_in(batch.shape[1]))
        for row, codes in zip(batch, batched):
            expected = _argsort_encode_starts(row, cfg)
            assert np.array_equal(_encode_starts(row, cfg), expected)
            assert np.array_equal(codes, expected)

    @pytest.mark.parametrize("dim,levels", [(6, None), (5, 3), (3, 3)])
    def test_every_window_shape(self, dim, levels):
        # every permutation of distinct values, or every tie pattern over
        # ``levels`` values, as a batch of one-window rows
        if levels is None:
            windows = list(itertools.permutations(range(dim)))
        else:
            windows = list(itertools.product(range(levels), repeat=dim))
        batch = np.array(windows, dtype=float)
        cfg = OrdinalConfig(dim, 1)
        assert np.array_equal(_encode_starts(batch, cfg),
                              _argsort_encode_starts(batch, cfg))
        if levels is None:
            assert sorted(_encode_starts(batch, cfg)[:, 0]) == list(range(len(windows)))

    def test_long_random_series(self, rng):
        values = rng.standard_normal(5000)
        for dim in (4, 6, MAX_DIM):
            cfg = OrdinalConfig(dim, 2)
            assert np.array_equal(_encode_starts(values, cfg),
                                  _argsort_encode_starts(values, cfg))


class TestMonotoneInvariance:
    def test_exact_equality_under_increasing_maps(self, rng):
        # lattice values keep all order relations (and ties) exact under the maps
        values = rng.integers(-512, 512, 300).astype(float) / 64.0
        series = TimeSeries(values)
        cfg = OrdinalConfig(4, 1)
        base = extract_pattern_distribution(series, cfg)
        for f in (lambda x: 2.0 * x + 3.0,
                  lambda x: np.exp(x / 8.0),
                  lambda x: x ** 3 + x,
                  lambda x: 1.0 / (1.0 + np.exp(-x / 4.0))):
            mapped = extract_pattern_distribution(TimeSeries(f(values)), cfg)
            assert mapped.counts == base.counts


class TestValidation:
    def test_dim_bounds(self):
        with pytest.raises(ValueError):
            OrdinalConfig(1, 1)
        with pytest.raises(ValueError):
            OrdinalConfig(MAX_DIM + 1, 1)
        with pytest.raises(ValueError):
            OrdinalConfig(3, 0)

    def test_num_patterns(self):
        assert OrdinalConfig(4, 1).num_patterns == 24

    def test_series_rejects_non_finite(self):
        with pytest.raises(ValueError):
            TimeSeries([1.0, math.inf])
        with pytest.raises(ValueError):
            TimeSeries([1.0, math.nan])

    def test_series_rejects_empty_and_2d(self):
        with pytest.raises(ValueError):
            TimeSeries(np.empty(0))
        with pytest.raises(ValueError):
            TimeSeries(np.zeros((2, 2)))

    def test_timestamp_grid(self):
        TimeSeries([1.0, 2.0, 3.0], [0.0, 5.0, 10.0])
        with pytest.raises(ValueError):
            TimeSeries([1.0, 2.0, 3.0], [0.0, 5.0, 11.0])
        with pytest.raises(ValueError):
            TimeSeries([1.0, 2.0, 3.0], [0.0, 5.0, 5.0])
        with pytest.raises(ValueError):
            TimeSeries([1.0, 2.0], [0.0])

    def test_values_immutable(self):
        series = TimeSeries([1.0, 2.0])
        with pytest.raises(ValueError):
            series.values[0] = 9.0

    def test_distribution_rejects_bad_total(self):
        pid = PatternId.from_permutation((0, 1, 2))
        with pytest.raises(ValueError):
            PatternDistribution(CFG3, {pid: 2}, 3)
