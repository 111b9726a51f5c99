import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cecplane import WindowParams, baseline_cloud, patterns, rolling_quantifiers
from cecplane.patterns import (
    MAX_DIM,
    OrdinalConfig,
    PatternDistribution,
    PatternId,
    TimeSeries,
    _encode_starts,
    _window_counts,
    encode_window,
    extract_pattern_distribution,
    index_to_permutation,
    permutation_to_index,
)
from cecplane.quantifiers import _plane_points, _window_points
from oracles import argsort_encode_starts, naive_pattern_oracle

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

    @pytest.mark.parametrize("index", [-1, 6])
    def test_index_out_of_range(self, index):
        with pytest.raises(ValueError, match=f"^index {index} out of range for dim=3$"):
            index_to_permutation(index, 3)

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
        assert dist.counts == {PatternId((0, 1, 2), 0): 2}
        probs = dist.probabilities
        assert probs[0] == 1.0
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_sample_count_arithmetic(self, rng):
        series = TimeSeries(rng.standard_normal(360))
        dist = extract_pattern_distribution(series, OrdinalConfig(4, 1))
        assert dist.sample_count == 357

    def test_delay_two(self):
        # windows with delay 2 over (1,3,2,4): (1,2) and (3,4), both ascending
        dist = extract_pattern_distribution(TimeSeries([1.0, 3.0, 2.0, 4.0]),
                                            OrdinalConfig(2, 2))
        assert dist.counts == {PatternId((0, 1), 0): 2}

    def test_constant_series(self):
        dist = extract_pattern_distribution(TimeSeries([7.0] * 5), CFG3)
        assert dist.sample_count == 3
        assert dist.counts == {PatternId((2, 1, 0), 5): 3}

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
        assert up.counts == {PatternId((0, 1, 2, 3), 0): 7}
        assert down.counts == {PatternId((3, 2, 1, 0), 23): 7}


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
    """The comparison encoder gives exactly the argsort encoder's codes, in
    the narrowest signed type that holds ``D! - 1``, whatever the block."""

    @settings(max_examples=300, deadline=None)
    @given(encoder_inputs())
    def test_matches_argsort_encoder(self, case):
        # blocks of 3 starts: up to 48 // dim windows cross block edges at
        # every dim, in a row and in the batch
        cfg, batch = case
        with mock.patch.object(patterns, "_ENCODE_BLOCK", 3):
            batched = _encode_starts(batch, cfg)
            rows = [_encode_starts(row, cfg) for row in batch]
        assert batched.dtype == np.min_scalar_type(-cfg.num_patterns)
        assert batched.shape == (batch.shape[0], cfg.windows_in(batch.shape[1]))
        for row, codes, row_codes in zip(batch, batched, rows):
            expected = argsort_encode_starts(row, cfg)
            assert np.array_equal(row_codes, expected)
            assert np.array_equal(codes, expected)

    @pytest.mark.parametrize("dim,code_type", [(2, np.int8), (5, np.int8), (6, np.int16),
                                               (7, np.int16), (8, np.int32),
                                               (MAX_DIM, np.int32)])
    def test_largest_code_fits_its_type(self, dim, code_type):
        # a strictly decreasing window is the last permutation, D! - 1:
        # 479,001,599 at MAX_DIM
        codes = _encode_starts(np.arange(dim, 0, -1.0), OrdinalConfig(dim, 1))
        assert codes.dtype == code_type
        assert codes.tolist() == [math.factorial(dim) - 1]

    @pytest.mark.parametrize("dim", [2, 6, 8, MAX_DIM])
    def test_three_blocks_and_a_ragged_tail(self, rng, dim):
        # tied values, so that the windows that straddle each block edge
        # hold ties too
        n_windows = 3 * patterns._ENCODE_BLOCK + 777
        for delay in (1, 2, 3):
            cfg = OrdinalConfig(dim, delay)
            values = rng.integers(0, 16, n_windows + (dim - 1) * delay).astype(float)
            codes = _encode_starts(values, cfg)
            assert codes.size == n_windows
            assert np.array_equal(codes, argsort_encode_starts(values, cfg))

    def test_rolling_points_do_not_depend_on_the_block(self, rng):
        series = TimeSeries(rng.standard_normal(250_000))
        params, cfg = WindowParams(3600, 600), OrdinalConfig(6, 1)
        blocked = rolling_quantifiers(series, params, cfg)
        with mock.patch.object(patterns, "_ENCODE_BLOCK", 1 << 30):
            whole = rolling_quantifiers(series, params, cfg)
        assert blocked.entropies.tobytes() == whole.entropies.tobytes()
        assert blocked.complexities.tobytes() == whole.complexities.tobytes()

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
                              argsort_encode_starts(batch, cfg))
        if levels is None:
            assert sorted(_encode_starts(batch, cfg)[:, 0]) == list(range(len(windows)))

    def test_long_random_series(self, rng):
        values = rng.standard_normal(5000)
        for dim in (4, 6, MAX_DIM):
            cfg = OrdinalConfig(dim, 2)
            assert np.array_equal(_encode_starts(values, cfg),
                                  argsort_encode_starts(values, cfg))


@st.composite
def window_spans(draw, layout):
    """Pattern codes over ``m`` symbols and the spans ``codes[s:s + w]`` at
    ``starts = offset + k * step``: overlapping (``step < w``), abutting
    (``step == w``, the layout of fBm paths laid end to end) or gapped
    (``step > w``)."""
    m = draw(st.sampled_from([2, 6, 24, 120]))
    per_window = draw(st.integers(2 if layout == "overlap" else 1, 12))
    step = draw({"overlap": st.integers(1, per_window - 1), "abut": st.just(per_window),
                 "gap": st.integers(per_window + 1, 2 * per_window + 3)}[layout])
    starts = draw(st.integers(0, 5)) + step * np.arange(draw(st.integers(1, 10)))
    length = int(starts[-1]) + per_window + draw(st.integers(0, 5))
    codes = draw(st.lists(st.integers(0, m - 1), min_size=length, max_size=length))
    return np.array(codes, dtype=np.int64), m, starts, per_window


class TestWindowCounts:
    """The one span counter and the blocked scorer built on it."""

    @pytest.mark.parametrize("layout", ["overlap", "abut", "gap"])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_matches_bincount_of_each_span(self, layout, data):
        codes, m, starts, per_window = data.draw(window_spans(layout))
        counts = _window_counts(codes, m, starts, per_window)
        assert counts.shape == (starts.size, m)
        for row, s in zip(counts, starts):
            assert np.array_equal(row, np.bincount(codes[s:s + per_window], minlength=m))

    @pytest.mark.parametrize("dim,step", [(4, 5), (4, 30), (7, 60), (8, 60), (8, 353)])
    def test_points_match_kernel_one_window_at_a_time(self, rng, dim, step):
        """Bit for bit: at D = 4 over two blocks of overlapping windows and
        over abutting ones, at D = 7 over gapped ones, 4 a block, and at
        D = 8, where a block holds one window."""
        m = math.factorial(dim)
        per_window = 353 if dim == 8 else 30
        starts = np.arange(12 if dim == 8 else 900) * step
        codes = rng.integers(0, m, int(starts[-1]) + per_window)
        entropies, complexities = _window_points(codes, m, starts, per_window)
        for s, h, c in zip(starts, entropies, complexities):
            counts = np.bincount(codes[s:s + per_window], minlength=m)
            want_h, _, want_c = _plane_points(counts[np.newaxis, :] / per_window)
            assert (h, c) == (want_h[0], want_c[0])


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

    @pytest.mark.parametrize("dim,delay", [(3, 1), (4, 2)])
    @pytest.mark.parametrize("span,admit", [
        ("series", lambda n, cfg: extract_pattern_distribution(
            TimeSeries(np.arange(float(n))), cfg)),
        ("window", lambda n, cfg: rolling_quantifiers(
            TimeSeries(np.arange(40.0)), WindowParams(n, 5), cfg)),
        ("fBm path", lambda n, cfg: baseline_cloud(0.5, 2, n, cfg, 1)),
    ])
    def test_span_one_sample_short_has_one_message(self, span, admit, dim, delay):
        """Every span that must admit a pattern (a series, a rolling window,
        an fBm path) is refused by one rule, in one message form."""
        cfg = OrdinalConfig(dim, delay)
        needed = (dim - 1) * delay + 1
        with pytest.raises(ValueError, match=(
                rf"^{span} of {needed - 1} samples admits no ordinal pattern at "
                rf"dim={dim}, delay={delay} \(needs at least {needed}\)$")):
            admit(needed - 1, cfg)
        admit(needed, cfg)

    def test_distribution_rejects_bad_total(self):
        for histogram in ([0] * 6, [1] * 5, [1] * 7, [2, -1, 0, 0, 0, 0],
                          [0.5] * 6, {PatternId((0, 1, 2), 0): 2}):
            with pytest.raises(ValueError):
                PatternDistribution(CFG3, histogram)


class TestDenseDistribution:
    """One read-only int64 count vector; the rest is derived from it."""

    def test_histogram_is_a_frozen_copy(self):
        counts = np.array([3, 0, 1, 0, 0, 2], dtype=np.int32)
        dist = PatternDistribution(CFG3, counts)
        assert dist.histogram.dtype == np.int64
        assert not dist.histogram.flags.writeable
        counts[0] = 9
        assert dist.histogram.tolist() == [3, 0, 1, 0, 0, 2]
        assert dist.sample_count == 6
        assert dist.probabilities.tolist() == [0.5, 0.0, 1 / 6, 0.0, 0.0, 2 / 6]

    def test_counts_mapping_is_read_only(self):
        dist = PatternDistribution(CFG3, [3, 0, 1, 0, 0, 2])
        assert dist.counts == {PatternId.from_index(0, 3): 3, PatternId.from_index(2, 3): 1,
                               PatternId.from_index(5, 3): 2}
        with pytest.raises(TypeError):
            dist.counts[PatternId.from_index(1, 3)] = 1
