import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cecplane import (
    CecpPoint,
    OrdinalConfig,
    RollingResult,
    TimeSeries,
    WindowParams,
    cecp_point,
    extract_pattern_distribution,
    rolling_quantifiers,
    window_count,
)

CONFIG = OrdinalConfig(dim=4, delay=1)


class TestWindowCount:
    def test_exact_fit(self):
        assert window_count(360, WindowParams(360, 60)) == 1

    def test_hourly_stride_over_long_series(self):
        assert window_count(16031, WindowParams(360, 60)) == 262

    def test_trailing_partial_window_dropped(self):
        assert window_count(360 + 59, WindowParams(360, 60)) == 1
        assert window_count(360 + 60, WindowParams(360, 60)) == 2

    def test_too_short(self):
        with pytest.raises(ValueError):
            window_count(359, WindowParams(360, 60))

    def test_params_validation(self):
        with pytest.raises(ValueError):
            WindowParams(size=1)
        with pytest.raises(ValueError):
            WindowParams(step=0)
        with pytest.raises(ValueError):
            WindowParams(size=360.0)


class TestAgainstStandalone:
    """Sliced-stream counting must equal per-window extraction exactly."""

    @pytest.mark.parametrize("dim,delay,step",
                             [(3, 1, 50), (4, 1, 60), (5, 2, 37), (3, 1, 400), (4, 2, 450)])
    def test_matches_window_by_window(self, rng, dim, delay, step):
        values = rng.standard_normal(1200)
        values[::7] = np.round(values[::7], 1)  # sprinkle ties
        series = TimeSeries(values)
        config = OrdinalConfig(dim, delay)
        params = WindowParams(size=400, step=step)
        result = rolling_quantifiers(series, params, config)
        for k, point in enumerate(result.points):
            chunk = TimeSeries(values[k * step:k * step + 400])
            expected = cecp_point(extract_pattern_distribution(chunk, config))
            assert point == expected  # bit-identical, not approx

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 32), st.integers(2, 9), st.sampled_from([3, 4]))
    def test_matches_standalone_hypothesis(self, seed, step, dim):
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 6, size=90).astype(float)  # tie-heavy
        series = TimeSeries(values)
        config = OrdinalConfig(dim, 1)
        params = WindowParams(size=30, step=step)
        result = rolling_quantifiers(series, params, config)
        assert len(result.points) == window_count(90, params)
        for k, point in enumerate(result.points):
            chunk = TimeSeries(values[k * step:k * step + 30])
            assert point == cecp_point(extract_pattern_distribution(chunk, config))


class TestTrajectories:
    def test_monotone_series_sits_at_origin(self):
        series = TimeSeries(np.arange(480.0))
        result = rolling_quantifiers(series, WindowParams(360, 60), CONFIG)
        assert len(result.points) == 3
        assert all(p == CecpPoint(0.0, 0.0) for p in result.points)

    def test_constant_window_is_a_point_not_an_error(self):
        result = rolling_quantifiers(TimeSeries(np.zeros(400)), WindowParams(360, 20), CONFIG)
        assert all(p.entropy == 0.0 and p.complexity == 0.0 for p in result.points)

    def test_regime_change_is_visible(self, rng):
        calm = np.arange(800.0)
        wild = rng.standard_normal(800) * 5 + 800
        series = TimeSeries(np.concatenate([calm, wild]))
        result = rolling_quantifiers(series, WindowParams(360, 60), CONFIG)
        h = result.entropies
        # windows 0..7 end at sample 779 or earlier: fully inside the ramp
        assert (h[:8] == 0.0).all()
        # from window 13 on, windows are (almost) fully inside the noise
        assert (h[13:] > 0.9).all()
        # the crossover interpolates monotonically between the regimes
        assert (np.diff(h[7:14]) > 0).all()

    def test_iid_noise_stays_near_upper_right(self, rng):
        series = TimeSeries(rng.standard_normal(16031))
        result = rolling_quantifiers(series, WindowParams(360, 60), CONFIG)
        assert len(result.points) == 262
        assert result.entropies.min() > 0.9
        assert result.complexities.max() < 0.1


class TestResultStructure:
    def test_starts_and_samples(self):
        series = TimeSeries(np.sin(np.arange(700.0)))
        result = rolling_quantifiers(series, WindowParams(360, 60), CONFIG, asset="sine")
        assert result.asset == "sine"
        assert np.array_equal(result.window_starts, [0, 60, 120, 180, 240, 300])
        assert result.samples_per_window == 360 - 3
        assert result.end_timestamps is None

    def test_end_timestamps_follow_grid(self):
        ts = 1500000000.0 + 300.0 * np.arange(500)
        series = TimeSeries(np.cos(np.arange(500.0)), timestamps=ts)
        result = rolling_quantifiers(series, WindowParams(360, 60), CONFIG)
        assert np.array_equal(result.end_timestamps, ts[[359, 419, 479]])

    def test_entropy_and_complexity_properties_align(self, rng):
        series = TimeSeries(rng.standard_normal(600))
        result = rolling_quantifiers(series, WindowParams(360, 120), CONFIG)
        for i, p in enumerate(result.points):
            assert result.entropies[i] == p.entropy
            assert result.complexities[i] == p.complexity

    def test_window_smaller_than_pattern_span(self):
        series = TimeSeries(np.arange(100.0))
        with pytest.raises(ValueError):
            rolling_quantifiers(series, WindowParams(size=8, step=1), OrdinalConfig(5, 2))

    def test_series_shorter_than_window(self):
        with pytest.raises(ValueError):
            rolling_quantifiers(TimeSeries(np.arange(100.0)), WindowParams(360, 60), CONFIG)

    def test_result_validation(self):
        pts = (CecpPoint(0.0, 0.0), CecpPoint(0.5, 0.1))
        with pytest.raises(ValueError):
            RollingResult("x", np.array([0]), pts, 357)
        with pytest.raises(ValueError):
            RollingResult("x", np.array([0, 60, 100]), pts + pts[:1], 357)
        with pytest.raises(ValueError):
            RollingResult("x", np.array([0, 60]), pts, 357,
                          end_timestamps=np.array([1.0]))
