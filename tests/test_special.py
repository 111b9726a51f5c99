import copy
import json
import math
import pickle
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from cecplane import (AnovaResult, AssetSummary, BaselineCloud, BoundCurve, CecpPoint, Dataset,
                      FbmSpec, OrdinalConfig, PatternDistribution, PatternId, RollingResult,
                      SpearmanResult, TimeSeries, WindowParams, baseline_cloud, load_dataset,
                      lower_bound_curve, make_synthetic_dataset, q0_constant,
                      upper_bound_curve, window_count)
from cecplane._readback import _by_column, _by_row
from cecplane.dataio import RunConfig
from cecplane.special import f_sf, regularized_incomplete_beta, student_t_sf_two_sided

mpmath.mp.dps = 50


def mp_betainc(a, b, x):
    return float(mpmath.betainc(a, b, 0, x, regularized=True))


class TestIncompleteBeta:
    # shape pairs from tiny to the half-integer range ANOVA actually uses
    SHAPES = [(0.5, 0.5), (1.0, 1.0), (2.0, 5.0), (5.5, 0.5), (7.0, 7.0),
              (0.5, 130.0), (130.0, 0.5), (40.0, 60.0), (250.0, 3.5)]
    XS = [1e-9, 0.01, 0.2, 0.5, 0.8, 0.99, 1.0 - 1e-9]

    def test_against_high_precision_oracle(self):
        for a, b in self.SHAPES:
            for x in self.XS:
                got = regularized_incomplete_beta(a, b, x)
                want = mp_betainc(a, b, x)
                assert got == pytest.approx(want, rel=1e-10, abs=1e-13), (a, b, x)

    def test_endpoint_values(self):
        assert regularized_incomplete_beta(3.0, 4.0, 0.0) == 0.0
        assert regularized_incomplete_beta(3.0, 4.0, 1.0) == 1.0

    def test_reflection_symmetry(self):
        for a, b, x in [(2.5, 7.0, 0.3), (12.0, 0.75, 0.9)]:
            left = regularized_incomplete_beta(a, b, x)
            right = 1.0 - regularized_incomplete_beta(b, a, 1.0 - x)
            assert left == pytest.approx(right, rel=1e-12, abs=1e-14)

    def test_uniform_case_is_identity(self):
        for x in (0.125, 0.5, 0.77):
            assert regularized_incomplete_beta(1.0, 1.0, x) == pytest.approx(x, abs=1e-14)

    def test_monotone_in_x(self):
        values = [regularized_incomplete_beta(3.0, 2.0, x / 20) for x in range(21)]
        assert all(u < v for u, v in zip(values, values[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            regularized_incomplete_beta(0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            regularized_incomplete_beta(1.0, -2.0, 0.5)
        with pytest.raises(ValueError):
            regularized_incomplete_beta(1.0, 1.0, 1.5)


class TestFTail:
    def test_against_scipy(self):
        cases = [(0.0, 1, 1), (1.5, 1, 4), (2.7, 3, 116), (0.3, 11, 1048),
                 (55.0, 2, 30), (1.0, 7, 7)]
        for f, d1, d2 in cases:
            assert f_sf(f, d1, d2) == pytest.approx(
                scipy.stats.f.sf(f, d1, d2), rel=1e-10, abs=1e-14)

    def test_textbook_value(self):
        # P(F_{1,4} > 1.5) for the worked one-way example
        assert f_sf(1.5, 1, 4) == pytest.approx(0.2878641347266906, abs=1e-12)

    def test_limits(self):
        assert f_sf(0.0, 3, 10) == 1.0
        assert f_sf(math.inf, 3, 10) == 0.0

    def test_errors(self):
        with pytest.raises(ValueError):
            f_sf(-0.1, 3, 10)
        with pytest.raises(ValueError):
            f_sf(1.0, 0, 10)


class TestStudentTail:
    def test_against_scipy(self):
        for t, df in [(0.0, 5), (1.0, 1), (2.2, 10), (-3.3, 28), (0.54, 1046)]:
            assert student_t_sf_two_sided(t, df) == pytest.approx(
                2.0 * scipy.stats.t.sf(abs(t), df), rel=1e-10, abs=1e-14)

    def test_cauchy_quartile(self):
        # for df=1 (Cauchy), |T| > 1 has probability exactly 1/2
        assert student_t_sf_two_sided(1.0, 1) == pytest.approx(0.5, abs=1e-13)

    def test_limits_and_errors(self):
        assert student_t_sf_two_sided(0.0, 7) == 1.0
        assert student_t_sf_two_sided(math.inf, 7) == 0.0
        with pytest.raises(ValueError):
            student_t_sf_two_sided(1.0, 0)


class TestIntegerRule:
    """Every count-like argument takes any integer type, numpy's included,
    stores a plain ``int``, and names itself when given anything else."""

    def test_numpy_integers_build_the_int_built_objects(self):
        pairs = [
            (OrdinalConfig(np.int64(4), np.int32(2)), OrdinalConfig(4, 2), ("dim", "delay")),
            (WindowParams(np.int64(360), np.uint16(60)), WindowParams(360, 60),
             ("size", "step")),
            (FbmSpec(0.5, np.int64(10), 1), FbmSpec(0.5, 10, 1), ("length",)),
            (FbmSpec(0.5, 10, np.uint64(3)), FbmSpec(0.5, 10, 3), ("seed",)),
            (baseline_cloud(0.5, np.int64(4), 40, OrdinalConfig(3), 1),
             baseline_cloud(0.5, 4, 40, OrdinalConfig(3), 1), ("sims",)),
            (BaselineCloud(0.5, CecpPoint(0.9, 0.1), 0.0, 0.0, np.uint8(4)),
             BaselineCloud(0.5, CecpPoint(0.9, 0.1), 0.0, 0.0, 4), ("sims",)),
            (RunConfig(seed=np.int64(7), bounds_resolution=np.uint16(300),
                       fbm_sims=np.int32(8)),
             RunConfig(seed=7, bounds_resolution=300, fbm_sims=8),
             ("seed", "bounds_resolution", "fbm_sims")),
            (AssetSummary("a", 0.5, 0.1, 0.0, 0.0, np.int64(5)),
             AssetSummary("a", 0.5, 0.1, 0.0, 0.0, 5), ("window_count",)),
            (AnovaResult(1.0, 1.0, 2.0, np.int64(1), np.uint32(4), 1.0, 1.0, 1.0, 0.5),
             AnovaResult(1.0, 1.0, 2.0, 1, 4, 1.0, 1.0, 1.0, 0.5), ("df_between", "df_within")),
            (SpearmanResult(0.5, 0.2, np.int64(5)), SpearmanResult(0.5, 0.2, 5), ("n",)),
            (PatternId((0, 2, 1), np.int64(1)), PatternId((0, 2, 1), 1), ("index",)),
        ]
        # _replace checks and converts as a call does
        pairs += [
            (OrdinalConfig()._replace(dim=np.int64(4), delay=np.int32(2)), OrdinalConfig(4, 2),
             ("dim", "delay")),
            (WindowParams()._replace(size=np.int64(360), step=np.uint16(60)),
             WindowParams(360, 60), ("size", "step")),
            (FbmSpec(0.5, 10, 1)._replace(length=np.int64(10), seed=np.uint64(3)),
             FbmSpec(0.5, 10, 3), ("length", "seed")),
            (BaselineCloud(0.5, CecpPoint(0.9, 0.1), 0.0, 0.0, 4)._replace(sims=np.uint8(4)),
             BaselineCloud(0.5, CecpPoint(0.9, 0.1), 0.0, 0.0, 4), ("sims",)),
            (RunConfig()._replace(seed=np.int64(7), bounds_resolution=np.uint16(300),
                                  fbm_sims=np.int32(8)),
             RunConfig(seed=7, bounds_resolution=300, fbm_sims=8),
             ("seed", "bounds_resolution", "fbm_sims")),
            (AssetSummary("a", 0.5, 0.1, 0.0, 0.0, 5)._replace(window_count=np.int64(5)),
             AssetSummary("a", 0.5, 0.1, 0.0, 0.0, 5), ("window_count",)),
        ]
        for built, expected, fields in pairs:
            assert built == expected
            for field in fields:
                assert type(getattr(built, field)) is int, field
        # RollingResult compares by identity, so only its field is compared
        rolled = RollingResult("x", [0, 60], [0.5, 0.5], [0.1, 0.1], np.int64(357))
        assert type(rolled.samples_per_window) is int
        assert rolled.samples_per_window == 357
        states = BoundCurve(np.int64(24), "lower", [0.0, 1.0], [0.0, 0.0]).states
        assert type(states) is int and states == 24
        curve = lower_bound_curve(np.int64(24), np.int64(100))
        assert type(curve.states) is int
        assert np.array_equal(curve.complexity, lower_bound_curve(24, 100).complexity)
        config = RunConfig(ordinal=OrdinalConfig(np.int64(5)),
                           window=WindowParams(np.int64(120), np.int64(30)))
        assert json.loads(json.dumps(config.as_dict()))["window_size"] == 120

    @pytest.mark.parametrize("call,name,minimum", [
        (lambda: OrdinalConfig(2.0), "dim", 2),
        (lambda: OrdinalConfig(4, 1.0), "delay", 1),
        (lambda: WindowParams(360.0, 60), "size", 2),
        (lambda: WindowParams(360, "60"), "step", 1),
        (lambda: FbmSpec(0.5, 10.0, 1), "length", 2),
        (lambda: lower_bound_curve(24.0, 100), "M", 2),
        (lambda: upper_bound_curve(24, 100.0), "resolution", 2),
        (lambda: baseline_cloud(0.5, 2.0, 40, OrdinalConfig(3), 1), "sims", 1),
        pytest.param(lambda: BaselineCloud(0.5, CecpPoint(0.9, 0.1), 0.0, 0.0, sims=2.5),
                     "sims", 1, id="BaselineCloud-sims-1"),
        pytest.param(lambda: RollingResult("x", [0, 60], [0.5, 0.5], [0.1, 0.1],
                                           samples_per_window=2.5),
                     "samples_per_window", 1, id="RollingResult-samples_per_window-1"),
        (lambda: RunConfig(bounds_resolution=300.0), "bounds_resolution", 2),
        (lambda: RunConfig(fbm_sims=8.0), "fbm_sims", 1),
        (lambda: RunConfig(seed=7.0), "seed", 0),
        pytest.param(lambda: make_synthetic_dataset(["a"], 2.5, seed=1), "length", 2,
                     id="make_synthetic_dataset-length-2"),
        pytest.param(lambda: make_synthetic_dataset(["a"], 10, seed=1.5), "seed", 0,
                     id="make_synthetic_dataset-seed-0-fraction"),
        pytest.param(lambda: make_synthetic_dataset(["a"], 10, seed=-1), "seed", 0,
                     id="make_synthetic_dataset-seed-0-negative"),
        pytest.param(lambda: make_synthetic_dataset(["a"], 10, seed=1, spacing=0), "spacing", 1,
                     id="make_synthetic_dataset-spacing-1"),
        pytest.param(lambda: q0_constant(2.5), "m", 2, id="q0_constant-m-2"),
        pytest.param(lambda: window_count(16031.5, WindowParams()), "series_len", 0,
                     id="window_count-series_len-0"),
        pytest.param(lambda: AssetSummary("a", 0.5, 0.1, 0.0, 0.0, 2.5), "window_count", 1,
                     id="AssetSummary-window_count-1"),
        pytest.param(lambda: AnovaResult(1.0, 1.0, 2.0, 1.5, 4, 1.0, 1.0, 1.0, 0.5),
                     "df_between", 1, id="AnovaResult-df_between-1"),
        pytest.param(lambda: AnovaResult(1.0, 1.0, 2.0, 1, 2.5, 1.0, 1.0, 1.0, 0.5),
                     "df_within", 1, id="AnovaResult-df_within-1"),
        pytest.param(lambda: SpearmanResult(0.5, 0.5, 3.5), "n", 3, id="SpearmanResult-n-3"),
        pytest.param(lambda: BoundCurve(2.5, "lower", [0.0, 1.0], [0.0, 0.0]), "states", 2,
                     id="BoundCurve-states-2"),
        pytest.param(lambda: PatternId((0, 1), 0.0), "index", 0, id="PatternId-index-0"),
    ])
    def test_non_integer_is_named(self, call, name, minimum):
        rule = "a nonnegative integer" if minimum == 0 else f"an integer >= {minimum}"
        with pytest.raises(ValueError, match=rf"^{name} must be {rule}, got "):
            call()

    def test_run_config_flag_is_a_bool(self, tmp_path):
        """Both flags, ``RunConfig.log_returns`` and ``load_dataset``'s
        ``forward_fill``, take a ``bool`` or a numpy bool and nothing else:
        ``"no"`` would fill the gap below as truthy."""
        path = tmp_path / "d.csv"
        path.write_text("timestamp,a\n0,1\n300,\n600,3\n")
        for value in (1, "yes", "no"):
            for name, call in (("log_returns", lambda: RunConfig(log_returns=value)),
                               ("forward_fill", lambda: load_dataset(path, forward_fill=value))):
                with pytest.raises(ValueError, match=rf"^{name} must be a bool, got {value!r}$"):
                    call()
        flag = RunConfig(log_returns=np.bool_(True)).log_returns
        assert type(flag) is bool and flag
        assert load_dataset(path, forward_fill=np.bool_(True)).fill_counts == {"a": 1}

    def test_below_minimum_keeps_the_message(self):
        with pytest.raises(ValueError, match=r"^delay must be an integer >= 1, got 0$"):
            OrdinalConfig(4, 0)
        # a numpy integer is named as the int it converts to
        with pytest.raises(ValueError, match=r"^dim must be an integer >= 2, got 1$"):
            OrdinalConfig(np.int64(1))


@st.composite
def window_starts(draw):
    """1 to 40 nonnegative starts: one constant stride (positive, zero or
    negative), the same with one start moved, or any integers."""
    n = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["constant", "moved", "irregular"]))
    if kind == "irregular":
        return draw(st.lists(st.integers(0, 2_000), min_size=n, max_size=n))
    stride = draw(st.integers(-50, 50))
    first = draw(st.integers(2_000, 2_100))
    starts = [first + stride * k for k in range(n)]
    if kind == "moved":
        starts[draw(st.integers(0, n - 1))] += draw(st.integers(-60, 60))
    return starts


class TestStrideRule:
    """One stride rule, window starts advancing by one constant positive
    stride, holds for a ``RollingResult`` and for both ways of reading
    ``windows.csv``; the row loop names the first start that breaks it."""

    @settings(max_examples=500, deadline=None)
    @given(window_starts())
    def test_every_reader_keeps_the_rule(self, starts):
        n = len(starts)
        breaks = [k for k in range(1, n) if starts[1] - starts[0] <= 0
                  or starts[k] - starts[k - 1] != starts[1] - starts[0]]
        try:
            RollingResult("a", starts, [0.5] * n, [0.1] * n, 357)
            rolled = True
        except ValueError as exc:
            assert str(exc) == "window_starts must advance by a constant positive stride"
            rolled = False
        rows = [(k + 2, ["a", str(k), str(start), "0.5", "0.1"])
                for k, start in enumerate(starts)]
        try:
            by_row = _by_row("w.csv", rows, lambda row: row)
        except ValueError as exc:
            assert str(exc).startswith(f"w.csv: line {breaks[0] + 2}, column 'start_offset': ")
            by_row = None
        assert rolled is (by_row is not None) is (not breaks)
        body = "".join(",".join(row) + "\n" for _, row in rows)
        assert _by_column(body, 5, [0, 1, 2, 3, 4]) == by_row


def _holders():
    """One of each array holder, built by its constructor."""
    series = TimeSeries([3.0, 1.0, 2.0], [0.0, 300.0, 600.0])
    return {
        "TimeSeries": series,
        "PatternDistribution": PatternDistribution(OrdinalConfig(3), [1, 0, 2, 0, 0, 1]),
        "RollingResult": RollingResult("x", [0, 60], [0.5, 0.6], [0.1, 0.2], 357,
                                       [359.0, 419.0]),
        "BoundCurve": lower_bound_curve(6, 10),
        "Dataset": Dataset({"a": series, "b": TimeSeries([1.0, 2.0, 4.0])}, {"a": 0, "b": 1},
                           "time", "abc", Path("prices.csv")),
    }


def _opened(value, flags: list):
    """``value`` with each array holder opened into its slots and each array
    into its values; appends each array's ``writeable`` flag to ``flags``."""
    if isinstance(value, np.ndarray):
        flags.append(value.flags.writeable)
        return value.tolist()
    if isinstance(value, dict):
        return {k: _opened(v, flags) for k, v in value.items()}
    if getattr(value, "__slots__", ()):
        return type(value), {s: _opened(getattr(value, s), flags) for s in value.__slots__}
    return value


class TestHolderCopies:
    """A copy or pickle of an array holder is rebuilt by its constructor, so
    its arrays are read-only like the original's."""

    WAYS = {"copy": copy.copy, "deepcopy": copy.deepcopy,
            "pickle": lambda holder: pickle.loads(pickle.dumps(holder))}

    @pytest.mark.parametrize("way", WAYS)
    @pytest.mark.parametrize("name", sorted(_holders()))
    def test_copy_keeps_type_values_and_read_only_arrays(self, name, way):
        holder = _holders()[name]
        flags, copied_flags = [], []
        original = _opened(holder, flags)
        assert _opened(self.WAYS[way](holder), copied_flags) == original
        assert len(copied_flags) == len(flags) > 0 and not any(flags + copied_flags)
