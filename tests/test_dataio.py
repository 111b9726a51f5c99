import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cecplane import (
    Dataset,
    RunConfig,
    TimeSeries,
    WindowParams,
    emit_plot_data,
    load_dataset,
    log_return_series,
    make_synthetic_dataset,
    run_pipeline,
    window_count,
    write_bundle,
    write_dataset,
)
from cecplane import dataio
from cecplane.cli import main as cli_main
from cecplane.dataio import PLOT_KINDS, _fmt, _sha256_file


class TestCellFormat:
    def test_integral_floats_have_no_fraction(self):
        assert _fmt(1500000000.0) == "1500000000"
        assert _fmt(-3.0) == "-3"

    def test_floats_use_shortest_roundtrip(self):
        assert _fmt(0.1) == "0.1"
        assert float(_fmt(2.0 / 3.0)) == 2.0 / 3.0

    def test_bools_and_ints(self):
        assert _fmt(True) == "true"
        assert _fmt(False) == "false"
        assert _fmt(np.int64(7)) == "7"


class TestRoundTrip:
    def test_write_then_load_is_identical(self, small_dataset, tmp_path):
        path = tmp_path / "prices.csv"
        digest = write_dataset(small_dataset, path)
        again = load_dataset(path)
        assert again.assets == small_dataset.assets
        assert again.digest == digest
        for asset in small_dataset.assets:
            assert np.array_equal(again.series[asset].values,
                                  small_dataset.series[asset].values)
            assert np.array_equal(again.series[asset].timestamps,
                                  small_dataset.series[asset].timestamps)

    def test_timestamps_fabricated_when_absent(self, tmp_path):
        ds = Dataset(series={"x": TimeSeries(np.array([5.0, 6.0, 7.0]))})
        path = tmp_path / "bare.csv"
        write_dataset(ds, path)
        again = load_dataset(path)
        assert np.array_equal(again.series["x"].timestamps, [0.0, 1.0, 2.0])

    def test_column_subset_and_order(self, small_dataset, tmp_path):
        path = tmp_path / "prices.csv"
        write_dataset(small_dataset, path)
        subset = load_dataset(path, assets=["CCC", "AAA"])
        assert subset.assets == ("CCC", "AAA")
        assert np.array_equal(subset.series["CCC"].values,
                              small_dataset.series["CCC"].values)


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return path


class TestLoadErrors:
    def test_missing_cell_names_line_and_column(self, tmp_path):
        p = write_lines(tmp_path / "d.csv",
                        ["timestamp,btc,eth", "0,1.0,2.0", "300,,2.1"])
        with pytest.raises(ValueError, match=r"line 3.*'btc'"):
            load_dataset(p)

    def test_non_numeric_cell(self, tmp_path):
        p = write_lines(tmp_path / "d.csv",
                        ["timestamp,btc", "0,1.0", "300,n/a"])
        with pytest.raises(ValueError, match="non-numeric"):
            load_dataset(p)

    def test_forward_fill_counts_and_preserves_length(self, tmp_path):
        p = write_lines(tmp_path / "d.csv",
                        ["timestamp,btc,eth",
                         "0,1.0,10.0", "300,,10.5", "600,3.0,"])
        ds = load_dataset(p, forward_fill=True)
        assert ds.length == 3
        assert ds.series["btc"].values.tolist() == [1.0, 1.0, 3.0]
        assert ds.series["eth"].values.tolist() == [10.0, 10.5, 10.5]
        assert ds.fill_counts == {"btc": 1, "eth": 1}

    def test_leading_gap_cannot_fill(self, tmp_path):
        p = write_lines(tmp_path / "d.csv",
                        ["timestamp,btc", "0,", "300,2.0"])
        with pytest.raises(ValueError, match="before any valid value"):
            load_dataset(p, forward_fill=True)

    def test_duplicate_columns(self, tmp_path):
        p = write_lines(tmp_path / "d.csv", ["timestamp,btc,btc", "0,1.0,2.0"])
        with pytest.raises(ValueError, match="duplicate"):
            load_dataset(p)

    def test_requested_column_absent(self, tmp_path):
        p = write_lines(tmp_path / "d.csv", ["timestamp,btc", "0,1.0"])
        with pytest.raises(ValueError, match="ltc"):
            load_dataset(p, assets=["ltc"])

    def test_ragged_row(self, tmp_path):
        p = write_lines(tmp_path / "d.csv", ["timestamp,btc", "0,1.0,9.9"])
        with pytest.raises(ValueError, match="line 2"):
            load_dataset(p)

    def test_empty_and_headerless(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(ValueError, match="header"):
            load_dataset(empty)
        headeronly = write_lines(tmp_path / "h.csv", ["timestamp,btc"])
        with pytest.raises(ValueError, match="no data rows"):
            load_dataset(headeronly)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path / "nope.csv")

    def test_bad_timestamp(self, tmp_path):
        p = write_lines(tmp_path / "d.csv", ["timestamp,btc", "whenever,1.0"])
        with pytest.raises(ValueError, match="line 2"):
            load_dataset(p)
        p2 = write_lines(tmp_path / "d2.csv", ["timestamp,btc", "inf,1.0"])
        with pytest.raises(ValueError, match="not finite"):
            load_dataset(p2)

    @pytest.mark.parametrize("stamps,line,rule", [
        (["0", "300", "900", "1200"], 4, "evenly spaced"),  # a 600 s gap
        (["0", "300", "300", "600"], 4, "strictly increasing"),  # duplicate
        (["0", "300", "600", "450"], 5, "strictly increasing"),  # decreasing
    ])
    def test_timestamp_grid_error_names_line(self, tmp_path, stamps, line, rule):
        p = write_lines(tmp_path / "d.csv",
                        ["timestamp,btc"] + [f"{t},1.0" for t in stamps])
        with pytest.raises(ValueError, match=f"line {line}: timestamps must be {rule}; "
                                             f"'{stamps[line - 2]}'"):
            load_dataset(p)

    def test_timestamp_line_counts_blank_rows(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("timestamp,btc\n0,1.0\n\n300,2.0\n900,3.0\n")
        with pytest.raises(ValueError, match="line 5: .*comes 600 after .* 300 apart"):
            load_dataset(p)

    def test_trailing_blank_line_ignored(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("timestamp,btc\n0,1.0\n300,2.0\n\n")
        assert load_dataset(p).length == 2


    def test_duplicate_requested_columns(self, tmp_path):
        p = write_lines(tmp_path / "d.csv", ["timestamp,btc", "0,1.0", "300,2.0"])
        with pytest.raises(ValueError, match="duplicate requested"):
            load_dataset(p, assets=["btc", "btc"])

    def test_cli_reports_one_json_line(self, tmp_path, capsys):
        p = write_lines(tmp_path / "d.csv",
                        ["timestamp,btc,eth", "0,1.0,2.0", "300,1.5", "600,1.0,2.0"])
        rc = cli_main(["analyze", "--input", str(p), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 1
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["error"] == "ValueError"
        assert "line 3 has 2 cells, header has 3" in record["message"]


def _outcome(path, **kwargs):
    """What ``load_dataset`` gives: the dataset as comparable bytes, or the
    type and message of what it raised."""
    try:
        ds = load_dataset(path, **kwargs)
    except Exception as exc:
        return ("raised", type(exc).__name__, str(exc))
    return ("loaded", ds.assets, ds.timestamp_label, ds.digest, ds.fill_counts,
            [(s.values.tobytes(), s.timestamps.tobytes())
             for s in ds.series.values()])


def _row_reader_outcome(path, **kwargs):
    with mock.patch.object(dataio, "_read_numeric", return_value=None):
        return _outcome(path, **kwargs)


NUMBER_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["+4", ".5", "5.", "1e-400", "-0.0", " 2.5 ", "\t3", "1E3"]),
)
ODD_CELLS = st.sampled_from([
    "", " ", "nan", "inf", "-inf", "NaN", "1e500", "1_0", "\uff11", "#1.5",
    "n/a", "abc", "0x10", '"1,5"', '"1""5"', ' "1.5"', '"1"5', "1.5\"x\"", '"7',
])


def _cell(draw, number, noisy):
    if noisy and draw(st.integers(0, 7)) == 0:
        return draw(ODD_CELLS)
    return '"%s"' % number if draw(st.integers(0, 5)) == 0 else number


@st.composite
def csv_inputs(draw):
    """A small CSV text with the defects a real export can have, plus the
    ``load_dataset`` keywords to read it with."""
    columns = ["a", "b", "c"][:draw(st.integers(1, 3))]
    stamp = draw(st.sampled_from([
        lambda i: str(300 * i),
        lambda i: repr(300.0 * i + 0.5),
        lambda i: f"2017-11-01T{i // 12:02d}:{i % 12 * 5:02d}:00",
    ]))
    noisy = draw(st.booleans())  # clean files still vary quotes and line ends
    kinds = ["row"] * 6 + ["blank", "commas", "ragged"] if noisy else ["row"]
    lines = [",".join(["timestamp", *columns])]
    for i in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(kinds))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", " "])))
            continue
        if kind == "commas":
            lines.append("," * len(columns))
            continue
        cells = [_cell(draw, stamp(i), noisy)]
        cells += [_cell(draw, draw(NUMBER_CELLS), noisy) for _ in columns]
        if kind == "ragged":
            cells = cells[:-1] if draw(st.booleans()) else cells + ["7"]
        lines.append(",".join(cells))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    text = eol.join(lines) + (eol if draw(st.booleans()) else "")
    if draw(st.integers(0, 9)) == 0:
        text = draw(st.sampled_from(["", lines[0] + eol]))  # empty, header only
    if draw(st.booleans()):
        text = "\ufeff" + text
    assets = None
    if draw(st.booleans()):
        assets = draw(st.lists(st.sampled_from(columns), min_size=1,
                               max_size=len(columns), unique=True))
    return text, {"assets": assets, "forward_fill": draw(st.booleans())}


class TestLoadPaths:
    """The one-pass numeric read and the row reader give the same result."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(csv_inputs())
    def test_fuzz_matches_row_reader(self, case):
        text, kwargs = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "d.csv"
            path.write_bytes(text.encode("utf-8"))
            assert _outcome(path, **kwargs) == _row_reader_outcome(path, **kwargs)

    @pytest.mark.parametrize("text", [
        "timestamp,a,b\n0,1.5,2\n300,-1e-3,4\n",
        "\ufefftimestamp,a,b\r\n0,1.5,2\r\n300,\"7\",4\r\n\r\n",
        "timestamp,a,b\n0,1.5,inf\n300,2.5,nan\n",  # only "a" requested
    ])
    def test_numeric_file_takes_one_pass(self, tmp_path, text):
        path = tmp_path / "d.csv"
        path.write_text(text, newline="")
        with mock.patch.object(dataio, "_read_rows", wraps=dataio._read_rows) as rows:
            loaded = _outcome(path, assets=["a"])
        rows.assert_not_called()
        assert loaded[0] == "loaded"
        assert loaded == _row_reader_outcome(path, assets=["a"])

    @pytest.mark.parametrize("text", [
        "timestamp,a\n2017-11-01T00:00:00,1\n2017-11-01T00:05:00,2\n",
        "timestamp,a\n0,1\n300,\n",
        "timestamp,a\n0,1\n300,1_0\n",
        "timestamp,a\n0,1\n300,inf\n",
        "timestamp,a\n0,1\n,\n300,2\n",
    ])
    def test_other_files_take_row_reader(self, tmp_path, text):
        path = tmp_path / "d.csv"
        path.write_text(text, newline="")
        with mock.patch.object(dataio, "_read_rows", wraps=dataio._read_rows) as rows:
            assert _outcome(path, forward_fill=True)[0] == "loaded"
        rows.assert_called_once()


class TestIsoTimestamps:
    def test_naive_read_as_utc(self, tmp_path):
        p = write_lines(tmp_path / "d.csv",
                        ["time,btc",
                         "2017-11-01T00:00:00,1.0",
                         "2017-11-01T00:05:00+00:00,2.0"])
        ds = load_dataset(p)
        ts = ds.series["btc"].timestamps
        assert ts[1] - ts[0] == 300.0
        assert ts[0] == 1509494400.0  # 2017-11-01 midnight UTC
        assert ds.timestamp_label == "time"


class TestSyntheticDataset:
    def test_deterministic(self):
        a = make_synthetic_dataset(["x", "y"], 200, seed=3)
        b = make_synthetic_dataset(["x", "y"], 200, seed=3)
        for label in ("x", "y"):
            assert np.array_equal(a.series[label].values, b.series[label].values)

    def test_assets_differ(self, small_dataset):
        a, b, c = (small_dataset.series[k].values for k in ("AAA", "BBB", "CCC"))
        assert not np.array_equal(a, b) and not np.array_equal(b, c)

    def test_grid_spacing(self):
        ds = make_synthetic_dataset(["x"], 50, seed=0, spacing=60)
        ts = ds.series["x"].timestamps
        assert np.array_equal(np.diff(ts), np.full(49, 60.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            make_synthetic_dataset(["x", "x"], 100, seed=0)
        with pytest.raises(ValueError):
            make_synthetic_dataset(["x"], 1, seed=0)


class TestLogReturns:
    def test_values_and_timestamps(self):
        prices = np.array([100.0, 110.0, 99.0])
        ts = np.array([0.0, 300.0, 600.0])
        r = log_return_series(TimeSeries(prices, ts))
        assert np.allclose(r.values, np.diff(np.log(prices)), atol=1e-15)
        assert np.array_equal(r.timestamps, [300.0, 600.0])

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError, match="position 1"):
            log_return_series(TimeSeries(np.array([1.0, -2.0, 3.0])))


class TestPipeline:
    CONFIG = RunConfig(window=WindowParams(360, 60), fbm_hursts=(0.7,), fbm_sims=10)

    def test_shape_of_results(self, small_dataset):
        bundle = run_pipeline(self.CONFIG, small_dataset)
        expected_windows = window_count(1500, self.CONFIG.window)
        assert set(bundle.rolling) == {"AAA", "BBB", "CCC"}
        for res in bundle.rolling.values():
            assert len(res.points) == expected_windows
        assert len(bundle.ranking) == 3
        assert bundle.anova_entropy is not None
        assert bundle.anova_complexity is not None
        assert [c.asset for c in bundle.pairwise] == ["BBB", "CCC"]
        assert all(c.baseline == "AAA" for c in bundle.pairwise)
        assert len(bundle.clouds) == 1 and bundle.clouds[0].sims == 10

    def test_overlap_caveat_tracks_step(self, small_dataset):
        overlapping = run_pipeline(self.CONFIG, small_dataset)
        assert any("overlap" in c for c in overlapping.caveats)
        disjoint = run_pipeline(
            RunConfig(window=WindowParams(360, 360)), small_dataset)
        assert not disjoint.caveats

    def test_undersample_warning(self, small_dataset):
        bundle = run_pipeline(
            RunConfig(window=WindowParams(100, 100)), small_dataset)
        assert any("undersampled" in w for w in bundle.warnings)
        assert not run_pipeline(self.CONFIG, small_dataset).warnings

    def test_single_asset(self, small_dataset):
        bundle = run_pipeline(RunConfig(assets=("BBB",),
                                        window=WindowParams(360, 60)),
                              small_dataset)
        assert len(bundle.ranking) == 1 and bundle.ranking[0].rank == 1.0
        assert bundle.anova_entropy is None
        assert bundle.pairwise == []

    def test_log_returns_path(self, small_dataset):
        bundle = run_pipeline(
            RunConfig(window=WindowParams(360, 60), log_returns=True),
            small_dataset)
        # one sample is lost to differencing
        assert len(next(iter(bundle.rolling.values())).points) == \
            window_count(1499, WindowParams(360, 60))

    def test_unknown_asset(self, small_dataset):
        with pytest.raises(ValueError, match="ZZZ"):
            run_pipeline(RunConfig(assets=("AAA", "ZZZ")), small_dataset)

    def test_short_series_error_names_asset(self):
        tiny = make_synthetic_dataset(["solo"], 100, seed=1)
        with pytest.raises(ValueError, match="'solo'"):
            run_pipeline(RunConfig(window=WindowParams(360, 60)), tiny)

    def test_explicit_baseline(self, small_dataset):
        bundle = run_pipeline(
            RunConfig(window=WindowParams(360, 60), baseline="CCC"),
            small_dataset)
        assert all(c.baseline == "CCC" for c in bundle.pairwise)
        assert [c.asset for c in bundle.pairwise] == ["AAA", "BBB"]


@pytest.fixture(scope="module")
def bundle(small_dataset):
    config = RunConfig(window=WindowParams(360, 60), fbm_hursts=(0.6, 0.8),
                       fbm_sims=8, bounds_resolution=500)
    return run_pipeline(config, small_dataset)


class TestWriteBundle:
    def test_file_inventory(self, bundle, tmp_path):
        written = write_bundle(bundle, tmp_path / "out")
        names = {p.name for p in written}
        assert names == {"windows.csv", "summaries.csv", "ranking.csv",
                         "anova.csv", "pairwise_anova.csv", "bounds.csv",
                         "fbm_clouds.csv", "manifest.json"}

    def test_windows_table_shape(self, bundle, tmp_path):
        out = tmp_path / "out"
        write_bundle(bundle, out)
        lines = (out / "windows.csv").read_text().splitlines()
        per_asset = len(next(iter(bundle.rolling.values())).points)
        assert lines[0] == "asset,window_index,start_offset,end_timestamp,entropy,complexity"
        assert len(lines) == 1 + 3 * per_asset

    def test_manifest_hashes_verify(self, bundle, tmp_path):
        out = tmp_path / "out"
        write_bundle(bundle, out)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["tool"] == "cecplane"
        assert manifest["config"]["window_size"] == 360
        assert manifest["input_digest"] == bundle.input_digest
        assert sorted(manifest["files"]) == sorted(
            n for n in (p.name for p in out.iterdir()) if n != "manifest.json")
        for name, digest in manifest["files"].items():
            assert _sha256_file(out / name) == digest
        assert "timestamp" not in manifest and "created" not in manifest

    def test_reruns_are_byte_identical(self, bundle, small_dataset, tmp_path):
        config = bundle.config
        first = write_bundle(run_pipeline(config, small_dataset), tmp_path / "a")
        second = write_bundle(run_pipeline(config, small_dataset), tmp_path / "b")
        for p1, p2 in zip(sorted(first), sorted(second)):
            assert p1.name == p2.name
            assert p1.read_bytes() == p2.read_bytes()

    def test_anova_caveat_column(self, bundle, tmp_path):
        out = tmp_path / "out"
        write_bundle(bundle, out)
        rows = (out / "anova.csv").read_text().splitlines()[1:]
        assert all(row.endswith("overlapping-windows") for row in rows)


class TestPlotData:
    def test_every_kind_emits(self, bundle, tmp_path):
        per_asset = len(next(iter(bundle.rolling.values())).points)
        expected_rows = {
            "entropy-evolution": 3 * per_asset,
            "cecp-scatter": 3 * per_asset,
            "cecp-means": 3,
            "anova-intervals": 2 * 2,
        }
        for kind in PLOT_KINDS:
            path = emit_plot_data(bundle, kind, tmp_path)
            lines = path.read_text().splitlines()
            assert len(lines) == 1 + expected_rows[kind], kind

    def test_values_copied_verbatim(self, bundle, tmp_path):
        path = emit_plot_data(bundle, "cecp-means", tmp_path)
        first_data_row = path.read_text().splitlines()[1].split(",")
        summary = bundle.summaries[first_data_row[0]]
        assert float(first_data_row[1]) == summary.mean_entropy
        assert float(first_data_row[2]) == summary.mean_complexity

    def test_intervals_need_pairwise(self, small_dataset, tmp_path):
        solo = run_pipeline(RunConfig(assets=("AAA",),
                                      window=WindowParams(360, 60),
                                      bounds_resolution=300),
                            small_dataset)
        with pytest.raises(ValueError, match="pairwise"):
            emit_plot_data(solo, "anova-intervals", tmp_path)

    def test_unknown_kind(self, bundle, tmp_path):
        with pytest.raises(ValueError, match="unknown plot kind"):
            emit_plot_data(bundle, "heatmap", tmp_path)
