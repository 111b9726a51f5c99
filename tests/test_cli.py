import hashlib
import importlib
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import cecplane
from cecplane import (
    RunConfig,
    WindowParams,
    __version__,
    load_dataset,
    make_synthetic_dataset,
    run_pipeline,
    write_dataset,
)
from cecplane._tables import _read_csv
from cecplane.cli import _load_metrics, _load_windows, main


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A dataset CSV plus one completed analyze run to chain commands off."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "prices.csv"
    write_dataset(make_synthetic_dataset(["AAA", "BBB", "CCC"], 900, seed=11), data)
    out = root / "run"
    rc = main(["analyze", "--input", str(data), "--out", str(out),
               "--window", "360", "--step", "120", "--seed", "5"])
    assert rc == 0
    return root, data, out


def run_main(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestBounds:
    def test_stdout_table(self, capsys):
        rc, out, err = run_main(capsys, ["bounds", "--dim", "3", "--resolution", "50"])
        assert rc == 0 and err == ""
        lines = out.splitlines()
        assert lines[0] == "H,C_lower,C_upper"
        assert len(lines) == 51
        first = lines[1].split(",")
        last = lines[-1].split(",")
        assert float(first[0]) == 0.0 and float(last[0]) == 1.0
        assert abs(float(first[1])) < 1e-9 and abs(float(last[2])) < 1e-9

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "bounds.csv"
        rc, out, _ = run_main(capsys, ["bounds", "--dim", "3",
                                       "--resolution", "20", "--out", str(target)])
        assert rc == 0 and out == ""
        assert target.read_text().startswith("H,C_lower,C_upper\n")

    @pytest.mark.parametrize("command", ["bounds", "fbm", "rank", "spearman"])
    def test_stdout_equals_out_file(self, workspace, capsysbinary, tmp_path, command):
        _, _, run = workspace
        metric = tmp_path / "metrics.csv"
        metric.write_text("asset,mcap,volume\nAAA,100,9\nBBB,50,5\nCCC,10,1\n")
        argv = {
            "bounds": ["bounds", "--dim", "3", "--resolution", "40"],
            "fbm": ["fbm", "--hurst", "0.5,0.8", "--sims", "4", "--length", "128"],
            "rank": ["rank", "--input", str(run / "windows.csv")],
            "spearman": ["spearman", "--input", str(run / "windows.csv"),
                         "--metric", str(metric)],
        }[command]
        assert main(argv) == 0
        stdout = capsysbinary.readouterr().out
        target = tmp_path / "table.csv"
        assert main(argv + ["--out", str(target)]) == 0
        assert capsysbinary.readouterr().out == b""
        assert stdout.count(b"\n") > 1 and stdout == target.read_bytes()

    def test_invalid_dim(self, capsys):
        rc, _, err = run_main(capsys, ["bounds", "--dim", "1"])
        assert rc == 1
        assert json.loads(err)["error"] == "ValueError"


class TestFbm:
    ARGS = ["fbm", "--hurst", "0.5,0.8", "--sims", "4", "--length", "128"]

    def test_deterministic_table(self, capsys):
        rc1, out1, _ = run_main(capsys, self.ARGS + ["--seed", "9"])
        rc2, out2, _ = run_main(capsys, self.ARGS + ["--seed", "9"])
        assert rc1 == rc2 == 0
        assert out1 == out2
        lines = out1.splitlines()
        assert lines[0].startswith("hurst,mean_entropy")
        assert len(lines) == 3

    def test_seed_matters(self, capsys):
        _, out1, _ = run_main(capsys, self.ARGS + ["--seed", "9"])
        _, out2, _ = run_main(capsys, self.ARGS + ["--seed", "10"])
        assert out1 != out2

    def test_bad_hurst(self, capsys):
        rc, _, err = run_main(capsys, ["fbm", "--hurst", "1.5"])
        assert rc == 1
        assert json.loads(err)["error"] == "ValueError"

    @pytest.mark.parametrize("command", ["fbm", "analyze"])
    def test_negative_seed_is_named(self, workspace, capsys, tmp_path, command):
        _, data, _ = workspace
        argv = {"fbm": self.ARGS,
                "analyze": ["analyze", "--input", str(data), "--out", str(tmp_path / "run"),
                            "--window", "360", "--step", "120",
                            "--fbm-hurst", "0.5", "--sims", "4"]}[command]
        rc, _, err = run_main(capsys, argv + ["--seed", "-3"])
        assert rc == 1
        assert json.loads(err) == {"error": "ValueError",
                                   "message": "seed must be a nonnegative integer, got -3"}


class TestAnalyze:
    def test_outputs_and_listing(self, workspace, capsys):
        root, data, out = workspace
        # the module fixture already ran analyze; verify its tree
        names = {p.name for p in out.iterdir()}
        assert {"windows.csv", "summaries.csv", "ranking.csv", "anova.csv",
                "pairwise_anova.csv", "bounds.csv", "manifest.json"} <= names
        assert "fbm_clouds.csv" not in names  # no --fbm-hurst given

    def test_plots_all(self, workspace, capsys, tmp_path):
        root, data, _ = workspace
        out = tmp_path / "run"
        rc, stdout, _ = run_main(capsys, [
            "analyze", "--input", str(data), "--out", str(out),
            "--window", "360", "--step", "120", "--plots", "all"])
        assert rc == 0
        names = {p.name for p in out.iterdir()}
        assert {"plot_entropy_evolution.csv", "plot_cecp_scatter.csv",
                "plot_cecp_means.csv", "plot_anova_intervals.csv"} <= names
        listed = {line.rsplit("/", 1)[-1] for line in stdout.splitlines()}
        assert names == listed
        # the manifest is written last and hashes every other file
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["files"]) == names - {"manifest.json"}
        for name, digest in manifest["files"].items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest

    def test_undersample_warning_on_stderr(self, workspace, capsys, tmp_path):
        root, data, _ = workspace
        rc, _, err = run_main(capsys, [
            "analyze", "--input", str(data), "--out", str(tmp_path / "w"),
            "--window", "100", "--step", "100"])
        assert rc == 0
        assert "undersampled" in err

    def test_missing_input(self, capsys, tmp_path):
        rc, _, err = run_main(capsys, [
            "analyze", "--input", str(tmp_path / "ghost.csv"),
            "--out", str(tmp_path / "o")])
        assert rc == 1
        payload = json.loads(err)
        assert payload["error"] == "FileNotFoundError"
        assert "ghost.csv" in payload["message"]

    def test_unknown_plot_kind(self, workspace, capsys, tmp_path):
        root, data, _ = workspace
        out = tmp_path / "p"
        rc, _, err = run_main(capsys, [
            "analyze", "--input", str(data), "--out", str(out),
            "--window", "360", "--step", "120", "--plots", "cecp-means,pie-chart"])
        assert rc == 1
        assert "unknown plot kind" in json.loads(err)["message"]
        assert list(out.glob("*")) == []  # no partial output tree

    def test_one_asset_plots_all(self, workspace, capsys, tmp_path):
        # 'all' is every kind the run can show: no pairwise results, so no
        # anova-intervals
        _, data, _ = workspace
        out = tmp_path / "solo"
        rc, stdout, _ = run_main(capsys, [
            "analyze", "--input", str(data), "--out", str(out), "--assets", "BBB",
            "--window", "360", "--step", "120", "--plots", "all"])
        assert rc == 0
        names = {p.name for p in out.iterdir()}
        assert {"plot_entropy_evolution.csv", "plot_cecp_scatter.csv",
                "plot_cecp_means.csv", "windows.csv", "manifest.json"} <= names
        assert "plot_anova_intervals.csv" not in names
        assert {line.rsplit("/", 1)[-1] for line in stdout.splitlines()} == names
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["files"]) == names - {"manifest.json"}

    def test_stale_output_directory_refused(self, capsys, tmp_path):
        data = tmp_path / "prices.csv"
        write_dataset(make_synthetic_dataset([f"S{i:02d}" for i in range(12)], 420, seed=3),
                      data)
        out = tmp_path / "run"
        argv = ["analyze", "--input", str(data), "--out", str(out), "--window", "360",
                "--step", "30", "--plots", "all"]
        assert run_main(capsys, argv)[0] == 0
        tree = {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in out.iterdir()}
        # one asset writes no ANOVA files, so the first run's would be left over
        rc, stdout, err = run_main(capsys, argv + ["--assets", "S01"])
        assert rc == 1 and stdout == ""
        record = json.loads(err)
        assert record["error"] == "FileExistsError"
        assert "anova.csv, pairwise_anova.csv, plot_anova_intervals.csv;" in record["message"]
        assert {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in out.iterdir()} == tree
        # the same command again rewrites the same files, byte for byte
        assert run_main(capsys, argv)[0] == 0
        assert {p.name: p.read_bytes() for p in out.iterdir()} == {
            name: content for name, (content, _) in tree.items()}

    def test_one_asset_anova_intervals_rejected(self, workspace, capsys, tmp_path):
        _, data, _ = workspace
        out = tmp_path / "solo"
        rc, _, err = run_main(capsys, [
            "analyze", "--input", str(data), "--out", str(out), "--assets", "BBB",
            "--window", "360", "--step", "120", "--plots", "cecp-means,anova-intervals"])
        assert rc == 1
        assert "needs pairwise" in json.loads(err)["message"]
        assert list(out.glob("*")) == []


class TestRank:
    def test_ranking_from_windows(self, workspace, capsys):
        _, _, out = workspace
        rc, stdout, _ = run_main(capsys, ["rank", "--input", str(out / "windows.csv")])
        assert rc == 0
        lines = stdout.splitlines()
        assert lines[0] == "rank,asset,distance,tied"
        assert len(lines) == 4
        ranks = [float(line.split(",")[0]) for line in lines[1:]]
        assert ranks == sorted(ranks)

    def test_matches_analyze_ranking(self, workspace, capsys):
        _, _, out = workspace
        rc, stdout, _ = run_main(capsys, ["rank", "--input", str(out / "windows.csv")])
        assert stdout == (out / "ranking.csv").read_text()

    def test_rejects_wrong_schema(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("foo,bar\n1,2\n")
        rc, _, err = run_main(capsys, ["rank", "--input", str(bad)])
        assert rc == 1
        assert "expected columns" in json.loads(err)["message"]


class TestAnova:
    def test_json_payload(self, workspace, capsys):
        _, _, out = workspace
        rc, stdout, _ = run_main(capsys, ["anova", "--input", str(out / "windows.csv")])
        assert rc == 0
        payload = json.loads(stdout)
        assert set(payload) == {"entropy", "complexity", "pairwise", "caveat"}
        assert payload["entropy"]["df_between"] == 2
        assert 0.0 <= payload["entropy"]["p_value"] <= 1.0
        # two non-baseline assets x two metrics
        assert len(payload["pairwise"]) == 4
        assert all(r["baseline"] == "AAA" for r in payload["pairwise"])

    def test_explicit_baseline(self, workspace, capsys):
        _, _, out = workspace
        rc, stdout, _ = run_main(capsys, [
            "anova", "--input", str(out / "windows.csv"), "--baseline", "BBB"])
        payload = json.loads(stdout)
        assert {r["asset"] for r in payload["pairwise"]} == {"AAA", "CCC"}

    def test_single_asset_rejected(self, workspace, capsys, tmp_path):
        _, _, out = workspace
        solo = tmp_path / "solo.csv"
        lines = (out / "windows.csv").read_text().splitlines()
        kept = [lines[0]] + [l for l in lines[1:] if l.startswith("AAA,")]
        solo.write_text("\n".join(kept) + "\n")
        rc, _, err = run_main(capsys, ["anova", "--input", str(solo)])
        assert rc == 1
        assert "at least two" in json.loads(err)["message"]


WINDOWS_HEADER = ["asset", "window_index", "start_offset", "end_timestamp",
                  "entropy", "complexity"]
ODD_WINDOW_CELLS = st.sampled_from([
    "", " ", "abc", "nan", "inf", "-inf", "1e500", "-1", "-0.5", "1.5", "3.0",
    "1e3", "1_0", "\uff11", '"7', '"1,5"', "9" * 25, "-1e-9",
])


@st.composite
def windows_inputs(draw):
    """A small windows.csv text with the defects a hand-edited file can have,
    and the ``(start, entropy, complexity)`` rows per asset a clean one holds
    (``None`` when the text was made defective)."""
    header = list(WINDOWS_HEADER)
    defective = False
    if draw(st.integers(0, 5)) == 0:
        edit = draw(st.sampled_from(["drop", "duplicate", "extra", "shuffle"]))
        defective = edit in ("drop", "duplicate")  # an extra or moved column reads fine
        k = draw(st.integers(0, len(header) - 1))
        if edit == "drop":
            del header[k]
        elif edit == "duplicate":
            header.insert(k, header[k])
        elif edit == "extra":
            header.append("x")
        else:
            header = draw(st.permutations(header))
    expected = {}
    rows = []
    for asset in draw(st.lists(st.sampled_from(["AAA", "BBB", "CCC"]),
                               min_size=1, max_size=3, unique=True)):
        step = draw(st.integers(1, 600))
        for k in range(draw(st.integers(1, 4))):
            point = (k * step,
                     draw(st.floats(0.0, 1.0)),
                     draw(st.floats(0.0, 0.5)))
            expected.setdefault(asset, []).append(point)
            rows.append({"asset": asset, "window_index": str(k),
                         "start_offset": str(k * step), "end_timestamp": "",
                         "entropy": repr(point[1]), "complexity": repr(point[2]),
                         "x": "7"})
    rows = draw(st.permutations(rows))
    lines = [",".join(header)]
    noisy = draw(st.booleans())
    for row in rows:
        cells = [row[c] for c in header]
        kind = draw(st.sampled_from(["row"] * 6 + ["odd", "ragged", "blank", "again"]
                                    if noisy else ["row"]))
        if kind == "odd":
            k = draw(st.integers(0, len(cells) - 1))
            cells[k] = draw(ODD_WINDOW_CELLS)
        elif kind == "ragged":
            cells = cells[:-1] if draw(st.booleans()) else cells + ["7"]
        elif kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", "," * (len(cells) - 1)])))
        elif kind == "again":
            lines.append(",".join(cells))  # the same window twice
        defective |= kind in ("odd", "ragged", "again")
        lines.append(",".join(cells))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    text = eol.join(lines) + (eol if draw(st.booleans()) else "")
    if draw(st.integers(0, 9)) == 0:
        text = draw(st.sampled_from(["", lines[0] + eol]))  # empty, header only
        defective = True
    if draw(st.booleans()):
        text = "\ufeff" + text
    return text, None if defective else expected


LOCATED = re.compile(r"line \d+(, column ('[^']*'|\d+))?: \S")


def _load_windows_outcome(path: Path):
    """The rows ``_load_windows`` read, or ``None`` after a located
    ValueError; any other outcome fails the test."""
    try:
        results = _load_windows(str(path))
    except ValueError as exc:
        message = str(exc)
        assert message.startswith(f"{path}: "), message
        assert LOCATED.match(message[len(str(path)) + 2:]), message
        return None
    loaded = {}
    for asset, res in results.items():
        assert res.asset == asset
        starts, entropies, complexities = (
            np.asarray(v) for v in (res.window_starts, res.entropies, res.complexities))
        strides = set(np.diff(starts).tolist())
        assert len(strides) <= 1 and all(s > 0 for s in strides)
        assert ((entropies >= 0) & (entropies <= 1)).all()
        assert (complexities >= 0).all()
        loaded[asset] = list(zip(starts.tolist(), entropies.tolist(), complexities.tolist()))
    return loaded


class TestLoadWindows:
    """``windows.csv`` gives its windows or a ValueError naming path, line
    and column."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(windows_inputs())
    def test_fuzz_loads_or_locates(self, case):
        text, expected = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "windows.csv"
            path.write_bytes(text.encode("utf-8"))
            loaded = _load_windows_outcome(path)
        if expected is not None:
            assert loaded == expected

    @pytest.mark.parametrize("body,where", [
        ("AAA,0,0,,0.5,0.1\nAAA,1,60,,abc,0.1\n", "line 3, column 'entropy'"),
        ("AAA,0,0,,0.5,0.1\nAAA,1,60,,0.5\n", "line 3, column 'complexity'"),
        ("AAA,0,0,,1.5,0.1\n", "line 2, column 'entropy'"),
        ("AAA,0,0,,0.5,-0.1\n", "line 2, column 'complexity'"),
        ("AAA,0,0,,0.5,inf\n", "line 2, column 'complexity'"),
        ("AAA,0,0,,0.5,0.1\n\nAAA,0,0,,0.5,0.1\n", "line 4, column 'window_index'"),
        ("AAA,0,0,,0.5,0.1\nAAA,1,0,,0.5,0.1\n", "line 3, column 'start_offset'"),
        ("AAA,1,60,,0.5,0.1\nAAA,0,0,,0.5,0.1\nAAA,2,180,,0.5,0.1\n",
         "line 4, column 'start_offset'"),
        ("AAA,0.5,0,,0.5,0.1\n", "line 2, column 'window_index'"),
        ("AAA,0,-60,,0.5,0.1\n", "line 2, column 'start_offset'"),
        ("AAA,0,%s,,0.5,0.1\n" % ("9" * 25), "line 2, column 'start_offset'"),
        ("AAA,0,0,,0.5,0.1,7\n", "line 2, column 7"),
        (",0,0,,0.5,0.1\n", "line 2, column 'asset'"),
        # the first defect in reading order: an earlier line before a ragged
        # row, and along a row the plane check before the duplicate check
        ("AAA,0,0,,1.5,0.1\nAAA,1,60,,0.5\n", "line 2, column 'entropy'"),
        ("AAA,0,0,,0.5,0.1\nAAA,0,0,,1.5,0.1\n", "line 3, column 'entropy'"),
    ])
    def test_errors_name_line_and_column(self, tmp_path, body, where):
        path = tmp_path / "windows.csv"
        path.write_text(",".join(WINDOWS_HEADER) + "\n" + body)
        with pytest.raises(ValueError) as exc:
            _load_windows(str(path))
        assert str(exc.value).startswith(f"{path}: {where}: ")

    def test_reads_analyze_output(self, workspace):
        _, data, out = workspace
        results = _load_windows(str(out / "windows.csv"))
        assert sorted(results) == ["AAA", "BBB", "CCC"]
        assert all(r.window_starts == (0, 120, 240, 360, 480) for r in results.values())
        # the same config as the workspace's analyze run, in process
        bundle = run_pipeline(RunConfig(window=WindowParams(360, 120), seed=5),
                              load_dataset(data))
        for asset, res in bundle.rolling.items():
            for name in ("window_starts", "entropies", "complexities"):
                assert (np.asarray(getattr(results[asset], name)).tobytes()
                        == getattr(res, name).tobytes())

    def test_cli_reports_one_json_line(self, tmp_path, capsys):
        path = tmp_path / "windows.csv"
        path.write_text(",".join(WINDOWS_HEADER)
                        + "\nAAA,0,0,,0.5,0.1\nBBB,0,0,,0.5\n")
        rc = main(["rank", "--input", str(path)])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert "Traceback" not in captured.err
        lines = captured.err.splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["error"] == "ValueError"
        assert record["message"].startswith(f"{path}: line 3, column 'complexity': ")


ODD_METRIC_CELLS = st.sampled_from([
    "", " ", "abc", "nan", "inf", "-inf", "1e500", "1_0", "\uff11", '"7', '"1,5"',
])


@st.composite
def metric_inputs(draw):
    """A small ``--metric`` CSV text with the defects a hand-made file can
    have, and its expected outcome: the ``{metric: {asset: value}}`` a clean
    file holds, ``None`` when an odd cell may or may not read, or ``"error"``
    when a defect must be reported: a header defect, or a ragged row or an
    asset listed twice with no odd cell (an unterminated quote can swallow
    the rest of the file into one cell)."""
    names = draw(st.lists(st.sampled_from(["mcap", "volume", "age"]),
                          min_size=1, max_size=3, unique=True))
    header = draw(st.permutations(["asset", *names]))
    header_fails = row_fails = odd = False
    if draw(st.integers(0, 5)) == 0:
        edit = draw(st.sampled_from(["drop", "duplicate"]))
        k = draw(st.integers(0, len(header) - 1))
        # dropping a metric column leaves a valid file with one metric less
        header_fails = edit == "duplicate" or header[k] == "asset" or len(header) == 2
        if edit == "drop":
            names = [n for n in names if n != header[k]]
            header = header[:k] + header[k + 1:]
        else:
            header = header[:k + 1] + header[k:]
    expected = {n: {} for n in names}
    lines = [",".join(header)]
    noisy = draw(st.booleans())
    for asset in draw(st.lists(st.sampled_from(["AAA", "BBB", "CCC", "DDD"]),
                               max_size=4, unique=True)):
        row = {"asset": asset}
        for n in names:
            value = draw(st.floats(allow_nan=False, allow_infinity=False))
            expected[n][asset] = value
            row[n] = repr(value)
        cells = [row.get(c, "7") for c in header]
        kind = draw(st.sampled_from(["row"] * 6 + ["odd", "ragged", "blank", "again"]
                                    if noisy else ["row"]))
        if kind == "odd":
            k = draw(st.integers(0, len(cells) - 1))
            cells[k] = draw(ODD_METRIC_CELLS)
        elif kind == "ragged":
            cells = cells[:-1] if draw(st.booleans()) else cells + ["7"]
        elif kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", "," * (len(cells) - 1)])))
        elif kind == "again":
            lines.append(",".join(cells))  # the same asset twice
        odd |= kind == "odd"
        row_fails |= kind in ("ragged", "again")
        lines.append(",".join(cells))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    text = eol.join(lines) + (eol if draw(st.booleans()) else "")
    if draw(st.integers(0, 9)) == 0:
        text, header_fails = "", True
    if draw(st.booleans()):
        text = "\ufeff" + text
    if header_fails or (row_fails and not odd):
        return text, "error"
    return text, None if odd else expected


class TestLoadMetrics:
    """The ``spearman --metric`` file gives its values or a ValueError naming
    path, line and column."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(metric_inputs())
    def test_fuzz_loads_or_locates(self, case):
        text, expected = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "metrics.csv"
            path.write_bytes(text.encode("utf-8"))
            try:
                loaded = _load_metrics(str(path))
            except ValueError as exc:
                message = str(exc)
                assert message.startswith(f"{path}: "), message
                assert LOCATED.match(message[len(str(path)) + 2:]), message
                loaded = None
        if loaded is not None:
            assert all(np.isfinite(list(v.values())).all() for v in loaded.values())
        if expected == "error":
            assert loaded is None
        elif expected is not None:
            assert loaded == expected

    @pytest.mark.parametrize("body,where", [
        ("AAA,abc\n", "line 2, column 'mcap'"),
        ("AAA,1\nBBB\n", "line 3, column 'mcap'"),
        ("AAA,nan\n", "line 2, column 'mcap'"),
        ("AAA,1\n\nAAA,9\n", "line 4, column 'asset'"),
        ("AAA,1,5\n", "line 2, column 3"),
        (" ,1\n", "line 2, column 'asset'"),
        ('AAA,"1\n"\nBBB,2,9\n', "line 4, column 3"),  # a quoted cell spans lines 2-3
    ])
    def test_errors_name_line_and_column(self, tmp_path, body, where):
        path = tmp_path / "metrics.csv"
        path.write_text("asset,mcap\n" + body)
        with pytest.raises(ValueError) as exc:
            _load_metrics(str(path))
        assert str(exc.value).startswith(f"{path}: {where}: ")

    def test_cli_reports_one_json_line(self, workspace, tmp_path, capsys):
        _, _, out = workspace
        path = tmp_path / "metrics.csv"
        path.write_text("asset,mcap\nAAA,1\nBBB,2\nCCC,3\nAAA,9\n")
        rc = main(["spearman", "--input", str(out / "windows.csv"), "--metric", str(path)])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert "Traceback" not in captured.err
        lines = captured.err.splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["error"] == "ValueError"
        assert record["message"] == (f"{path}: line 5, column 'asset': "
                                     "asset 'AAA' already on line 2")


class TestBadBytes:
    """A byte that is not UTF-8 is reported the same way in both CLI inputs."""

    def test_windows_and_metric_files_name_the_line(self, workspace, tmp_path, capsys):
        _, _, out = workspace
        windows = tmp_path / "windows.csv"
        lines = (out / "windows.csv").read_bytes().splitlines(keepends=True)
        windows.write_bytes(b"".join(lines[:2]) + b"\xff" + b"".join(lines[2:]))
        metric = tmp_path / "metrics.csv"
        metric.write_bytes(b"asset,mcap\nAAA,1\n\xffBBB,2\nCCC,3\n")
        messages = {}
        for path, argv in [(windows, ["rank", "--input", str(windows)]),
                           (metric, ["spearman", "--input", str(out / "windows.csv"),
                                     "--metric", str(metric)])]:
            rc, stdout, err = run_main(capsys, argv)
            assert rc == 1 and stdout == ""
            record = json.loads(err)
            assert record["error"] == "ValueError"
            messages[path] = record["message"]
        assert messages == {path: f"{path}: line 3: not UTF-8 text"
                            for path in (windows, metric)}

    # 2,000 rows of 10 bytes (20,000 bytes, well past the 8 KiB decode
    # block) carry what follows them past the first block
    # the text stream decodes; what precedes them is read with the header.
    HEAD = b"asset,mcap\n"
    FILLER = b"".join(b"X%04d,1.5\n" % k for k in range(2000))

    @pytest.mark.parametrize("data,where", [
        (HEAD + b"AAA,abc\nBBB,\xff2\n", "line 2, column 'mcap'"),
        (HEAD + b"AAA,abc\n" + FILLER + b"BBB,\xff2\n", "line 2, column 'mcap'"),
        (HEAD + FILLER + b"AAA,abc\nBBB,\xff2\n", "line 2002, column 'mcap'"),
        (HEAD + FILLER + b"AAA,1\n\nAAA,\xff2\n", "line 2004: not UTF-8 text"),
        (HEAD + FILLER + b'AAA,"1\n\xff"\n', "line 2003: not UTF-8 text"),
        (b"\xff" + HEAD + b"AAA,abc\n", "line 1: not UTF-8 text"),
        (b"asset,mcap\rAAA,1\rBBB,\xff2\r", "line 3: not UTF-8 text"),
        (b'asset,mcap\r\nAAA,"1\r\n\xff2"\r\n', "line 3: not UTF-8 text"),
        (HEAD + "ÄAA,1\nÄBB,".encode() + b"\xff2\n", "line 3: not UTF-8 text"),
        (HEAD + b"AAA,1\nBBB,2\xc3", "line 3: not UTF-8 text"),
    ], ids=["same-first-block", "blocks-apart", "same-later-block", "after-blank-row",
            "inside-quoted-cell", "in-header", "cr-line-ends", "crlf-quoted-cell",
            "after-non-ascii-label", "truncated-at-end"])
    def test_defect_ahead_of_a_bad_byte_comes_first(self, tmp_path, data, where):
        """The first defect in reading order is reported, whichever block of
        the file the bad byte is decoded in, at the line the reader counts."""
        path = tmp_path / "metrics.csv"
        path.write_bytes(data)
        with pytest.raises(ValueError) as exc:
            _load_metrics(str(path))
        assert str(exc.value).startswith(f"{path}: {where}")

    @pytest.mark.parametrize("end", [b"\n", b"\r"], ids=["lf", "cr"])
    def test_bulk_read_leaves_the_byte_to_the_row_pass(self, tmp_path, end):
        """A bulk read of the text past the header meets no decode error: the
        bad byte reads escaped, and the dataset loader, whose bulk parser
        refuses it, reports it at its line."""
        rows = b"".join(b"%d,1.5\n" % (300 * k) for k in range(2000))
        path = tmp_path / "prices.csv"
        path.write_bytes((b"timestamp,btc\n" + rows + b"600000,\xff2\n").replace(b"\n", end))
        with _read_csv(path) as (_, _, text):
            assert "600000,\udcff2" in text.read()
        with pytest.raises(ValueError) as exc:
            load_dataset(path)
        assert str(exc.value) == f"{path}: line 2002: not UTF-8 text"


class TestSpearman:
    def test_correlation_table(self, workspace, capsys, tmp_path):
        _, _, out = workspace
        metric = tmp_path / "metrics.csv"
        metric.write_text("asset,mcap,volume\nAAA,100,9\nBBB,50,5\nCCC,10,1\n")
        rc, stdout, _ = run_main(capsys, [
            "spearman", "--input", str(out / "windows.csv"),
            "--metric", str(metric)])
        assert rc == 0
        lines = stdout.splitlines()
        assert lines[0] == "metric,rho,p_value,n"
        assert [l.split(",")[0] for l in lines[1:]] == ["mcap", "volume"]
        rho = float(lines[1].split(",")[1])
        assert -1.0 <= rho <= 1.0
        assert int(lines[1].split(",")[3]) == 3

    def test_insufficient_overlap(self, workspace, capsys, tmp_path):
        _, _, out = workspace
        metric = tmp_path / "metrics.csv"
        metric.write_text("asset,mcap\nAAA,100\nZZZ,50\n")
        rc, _, err = run_main(capsys, [
            "spearman", "--input", str(out / "windows.csv"),
            "--metric", str(metric)])
        assert rc == 1
        assert "overlap" in json.loads(err)["message"]

    def test_metric_file_needs_asset_column(self, workspace, capsys, tmp_path):
        _, _, out = workspace
        metric = tmp_path / "metrics.csv"
        metric.write_text("name,mcap\nAAA,100\n")
        rc, _, err = run_main(capsys, [
            "spearman", "--input", str(out / "windows.csv"),
            "--metric", str(metric)])
        assert rc == 1


class TestEntryPoints:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out


SRC = Path(__file__).resolve().parents[1] / "src"
# Runs the CLI on its arguments, then lists the modules it loaded on stderr.
IMPORT_PROBE = """
import sys
from cecplane.cli import main
try:
    main(sys.argv[1:])
except SystemExit:
    pass
print(*sorted(sys.modules), file=sys.stderr)
"""
SUBMODULES = ("patterns", "quantifiers", "bounds", "fbm", "rolling", "stats", "dataio")


def loaded_modules(*argv) -> set[str]:
    """The modules a fresh interpreter holds after one CLI command."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, *map(str, argv)],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 0, proc.stderr
    modules = set(proc.stderr.splitlines()[-1].split())
    assert "numpy.ma" not in modules  # no command needs masked arrays
    return modules


# Runs the CLI on its arguments in an interpreter where importing numpy fails.
NUMPY_BLOCKED = """
import sys
sys.modules["numpy"] = None
from cecplane.cli import main
sys.exit(main(sys.argv[1:]))
"""


def read_command_argv(workspace, tmp_path, command) -> list:
    """``rank``, ``anova`` or ``spearman`` on the workspace's windows.csv."""
    _, _, out = workspace
    argv = [command, "--input", out / "windows.csv"]
    if command == "spearman":
        metric = tmp_path / "metric.csv"
        metric.write_text("asset,mcap\nAAA,1\nBBB,3\nCCC,2\n")
        argv += ["--metric", metric]
    return argv


class TestImportContract:
    """Each command imports only the modules it runs."""

    def test_version_loads_no_numpy_and_no_pipeline(self):
        modules = loaded_modules("--version")
        assert "numpy" not in modules
        assert {m for m in modules if m.startswith("cecplane")} == {"cecplane", "cecplane.cli"}
        assert "cecplane._fork" not in modules

    @pytest.mark.parametrize("command", ["rank", "anova", "spearman"])
    def test_read_commands_skip_encoder_kernel_and_pipeline(self, workspace, tmp_path, command):
        """The read commands load neither numpy nor any module that needs it,
        and neither ``dataclasses`` nor the ``inspect`` it imports."""
        modules = loaded_modules(*read_command_argv(workspace, tmp_path, command))
        assert {"cecplane.stats", "cecplane.special", "cecplane._tables"} <= modules
        assert "numpy" not in modules and "numpy.ma" not in modules
        assert "dataclasses" not in modules and "inspect" not in modules
        for name in ("patterns", "quantifiers", "bounds", "fbm", "rolling", "dataio", "_fork"):
            assert f"cecplane.{name}" not in modules

    @pytest.mark.parametrize("command", ["rank", "anova", "spearman"])
    def test_read_commands_run_with_numpy_blocked(self, workspace, tmp_path, command):
        argv = list(map(str, read_command_argv(workspace, tmp_path, command)))
        env = dict(os.environ, PYTHONPATH=str(SRC))
        normal = subprocess.run([sys.executable, "-m", "cecplane.cli", *argv],
                                capture_output=True, env=env)
        blocked = subprocess.run([sys.executable, "-c", NUMPY_BLOCKED, *argv],
                                 capture_output=True, env=env)
        assert normal.returncode == 0, normal.stderr
        assert blocked.returncode == 0, blocked.stderr
        assert blocked.stderr == b""
        assert blocked.stdout == normal.stdout != b""

    def test_analyze_loads_fbm_only_for_clouds(self, workspace, tmp_path):
        _, data, _ = workspace
        modules = loaded_modules("analyze", "--input", data, "--out", tmp_path / "run",
                                 "--plots", "all")
        for name in ("patterns", "quantifiers", "bounds", "rolling", "stats", "dataio"):
            assert f"cecplane.{name}" in modules
        assert "cecplane.fbm" not in modules

    @pytest.mark.parametrize("argv,absent", [
        (["bounds", "--dim", "3", "--resolution", "20"], ["fbm", "dataio", "stats", "rolling"]),
        (["fbm", "--hurst", "0.5", "--sims", "4", "--length", "40"],
         ["dataio", "stats", "bounds"]),
    ])
    def test_generators_skip_what_they_do_not_run(self, argv, absent):
        modules = loaded_modules(*argv)
        assert f"cecplane.{argv[0]}" in modules
        for name in absent:
            assert f"cecplane.{name}" not in modules


class TestLazyPackage:
    """``cecplane`` resolves its public names on first use."""

    def test_names_are_the_submodule_objects(self):
        for name in cecplane.__all__[1:]:
            homes = [m for m in SUBMODULES
                     if name in importlib.import_module(f"cecplane.{m}").__all__]
            assert len(homes) == 1, (name, homes)
            home = importlib.import_module(f"cecplane.{homes[0]}")
            assert getattr(cecplane, name) is getattr(home, name)

    def test_dir_and_star_import(self):
        assert set(cecplane.__all__) <= set(dir(cecplane))
        namespace = {}
        exec("from cecplane import *", namespace)
        assert set(cecplane.__all__) <= set(namespace)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            cecplane.no_such_name
        assert not hasattr(cecplane, "PatternIdx")

    def test_fresh_import_loads_nothing_until_used(self):
        probe = ("import sys, cecplane as cp; before = 'numpy' in sys.modules; "
                 "kinds = cp.dataio.PLOT_KINDS; print(before, kinds == cp.PLOT_KINDS, "
                 "cp.rank_assets is sys.modules['cecplane.stats'].rank_assets)")
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=str(SRC)))
        assert proc.stdout.split() == ["False", "True", "True"], proc.stderr
