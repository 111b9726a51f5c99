import hashlib
import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cecplane import __version__, make_synthetic_dataset, write_dataset
from cecplane.cli import _load_windows, main


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
        rc, _, err = run_main(capsys, [
            "analyze", "--input", str(data), "--out", str(tmp_path / "p"),
            "--window", "360", "--step", "120", "--plots", "pie-chart"])
        assert rc == 1
        assert "unknown plot kind" in json.loads(err)["message"]


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
        strides = set(np.diff(res.window_starts).tolist())
        assert len(strides) <= 1 and all(s > 0 for s in strides)
        assert ((res.entropies >= 0) & (res.entropies <= 1)).all()
        assert (res.complexities >= 0).all()
        loaded[asset] = list(zip(res.window_starts.tolist(),
                                 res.entropies.tolist(), res.complexities.tolist()))
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
    ])
    def test_errors_name_line_and_column(self, tmp_path, body, where):
        path = tmp_path / "windows.csv"
        path.write_text(",".join(WINDOWS_HEADER) + "\n" + body)
        with pytest.raises(ValueError) as exc:
            _load_windows(str(path))
        assert str(exc.value).startswith(f"{path}: {where}: ")

    def test_reads_analyze_output(self, workspace):
        _, _, out = workspace
        results = _load_windows(str(out / "windows.csv"))
        assert sorted(results) == ["AAA", "BBB", "CCC"]
        assert all(r.window_starts.tolist() == [0, 120, 240, 360, 480]
                   for r in results.values())

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

    def test_console_script(self):
        proc = subprocess.run([sys.executable, "-m", "cecplane.cli", "--version"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert __version__ in proc.stdout
