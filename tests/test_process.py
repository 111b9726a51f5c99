"""The process entry ``cli._run``: a command run as ``python -m
cecplane.cli`` writes the bytes ``main()`` writes in-process, ends with the
code and stderr of each way a command can end, and leaves no file or pipe
open for the skipped interpreter teardown to lose."""

import atexit
import gc
import hashlib
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import pytest

from cecplane import __version__, _fork, cli, dataio, make_synthetic_dataset, write_dataset
from cecplane.cli import main
from test_golden import CASES, GENERATORS, READ_SIDE, _read_side_inputs

SRC = Path(__file__).resolve().parents[1] / "src"
# Buffered stdout and stderr, as a pipe gives by default, so that output the
# process entry failed to flush would be missing.
ENV = {**{k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"},
       "PYTHONPATH": str(SRC)}


def cli_process(*argv) -> subprocess.CompletedProcess:
    """``python -m cecplane.cli`` on ``argv``, stdout and stderr as bytes."""
    return subprocess.run([sys.executable, "-m", "cecplane.cli", *map(str, argv)],
                          capture_output=True, env=ENV)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def one_json_line(stderr: bytes) -> dict:
    """The one line of a handled failure, as a dict."""
    lines = stderr.decode().splitlines()
    assert len(lines) == 1, stderr
    payload = json.loads(lines[0])
    assert set(payload) == {"error", "message"}
    return payload


class TestGoldenThroughProcess:
    """The frozen hashes of ``test_golden``, through the process entry."""

    def test_study_tree(self, tmp_path):
        labels, length, seed, options, expected = CASES["study"]
        data = tmp_path / "dataset.csv"
        write_dataset(make_synthetic_dataset(labels, length, seed=seed), data)
        out = tmp_path / "out"
        proc = cli_process("analyze", "--input", data, "--out", out, "--seed", "42",
                           "--plots", "all", *options)
        assert (proc.returncode, proc.stderr) == (0, b"")
        got = {p.name: sha256(p.read_bytes()) for p in sorted(out.iterdir())}
        assert got == expected
        listed = proc.stdout.decode().splitlines()
        assert sorted(listed) == sorted(str(out / name) for name in expected)

    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_generators(self, name, tmp_path):
        argv, expected = GENERATORS[name]
        self.assert_stdout_and_file(argv, expected, tmp_path / name)

    @pytest.mark.parametrize("name", sorted(READ_SIDE))
    def test_read_commands(self, name, tmp_path):
        _read_side_inputs(tmp_path)
        argv = {"rank.csv": ["rank"], "anova.json": ["anova"],
                "anova_w03.json": ["anova", "--baseline", "W03"],
                "spearman.csv": ["spearman", "--metric", tmp_path / "metrics.csv"]}[name]
        argv += ["--input", tmp_path / "windows.csv"]
        self.assert_stdout_and_file(argv, READ_SIDE[name], tmp_path / name)

    @staticmethod
    def assert_stdout_and_file(argv, expected, path):
        """Written to stdout, then to ``path``, the output hashes to ``expected``."""
        to_stdout = cli_process(*argv)
        assert (to_stdout.returncode, to_stdout.stderr) == (0, b"")
        assert sha256(to_stdout.stdout) == expected
        to_file = cli_process(*argv, "--out", path)
        assert (to_file.returncode, to_file.stdout, to_file.stderr) == (0, b"", b"")
        assert sha256(path.read_bytes()) == expected


class TestExits:
    """Each way a command ends, with its exit code and stderr."""

    @pytest.mark.parametrize("argv,code,stderr", [
        (["bounds", "--dim", "3", "--resolution", "20"], 0, b""),
        (["bounds", "--dim", "1"], 1, re.escape(
            b'{"error": "ValueError", "message": "dim must be an integer >= 2, got 1"}\n')),
        (["bounds", "--dim", "x"], 2, rb"usage: cecplane bounds .*\ncecplane bounds: error: "
                                      rb"argument --dim: invalid int value: 'x'\n"),
        (["--version"], 0, b""),
        (["--help"], 0, b""),
    ], ids=["success", "failure", "usage", "version", "help"])
    def test_exit_code_and_stderr(self, capsys, argv, code, stderr):
        """The code and the stderr pattern; both streams are the bytes
        ``main()`` writes in-process."""
        proc = cli_process(*argv)
        assert proc.returncode == code
        assert re.fullmatch(stderr, proc.stderr, re.DOTALL), proc.stderr
        try:
            assert main(argv) == code
        except SystemExit as exc:  # argparse's exits
            assert exc.code == code
        out, err = capsys.readouterr()
        assert (proc.stdout, proc.stderr) == (out.encode(), err.encode())
        if argv == ["--version"]:
            assert proc.stdout == f"cecplane {__version__}\n".encode()

    def test_reader_closes_the_pipe(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "cecplane.cli", "bounds", "--dim", "6",
             "--resolution", "200000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=ENV)
        assert proc.stdout.readline() == b"H,C_lower,C_upper\n"
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 1
        assert one_json_line(stderr)["error"] == "BrokenPipeError"

    def test_pipe_closed_before_the_flush(self):
        """Output held in stdout's buffer meets a pipe with no reader: the
        flush raises, and the normal exit reports it, with CPython's code
        for a failed flush at exit."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "cecplane.cli", "bounds", "--dim", "3",
                                   "--resolution", "5"],
                                  stdout=write_end, stderr=subprocess.PIPE, env=ENV)
        finally:
            os.close(write_end)
        assert proc.returncode == 120
        assert re.fullmatch(rb"Exception ignored in: <_io.TextIOWrapper name='<stdout>'[^\n]*>\n"
                            rb"BrokenPipeError: \[Errno 32\] Broken pipe\n", proc.stderr)

    def test_atexit_callbacks_run_and_print(self):
        probe = ("import atexit, sys\n"
                 "atexit.register(print, 'callback')\n"
                 "from cecplane.cli import _run\n"
                 "sys.argv[1:] = ['--version']\n"
                 "_run()\n")
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, env=ENV)
        assert proc.returncode == 0
        assert (proc.stdout, proc.stderr) == (f"cecplane {__version__}\ncallback\n".encode(),
                                              b"")

    def test_profiler_report_is_written(self):
        proc = subprocess.run([sys.executable, "-m", "cProfile", "-m", "cecplane.cli",
                               "bounds", "--dim", "3", "--resolution", "5"],
                              capture_output=True, env=ENV)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout.startswith(b"H,C_lower,C_upper\n")
        assert b" function calls " in proc.stdout and b"Ordered by: " in proc.stdout


class TestRunBranches:
    """``_run`` ends in ``os._exit`` only when nothing is left to report."""

    @pytest.fixture()
    def ends(self, monkeypatch):
        """What ends the call: ``("_exit", code)`` or ``("exit", code)``;
        ``atexit`` callbacks are counted, not run."""
        calls = []

        def _exit(code):
            calls.append(("_exit", code))
            raise SystemExit("os._exit")

        monkeypatch.setattr(os, "_exit", _exit)
        monkeypatch.setattr(atexit, "_run_exitfuncs", lambda: calls.append(("atexit",)))
        monkeypatch.setattr(cli, "_watched", lambda: False)

        def run(main):
            monkeypatch.setattr(cli, "main", main)
            with pytest.raises(SystemExit) as exc:
                cli._run()
            if exc.value.code != "os._exit":
                calls.append(("exit", exc.value.code))
            return calls
        return run

    def test_code_of_main(self, ends):
        assert ends(lambda: 1) == [("atexit",), ("_exit", 1)]

    def test_code_of_argparse(self, ends):
        def usage():
            raise SystemExit(2)
        assert ends(usage) == [("atexit",), ("_exit", 2)]

    def test_failed_flush_takes_the_normal_exit(self, ends, monkeypatch):
        class Closed:
            def flush(self):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", Closed())
        assert ends(lambda: 0) == [("atexit",), ("exit", 0)]

    def test_watched_takes_the_normal_exit(self, ends, monkeypatch):
        monkeypatch.setattr(cli, "_watched", lambda: True)
        assert ends(lambda: 0) == [("exit", 0)]

    @pytest.mark.parametrize("hook", [sys.settrace, sys.setprofile])
    def test_tracer_or_profiler_is_watching(self, hook):
        old = sys.gettrace() if hook is sys.settrace else sys.getprofile()
        hook(lambda *args: None)
        try:
            watched = cli._watched()
        finally:
            hook(old)
        assert watched


def resource_warnings(argv) -> list:
    """The ``ResourceWarning``s of ``main(argv)``, an unclosed file's or
    pipe's among them, after a full collection."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        main(list(map(str, argv)))
        gc.collect()
    return [w for w in caught if issubclass(w.category, ResourceWarning)]


class TestNoOpenFiles:
    """No command leaves a file or pipe open when ``main`` returns, so that
    ending in ``os._exit`` loses no buffered tail."""

    @pytest.fixture(scope="class")
    def prices(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("open-files")
        data = root / "prices.csv"
        write_dataset(make_synthetic_dataset(["AAA", "BBB", "CCC"], 900, seed=11), data)
        return data

    def test_analyze_with_clouds_from_children(self, prices, tmp_path, capsys):
        argv = ["analyze", "--input", prices, "--out", tmp_path / "run", "--plots", "all",
                "--fbm-hurst", "0.5,0.7", "--sims", "200"]
        with mock.patch.object(_fork, "_cpus", return_value=2), \
                mock.patch.object(os, "fork", wraps=os.fork) as fork:
            assert resource_warnings(argv) == []
        assert fork.call_count == 1  # one cloud child; the 62 kB input is one range

    def test_analyze_two_byte_ranges(self, tmp_path, capsys):
        data = tmp_path / "long.csv"
        write_dataset(make_synthetic_dataset(["AAA", "BBB", "CCC"], 40_000, seed=3), data)
        assert data.stat().st_size >= 2 * dataio._RANGE_FLOOR
        with mock.patch.object(_fork, "_cpus", return_value=2), \
                mock.patch.object(os, "fork", wraps=os.fork) as fork:
            assert resource_warnings(["analyze", "--input", data,
                                      "--out", tmp_path / "run"]) == []
        assert fork.call_count == 1

    def test_every_command(self, prices, tmp_path, capsys):
        out = tmp_path / "run"
        windows = out / "windows.csv"
        metric = tmp_path / "metric.csv"
        metric.write_text("asset,mcap\nAAA,1\nBBB,3\nCCC,2\n")
        broken = tmp_path / "broken.csv"
        broken.write_text("asset,window_index,start_offset,entropy,complexity\n"
                          "AAA,0,0,0.9,0.1\nAAA,1,60,nan,0.1\n")
        commands = [
            ["analyze", "--input", prices, "--out", out, "--window", "360", "--step", "120"],
            ["bounds", "--dim", "3", "--resolution", "20"],
            ["bounds", "--dim", "3", "--resolution", "20", "--out", tmp_path / "b.csv"],
            ["fbm", "--hurst", "0.5,0.7", "--sims", "200"],
            ["rank", "--input", windows, "--out", tmp_path / "rank.csv"],
            ["anova", "--input", windows, "--out", tmp_path / "anova.json"],
            ["spearman", "--input", windows, "--metric", metric],
            ["rank", "--input", broken],  # fails on line 3, its file open
        ]
        with mock.patch.object(_fork, "_cpus", return_value=2):
            for argv in commands:
                assert resource_warnings(argv) == [], argv
        assert "not a finite number" in capsys.readouterr().err.splitlines()[-1]
