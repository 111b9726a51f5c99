"""Running program subprocesses one at a time and counting operations."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path


class CheckFailed(Exception):
    """An output disagrees with the independent computation."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Proc:
    seconds: float
    stdout: str
    stderr: str


class Session:
    """A closed loop of ``cecplane`` subprocesses from one client.

    Commands go through the launcher (see launcher.py).  Each command and
    each check is one operation.  A command fails when it exits nonzero or
    prints a JSON error object on stderr; a check fails when the output it
    inspects is wrong or unreadable.  Peak RSS is read per child from
    ``os.wait4``: ``RUSAGE_CHILDREN`` keeps the maximum over every child
    reaped so far, so one large child would hide all later ones.
    """

    def __init__(self, launcher: subprocess.Popen, src: Path, work: Path):
        self.launcher = launcher
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.peak_rss_mb = 0.0

    def cli(self, *argv) -> Proc:
        return self.run_python("-m", "cecplane.cli", *map(str, argv))

    def run_python(self, *argv: str) -> Proc:
        self.attempted += 1
        out_path, err_path = self.work / "stdout.txt", self.work / "stderr.txt"
        job = {"argv": [sys.executable, *argv], "cwd": str(self.work), "env": self.env,
               "stdout": str(out_path), "stderr": str(err_path)}
        self.launcher.stdin.write(json.dumps(job) + "\n")
        self.launcher.stdin.flush()
        done = json.loads(self.launcher.stdout.readline())
        stdout, stderr = out_path.read_text(), err_path.read_text()
        self.peak_rss_mb = max(self.peak_rss_mb, done["rss_kib"] / 1024.0)
        if done["returncode"] != 0 or any(map(_is_json_error, stderr.splitlines())):
            self.failed += 1
            print(f"command failed ({done['returncode']}): {' '.join(argv)}\n{stderr}",
                  file=sys.stderr)
        return Proc(done["seconds"], stdout, stderr)

    def check(self, name: str, fn, *args) -> None:
        self.attempted += 1
        try:
            fn(*args)
        except Exception as exc:  # any unreadable or wrong output fails the check
            self.failed += 1
            self.wrong += 1
            detail = str(exc) if isinstance(exc, CheckFailed) else traceback.format_exc()
            print(f"check {name} failed: {detail}", file=sys.stderr)


def _is_json_error(line: str) -> bool:
    try:
        record = json.loads(line)
    except ValueError:
        return False
    return isinstance(record, dict) and "error" in record


def start_launcher() -> subprocess.Popen:
    """Start the launcher; call before importing numpy, scipy or the inputs."""
    script = Path(__file__).with_name("launcher.py")
    return subprocess.Popen([sys.executable, "-I", str(script)], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)
