"""End-to-end and per-layer benchmark of the ``cecplane`` command-line tool.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload study --seed 1 --seconds 30 --trace 0

With ``--trace 0`` one client runs ``cecplane`` subprocesses in a closed loop
(the next command starts when the previous one has ended) in whole rounds for
about ``--seconds`` seconds, checks every output, and reports end-to-end
metrics.  With ``--trace 1`` it calls the package's public functions
in-process inside spans and reports per-layer metrics; the spans are written
to ``.bench_out/``.  The last line of stdout is one JSON object.  See
README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

import session

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("study", "fbm-sweep", "long-highdim")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cecplane" / "__init__.py").is_file():
        print(f"no cecplane sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    launcher = session.start_launcher()
    try:
        import harness  # numpy and scipy load only after the launcher has started

        runner = session.Session(launcher, SRC, work)
        if args.trace:
            trace_path = ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.json"
            metrics = harness.per_layer(args, runner, spec, SRC, trace_path)
        else:
            metrics = harness.end_to_end(args, runner, spec)
    finally:
        launcher.stdin.close()
        launcher.wait()
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": runner.wrong == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
