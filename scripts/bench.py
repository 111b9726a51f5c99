#!/usr/bin/env python3
"""Compare two commits on perfbench's end-to-end metrics; write a BENCH file.

Usage, from the root of the git checkout::

    python3 scripts/bench.py --base <parent commit> --head HEAD --out BENCH_<n>.json

Each commit is extracted with ``git archive`` into its own temporary
directory, so the working tree is never touched.  For every workload and
every seed of the fixed list, the commit's own ``perfbench/run.py --trace 0``
runs once on each side, for the ``run_seconds`` that ``BENCHMARK.json``
fixes, and the side that runs first alternates from seed to seed.  The JSON file holds, per workload and commit:

- the median and quartiles over the seeds of each end-to-end metric
  (``setup_s``, ``run_s``, ``downstream_s``, ``peak_rss_mb``), which
  perfbench scales to a reference host speed;
- the same statistics of the raw wall medians read from perfbench's stderr:
  per run, the median ``cecplane --version`` probe, main command and summed
  downstream commands over its rounds;
- every run's values, its operation counts, and in how many seeds the head
  commit read lower than the base;

and the environment: Python, numpy, ``nproc``, ``PYTHONDONTWRITEBYTECODE``
and both commits.  Quartiles are ``statistics.quantiles(values, n=4)``.

Before the workloads, the ``imports`` key records what importing the package
costs where no bytecode cache exists: in each freshly extracted tree, the
seconds of ``import cecplane.dataio`` after ``import numpy``, in
``IMPORT_RUNS`` fresh processes per commit with ``PYTHONDONTWRITEBYTECODE=1``
(so no ``__pycache__`` is written), the side that runs first alternating.
It holds each commit's median and quartiles, every value, and in how many
pairs the head commit read lower.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("study", "fbm-sweep", "long-highdim")
SEEDS = tuple(range(1201, 1211))
METRICS = ("setup_s", "run_s", "downstream_s", "peak_rss_mb")
RAW = ("setup_s", "run_s", "downstream_s")
IMPORT_RUNS = 20
IMPORT_SNIPPET = ("import time, numpy; t = time.perf_counter(); import cecplane.dataio; "
                  "print(time.perf_counter() - t)")


def git(*argv: str) -> str:
    return subprocess.run(["git", *argv], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def extract(commit: str, into: Path) -> None:
    """The files of ``commit`` under ``into``."""
    archive = into / "tree.tar"
    subprocess.run(["git", "archive", "--output", str(archive), commit], cwd=ROOT,
                   check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(into, filter="data")
    archive.unlink()


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py --trace 0`` run: its metrics, its counts, and
    the raw per-run wall medians from the rounds it printed to stderr."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree.name} {workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    prefix = f"{workload}: "
    line = next(l for l in proc.stderr.splitlines() if l.startswith(prefix) and " rounds " in l)
    rounds = json.loads(line.split(" rounds ", 1)[1])
    raw = {"setup_s": statistics.median(t for r in rounds for t in r["setup"]),
           "run_s": statistics.median(r["run"] for r in rounds),
           "downstream_s": statistics.median(r["downstream"] for r in rounds)}
    return {"seed": seed, "rounds": len(rounds), "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {name: result["metrics"][name]["value"] for name in METRICS},
            "raw_wall_median": raw}


def import_seconds(tree: Path) -> float:
    """Seconds of ``import cecplane.dataio`` from ``tree``, after numpy, in
    a fresh process that writes no bytecode."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    return float(subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], cwd=tree, env=env,
                                check=True, capture_output=True, text=True).stdout)


def imports(trees: dict[str, Path]) -> dict:
    """``IMPORT_RUNS`` alternating import timings per side, summarized."""
    times: dict[str, list[float]] = {"base": [], "head": []}
    for k in range(IMPORT_RUNS):
        for side in ("base", "head") if k % 2 == 0 else ("head", "base"):
            times[side].append(import_seconds(trees[side]))
    return {**{side: {**spread(values), "runs": values} for side, values in times.items()},
            "head_lower_in": sum(h < b for b, h in zip(times["base"], times["head"]))}


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summary(runs: list[dict]) -> dict:
    return {
        "metrics": {name: spread([r["metrics"][name] for r in runs]) for name in METRICS},
        "raw_wall_median": {name: spread([r["raw_wall_median"][name] for r in runs])
                            for name in RAW},
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "runs": runs,
    }


def environment(base: str, head: str) -> dict:
    import numpy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
            "base": base, "head": head}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="the parent commit")
    parser.add_argument("--head", default="HEAD", help="the commit of the change")
    parser.add_argument("--out", required=True, help="BENCH JSON file to write")
    args = parser.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    commits = {"base": git("rev-parse", args.base), "head": git("rev-parse", args.head)}
    report = {"environment": environment(commits["base"], commits["head"]),
              "seconds": seconds, "seeds": list(SEEDS), "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="cecplane-bench-") as tmp:
        trees = {}
        for side, commit in commits.items():
            trees[side] = Path(tmp) / side
            trees[side].mkdir()
            extract(commit, trees[side])
        report["imports"] = imports(trees)
        print(f"imports: {json.dumps({s: report['imports'][s]['median'] for s in trees})}",
              file=sys.stderr)
        for workload in WORKLOADS:
            runs: dict[str, list[dict]] = {"base": [], "head": []}
            for k, seed in enumerate(SEEDS):
                for side in ("base", "head") if k % 2 == 0 else ("head", "base"):
                    runs[side].append(run_once(trees[side], workload, seed, seconds))
                    print(f"{workload} seed {seed} {side}: "
                          f"{json.dumps(runs[side][-1]['metrics'])}", file=sys.stderr)
            report["workloads"][workload] = {
                side: summary(side_runs) for side, side_runs in runs.items()}
            report["workloads"][workload]["head_lower_in"] = {
                name: sum(h["metrics"][name] < b["metrics"][name]
                          for b, h in zip(runs["base"], runs["head"]))
                for name in METRICS}
            Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
