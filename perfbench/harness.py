"""Rounds, metrics and the two kinds of run: end-to-end and traced."""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

import tracing
import workloads
from calibration import REFERENCE_S, calibrate
from session import Session


def units(spec: dict, kind: str) -> dict[str, str]:
    """Metric name to unit, for ``end_to_end`` or ``per_layer`` of BENCHMARK.json."""
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def make_workload(name: str, work: Path, seed: int):
    if name == "fbm-sweep":
        return workloads.FbmSweepWorkload(work, seed)
    geometry = workloads.STUDY if name == "study" else workloads.LONG_HIGHDIM
    return workloads.AnalyzeWorkload(geometry, work, seed)


def closed_loop(step, seconds: float) -> list:
    """Whole rounds until the next one would end after ``seconds``."""
    start = time.perf_counter()
    results = []
    while True:
        begun = time.perf_counter()
        results.append(step())
        now = time.perf_counter()
        if now + (now - begun) - start > seconds:
            return results


def end_to_end(args, runner: Session, spec: dict) -> dict:
    workload = make_workload(args.workload, runner.work, args.seed)
    calibrate()  # warm-up, not used
    rounds = closed_loop(lambda: workload.round(runner), args.seconds)
    # Each timed group is scaled by the calibration runs on either side of
    # it: see "Statistics" in README.md.
    values = {
        "setup_s": statistics.median(
            REFERENCE_S * t / _mean(r["calibration"][0:2]) for r in rounds for t in r["setup"]),
        "run_s": _scaled(rounds, "run", 1),
        "downstream_s": _scaled(rounds, "downstream", 2),
        "peak_rss_mb": runner.peak_rss_mb,
    }
    print(f"{args.workload}: {len(rounds)} rounds {json.dumps(rounds)}", file=sys.stderr)
    return {name: {"value": values[name], "unit": unit}
            for name, unit in units(spec, "end_to_end").items()}


def _mean(values) -> float:
    return sum(values) / len(values)


def _scaled(rounds: list, key: str, before: int) -> float:
    """Summed wall time of ``key`` over the run, at the reference speed.

    ``before`` indexes the calibration run just before the group; the one
    just after it follows.
    """
    wall = sum(r[key] for r in rounds)
    cal = sum(_mean(r["calibration"][before:before + 2]) for r in rounds)
    return REFERENCE_S * wall / cal


def per_layer(args, runner: Session, spec: dict, src: Path, trace_path: Path) -> dict:
    workload = make_workload(args.workload, runner.work, args.seed)
    probe = (tracing.fbm_probe_workload(runner.work / "probe", args.seed)
             if args.workload == "fbm-sweep" else None)
    traced = tracing.Traced(workload, src, runner, probe)
    origin = time.perf_counter()
    rounds = closed_loop(traced.round, args.seconds)
    traced.dump(trace_path, args.workload, args.seed, origin)
    print(f"{args.workload}: {len(rounds)} traced rounds", file=sys.stderr)
    return {
        name: {"value": statistics.median(r["metrics"][name] for r in rounds), "unit": unit}
        for name, unit in units(spec, "per_layer").items()
    }
