"""The traced run: the workload's calls made in-process, each inside a span.

Pipeline spans wrap the public calls the way ``run_pipeline`` and the CLI
commands make them.  Isolated spans measure on their own what the pipeline
only does inside another layer's call (pattern extraction and ``cecp_point``
inside rolling, ``generate_fbm`` inside a cloud), and probe the layers a
workload's commands never call, at that workload's geometry, so that every
per-layer metric is measured on every workload.  Isolated spans are separate
roots, never children of pipeline spans.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs
import oracle
from session import Session, expect
from workloads import (FBM_DIM, FBM_LENGTH, FBM_SIMS, HURSTS, STUDY, AnalyzeWorkload,
                       FbmSweepWorkload, Geometry)

RESOLUTION = 2000
# Window vectors per round scored by an isolated ``cecp_point`` call.
CECP_SAMPLE = 200
# Paths of the H = 0.5 cloud probed on the analyze workloads.
PROBE_SIMS = 100
IMPORT_PROBES = 2
IMPORT_SNIPPET = ("import time, numpy; t = time.perf_counter(); import cecplane; "
                  "print(time.perf_counter() - t)")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory spans: name, start, end and the index of the parent span."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **counts):
        record = Span(name, time.perf_counter(), float("nan"),
                      self._open[-1] if self._open else None, counts)
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()


def self_seconds(spans: list[Span], offset: int) -> dict[str, float]:
    """Per layer (the name up to its first dot): span time minus child time."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None and span.parent >= offset:
            child[span.parent - offset] += span.seconds
    layers: dict[str, float] = {}
    for span, inner in zip(spans, child):
        layer = span.name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + span.seconds - inner
    return layers


class Traced:
    """One workload's traced rounds, against the package imported in-process."""

    def __init__(self, workload, src: Path, session: Session,
                 probe: AnalyzeWorkload | None = None):
        sys.path.insert(0, str(src))
        import cecplane
        import cecplane.cli
        expect(Path(cecplane.__file__).resolve().is_relative_to(src.resolve()),
               f"imported {cecplane.__file__}, not the package under {src}")
        self.cp = cecplane
        self.cli_main = cecplane.cli.main
        self.workload = workload
        self.probe = probe
        self.session = session
        self.rec = Recorder()
        self.rounds: list[dict] = []

    def round(self) -> dict:
        offset = len(self.rec.spans)
        root = self.workload.work / "round"
        shutil.rmtree(root, ignore_errors=True)
        root.mkdir()
        if isinstance(self.workload, FbmSweepWorkload):
            traced_s, untraced_s = self.fbm_sweep(root)
        else:
            traced_s, untraced_s = self.analyze(self.workload, root)
            self.fbm_probe(self.workload.geo)
        imports = [float(self.session.run_python("-c", IMPORT_SNIPPET).stdout)
                   for _ in range(IMPORT_PROBES)]
        spans = self.rec.spans[offset:]
        record = {"metrics": self.metrics(spans, traced_s, untraced_s, imports),
                  "self_s": self_seconds(spans, offset)}
        self.rounds.append(record)
        return record

    def analyze(self, workload: AnalyzeWorkload, root: Path) -> tuple[float, float]:
        """Replay ``analyze`` and the downstream commands, check what they
        wrote, and return the traced and untraced seconds of the
        ``run_pipeline`` stages."""
        cp, rec, geo = self.cp, self.rec, workload.geo
        ordinal = cp.OrdinalConfig(geo.dim, 1)
        window = cp.WindowParams(geo.window, geo.step)
        config = cp.RunConfig(ordinal=ordinal, window=window, log_returns=geo.log_returns)
        with rec.span("dataio.load_dataset", cells=geo.rows * (1 + len(geo.assets))):
            dataset = cp.load_dataset(workload.prices_csv)
        assets = list(dataset.assets)
        series, rolling = {}, {}
        # Alternate which side runs first, so that warm-up favours neither.
        untraced_first = len(self.rounds) % 2 == 1
        if untraced_first:
            bundle, untraced_s = _timed(cp.run_pipeline, config, dataset)
        with rec.span("dataio.run_pipeline") as pipeline:
            for asset in assets:
                one = dataset.series[asset]
                if geo.log_returns:
                    with rec.span("dataio.log_return_series"):
                        one = cp.log_return_series(one)
                series[asset] = one
                with rec.span("rolling.rolling_quantifiers", windows=geo.windows_per_asset()):
                    rolling[asset] = cp.rolling_quantifiers(one, window, ordinal, asset=asset)
            with rec.span("stats.summarize"):
                summaries = [cp.summarize(rolling[a]) for a in assets]
            with rec.span("stats.rank_assets"):
                cp.rank_assets(summaries)
            with rec.span("stats.anova"):
                cp.one_way_anova([(a, rolling[a].entropies.tolist()) for a in assets])
                cp.one_way_anova([(a, rolling[a].complexities.tolist()) for a in assets])
                cp.pairwise_anova_vs_baseline(rolling, assets[0])
            with rec.span("bounds.curves"):
                cp.lower_bound_curve(geo.states, RESOLUTION)
                cp.upper_bound_curve(geo.states, RESOLUTION)
        if not untraced_first:
            bundle, untraced_s = _timed(cp.run_pipeline, config, dataset)
        self.session.check("replay-matches-pipeline", lambda: expect(
            list(bundle.summaries.values()) == summaries,
            "replayed stages give other summaries than run_pipeline"))

        out = root / "out"
        with rec.span("dataio.write_bundle") as write:
            written = cp.write_bundle(bundle, out)
        # Workloads whose command emits no plot data get it as a probe.
        with rec.span("dataio.emit_plot_data") as emit:
            plots = [cp.emit_plot_data(bundle, kind, out) for kind in cp.dataio.PLOT_KINDS]
        write.counts["bytes"] = sum(p.stat().st_size for p in written)
        emit.counts["bytes"] = sum(p.stat().st_size for p in plots)

        windows = out / "windows.csv"
        for name, argv in (
            ("rank", ["rank", "--input", windows, "--out", root / "rank.csv"]),
            ("anova", ["anova", "--input", windows, "--out", root / "anova.json"]),
            ("spearman", ["spearman", "--input", windows, "--metric", workload.metrics_csv,
                          "--out", root / "spearman.csv"]),
        ):
            self.session.attempted += 1
            with contextlib.redirect_stdout(io.StringIO()), rec.span(f"cli.{name}"):
                code = self.cli_main([str(a) for a in argv])
            if code != 0:
                self.session.failed += 1
        workload.run_checks(self.session, root, "\n".join(bundle.warnings))

        # Isolated: extraction over each full series, one cecp_point call per
        # sampled window vector as rolling makes it, and spearman_rho alone.
        for one in series.values():
            with rec.span("patterns.extract", windows=ordinal.windows_in(len(one))):
                cp.extract_pattern_distribution(one, ordinal)
        rng = np.random.default_rng((self.workload.seed, len(self.rounds)))
        for a, k in zip(rng.integers(len(assets), size=CECP_SAMPLE),
                        rng.integers(geo.windows_per_asset(), size=CECP_SAMPLE)):
            start = int(k) * geo.step
            counts = oracle.pattern_counts(series[assets[a]].values[start:start + geo.window],
                                           geo.dim)
            probs = np.zeros(geo.states)
            probs[:counts.size] = counts / counts.sum()
            with rec.span("quantifiers.cecp_point"):
                cp.cecp_point(probs)
        distances = [cp.efficiency_distance(s) for s in summaries]
        for values in workload.metrics.values():
            with rec.span("stats.spearman"):
                cp.spearman_rho(distances, [values[a] for a in assets])
        return pipeline.seconds, untraced_s

    def fbm_probe(self, geo: Geometry) -> None:
        """An H = 0.5 cloud at the window length: what ``--fbm-hurst 0.5``
        would add to this geometry."""
        cp, rec, seed = self.cp, self.rec, self.workload.seed
        for child in np.random.SeedSequence(seed).generate_state(PROBE_SIMS, dtype=np.uint64):
            with rec.span("fbm.generate_fbm"):
                cp.generate_fbm(cp.FbmSpec(0.5, geo.window, int(child)))
        with rec.span("fbm.baseline_cloud", paths=PROBE_SIMS):
            cp.baseline_cloud(0.5, PROBE_SIMS, geo.window, cp.OrdinalConfig(geo.dim, 1), seed)

    def fbm_sweep(self, root: Path) -> tuple[float, float]:
        cp, rec, seed = self.cp, self.rec, self.workload.seed
        ordinal = cp.OrdinalConfig(FBM_DIM, 1)

        def clouds():
            return [cp.baseline_cloud(h, FBM_SIMS, FBM_LENGTH, ordinal, seed) for h in HURSTS]

        def traced_clouds():
            traced = []
            for hurst in HURSTS:
                with rec.span("fbm.baseline_cloud", paths=FBM_SIMS):
                    traced.append(cp.baseline_cloud(hurst, FBM_SIMS, FBM_LENGTH, ordinal, seed))
            return traced

        # Alternate which side runs first, so that warm-up favours neither.
        sides = [(traced_clouds, "traced"), (clouds, "untraced")]
        if len(self.rounds) % 2 == 1:
            sides.reverse()
        results = {name: _timed(fn) for fn, name in sides}
        traced, traced_s = results["traced"]
        untraced, untraced_s = results["untraced"]
        self.session.check("replay-matches-pipeline", lambda: expect(
            traced == untraced, "traced clouds differ from untraced ones"))
        with rec.span("bounds.curves"):
            cp.lower_bound_curve(ordinal.num_patterns, RESOLUTION)
            cp.upper_bound_curve(ordinal.num_patterns, RESOLUTION)

        # Isolated: the three calls each cloud path makes.
        children = np.random.SeedSequence(seed).generate_state(FBM_SIMS, dtype=np.uint64)
        for hurst in HURSTS:
            for child in children:
                with rec.span("fbm.generate_fbm"):
                    path = cp.generate_fbm(cp.FbmSpec(hurst, FBM_LENGTH, int(child)))
                with rec.span("patterns.extract", windows=ordinal.windows_in(FBM_LENGTH)):
                    dist = cp.extract_pattern_distribution(path, ordinal)
                with rec.span("quantifiers.cecp_point"):
                    cp.cecp_point(dist)

        # Probe: the asset layers this workload never calls, on H = 0.5 fBm
        # paths (plain random walks) at the sweep's dim and length as window.
        self.analyze(self.probe, root)
        return traced_s, untraced_s

    @staticmethod
    def metrics(spans: list[Span], traced_s: float, untraced_s: float,
                imports: list[float]) -> dict[str, float]:
        def total(name: str) -> float:
            return sum(s.seconds for s in spans if s.name == name)

        def count(name: str, key: str) -> int:
            return sum(s.counts.get(key, 0) for s in spans if s.name == name)

        def per_call_us(name: str) -> float:
            return 1e6 * statistics.median(s.seconds for s in spans if s.name == name)

        windows = count("rolling.rolling_quantifiers", "windows")
        cecp_calls = sum(1 for s in spans if s.name == "quantifiers.cecp_point")
        return {
            "dataio.load_dataset_s": total("dataio.load_dataset"),
            "dataio.cells": count("dataio.load_dataset", "cells"),
            "dataio.write_bundle_s": total("dataio.write_bundle"),
            "dataio.emit_plot_data_s": total("dataio.emit_plot_data"),
            "dataio.bytes_written": (count("dataio.write_bundle", "bytes")
                                     + count("dataio.emit_plot_data", "bytes")),
            "patterns.extract_s": total("patterns.extract"),
            "patterns.windows_encoded": count("patterns.extract", "windows"),
            "quantifiers.cecp_point_us": per_call_us("quantifiers.cecp_point"),
            "quantifiers.calls": (windows + count("fbm.baseline_cloud", "paths")
                                  + cecp_calls),
            "rolling.rolling_quantifiers_s": total("rolling.rolling_quantifiers"),
            "rolling.windows": windows,
            "rolling.us_per_window": 1e6 * total("rolling.rolling_quantifiers") / windows,
            "stats.summarize_s": total("stats.summarize"),
            "stats.rank_assets_s": total("stats.rank_assets"),
            "stats.anova_s": total("stats.anova"),
            "stats.spearman_s": total("stats.spearman"),
            "bounds.curves_s": total("bounds.curves"),
            "fbm.generate_fbm_us": per_call_us("fbm.generate_fbm"),
            "fbm.baseline_cloud_s": total("fbm.baseline_cloud"),
            "fbm.paths": count("fbm.baseline_cloud", "paths"),
            "cli.rank_s": total("cli.rank"),
            "cli.anova_s": total("cli.anova"),
            "cli.spearman_s": total("cli.spearman"),
            "cecplane.import_s": statistics.median(imports),
            "trace.overhead_pct": 100.0 * (traced_s - untraced_s) / untraced_s,
            "trace.spans": len(spans),
        }

    def dump(self, path: Path, workload: str, seed: int, origin: float) -> None:
        """Write every span of the run, times relative to the run's start."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "workload": workload,
            "seed": seed,
            "fields": ["name", "start_s", "end_s", "parent", "counts"],
            "spans": [[s.name, s.start - origin, s.end - origin, s.parent, s.counts]
                      for s in self.rec.spans],
            "rounds": self.rounds,
        }
        path.write_text(json.dumps(payload) + "\n")


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def fbm_probe_workload(work: Path, seed: int) -> AnalyzeWorkload:
    """Four H = 0.5 fBm paths (random walks) as an asset panel."""
    geo = Geometry(STUDY.assets[:4], STUDY.rows, FBM_DIM, FBM_LENGTH, STUDY.step,
                   log_returns=False, plots=True)
    work.mkdir()
    return AnalyzeWorkload(geo, work, seed, prices=inputs.random_walks(4, geo.rows, seed).T)
