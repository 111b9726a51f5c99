"""The three workloads: their inputs, one round of commands, and its checks.

A round is the same fixed list of commands and checks every time, so the
share of failed operations does not depend on how many rounds fit in a run.
It times the calibration job (calibration.py) before the setup probes and
after each timed group of commands, so each group has one just before and
one just after it; checks run after the last one.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import inputs
import oracle
from calibration import calibrate
from session import Session, expect

# Setup probes (``cecplane --version``) per round; setup_s is the median of
# their scaled times.
SETUP_PER_ROUND = 2
# Windows per round whose (H, C) are recomputed from the raw input.
ORACLE_WINDOWS = 16
# The H = 0.5 cloud must sit within this many standard errors of the
# random-walk cloud (both sides carry sampling error).
CLOUD_SIGMAS = 5.0
# Slack for "inside the envelope", as in the program's own containment test.
ENVELOPE_TOL = 1e-9


@dataclass(frozen=True)
class Geometry:
    assets: tuple[str, ...]
    rows: int
    dim: int
    window: int
    step: int
    log_returns: bool
    plots: bool

    @property
    def states(self) -> int:
        return math.factorial(self.dim)

    def windows_per_asset(self) -> int:
        n = self.rows - 1 if self.log_returns else self.rows
        return (n - self.window) // self.step + 1

    def analyze_argv(self, prices: Path, out: Path) -> list:
        argv = ["analyze", "--input", prices, "--out", out, "--dim", self.dim,
                "--tau", 1, "--window", self.window, "--step", self.step]
        if self.log_returns:
            argv.append("--log-returns")
        if self.plots:
            argv += ["--plots", "all"]
        return argv


STUDY = Geometry(inputs.STUDY_ASSETS, 16_031, 4, 360, 60, log_returns=False, plots=True)
LONG_HIGHDIM = Geometry(inputs.STUDY_ASSETS[:4], 250_000, 6, 3600, 600,
                        log_returns=True, plots=False)
HURSTS = (0.5, 0.6, 0.7, 0.8, 0.9)
FBM_SIMS, FBM_LENGTH, FBM_DIM = 500, 360, 4


def read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    expect(len(rows) >= 2, f"{path.name}: no data rows")
    return rows[0], rows[1:]


def columns(path: Path) -> dict[str, list[str]]:
    header, rows = read_table(path)
    return {name: [row[i] for row in rows] for i, name in enumerate(header)}


def check_envelope(path: Path, states: int, rng: np.random.Generator) -> np.ndarray:
    """Endpoints at C = 0, lower <= upper, and sampled points recomputed."""
    table = np.array(read_table(path)[1], dtype=np.float64)
    h, lo, hi = table.T
    expect(h[0] == 0.0 and h[-1] == 1.0 and (np.diff(h) > 0).all(),
           "entropy grid is not increasing over [0, 1]")
    expect(np.abs(table[[0, -1], 1:]).max() < 1e-9, "envelope endpoints are not at C = 0")
    expect((lo <= hi).all(), "lower curve above upper curve")
    for i in rng.choice(h.size, 16, replace=False):
        expect(oracle.close(lo[i], oracle.lower_bound(h[i], states), abs_=1e-12),
               f"lower curve at H={h[i]!r}: {lo[i]!r}")
        expect(oracle.close(hi[i], oracle.upper_bound(h[i], states), abs_=1e-12),
               f"upper curve at H={h[i]!r}: {hi[i]!r}")
    return table


def inside_envelope(h: np.ndarray, c: np.ndarray, envelope: np.ndarray) -> None:
    lo = np.interp(h, envelope[:, 0], envelope[:, 1])
    hi = np.interp(h, envelope[:, 0], envelope[:, 2])
    outside = int(((c < lo - ENVELOPE_TOL) | (c > hi + ENVELOPE_TOL)).sum())
    expect(outside == 0, f"{outside} points outside the envelope")


class AnalyzeWorkload:
    """``analyze`` on a generated price panel, then rank / anova / spearman."""

    def __init__(self, geometry: Geometry, work: Path, seed: int,
                 prices: np.ndarray | None = None):
        self.geo = geometry
        self.work = work
        self.seed = seed
        self.prices_csv = work / "prices.csv"
        self.metrics_csv = work / "metrics.csv"
        if prices is None:
            prices = inputs.price_matrix(len(geometry.assets), geometry.rows, seed)
        inputs.write_prices(self.prices_csv, geometry.assets, prices)
        self.metrics = inputs.write_metrics(self.metrics_csv, geometry.assets, seed)
        stamps = inputs.FIRST_TIMESTAMP + inputs.SPACING_S * np.arange(geometry.rows)
        if geometry.log_returns:
            prices, stamps = np.diff(np.log(prices), axis=0), stamps[1:]
        self.series = prices
        self.stamps = stamps
        self.rng = np.random.default_rng(np.random.SeedSequence((seed, 30_000)))

    def round(self, session: Session) -> dict:
        root = self.work / "round"
        shutil.rmtree(root, ignore_errors=True)
        root.mkdir()
        out = root / "out"
        cal = [calibrate()]
        setup = [session.cli("--version").seconds for _ in range(SETUP_PER_ROUND)]
        cal.append(calibrate())
        main = session.cli(*self.geo.analyze_argv(self.prices_csv, out))
        cal.append(calibrate())
        windows = out / "windows.csv"
        down = [
            session.cli("rank", "--input", windows, "--out", root / "rank.csv"),
            session.cli("anova", "--input", windows, "--out", root / "anova.json"),
            session.cli("spearman", "--input", windows, "--metric", self.metrics_csv,
                        "--out", root / "spearman.csv"),
        ]
        cal.append(calibrate())
        self.run_checks(session, root, main.stderr)
        return {"setup": setup, "run": main.seconds,
                "downstream": sum(p.seconds for p in down), "calibration": cal}

    def run_checks(self, session: Session, root: Path, stderr: str) -> None:
        out = root / "out"
        state: dict = {}
        session.check("windows-layout", self.check_layout, out, state)
        session.check("windows-range", self.check_range, state)
        session.check("windows-oracle", self.check_oracle, state)
        session.check("envelope", self.check_envelope, out, state)
        session.check("envelope-containment", self.check_containment, state)
        session.check("summaries", self.check_summaries, out, state)
        session.check("ranking", self.check_ranking, out, root)
        session.check("anova-tables", self.check_anova_tables, out, state)
        session.check("anova-cli", self.check_anova_cli, root, state)
        session.check("spearman-cli", self.check_spearman, root, state)
        session.check("manifest", self.check_manifest, out)
        session.check("undersampling-warning", self.check_warning, stderr)
        if self.geo.plots:
            session.check("plot-data", self.check_plots, out, state)

    def check_layout(self, out: Path, state: dict) -> None:
        cols = columns(out / "windows.csv")
        n = self.geo.windows_per_asset()
        expect(cols["asset"] == [a for a in self.geo.assets for _ in range(n)],
               "windows.csv: assets or window counts differ")
        k = np.tile(np.arange(n), len(self.geo.assets))
        expect((np.array(cols["window_index"], dtype=np.int64) == k).all(), "window_index")
        starts = k * self.geo.step
        expect((np.array(cols["start_offset"], dtype=np.int64) == starts).all(), "start_offset")
        ends = np.array(cols["end_timestamp"], dtype=np.float64)
        expect((ends == self.stamps[starts + self.geo.window - 1]).all(), "end_timestamp")
        shape = (len(self.geo.assets), n)
        state["h"] = np.array(cols["entropy"], dtype=np.float64).reshape(shape)
        state["c"] = np.array(cols["complexity"], dtype=np.float64).reshape(shape)

    def check_range(self, state: dict) -> None:
        h, c = state["h"], state["c"]
        expect(((h >= 0) & (h <= 1)).all(), f"H outside [0, 1]: {h.min()!r}..{h.max()!r}")
        expect((c >= 0).all(), f"negative C: {c.min()!r}")

    def check_oracle(self, state: dict) -> None:
        n = state["h"].shape[1]
        for flat in self.rng.choice(state["h"].size, ORACLE_WINDOWS, replace=False):
            a, k = divmod(int(flat), n)
            start = k * self.geo.step
            values = self.series[start:start + self.geo.window, a]
            h, c = oracle.plane_point(oracle.pattern_counts(values, self.geo.dim),
                                      self.geo.states)
            expect(oracle.close(state["h"][a, k], h) and oracle.close(state["c"][a, k], c),
                   f"{self.geo.assets[a]} window {k}: program "
                   f"({state['h'][a, k]!r}, {state['c'][a, k]!r}) vs ({h!r}, {c!r})")

    def check_envelope(self, out: Path, state: dict) -> None:
        state["envelope"] = check_envelope(out / "bounds.csv", self.geo.states, self.rng)

    def check_containment(self, state: dict) -> None:
        inside_envelope(state["h"].ravel(), state["c"].ravel(), state["envelope"])

    def check_summaries(self, out: Path, state: dict) -> None:
        cols = columns(out / "summaries.csv")
        expect(cols["asset"] == list(self.geo.assets), "summaries.csv assets")
        n = state["h"].shape[1]
        for name, values, fn in (
            ("mean_entropy", state["h"], np.mean), ("mean_complexity", state["c"], np.mean),
            ("std_entropy", state["h"], lambda v: np.std(v, ddof=1)),
            ("std_complexity", state["c"], lambda v: np.std(v, ddof=1)),
        ):
            got = np.array(cols[name], dtype=np.float64)
            want = np.array([fn(row) for row in values])
            expect(np.allclose(got, want, rtol=1e-10, atol=0), f"summaries.csv {name}")
        expect(cols["window_count"] == [str(n)] * len(self.geo.assets), "window_count")

    def check_ranking(self, out: Path, root: Path) -> None:
        cols = columns(out / "summaries.csv")
        distance = {a: math.hypot(1.0 - float(h), float(c)) for a, h, c in
                    zip(cols["asset"], cols["mean_entropy"], cols["mean_complexity"])}
        want = sorted(distance, key=distance.get)
        for path in (out / "ranking.csv", root / "rank.csv"):
            got = columns(path)
            expect(got["asset"] == want, f"{path.name}: order {got['asset']} vs {want}")
            expect(got["rank"] == [str(i + 1) for i in range(len(want))], f"{path.name}: ranks")
            for asset, value in zip(got["asset"], got["distance"]):
                expect(oracle.close(float(value), distance[asset], rel=1e-12),
                       f"{path.name}: distance of {asset}")

    def _groups(self, state: dict, metric: str) -> dict[str, np.ndarray]:
        values = state["h"] if metric == "entropy" else state["c"]
        return dict(zip(self.geo.assets, values))

    def _expect_anova(self, where: str, groups, f_stat: float, p_value: float) -> None:
        f_ref, p_ref = oracle.f_oneway(groups)
        expect(oracle.close(f_stat, f_ref, rel=1e-8), f"{where}: F {f_stat!r} vs {f_ref!r}")
        expect(oracle.close(p_value, p_ref, rel=1e-6, abs_=1e-12),
               f"{where}: p {p_value!r} vs {p_ref!r}")

    def check_anova_tables(self, out: Path, state: dict) -> None:
        header, rows = read_table(out / "anova.csv")
        expect([r[0] for r in rows] == ["entropy", "complexity"], "anova.csv metrics")
        at = {name: i for i, name in enumerate(header)}
        for row in rows:
            groups = self._groups(state, row[0])
            self._expect_anova(f"anova.csv {row[0]}", list(groups.values()),
                               float(row[at["f_stat"]]), float(row[at["p_value"]]))
            ss = [float(row[at[k]]) for k in ("ss_between", "ss_within", "ss_total")]
            expect(oracle.close(ss[0] + ss[1], ss[2], rel=1e-9), "SS between + within != total")
            expect(row[at["caveat"]] == "overlapping-windows", "overlap caveat missing")
        self._check_pairwise(columns(out / "pairwise_anova.csv"), state, self.geo.assets[0])

    def _check_pairwise(self, cols: dict, state: dict, baseline: str) -> None:
        others = sorted(a for a in self.geo.assets if a != baseline)
        expect(cols["asset"] == [a for a in others for _ in range(2)], "pairwise assets")
        for i, (asset, metric) in enumerate(zip(cols["asset"], cols["metric"])):
            groups = self._groups(state, metric)
            where = f"pairwise {asset} vs {baseline} {metric}"
            expect(cols["baseline"][i] == baseline, f"{where}: baseline")
            self._expect_anova(where, [groups[asset], groups[baseline]],
                               float(cols["f_stat"][i]), float(cols["p_value"][i]))
            diff = groups[asset].mean() - groups[baseline].mean()
            expect(oracle.close(float(cols["mean_diff"][i]), diff, rel=1e-9, abs_=1e-14),
                   f"{where}: mean_diff")

    def check_anova_cli(self, root: Path, state: dict) -> None:
        payload = json.loads((root / "anova.json").read_text())
        for metric in ("entropy", "complexity"):
            self._expect_anova(f"anova {metric}", list(self._groups(state, metric).values()),
                               payload[metric]["f_stat"], payload[metric]["p_value"])
        pairwise = payload["pairwise"]
        cols = {key: [row[key] for row in pairwise]
                for key in ("asset", "baseline", "metric", "mean_diff", "f_stat", "p_value")}
        self._check_pairwise(cols, state, min(self.geo.assets))

    def check_spearman(self, root: Path, state: dict) -> None:
        distance = np.hypot(1.0 - state["h"].mean(axis=1), state["c"].mean(axis=1))
        cols = columns(root / "spearman.csv")
        expect(cols["metric"] == list(self.metrics), f"spearman metrics {cols['metric']}")
        for i, name in enumerate(cols["metric"]):
            rho, p = oracle.spearman(distance, [self.metrics[name][a] for a in self.geo.assets])
            expect(oracle.close(float(cols["rho"][i]), rho, rel=1e-9, abs_=1e-12),
                   f"spearman {name}: rho {cols['rho'][i]} vs {rho!r}")
            expect(oracle.close(float(cols["p_value"][i]), p, rel=1e-6, abs_=1e-12),
                   f"spearman {name}: p {cols['p_value'][i]} vs {p!r}")
            expect(cols["n"][i] == str(len(self.geo.assets)), f"spearman {name}: n")

    def check_manifest(self, out: Path) -> None:
        manifest = json.loads((out / "manifest.json").read_text())
        expect(manifest["input_digest"] == _sha256(self.prices_csv), "input_digest")
        expect("windows.csv" in manifest["files"], "manifest omits windows.csv")
        for name, digest in manifest["files"].items():
            expect(_sha256(out / name) == digest, f"manifest sha256 of {name}")

    def check_warning(self, stderr: str) -> None:
        per_window = self.geo.window - (self.geo.dim - 1)
        undersampled = per_window < 5 * self.geo.states
        expect(("undersampled" in stderr) == undersampled,
               f"undersampling warning {'missing' if undersampled else 'spurious'}")

    def check_plots(self, out: Path, state: dict) -> None:
        h, c = state["h"].ravel(), state["c"].ravel()
        scatter = columns(out / "plot_cecp_scatter.csv")
        expect((np.array(scatter["entropy"], dtype=np.float64) == h).all()
               and (np.array(scatter["complexity"], dtype=np.float64) == c).all(),
               "plot_cecp_scatter.csv differs from windows.csv")
        evolution = columns(out / "plot_entropy_evolution.csv")
        expect((np.array(evolution["entropy"], dtype=np.float64) == h).all(),
               "plot_entropy_evolution.csv differs from windows.csv")
        means, summaries = columns(out / "plot_cecp_means.csv"), columns(out / "summaries.csv")
        expect(means["mean_H"] == summaries["mean_entropy"]
               and means["mean_C"] == summaries["mean_complexity"],
               "plot_cecp_means.csv differs from summaries.csv")
        intervals = columns(out / "plot_anova_intervals.csv")
        pairwise = columns(out / "pairwise_anova.csv")
        expect(intervals["mean_diff"] == pairwise["mean_diff"]
               and intervals["significant_1pct"] == pairwise["significant_1pct"],
               "plot_anova_intervals.csv differs from pairwise_anova.csv")


class FbmSweepWorkload:
    """``fbm`` over five Hurst exponents, then ``bounds`` for the envelope."""

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        walks = inputs.random_walks(FBM_SIMS, FBM_LENGTH, seed)
        self.reference = oracle.batch_points(walks, FBM_DIM)
        self.rng = np.random.default_rng(np.random.SeedSequence((seed, 30_000)))

    def round(self, session: Session) -> dict:
        table, envelope = self.work / "fbm.csv", self.work / "bounds.csv"
        table.unlink(missing_ok=True)
        envelope.unlink(missing_ok=True)
        cal = [calibrate()]
        setup = [session.cli("--version").seconds for _ in range(SETUP_PER_ROUND)]
        cal.append(calibrate())
        main = session.cli("fbm", "--hurst", ",".join(map(str, HURSTS)),
                           "--sims", FBM_SIMS, "--length", FBM_LENGTH, "--dim", FBM_DIM,
                           "--seed", self.seed, "--out", table)
        cal.append(calibrate())
        down = session.cli("bounds", "--dim", FBM_DIM, "--out", envelope)
        cal.append(calibrate())
        state: dict = {}
        session.check("fbm-table", self.check_table, table, state)
        session.check("fbm-monotone", self.check_monotone, state)
        session.check("fbm-reference", self.check_reference, state)
        session.check("envelope", self.check_envelope, envelope, state)
        session.check("envelope-containment", self.check_containment, state)
        return {"setup": setup, "run": main.seconds, "downstream": down.seconds,
                "calibration": cal}

    def check_table(self, table: Path, state: dict) -> None:
        cols = {k: np.array(v, dtype=np.float64) for k, v in columns(table).items()}
        expect(cols["hurst"].tolist() == list(HURSTS), f"hurst column {cols['hurst']}")
        expect((cols["sims"] == FBM_SIMS).all(), "sims column")
        expect(((cols["mean_entropy"] >= 0) & (cols["mean_entropy"] <= 1)).all(), "H range")
        expect((cols["mean_complexity"] >= 0).all(), "negative C")
        expect((cols["std_entropy"] >= 0).all() and (cols["std_complexity"] >= 0).all(),
               "negative spread")
        state.update(cols)

    def check_monotone(self, state: dict) -> None:
        expect((np.diff(state["mean_entropy"]) < 0).all(), "entropy does not fall with H")
        expect((np.diff(state["mean_complexity"]) > 0).all(), "complexity does not rise with H")

    def check_reference(self, state: dict) -> None:
        for i, (metric, ref) in enumerate(zip(("entropy", "complexity"), self.reference)):
            mean, std = state[f"mean_{metric}"][0], state[f"std_{metric}"][0]
            se = math.hypot(std, ref.std()) / math.sqrt(FBM_SIMS)
            expect(abs(mean - ref.mean()) <= CLOUD_SIGMAS * se,
                   f"H=0.5 mean {metric} {mean!r} vs random walks {ref.mean()!r} (se {se:.3g})")

    def check_envelope(self, envelope: Path, state: dict) -> None:
        state["envelope"] = check_envelope(envelope, math.factorial(FBM_DIM), self.rng)

    def check_containment(self, state: dict) -> None:
        inside_envelope(state["mean_entropy"], state["mean_complexity"], state["envelope"])


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()
