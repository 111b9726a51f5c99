"""CSV ingestion, synthetic fixtures, pipeline orchestration, and emission.

The on-disk format is a headed CSV whose first column is a timestamp
(ISO-8601 or plain number) and whose remaining columns are one numeric
series per asset.  A file of plain numbers is read in one ``np.loadtxt``
pass; the row reader handles everything else: ISO-8601 timestamps, gaps for
``forward_fill``, cells only ``float`` accepts (``1_0``, non-ASCII digits),
and every defect, which it reports with its line.  The input alone picks the
path, and both give the same dataset bit for bit.

Everything written back out — window tables, summaries,
rankings, test results, plot data, manifest — is formatted through
shortest-roundtrip ``repr`` so a rerun with the same inputs and seed is
byte-identical.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import warnings
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .bounds import BoundCurve, lower_bound_curve, upper_bound_curve
from .fbm import BaselineCloud, baseline_cloud
from .patterns import OrdinalConfig, TimeSeries, _grid_violation
from .rolling import RollingResult, WindowParams, rolling_quantifiers
from .stats import (
    AnovaResult,
    AssetSummary,
    PairwiseComparison,
    RankingEntry,
    one_way_anova,
    pairwise_anova_vs_baseline,
    rank_assets,
    summarize,
)

__all__ = [
    "Dataset",
    "RunConfig",
    "AnalysisBundle",
    "load_dataset",
    "write_dataset",
    "make_synthetic_dataset",
    "log_return_series",
    "run_pipeline",
    "write_bundle",
    "emit_plot_data",
    "PLOT_KINDS",
]

# Per-window histogram sample counts below this multiple of dim! trigger an
# undersampling warning (advisory only; results are still produced).
UNDERSAMPLE_FACTOR = 5


def _fmt(value) -> str:
    """Deterministic cell formatting: shortest-roundtrip floats, plain ints."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if math.isfinite(v) and abs(v) < 2**53 and v == int(v):
            return str(int(v))
        return repr(v)
    return str(value)


def _write_csv(path: Path, header: Sequence[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(cell) for cell in row])


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass(frozen=True)
class Dataset:
    """A collection of aligned asset series sharing one timestamp grid."""

    series: dict[str, TimeSeries]
    fill_counts: dict[str, int] = field(default_factory=dict)
    timestamp_label: str = "timestamp"
    digest: str = ""

    def __post_init__(self):
        if not self.series:
            raise ValueError("dataset contains no series")
        lengths = {label: len(s) for label, s in self.series.items()}
        if len(set(lengths.values())) != 1:
            raise ValueError(f"series lengths differ: {lengths}")

    @property
    def assets(self) -> tuple[str, ...]:
        return tuple(self.series)

    @property
    def length(self) -> int:
        return len(next(iter(self.series.values())))


def _parse_timestamp(cell: str, line: int) -> float:
    text = cell.strip()
    try:
        value = float(text)
    except ValueError:
        try:
            dt = datetime.fromisoformat(text)
        except ValueError:
            raise ValueError(
                f"line {line}: timestamp {cell!r} is neither numeric nor ISO-8601"
            ) from None
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=timezone.utc)  # naive timestamps read as UTC
        return dt.timestamp()
    if not math.isfinite(value):
        raise ValueError(f"line {line}: timestamp {cell!r} is not finite")
    return value


def _data_rows(reader):
    """``(line, row)`` for every data row after the header; blank rows are
    skipped but still counted."""
    for line_no, row in enumerate(reader, start=2):
        if row and any(c.strip() for c in row):
            yield line_no, row


def _grid_error(path: Path, ts: np.ndarray, index: int, rule: str) -> ValueError:
    """Name the line of data row ``index``, found by reading the file again
    so that loading keeps no per-row line numbers."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for k, (line_no, row) in enumerate(_data_rows(reader)):
            if k == index:
                break
    return ValueError(
        f"{path}: line {line_no}: timestamps must be {rule}; {row[0].strip()!r} comes "
        f"{_fmt(ts[index] - ts[index - 1])} after the previous row, but the first "
        f"two rows are {_fmt(ts[1] - ts[0])} apart"
    )


def _read_numeric(fh, n_cols: int, used: list[int]) -> np.ndarray | None:
    """The data rows after the header as one ``(rows, n_cols)`` float array,
    parsed in a single ``np.loadtxt`` pass; ``None`` when that pass cannot
    stand in for the row reader.

    It stands in only if loadtxt accepts every row, there is at least one,
    the column count matches the header, and every cell in the ``used``
    columns is finite.  loadtxt refuses some cells ``float`` takes (``1_0``,
    non-ASCII digits), parses the cells it takes to the same doubles, and
    skips only empty lines, so whenever it succeeds the row reader would read
    the same numbers.  ``comments=None``: the default ``#`` would cut cells
    short.
    """
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            table = np.loadtxt(fh, delimiter=",", comments=None, quotechar='"',
                               dtype=np.float64, ndmin=2)
    except ValueError:
        return None
    if table.shape[0] == 0 or table.shape[1] != n_cols:
        return None
    if not np.isfinite(table[:, used]).all():
        return None
    return table


def _read_rows(path: Path, n_cols: int, col_idx: dict[str, int],
               forward_fill: bool):
    """Row-by-row reader: every located error, ISO-8601 timestamps and
    forward filling.  Returns timestamps, per-asset values and fill counts."""
    timestamps: list[float] = []
    values: dict[str, list[float]] = {a: [] for a in col_idx}
    fill_counts = {a: 0 for a in col_idx}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for line_no, row in _data_rows(reader):
            if len(row) != n_cols:
                raise ValueError(
                    f"{path}: line {line_no} has {len(row)} cells, header has {n_cols}"
                )
            timestamps.append(_parse_timestamp(row[0], line_no))
            for asset, idx in col_idx.items():
                cell = row[idx].strip()
                parsed: float | None
                try:
                    parsed = float(cell)
                    if not math.isfinite(parsed):
                        parsed = None
                except ValueError:
                    parsed = None
                if parsed is None:
                    if not forward_fill:
                        raise ValueError(
                            f"{path}: line {line_no}, column {asset!r}: "
                            f"missing or non-numeric value {cell!r}"
                        )
                    if not values[asset]:
                        raise ValueError(
                            f"{path}: line {line_no}, column {asset!r}: "
                            "cannot forward-fill before any valid value"
                        )
                    parsed = values[asset][-1]
                    fill_counts[asset] += 1
                values[asset].append(parsed)
    if not timestamps:
        raise ValueError(f"{path}: no data rows")
    return (np.asarray(timestamps),
            {a: np.asarray(v) for a, v in values.items()}, fill_counts)


def load_dataset(path, assets: Sequence[str] | None = None,
                 forward_fill: bool = False) -> Dataset:
    """Read a headed CSV into per-asset TimeSeries on a shared time grid.

    Timestamps must be strictly increasing and evenly spaced; the first row
    that breaks the grid is an error naming its line.  A missing or
    non-numeric cell in a requested column is an error naming its line and
    column unless ``forward_fill`` is set, in which case the
    previous valid value is carried forward and counted.  A defective cell in
    the first data row cannot be filled and always errors.

    The input alone decides how it is read.  A file whose data rows are all
    plain numbers (numeric timestamps, finite values in the timestamp and
    requested columns, no ragged rows) is parsed in one ``np.loadtxt`` pass.
    Every other file (ISO-8601 timestamps, gaps to fill, cells such as
    ``1_0`` that ``float`` accepts but loadtxt does not, any defect to
    report) goes through the row reader.  Both give the same dataset, bit for
    bit, and the same errors.
    """
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"no such dataset file: {path}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, expected a header row") from None
        if len(header) < 2:
            raise ValueError(f"{path}: header must name a timestamp and at least one asset")
        ts_label, *columns = [h.strip() for h in header]
        if len(set(columns)) != len(columns):
            raise ValueError(f"{path}: duplicate column names in header")
        selected = list(columns) if assets is None else list(assets)
        if len(set(selected)) != len(selected):
            raise ValueError(f"{path}: duplicate requested columns: {selected}")
        missing = [a for a in selected if a not in columns]
        if missing:
            raise ValueError(f"{path}: requested columns not in header: {missing}")
        col_idx = {a: columns.index(a) + 1 for a in selected}
        table = _read_numeric(fh, len(header), [0, *col_idx.values()])

    if table is None:
        ts, values, fill_counts = _read_rows(path, len(header), col_idx, forward_fill)
    else:
        ts = np.ascontiguousarray(table[:, 0])
        values = {a: np.ascontiguousarray(table[:, i]) for a, i in col_idx.items()}
        fill_counts = {a: 0 for a in selected}
    violation = _grid_violation(ts)
    if violation is not None:
        raise _grid_error(path, ts, *violation)
    series = {a: TimeSeries(values[a], ts) for a in selected}
    return Dataset(series=series, fill_counts=fill_counts,
                   timestamp_label=ts_label, digest=_sha256_file(path))


def write_dataset(dataset: Dataset, path) -> str:
    """Write a dataset back to CSV; returns the sha256 of the written bytes.

    Values round-trip exactly: reloading yields identical series.
    """
    path = Path(path)
    first = next(iter(dataset.series.values()))
    if first.timestamps is None:
        ts = np.arange(len(first), dtype=np.float64)
    else:
        ts = first.timestamps
    header = [dataset.timestamp_label, *dataset.assets]
    cols = [dataset.series[a].values for a in dataset.assets]
    rows = ([ts[i]] + [col[i] for col in cols] for i in range(len(first)))
    _write_csv(path, header, rows)
    return _sha256_file(path)


def make_synthetic_dataset(assets: Sequence[str], length: int, seed: int,
                           spacing: int = 300) -> Dataset:
    """Deterministic multi-asset price fixture with per-asset dynamics.

    Each asset follows an exponentiated AR(1) return process whose
    persistence varies by asset index, so assets genuinely differ in pattern
    structure (and hence in efficiency rank).  Per-asset streams derive from
    ``(seed, asset index)``, making the fixture independent of generation
    order.
    """
    if length < 2:
        raise ValueError("length must be >= 2")
    labels = list(assets)
    if len(set(labels)) != len(labels):
        raise ValueError("asset labels must be distinct")
    ts = np.arange(length, dtype=np.float64) * spacing
    series: dict[str, TimeSeries] = {}
    for i, label in enumerate(labels):
        rng = np.random.default_rng(np.random.SeedSequence((seed, i)))
        eps = rng.standard_normal(length)
        # persistence spread over [-0.3, 0.6): distinct plane positions per asset
        phi = -0.3 + 0.9 * (i / max(len(labels), 1))
        returns = np.empty(length)
        returns[0] = eps[0]
        for t in range(1, length):
            returns[t] = phi * returns[t - 1] + eps[t]
        prices = 100.0 * np.exp(0.001 * np.cumsum(returns))
        series[label] = TimeSeries(prices, ts)
    return Dataset(series=series, fill_counts={a: 0 for a in labels})


def log_return_series(series: TimeSeries) -> TimeSeries:
    """Logarithmic returns ``ln(x_t / x_{t-1})``; length shrinks by one."""
    if (series.values <= 0).any():
        bad = int(np.flatnonzero(series.values <= 0)[0])
        raise ValueError(f"log returns need positive values; offender at position {bad}")
    values = np.diff(np.log(series.values))
    ts = None if series.timestamps is None else series.timestamps[1:].copy()
    return TimeSeries(values, ts)


@dataclass(frozen=True)
class RunConfig:
    """Everything a full analysis run depends on, manifest-recordable."""

    ordinal: OrdinalConfig = OrdinalConfig()
    window: WindowParams = WindowParams()
    assets: tuple[str, ...] | None = None
    log_returns: bool = False
    baseline: str | None = None
    bounds_resolution: int = 2000
    fbm_hursts: tuple[float, ...] = ()
    fbm_sims: int = 500
    seed: int = 42

    def as_dict(self) -> dict:
        return {
            "dim": self.ordinal.dim,
            "delay": self.ordinal.delay,
            "window_size": self.window.size,
            "window_step": self.window.step,
            "assets": None if self.assets is None else list(self.assets),
            "log_returns": self.log_returns,
            "baseline": self.baseline,
            "bounds_resolution": self.bounds_resolution,
            "fbm_hursts": list(self.fbm_hursts),
            "fbm_sims": self.fbm_sims,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class AnalysisBundle:
    """All results of one pipeline run, before any file is written."""

    config: RunConfig
    input_digest: str
    fill_counts: dict[str, int]
    rolling: dict[str, RollingResult]
    summaries: dict[str, AssetSummary]
    ranking: list[RankingEntry]
    anova_entropy: AnovaResult | None
    anova_complexity: AnovaResult | None
    pairwise: list[PairwiseComparison]
    lower: BoundCurve
    upper: BoundCurve
    clouds: tuple[BaselineCloud, ...]
    caveats: tuple[str, ...]
    warnings: tuple[str, ...]


def run_pipeline(config: RunConfig, dataset: Dataset) -> AnalysisBundle:
    """Rolling quantifiers, summaries, ranking, tests, bounds, fBm clouds.

    With a single asset the ranking has one entry and the ANOVA slots stay
    empty (the tests need at least two groups).  Randomness enters only
    through the fBm baselines, driven by ``config.seed``.
    """
    selected = dataset.assets if config.assets is None else config.assets
    missing = [a for a in selected if a not in dataset.series]
    if missing:
        raise ValueError(f"assets not in dataset: {missing}")
    if len(selected) == 0:
        raise ValueError("no assets selected")

    warnings: list[str] = []
    caveats: list[str] = []
    rolling: dict[str, RollingResult] = {}
    for asset in selected:
        series = dataset.series[asset]
        if config.log_returns:
            series = log_return_series(series)
        try:
            rolling[asset] = rolling_quantifiers(series, config.window,
                                                 config.ordinal, asset=asset)
        except ValueError as exc:
            raise ValueError(f"asset {asset!r}: {exc}") from exc
    per_window = next(iter(rolling.values())).samples_per_window
    threshold = UNDERSAMPLE_FACTOR * config.ordinal.num_patterns
    if per_window < threshold:
        warnings.append(
            f"undersampled histograms: {per_window} patterns per window < "
            f"{UNDERSAMPLE_FACTOR} * {config.ordinal.num_patterns} states"
        )
    if config.window.step < config.window.size:
        caveats.append(
            "overlapping windows: successive windows share samples, so ANOVA "
            "independence assumptions do not hold; p-values are descriptive"
        )

    summaries = {a: summarize(rolling[a]) for a in selected}
    ranking = rank_assets([summaries[a] for a in selected])

    anova_entropy = anova_complexity = None
    pairwise: list[PairwiseComparison] = []
    if len(selected) >= 2:
        anova_entropy = one_way_anova(
            [(a, rolling[a].entropies.tolist()) for a in selected]
        )
        anova_complexity = one_way_anova(
            [(a, rolling[a].complexities.tolist()) for a in selected]
        )
        baseline = config.baseline if config.baseline is not None else selected[0]
        pairwise = pairwise_anova_vs_baseline(rolling, baseline)

    m = config.ordinal.num_patterns
    lower = lower_bound_curve(m, config.bounds_resolution)
    upper = upper_bound_curve(m, config.bounds_resolution)

    clouds = tuple(
        baseline_cloud(h, config.fbm_sims, config.window.size,
                       config.ordinal, config.seed)
        for h in config.fbm_hursts
    )
    return AnalysisBundle(
        config=config,
        input_digest=dataset.digest,
        fill_counts=dict(dataset.fill_counts),
        rolling=rolling,
        summaries=summaries,
        ranking=ranking,
        anova_entropy=anova_entropy,
        anova_complexity=anova_complexity,
        pairwise=pairwise,
        lower=lower,
        upper=upper,
        clouds=clouds,
        caveats=tuple(caveats),
        warnings=tuple(warnings),
    )


def _windows_rows(bundle: AnalysisBundle):
    for asset, res in bundle.rolling.items():
        for k, point in enumerate(res.points):
            end_ts = "" if res.end_timestamps is None else res.end_timestamps[k]
            yield (asset, k, int(res.window_starts[k]), end_ts,
                   point.entropy, point.complexity)


WINDOWS_HEADER = ["asset", "window_index", "start_offset", "end_timestamp",
                  "entropy", "complexity"]


def _anova_rows(bundle: AnalysisBundle):
    caveat = "overlapping-windows" if bundle.caveats else ""
    for metric, result in (("entropy", bundle.anova_entropy),
                           ("complexity", bundle.anova_complexity)):
        if result is None:
            continue
        yield (metric, result.ss_between, result.ss_within, result.ss_total,
               result.df_between, result.df_within, result.ms_between,
               result.ms_within, result.f_stat, result.p_value,
               result.degenerate, caveat)


def write_bundle(bundle: AnalysisBundle, out_dir) -> list[Path]:
    """Write every result table plus a manifest; returns the written paths.

    The manifest is written last.  It records the config, seed, input
    digest, tool version, and the sha256 of every other file in the output
    directory, so plot data emitted beforehand is covered too.  It contains
    no wall-clock data, so identical runs produce identical trees.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    def emit(name: str, header, rows):
        p = out / name
        _write_csv(p, header, rows)
        written.append(p)

    emit("windows.csv", WINDOWS_HEADER, _windows_rows(bundle))
    emit("summaries.csv",
         ["asset", "mean_entropy", "mean_complexity", "std_entropy",
          "std_complexity", "window_count"],
         ((s.asset, s.mean_entropy, s.mean_complexity, s.std_entropy,
           s.std_complexity, s.window_count)
          for s in bundle.summaries.values()))
    emit("ranking.csv",
         ["rank", "asset", "distance", "tied"],
         ((e.rank, e.asset, e.distance, e.tied) for e in bundle.ranking))
    if bundle.anova_entropy is not None:
        emit("anova.csv",
             ["metric", "ss_between", "ss_within", "ss_total", "df_between",
              "df_within", "ms_between", "ms_within", "f_stat", "p_value",
              "degenerate", "caveat"],
             _anova_rows(bundle))
    if bundle.pairwise:
        rows = []
        for c in bundle.pairwise:
            for metric, anova, diff in (
                ("entropy", c.entropy_anova, c.entropy_mean_diff),
                ("complexity", c.complexity_anova, c.complexity_mean_diff),
            ):
                rows.append((c.asset, c.baseline, metric, diff, anova.f_stat,
                             anova.p_value, anova.p_value < 0.05,
                             anova.p_value < 0.01))
        emit("pairwise_anova.csv",
             ["asset", "baseline", "metric", "mean_diff", "f_stat", "p_value",
              "significant_5pct", "significant_1pct"],
             rows)
    emit("bounds.csv",
         ["H", "C_lower", "C_upper"],
         zip(bundle.lower.entropy, bundle.lower.complexity,
             bundle.upper.complexity))
    if bundle.clouds:
        emit("fbm_clouds.csv",
             ["hurst", "mean_entropy", "mean_complexity", "std_entropy",
              "std_complexity", "sims"],
             ((c.hurst, c.mean_point.entropy, c.mean_point.complexity,
               c.std_entropy, c.std_complexity, c.sims)
              for c in bundle.clouds))

    manifest = {
        "tool": "cecplane",
        "tool_version": __version__,
        "config": bundle.config.as_dict(),
        "input_digest": bundle.input_digest,
        "fill_counts": bundle.fill_counts,
        "caveats": list(bundle.caveats),
        "warnings": list(bundle.warnings),
        "files": {p.name: _sha256_file(p) for p in sorted(out.iterdir())
                  if p.is_file() and p.name != "manifest.json"},
    }
    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    written.append(manifest_path)
    return written


PLOT_KINDS = ("entropy-evolution", "cecp-scatter", "cecp-means", "anova-intervals")


def emit_plot_data(bundle: AnalysisBundle, kind: str, out_dir) -> Path:
    """Write one tidy CSV per figure kind; one row per plotted mark.

    Values are copied from the bundle verbatim — the emitter never
    recomputes anything.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if kind == "entropy-evolution":
        path = out / "plot_entropy_evolution.csv"
        rows = ((asset, "" if res.end_timestamps is None else res.end_timestamps[k],
                 point.entropy)
                for asset, res in bundle.rolling.items()
                for k, point in enumerate(res.points))
        _write_csv(path, ["asset", "end_timestamp", "entropy"], rows)
    elif kind == "cecp-scatter":
        path = out / "plot_cecp_scatter.csv"
        rows = ((asset, k, point.entropy, point.complexity)
                for asset, res in bundle.rolling.items()
                for k, point in enumerate(res.points))
        _write_csv(path, ["asset", "window_index", "entropy", "complexity"], rows)
    elif kind == "cecp-means":
        path = out / "plot_cecp_means.csv"
        rows = ((s.asset, s.mean_entropy, s.mean_complexity,
                 s.std_entropy, s.std_complexity)
                for s in bundle.summaries.values())
        _write_csv(path, ["asset", "mean_H", "mean_C", "std_H", "std_C"], rows)
    elif kind == "anova-intervals":
        if not bundle.pairwise:
            raise ValueError("anova-intervals needs pairwise baseline results")
        path = out / "plot_anova_intervals.csv"
        rows = []
        for c in bundle.pairwise:
            for metric, anova, diff in (
                ("entropy", c.entropy_anova, c.entropy_mean_diff),
                ("complexity", c.complexity_anova, c.complexity_mean_diff),
            ):
                rows.append((c.asset, c.baseline, metric, diff,
                             anova.p_value < 0.01, anova.p_value < 0.05))
        _write_csv(path, ["asset", "baseline", "metric", "mean_diff",
                          "significant_1pct", "significant_5pct"], rows)
    else:
        raise ValueError(f"unknown plot kind {kind!r}; expected one of {PLOT_KINDS}")
    return path
