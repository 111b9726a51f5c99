"""CSV ingestion, synthetic fixtures, pipeline orchestration, and emission.

The on-disk format is a headed CSV whose first column is a timestamp
(ISO-8601 or plain number) and whose remaining columns are one numeric
series per asset, read under the package's one set of CSV reading rules
(``_tables._read_csv``).  A file of plain numbers is parsed by
``np.loadtxt`` in byte ranges cut at line ends, none under 1 MiB, which
``_fork`` splits among processes: this process parses the first range from
the reader's open stream, and a forked child each other range (or this
process, if the child cannot be started or fails).  One block search,
``_find``, finds the line ends to cut at and any ``"``: a file that holds
one, has no ``\\n`` past a cut point, or is read where ``os.fork`` is
missing is one range.  If loadtxt refuses any range, the row reader reads
the file; it handles everything else: ISO-8601 timestamps, gaps for
``forward_fill``, cells only ``float`` accepts (``1_0``, non-ASCII digits),
and every defect, which it reports with its line.  The input alone picks
the path, and every path gives the same dataset bit for bit.  Loading holds
at most this process's range as a table and the requested columns at once,
and the file's sha256 is streamed in fixed blocks, never read whole.

Every CSV written back out is one ``_Table`` of ``_tables``, written by its
``_write``.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from . import PLOT_KINDS, __version__
from ._fork import _count, _map
from ._tables import (_bounds_table, _clouds_table, _decoded, _located, _pairwise_table,
                      _ranking_table, _read_csv, _records, _table, _Table, _text, _write)
from .bounds import BoundCurve, lower_bound_curve, upper_bound_curve
from .patterns import OrdinalConfig, TimeSeries, _grid_violation, _on_grid
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

if TYPE_CHECKING:
    from .fbm import BaselineCloud

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


# Files are hashed a block at a time, so a digest never holds a whole file.
# (hashlib.file_digest does this, but only from Python 3.11.)
_HASH_BLOCK = 1 << 20


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    block = bytearray(_HASH_BLOCK)
    view = memoryview(block)
    with open(path, "rb") as fh:
        while size := fh.readinto(block):
            digest.update(view[:size])
    return digest.hexdigest()


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


def _parse_timestamp(cell: str) -> float:
    text = cell.strip()
    try:
        value = float(text)
    except ValueError:
        from datetime import datetime, timezone  # only ISO-8601 files need it

        try:
            dt = datetime.fromisoformat(text)
        except ValueError:
            raise ValueError(f"timestamp {cell!r} is neither numeric nor ISO-8601") from None
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=timezone.utc)  # naive timestamps read as UTC
        return dt.timestamp()
    if not math.isfinite(value):
        raise ValueError(f"timestamp {cell!r} is not finite")
    return value


def _grid_error(path: Path, ts: np.ndarray, index: int, rule: str) -> ValueError:
    """Name the line of data row ``index``, found by reading the file again
    so that loading keeps no per-row line numbers."""
    with _read_csv(path) as (_, rows, _):
        line_no, row = next(itertools.islice(rows, index, None))
    step, first = _text(np.array([ts[index] - ts[index - 1], ts[1] - ts[0]]))
    return _located(path, line_no, None,
                    f"timestamps must be {rule}; {row[0].strip()!r} comes {step} after "
                    f"the previous row, but the first two rows are {first} apart")


# A file is split into byte ranges, each parsed in its own process, only
# with at least this many bytes to each range.  A fork, with the child's exit
# and reaping, takes about 2.4 ms on a 2-vCPU host; a range of this size
# takes loadtxt about ten times that.
_RANGE_FLOOR = 1 << 20
# The file is searched for quotes and line ends in blocks this small: a
# 1 MiB block raised the peak resident set of loading the study dataset by
# 0.7 MB.
_SCAN_BLOCK = 1 << 16


def _find(fh, pos: int, byte: bytes) -> int | None:
    """The offset just past the first ``byte`` at or after ``pos`` in the
    binary file ``fh``, searched a ``_SCAN_BLOCK`` at a time, if any."""
    fh.seek(pos)
    while chunk := fh.read(_SCAN_BLOCK):
        k = chunk.find(byte)
        if k >= 0:
            return pos + k + 1
        pos += len(chunk)
    return None


def _cuts(path: Path) -> list[int]:
    """The byte offsets at which the data rows of ``path`` split into ranges
    parsed apart, as many ranges as ``_fork._count`` gives the file's bytes
    at ``_RANGE_FLOOR`` each; empty for one range.

    Each cut follows a ``\\n``, and the file holds no ``"``, so every line
    end is a record end and the header is the first line: a cut starts a
    line, past the header.  A file with a ``"``, or without ``os.fork``, is
    one range; so is one with no ``\\n`` past a cut point (``\\r`` line ends).
    """
    size = path.stat().st_size
    count = _count(size, _RANGE_FLOOR)
    if count < 2:
        return []
    with open(path, "rb") as fh:
        first = _find(fh, 0, b"\n")
        if first is None or _find(fh, 0, b'"') is not None:
            return []
        cuts = {_find(fh, max(k * size // count, first), b"\n") for k in range(1, count)}
    return [] if None in cuts else sorted(cuts - {size})


def _parse(text, n_cols: int, used: list[int]) -> np.ndarray | None:
    """The data rows of the text stream ``text`` as one float table, parsed
    in a single ``np.loadtxt`` pass; ``None`` when that pass cannot stand in
    for the row reader.

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
            table = np.loadtxt(text, delimiter=",", comments=None, quotechar='"',
                               dtype=np.float64, ndmin=2)
    except ValueError:
        return None
    if table.shape[0] == 0 or table.shape[1] != n_cols:
        return None
    # One column at a time: ``table[:, used]`` would copy every used column.
    if not all(np.isfinite(table[:, j]).all() for j in used):
        return None
    return table


def _read_numeric(path: Path, text, cuts: list[int], n_cols: int,
                  used: list[int]) -> list[np.ndarray] | None:
    """The ``used`` columns of the data rows, each a contiguous float array,
    or ``None`` when ``_parse`` refuses any range.

    The split is ``_fork``'s: ``_fork._map`` parses the first range (the
    file past its header up to the first cut, read from ``text``) in this
    process and each range from one cut to the next in a forked child, or
    here if the child cannot be started or fails.  Each column is joined
    from its ranges' parts in turn, and each part is dropped once joined, so
    the peak is this process's range as a table beside the columns."""
    def columns(start: int, stop: int | None):
        """The used columns of bytes ``[start, stop)``, none if refused."""
        with (contextlib.nullcontext(text) if start == 0 else _decoded(path, start, stop)) as rows:
            table = _parse(rows, n_cols, used)
        return () if table is None else (table[:, j] for j in used)

    parts = _map(columns, list(zip([0, *cuts], [*cuts, None])))
    if not all(parts):
        return None
    return [np.concatenate([part.pop(0) for part in parts]) for _ in used]


def _read_rows(path: Path, col_idx: dict[str, int], forward_fill: bool):
    """Row-by-row reader: every located error, ISO-8601 timestamps and
    forward filling.  Returns timestamps, per-asset values and fill counts."""
    timestamps: list[float] = []
    values: dict[str, list[float]] = {a: [] for a in col_idx}
    fill_counts = {a: 0 for a in col_idx}
    with _read_csv(path) as (header, rows, _):
        for line_no, row in rows:
            try:
                timestamps.append(_parse_timestamp(row[0]))
            except ValueError as exc:
                raise _located(path, line_no, header[0], str(exc)) from None
            for asset, idx in col_idx.items():
                cell = row[idx].strip()
                try:
                    parsed = float(cell)
                except ValueError:
                    parsed = math.nan
                if not math.isfinite(parsed):
                    if not forward_fill:
                        raise _located(path, line_no, asset,
                                       f"missing or non-numeric value {cell!r}")
                    if not values[asset]:
                        raise _located(path, line_no, asset,
                                       "cannot forward-fill before any valid value")
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
    requested columns, no ragged rows) is parsed by ``np.loadtxt``, split
    into ``min(usable CPUs, file bytes // 1 MiB)`` byte ranges cut just past
    a ``\\n``; ``_find`` searches the file for those line ends and for a
    ``"`` in 64 KiB blocks.  A file that holds a ``"`` (a line end might then
    not end a record), has no ``\\n`` past a cut point, or is read where
    ``os.fork`` is missing is one range, one pass.  Every other file
    (ISO-8601 timestamps, gaps to fill, cells such as ``1_0`` that ``float``
    accepts but loadtxt does not, any defect to report), and any file with a
    range that loadtxt refuses, goes through the row reader.  ``_fork``
    owns the split: it parses each range but the first in a forked child,
    and a range whose child cannot be started, or fails (which gives a
    ``RuntimeWarning`` naming its byte range), in this process.  Every way
    gives the same dataset, bit for bit, and the same errors, and every
    child is reaped before this returns or raises.  The header and the first
    range are read through ``_tables._read_csv``, and every other range is
    decoded as it decodes, so encoding, header, blank and ragged rows follow
    the rules of every CSV input.  ``Dataset.digest`` is the sha256 of the
    file, streamed a block at a time.
    """
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"no such dataset file: {path}")
    cuts = _cuts(path)
    with _read_csv(path, cuts[0] if cuts else None) as (header, _, stream):
        if len(header) < 2:
            raise _located(path, 1, None, "header must name a timestamp and at least one asset")
        ts_label, *columns = header
        selected = list(columns) if assets is None else list(assets)
        if len(set(selected)) != len(selected):
            raise ValueError(f"{path}: duplicate requested columns: {selected}")
        missing = [a for a in selected if a not in columns]
        if missing:
            raise ValueError(f"{path}: requested columns not in header: {missing}")
        col_idx = {a: columns.index(a) + 1 for a in selected}
        numeric = _read_numeric(path, stream, cuts, len(header), [0, *col_idx.values()])

    if numeric is None:
        ts, values, fill_counts = _read_rows(path, col_idx, forward_fill)
    else:
        ts, *value_columns = numeric
        values = dict(zip(col_idx, value_columns))
        fill_counts = {a: 0 for a in selected}
    violation = _grid_violation(ts)
    if violation is not None:
        raise _grid_error(path, ts, *violation)
    ts.flags.writeable = False
    series = {a: _on_grid(values[a], ts) for a in selected}
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
    _write(_Table((dataset.timestamp_label, *dataset.assets),
                  (ts, *(dataset.series[a].values for a in dataset.assets))), path)
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
    ts = None if series.timestamps is None else series.timestamps[1:]
    return _on_grid(values, ts)


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
        anova_entropy = one_way_anova([(a, rolling[a].entropies) for a in selected])
        anova_complexity = one_way_anova([(a, rolling[a].complexities) for a in selected])
        baseline = config.baseline if config.baseline is not None else selected[0]
        pairwise = pairwise_anova_vs_baseline(rolling, baseline)

    m = config.ordinal.num_patterns
    lower = lower_bound_curve(m, config.bounds_resolution)
    upper = upper_bound_curve(m, config.bounds_resolution)

    clouds = ()
    if config.fbm_hursts:
        from .fbm import _baseline_clouds  # only a run with baseline clouds loads fbm

        clouds = tuple(_baseline_clouds(config.fbm_hursts, config.fbm_sims,
                                        config.window.size, config.ordinal, config.seed))
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


def _windows_table(rolling: dict[str, RollingResult]) -> _Table:
    """One row per window of every asset."""
    results = rolling.values()
    return _table(
        asset=[a for a, r in rolling.items() for _ in range(r.window_starts.size)],
        window_index=np.concatenate([np.arange(r.window_starts.size) for r in results]),
        start_offset=np.concatenate([r.window_starts for r in results]),
        end_timestamp=[t for r in results for t in ([""] * r.window_starts.size
                       if r.end_timestamps is None else _text(r.end_timestamps))],
        entropy=np.concatenate([r.entropies for r in results]),
        complexity=np.concatenate([r.complexities for r in results]),
    )


def _summaries_table(bundle: AnalysisBundle) -> _Table:
    return _records(bundle.summaries.values(), "asset", "mean_entropy", "mean_complexity",
                    "std_entropy", "std_complexity", "window_count")


def _anova_table(bundle: AnalysisBundle) -> _Table:
    """The all-asset ANOVA of each metric, one ``AnovaResult`` field a column."""
    results = {"entropy": bundle.anova_entropy, "complexity": bundle.anova_complexity}
    anova = _records(results.values(), *AnovaResult._fields)
    caveat = "overlapping-windows" if bundle.caveats else ""
    return _Table(("metric", *anova.header, "caveat"),
                  (list(results), *anova.columns, [caveat] * len(results)))


def _plot_table(bundle: AnalysisBundle, kind: str,
                windows: _Table | None = None) -> tuple[str, _Table]:
    """The file name and table of one plot kind, columns of a result table
    copied verbatim; ``windows`` is the window table's text, if made."""
    name = f"plot_{kind.replace('-', '_')}.csv"
    if kind in ("entropy-evolution", "cecp-scatter"):
        windows = windows or _windows_table(bundle.rolling).formatted()
        if kind == "entropy-evolution":
            return name, windows.select("asset", "end_timestamp", "entropy")
        return name, windows.select("asset", "window_index", "entropy", "complexity")
    if kind == "cecp-means":
        return name, _Table(("asset", "mean_H", "mean_C", "std_H", "std_C"),
                            _summaries_table(bundle).columns[:5])
    if kind == "anova-intervals":
        if not bundle.pairwise:
            raise ValueError("anova-intervals needs pairwise baseline results")
        pairwise = _pairwise_table(bundle.pairwise)
        # the identity and the mean difference, then the 1% flag before the 5% one
        header = pairwise.header
        return name, pairwise.select(*header[:4], header[7], header[6])
    raise ValueError(f"unknown plot kind {kind!r}; expected one of {PLOT_KINDS}")


def _tree_tables(bundle: AnalysisBundle,
                 kinds: Sequence[str]) -> tuple[dict[str, _Table], dict[str, _Table]]:
    """The result tables and the plot data of ``kinds``, by file name.  Every
    table is built before the first write, so a plot kind that cannot be made
    leaves no file."""
    windows = _windows_table(bundle.rolling).formatted()
    tables = {"windows.csv": windows, "summaries.csv": _summaries_table(bundle),
              "ranking.csv": _ranking_table(bundle.ranking)}
    if bundle.pairwise:
        tables["anova.csv"] = _anova_table(bundle)
        tables["pairwise_anova.csv"] = _pairwise_table(bundle.pairwise)
    tables["bounds.csv"] = _bounds_table(bundle.lower, bundle.upper)
    if bundle.clouds:
        tables["fbm_clouds.csv"] = _clouds_table(bundle.clouds)
    return tables, dict(_plot_table(bundle, kind, windows) for kind in kinds)


def _write_tree(bundle: AnalysisBundle, out_dir, tables: dict[str, _Table],
                plots: dict[str, _Table]) -> list[Path]:
    """Write ``tables``, then ``plots`` and, last, the manifest; returns the
    paths, plot data last."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, table in {**tables, **plots}.items():
        _write(table, out / name)
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
    return [out / name for name in tables] + [manifest_path] + [out / name for name in plots]


def write_bundle(bundle: AnalysisBundle, out_dir) -> list[Path]:
    """Write every result table plus a manifest; returns the written paths.

    The manifest is written last.  It records the config, seed, input
    digest, tool version, and the sha256 of every other file in the output
    directory, so plot data emitted beforehand is covered too.  It contains
    no wall-clock data, so identical runs produce identical trees.
    """
    return _write_tree(bundle, out_dir, *_tree_tables(bundle, ()))


def emit_plot_data(bundle: AnalysisBundle, kind: str, out_dir) -> Path:
    """Write one tidy CSV per figure kind; one row per plotted mark.

    Values are copied from the bundle verbatim — the emitter never
    recomputes anything.
    """
    name, table = _plot_table(bundle, kind)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write(table, out / name)
    return out / name
