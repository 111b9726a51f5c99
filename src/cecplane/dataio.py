"""CSV ingestion, synthetic fixtures, pipeline orchestration, and emission.

The on-disk format is a headed CSV whose first column is a timestamp
(ISO-8601 or plain number) and whose remaining columns are one numeric
series per asset, read under the package's one set of CSV reading rules
(``_tables._read_csv``).  A file of plain numbers is parsed by
``np.loadtxt`` in byte ranges cut at line ends, none under 1 MiB, which
``_fork`` splits among processes: this process parses the first range from
the reader's open stream, and a forked child each other range, whose
columns come back through a pipe as pickles (or this process, if the child
cannot be started or fails).  One block search, ``_find``, finds the line
ends to cut at and any ``"``: a file that holds one, has no ``\\n`` past a
cut point, or is read where ``os.fork`` is missing is one range.  If
loadtxt refuses any range, the row reader reads the file; it handles
everything else: ISO-8601 timestamps, gaps for ``forward_fill``, cells only
``float`` accepts (``1_0``, non-ASCII digits), and every defect, which it
reports with its line.  The input alone picks the path, and every path
gives the same dataset bit for bit.  Each range's columns are copied out of
its table, so loading holds one copy of the requested columns beside either
this process's range as a table or one joined column, and the file's sha256
is streamed in fixed blocks, never read whole.  Log returns are taken in one
buffer per asset, the logs overwritten by their differences.

Every file written back out goes through ``_tables``: each CSV is one
``_Table`` written by ``_write``, and ``manifest.json`` is written by
``_write_json``.  One function, ``_write_tree``, decides what an output tree
holds, for ``analyze`` and ``write_bundle`` alike: it refuses a directory
holding a file it would not write, so its manifest hashes the whole tree.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import math
import warnings
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from . import _EXPORTS, PLOT_KINDS, __version__
from ._fork import _count, _map
from ._tables import (_WINDOW_HEADER, _bounds_table, _clouds_table, _decoded, _located,
                      _pairwise_table, _ranking_table, _read_csv, _records, _Table, _text,
                      _write, _write_json)
from .bounds import BoundCurve, lower_bound_curve, upper_bound_curve
from .patterns import OrdinalConfig, TimeSeries, _grid_violation, _on_grid
from .rolling import RollingResult, WindowParams, rolling_quantifiers
from .special import _check_hurst, _checked, _Holder, _integer, _labels, _values
from .stats import (
    AnovaResult,
    AssetSummary,
    PairwiseComparison,
    RankingEntry,
    _check_baseline,
    _groups,
    _summary,
    _tests,
    rank_assets,
)

if TYPE_CHECKING:
    from .fbm import BaselineCloud

__all__ = [*_EXPORTS["dataio"], "PLOT_KINDS"]

# Per-window histogram sample counts below this multiple of dim! trigger an
# undersampling warning (advisory only; results are still produced).
UNDERSAMPLE_FACTOR = 5


# Files are read this many bytes at a time, both to hash them (so a digest
# never holds a whole file; hashlib.file_digest does this, but only from
# Python 3.11) and to search them for quotes and line ends (``_find``).
# Against 1 MiB: hashing an output tree with a 1 MiB block, zero-filled for
# each file, set the peak resident set of study `analyze` 1.8 MB above this
# size's peak, which is reached earlier, at the write (hashing 21 MB took
# 11.9 ms at this size, 11.7 ms at 1 MiB); searching with a 1 MiB block
# raised the peak resident set of loading the study dataset by 0.7 MB.
_FILE_BLOCK = 1 << 16


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    block = bytearray(_FILE_BLOCK)
    view = memoryview(block)
    with open(path, "rb") as fh:
        while size := fh.readinto(block):
            digest.update(view[:size])
    return digest.hexdigest()


class Dataset(_Holder):
    """A collection of aligned asset series sharing one timestamp grid,
    each under a label that is not blank.  ``fill_counts`` defaults to an
    empty dict.  ``path`` is the file it was loaded from, if any, where an
    error about one of its values is located by line and column."""

    __slots__ = ("series", "fill_counts", "timestamp_label", "digest", "path")

    def __init__(self, series: dict[str, TimeSeries], fill_counts: dict[str, int] | None = None,
                 timestamp_label: str = "timestamp", digest: str = "", path: Path | None = None):
        if not series:
            raise ValueError("dataset contains no series")
        if not all(str(label).strip() for label in series):
            raise ValueError(f"asset labels must not be blank, got {tuple(series)!r}")
        lengths = {label: len(s) for label, s in series.items()}
        if len(set(lengths.values())) != 1:
            raise ValueError(f"series lengths differ: {lengths}")
        self.series, self.fill_counts = series, {} if fill_counts is None else fill_counts
        self.timestamp_label, self.digest, self.path = timestamp_label, digest, path

    @property
    def assets(self) -> tuple[str, ...]:
        return tuple(self.series)


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


def _data_row(path: Path, index: int) -> tuple[list[str], int, list[str]]:
    """The header of ``path``, and the line and cells of its data row
    ``index``, found by reading the file again so that loading keeps no
    per-row line numbers."""
    with _read_csv(path) as (header, rows, _):
        return (header, *next(itertools.islice(rows, index, None)))


def _grid_error(path: Path, ts: np.ndarray, index: int, rule: str) -> ValueError:
    """Name the line of data row ``index``."""
    _, line_no, row = _data_row(path, index)
    step, first = _text(np.array([ts[index] - ts[index - 1], ts[1] - ts[0]]))
    return _located(path, line_no, None,
                    f"timestamps must be {rule}; {row[0].strip()!r} comes {step} after "
                    f"the previous row, but the first two rows are {first} apart")


# A file is split into byte ranges, each parsed in its own process, only
# with at least this many bytes to each range.  A fork, with the child's exit
# and reaping, takes about 2.4 ms on a 2-vCPU host; a range of this size
# takes loadtxt about ten times that.
_RANGE_FLOOR = 1 << 20


def _find(fh, pos: int, byte: bytes) -> int | None:
    """The offset just past the first ``byte`` at or after ``pos`` in the
    binary file ``fh``, searched a ``_FILE_BLOCK`` at a time, if any."""
    fh.seek(pos)
    while chunk := fh.read(_FILE_BLOCK):
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
    here if the child cannot be started or fails.  A range's columns are
    copied out of its table one at a time, so this process frees its table
    before any child's columns arrive, and a child holds its table beside
    one column.  One range's columns are returned as they are; from two
    ranges on, each column is joined from its ranges' parts in turn, and
    each part is dropped once joined, so the peak is the larger of this
    process's table beside its own columns and every column's parts beside
    one joined column: no table is ever held beside another range's
    columns."""
    def columns(start: int, stop: int | None):
        """The used columns of bytes ``[start, stop)``, none if refused."""
        with (contextlib.nullcontext(text) if start == 0 else _decoded(path, start, stop)) as rows:
            table = _parse(rows, n_cols, used)
        return () if table is None else (table[:, j].copy() for j in used)

    parts = _map(columns, list(zip([0, *cuts], [*cuts, None])))
    if not all(parts):
        return None
    if len(parts) == 1:
        return parts[0]
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


def _flag(value, name: str) -> bool:
    """``value``, a ``bool`` or a numpy bool, as a ``bool``: the rule of
    every on/off argument."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a bool, got {value!r}")
    return bool(value)


def load_dataset(path, assets: Sequence[str] | None = None,
                 forward_fill: bool = False) -> Dataset:
    """Read a headed CSV into per-asset TimeSeries on a shared time grid:
    the columns ``assets`` names (a collection of one or more distinct
    labels, not one string), or every column.  The selection and
    ``forward_fill`` (a ``bool``) are checked before the file is opened, and
    a selected column whose header name is blank is an error at line 1,
    before any row is parsed; an unselected one is ignored.

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
    selected = None if assets is None else _labels(assets, "assets")
    forward_fill = _flag(forward_fill, "forward_fill")
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"no such dataset file: {path}")
    cuts = _cuts(path)
    with _read_csv(path, cuts[0] if cuts else None) as (header, _, stream):
        if len(header) < 2:
            raise _located(path, 1, None, "header must name a timestamp and at least one asset")
        ts_label, *columns = header
        selected = columns if selected is None else selected
        missing = [a for a in selected if a not in columns]
        if missing:
            raise ValueError(f"{path}: requested columns not in header: {missing}")
        if "" in selected:
            raise _located(path, 1, header.index("") + 1, "empty asset label")
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
                   timestamp_label=ts_label, digest=_sha256_file(path), path=path)


def write_dataset(dataset: Dataset, path) -> str:
    """Write a dataset back to CSV; returns the sha256 of the written bytes.

    Values round-trip exactly: reloading yields identical series.
    """
    path = Path(path)
    first = next(iter(dataset.series.values()))
    ts = np.arange(len(first), dtype=np.float64) if first.timestamps is None else first.timestamps
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
    order.  ``assets`` follows the selection rule of ``load_dataset``.
    """
    labels = _labels(assets, "assets")
    length, seed = _integer(length, "length", 2), _integer(seed, "seed", 0)
    spacing = _integer(spacing, "spacing", 1)
    ts = np.arange(length, dtype=np.float64) * spacing
    series: dict[str, TimeSeries] = {}
    for i, label in enumerate(labels):
        rng = np.random.default_rng(np.random.SeedSequence((seed, i)))
        eps = rng.standard_normal(length)
        # persistence spread over [-0.3, 0.6): distinct plane positions per asset
        phi = -0.3 + 0.9 * (i / len(labels))
        returns = np.empty(length)
        returns[0] = eps[0]
        for t in range(1, length):
            returns[t] = phi * returns[t - 1] + eps[t]
        prices = 100.0 * np.exp(0.001 * np.cumsum(returns))
        series[label] = TimeSeries(prices, ts)
    return Dataset(series=series, fill_counts={a: 0 for a in labels})


def _nonpositive(series: TimeSeries) -> int | None:
    """The position of the first value of ``series`` that is not positive,
    if any: log returns need positive values."""
    bad = np.flatnonzero(series.values <= 0)
    return int(bad[0]) if bad.size else None


def log_return_series(series: TimeSeries) -> TimeSeries:
    """Logarithmic returns ``ln(x_t / x_{t-1})``; length shrinks by one."""
    bad = _nonpositive(series)
    if bad is not None:
        raise ValueError(f"log returns need positive values; offender at position {bad}")
    # One buffer: each difference overwrites a log that no later one reads,
    # the same bits as ``np.diff(np.log(...))`` without a second array.
    logs = np.log(series.values)
    values = np.subtract(logs[1:], logs[:-1], out=logs[:-1])
    ts = None if series.timestamps is None else series.timestamps[1:]
    return _on_grid(values, ts)


@_checked
class RunConfig(NamedTuple):
    """Everything a full analysis run depends on, manifest-recordable: the
    counts are checked and stored as ``int``, ``log_returns`` as ``bool``,
    ``assets`` (if given: not empty, no label twice) as a tuple and
    ``fbm_hursts`` as a tuple of ``float``; either given as a string or a
    scalar is refused.  Every setting that can be
    checked without the data is checked here, before any input is read:
    each Hurst exponent, the window against the embedding, the selection,
    and the baseline when ``assets`` names the columns."""

    ordinal: OrdinalConfig = OrdinalConfig()
    window: WindowParams = WindowParams()
    assets: tuple[str, ...] | None = None
    log_returns: bool = False
    baseline: str | None = None
    bounds_resolution: int = 2000
    fbm_hursts: tuple[float, ...] = ()
    fbm_sims: int = 500
    seed: int = 42

    def _check(self):
        resolution, sims, seed = (_integer(getattr(self, name), name, minimum) for name, minimum
                                  in (("bounds_resolution", 2), ("fbm_sims", 1), ("seed", 0)))
        log_returns = _flag(self.log_returns, "log_returns")
        hursts = _values(self.fbm_hursts, "fbm_hursts")
        for hurst in hursts:
            _check_hurst(hurst, "each of fbm_hursts")
        self.ordinal._admitted_windows(self.window.size, "window")
        assets = None if self.assets is None else _labels(self.assets, "assets")
        if self.baseline is not None and assets is not None:
            _check_baseline(self.baseline, assets)
        return (*self[:2], assets, log_returns, self.baseline, resolution,
                tuple(map(float, hursts)), sims, seed)

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


class AnalysisBundle(NamedTuple):
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

    The tests run only with at least two assets and at least two windows
    per asset; otherwise the ANOVA slots stay empty, and no tree holds
    ``anova.csv``, ``pairwise_anova.csv`` or ``anova-intervals`` plot data.
    With a single asset the ranking has one entry.  Randomness enters only
    through the fBm baselines, driven by ``config.seed``.  The selection and
    the baseline are checked before any asset is rolled.  Under
    ``log_returns``, a value that is not positive in a dataset loaded from
    a file is an error at its line and column.
    """
    selected = dataset.assets if config.assets is None else config.assets
    missing = [a for a in selected if a not in dataset.series]
    if missing:
        raise ValueError(f"assets not in dataset: {missing}")
    if config.baseline is not None:
        _check_baseline(config.baseline, selected)

    warnings: list[str] = []
    caveats: list[str] = []
    rolling: dict[str, RollingResult] = {}
    for asset in selected:
        series = dataset.series[asset]
        if config.log_returns and dataset.path is not None:
            bad = _nonpositive(series)
            if bad is not None:
                header, line, row = _data_row(dataset.path, bad)
                raise _located(dataset.path, line, asset, "log returns need positive "
                               f"values, got {row[header.index(asset)].strip()!r}")
        try:
            if config.log_returns:
                series = log_return_series(series)
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

    groups = {a: _groups(rolling[a]) for a in selected}
    summaries = {a: _summary(*groups[a]) for a in selected}
    ranking = rank_assets([summaries[a] for a in selected])

    anova_entropy = anova_complexity = None
    pairwise: list[PairwiseComparison] = []
    if len(selected) >= 2 and min(r.window_starts.size for r in rolling.values()) >= 2:
        baseline = config.baseline if config.baseline is not None else selected[0]
        anova_entropy, anova_complexity, pairwise = _tests(groups, baseline)

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
    """One row per window of every asset.  End timestamps are text, each
    asset's formatted apart, with empty cells for an asset that has none."""
    results = rolling.values()
    return _Table(_WINDOW_HEADER, (
        [a for a, r in rolling.items() for _ in range(r.window_starts.size)],
        np.concatenate([np.arange(r.window_starts.size) for r in results]),
        np.concatenate([r.window_starts for r in results]),
        [t for r in results for t in ([""] * r.window_starts.size
                                      if r.end_timestamps is None else _text(r.end_timestamps))],
        np.concatenate([r.entropies for r in results]),
        np.concatenate([r.complexities for r in results]),
    ))


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


def _plot_kinds(bundle: AnalysisBundle) -> list[str]:
    """The plot kinds ``bundle`` can show; anova-intervals needs pairwise results."""
    return [k for k in PLOT_KINDS if bundle.pairwise or k != "anova-intervals"]


def _plot_name(kind: str) -> str:
    return f"plot_{kind.replace('-', '_')}.csv"


def _check_plot_kind(kind: str) -> None:
    if kind not in PLOT_KINDS:
        raise ValueError(f"unknown plot kind {kind!r}; expected one of {PLOT_KINDS}")


def _plot_table(bundle: AnalysisBundle, kind: str, windows: _Table) -> _Table:
    """The table of one plot kind, columns of a result table copied
    verbatim; ``windows`` is the window table, formatted or not."""
    _check_plot_kind(kind)
    if kind == "entropy-evolution":
        return windows.select("asset", "end_timestamp", "entropy")
    if kind == "cecp-scatter":
        return windows.select("asset", "window_index", "entropy", "complexity")
    if kind == "cecp-means":
        return _Table(("asset", "mean_H", "mean_C", "std_H", "std_C"),
                      _summaries_table(bundle).columns[:5])
    if not bundle.pairwise:  # anova-intervals
        raise ValueError("anova-intervals needs pairwise baseline results")
    return _pairwise_table(bundle.pairwise).select(
        "asset", "baseline", "metric", "mean_diff", "significant_1pct", "significant_5pct")


def _write_tree(bundle: AnalysisBundle, out_dir, kinds: Sequence[str]) -> list[Path]:
    """Write the result tables, the plot data of ``kinds`` and, last, the
    manifest of exactly those files; returns the paths, plot data last.
    Every table is built first, the window table formatted once, so a plot
    kind that cannot be made leaves no file; then a directory holding a file
    this call would not write is refused, untouched."""
    windows = _windows_table(bundle.rolling).formatted()
    tables = {"windows.csv": windows, "summaries.csv": _summaries_table(bundle),
              "ranking.csv": _ranking_table(bundle.ranking)}
    if bundle.pairwise:
        tables["anova.csv"] = _anova_table(bundle)
        tables["pairwise_anova.csv"] = _pairwise_table(bundle.pairwise)
    tables["bounds.csv"] = _bounds_table(bundle.lower, bundle.upper)
    if bundle.clouds:
        tables["fbm_clouds.csv"] = _clouds_table(bundle.clouds)
    plots = {_plot_name(kind): _plot_table(bundle, kind, windows) for kind in kinds}
    out = Path(out_dir)
    stale = sorted({p.name for p in out.glob("*") if p.is_file()}
                   - {*tables, *plots, "manifest.json"})
    if stale:
        raise FileExistsError(f"{out}: output directory holds files this run does not "
                              f"write: {', '.join(stale)}; use a new or empty directory")
    out.mkdir(parents=True, exist_ok=True)
    files = {out / name: table for name, table in {**tables, **plots}.items()}
    for path, table in files.items():
        _write(table, path)
    _write_json({
        "tool": "cecplane",
        "tool_version": __version__,
        "config": bundle.config.as_dict(),
        "input_digest": bundle.input_digest,
        "fill_counts": bundle.fill_counts,
        "caveats": list(bundle.caveats),
        "warnings": list(bundle.warnings),
        "files": {p.name: _sha256_file(p) for p in files},
    }, out / "manifest.json")
    return [out / name for name in [*tables, "manifest.json", *plots]]


def write_bundle(bundle: AnalysisBundle, out_dir) -> list[Path]:
    """Write every result table plus a manifest; returns the written paths.

    Plot data of a kind this bundle can show that is already in ``out_dir``
    (from ``emit_plot_data`` beforehand, say) is written again from the
    bundle.  A directory holding any other file (an earlier run's
    ``anova.csv``, say) is a ``FileExistsError`` and is left as it was.  The
    manifest, written last, records the config, seed, input digest, tool
    version, and the sha256 of every other file, so it covers the whole
    directory.  It contains no wall-clock data, so identical runs produce
    identical trees.
    """
    out = Path(out_dir)
    return _write_tree(bundle, out,
                       [k for k in _plot_kinds(bundle) if (out / _plot_name(k)).is_file()])


def emit_plot_data(bundle: AnalysisBundle, kind: str, out_dir) -> Path:
    """Write one tidy CSV per figure kind; one row per plotted mark.

    Values are copied from the bundle verbatim — the emitter never
    recomputes anything, and formats only the columns it writes.  No
    manifest is written; ``write_bundle`` afterwards covers the file.
    """
    table = _plot_table(bundle, kind, _windows_table(bundle.rolling))
    path = Path(out_dir) / _plot_name(kind)
    path.parent.mkdir(parents=True, exist_ok=True)
    _write(table, path)
    return path
