"""Command-line interface.

Subcommands::

    analyze   full pipeline on a CSV dataset, results written to a directory
    bounds    theoretical envelope curves as CSV
    fbm       fractional-Brownian-motion baseline cloud table
    rank      efficiency ranking from a windows.csv produced by analyze
    anova     all-asset and pairwise-vs-baseline ANOVA from a windows.csv
    spearman  rank correlation of efficiency distances against size metrics

Exit code 0 on success.  Any failure prints a one-line JSON object
(``{"error": ..., "message": ...}``) to stderr and returns a nonzero code.
Advisory warnings (e.g. undersampled histograms) also go to stderr; files
and stdout stay deterministic.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import lower_bound_curve, upper_bound_curve
from .dataio import (
    PLOT_KINDS,
    RunConfig,
    _bounds_table,
    _clouds_table,
    _data_rows,
    _pairwise_table,
    _ranking_table,
    _records,
    _Table,
    _write,
    _write_tree,
    load_dataset,
    run_pipeline,
)
from .fbm import baseline_cloud
from .patterns import OrdinalConfig
from .quantifiers import _off_plane
from .rolling import RollingResult, WindowParams
from .stats import (
    efficiency_distance,
    one_way_anova,
    pairwise_anova_vs_baseline,
    rank_assets,
    spearman_rho,
    summarize,
)

__all__ = ["main"]


def _csv_list(text: str) -> list[str]:
    items = [t.strip() for t in text.split(",") if t.strip()]
    if not items:
        raise argparse.ArgumentTypeError("expected a comma-separated list")
    return items


def _float_list(text: str) -> list[float]:
    try:
        return [float(t) for t in _csv_list(text)]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _located(path: str, line: int, column, message: str) -> ValueError:
    return ValueError(f"{path}: line {line}, column {column!r}: {message}")


def _read_table(path: str):
    """The stripped header of a UTF-8 CSV file and its ``(line, row)`` data
    rows, blank rows skipped.  Each defect is a ValueError naming the path
    and the line: bytes that are not UTF-8, an empty file, a repeated column
    name, and a row whose cell count differs from the header's (naming the
    first missing or extra column).  A byte-order mark is skipped.
    """
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        line = raw[:exc.start].count(b"\n") + 1
        raise ValueError(f"{path}: line {line}: not UTF-8 text") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    header = [h.strip() for h in next(reader, [])]
    if not header:
        raise ValueError(f"{path}: line 1: empty file, expected a header row")
    for k, name in enumerate(header):
        if name in header[:k]:
            raise _located(path, 1, name, "duplicate column name")

    def rows():
        for line, row in _data_rows(reader):
            if len(row) != len(header):
                column = header[len(row)] if len(row) < len(header) else len(header) + 1
                raise _located(path, line, column,
                               f"row has {len(row)} cells, header has {len(header)}")
            yield line, row

    return header, rows()


def _cell(path: str, line: int, column: str, text: str, parse):
    """The cell parsed by ``int`` or ``float``; an error naming the cell
    when that fails or gives a non-finite number."""
    text = text.strip()
    try:
        value = parse(text)
    except ValueError:
        value = None
    if value is None or not math.isfinite(value):
        kind = "an integer" if parse is int else "a finite number"
        raise _located(path, line, column, f"{text!r} is not {kind}")
    return value


_WINDOW_COLUMNS = ("asset", "window_index", "start_offset", "entropy", "complexity")


def _load_windows(path: str) -> dict[str, RollingResult]:
    """Rebuild per-asset rolling results from the analyze output schema.

    The header must name every column of ``_WINDOW_COLUMNS``; other columns
    are ignored.  Besides the defects :func:`_read_table` reports, each of
    these is an error naming its line and column: a window index or start
    offset that is not an integer in ``[0, 2**63)``, an entropy or
    complexity that is not finite or off the plane, a window listed twice,
    and window starts that do not advance by one constant stride.
    """
    header, rows = _read_table(path)
    if any(c not in header for c in _WINDOW_COLUMNS):
        raise ValueError(
            f"{path}: line 1: expected columns {sorted(_WINDOW_COLUMNS)}, got {header}"
        )
    idx = {c: header.index(c) for c in _WINDOW_COLUMNS}
    # asset -> window_index -> (line, start_offset, entropy, complexity)
    per_asset: dict[str, dict[int, tuple[int, int, float, float]]] = {}
    for line, row in rows:
        asset = row[idx["asset"]]
        if not asset.strip():
            raise _located(path, line, "asset", "empty asset label")
        index = _cell(path, line, "window_index", row[idx["window_index"]], int)
        start = _cell(path, line, "start_offset", row[idx["start_offset"]], int)
        for column, value in (("window_index", index), ("start_offset", start)):
            if not 0 <= value < 2**63:
                raise _located(path, line, column, f"{value} is outside [0, 2**63)")
        entropy = _cell(path, line, "entropy", row[idx["entropy"]], float)
        complexity = _cell(path, line, "complexity", row[idx["complexity"]], float)
        error = _off_plane(entropy, complexity)
        if error is not None:
            raise _located(path, line, *error)
        windows = per_asset.setdefault(asset, {})
        if index in windows:
            raise _located(path, line, "window_index", f"window {index} of asset {asset!r} "
                           f"already on line {windows[index][0]}")
        windows[index] = (line, start, entropy, complexity)
    if not per_asset:
        raise ValueError(f"{path}: line 1: header but no window rows")
    results = {}
    for asset, windows in per_asset.items():
        lines, starts, entropies, complexities = zip(*(windows[k] for k in sorted(windows)))
        starts = np.array(starts, dtype=np.int64)
        strides = np.diff(starts)
        bad = np.flatnonzero((strides <= 0) | (strides != strides[:1]))
        if bad.size:
            k = int(bad[0]) + 1
            raise _located(path, lines[k], "start_offset",
                           f"asset {asset!r} window starts must advance by a constant "
                           f"positive stride; {starts[k]} follows {starts[k - 1]}, "
                           f"the first stride is {strides[0]}")
        results[asset] = RollingResult(
            asset=asset,
            window_starts=starts,
            entropies=entropies,
            complexities=complexities,
            samples_per_window=0,  # not recorded in the file format
        )
    return results


def _load_metrics(path: str) -> dict[str, dict[str, float]]:
    """Per-metric ``{asset: value}`` from a CSV with an ``asset`` column and
    one column per metric, in header order.  Besides the defects
    :func:`_read_table` reports, an empty asset label, a metric that is not
    a finite number and an asset listed twice are errors naming their line
    and column.
    """
    header, rows = _read_table(path)
    if "asset" not in header:
        raise ValueError(f"{path}: line 1: expected an 'asset' column, got {header}")
    columns = [(k, name) for k, name in enumerate(header) if name != "asset"]
    if not columns:
        raise ValueError(f"{path}: line 1: no metric columns besides 'asset'")
    at = header.index("asset")
    metrics: dict[str, dict[str, float]] = {name: {} for _, name in columns}
    first_line: dict[str, int] = {}
    for line, row in rows:
        asset = row[at]
        if not asset.strip():
            raise _located(path, line, "asset", "empty asset label")
        if asset in first_line:
            raise _located(path, line, "asset",
                           f"asset {asset!r} already on line {first_line[asset]}")
        first_line[asset] = line
        for k, name in columns:
            metrics[name][asset] = _cell(path, line, name, row[k], float)
    return metrics


def _cmd_analyze(args) -> int:
    config = RunConfig(
        ordinal=OrdinalConfig(args.dim, args.tau),
        window=WindowParams(args.window, args.step),
        assets=None if args.assets is None else tuple(args.assets),
        log_returns=args.log_returns,
        baseline=args.baseline,
        bounds_resolution=args.bounds_resolution,
        fbm_hursts=tuple(args.fbm_hurst or ()),
        fbm_sims=args.sims,
        seed=args.seed,
    )
    dataset = load_dataset(args.input, assets=args.assets,
                           forward_fill=args.forward_fill)
    bundle = run_pipeline(config, dataset)
    for warning in bundle.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    kinds = args.plots or []
    if kinds == ["all"]:  # every kind this run can show
        kinds = [k for k in PLOT_KINDS if bundle.pairwise or k != "anova-intervals"]
    for path in _write_tree(bundle, args.out, kinds):
        print(path)
    return 0


def _cmd_bounds(args) -> int:
    config = OrdinalConfig(args.dim, 1)
    lower = lower_bound_curve(config.num_patterns, args.resolution)
    upper = upper_bound_curve(config.num_patterns, args.resolution)
    _write(_bounds_table(lower, upper), args.out)
    return 0


def _cmd_fbm(args) -> int:
    config = OrdinalConfig(args.dim, args.tau)
    clouds = [baseline_cloud(hurst, args.sims, args.length, config, args.seed)
              for hurst in args.hurst]
    _write(_clouds_table(clouds), args.out)
    return 0


def _cmd_rank(args) -> int:
    results = _load_windows(args.input)
    summaries = [summarize(results[a]) for a in results]
    _write(_ranking_table(rank_assets(summaries)), args.out)
    return 0


def _cmd_anova(args) -> int:
    results = _load_windows(args.input)
    if len(results) < 2:
        raise ValueError("insufficient groups: ANOVA needs at least two assets")
    labels = sorted(results)
    payload = {}
    for metric, column in (("entropy", "entropies"), ("complexity", "complexities")):
        payload[metric] = asdict(
            one_way_anova([(a, getattr(results[a], column)) for a in labels]))
    baseline = args.baseline if args.baseline is not None else labels[0]
    pairwise = _pairwise_table(pairwise_anova_vs_baseline(results, baseline))
    payload["pairwise"] = [dict(zip(pairwise.header, row))
                           for row in zip(*(np.asarray(c).tolist() for c in pairwise.columns))]
    payload["caveat"] = ("window overlap unknown when reading from file; "
                         "p-values are descriptive")
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text)
    return 0


def _cmd_spearman(args) -> int:
    results = _load_windows(args.input)
    summaries = {a: summarize(results[a]) for a in results}
    distances = {a: efficiency_distance(s) for a, s in summaries.items()}
    metrics = _load_metrics(args.metric)
    correlations = {}
    for name in metrics:
        common = [a for a in distances if a in metrics[name]]
        if len(common) < 3:
            raise ValueError(
                f"metric {name!r}: only {len(common)} assets overlap the windows file"
            )
        correlations[name] = spearman_rho([distances[a] for a in common],
                                          [metrics[name][a] for a in common])
    table = _records(correlations.values(), "rho", "p_value", "n")
    _write(_Table(("metric", *table.header), (list(correlations), *table.columns)), args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cecplane",
        description="Ordinal-pattern complexity-entropy analysis of time series",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="run the full pipeline on a CSV dataset")
    p.add_argument("--input", required=True, help="dataset CSV (timestamp + asset columns)")
    p.add_argument("--assets", type=_csv_list, default=None,
                   help="comma-separated asset columns (default: all)")
    p.add_argument("--dim", type=int, default=4, help="pattern length D (default 4)")
    p.add_argument("--tau", type=int, default=1, help="pattern delay (default 1)")
    p.add_argument("--window", type=int, default=360, help="window size N (default 360)")
    p.add_argument("--step", type=int, default=60, help="window step (default 60)")
    p.add_argument("--log-returns", action="store_true",
                   help="analyze log returns instead of raw values")
    p.add_argument("--forward-fill", action="store_true",
                   help="carry forward previous values over missing cells")
    p.add_argument("--baseline", default=None,
                   help="baseline asset for pairwise ANOVA (default: first asset)")
    p.add_argument("--bounds-resolution", type=int, default=2000)
    p.add_argument("--fbm-hurst", type=_float_list, default=None,
                   help="comma-separated Hurst exponents for baseline clouds")
    p.add_argument("--sims", type=int, default=500, help="fBm simulations per cloud")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--plots", type=_csv_list, default=None,
                   help=f"plot-data kinds to emit: {', '.join(PLOT_KINDS)}, or 'all'")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("bounds", help="emit the theoretical envelope curves")
    p.add_argument("--dim", type=int, default=4, help="pattern length D; M = D!")
    p.add_argument("--resolution", type=int, default=2000)
    p.add_argument("--out", default=None, help="output CSV (default: stdout)")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("fbm", help="fBm baseline cloud table")
    p.add_argument("--hurst", type=_float_list, required=True,
                   help="comma-separated Hurst exponents")
    p.add_argument("--sims", type=int, default=500)
    p.add_argument("--length", type=int, default=360)
    p.add_argument("--dim", type=int, default=4)
    p.add_argument("--tau", type=int, default=1)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", default=None, help="output CSV (default: stdout)")
    p.set_defaults(func=_cmd_fbm)

    p = sub.add_parser("rank", help="efficiency ranking from a windows.csv")
    p.add_argument("--input", required=True, help="windows.csv from analyze")
    p.add_argument("--out", default=None, help="output CSV (default: stdout)")
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("anova", help="ANOVA tables from a windows.csv")
    p.add_argument("--input", required=True, help="windows.csv from analyze")
    p.add_argument("--baseline", default=None,
                   help="baseline asset (default: first label alphabetically)")
    p.add_argument("--out", default=None, help="output JSON (default: stdout)")
    p.set_defaults(func=_cmd_anova)

    p = sub.add_parser("spearman",
                       help="rank correlation of efficiency distances vs metrics")
    p.add_argument("--input", required=True, help="windows.csv from analyze")
    p.add_argument("--metric", required=True,
                   help="CSV with an 'asset' column plus one column per metric")
    p.add_argument("--out", default=None, help="output CSV (default: stdout)")
    p.set_defaults(func=_cmd_spearman)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # structured nonzero failure, per the CLI contract
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
