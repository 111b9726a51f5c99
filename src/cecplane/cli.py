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

Each handler imports the modules it runs, so ``--version`` loads neither
numpy nor the pipeline, and ``rank``, ``anova`` and ``spearman`` load the
statistics and the table writer but not the encoder or the kernel.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
from typing import TYPE_CHECKING

from . import PLOT_KINDS, __version__

if TYPE_CHECKING:
    from .rolling import RollingResult

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
    import csv
    import io
    from pathlib import Path

    from ._tables import _data_rows

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


def _cell(path: str, line: int, column: str, text: str) -> float:
    """The cell as a finite float; an error naming the cell otherwise."""
    text = text.strip()
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise _located(path, line, column, f"{text!r} is not a finite number")
    return value


def _parsed(cells, parse) -> list:
    """``parse`` of each cell up to the first one it refuses, which is
    therefore at the length of the result."""
    values = []
    with contextlib.suppress(ValueError):
        values.extend(map(parse, cells))
    return values


_WINDOW_COLUMNS = ("asset", "window_index", "start_offset", "entropy", "complexity")


def _load_windows(path: str) -> dict[str, RollingResult]:
    """Rebuild per-asset rolling results from the analyze output schema.

    The header must name every column of ``_WINDOW_COLUMNS``; other columns
    are ignored.  Besides the defects :func:`_read_table` reports, each of
    these is an error naming its line and column, in this order along a
    row: an empty asset label, a window index or start offset that is not
    an integer in ``[0, 2**63)``, an entropy or complexity that is not
    finite or off the plane, and a window listed twice.  Each column is
    converted and checked whole, and the defect on the earliest line is
    reported.  Then each asset's window starts must advance by one constant
    stride.
    """
    import numpy as np

    from .rolling import RollingResult
    from .special import _off_plane

    header, rows = _read_table(path)
    if any(c not in header for c in _WINDOW_COLUMNS):
        raise ValueError(f"{path}: line 1: expected columns "
                         f"{sorted(_WINDOW_COLUMNS)}, got {header}")
    lines, table, ragged = [], [], None
    try:
        for line, row in rows:
            lines.append(line)
            table.append(row)
    except ValueError as exc:  # a ragged row; a line above it may hold a defect too
        ragged = exc
    if not table:
        raise ragged or ValueError(f"{path}: line 1: header but no window rows")
    n, cells = len(table), dict(zip(header, zip(*table)))
    found = []  # (row, column, message) of each rule's first defect, in rule order

    def rule(bad, column, message):
        hits = np.flatnonzero(bad)
        if hits.size:
            found.append((int(hits[0]), column, message(int(hits[0]))))

    rule([not a.strip() for a in cells["asset"]], "asset", lambda k: "empty asset label")
    ints = {c: _parsed(cells[c], int) for c in ("window_index", "start_offset")}
    for c, v in ints.items():
        rule(np.arange(n) == len(v), c, lambda k: f"{cells[c][k].strip()!r} is not an integer")
    for c, v in ints.items():
        big = np.array(v, dtype=object)
        rule((big < 0) | (big >= 2**63), c, lambda k: f"{v[k]} is outside [0, 2**63)")
    floats = {}
    for c in ("entropy", "complexity"):
        v = floats[c] = np.array(_parsed(cells[c], float), dtype=np.float64)
        rule(np.append(~np.isfinite(v), v.size < n), c,
             lambda k: f"{cells[c][k].strip()!r} is not a finite number")
    m = min(v.size for v in floats.values())
    for c, off, why in _off_plane(floats["entropy"][:m], floats["complexity"][:m]):
        rule(off, c, lambda k: why.format(floats[c][k].item()))
    pairs = list(zip(cells["asset"], ints["window_index"]))
    first = dict(zip(reversed(pairs), range(len(pairs) - 1, -1, -1)))
    if len(first) < len(pairs):
        rule([first[p] < k for k, p in enumerate(pairs)], "window_index",
             lambda k: f"window {pairs[k][1]} of asset {pairs[k][0]!r} "
                       f"already on line {lines[first[pairs[k]]]}")
    if found:
        k, column, message = min(found, key=lambda defect: defect[0])
        raise _located(path, lines[k], column, message)
    if ragged is not None:
        raise ragged

    # Rows by asset in order of first appearance, by window index within one.
    codes: dict[str, int] = {}
    code = np.array([codes.setdefault(a, len(codes)) for a in cells["asset"]])
    order = np.lexsort((np.array(ints["window_index"], dtype=np.int64), code))
    all_starts = np.array(ints["start_offset"], dtype=np.int64)
    results = {}
    for asset, at in zip(codes, np.split(order, np.cumsum(np.bincount(code))[:-1])):
        starts = all_starts[at]
        strides = np.diff(starts)
        bad = np.flatnonzero((strides <= 0) | (strides != strides[:1]))
        if bad.size:
            k = int(bad[0]) + 1
            raise _located(path, lines[at[k]], "start_offset",
                           f"asset {asset!r} window starts must advance by a constant "
                           f"positive stride; {starts[k]} follows {starts[k - 1]}, "
                           f"the first stride is {strides[0]}")
        # samples_per_window is not recorded in the file format
        results[asset] = RollingResult(asset, starts, floats["entropy"][at],
                                       floats["complexity"][at], samples_per_window=0)
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
            metrics[name][asset] = _cell(path, line, name, row[k])
    return metrics


def _cmd_analyze(args) -> int:
    from .dataio import RunConfig, _write_tree, load_dataset, run_pipeline
    from .patterns import OrdinalConfig
    from .rolling import WindowParams

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
    from ._tables import _bounds_table, _write
    from .bounds import lower_bound_curve, upper_bound_curve
    from .patterns import OrdinalConfig

    config = OrdinalConfig(args.dim, 1)
    lower = lower_bound_curve(config.num_patterns, args.resolution)
    upper = upper_bound_curve(config.num_patterns, args.resolution)
    _write(_bounds_table(lower, upper), args.out)
    return 0


def _cmd_fbm(args) -> int:
    from ._tables import _clouds_table, _write
    from .fbm import baseline_cloud
    from .patterns import OrdinalConfig

    config = OrdinalConfig(args.dim, args.tau)
    clouds = [baseline_cloud(hurst, args.sims, args.length, config, args.seed)
              for hurst in args.hurst]
    _write(_clouds_table(clouds), args.out)
    return 0


def _cmd_rank(args) -> int:
    from ._tables import _ranking_table, _write
    from .stats import rank_assets, summarize

    results = _load_windows(args.input)
    summaries = [summarize(results[a]) for a in results]
    _write(_ranking_table(rank_assets(summaries)), args.out)
    return 0


def _cmd_anova(args) -> int:
    import json
    from dataclasses import asdict
    from pathlib import Path

    from ._tables import _pairwise_table
    from .stats import one_way_anova, pairwise_anova_vs_baseline

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
                           for row in zip(*(c if isinstance(c, list) else c.tolist()
                                            for c in pairwise.columns))]
    payload["caveat"] = ("window overlap unknown when reading from file; "
                         "p-values are descriptive")
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text)
    return 0


def _cmd_spearman(args) -> int:
    from ._tables import _records, _Table, _write
    from .stats import efficiency_distance, spearman_rho, summarize

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
        import json

        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
