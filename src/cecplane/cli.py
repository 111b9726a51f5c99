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
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import lower_bound_curve, upper_bound_curve
from .dataio import (
    PLOT_KINDS,
    RunConfig,
    _data_rows,
    _fmt,
    _write_csv,
    emit_plot_data,
    load_dataset,
    run_pipeline,
    write_bundle,
)
from .fbm import baseline_cloud
from .patterns import OrdinalConfig
from .quantifiers import CecpPoint
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


def _write_or_print(path: str | None, header, rows) -> None:
    if path is None:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(c) for c in row])
        sys.stdout.write(buf.getvalue())
    else:
        _write_csv(Path(path), header, rows)


_WINDOW_COLUMNS = ("asset", "window_index", "start_offset", "entropy", "complexity")


def _load_windows(path: str) -> dict[str, RollingResult]:
    """Rebuild per-asset rolling results from the analyze output schema.

    The header must name every column of ``_WINDOW_COLUMNS``; other columns
    are ignored and blank rows skipped.  Every defect is a ValueError that
    names the path, the line and, for a cell, the column: a ragged row, a
    window index or start offset that is not an integer in ``[0, 2**63)``,
    a non-finite entropy or complexity or one off the plane, a window listed
    twice, and window starts that do not advance by one constant stride.  A
    UTF-8 byte-order mark is skipped.
    """
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        line = raw[:exc.start].count(b"\n") + 1
        raise ValueError(f"{path}: line {line}: not UTF-8 text") from None

    def located(line: int, column, message: str) -> ValueError:
        return ValueError(f"{path}: line {line}, column {column!r}: {message}")

    reader = csv.reader(io.StringIO(text, newline=""))
    header = [h.strip() for h in next(reader, [])]
    if not header:
        raise ValueError(f"{path}: line 1: empty file, expected a header row")
    missing = [c for c in _WINDOW_COLUMNS if c not in header]
    if missing:
        raise ValueError(
            f"{path}: line 1: expected columns {sorted(_WINDOW_COLUMNS)}, got {header}"
        )
    for k, name in enumerate(header):
        if name in header[:k]:
            raise located(1, name, "duplicate column name")
    idx = {c: header.index(c) for c in _WINDOW_COLUMNS}

    def cell(line: int, row: list[str], column: str, parse):
        text = row[idx[column]].strip()
        try:
            value = parse(text)
        except ValueError:
            value = None
        if value is None or not math.isfinite(value):
            kind = "an integer" if parse is int else "a finite number"
            raise located(line, column, f"{text!r} is not {kind}")
        return value

    # asset -> window_index -> (line, start_offset, point)
    per_asset: dict[str, dict[int, tuple[int, int, CecpPoint]]] = {}
    for line, row in _data_rows(reader):
        if len(row) != len(header):
            column = header[len(row)] if len(row) < len(header) else len(header) + 1
            raise located(line, column,
                          f"row has {len(row)} cells, header has {len(header)}")
        asset = row[idx["asset"]]
        if not asset.strip():
            raise located(line, "asset", "empty asset label")
        index = cell(line, row, "window_index", int)
        start = cell(line, row, "start_offset", int)
        for column, value in (("window_index", index), ("start_offset", start)):
            if not 0 <= value < 2**63:
                raise located(line, column, f"{value} is outside [0, 2**63)")
        entropy = cell(line, row, "entropy", float)
        complexity = cell(line, row, "complexity", float)
        try:
            point = CecpPoint(entropy, complexity)
        except ValueError as exc:
            column = "entropy" if not _on_plane(entropy) else "complexity"
            raise located(line, column, str(exc)) from None
        windows = per_asset.setdefault(asset, {})
        if index in windows:
            raise located(line, "window_index", f"window {index} of asset {asset!r} "
                          f"already on line {windows[index][0]}")
        windows[index] = (line, start, point)
    if not per_asset:
        raise ValueError(f"{path}: line 1: header but no window rows")
    results = {}
    for asset, windows in per_asset.items():
        rows = [windows[k] for k in sorted(windows)]
        starts = np.array([r[1] for r in rows], dtype=np.int64)
        strides = np.diff(starts)
        bad = np.flatnonzero((strides <= 0) | (strides != strides[:1]))
        if bad.size:
            k = int(bad[0]) + 1
            raise located(rows[k][0], "start_offset",
                          f"asset {asset!r} window starts must advance by a constant "
                          f"positive stride; {starts[k]} follows {starts[k - 1]}, "
                          f"the first stride is {strides[0]}")
        results[asset] = RollingResult(
            asset=asset,
            window_starts=starts,
            points=tuple(r[2] for r in rows),
            samples_per_window=0,  # not recorded in the file format
        )
    return results


def _on_plane(entropy: float) -> bool:
    """Whether ``CecpPoint`` accepts this entropy (with complexity 0)."""
    try:
        CecpPoint(entropy, 0.0)
    except ValueError:
        return False
    return True


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
    kinds = PLOT_KINDS if args.plots == ["all"] else (args.plots or [])
    plots = [emit_plot_data(bundle, kind, args.out) for kind in kinds]
    # The manifest goes last, so that it hashes the plot files too.
    for path in write_bundle(bundle, args.out) + plots:
        print(path)
    return 0


def _cmd_bounds(args) -> int:
    config = OrdinalConfig(args.dim, 1)
    lower = lower_bound_curve(config.num_patterns, args.resolution)
    upper = upper_bound_curve(config.num_patterns, args.resolution)
    _write_or_print(args.out, ["H", "C_lower", "C_upper"],
                    zip(lower.entropy, lower.complexity, upper.complexity))
    return 0


def _cmd_fbm(args) -> int:
    config = OrdinalConfig(args.dim, args.tau)
    rows = []
    for hurst in args.hurst:
        cloud = baseline_cloud(hurst, args.sims, args.length, config, args.seed)
        rows.append((cloud.hurst, cloud.mean_point.entropy,
                     cloud.mean_point.complexity, cloud.std_entropy,
                     cloud.std_complexity, cloud.sims))
    _write_or_print(args.out,
                    ["hurst", "mean_entropy", "mean_complexity",
                     "std_entropy", "std_complexity", "sims"],
                    rows)
    return 0


def _cmd_rank(args) -> int:
    results = _load_windows(args.input)
    summaries = [summarize(results[a]) for a in results]
    entries = rank_assets(summaries)
    _write_or_print(args.out, ["rank", "asset", "distance", "tied"],
                    ((e.rank, e.asset, e.distance, e.tied) for e in entries))
    return 0


def _cmd_anova(args) -> int:
    results = _load_windows(args.input)
    if len(results) < 2:
        raise ValueError("insufficient groups: ANOVA needs at least two assets")
    labels = sorted(results)
    payload = {}
    for metric in ("entropy", "complexity"):
        anova = one_way_anova(
            [(a, (results[a].entropies if metric == "entropy"
                  else results[a].complexities).tolist()) for a in labels]
        )
        payload[metric] = {
            "ss_between": anova.ss_between, "ss_within": anova.ss_within,
            "ss_total": anova.ss_total, "df_between": anova.df_between,
            "df_within": anova.df_within, "ms_between": anova.ms_between,
            "ms_within": anova.ms_within, "f_stat": anova.f_stat,
            "p_value": anova.p_value, "degenerate": anova.degenerate,
        }
    baseline = args.baseline if args.baseline is not None else labels[0]
    pairwise = pairwise_anova_vs_baseline(results, baseline)
    payload["pairwise"] = [
        {
            "asset": c.asset, "baseline": c.baseline, "metric": metric,
            "mean_diff": diff, "f_stat": anova.f_stat, "p_value": anova.p_value,
            "significant_5pct": anova.p_value < 0.05,
            "significant_1pct": anova.p_value < 0.01,
        }
        for c in pairwise
        for metric, anova, diff in (
            ("entropy", c.entropy_anova, c.entropy_mean_diff),
            ("complexity", c.complexity_anova, c.complexity_mean_diff),
        )
    ]
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
    with open(args.metric, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "asset" not in reader.fieldnames:
            raise ValueError(f"{args.metric}: expected an 'asset' column")
        metric_names = [c for c in reader.fieldnames if c != "asset"]
        if not metric_names:
            raise ValueError(f"{args.metric}: no metric columns besides 'asset'")
        metrics: dict[str, dict[str, float]] = {m: {} for m in metric_names}
        for row in reader:
            for m in metric_names:
                metrics[m][row["asset"]] = float(row[m])
    rows = []
    for name in metric_names:
        common = [a for a in distances if a in metrics[name]]
        if len(common) < 3:
            raise ValueError(
                f"metric {name!r}: only {len(common)} assets overlap the windows file"
            )
        result = spearman_rho([distances[a] for a in common],
                              [metrics[name][a] for a in common])
        rows.append((name, result.rho, result.p_value, result.n))
    _write_or_print(args.out, ["metric", "rho", "p_value", "n"], rows)
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
