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


_WINDOW_COLUMNS = ("asset", "window_index", "start_offset", "entropy", "complexity")


def _load_windows(path: str) -> dict[str, RollingResult]:
    """Rebuild per-asset rolling results from the analyze output schema.

    The header must name every column of ``_WINDOW_COLUMNS``; other columns
    are ignored.  Besides the defects of the shared reader (``_tables``),
    each of these is an error naming its line and column, in this order
    along a row: an empty asset label, a window index or start offset that
    is not an integer in ``[0, 2**63)``, an entropy or complexity that is
    not finite or off the plane, and a window listed twice.  Each column is
    converted and checked whole, and the defect on the earliest line is
    reported.  Then each asset's window starts must advance by one constant
    stride.
    """
    import numpy as np

    from ._tables import _Columns, _located
    from .rolling import RollingResult
    from .special import _off_plane

    table = _Columns(path)
    if any(c not in table.header for c in _WINDOW_COLUMNS):
        raise ValueError(f"{path}: line 1: expected columns "
                         f"{sorted(_WINDOW_COLUMNS)}, got {table.header}")
    if not table.lines:
        table.check()
        raise ValueError(f"{path}: line 1: header but no window rows")
    cells = table.cells
    table.rule([not a.strip() for a in cells["asset"]], "asset", lambda k: "empty asset label")
    ints = {c: table.ints(c) for c in ("window_index", "start_offset")}
    for c, v in ints.items():
        big = np.array(v, dtype=object)
        table.rule((big < 0) | (big >= 2**63), c, lambda k: f"{v[k]} is outside [0, 2**63)")
    floats = {c: table.floats(c) for c in ("entropy", "complexity")}
    m = min(v.size for v in floats.values())
    for c, off, why in _off_plane(floats["entropy"][:m], floats["complexity"][:m]):
        table.rule(off, c, lambda k: why.format(floats[c][k].item()))
    pairs = list(zip(cells["asset"], ints["window_index"]))
    table.repeats(pairs, "window_index", lambda k, line: f"window {pairs[k][1]} of asset "
                                                         f"{pairs[k][0]!r} already on line {line}")
    table.check()

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
            raise _located(path, table.lines[at[k]], "start_offset",
                           f"asset {asset!r} window starts must advance by a constant "
                           f"positive stride; {starts[k]} follows {starts[k - 1]}, "
                           f"the first stride is {strides[0]}")
        # samples_per_window is not recorded in the file format
        results[asset] = RollingResult(asset, starts, floats["entropy"][at],
                                       floats["complexity"][at], samples_per_window=0)
    return results


def _load_metrics(path: str) -> dict[str, dict[str, float]]:
    """Per-metric ``{asset: value}`` from a CSV with an ``asset`` column and
    one column per metric, in header order.  Besides the defects of the
    shared reader (``_tables``), an empty asset label, an asset listed twice
    and a metric that is not a finite number are errors naming their line
    and column, the defect on the earliest line reported.
    """
    from ._tables import _Columns

    table = _Columns(path)
    if "asset" not in table.header:
        raise ValueError(f"{path}: line 1: expected an 'asset' column, got {table.header}")
    names = [name for name in table.header if name != "asset"]
    if not names:
        raise ValueError(f"{path}: line 1: no metric columns besides 'asset'")
    assets = table.cells["asset"]
    table.rule([not a.strip() for a in assets], "asset", lambda k: "empty asset label")
    table.repeats(assets, "asset", lambda k, line: f"asset {assets[k]!r} already on line {line}")
    metrics = {name: dict(zip(assets, table.floats(name).tolist())) for name in names}
    table.check()
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
