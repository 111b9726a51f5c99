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
and stdout stay deterministic.  Every output is written by ``_tables``: a
CSV table, or ``anova``'s JSON report (an infinite F as ``null``), to
``--out`` or to stdout with the same bytes.  Only ``analyze`` (its
manifest), ``anova`` and a failure's error line load ``json``.

A command run as a process (``cecplane`` or ``python -m cecplane.cli``)
enters through ``_run`` and ends in ``os._exit`` once its output is flushed,
as every forked child does.  The interpreter's shutdown (its last garbage
collections and the teardown of the 225-250 modules a numpy command loads)
would come after the last output byte and change nothing a command writes,
yet it took about a tenth of each command's wall time: with it skipped,
perfbench's fbm-sweep ``run_s`` fell 13% and study ``run_s`` 9%
(``BENCH_22.json``).  ``main(argv)`` returns its code and ends nothing.

Each handler imports the modules it runs, so ``--version`` loads neither
numpy nor the pipeline, and ``rank``, ``anova`` and ``spearman`` load the
read-back of their inputs (``_readback``, which no other command loads),
the statistics, the CSV reader and the table writer, which run on the
standard library alone: the read commands load no numpy.
"""

from __future__ import annotations

import argparse
import atexit
import os
import sys

from . import PLOT_KINDS, __version__

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


def _cmd_analyze(args) -> int:
    from .dataio import (RunConfig, _check_plot_kind, _plot_kinds, _write_tree, load_dataset,
                         run_pipeline)
    from .patterns import OrdinalConfig
    from .rolling import WindowParams

    config = RunConfig(
        ordinal=OrdinalConfig(args.dim, args.tau),
        window=WindowParams(args.window, args.step),
        assets=args.assets,
        log_returns=args.log_returns,
        baseline=args.baseline,
        bounds_resolution=args.bounds_resolution,
        fbm_hursts=args.fbm_hurst or (),
        fbm_sims=args.sims,
        seed=args.seed,
    )
    kinds = args.plots or []
    if kinds != ["all"]:
        for kind in kinds:
            _check_plot_kind(kind)
    # no name holds the dataset, so it is freed before the tree is written
    bundle = run_pipeline(config, load_dataset(args.input, assets=args.assets,
                                               forward_fill=args.forward_fill))
    for warning in bundle.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    for path in _write_tree(bundle, args.out, _plot_kinds(bundle) if kinds == ["all"] else kinds):
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
    from .fbm import _baseline_clouds
    from .patterns import OrdinalConfig

    config = OrdinalConfig(args.dim, args.tau)
    clouds = _baseline_clouds(args.hurst, args.sims, args.length, config, args.seed)
    _write(_clouds_table(clouds), args.out)
    return 0


def _cmd_rank(args) -> int:
    from ._readback import _load_windows
    from ._tables import _ranking_table, _write
    from .stats import rank_assets, summarize

    results = _load_windows(args.input)
    summaries = [summarize(results[a]) for a in results]
    _write(_ranking_table(rank_assets(summaries)), args.out)
    return 0


def _cmd_anova(args) -> int:
    from ._readback import _load_windows
    from ._tables import _pairwise_table, _write_json
    from .stats import _groups, _tests

    results = _load_windows(args.input)
    if len(results) < 2:
        raise ValueError("insufficient groups: ANOVA needs at least two assets")
    labels = sorted(results)
    baseline = args.baseline if args.baseline is not None else labels[0]
    entropy, complexity, comparisons = _tests({a: _groups(results[a]) for a in labels},
                                              baseline)
    pairwise = _pairwise_table(comparisons)
    _write_json({"entropy": entropy._asdict(), "complexity": complexity._asdict(),
                 "pairwise": [dict(zip(pairwise.header, row)) for row in zip(*pairwise.columns)],
                 "caveat": ("window overlap unknown when reading from file; "
                            "p-values are descriptive")}, args.out)
    return 0


def _cmd_spearman(args) -> int:
    from ._readback import _load_metrics, _load_windows
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


def _watched() -> bool:
    """Whether a tracer, profiler or monitoring tool (``sys.monitoring``,
    Python 3.12+) watches this process; such a tool writes its report after
    the module returns."""
    monitoring = getattr(sys, "monitoring", None)
    return (sys.gettrace() is not None or sys.getprofile() is not None
            or (monitoring is not None and any(map(monitoring.get_tool, range(6)))))


def _flushed(code: int) -> bool:
    """Flush stdout, then stderr; whether nothing is left for the normal
    exit to report.  After a failed command (``code`` != 0), a stdout whose
    reader is gone counts as flushed: the failure is already reported, and
    what stdout still holds can reach no reader.  A large write cut short
    by the reader leaves such bytes behind, depending only on timing."""
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        if code == 0:
            return False
    except Exception:
        return False
    try:
        sys.stderr.flush()
    except Exception:  # a reader closed the pipe, say: the normal exit reports it
        return False
    return True


def _run() -> None:
    """The process entry (``cecplane`` and ``python -m cecplane.cli``): run
    ``main()``, then end without the interpreter's teardown.

    The ``atexit`` callbacks run, then stdout and stderr are flushed (the
    interpreter's own order, so what a callback prints is kept), and the
    process ends in ``os._exit`` with ``main``'s code, or argparse's for
    ``--version``, ``--help`` and usage errors.  No command starts a thread
    or leaves a file open when ``main`` returns.  The normal exit stays
    where a flush raises (see ``_flushed``) and where ``_watched()``."""
    try:
        code = main()
    except SystemExit as exc:
        code = exc.code
    if isinstance(code, int) and not _watched():
        atexit._run_exitfuncs()
        if _flushed(code):
            os._exit(code)
    sys.exit(code)


if __name__ == "__main__":
    _run()
