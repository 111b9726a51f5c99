"""Ordinal-pattern quantifiers and the complexity-entropy plane.

The package turns univariate series into ordinal pattern distributions,
maps them to (entropy, complexity) coordinates with theoretical bounds and
fractional-Brownian-motion baselines, tracks the coordinates over sliding
windows, and ranks series by informational efficiency with supporting
statistical tests.  See README.md for the CLI surface.

Importing the package loads no submodule and no numpy: each public name and
each submodule is imported on first use (PEP 562), so a CLI command loads
only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# The plot-data kinds of ``analyze --plots``, here so the CLI can list them
# without loading the pipeline.
PLOT_KINDS = ("entropy-evolution", "cecp-scatter", "cecp-means", "anova-intervals")

# The public names, grouped by the submodule that defines them: the one list
# of them, from which each submodule's ``__all__`` is read.
_EXPORTS = {
    "patterns": ("TimeSeries", "OrdinalConfig", "PatternId", "PatternDistribution",
                 "encode_window", "extract_pattern_distribution"),
    "quantifiers": ("CecpPoint", "cecp_point", "shannon_entropy", "normalized_entropy",
                    "q0_constant", "jensen_shannon_divergence",
                    "jensen_shannon_disequilibrium", "disequilibrium",
                    "statistical_complexity"),
    "bounds": ("BoundCurve", "lower_bound_curve", "upper_bound_curve", "within_bounds"),
    "fbm": ("FbmSpec", "BaselineCloud", "fgn_autocovariance", "generate_fgn",
            "generate_fbm", "baseline_cloud"),
    "rolling": ("WindowParams", "RollingResult", "window_count", "rolling_quantifiers"),
    "stats": ("AssetSummary", "RankingEntry", "AnovaResult", "PairwiseComparison",
              "SpearmanResult", "summarize", "efficiency_distance", "rank_assets",
              "one_way_anova", "pairwise_anova_vs_baseline", "spearman_rho"),
    "dataio": ("Dataset", "RunConfig", "AnalysisBundle", "load_dataset", "write_dataset",
               "make_synthetic_dataset", "log_return_series", "run_pipeline",
               "write_bundle", "emit_plot_data"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "special", "cli", "_tables")

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
