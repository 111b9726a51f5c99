"""Seeded benchmark inputs, made without the program under test.

Prices follow the same recipe as ``cecplane.make_synthetic_dataset``: per
asset an AR(1) return process ``r_t = phi * r_{t-1} + eps_t`` with ``phi``
spread over [-0.3, 0.6) by asset index, exponentiated into prices
``100 * exp(0.001 * cumsum(r))``.  The CSV writer here is the benchmark's
own, so a change to the program's writer cannot change what it is measured
on.  Floats are written with ``repr``, which reads back bit for bit.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
from scipy.signal import lfilter

# Twelve asset labels for the study geometry, in column order.
STUDY_ASSETS = ("BTC", "ETH", "XRP", "BCH", "LTC", "ADA",
                "XLM", "NEO", "EOS", "IOTA", "DASH", "XMR")
FIRST_TIMESTAMP = 1_500_000_000
SPACING_S = 300


def price_matrix(n_assets: int, rows: int, seed: int) -> np.ndarray:
    """``(rows, n_assets)`` prices; asset ``i`` draws from ``(seed, i)``."""
    out = np.empty((rows, n_assets))
    for i in range(n_assets):
        rng = np.random.default_rng(np.random.SeedSequence((seed, i)))
        eps = rng.standard_normal(rows)
        phi = -0.3 + 0.9 * (i / n_assets)
        returns = lfilter([1.0], [1.0, -phi], eps)
        out[:, i] = 100.0 * np.exp(0.001 * np.cumsum(returns))
    return out


def write_prices(path: Path, labels, prices: np.ndarray) -> None:
    """Headed CSV: integer epoch timestamps, then one column per asset."""
    lines = ["timestamp," + ",".join(labels)]
    for k, row in enumerate(prices.tolist()):
        lines.append(f"{FIRST_TIMESTAMP + k * SPACING_S}," + ",".join(map(repr, row)))
    path.write_text("\n".join(lines) + "\n")


def write_metrics(path: Path, labels, seed: int) -> dict[str, dict[str, float]]:
    """Per-asset size metrics for ``spearman``; returns them as written."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 10_000)))
    metrics = {
        "market_cap": rng.lognormal(22.0, 1.5, len(labels)).tolist(),
        "volume": rng.lognormal(18.0, 1.2, len(labels)).tolist(),
    }
    lines = ["asset," + ",".join(metrics)]
    for i, label in enumerate(labels):
        lines.append(label + "," + ",".join(repr(metrics[m][i]) for m in metrics))
    path.write_text("\n".join(lines) + "\n")
    return {m: dict(zip(labels, values)) for m, values in metrics.items()}


def random_walks(sims: int, length: int, seed: int) -> np.ndarray:
    """``(sims, length)`` Gaussian random walks: fBm paths at H = 0.5."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 20_000)))
    return np.cumsum(rng.standard_normal((sims, length)), axis=1)
