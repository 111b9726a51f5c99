"""Reference implementations that the tests compare the package against.

Each one computes its quantity a second, independent way, written for
clarity rather than speed:

* the ``math.fsum`` quantifiers reduce explicitly materialized terms and take
  ``0 * ln 0`` as 0 by skipping zero entries, not by masking arithmetic;
* :func:`naive_pattern_oracle` sorts every window with plain Python and reads
  pattern indices from an enumerated permutation table;
* :func:`argsort_encode_starts` is the stable-argsort Lehmer encoder;
* :func:`fbm_d3_probabilities` is the closed form of the D = 3 pattern
  probabilities of fractional Brownian motion;
* :func:`fgn_conditional` is Hosking's sequential sampler of fractional
  Gaussian noise, a second exact route beside the package's circulant one;
* :func:`_fmt` formats one output cell at a time, the reference for the
  package's column formatter;
* :func:`spearman_permutation_p` is the exact permutation p-value of
  Spearman's rho, by enumeration of every pairing.

Inputs are trusted: these functions do not validate.
"""

import math
from itertools import permutations

import numpy as np

from cecplane import OrdinalConfig, PatternDistribution, TimeSeries, q0_constant
from cecplane.stats import average_ranks


def shannon_entropy(probs) -> float:
    """``S(P) = -sum p ln p`` in nats."""
    return -math.fsum(p * math.log(p) for p in np.asarray(probs).tolist() if p > 0.0)


def normalized_entropy(probs) -> float:
    """``H(P) = S(P) / ln M``."""
    return shannon_entropy(probs) / math.log(len(probs))


def jensen_shannon_divergence(p, q) -> float:
    """``S((P+Q)/2) - S(P)/2 - S(Q)/2`` in nats."""
    p, q = np.asarray(p, dtype=np.float64), np.asarray(q, dtype=np.float64)
    return shannon_entropy(0.5 * (p + q)) - 0.5 * shannon_entropy(p) - 0.5 * shannon_entropy(q)


def disequilibrium(probs) -> float:
    """``Q(P) = Q0 * JSD(P, uniform)``."""
    m = len(probs)
    return q0_constant(m) * jensen_shannon_divergence(probs, np.full(m, 1.0 / m))


def statistical_complexity(probs) -> float:
    """``C(P) = H(P) * Q(P)``."""
    return normalized_entropy(probs) * disequilibrium(probs)


def naive_pattern_oracle(series: TimeSeries, config: OrdinalConfig) -> PatternDistribution:
    """Pattern counts by explicit window materialization; small ``dim`` only."""
    d, tau = config.dim, config.delay
    n_windows = config.windows_in(len(series))
    if n_windows < 1:
        raise ValueError(f"series of length {len(series)} too short for dim={d}, delay={tau}")
    rank_of = {perm: i for i, perm in enumerate(permutations(range(d)))}
    values = series.values
    histogram = np.zeros(len(rank_of), dtype=np.int64)
    for t in range(n_windows):
        last = t + (d - 1) * tau
        # (value, lag) pairs sorted ascending; equal values fall back to the
        # smaller lag offset, which is exactly the deterministic tie rule.
        by_value = sorted((values[last - j * tau], j) for j in range(d))
        histogram[rank_of[tuple(j for _, j in reversed(by_value))]] += 1
    return PatternDistribution(config, histogram)


def argsort_encode_starts(values: np.ndarray, config: OrdinalConfig) -> np.ndarray:
    """Pattern codes from a stable argsort of the ``(..., n, D)`` embedding,
    then the Lehmer code of the reversed order."""
    d, tau = config.dim, config.delay
    n_windows = config.windows_in(values.shape[-1])
    emb = np.empty(values.shape[:-1] + (n_windows, d))
    for j in range(d):
        start = (d - 1 - j) * tau
        emb[..., j] = values[..., start:start + n_windows]
    chain = np.argsort(emb, axis=-1, kind="stable")  # offsets by ascending value
    perm = chain[..., ::-1]  # largest value first
    codes = np.zeros(emb.shape[:-1], dtype=np.int64)
    for i in range(d - 1):
        smaller_after = (perm[..., i + 1:] < perm[..., i:i + 1]).sum(axis=-1)
        codes += smaller_after.astype(np.int64) * math.factorial(d - 1 - i)
    return codes


def fbm_d3_probabilities(hurst: float) -> np.ndarray:
    """Probabilities of the six D = 3 patterns of fBm, by pattern code.

    The pattern of three consecutive fBm samples is fixed by the signs of two
    consecutive fGn increments, a bivariate Gaussian with the lag-one
    correlation ``rho = 2^(2H-1) - 1``.  Both increments are positive with
    probability ``p = 1/4 + arcsin(rho) / (2 pi)`` (the orthant probability),
    and by the symmetry ``x -> -x`` both are negative with the same
    probability: these are the two monotone patterns, codes 0 (rising) and 5
    (falling).  Time reversal splits each mixed-sign case evenly between its
    two patterns, so each of the other four has ``(1 - 2p) / 4`` (Bandt &
    Shiha, J. Time Ser. Anal. 28:646, 2007).
    """
    rho = 2.0 ** (2.0 * hurst - 1.0) - 1.0
    monotone = 0.25 + math.asin(rho) / (2.0 * math.pi)
    probs = np.full(6, (1.0 - 2.0 * monotone) / 4.0)
    probs[[0, 5]] = monotone
    return probs


def fgn_conditional(gamma: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Hosking's sequential exact method, O(n^2), for the fGn whose
    autocovariance at lags ``0..n`` is ``gamma``.

    Each sample is drawn from its exact Gaussian conditional given all
    previous ones; the prediction coefficients are updated by the
    Levinson-Durbin recursion.
    """
    n = gamma.size - 1
    z = rng.standard_normal(n)
    x = np.empty(n)
    x[0] = math.sqrt(gamma[0]) * z[0]
    phi = np.empty(n)  # phi[:t] are the order-t prediction coefficients
    var = gamma[0]
    for t in range(1, n):
        kappa = (gamma[t] - phi[:t - 1] @ gamma[t - 1:0:-1]) / var
        # RHS is materialized before assignment; the reversed view aliases phi[:t-1].
        phi[:t - 1] = phi[:t - 1] - kappa * phi[:t - 1][::-1]
        phi[t - 1] = kappa
        var *= 1.0 - kappa * kappa
        x[t] = phi[:t] @ x[t - 1::-1] + math.sqrt(var) * z[t]
    return x


def _fmt(value) -> str:
    """One output cell as text: shortest-roundtrip floats, plain ints."""
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


def spearman_permutation_p(x, y) -> float:
    """Exact two-sided permutation p-value for Spearman's rho: the share of
    all n! pairings of ``y`` against ``x`` (n <= 10) whose |rho| reaches the
    observed one.  Rank denominators are permutation-invariant, so pairings
    are compared by their rank covariances."""
    n = len(x)
    if n > 10:
        raise ValueError(f"exact enumeration is limited to n <= 10, got {n}")
    dx, dy = np.asarray(average_ranks(x)), np.asarray(average_ranks(y))
    dx, dy = dx - dx.mean(), dy - dy.mean()
    observed = abs(dy @ dx)
    covs = dy[np.array(list(permutations(range(n))))] @ dx
    return int((np.abs(covs) >= observed - 1e-9 * max(observed, 1.0)).sum()) / math.factorial(n)
