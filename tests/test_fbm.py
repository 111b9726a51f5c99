import math

import numpy as np
import pytest

from cecplane import (
    BaselineCloud,
    CecpPoint,
    FbmSpec,
    OrdinalConfig,
    baseline_cloud,
    cecp_point,
    extract_pattern_distribution,
    fgn_autocovariance,
    generate_fbm,
    generate_fgn,
)
from cecplane.fbm import (
    _circulant_eigenvalues,
    _fgn_circulant,
    _fgn_conditional,
    _standard_normals,
)


class TestAutocovariance:
    def test_half_is_white_noise(self):
        gamma = fgn_autocovariance(0.5, np.arange(8))
        assert gamma[0] == 1.0
        assert np.abs(gamma[1:]).max() == 0.0

    def test_lag_one_closed_form(self):
        # gamma(1) = (2^{2H} - 2) / 2
        assert fgn_autocovariance(0.7, [1])[0] == pytest.approx(
            0.5 * (2.0 ** 1.4 - 2.0), abs=1e-15)
        assert fgn_autocovariance(0.3, [1])[0] == pytest.approx(
            0.5 * (2.0 ** 0.6 - 2.0), abs=1e-15)

    def test_sign_of_increment_correlation(self):
        lags = np.arange(1, 20)
        assert (fgn_autocovariance(0.8, lags) > 0).all()   # persistent
        assert (fgn_autocovariance(0.2, lags) < 0).all()   # anti-persistent

    def test_lag_symmetry(self):
        gamma = fgn_autocovariance(0.65, [-3, 3])
        assert gamma[0] == gamma[1]

    def test_invalid_hurst(self):
        for h in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValueError):
                fgn_autocovariance(h, [0, 1])


class TestGeneration:
    def test_deterministic_per_seed(self):
        spec = FbmSpec(0.7, 512, 99)
        a = generate_fgn(spec)
        b = generate_fgn(spec)
        assert np.array_equal(a.values, b.values)
        c = generate_fgn(FbmSpec(0.7, 512, 100))
        assert not np.array_equal(a.values, c.values)

    def test_length_and_finiteness(self):
        x = generate_fgn(FbmSpec(0.3, 777, 5))
        assert x.values.shape == (777,)
        assert np.isfinite(x.values).all()

    def test_fbm_is_cumsum_of_fgn(self):
        spec = FbmSpec(0.6, 300, 11)
        fgn = generate_fgn(spec).values
        fbm = generate_fbm(spec).values
        assert fbm[0] == fgn[0]
        assert np.allclose(np.diff(fbm), fgn[1:], atol=1e-12)

    def test_methods_share_distribution_not_stream(self):
        spec = FbmSpec(0.7, 256, 4)
        a = generate_fgn(spec, method="circulant")
        b = generate_fgn(spec, method="conditional")
        assert a.values.shape == b.values.shape
        assert not np.array_equal(a.values, b.values)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            generate_fgn(FbmSpec(0.5, 64, 0), method="spectral")

    def test_spec_validation(self):
        for bad in ({"hurst": 0.0}, {"hurst": 1.0}, {"length": 1}, {"length": 2.0},
                    {"seed": -1}, {"seed": 1.5}):
            kwargs = {"hurst": 0.5, "length": 16, "seed": 0}
            kwargs.update(bad)
            with pytest.raises(ValueError):
                FbmSpec(**kwargs)


def sample_cov_matrix(draw, paths, n):
    """Empirical covariance of the first ``n`` coordinates over many paths."""
    xs = np.stack([draw(i) for i in range(paths)])
    return (xs[:, :n].T @ xs[:, :n]) / paths


class TestExactness:
    """Both synthesis routes must reproduce the target covariance.

    With ``paths`` independent paths the entries of the empirical covariance
    have standard error about ``sqrt((gamma_ii*gamma_jj + gamma_ij^2)/paths)``
    ~= 0.02 for 4000 paths, so a 5-sigma band is 0.1.
    """

    PATHS = 4000
    N = 6

    @pytest.mark.parametrize("hurst", [0.3, 0.7])
    def test_circulant_covariance(self, hurst):
        lam = _circulant_eigenvalues(hurst, 64)
        target = fgn_autocovariance(hurst, np.subtract.outer(np.arange(self.N), np.arange(self.N)))
        rng = np.random.default_rng(1234)
        emp = sample_cov_matrix(lambda i: _fgn_circulant(lam, rng.standard_normal((1, 128)))[0],
                                self.PATHS, self.N)
        assert np.abs(emp - target).max() < 0.1

    @pytest.mark.parametrize("hurst", [0.3, 0.7])
    def test_conditional_covariance(self, hurst):
        gamma = fgn_autocovariance(hurst, np.arange(33))
        target = fgn_autocovariance(hurst, np.subtract.outer(np.arange(self.N), np.arange(self.N)))
        rng = np.random.default_rng(4321)
        emp = sample_cov_matrix(lambda i: _fgn_conditional(gamma, rng), self.PATHS, self.N)
        assert np.abs(emp - target).max() < 0.1

    def test_variance_scaling_of_fbm(self):
        # Var[B(t)] = t^{2H}: check the k-step increment variance ratio on
        # aggregated samples from many seeds.
        hurst = 0.8
        reps, n = 100, 2048
        for k in (2, 4, 8):
            ratios = []
            for seed in range(reps):
                path = generate_fbm(FbmSpec(hurst, n, seed + 1)).values
                inc1 = np.diff(path)
                inck = path[k::k] - path[:-k:k]
                ratios.append(inck.var() / inc1.var())
            assert np.mean(ratios) == pytest.approx(k ** (2 * hurst), rel=0.1)


class TestBaselineCloud:
    CONFIG = OrdinalConfig(dim=4, delay=1)

    def test_reproducible(self):
        a = baseline_cloud(0.7, 8, 256, self.CONFIG, seed=3)
        b = baseline_cloud(0.7, 8, 256, self.CONFIG, seed=3)
        assert a == b

    def test_single_simulation_has_zero_spread(self):
        cloud = baseline_cloud(0.6, 1, 256, self.CONFIG, seed=12)
        assert cloud.std_entropy == 0.0
        assert cloud.std_complexity == 0.0
        assert cloud.sims == 1

    def test_hurst_sweep_moves_monotonically(self):
        # raising H makes paths smoother: entropy falls, complexity rises
        hursts = [0.5, 0.6, 0.7, 0.8, 0.9]
        clouds = [baseline_cloud(h, 120, 360, OrdinalConfig(4, 1), seed=2026)
                  for h in hursts]
        means_h = [c.mean_point.entropy for c in clouds]
        means_c = [c.mean_point.complexity for c in clouds]
        assert all(a > b for a, b in zip(means_h, means_h[1:]))
        assert all(a < b for a, b in zip(means_c, means_c[1:]))

    def test_cloud_inside_envelope(self, bounds24):
        lower, upper = bounds24
        cloud = baseline_cloud(0.75, 40, 360, OrdinalConfig(4, 1), seed=7)
        h, c = cloud.mean_point.entropy, cloud.mean_point.complexity
        assert lower.complexity_at(h) - 1e-9 <= c <= upper.complexity_at(h) + 1e-9

    def test_batched_paths_follow_the_seeding_contract(self):
        # a batch of paths equals generate_fbm for each index-derived seed
        seeds = np.random.SeedSequence(5).generate_state(11, dtype=np.uint64)
        lam = _circulant_eigenvalues(0.7, 360)
        paths = np.cumsum(_fgn_circulant(lam, _standard_normals(seeds, lam.size)), axis=1)
        for path, seed in zip(paths, seeds):
            assert np.array_equal(path, generate_fbm(FbmSpec(0.7, 360, int(seed))).values)

    @pytest.mark.parametrize("hurst,sims", [(0.3, 1), (0.6, 37), (0.9, 64)])
    def test_cloud_matches_per_path_loop(self, hurst, sims):
        seeds = np.random.SeedSequence(21).generate_state(sims, dtype=np.uint64)
        points = [cecp_point(extract_pattern_distribution(
            generate_fbm(FbmSpec(hurst, 300, int(s))), self.CONFIG)) for s in seeds]
        h = np.array([p.entropy for p in points])
        c = np.array([p.complexity for p in points])
        cloud = baseline_cloud(hurst, sims, 300, self.CONFIG, seed=21)
        assert abs(cloud.mean_point.entropy - h.mean()) <= 1e-14
        assert abs(cloud.mean_point.complexity - c.mean()) <= 1e-14
        assert abs(cloud.std_entropy - h.std()) <= 1e-14
        assert abs(cloud.std_complexity - c.std()) <= 1e-14

    def test_validation(self):
        with pytest.raises(ValueError):
            baseline_cloud(0.5, 0, 256, self.CONFIG, seed=1)
        with pytest.raises(ValueError):
            baseline_cloud(1.0, 4, 256, self.CONFIG, seed=1)
        with pytest.raises(ValueError):
            baseline_cloud(0.5, 4, 3, self.CONFIG, seed=1)  # no full window
        with pytest.raises(ValueError):
            BaselineCloud(0.5, CecpPoint(0.5, 0.1), -0.1, 0.0, 4)


def test_circulant_embedding_admissible_everywhere():
    """The Davies-Harte embedding of fGn is nonnegative definite, so the
    synthesis raises instead of falling back to another method.  Scan Hurst
    0.01-0.99 over lengths 2-4096, odd, even and powers of two: an eigenvalue
    below rounding noise would raise here."""
    lengths = (2, 3, 4, 5, 7, 16, 99, 100, 360, 1000, 1024, 2047, 3600, 4096)
    for hurst in np.arange(1, 100) / 100:
        for n in lengths:
            assert _circulant_eigenvalues(float(hurst), n).shape == (2 * n,)
