import contextlib
import io
import math
import os
import warnings
from unittest import mock

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
from cecplane import _fork, fbm
from cecplane.fbm import (
    _baseline_clouds,
    _circulant_eigenvalues,
    _fgn_circulant,
    _standard_normals,
)
from oracles import fbm_d3_probabilities, fgn_conditional


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

    def test_spec_validation(self):
        for bad in ({"hurst": 0.0}, {"hurst": 1.0}, {"length": 1}, {"length": 2.0},
                    {"seed": -1}, {"seed": 1.5}):
            kwargs = {"hurst": 0.5, "length": 16, "seed": 0}
            kwargs.update(bad)
            with pytest.raises(ValueError):
                FbmSpec(**kwargs)

    def test_spec_takes_numpy_integer_seeds(self):
        spec = FbmSpec(0.5, 10, np.uint64(3))
        assert spec == FbmSpec(0.5, 10, 3) and type(spec.seed) is int


def sample_cov_matrix(draw, paths, n):
    """Empirical covariance of the first ``n`` coordinates over many paths."""
    xs = np.stack([draw(i) for i in range(paths)])
    return (xs[:, :n].T @ xs[:, :n]) / paths


class TestExactness:
    """The package's circulant route and the Hosking reference in
    ``oracles`` must both reproduce the target covariance.

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
        emp = sample_cov_matrix(lambda i: fgn_conditional(gamma, rng), self.PATHS, self.N)
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
            assert np.array_equal(path, generate_fbm(FbmSpec(0.7, 360, seed)).values)

    @pytest.mark.parametrize("hurst,sims", [(0.3, 1), (0.6, 37), (0.9, 64)])
    def test_cloud_matches_per_path_loop(self, hurst, sims):
        seeds = np.random.SeedSequence(21).generate_state(sims, dtype=np.uint64)
        points = [cecp_point(extract_pattern_distribution(
            generate_fbm(FbmSpec(hurst, 300, s)), self.CONFIG)) for s in seeds]
        h = np.array([p.entropy for p in points])
        c = np.array([p.complexity for p in points])
        cloud = baseline_cloud(hurst, sims, 300, self.CONFIG, seed=21)
        assert abs(cloud.mean_point.entropy - h.mean()) <= 1e-14
        assert abs(cloud.mean_point.complexity - c.mean()) <= 1e-14
        assert abs(cloud.std_entropy - h.std()) <= 1e-14
        assert abs(cloud.std_complexity - c.std()) <= 1e-14

    def test_capped_blocks_match_per_path_loop(self):
        # at dim 8 a block holds one path, so 10 paths take 10 blocks
        config = OrdinalConfig(8, 1)
        seeds = np.random.SeedSequence(4).generate_state(10, dtype=np.uint64)
        points = [cecp_point(extract_pattern_distribution(
            generate_fbm(FbmSpec(0.6, 300, s)), config)) for s in seeds]
        cloud = baseline_cloud(0.6, 10, 300, config, seed=4)
        assert abs(cloud.mean_point.entropy - np.mean([p.entropy for p in points])) <= 1e-14
        assert abs(cloud.mean_point.complexity - np.mean([p.complexity for p in points])) <= 1e-14
        assert abs(cloud.std_entropy - np.std([p.entropy for p in points])) <= 1e-14
        assert abs(cloud.std_complexity - np.std([p.complexity for p in points])) <= 1e-14

    def test_validation(self):
        with pytest.raises(ValueError):
            baseline_cloud(0.5, 0, 256, self.CONFIG, seed=1)
        with pytest.raises(ValueError):
            baseline_cloud(1.0, 4, 256, self.CONFIG, seed=1)
        with pytest.raises(ValueError):
            baseline_cloud(0.5, 4, 3, self.CONFIG, seed=1)  # no full window
        with pytest.raises(ValueError):
            BaselineCloud(0.5, CecpPoint(0.5, 0.1), -0.1, 0.0, 4)

    def test_seed_checked_and_numpy_integers_accepted(self):
        cloud = baseline_cloud(0.7, 4, 256, self.CONFIG, seed=3)
        for seed in (np.int64(3), np.uint64(3)):
            assert baseline_cloud(0.7, 4, 256, self.CONFIG, seed=seed) == cloud
        for seed in (-3, np.int64(-3)):
            with pytest.raises(ValueError, match="seed must be a nonnegative integer, got -3"):
                baseline_cloud(0.7, 4, 256, self.CONFIG, seed=seed)

    @pytest.mark.parametrize("hursts", [(0.7,), (0.5, 0.6, 0.7, 0.8, 0.9), (0.3, 0.8, 0.3)],
                             ids=["one", "five", "repeated"])
    @pytest.mark.parametrize("sims", [1, 13, 37])
    def test_clouds_of_one_call_equal_single_clouds(self, hursts, sims):
        # sims 13 and 37 end in a partial block of 5 paths
        clouds = _baseline_clouds(hursts, sims, 300, self.CONFIG, seed=9)
        assert clouds == [baseline_cloud(h, sims, 300, self.CONFIG, seed=9) for h in hursts]

    def test_clouds_of_one_call_equal_single_clouds_at_dim_8(self):
        # D! = 40,320: the scorer takes one window per count block
        config, hursts = OrdinalConfig(8, 2), (0.25, 0.5, 0.8)
        clouds = _baseline_clouds(hursts, 13, 300, config, seed=4)
        assert clouds == [baseline_cloud(h, 13, 300, config, seed=4) for h in hursts]

    def test_every_exponent_checked_before_any_path(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("normals drawn before every exponent was checked")

        monkeypatch.setattr("cecplane.fbm._standard_normals", no_draw)
        with pytest.raises(ValueError,
                           match=r"^hurst must lie strictly inside \(0, 1\), got 1\.5$"):
            _baseline_clouds((0.5, 1.5), 8, 256, self.CONFIG, seed=1)


def test_circulant_embedding_admissible_everywhere():
    """The Davies-Harte embedding of fGn is nonnegative definite, so the
    synthesis raises instead of falling back to another method.  Scan Hurst
    0.01-0.99 over lengths 2-4096, odd, even and powers of two: an eigenvalue
    below rounding noise would raise here."""
    lengths = (2, 3, 4, 5, 7, 16, 99, 100, 360, 1000, 1024, 2047, 3600, 4096)
    for hurst in np.arange(1, 100) / 100:
        for n in lengths:
            assert _circulant_eigenvalues(float(hurst), n).shape == (2 * n,)


@contextlib.contextmanager
def _in_processes(cpus):
    """Split the blocks of any call among up to ``cpus`` processes, with
    every float array ``np.empty`` makes filled with NaN, so that a result
    entry no process wrote shows instead of what freed memory held."""
    empty = np.empty

    def poisoned(*args, **kwargs):
        array = empty(*args, **kwargs)
        if array.dtype.kind in "fc":
            array.fill(np.nan)
        return array

    with mock.patch.object(fbm, "_FORK_FLOOR", 1), \
            mock.patch.object(_fork, "_cpus", return_value=cpus), \
            mock.patch.object(np, "empty", poisoned):
        yield


def _one_process(hursts, sims, length, config, seed):
    with mock.patch.object(_fork, "_cpus", return_value=1):
        return _baseline_clouds(hursts, sims, length, config, seed)


class TestCloudProcesses:
    """Clouds scored in any number of processes are the one-process clouds
    in every digit, and every child is reaped before the call returns or
    raises."""

    CONFIG = OrdinalConfig(4, 1)

    @staticmethod
    def assert_no_child():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def forks(cpus, sims):
        """Children forked for ``sims`` paths: one per process past this
        one, and no more processes than blocks."""
        return min(cpus, -(-sims // fbm._PATHS_PER_BLOCK)) - 1

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("sims", [1, 8, 9, 13, 37, 64])
    def test_same_bits_any_process_count(self, cpus, sims):
        # sims 9, 13 and 37 end in a partial block; 1, 8 and 9 leave a CPU
        # without a block
        configs = [OrdinalConfig(3, 1), OrdinalConfig(4, 2), OrdinalConfig(5, 1),
                   OrdinalConfig(6, 2), OrdinalConfig(8, 1)]
        for config in configs:
            for hursts in [(0.5,), (0.3, 0.8, 0.3)]:
                one = _one_process(hursts, sims, 120, config, 7)
                with _in_processes(cpus), mock.patch.object(os, "fork", wraps=os.fork) as fork:
                    clouds = _baseline_clouds(hursts, sims, 120, config, 7)
                    single = baseline_cloud(hursts[0], sims, 120, config, 7)
                assert fork.call_count == 2 * self.forks(cpus, sims)
                assert repr(clouds) == repr(one)
                assert repr(single) == repr(one[0])
        self.assert_no_child()

    def test_below_the_floor_one_process(self):
        with mock.patch.object(_fork, "_cpus", return_value=2), \
                mock.patch.object(os, "fork", wraps=os.fork) as fork:
            _baseline_clouds((0.5, 0.7), 16, 360, self.CONFIG, 1)
        assert 16 * 2 * 360 < 2 * fbm._FORK_FLOOR
        fork.assert_not_called()

    def test_no_fork_one_process(self, monkeypatch):
        one = _one_process((0.5, 0.7), 37, 120, self.CONFIG, 3)
        monkeypatch.delattr(os, "fork")
        with _in_processes(2):
            assert _baseline_clouds((0.5, 0.7), 37, 120, self.CONFIG, 3) == one

    def test_child_that_dies_warns_and_its_paths_are_scored_here(self):
        parent, score = os.getpid(), fbm._score_paths

        def dies(*args):
            if os.getpid() != parent:
                os._exit(1)
            return score(*args)

        one = _one_process((0.5, 0.7), 37, 120, self.CONFIG, 3)
        with _in_processes(2), mock.patch.object(fbm, "_score_paths", dies), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            clouds = _baseline_clouds((0.5, 0.7), 37, 120, self.CONFIG, 3)
        # 5 blocks: this process scores the first two, the child the rest
        assert [(w.category, str(w.message)) for w in caught] == [
            (RuntimeWarning, "the child process given share (16, 37) failed; "
                             "this process runs that share")]
        self.assert_no_child()
        assert repr(clouds) == repr(one)

    def test_child_that_ends_after_its_first_row_warns(self):
        """A child that sends one row, more than the pipe's write buffer
        holds, and ends gives one warning, and its paths are scored here."""
        parent, score = os.getpid(), fbm._score_paths

        def first_row_only(*args):
            rows = iter(score(*args))
            yield next(rows)
            if os.getpid() != parent:
                os._exit(0)
            yield from rows

        sims = 2 * io.DEFAULT_BUFFER_SIZE // 8 + 16
        one = _one_process((0.5, 0.7), sims, 120, self.CONFIG, 3)
        with _in_processes(2), mock.patch.object(fbm, "_score_paths", first_row_only), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            [(_, lo), (_, hi)] = fbm._runs(sims, 2 * 120)
            clouds = _baseline_clouds((0.5, 0.7), sims, 120, self.CONFIG, 3)
        assert (hi - lo) * 8 > io.DEFAULT_BUFFER_SIZE
        assert [(w.category, str(w.message)) for w in caught] == [
            (RuntimeWarning, f"the child process given share ({lo}, {hi}) failed; "
                             "this process runs that share")]
        self.assert_no_child()
        assert repr(clouds) == repr(one)

    def test_child_failure_warning_points_at_the_caller(self):
        """The warning of a failed child names the line that called the
        public ``baseline_cloud``, not a line of the package."""
        parent, score = os.getpid(), fbm._score_paths

        def dies(*args):
            if os.getpid() != parent:
                os._exit(1)
            return score(*args)

        with _in_processes(2), mock.patch.object(fbm, "_score_paths", dies), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            baseline_cloud(0.5, 37, 120, self.CONFIG, 3)
        [warning] = caught
        assert warning.category is RuntimeWarning and warning.filename == __file__

    def test_no_child_left_after_an_interrupt(self):
        parent, score = os.getpid(), fbm._score_paths

        def interrupted(*args):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return score(*args)

        with _in_processes(3), mock.patch.object(fbm, "_score_paths", interrupted), \
                mock.patch.object(os, "fork", wraps=os.fork) as fork:
            with pytest.raises(KeyboardInterrupt):
                _baseline_clouds((0.5, 0.7), 37, 120, self.CONFIG, 3)
        assert fork.call_count == 2
        self.assert_no_child()

    @pytest.mark.parametrize("fails", ["fork", "pipe", "second-fork"])
    def test_no_process_to_be_had_is_one_process(self, fails):
        """An ``OSError`` from ``pipe`` or ``fork`` gives the one-process
        clouds, without a warning; a child forked before it is reaped."""
        one = _one_process((0.5, 0.7), 37, 120, self.CONFIG, 3)
        fork = os.fork
        started = []

        def second_fails():
            if started:
                raise OSError("no process")
            started.append(1)
            return fork()

        patch = {"fork": mock.patch.object(os, "fork", side_effect=OSError("no process")),
                 "pipe": mock.patch.object(os, "pipe", side_effect=OSError("no pipe")),
                 "second-fork": mock.patch.object(os, "fork", second_fails)}[fails]
        with _in_processes(3), patch, warnings.catch_warnings():
            warnings.simplefilter("error")
            clouds = _baseline_clouds((0.5, 0.7), 37, 120, self.CONFIG, 3)
        self.assert_no_child()
        assert repr(clouds) == repr(one)


class TestD3PatternOracle:
    """Pooled D = 3 pattern frequencies of fBm against their closed form.

    Tolerance: batch ``k`` pools the windows of ``PATHS`` paths of one seed
    block, giving a frequency ``f_k`` per pattern.  fBm has stationary
    increments, so every window has the same pattern distribution and
    ``f_k`` is unbiased for the closed form ``p`` at any path length; the
    ``BATCHES`` batches are independent.  Long memory inflates their spread
    ``s`` (most at H = 0.9, where one path rises or falls for long
    stretches), so ``s`` is measured, not assumed.  The pooled mean then has
    standard error ``s / sqrt(BATCHES)``, and ``(mean - p) / se`` follows
    Student's t with ``BATCHES - 1 = 15`` degrees of freedom, which exceeds
    ``Z = 6`` in size with probability 2.4e-5.  So each pattern must lie
    within ``Z * se`` of ``p``.  The pooled monotone frequency must also miss
    the closed form at H +- 0.05 by more than its own bound, so the bound is
    tight enough to tell Hurst exponents apart.  Per-path Hurst estimates
    are not used: for finite paths their mean is biased low.
    """

    BATCHES, PATHS, LENGTH, Z = 16, 32, 2048, 6.0

    @pytest.mark.parametrize("hurst", [0.2, 0.5, 0.7, 0.9])
    def test_pooled_frequencies_match_closed_form(self, hurst):
        config = OrdinalConfig(3, 1)
        freqs = np.array([
            sum(extract_pattern_distribution(
                generate_fbm(FbmSpec(hurst, self.LENGTH, 1000 * k + i)), config).histogram
                for i in range(self.PATHS))
            for k in range(self.BATCHES)
        ]) / (self.PATHS * config.windows_in(self.LENGTH))
        se = freqs.std(axis=0, ddof=1) / math.sqrt(self.BATCHES)
        assert (np.abs(freqs.mean(axis=0) - fbm_d3_probabilities(hurst)) <= self.Z * se).all()
        monotone = freqs[:, 0] + freqs[:, 5]
        bound = self.Z * monotone.std(ddof=1) / math.sqrt(self.BATCHES)
        for other in (hurst - 0.05, hurst + 0.05):
            wrong = fbm_d3_probabilities(other)
            assert abs(monotone.mean() - (wrong[0] + wrong[5])) > bound
