import math

import numpy as np
import pytest
from scipy.optimize import brentq

from cecplane import (
    BoundCurve,
    CecpPoint,
    cecp_point,
    lower_bound_curve,
    normalized_entropy,
    statistical_complexity,
    upper_bound_curve,
    within_bounds,
)
from cecplane.bounds import _bisect_q, _family_complexity, _family_entropy

M = 24


def family_vector(q, m, n_zeros):
    """Explicit distribution of the bound family member with free weight q."""
    k = m - n_zeros - 1
    p = np.zeros(m)
    p[0] = q
    p[1:k + 1] = (1.0 - q) / k
    return p


class TestCurveShape:
    def test_endpoints_pinch_to_zero(self, bounds24):
        lower, upper = bounds24
        for curve in bounds24:
            assert curve.entropy[0] == 0.0 and curve.entropy[-1] == 1.0
            assert abs(curve.complexity[0]) < 1e-9
            assert abs(curve.complexity[-1]) < 1e-9

    def test_grid_strictly_increasing(self, bounds24):
        for curve in bounds24:
            assert (np.diff(curve.entropy) > 0).all()

    def test_nonnegative(self, bounds24):
        for curve in bounds24:
            assert (curve.complexity >= 0).all()

    def test_lower_below_upper(self, bounds24):
        lower, upper = bounds24
        assert (lower.complexity <= upper.complexity + 1e-12).all()

    def test_points_property(self, bounds24):
        lower, _ = bounds24
        pts = lower.points
        assert pts.shape == (2000, 2)
        assert np.array_equal(pts[:, 0], lower.entropy)


class TestFamilies:
    def test_closed_forms_match_generic_quantifiers(self):
        # dual route: vectorized family expressions vs the fsum-based
        # quantifiers on the explicit probability vector
        for n_zeros in (0, 1, 7, 22):
            top = 1.0 / (M - n_zeros)
            for q in (0.0, 0.3 * top, 0.9 * top, top):
                p = family_vector(q, M, n_zeros)
                s = float(_family_entropy(np.array([q]), M, n_zeros)[0])
                c = float(_family_complexity(np.array([q]), M, n_zeros)[0])
                assert s / math.log(M) == pytest.approx(normalized_entropy(p), abs=1e-12)
                assert c == pytest.approx(statistical_complexity(p), abs=1e-12)

    def test_lower_family_spans_uniform_to_delta(self):
        assert normalized_entropy(family_vector(1.0 / M, M, 0)) == pytest.approx(1.0, abs=1e-12)
        assert normalized_entropy(family_vector(1.0, M, 0)) == 0.0

    def test_curve_values_match_independent_solver(self, bounds24, rng):
        # re-solve a sample of grid entropies with brentq over the generic
        # quantifiers; the curve must agree without interpolation error
        lower, upper = bounds24
        idx = rng.choice(np.arange(1, 1999), size=25, replace=False)
        for i in idx:
            h = lower.entropy[i]
            q = brentq(lambda q: normalized_entropy(family_vector(q, M, 0)) - h,
                       1.0 / M, 1.0 - 1e-15, xtol=1e-15)
            assert lower.complexity[i] == pytest.approx(
                statistical_complexity(family_vector(q, M, 0)), abs=1e-9)
        for i in idx:
            h = upper.entropy[i]
            k = min(max(int(math.floor(M ** h)), 1), M - 1)
            n_zeros = M - 1 - k
            top = 1.0 / (M - n_zeros)
            q = brentq(lambda q: normalized_entropy(family_vector(q, M, n_zeros)) - h,
                       0.0, top, xtol=1e-15)
            assert upper.complexity[i] == pytest.approx(
                statistical_complexity(family_vector(q, M, n_zeros)), abs=1e-9)


def per_family_upper_complexity(m, resolution):
    """The upper envelope solved one family at a time: the reference for the
    single bisection over all grid points in ``upper_bound_curve``."""
    h_grid = np.linspace(0.0, 1.0, resolution)
    k_of = np.clip(np.floor(np.exp(h_grid * math.log(m))).astype(int), 1, m - 1)
    c = np.empty(resolution)
    for k in np.unique(k_of):
        sel = k_of == k
        n_zeros = m - 1 - int(k)
        targets = h_grid[sel] * math.log(m)
        q_hi = np.full(targets.size, 1.0 / (m - n_zeros))
        q = _bisect_q(targets, m, n_zeros,
                      np.zeros(targets.size), q_hi, increasing=True)
        c[sel] = _family_complexity(q, m, n_zeros)
    return np.clip(c, 0.0, None)


class TestEnvelopeOracle:
    @pytest.mark.parametrize("m", [2, 6, 24, 120, 720, 5040])
    @pytest.mark.parametrize("resolution", [2, 3, 2000])
    def test_matches_per_family_reference_bytes(self, m, resolution):
        # bytes, not array_equal: a -0.0/0.0 flip would change bounds.csv
        curve = upper_bound_curve(m, resolution)
        assert curve.complexity.tobytes() == \
            per_family_upper_complexity(m, resolution).tobytes()


class TestDominance:
    @pytest.mark.parametrize("alpha", [0.15, 1.0, 5.0])
    def test_random_simplex_samples_inside(self, bounds24, rng, alpha):
        # sparse alphas push samples toward the frontier's low-entropy side
        lower, upper = bounds24
        samples = rng.dirichlet(np.full(M, alpha), size=1500)
        for p in samples:
            pt = cecp_point(p)
            c_lo = lower.complexity_at(pt.entropy)
            c_hi = upper.complexity_at(pt.entropy)
            assert c_lo - 1e-9 <= pt.complexity <= c_hi + 1e-9


class TestResolutionStability:
    def test_refinement_converged(self):
        # curvature concentrates near the entropy endpoints, so linear
        # interpolation at resolution 2000 is good to ~2e-6 there and far
        # better elsewhere; doubling the grid must not move values beyond that
        probes = np.linspace(0.0, 1.0, 101)
        for build in (lower_bound_curve, upper_bound_curve):
            coarse = build(M, 2000)
            fine = build(M, 4000)
            delta = np.abs(coarse.complexity_at(probes) - fine.complexity_at(probes))
            assert delta.max() < 1e-5


class TestWithinBounds:
    def test_shared_endpoint(self, bounds24):
        assert within_bounds(CecpPoint(1.0, 0.0), *bounds24, tol=1e-9)

    def test_above_global_maximum(self, bounds24):
        assert not within_bounds(CecpPoint(0.5, 0.9), *bounds24, tol=1e-9)

    def test_below_lower_frontier(self, bounds24):
        lower, upper = bounds24
        h = 0.5
        assert not within_bounds(CecpPoint(h, 0.0), lower, upper, 1e-9)

    def test_entropy_out_of_range(self, bounds24):
        with pytest.raises(ValueError):
            within_bounds(CecpPoint(1.0 + 5e-13, 0.0), *bounds24, tol=0.0)

    def test_mismatched_curves(self, bounds24):
        lower, upper = bounds24
        with pytest.raises(ValueError):
            within_bounds(CecpPoint(0.5, 0.1), upper, lower, 1e-9)
        other = upper_bound_curve(6, 50)
        with pytest.raises(ValueError):
            within_bounds(CecpPoint(0.5, 0.1), lower, other, 1e-9)

    def test_negative_tolerance(self, bounds24):
        with pytest.raises(ValueError):
            within_bounds(CecpPoint(0.5, 0.1), *bounds24, tol=-1e-3)


class TestValidation:
    def test_argument_guards(self):
        with pytest.raises(ValueError):
            lower_bound_curve(1, 100)
        with pytest.raises(ValueError):
            upper_bound_curve(24, 1)

    def test_curve_invariant_enforcement(self):
        with pytest.raises(ValueError):
            BoundCurve(24, "lower", np.array([0.0, 0.5, 0.4]), np.zeros(3))
        with pytest.raises(ValueError):
            BoundCurve(24, "lower", np.array([0.0, 1.0]), np.array([0.0, -0.1]))
        with pytest.raises(ValueError):
            BoundCurve(24, "middle", np.array([0.0, 1.0]), np.zeros(2))

    def test_small_m_curves_exist(self):
        lower = lower_bound_curve(2, 64)
        upper = upper_bound_curve(2, 64)
        # with two states the families coincide: the envelope is degenerate
        assert np.allclose(lower.complexity, upper.complexity, atol=1e-9)
