import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cecplane import (
    CecpPoint,
    OrdinalConfig,
    TimeSeries,
    cecp_point,
    disequilibrium,
    extract_pattern_distribution,
    jensen_shannon_disequilibrium,
    jensen_shannon_divergence,
    normalized_entropy,
    q0_constant,
    shannon_entropy,
    statistical_complexity,
)
from cecplane.quantifiers import _plane_points


def delta(m, at=0):
    p = np.zeros(m)
    p[at] = 1.0
    return p


def uniform(m):
    return np.full(m, 1.0 / m)


def mp_entropy(probs):
    """Independent high-precision Shannon entropy in nats."""
    with mpmath.workdps(50):
        s = mpmath.fsum(-mpmath.mpf(repr(float(p))) * mpmath.log(mpmath.mpf(repr(float(p))))
                        for p in probs if p > 0)
        return float(s)


class TestShannonEntropy:
    def test_uniform_24(self):
        assert shannon_entropy(uniform(24)) == pytest.approx(math.log(24), abs=1e-12)

    def test_delta(self):
        assert shannon_entropy(delta(24)) == 0.0

    def test_two_equiprobable(self):
        p = np.zeros(24)
        p[3] = p[17] = 0.5
        assert shannon_entropy(p) == pytest.approx(math.log(2), abs=1e-12)

    def test_matches_high_precision_oracle(self, rng):
        for _ in range(25):
            p = rng.dirichlet(np.ones(24))
            assert shannon_entropy(p) == pytest.approx(mp_entropy(p), abs=1e-12)

    def test_rejects_negative(self):
        p = uniform(4)
        p[0] = -p[0]
        p[1] += 2 * uniform(4)[0]
        with pytest.raises(ValueError):
            shannon_entropy(p)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            shannon_entropy(np.full(4, 0.3))


class TestNormalizedEntropy:
    def test_uniform_is_one(self):
        for m in (2, 6, 24, 120):
            assert normalized_entropy(uniform(m)) == pytest.approx(1.0, abs=1e-12)

    def test_delta_is_zero(self):
        assert normalized_entropy(delta(24)) == 0.0

    def test_half_split_m4(self):
        p = np.array([0.5, 0.5, 0.0, 0.0])
        assert normalized_entropy(p) == pytest.approx(0.5, abs=1e-14)


class TestQ0:
    def test_closed_form_matches_numeric(self):
        # dual route: the closed form must equal the reciprocal of the raw
        # delta-vs-uniform divergence it is defined to normalize
        for m in (2, 6, 24, 120):
            numeric = 1.0 / jensen_shannon_divergence(delta(m), uniform(m))
            assert q0_constant(m) == pytest.approx(numeric, abs=1e-12)

    def test_scaled_delta_is_one(self):
        for m in (2, 6, 24):
            q = q0_constant(m) * jensen_shannon_divergence(delta(m), uniform(m))
            assert q == pytest.approx(1.0, abs=1e-12)

    def test_reference_value(self):
        assert q0_constant(24) == pytest.approx(1.6510470181287602, abs=1e-14)

    def test_rejects_small_m(self):
        with pytest.raises(ValueError):
            q0_constant(1)


class TestDisequilibrium:
    def test_uniform_is_zero(self):
        assert disequilibrium(uniform(24)) == pytest.approx(0.0, abs=1e-12)

    def test_delta_is_one(self):
        for m in (2, 6, 24):
            assert disequilibrium(delta(m)) == pytest.approx(1.0, abs=1e-12)

    def test_symmetry(self, rng):
        p, q = rng.dirichlet(np.ones(24)), rng.dirichlet(np.ones(24))
        assert (jensen_shannon_disequilibrium(p, q)
                == pytest.approx(jensen_shannon_disequilibrium(q, p), abs=1e-15))

    def test_two_state_vs_uniform_term_oracle(self):
        # independent term-by-term evaluation at 50 digits
        m = 24
        p = np.zeros(m)
        p[0] = p[1] = 0.5
        with mpmath.workdps(50):
            u = mpmath.mpf(1) / m
            mid = [(mpmath.mpf("0.5") + u) / 2] * 2 + [u / 2] * (m - 2)
            s_mid = mpmath.fsum(-x * mpmath.log(x) for x in mid)
            s_p = mpmath.log(2)
            s_u = mpmath.log(m)
            expected = float(q0_constant(m) * (s_mid - s_p / 2 - s_u / 2))
        value = disequilibrium(p)
        assert 0.0 < value < 1.0
        assert value == pytest.approx(expected, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            jensen_shannon_divergence(uniform(4), uniform(6))


class TestComplexity:
    def test_extremes_vanish(self):
        assert statistical_complexity(delta(24)) == pytest.approx(0.0, abs=1e-12)
        assert statistical_complexity(uniform(24)) == pytest.approx(0.0, abs=1e-12)

    def test_product_identity(self, rng):
        p = rng.dirichlet(np.ones(24))
        assert statistical_complexity(p) == normalized_entropy(p) * disequilibrium(p)

    def test_not_a_function_of_entropy_alone(self):
        # two distributions at (numerically) the same H with far-apart C:
        # a two-state split vs the matched single-spike family member
        m = 24
        p_two = np.zeros(m)
        p_two[0] = p_two[1] = 0.5
        h_target = normalized_entropy(p_two)

        def family_h(q):
            fam = np.full(m, (1.0 - q) / (m - 1))
            fam[0] = q
            return normalized_entropy(fam)

        lo, hi = 1.0 / m, 1.0 - 1e-15
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if family_h(mid) > h_target:
                lo = mid
            else:
                hi = mid
        q = 0.5 * (lo + hi)
        fam = np.full(m, (1.0 - q) / (m - 1))
        fam[0] = q
        assert abs(normalized_entropy(fam) - h_target) < 1e-6
        assert abs(statistical_complexity(fam) - statistical_complexity(p_two)) > 1e-3


class TestCecpPoint:
    def test_monotone_series_hits_origin(self):
        pt = cecp_point(TimeSeries(np.arange(100.0)), OrdinalConfig(4, 1))
        assert (pt.entropy, pt.complexity) == (0.0, 0.0)

    def test_noise_approaches_random_corner(self, rng):
        series = TimeSeries(rng.random(100_000))
        pt = cecp_point(series, OrdinalConfig(4, 1))
        assert pt.entropy >= 0.995
        assert pt.complexity <= 0.01

    def test_bit_identical_reruns(self, rng):
        values = rng.standard_normal(2000)
        cfg = OrdinalConfig(4, 1)
        a = cecp_point(TimeSeries(values), cfg)
        b = cecp_point(TimeSeries(values), cfg)
        assert (a.entropy, a.complexity) == (b.entropy, b.complexity)

    def test_distribution_and_series_paths_agree(self, rng):
        values = rng.standard_normal(800)
        cfg = OrdinalConfig(3, 2)
        via_series = cecp_point(TimeSeries(values), cfg)
        via_dist = cecp_point(extract_pattern_distribution(TimeSeries(values), cfg))
        assert via_series == via_dist

    def test_monotone_map_invariance(self, rng):
        values = rng.integers(-512, 512, 400).astype(float) / 64.0
        cfg = OrdinalConfig(4, 1)
        base = cecp_point(TimeSeries(values), cfg)
        mapped = cecp_point(TimeSeries(np.exp(values / 8.0)), cfg)
        assert base == mapped

    def test_config_argument_rules(self, rng):
        with pytest.raises(ValueError):
            cecp_point(TimeSeries([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError):
            cecp_point(uniform(6), OrdinalConfig(3, 1))

    def test_point_validation(self):
        with pytest.raises(ValueError):
            CecpPoint(1.5, 0.0)
        with pytest.raises(ValueError):
            CecpPoint(0.5, -0.1)


@settings(max_examples=80, deadline=None)
@given(weights=st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=2, max_size=48))
def test_quantifier_ranges(weights):
    p = np.asarray(weights) / math.fsum(weights)
    p = p / math.fsum(p.tolist())
    h = normalized_entropy(p)
    q = disequilibrium(p)
    c = statistical_complexity(p)
    assert -1e-12 <= h <= 1.0 + 1e-12
    assert -1e-12 <= q <= 1.0 + 1e-12
    assert c >= -1e-12
    assert c == h * q


def test_random_points_inside_envelope(bounds24, rng):
    from cecplane import within_bounds
    lower, upper = bounds24
    for p in rng.dirichlet(np.ones(24), size=2000):
        assert within_bounds(cecp_point(p), lower, upper, 1e-9)


# The kernel sums in another order than the fsum reference; both stay within
# a few units of double rounding of ln M, far inside this bound.
KERNEL_ATOL = 1e-14


@pytest.mark.parametrize("m", [6, 24, 120, 720])
def test_kernel_matches_fsum_reference(m):
    """Dense, sparse and undersampled count rows, against the scalar
    ``math.fsum`` quantifiers, row by row."""
    rng = np.random.default_rng(m)
    rows = []
    for n in (3, m // 2, m, 5 * m, 100 * m):  # undersampled to well sampled
        for alpha in (0.02, 0.3, 1.0, 30.0):  # sparse to near uniform
            rows.extend(rng.multinomial(n, rng.dirichlet(np.full(m, alpha)), size=6) / n)
    rows.append(np.full(m, 1.0 / m))
    rows.append(delta(m, m - 1))
    probs = np.array(rows)
    h, c = _plane_points(probs)
    assert h.shape == c.shape == (len(rows),)
    for i, p in enumerate(probs):
        assert abs(h[i] - normalized_entropy(p)) <= KERNEL_ATOL
        assert abs(c[i] - statistical_complexity(p)) <= KERNEL_ATOL


@settings(max_examples=60, deadline=None)
@given(m=st.one_of(st.integers(2, 6000),
                   st.sampled_from([math.factorial(d) for d in range(2, 10)])),
       per_state=st.integers(1, 1000),
       bumps=st.lists(st.tuples(st.integers(0, 2 ** 31), st.integers(-1, 1)), max_size=4))
def test_numeric_contract_near_uniform(m, per_state, bumps):
    """H <= 1 exactly and C >= 0 at any M; uniform counts give H == 1.0."""
    counts = np.full(m, per_state, dtype=np.int64)
    uniform_point = cecp_point(counts / counts.sum())
    assert uniform_point.entropy == 1.0
    assert uniform_point.complexity >= 0.0
    counts += len(bumps)  # no bump can take a count below zero
    for where, step in bumps:
        counts[where % m] += step
    point = cecp_point(counts / counts.sum())
    assert 0.0 <= point.entropy <= 1.0
    assert point.complexity >= 0.0
