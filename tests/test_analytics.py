import dataclasses
import itertools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aoistats import analytics
from aoistats.analytics import (
    INVERSION_RESIDUAL_TOL,
    InversionAccuracyWarning,
    SystemSpec,
    aoi_correlation,
    aoi_covariance,
    aoi_statistics,
    cc_lower_bound,
    default_s_grid,
    departure_rate,
    joint_aoi_laplace,
    marginal_aoi_cdf,
    marginal_aoi_laplace,
    marginal_aoi_moments,
    palm_means,
    pushout_rate,
    source_update_share,
)
from aoistats.servicedist import Deterministic, Exponential, Gamma, Mixture, ServiceTimeModel
from ordering_oracles import (
    joint_aoi_laplace_two_source,
    joint_laplace_permutation_sum,
    joint_laplace_subset_loop,
)

# two identical exponential sources at rate 3 with mean service 1/6; all
# closed forms are rational numbers for this system
SYMMETRIC = SystemSpec(rates=(3.0, 3.0), services=(Exponential(6.0), Exponential(6.0)))

DET_BOUND = -0.2909883534346632  # -1/(2(e-1))

# the eight-source system of the benchmark's gate-k8-par workload, one
# source of every service family
EIGHT = SystemSpec(
    rates=(1.0, 0.8, 0.6, 0.5, 0.4, 0.3, 0.25, 0.15),
    services=(
        Exponential(6.0),
        Gamma(2.0, 12.0),
        Deterministic(0.15),
        Mixture((0.5, 0.5), (Exponential(10.0), Deterministic(0.1))),
        Exponential(8.0),
        Gamma(0.5, 3.0),
        Deterministic(0.1),
        Gamma(4.0, 24.0),
    ),
)


def random_spec(rng, max_sources=4):
    K = int(rng.integers(1, max_sources + 1))
    rates = tuple(float(r) for r in rng.uniform(0.2, 4.0, K))
    services = []
    for _ in range(K):
        kind = int(rng.integers(0, 3))
        if kind == 0:
            services.append(Exponential(float(rng.uniform(0.5, 12.0))))
        elif kind == 1:
            services.append(Gamma(float(rng.uniform(0.3, 5.0)), float(rng.uniform(0.5, 12.0))))
        else:
            services.append(Deterministic(float(rng.uniform(0.01, 0.6))))
    return SystemSpec(rates=rates, services=tuple(services))


# --- spec validation ---------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError):
        SystemSpec(rates=(), services=())
    with pytest.raises(ValueError):
        SystemSpec(rates=(1.0, 2.0), services=(Exponential(1.0),))
    with pytest.raises(ValueError):
        SystemSpec(rates=(0.0,), services=(Exponential(1.0),))
    with pytest.raises(TypeError):
        SystemSpec(rates=(1.0,), services=("exp(1)",))
    # completion probability underflows: a point mass far longer than the
    # mean interarrival gap never beats the next arrival in float64
    with pytest.raises(ValueError):
        SystemSpec(rates=(100.0,), services=(Deterministic(10.0),))


def test_spec_is_frozen_and_hashes_by_value():
    spec = SystemSpec([1, 2], [Exponential(3)] * 2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.rates = (-1.0,)
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.services = ()
    assert spec.rates == (1.0, 2.0)
    twin = SystemSpec(rates=(1.0, 2.0), services=(Exponential(3.0), Exponential(3.0)))
    assert spec == twin and hash(spec) == hash(twin)
    assert len({spec, twin}) == 1


def test_moments_out_of_float64_range_name_the_source():
    # the squared update rate underflows (3.5e-209) or overflows (1.5e160);
    # the joint transform of such a system still exists
    for spec in (
        SystemSpec(rates=(0.5, 0.5), services=(Exponential(1.0), Deterministic(480.0))),
        SystemSpec(rates=(1.0, 3e160), services=(Exponential(1.0), Exponential(6e160))),
    ):
        with pytest.raises(ValueError, match="^source 2: age moments are out of float64 range at update rate"):
            marginal_aoi_moments(spec, 1)
        assert 0.0 < joint_aoi_laplace(spec, (1.0, 0.0)) < 1.0


def test_covariance_refuses_update_rates_that_underflow():
    # both update rates underflow to 0, and so does the departure rate the
    # covariance divides by
    gamma = Gamma(2.0, 2.0 * 3e-235)
    spec = SystemSpec(rates=(3e-235, 3.2e-120), services=(gamma, gamma))
    for quantity in (aoi_covariance, aoi_correlation):
        with pytest.raises(ValueError, match="^source 1: age moments are out of float64 range at update rate 0$"):
            quantity(spec)


def test_correlation_takes_each_source_moments_once(monkeypatch):
    calls = []
    moments = analytics.marginal_aoi_moments

    def counting(spec, k):
        calls.append(k)
        return moments(spec, k)

    monkeypatch.setattr(analytics, "marginal_aoi_moments", counting)
    assert aoi_correlation(SYMMETRIC) == pytest.approx(-1.0 / 6.0, rel=1e-15)
    assert calls == [0, 1]
    calls.clear()
    stats = aoi_statistics(SYMMETRIC)
    assert stats.correlation[0, 1] == aoi_correlation(SYMMETRIC)
    assert stats.covariance[0, 1] == aoi_covariance(SYMMETRIC)
    assert calls == [0, 1] * 4  # the statistics and their pair, then each closed form


def test_correlation_of_tiny_variances_is_finite():
    # each variance is near 1e-200, so their product underflows
    spec = SystemSpec(rates=(1e100, 1e100), services=(Exponential(1e100),) * 2)
    unit = SystemSpec(rates=(1.0, 1.0), services=(Exponential(1.0),) * 2)
    assert aoi_correlation(spec) == pytest.approx(aoi_correlation(unit), rel=1e-12)


def test_source_index_checks():
    with pytest.raises(IndexError):
        marginal_aoi_laplace(SYMMETRIC, 2, 1.0)
    with pytest.raises(IndexError):
        source_update_share(SYMMETRIC, -1)
    # an index is an integer, never truncated or parsed
    for bad in (1.7, True, "1", 0.99):
        with pytest.raises(TypeError):
            marginal_aoi_laplace(SYMMETRIC, bad, 1.0)
        with pytest.raises(TypeError):
            palm_means(SYMMETRIC, bad)
        with pytest.raises(TypeError):
            marginal_aoi_cdf(SYMMETRIC, bad, 1.0)
    assert palm_means(SYMMETRIC, np.int64(1)) == palm_means(SYMMETRIC, 1)


# --- throughput anchors ------------------------------------------------------


def test_departure_and_pushout_rates():
    assert departure_rate(SYMMETRIC) == pytest.approx(3.0, rel=1e-15)
    assert pushout_rate(SYMMETRIC) == pytest.approx(3.0, rel=1e-15)


def test_update_shares():
    lopsided = SystemSpec(rates=(1.0, 2.0), services=(Exponential(6.0), Exponential(6.0)))
    assert source_update_share(lopsided, 0) == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert source_update_share(lopsided, 1) == pytest.approx(2.0 / 3.0, rel=1e-15)
    # unequal families: the point-mass source completes with probability e^-1
    mixed = SystemSpec(rates=(3.0, 3.0), services=(Exponential(6.0), Deterministic(1.0 / 6.0)))
    assert source_update_share(mixed, 0) == pytest.approx(0.5 / (0.5 + math.exp(-1.0)), rel=1e-14)
    total = source_update_share(mixed, 0) + source_update_share(mixed, 1)
    assert total == pytest.approx(1.0, abs=1e-15)


# --- marginal transform and moments ------------------------------------------


def test_marginal_laplace_anchor():
    assert marginal_aoi_laplace(SYMMETRIC, 0, 6.0) == pytest.approx(1.0 / 7.0, rel=1e-15)
    assert marginal_aoi_laplace(SYMMETRIC, 0, 0.0) == 1.0
    with pytest.raises(ValueError):
        marginal_aoi_laplace(SYMMETRIC, 0, -1.0)


def test_marginal_moments_anchor():
    m = marginal_aoi_moments(SYMMETRIC, 0)
    assert m.mean == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert m.variance == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert m.cv == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-15)


def test_mean_matches_transform_slope():
    # mean = -d/ds E[exp(-s A)] at 0, one-sided second-order stencil with
    # the step scaled to the age scale of the source
    rng = np.random.default_rng(42)
    for _ in range(20):
        spec = random_spec(rng)
        for k in range(spec.num_sources):
            mean = marginal_aoi_moments(spec, k).mean
            h = 1e-5 / mean
            f0 = marginal_aoi_laplace(spec, k, 0.0)
            f1 = marginal_aoi_laplace(spec, k, h)
            f2 = marginal_aoi_laplace(spec, k, 2.0 * h)
            fd_mean = -(-3.0 * f0 + 4.0 * f1 - f2) / (2.0 * h)
            assert fd_mean == pytest.approx(mean, rel=1e-6)


def test_variance_matches_transform_curvature():
    # E[A^2] = second transform derivative at 0, one-sided stencil
    rng = np.random.default_rng(43)
    for _ in range(10):
        spec = random_spec(rng)
        for k in range(spec.num_sources):
            m = marginal_aoi_moments(spec, k)
            h = 1e-4 / m.mean
            f = [marginal_aoi_laplace(spec, k, i * h) for i in range(4)]
            second = (2.0 * f[0] - 5.0 * f[1] + 4.0 * f[2] - f[3]) / h**2
            assert second - m.mean**2 == pytest.approx(m.variance, rel=1e-3)


@given(st.floats(min_value=0.3, max_value=6.0), st.floats(min_value=0.5, max_value=12.0))
def test_cv_below_one(rate, mu):
    spec = SystemSpec(rates=(rate, rate), services=(Exponential(mu), Exponential(mu)))
    m = marginal_aoi_moments(spec, 0)
    assert 0.0 < m.cv < 1.0
    assert m.variance == pytest.approx((m.cv * m.mean) ** 2, rel=1e-12)


# --- per-delivery means ------------------------------------------------------


def test_palm_means_anchor():
    pm = palm_means(SYMMETRIC, 0)
    assert pm.delay_mean == pytest.approx(1.0 / 12.0, rel=1e-15)
    assert pm.update_rate == pytest.approx(1.5, rel=1e-15)
    assert pm.peak_mean == pytest.approx(0.75, rel=1e-15)


def test_update_rates_sum_to_departure_rate():
    rng = np.random.default_rng(44)
    for _ in range(10):
        spec = random_spec(rng)
        total = math.fsum(palm_means(spec, k).update_rate for k in range(spec.num_sources))
        assert total == pytest.approx(departure_rate(spec), rel=1e-12)


# --- joint transform ---------------------------------------------------------


def test_joint_laplace_at_zero_is_one():
    rng = np.random.default_rng(45)
    for _ in range(12):
        spec = random_spec(rng)
        value = joint_aoi_laplace(spec, (0.0,) * spec.num_sources)
        assert value == pytest.approx(1.0, abs=1e-10)


def test_joint_laplace_matches_two_source_form():
    rng = np.random.default_rng(46)
    for _ in range(10):
        spec = random_spec(rng)
        if spec.num_sources != 2:
            spec = SystemSpec(rates=spec.rates[:1] * 2, services=spec.services[:1] * 2)
        for s1, s2 in itertools.product((0.0, 0.4, 1.7, 5.0), repeat=2):
            a = joint_aoi_laplace(spec, (s1, s2))
            b = joint_aoi_laplace_two_source(spec, s1, s2)
            assert a == pytest.approx(b, rel=1e-12, abs=1e-15)


def test_joint_laplace_single_source_reduces_to_marginal():
    spec = SystemSpec(rates=(2.0,), services=(Exponential(4.0),))
    for s in (0.0, 0.3, 2.0, 9.0):
        assert joint_aoi_laplace(spec, (s,)) == pytest.approx(
            marginal_aoi_laplace(spec, 0, s), rel=1e-13
        )


def test_joint_laplace_marginalization():
    # zeroing all arguments but one recovers the marginal transform
    rng = np.random.default_rng(47)
    for _ in range(25):
        spec = random_spec(rng)
        K = spec.num_sources
        for k in range(K):
            s = [0.0] * K
            s[k] = float(rng.uniform(0.05, 3.0))
            joint = joint_aoi_laplace(spec, s)
            marg = marginal_aoi_laplace(spec, k, s[k])
            assert abs(joint - marg) <= 1e-10


def test_joint_laplace_permutation_equivariance():
    spec = SystemSpec(
        rates=(1.0, 2.0, 3.0),
        services=(Exponential(6.0), Gamma(2.0, 12.0), Deterministic(0.1)),
    )
    s = (0.7, 1.3, 0.2)
    base = joint_aoi_laplace(spec, s)
    for perm in itertools.permutations(range(3)):
        relabeled = SystemSpec(
            rates=tuple(spec.rates[p] for p in perm),
            services=tuple(spec.services[p] for p in perm),
        )
        value = joint_aoi_laplace(relabeled, tuple(s[p] for p in perm))
        assert value == pytest.approx(base, rel=1e-12)


def test_joint_laplace_monotone_in_each_argument():
    spec = SystemSpec(
        rates=(1.0, 2.0, 3.0),
        services=(Exponential(6.0), Gamma(2.0, 12.0), Deterministic(0.1)),
    )
    base = joint_aoi_laplace(spec, (0.5, 0.5, 0.5))
    for k in range(3):
        s = [0.5, 0.5, 0.5]
        s[k] = 1.5
        assert joint_aoi_laplace(spec, s) < base


def test_joint_laplace_matches_permutation_sum():
    rng = np.random.default_rng(48)
    specs = [random_spec(rng, max_sources=6) for _ in range(30)]
    assert {spec.num_sources for spec in specs} == set(range(1, 7))
    cases = [(spec, tuple(rng.uniform(0.0, 3.0, spec.num_sources))) for spec in specs]
    cases += [(EIGHT, row) for row in default_s_grid(8)]
    # rows that are zero outside a random set H of sources, H possibly empty
    for spec in specs:
        inside = rng.random(spec.num_sources) < 0.5
        cases.append((spec, tuple(np.where(inside, rng.uniform(0.05, 3.0, spec.num_sources), 0.0))))
    for spec, s in cases:
        assert joint_aoi_laplace(spec, s) == pytest.approx(
            joint_laplace_permutation_sum(spec, s), rel=1e-13, abs=0.0
        )


def test_joint_laplace_matches_subset_loop():
    # the recursion over the support of s against the loop over all 2^K subsets
    rng = np.random.default_rng(49)
    specs = [random_spec(rng, max_sources=8) for _ in range(40)]
    assert {spec.num_sources for spec in specs} == set(range(1, 9))
    cases = [(spec, tuple(rng.uniform(0.0, 3.0, spec.num_sources))) for spec in specs]
    cases += [(EIGHT, row) for row in default_s_grid(8)]
    # the loop keeps the sources with a zero argument; the recursion drops them
    for spec in specs:
        inside = rng.random(spec.num_sources) < 0.5
        cases.append((spec, tuple(np.where(inside, rng.uniform(0.05, 3.0, spec.num_sources), 0.0))))
    for spec, s in cases:
        assert joint_aoi_laplace(spec, s) == pytest.approx(joint_laplace_subset_loop(spec, s), rel=1e-14, abs=0.0)


def test_joint_laplace_cap_counts_the_support():
    # twenty sources: a row touching at most 12 is cheap, one touching 17 is refused
    rng = np.random.default_rng(50)
    twenty = SystemSpec(rates=tuple(rng.uniform(0.2, 1.0, 20)), services=(Exponential(40.0),) * 20)
    for touched in (1, 5, 12):
        row = np.zeros(20)
        row[rng.choice(20, touched, replace=False)] = rng.uniform(0.1, 2.0, touched)
        assert 0.0 < joint_aoi_laplace(twenty, row) < 1.0
    assert joint_aoi_laplace(twenty, np.zeros(20)) == 1.0
    row = np.zeros(20)
    row[:17] = 0.1
    with pytest.raises(ValueError, match="17 sources, above the cap of 16"):
        joint_aoi_laplace(twenty, row)


def _rescaled_model(model, c):
    # the same service law on a time axis rescaled by 1/c
    if isinstance(model, Exponential):
        return Exponential(model.rate * c)
    if isinstance(model, Gamma):
        return Gamma(model.shape, model.rate * c)
    if isinstance(model, Deterministic):
        return Deterministic(model.value / c)
    return Mixture(model.weights, tuple(_rescaled_model(m, c) for m in model.components))


@pytest.mark.parametrize(
    "spec, c",
    [(EIGHT, 1e-40), (EIGHT, 1e40), (SYMMETRIC, 1e-160), (SYMMETRIC, 1e160)],
)
def test_joint_laplace_is_scale_invariant(spec, c):
    scaled = SystemSpec(
        rates=tuple(r * c for r in spec.rates),
        services=tuple(_rescaled_model(m, c) for m in spec.services),
    )
    for row in default_s_grid(spec.num_sources):
        value = joint_aoi_laplace(scaled, tuple(v * c for v in row))
        assert math.isfinite(value)
        assert value == pytest.approx(joint_aoi_laplace(spec, row), rel=1e-13, abs=0.0)


def test_joint_laplace_argument_checks():
    with pytest.raises(ValueError):
        joint_aoi_laplace(SYMMETRIC, (1.0,))
    with pytest.raises(ValueError):
        joint_aoi_laplace(SYMMETRIC, (1.0, -1.0))
    big = SystemSpec(rates=(1.0,) * 17, services=(Exponential(30.0),) * 17)
    with pytest.raises(ValueError):
        joint_aoi_laplace(big, (0.1,) * 17)
    sixteen = SystemSpec(rates=(1.0,) * 16, services=(Exponential(30.0),) * 16)
    assert 0.0 < joint_aoi_laplace(sixteen, (0.1,) * 16) < 1.0
    # a column of two rows is not a row of two arguments
    with pytest.raises(ValueError, match="1-D"):
        joint_aoi_laplace(SYMMETRIC, [[0.5], [1.0]])
    # each argument is finite, but their sum plus the aggregate rate is not
    with pytest.raises(ValueError, match="overflow"):
        joint_aoi_laplace(SYMMETRIC, (1e308, 1e308))


# --- pairwise dependence -----------------------------------------------------


def test_covariance_and_correlation_anchor():
    assert aoi_covariance(SYMMETRIC) == pytest.approx(-1.0 / 18.0, rel=1e-15)
    assert aoi_correlation(SYMMETRIC) == pytest.approx(-1.0 / 6.0, rel=1e-15)
    three = SystemSpec(rates=(1.0,) * 3, services=(Exponential(6.0),) * 3)
    with pytest.raises(ValueError):
        aoi_covariance(three)


def mixed_cross_moment(spec, i, j):
    """E[A_i A_j], the mixed second derivative of the joint transform at 0
    in s_i and s_j, every other argument 0: forward differences with one
    Richardson step cancel the O(h) error, with per-source steps scaled to
    each age scale."""

    def f(a, b):
        s = np.zeros(spec.num_sources)
        s[i], s[j] = a, b
        return joint_aoi_laplace(spec, s)

    def mixed(hi, hj):
        return (f(hi, hj) - f(hi, 0.0) - f(0.0, hj) + f(0.0, 0.0)) / (hi * hj)

    hi, hj = (1e-4 / marginal_aoi_moments(spec, k).mean for k in (i, j))
    return 2.0 * mixed(hi, hj) - mixed(2.0 * hi, 2.0 * hj)


def test_covariance_matches_mixed_transform_derivative():
    rng = np.random.default_rng(48)
    for _ in range(10):
        spec = random_spec(rng)
        if spec.num_sources != 2:
            spec = SystemSpec(rates=spec.rates[:1] * 2, services=spec.services[:1] * 2)
        m1 = marginal_aoi_moments(spec, 0).mean
        m2 = marginal_aoi_moments(spec, 1).mean
        assert mixed_cross_moment(spec, 0, 1) - m1 * m2 == pytest.approx(
            aoi_covariance(spec), rel=1e-4, abs=1e-6 * m1 * m2
        )


def test_pairwise_covariance_matches_mixed_transform_derivative():
    # by the support reduction of joint_aoi_laplace, any pair of a K-source
    # system has the two-source covariance, with every L at the total rate
    rng = np.random.default_rng(2027)
    specs = [EIGHT]
    while len(specs) < 11:
        spec = random_spec(rng, max_sources=5)
        if spec.num_sources >= 3:
            specs.append(spec)
    for spec in specs:
        lam = spec.total_rate
        for i, j in itertools.combinations(range(spec.num_sources), 2):
            rate = [spec.rates[k] * spec.services[k].laplace(lam) for k in (i, j)]
            delay = [spec.services[k].laplace_derivative(lam) / spec.services[k].laplace(lam) for k in (i, j)]
            expected = (delay[0] + delay[1]) / (rate[0] + rate[1])
            means = [marginal_aoi_moments(spec, k).mean for k in (i, j)]
            assert mixed_cross_moment(spec, i, j) - means[0] * means[1] == pytest.approx(expected, rel=1e-4)


@given(
    st.floats(min_value=0.2, max_value=5.0),
    st.floats(min_value=0.2, max_value=5.0),
    st.floats(min_value=0.5, max_value=15.0),
    st.floats(min_value=0.5, max_value=15.0),
)
def test_two_source_dependence_is_negative(l1, l2, mu1, mu2):
    spec = SystemSpec(rates=(l1, l2), services=(Exponential(mu1), Exponential(mu2)))
    assert aoi_covariance(spec) <= 0.0
    assert -1.0 <= aoi_correlation(spec) <= 0.0


service_rates = st.floats(min_value=0.5, max_value=15.0)
one_family = st.one_of(
    st.builds(Exponential, service_rates),
    st.builds(Gamma, st.floats(min_value=0.3, max_value=5.0), service_rates),
    st.builds(Deterministic, st.floats(min_value=0.01, max_value=0.6)),
)
mixture_weights = st.floats(min_value=0.05, max_value=0.95).map(lambda w: (w, 1.0 - w))
any_family = st.one_of(one_family, st.builds(Mixture, mixture_weights, st.tuples(one_family, one_family)))


@given(
    st.tuples(st.floats(min_value=0.2, max_value=5.0), st.floats(min_value=0.2, max_value=5.0)),
    st.tuples(any_family, any_family),
)
@settings(max_examples=60)
def test_pair_functions_equal_the_statistics_off_diagonals(rates, services):
    spec = SystemSpec(rates=rates, services=services)
    stats = aoi_statistics(spec)
    for i, j in ((0, 1), (1, 0)):
        assert stats.covariance[i, j] == aoi_covariance(spec)
        assert stats.correlation[i, j] == aoi_correlation(spec)


# --- family bounds -----------------------------------------------------------


def test_cc_lower_bound_values():
    assert cc_lower_bound("deterministic") == pytest.approx(DET_BOUND, abs=1e-16)
    assert cc_lower_bound("gamma", alpha=1.0) == pytest.approx(-1.0 / 6.0, rel=1e-15)
    assert cc_lower_bound("gamma", alpha=2.0) == pytest.approx(
        -1.0 / (2.0 * ((1.5) ** 3 - 1.0)), rel=1e-15
    )
    # the gamma bound interpolates between 0 and the point-mass bound
    assert cc_lower_bound("gamma", alpha=1e-6) == pytest.approx(0.0, abs=1e-5)
    assert cc_lower_bound("gamma", alpha=1e7) == pytest.approx(DET_BOUND, abs=1e-7)
    with pytest.raises(ValueError):
        cc_lower_bound("gamma")
    with pytest.raises(ValueError):
        cc_lower_bound("deterministic", alpha=2.0)
    with pytest.raises(ValueError):
        cc_lower_bound("uniform")


def test_bounds_attained_at_balanced_operating_point():
    # equal rates and service mean equal to the mean interarrival gap
    det = SystemSpec(rates=(3.0, 3.0), services=(Deterministic(1.0 / 6.0),) * 2)
    assert aoi_correlation(det) == pytest.approx(cc_lower_bound("deterministic"), abs=1e-15)
    for alpha in (0.5, 1.0, 2.0, 7.0):
        g = SystemSpec(rates=(3.0, 3.0), services=(Gamma(alpha, 6.0 * alpha),) * 2)
        assert aoi_correlation(g) == pytest.approx(cc_lower_bound("gamma", alpha=alpha), abs=1e-14)


def test_bound_is_binding_on_a_rate_scan():
    # scan the shared service rate; no point dips below the family bound,
    # and the balanced point is the scan minimum
    for alpha in (0.5, 2.0):
        bound = cc_lower_bound("gamma", alpha=alpha)
        grid = np.geomspace(0.5, 80.0, 41)
        ccs = []
        for mu in grid:
            spec = SystemSpec(rates=(3.0, 3.0), services=(Gamma(alpha, mu),) * 2)
            cc = aoi_correlation(spec)
            ccs.append(cc)
            assert cc >= bound - 1e-12
        balanced = aoi_correlation(
            SystemSpec(rates=(3.0, 3.0), services=(Gamma(alpha, 6.0 * alpha),) * 2)
        )
        assert balanced <= min(ccs) + 1e-12


def test_correlation_fades_at_extreme_service_rates():
    for alpha in (0.5, 2.0):
        for mu in (6.0 * alpha * 1e-4, 6.0 * alpha * 1e4):
            spec = SystemSpec(rates=(3.0, 3.0), services=(Gamma(alpha, mu),) * 2)
            assert abs(aoi_correlation(spec)) < 0.02


# --- statistics bundle -------------------------------------------------------


def test_aoi_statistics_two_sources():
    stats = aoi_statistics(SYMMETRIC)
    assert stats.mean == pytest.approx([2.0 / 3.0] * 2, rel=1e-15)
    assert stats.variance == pytest.approx([1.0 / 3.0] * 2, rel=1e-15)
    assert stats.correlation[0, 1] == pytest.approx(-1.0 / 6.0, rel=1e-15)
    assert stats.correlation[0, 0] == 1.0
    assert stats.covariance[0, 1] == pytest.approx(-1.0 / 18.0, rel=1e-15)


def test_aoi_statistics_three_sources_has_nan_off_diagonal():
    spec = SystemSpec(rates=(1.0, 1.0, 1.0), services=(Exponential(6.0),) * 3)
    stats = aoi_statistics(spec)
    assert np.isnan(stats.covariance[0, 1])
    assert np.isnan(stats.correlation[1, 2])
    assert stats.correlation[2, 2] == 1.0
    assert np.all(np.isfinite(stats.mean))


# --- age distribution via numerical inversion --------------------------------


def test_cdf_single_source_closed_form():
    # lambda=2 with exponential(4) service: F(x) = 1 - 2 exp(-2x) + exp(-4x)
    spec = SystemSpec(rates=(2.0,), services=(Exponential(4.0),))
    grid = np.linspace(0.02, 2.6, 80)
    exact = 1.0 - 2.0 * np.exp(-2.0 * grid) + np.exp(-4.0 * grid)
    values = marginal_aoi_cdf(spec, 0, grid)
    assert values.shape == grid.shape
    assert np.max(np.abs(values - exact)) < 5e-6


def test_cdf_two_source_closed_form():
    # identical exponential servers: the marginal transform is a rational
    # function with two real poles, inverted here by partial fractions
    lam, mu, lk = 6.0, 6.0, 3.0
    disc = math.sqrt((mu + lam) ** 2 - 4.0 * lk * mu)
    r1 = (-(mu + lam) + disc) / 2.0
    r2 = (-(mu + lam) - disc) / 2.0
    grid = np.linspace(0.05, 2.5, 50)
    exact = (
        lk * mu / (r1 - r2)
        * ((np.exp(r1 * grid) - 1.0) / r1 - (np.exp(r2 * grid) - 1.0) / r2)
    )
    values = marginal_aoi_cdf(SYMMETRIC, 0, grid)
    assert np.max(np.abs(values - exact)) < 5e-6


def test_cdf_shape_properties():
    spec = SystemSpec(rates=(2.0,), services=(Exponential(4.0),))
    assert marginal_aoi_cdf(spec, 0, 0.0) == 0.0
    grid = np.linspace(0.0, 4.0, 40)
    values = marginal_aoi_cdf(spec, 0, grid)
    assert np.all(values >= 0.0) and np.all(values <= 1.0)
    assert np.all(np.diff(values) >= -1e-9)
    with pytest.raises(ValueError):
        marginal_aoi_cdf(spec, 0, -1.0)


def test_cdf_warns_when_inversion_is_rough():
    # a point-mass service makes the age density kink at the service time;
    # the contour method converges slowly just above it and must say so
    det = SystemSpec(rates=(3.0, 3.0), services=(Deterministic(1.0 / 6.0),) * 2)
    with pytest.warns(InversionAccuracyWarning):
        value = marginal_aoi_cdf(det, 0, 0.17)
    assert 0.0 <= value <= 1.0
    # ages can never undershoot the service time, so up to the kink the
    # value is exactly zero, with no inversion to warn about
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert marginal_aoi_cdf(det, 0, 0.12) == 0.0
        assert marginal_aoi_cdf(det, 0, 1.0 / 6.0) == 0.0


def test_cdf_is_zero_below_the_smallest_delay():
    # the benchmark's cdf-long system: source 2's ages are never below 0.2
    spec = SystemSpec(rates=(2.0, 1.0), services=(Gamma(2.0, 8.0), Deterministic(0.2)))
    grid = np.linspace(0.05, 6.0, 200)
    below = grid[grid < 0.2]
    assert below.size == 6
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert marginal_aoi_cdf(spec, 1, below).tolist() == [0.0] * 6
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", InversionAccuracyWarning)
        values = marginal_aoi_cdf(spec, 1, grid[:20])
    assert np.all(np.diff(values) >= 0.0) and values[6] > 0.0
    # a mixture's smallest age is its smallest component's
    mix = SystemSpec(rates=(3.0,), services=(Mixture((0.5, 0.5), (Deterministic(0.3), Deterministic(0.1))),))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert marginal_aoi_cdf(mix, 0, [0.05, 0.1]).tolist() == [0.0, 0.0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", InversionAccuracyWarning)
        assert marginal_aoi_cdf(mix, 0, 0.15) > 0.0


# the benchmark's cdf-long system and grid
CDF_LONG = SystemSpec(rates=(2.0, 1.0), services=(Gamma(2.0, 8.0), Deterministic(0.2)))
CDF_GRID = np.linspace(0.05, 6.0, 200)
WARNING_RE = re.compile(r"CDF inversion residual (\S+) above 1e-06 at x=(\S+) for source (\d+)")


def inversion_warnings(spec, k, x):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = marginal_aoi_cdf(spec, k, x)
    return value, [str(w.message) for w in caught if issubclass(w.category, InversionAccuracyWarning)]


@pytest.mark.parametrize("k", [0, 1])
def test_cdf_array_call_equals_scalar_calls(k):
    # the det source warns just above its delay; the gamma source's CDF
    # is 1 past the grid, where no warning is due
    x = np.append(CDF_GRID, [12.0, 20.0])
    values, messages = inversion_warnings(CDF_LONG, k, x)
    points = [inversion_warnings(CDF_LONG, k, v) for v in x]
    assert all(isinstance(v, float) for v, _ in points)
    assert values.tolist() == [v for v, _ in points]
    # one warning per point over tolerance, as the scalar calls give them
    assert messages == [m for _, ms in points for m in ms]
    assert all(len(ms) <= 1 for _, ms in points)
    assert bool(messages) == (k == 1)
    for message in messages:
        residual, x, source = WARNING_RE.fullmatch(message).groups()
        assert float(residual) > INVERSION_RESIDUAL_TOL
        assert float(x) > CDF_LONG.services[k].support_min and int(source) == k + 1  # counted from 1


def talbot_cdf_on_the_scaled_contour(spec, k, x, nodes):
    """The fixed-Talbot sum with its weights taken at each x's own
    contour, as `_talbot_cdf` once computed it: the reference for its
    x-free weights, which it matches up to rounding."""
    M = nodes
    r = 2.0 * M / (5.0 * x)
    theta = np.pi * np.arange(1, M) / M
    cot = np.cos(theta) / np.sin(theta)
    p = (r[:, None] * theta) * (cot + 1j)
    sigma = theta + (theta * cot - 1.0) * cot
    z = np.column_stack([r, p])
    with np.errstate(over="ignore", invalid="ignore", under="ignore", divide="ignore"):
        w = spec.services[k].laplace_complex(z + spec.total_rate)
        num = spec.rates[k] * w
        lt = np.where(np.isfinite(w), num / (z + num), 1.0)
        terms = np.exp(x[:, None] * p) * (lt[:, 1:] / p) * (1.0 + 1j * sigma)
    terms = np.where(np.isfinite(terms), terms, 0.0)
    head = 0.5 * np.exp(r * x) * (lt[:, 0] / r).real
    return (2.0 / (5.0 * x)) * (head + terms.real.sum(axis=1))


def test_cdf_at_extreme_thresholds():
    x = np.array([5e-324, 1e-310, 1e-300, 1e-200, 1e-100, 1e-10, 1e300])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        values = marginal_aoi_cdf(CDF_LONG, 0, x)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    # a CDF does not decrease, and near 0 the gamma source's is about x^3
    assert np.all(values[:5] <= values[5]) and 0.0 < values[5] < 1e-28
    assert values[-1] == 1.0
    # on the cdf-long grid, away from the extremes, the x-free weights
    # move no value beyond the closed-form tolerance and warn less often
    inside = CDF_GRID > CDF_LONG.services[1].support_min
    n_warnings = 0
    for k, grid in ((0, CDF_GRID), (1, CDF_GRID[inside])):
        want = np.clip(talbot_cdf_on_the_scaled_contour(CDF_LONG, k, grid, analytics.TALBOT_NODES), 0.0, 1.0)
        values, messages = inversion_warnings(CDF_LONG, k, grid)
        assert np.max(np.abs(values - want)) < 5e-6
        n_warnings += len(messages)
    assert n_warnings <= 15  # the count with the weights taken per x


def test_cdf_does_not_warn_where_it_is_one():
    # both contours overshoot 1 there, by different amounts; the residual
    # compares the clipped values, the returned one among them
    values, messages = inversion_warnings(CDF_LONG, 0, np.linspace(12.0, 1000.0, 50))
    assert messages == [] and np.all(values == 1.0)
    # a residual of a value below 1 still warns
    value, messages = inversion_warnings(CDF_LONG, 1, 20.0)
    assert value < 1.0 and len(messages) == 1


def test_cdf_keeps_the_shape_of_x():
    grid = CDF_GRID[:60].reshape(3, 20)
    values = marginal_aoi_cdf(SYMMETRIC, 0, grid)
    assert values.shape == (3, 20)
    assert np.array_equal(values.reshape(-1), marginal_aoi_cdf(SYMMETRIC, 0, grid.reshape(-1)))
    assert isinstance(marginal_aoi_cdf(SYMMETRIC, 0, np.float64(0.5)), float)


@pytest.mark.parametrize("x", [[0.5, 1.0, math.nan], [0.5, -1.0], [[0.5, 1.0], [2.0, math.inf]], -0.1])
def test_cdf_rejects_bad_thresholds_before_inverting(x, monkeypatch):
    calls = []
    monkeypatch.setattr(ServiceTimeModel, "laplace_complex", lambda model, z: calls.append(z))
    with pytest.raises(ValueError, match="age threshold must be nonnegative and finite"):
        marginal_aoi_cdf(SYMMETRIC, 0, x)
    assert calls == []


def test_cdf_warns_only_above_the_smallest_age():
    det = SystemSpec(rates=(3.0, 3.0), services=(Deterministic(1.0 / 6.0),) * 2)
    values, messages = inversion_warnings(det, 0, [0.12, 1.0 / 6.0, 0.17, 0.1])
    assert values[[0, 1, 3]].tolist() == [0.0, 0.0, 0.0] and 0.0 <= values[2] <= 1.0
    assert len(messages) == 1 and WARNING_RE.fullmatch(messages[0]).group(2) == "0.17"
    values, messages = inversion_warnings(CDF_LONG, 1, CDF_GRID)
    warned = [float(WARNING_RE.fullmatch(m).group(2)) for m in messages]
    assert np.all(values[CDF_GRID <= 0.2] == 0.0) and min(warned) > 0.2


def test_cdf_chunks_do_not_change_values(monkeypatch):
    chunk = analytics._CDF_CHUNK
    x = np.linspace(0.01, 8.0, 2 * chunk + 17)
    rows = []
    transform = ServiceTimeModel.laplace_complex

    def recording(model, z):
        rows.append(z.shape[0])
        return transform(model, z)

    monkeypatch.setattr(ServiceTimeModel, "laplace_complex", recording)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", InversionAccuracyWarning)
        whole = marginal_aoi_cdf(SYMMETRIC, 0, x)
        assert rows == [chunk, chunk, chunk, chunk, 17, 17]
        parts = [marginal_aoi_cdf(SYMMETRIC, 0, x[i : i + chunk]) for i in range(0, x.size, chunk)]
    assert np.array_equal(whole, np.concatenate(parts))
