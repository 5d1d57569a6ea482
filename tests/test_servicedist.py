import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aoistats.analytics import (
    SystemSpec,
    aoi_correlation,
    departure_rate,
    marginal_aoi_laplace,
    marginal_aoi_moments,
)
from aoistats import servicedist
from aoistats.servicedist import (
    Deterministic,
    Exponential,
    Gamma,
    Mixture,
    ServiceTimeModel,
    categorical,
    format_service,
    parse_service,
)
from aoistats.simulator import _ROLE_SERVICE, replication_rng

SERVICEDIST = Path(servicedist.__file__)
FD_REL_TOL = 1e-6
MC_DRAWS = 200_000

# parameter ranges keep the transforms clear of literal underflow so the
# positivity property below can stay strict
rates = st.floats(min_value=0.05, max_value=50.0)
shapes = st.floats(min_value=0.05, max_value=20.0)
det_values = st.floats(min_value=0.0, max_value=5.0)
s_args = st.floats(min_value=0.0, max_value=50.0)


def models():
    return st.one_of(
        st.builds(Exponential, rates),
        st.builds(Gamma, shapes, rates),
        st.builds(Deterministic, det_values),
    )


# --- frozen transform values -------------------------------------------------


def test_exponential_anchor_values():
    m = Exponential(6.0)
    assert m.laplace(6.0) == 0.5
    assert m.laplace_derivative(6.0) == -1.0 / 24.0
    assert m.laplace(0.0) == 1.0
    assert m.mean() == 1.0 / 6.0


def test_deterministic_anchor_values():
    m = Deterministic(1.0 / 6.0)
    assert m.laplace(6.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert m.laplace(0.0) == 1.0
    assert m.mean() == 1.0 / 6.0
    assert Deterministic(0.0).laplace(123.0) == 1.0


def test_gamma_anchor_values():
    m = Gamma(2.0, 4.0)
    assert m.laplace(4.0) == 0.25
    assert m.laplace_derivative(0.0) == -0.5  # minus the mean
    assert m.mean() == 0.5
    # shape 1 collapses to the exponential transform
    g1 = Gamma(1.0, 3.0)
    e = Exponential(3.0)
    for s in (0.0, 0.7, 3.0, 11.0):
        assert g1.laplace(s) == pytest.approx(e.laplace(s), rel=1e-15)


def test_mixture_anchor_values():
    m = Mixture((0.5, 0.5), (Exponential(2.0), Exponential(4.0)))
    assert m.mean() == 0.375
    assert m.laplace(0.0) == pytest.approx(1.0, abs=1e-15)
    assert m.laplace(2.0) == pytest.approx(0.5 * 0.5 + 0.5 * (4.0 / 6.0), rel=1e-15)


# --- validation --------------------------------------------------------------


@pytest.mark.parametrize(
    "build",
    [
        lambda: Exponential(0.0),
        lambda: Exponential(-1.0),
        lambda: Exponential(math.inf),
        lambda: Gamma(0.0, 1.0),
        lambda: Gamma(1.0, -2.0),
        lambda: Deterministic(-0.1),
        lambda: Mixture((0.5, 0.6), (Exponential(1.0), Exponential(2.0))),
        lambda: Mixture((1.0,), (Mixture((1.0,), (Exponential(1.0),)),)),
        lambda: Mixture((), ()),
        lambda: Mixture((0.5, -0.5, 1.0), (Exponential(1.0),) * 3),
        lambda: Mixture((1e308, 1e308), (Exponential(1.0), Deterministic(1.0))),
    ],
)
def test_invalid_construction(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize(
    "build,field,value",
    [
        (lambda: Exponential(np.int64(6)), "rate", 6.0),
        (lambda: Gamma(np.float32(2), 8), "shape", 2.0),
        (lambda: Gamma(np.float32(2), 8), "rate", 8.0),
        (lambda: Deterministic(np.int32(0)), "value", 0.0),
    ],
    ids=["exp-int64", "gamma-float32-shape", "gamma-int-rate", "det-int32"],
)
def test_numpy_scalar_parameters(build, field, value):
    got = getattr(build(), field)
    assert type(got) is float and got == value


@pytest.mark.parametrize(
    "build",
    [
        lambda: Exponential(True),
        lambda: Exponential(np.bool_(True)),
        lambda: Gamma(2.0, "8"),
        lambda: Gamma(None, 8.0),
        lambda: Deterministic(1.0 + 0.0j),
    ],
    ids=["bool", "numpy-bool", "str", "none", "complex"],
)
def test_non_number_parameters_are_type_errors(build):
    with pytest.raises(TypeError, match="must be a real number"):
        build()


def test_out_of_range_parameter_messages():
    with pytest.raises(ValueError, match="^exponential rate must be positive and finite, got -1$"):
        Exponential(-1)
    with pytest.raises(ValueError, match="^gamma shape must be positive and finite, got 0$"):
        Gamma(np.int64(0), 1.0)
    with pytest.raises(ValueError, match="^gamma rate must be positive and finite, got nan$"):
        Gamma(1.0, math.nan)
    with pytest.raises(ValueError, match="^deterministic value must be nonnegative and finite, got -0.1$"):
        Deterministic(-0.1)


def test_transform_underflows_to_zero_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for m in (Deterministic(2.0), Exponential(1e308), Gamma(2.0, 1e-9)):
            assert m.laplace(1e308) == 0.0 and m.laplace_derivative(1e308) == 0.0
        # shape times log(1 + s/rate) overflows on the way to 0
        assert Gamma(1e308, 1e-300).laplace(1.0) == 0.0 and Gamma(1e308, 1e-300).laplace_derivative(1.0) == 0.0


def test_exponential_derivative_of_an_extreme_rate_is_finite():
    # the square of rate + s leaves float64 outside about [1e-154, 1e154]
    for rate in (1e154, 1e200, 1e300):
        assert Exponential(rate).laplace_derivative(1.0) == pytest.approx(-1.0 / rate, rel=1e-12)
    assert Exponential(1e-162).laplace_derivative(0.0) == pytest.approx(-1e162, rel=1e-12)


def test_transform_argument_checks():
    m = Exponential(1.0)
    with pytest.raises(ValueError):
        m.laplace(-0.5)
    with pytest.raises(ValueError):
        m.laplace(math.nan)
    with pytest.raises(TypeError):
        m.laplace(1.0 + 0.0j)
    with pytest.raises(ValueError):
        m.laplace_derivative(-1.0)


# --- transform properties ----------------------------------------------------


@given(models(), s_args)
def test_transform_in_unit_interval(model, s):
    v = model.laplace(s)
    assert 0.0 < v <= 1.0
    assert model.laplace(0.0) == pytest.approx(1.0, abs=1e-12)


@given(models(), s_args, s_args)
def test_transform_monotone_decreasing(model, s1, s2):
    lo, hi = sorted((s1, s2))
    assert model.laplace(lo) >= model.laplace(hi)


@given(models(), st.floats(min_value=0.1, max_value=20.0))
def test_derivative_signs_and_peak_bound(model, s):
    d1 = model.laplace_derivative(s)
    assert d1 <= 0.0
    # -L'(s) = E[S exp(-sS)] <= max_x x exp(-sx) = 1/(e s)
    assert -d1 <= 1.0 / (math.e * s) + 1e-12


def test_peak_bound_attained_by_matched_point_mass():
    for s in (0.5, 2.0, 7.0):
        m = Deterministic(1.0 / s)
        assert -m.laplace_derivative(s) == pytest.approx(1.0 / (math.e * s), rel=1e-14)


@given(models(), st.floats(min_value=0.1, max_value=20.0))
@example(Deterministic(5.960464477539063e-08), 1.0)
@settings(max_examples=60)
def test_first_derivative_matches_finite_difference(model, s):
    # complex-step derivative: Im L(s + ih) / h has no subtractive
    # cancellation, so it stays accurate where a central difference of a
    # nearly flat transform (tiny point mass) loses every digit
    h = 1e-20
    fd = model.laplace_complex(complex(s, h)).imag / h
    exact = model.laplace_derivative(s)
    assert fd == pytest.approx(exact, rel=FD_REL_TOL, abs=1e-12)


@given(st.one_of(models(), st.just(Gamma(1e10, 1e11))), rates, s_args)
@example(Gamma(1e10, 1e11), 1.0, 0.7)
def test_marginal_age_transform_reads_the_scalar_transform(model, rate, s):
    # the subset recursion over one source and the one-source formula
    # built from `laplace` evaluate the same transform expression
    spec = SystemSpec((rate, 1.0), (model, Exponential(2.0)))
    v = rate * model.laplace(s + spec.total_rate)
    assert marginal_aoi_laplace(spec, 0, s) == v / (s + v)


def test_large_shape_gamma_tends_to_the_point_mass():
    gamma, det = Gamma(1e10, 1e11), Deterministic(0.1)
    g_spec, d_spec = SystemSpec((1.0, 2.0), (gamma, gamma)), SystemSpec((1.0, 2.0), (det, det))
    pairs = [
        (gamma.laplace(3.0), det.laplace(3.0)),
        (gamma.laplace_derivative(3.0), det.laplace_derivative(3.0)),
        (departure_rate(g_spec), departure_rate(d_spec)),
        (aoi_correlation(g_spec), aoi_correlation(d_spec)),
    ]
    pairs += [(marginal_aoi_moments(g_spec, k).variance, marginal_aoi_moments(d_spec, k).variance) for k in range(2)]
    for got, want in pairs:
        assert got == pytest.approx(want, rel=1e-9, abs=0.0)


TEXTBOOK_MEAN = {
    Exponential: lambda m: 1.0 / m.rate,
    Gamma: lambda m: m.shape / m.rate,
    Deterministic: lambda m: m.value,
}


@given(models())
def test_mean_is_minus_derivative_at_zero(model):
    # mean() is -L'(0) by definition; this checks it against each family's
    # textbook mean, to a few roundings
    assert model.mean() == pytest.approx(TEXTBOOK_MEAN[type(model)](model), rel=1e-15, abs=0.0)


@given(models(), st.floats(min_value=0.0, max_value=30.0))
def test_complex_transform_agrees_on_real_axis(model, s):
    z = model.laplace_complex(complex(s, 0.0))
    assert z.imag == 0.0
    assert z.real == pytest.approx(model.laplace(s), rel=1e-13)


@given(st.one_of(models(), st.builds(Mixture, st.just((0.25, 0.75)), st.tuples(models(), models()))))
@settings(max_examples=40)
def test_complex_transform_is_elementwise_over_arrays(model):
    z = np.array([[0.5 + 1.0j, 3.0 - 40.0j, 0.0], [12.0 + 0.1j, -2.0 + 7.0j, 50.0]])
    values = model.laplace_complex(z)
    assert values.shape == z.shape
    assert np.array_equal(values, [[model.laplace_complex(v) for v in row] for row in z])


def test_complex_transform_overflows_to_inf():
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isinf(Deterministic(0.2).laplace_complex(-5000.0 + 1.0j).real)
        assert not np.all(np.isfinite(Mixture((0.5, 0.5), (Exponential(1.0), Deterministic(0.2))).laplace_complex([-5000.0])))


# --- sampling ----------------------------------------------------------------


@pytest.mark.parametrize(
    "model,sd",
    [
        (Exponential(4.0), 0.25),
        (Gamma(0.5, 3.0), math.sqrt(0.5) / 3.0),
        (Gamma(7.0, 2.0), math.sqrt(7.0) / 2.0),
        (
            Mixture((0.3, 0.7), (Exponential(2.0), Deterministic(0.25))),
            # var = sum w (var_i + mean_i^2) - mean^2
            math.sqrt(0.3 * (0.25 + 0.25) + 0.7 * 0.0625 - (0.3 * 0.5 + 0.7 * 0.25) ** 2),
        ),
    ],
)
def test_sample_mean_matches_analytic(model, sd):
    rng = np.random.default_rng(20240817)
    draws = model.sample(rng, MC_DRAWS)
    assert draws.shape == (MC_DRAWS,)
    assert np.all(draws >= 0.0)
    z = (draws.mean() - model.mean()) / (sd / math.sqrt(MC_DRAWS))
    assert abs(z) < 4.0


def test_support_min_is_the_smallest_draw():
    assert Exponential(4.0).support_min == 0.0
    assert Gamma(2.0, 3.0).support_min == 0.0
    assert Deterministic(0.3).support_min == 0.3
    assert Mixture((0.5, 0.5), (Deterministic(0.3), Deterministic(0.1))).support_min == 0.1
    assert Mixture((0.5, 0.5), (Exponential(2.0), Deterministic(0.1))).support_min == 0.0


def searchsorted_category(u, cum):
    return np.minimum(np.searchsorted(cum, u, side="right"), len(cum) - 1)


def searchsorted_mixture_sample(model, rng, size):
    """Mixture.sample as it picked components by `np.searchsorted` and
    scattered draws through boolean masks."""
    idx = searchsorted_category(rng.random(size), np.cumsum(model.weights))
    out = np.empty(size)
    for i, comp in enumerate(model.components):
        mask = idx == i
        n = int(mask.sum())
        if n:
            out[mask] = comp.sample(rng, n)
    return out


@pytest.mark.parametrize(
    "weights", [(1.0,), (0.5, 0.5), (0.7, 0.2, 0.1), (0.1, 0.2, 0.3, 0.4), (1.0 / 300,) * 300]
)
def test_categorical_is_the_capped_search(weights):
    # (0.7, 0.2, 0.1) sums to 0.9999999999999999: a uniform above that
    # still picks the last category; 300 categories overflow an 8-bit count
    cum = np.cumsum(weights)
    u = np.concatenate([[0.0, np.nextafter(1.0, 0.0)], cum, np.nextafter(cum, 0.0), np.linspace(0.0, 1.0, 101)[:-1]])
    u = u[u < 1.0]
    got = categorical(u, cum)
    assert got.dtype == np.int64 and np.array_equal(got, searchsorted_category(u, cum))
    assert [int(categorical(v, cum)) for v in u] == searchsorted_category(u, cum).tolist()


@given(
    st.lists(st.tuples(st.floats(0.05, 1.0), models()), min_size=1, max_size=4),
    st.integers(0, 2**32),
    st.integers(0, 300),
)
@settings(max_examples=60)
def test_mixture_sample_matches_searchsorted_draws(terms, seed, size):
    total = math.fsum(w for w, _ in terms)
    model = Mixture(tuple(w / total for w, _ in terms), tuple(c for _, c in terms))
    got = model.sample(np.random.default_rng(seed), size)
    want = searchsorted_mixture_sample(model, np.random.default_rng(seed), size)
    assert np.array_equal(got, want)


def mixtures():
    terms = st.lists(st.tuples(st.floats(0.05, 1.0), models()), min_size=1, max_size=4)
    return terms.map(
        lambda t: Mixture(tuple(w / math.fsum(w for w, _ in t) for w, _ in t), tuple(c for _, c in t))
    )


def fresh_streams(model, seed):
    """One new Philox generator per stream of `model`, as the simulator
    gives a source: the service-role streams (0, j) of replication 0."""
    return [replication_rng(seed, 0, _ROLE_SERVICE, (0, j)) for j in range(model.streams)]


@given(st.one_of(models(), mixtures()), st.integers(0, 2**32), st.integers(0, 300), st.integers(0, 300))
@example(Mixture((0.4, 0.6), (Gamma(0.5, 3.0), Exponential(3.0))), 7, 5, 40)
@example(Mixture((0.5, 0.5), (Exponential(10.0), Deterministic(0.1))), 3, 0, 9)
@settings(max_examples=80)
def test_draws_are_prefix_consistent(model, seed, n, m):
    # n draws and then m give the n + m draws of one call
    rngs = fresh_streams(model, seed)
    split = np.concatenate([model.draw(rngs, n), model.draw(rngs, m)])
    assert np.array_equal(split, model.draw(fresh_streams(model, seed), n + m))


def one_generator_mixture_sample(model, rng, size):
    """Mixture.sample as it read one generator for everything: the
    choices first, then each component's values in turn."""
    idx = categorical(rng.random(size), np.cumsum(model.weights))
    out = np.empty(size)
    for i, comp in enumerate(model.components):
        pick = np.flatnonzero(idx == i)
        if pick.size:
            out[pick] = comp.sample(rng, pick.size)
    return out


@given(mixtures(), st.integers(0, 2**32), st.integers(0, 300))
@example(Mixture((0.4, 0.6), (Gamma(0.5, 3.0), Exponential(3.0))), 7, 45)
@settings(max_examples=60)
def test_mixture_sample_reads_one_generator_as_before(model, seed, size):
    # the same values, and the generator left where the oracle leaves it
    rng, want_rng = replication_rng(seed, 0, _ROLE_SERVICE), replication_rng(seed, 0, _ROLE_SERVICE)
    assert np.array_equal(model.sample(rng, size), one_generator_mixture_sample(model, want_rng, size))
    assert rng.random() == want_rng.random()


def test_sample_scalar_and_deterministic():
    rng = np.random.default_rng(5)
    assert np.all(Deterministic(0.3).sample(rng, 7) == 0.3)


@pytest.mark.parametrize(
    "model",
    [
        Exponential(6.0),
        Gamma(2.0, 12.0),
        Deterministic(1.0 / 6.0),
        Mixture((0.4, 0.6), (Exponential(3.0), Gamma(0.5, 3.0))),
    ],
)
def test_completion_frequency_matches_transform(model):
    # P(S <= G) with G ~ Exp(lam) independent equals the transform at lam;
    # ties count as completions, matching the simulator's rule
    lam = 6.0
    rng = np.random.default_rng(999)
    s_draws = model.sample(rng, MC_DRAWS)
    gaps = rng.exponential(1.0 / lam, MC_DRAWS)
    p_hat = float(np.mean(s_draws <= gaps))
    p = model.laplace(lam)
    z = (p_hat - p) / math.sqrt(p * (1.0 - p) / MC_DRAWS)
    assert abs(z) < 4.0


# --- literals ----------------------------------------------------------------


@pytest.mark.parametrize(
    "text,expected",
    [
        ("exp(6)", Exponential(6.0)),
        (" EXP( 2.5 ) ", Exponential(2.5)),
        ("gamma(0.5, 3)", Gamma(0.5, 3.0)),
        ("det(0.166)", Deterministic(0.166)),
        ("det(0)", Deterministic(0.0)),
        (
            "mix(0.5*exp(2), 0.5*exp(4))",
            Mixture((0.5, 0.5), (Exponential(2.0), Exponential(4.0))),
        ),
        (
            "mix(0.25*gamma(2, 8), 0.75*det(0.1))",
            Mixture((0.25, 0.75), (Gamma(2.0, 8.0), Deterministic(0.1))),
        ),
    ],
)
def test_parse_service(text, expected):
    assert parse_service(text) == expected


@pytest.mark.parametrize(
    "text",
    [
        "exp",
        "exp()",
        "exp(1, 2)",
        "gamma(1)",
        "norm(0, 1)",
        "exp(abc)",
        "mix(0.5*exp(1), 0.5)",
        "mix(1.0*mix(1.0*exp(1)))",
        "mix(0.4*exp(1), 0.4*exp(2))",
    ],
)
def test_parse_service_rejects(text):
    with pytest.raises(ValueError):
        parse_service(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("exp(1, 2)", "exp() takes 1 argument, got 2 in 'exp(1, 2)'"),
        ("gamma(1)", "gamma() takes 2 arguments, got 1 in 'gamma(1)'"),
        (" DET(1,2) ", "det() takes 1 argument, got 2 in 'DET(1,2)'"),
        ("weibull(1)", "unknown distribution 'weibull' in 'weibull(1)'"),
        ("mix(1.0*mix(1.0*exp(1)))", "nested mix() in 'mix(1.0*mix(1.0*exp(1)))'"),
        ("gamma(2, x)", "bad number 'x' in distribution literal 'gamma(2, x)'"),
    ],
)
def test_parse_service_error_wording(text, message):
    with pytest.raises(ValueError) as info:
        parse_service(text)
    assert str(info.value) == message


def test_format_service_writes_the_family_of_a_subclass():
    class Slow(Gamma):
        literal = "slow"

    assert format_service(Slow(2.0, 0.5)) == "gamma(2.0, 0.5)"
    with pytest.raises(TypeError, match="^cannot format ServiceTimeModel$"):
        format_service(ServiceTimeModel())


def test_each_literal_name_is_written_once():
    text = SERVICEDIST.read_text()
    names = [family.literal for family in servicedist._FAMILIES.values()] + [Mixture.literal]
    assert len(set(names)) == len(names)
    for name in names:
        assert len(re.findall(f"[\"']{name}[\"'(]", text)) == 1, name


@given(models())
def test_format_parse_round_trip(model):
    assert parse_service(format_service(model)) == model


def test_format_parse_round_trip_mixture():
    m = Mixture((1.0 / 3.0, 2.0 / 3.0), (Exponential(6.0), Deterministic(1.0 / 6.0)))
    assert parse_service(format_service(m)) == m
