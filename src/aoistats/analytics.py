"""Closed-form age statistics of the multi-source Poisson pushout server.

Model: K independent Poisson packet sources with rates lambda_k feed a
single server that holds no buffer; a new packet always replaces the one
in service, and a packet departs only if its service requirement fits in
the gap before the next arrival.  Every quantity below is exact and is
expressed through the per-source service transforms L_k evaluated at the
aggregate rate lambda = sum_k lambda_k.

Conventions: sources are indexed 0..K-1 in this API; A_k denotes the
stationary age (time since generation of the newest delivered packet) of
source k.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .servicedist import ServiceTimeModel

__all__ = [
    "SystemSpec",
    "AoIStatistics",
    "MarginalMoments",
    "SourcePalmMeans",
    "InversionAccuracyWarning",
    "departure_rate",
    "pushout_rate",
    "source_update_share",
    "marginal_aoi_laplace",
    "marginal_aoi_moments",
    "palm_means",
    "joint_aoi_laplace",
    "aoi_covariance",
    "aoi_correlation",
    "cc_lower_bound",
    "aoi_statistics",
    "marginal_aoi_cdf",
    "joint_laplace_label",
    "default_s_grid",
    "s_rows",
    "analytic_quantities",
    "TALBOT_NODES",
    "INVERSION_RESIDUAL_TOL",
]

_MAX_SUPPORT = 16  # sources one joint-transform argument may touch
TALBOT_NODES = 64
INVERSION_RESIDUAL_TOL = 1e-6
_CDF_CHUNK = 256  # thresholds inverted together by marginal_aoi_cdf


class InversionAccuracyWarning(UserWarning):
    """Numerical CDF inversion residual exceeded the accuracy target."""


@dataclass(frozen=True)
class SystemSpec:
    """Arrival rates and service-time models, one entry per source.

    Construction validates that every rate is positive and finite, as is
    their sum, and that every source has a strictly positive completion
    probability L_k(lambda) at the aggregate rate (a packet must be able to
    beat the next arrival, otherwise no update ever happens and no
    stationary age exists; the check also rejects specs whose completion
    probability underflows to zero in float64).  A spec is frozen, so it
    stays valid once built, and equal specs hash equal.
    """

    rates: tuple[float, ...]
    services: tuple[ServiceTimeModel, ...]

    def __post_init__(self):
        object.__setattr__(self, "rates", tuple(float(r) for r in self.rates))
        object.__setattr__(self, "services", tuple(self.services))
        if len(self.rates) == 0:
            raise ValueError("at least one source is required")
        if len(self.rates) != len(self.services):
            raise ValueError(
                f"got {len(self.rates)} rates for {len(self.services)} service models"
            )
        for i, r in enumerate(self.rates):
            if not (math.isfinite(r) and r > 0):
                raise ValueError(f"source {i + 1}: arrival rate must be positive and finite, got {r}")
        if not math.isfinite(sum(self.rates)):
            raise ValueError("the total arrival rate overflows")
        lam = self.total_rate
        with np.errstate(over="ignore"):  # a gamma transform may overflow on its way to 0
            for i, model in enumerate(self.services):
                if not isinstance(model, ServiceTimeModel):
                    raise TypeError(f"source {i + 1}: expected a ServiceTimeModel, got {type(model).__name__}")
                if model.laplace(lam) <= 0.0:
                    raise ValueError(f"source {i + 1}: completion probability is zero at aggregate rate {lam}")

    @property
    def num_sources(self) -> int:
        return len(self.rates)

    @property
    def total_rate(self) -> float:
        return math.fsum(self.rates)


def _check_source_index(k, num_sources: int) -> int:
    if isinstance(k, bool):
        raise TypeError("source index must be an integer, got a bool")
    k = operator.index(k)
    if not 0 <= k < num_sources:
        raise IndexError(f"source index {k} out of range for {num_sources} sources")
    return k


def departure_rate(spec: SystemSpec) -> float:
    """Long-run rate of delivered packets, lambda * L_S(lambda), for L_S
    the rate-weighted mix of the L_k, the service law of a typical packet.

    Equivalently sum_k lambda_k L_k(lambda): each arrival survives with
    probability equal to its service transform at the aggregate rate.
    """
    return math.fsum(_source_update_rate(spec, k) for k in range(spec.num_sources))


def pushout_rate(spec: SystemSpec) -> float:
    """Long-run rate of packets replaced mid-service, lambda * (1 - L_S(lambda))."""
    return spec.total_rate - departure_rate(spec)


def source_update_share(spec: SystemSpec, k: int) -> float:
    """Fraction of deliveries that belong to source k; shares sum to one."""
    k = _check_source_index(k, spec.num_sources)
    return _source_update_rate(spec, k) / departure_rate(spec)


def _source_update_rate(spec: SystemSpec, k: int) -> float:
    """lambda_k L_k(lambda), the long-run rate of source k's deliveries."""
    return spec.rates[k] * spec.services[k].laplace(spec.total_rate)


def marginal_aoi_laplace(spec: SystemSpec, k: int, s: float) -> float:
    """Transform E[exp(-s * A_k)] of the stationary age of source k: the
    subset recursion over {k}, lambda_k L_k(s + lambda) / (s + lambda_k L_k(s + lambda)).
    """
    k = _check_source_index(k, spec.num_sources)
    return float(_subset_transform(spec, [k], np.array(_s_row((s,), 1, spec.total_rate))))


class MarginalMoments(NamedTuple):
    mean: float
    variance: float
    cv: float


def marginal_aoi_moments(spec: SystemSpec, k: int) -> MarginalMoments:
    """Exact mean, variance, and coefficient of variation of A_k.

    mean = 1 / (lambda_k L_k(lambda)); the cv depends on the system only
    through lambda_k L_k'(lambda) and equals sqrt(1 + 2 lambda_k L_k'(lambda)),
    which is strictly below 1: sampling at delivery times makes the age
    less variable than an exponential of the same mean.  ValueError if the
    variance, about 1 / update rate squared, is not a positive float64:
    an update rate below about 1e-154 or above about 1e154.
    """
    k = _check_source_index(k, spec.num_sources)
    el = _source_update_rate(spec, k)
    dl = spec.rates[k] * spec.services[k].laplace_derivative(spec.total_rate)
    try:
        variance = (1.0 + 2.0 * dl) / el**2
    except (ZeroDivisionError, OverflowError):  # the squared update rate left float64
        variance = math.nan
    if not 0 < variance < math.inf:  # then the mean, at most 1 / el, is finite too
        raise ValueError(f"source {k + 1}: age moments are out of float64 range at update rate {el:g}")
    return MarginalMoments(1.0 / el, variance, math.sqrt(max(1.0 + 2.0 * dl, 0.0)))


class SourcePalmMeans(NamedTuple):
    delay_mean: float
    peak_mean: float
    update_rate: float


def palm_means(spec: SystemSpec, k: int) -> SourcePalmMeans:
    """Per-delivery means for source k: delay, peak age, update rate.

    delay_mean = -L_k'(lambda)/L_k(lambda) is the mean system time of a
    delivered packet; the mean peak age adds one mean update interval:
    peak_mean = delay_mean + 1/update_rate.
    """
    k = _check_source_index(k, spec.num_sources)
    lam, update_rate = spec.total_rate, _source_update_rate(spec, k)
    delay_mean = -spec.services[k].laplace_derivative(lam) / spec.services[k].laplace(lam)
    return SourcePalmMeans(delay_mean, delay_mean + 1.0 / update_rate, update_rate)


def joint_aoi_laplace(spec: SystemSpec, s) -> float:
    """Joint transform E[exp(-sum_k s_k A_k)] of all K stationary ages.

    The K! recency orderings of the closed form factor over recency
    suffixes into a recursion over subsets H, with F({}) = 1, sbar_H the
    sum of s over H and v_k = lambda_k L_k(sbar_H + lambda):

        F(H) = sum_{k in H} v_k F(H - {k}) / (sbar_H + sum_{j in H} v_j).

    Its value is F(S) over the support S = {k : s_k > 0}, each L_k still at
    the full rate lambda, as F(H) = F(G) for G = H & S by induction on |H|:
    sbar_H = sbar_G gives F(H) the v of F(G) = N / D, F(H - {k}) is
    F(G - {k}) for k in G and F(G) for k in H - S, so with V the sum of v
    over H - S, F(H) = (N + V F(G)) / (D + V) = F(G) (V / V = 1 if G = {}).
    So a source with s_k = 0 enters only through lambda.  Every F(H) lies
    in [0, 1], so rescaling time cannot overflow it.  Cost grows as
    |S| 2^|S|, with |S| capped at 16; the all-zero row gives exactly 1.
    """
    svec = np.array(_s_row(s, spec.num_sources, spec.total_rate))
    support = np.flatnonzero(svec)
    return float(_subset_transform(spec, support, svec[support]))


def _subset_transform(spec: SystemSpec, support, s: np.ndarray) -> np.ndarray:
    """F(support) of joint_aoi_laplace's recursion, for s (..., n) real or
    complex arguments of the n sources of `support`, over leading axes of
    points.  Subsets are bitmasks over the support, filled one size at a
    time; each L_k is evaluated on the masks that hold k, and sums run in
    ascending k.  ValueError if n > _MAX_SUPPORT.  Real arguments come
    checked by `_s_row`; complex ones only from `_talbot_cdf`'s contour.
    """
    n = len(support)
    if n > _MAX_SUPPORT:
        raise ValueError(f"argument touches {n} sources, above the cap of {_MAX_SUPPORT}")
    masks, lam = np.arange(1 << n), spec.total_rate
    bits = (masks[:, None] >> np.arange(n) & 1).astype(bool)  # bits[mask, j]: j in mask
    sbar = np.zeros(masks.shape + s.shape[:-1], np.result_type(s, float))
    v = np.empty((n,) + sbar.shape, sbar.dtype)
    with np.errstate(over="ignore"):  # a transform may also overflow on its way to 0
        for j in reversed(range(n)):  # sbar_H = sbar_{H - lowest} + s_lowest
            low = masks[masks & -masks == 1 << j]
            sbar[low] = sbar[low & (low - 1)] + s[..., j]
        for j, k in enumerate(support):  # the service transforms see the point axes first
            at = np.moveaxis(sbar[bits[:, j]] + lam, 0, -1)
            L = spec.services[k].laplace_complex if np.iscomplexobj(at) else spec.services[k]._laplace_array
            v[j, bits[:, j]] = np.moveaxis(spec.rates[k] * L(at), -1, 0)
    F = np.zeros(sbar.shape, sbar.dtype)
    F[0], size = 1.0, bits.sum(axis=1)
    for m in range(1, n + 1):
        layer = np.flatnonzero(size == m)
        rate_sum = acc = 0.0
        for j in np.nonzero(bits[layer])[1].reshape(-1, m).T:  # each mask's r-th source
            vj = v[j, layer]
            rate_sum = rate_sum + vj
            acc = acc + vj * F[layer ^ 1 << j]
        F[layer] = acc / (sbar[layer] + rate_sum)
    return F[-1]


def aoi_covariance(spec: SystemSpec) -> float:
    """Cov(A_1, A_2) for a two-source system; always <= 0.

    Closed form: (1/(lambda L_S(lambda))) * sum_k L_k'(lambda)/L_k(lambda).
    The two ages compete for the same server, so they are negatively
    correlated for every parameter choice.
    """
    return _pair(spec)[0]


def aoi_correlation(spec: SystemSpec) -> float:
    """Correlation coefficient of (A_1, A_2); lies in [-1, 0]."""
    return _pair(spec)[1]


def _pair(spec: SystemSpec) -> tuple[float, float]:
    """Cov(A_1, A_2) and the correlation; ValueError unless there are
    exactly 2 sources whose moments are in float64 range.  The departure
    rate underflows to 0 only with update rates that check refuses."""
    if spec.num_sources != 2:
        raise ValueError(f"covariance closed form needs exactly 2 sources, got {spec.num_sources}")
    v1, v2 = (marginal_aoi_moments(spec, k).variance for k in range(2))
    lam = spec.total_rate
    covariance = math.fsum(m.laplace_derivative(lam) / m.laplace(lam) for m in spec.services) / departure_rate(spec)
    product = v1 * v2  # it can leave the normal floats where neither variance does
    root = math.sqrt(product) if sys.float_info.min <= product < math.inf else math.sqrt(v1) * math.sqrt(v2)
    return covariance, covariance / root


def cc_lower_bound(kind: str, alpha: float | None = None) -> float:
    """Universal lower bound on the age correlation for a service family.

    kind "deterministic": bound over all rates and all deterministic
    service values, -1/(2(e-1)), attained when both sources share the
    load equally and the service value is one mean interarrival.
    kind "gamma": bound for shape `alpha`,
    -1/(2((1+1/alpha)^(alpha+1) - 1)); approaches the deterministic bound
    as alpha -> infinity and 0 as alpha -> 0.
    """
    if kind == "deterministic":
        if alpha is not None:
            raise ValueError("alpha only applies to the gamma bound")
        return -1.0 / (2.0 * (math.e - 1.0))
    if kind == "gamma":
        if alpha is None or not (math.isfinite(alpha) and alpha > 0):
            raise ValueError(f"gamma bound needs a positive finite shape, got {alpha}")
        # (1+1/a)^(a+1) via exp/log1p to stay accurate for large shapes
        grow = math.exp((alpha + 1.0) * math.log1p(1.0 / alpha))
        return -1.0 / (2.0 * (grow - 1.0))
    raise ValueError(f"unknown family kind {kind!r}; expected 'deterministic' or 'gamma'")


@dataclass
class AoIStatistics:
    """Closed-form per-source age statistics plus pairwise dependence.

    The pairwise covariance/correlation exists only for two sources; for
    K >= 3 the off-diagonal entries are NaN.  Simulated statistics are
    report rows: see simulator.simulate.
    """

    mean: np.ndarray
    variance: np.ndarray
    cv: np.ndarray
    covariance: np.ndarray
    correlation: np.ndarray


def aoi_statistics(spec: SystemSpec) -> AoIStatistics:
    """The closed-form AoIStatistics of `spec`."""
    K = spec.num_sources
    moments = [marginal_aoi_moments(spec, k) for k in range(K)]
    mean = np.array([m.mean for m in moments])
    variance = np.array([m.variance for m in moments])
    cv = np.array([m.cv for m in moments])
    covariance = np.full((K, K), np.nan)
    correlation = np.full((K, K), np.nan)
    np.fill_diagonal(covariance, variance)
    np.fill_diagonal(correlation, 1.0)
    if K == 2:
        covariance[[0, 1], [1, 0]], correlation[[0, 1], [1, 0]] = _pair(spec)
    return AoIStatistics(mean, variance, cv, covariance, correlation)


# ---------------------------------------------------------------------------
# the report table: each reported quantity named once


class _Quantity(NamedTuple):
    """A reported quantity: its label name, scope, closed form and estimate.

    Scope "source" gives a row per source, labelled name[k] (1-based);
    "system" one row; "pair" one row for two sources; "s_row" a row per
    s-row, labelled name(s_1,...,s_K).  The closed form is f(spec, index),
    calling public functions by name so that a wrapper on one sees the
    call; the estimate is g(sums, index), reading a run's window sums,
    pooled or stacked, by `simulator.PathAccumulator` field name, which
    simulator._quantities turns into the row's Estimate by
    simulator._estimate, the one rule.
    `lacks` names what a replication without a finite g lacks, {} standing
    for a source row's 1-based source.  A row with no estimate is
    analytic-only, and `compare` does not gate it.
    """

    name: str
    scope: str
    closed: object
    estimate: object = None
    lacks: str = "window time"

    def label(self, index) -> str:
        if self.scope == "source":
            return f"{self.name}[{index + 1}]"
        if self.scope == "s_row":
            return f"{self.name}(" + ",".join(f"{v:g}" for v in index) + ")"
        return self.name


def _age_covariance(t, j, k):
    """Cov(A_j, A_k) over the window of the sums `t`, a PathAccumulator:
    a replication's, or a run's pooled or stacked along a last axis, over
    which it broadcasts.  Its j = k entry is the variance of A_j."""
    T = t.elapsed
    return t.cross_integrals[j, k] / T - (t.age_integrals[j] / T) * (t.age_integrals[k] / T)


def _age_correlation(t, j, k):
    """Corr(A_j, A_k) over the time of path sums `t`: the covariance over
    the product of the two standard deviations, each variance clipped at 0."""
    sd_j, sd_k = (np.sqrt(np.maximum(_age_covariance(t, i, i), 0.0)) for i in (j, k))
    return _age_covariance(t, j, k) / (sd_j * sd_k)


# The table is in the simulated report's order: a run of entries of one
# scope gives its rows index by index, so per-source runs go source by
# source.  The analytic report takes all entries of a scope as one run,
# scope by scope in _SCOPES order.
_JOINT = _Quantity("joint_laplace", "s_row", lambda spec, s: joint_aoi_laplace(spec, s),
                   lambda t, s: t.exp_integrals[t.s_grid.index(s)] / t.elapsed)
_QUANTITIES = (
    _JOINT,
    _Quantity("aoi_mean", "source", lambda spec, k: marginal_aoi_moments(spec, k).mean,
              lambda t, k: t.age_integrals[k] / t.elapsed),
    _Quantity("aoi_variance", "source", lambda spec, k: marginal_aoi_moments(spec, k).variance,
              lambda t, k: _age_covariance(t, k, k)),
    _Quantity("aoi_cv", "source", lambda spec, k: marginal_aoi_moments(spec, k).cv),
    _Quantity("aoi_covariance", "pair", lambda spec, _: aoi_covariance(spec)),
    _Quantity("aoi_correlation", "pair", lambda spec, _: aoi_correlation(spec),
              lambda t, jk: _age_correlation(t, *jk)),
    _Quantity("departure_rate", "system", lambda spec, _: departure_rate(spec),
              lambda t, _: t.source_sums[0].sum(axis=0) / t.window_span),
    _Quantity("pushout_rate", "system", lambda spec, _: pushout_rate(spec),
              lambda t, _: t.window_pushouts / t.window_span),
    _Quantity("update_share", "source", lambda spec, k: source_update_share(spec, k),
              lambda t, k: t.source_sums[0, k] / t.source_sums[0].sum(axis=0), "deliveries"),
    _Quantity("update_rate", "source", lambda spec, k: palm_means(spec, k).update_rate,
              lambda t, k: t.source_sums[0, k] / t.window_span, "deliveries for source {}"),
    _Quantity("delay_mean", "source", lambda spec, k: palm_means(spec, k).delay_mean,
              lambda t, k: t.source_sums[1, k] / t.source_sums[0, k], "deliveries for source {}"),
    _Quantity("peak_mean", "source", lambda spec, k: palm_means(spec, k).peak_mean,
              lambda t, k: t.source_sums[2, k] / t.source_sums[3, k], "peaks for source {}"),
)
_SCOPES = ("source", "system", "pair", "s_row")  # the analytic report's order


def _report_rows(quantities, num_sources: int, rows):
    """(entry, index) per report row, each run of one scope index by index."""
    pairs = [(0, 1)] if num_sources == 2 else []
    indices = {"source": range(num_sources), "system": [None], "pair": pairs, "s_row": rows}
    for scope, run in itertools.groupby(quantities, operator.attrgetter("scope")):
        run = list(run)
        yield from ((q, index) for index in indices[scope] for q in run)


def joint_laplace_label(s_row) -> str:
    """Report label of the joint transform at `s_row`, e.g. `joint_laplace(0.5,1)`."""
    return _JOINT.label(s_row)


def default_s_grid(num_sources: int) -> tuple[tuple[float, ...], ...]:
    """Default transform-argument vectors: constants plus a staggered one."""
    K = int(num_sources)
    cyc = (0.5, 1.0, 2.0)
    rows = [
        (0.0,) * K,
        (0.5,) * K,
        (1.0,) * K,
        (2.0,) * K,
        tuple(cyc[i % 3] for i in range(K)),
        (3.0,) * K,
    ]
    return tuple(dict.fromkeys(rows))


def _s_row(row, num_sources: int, rate: float = 0.0) -> tuple[float, ...]:
    """`row` as a float tuple; ValueError unless it is 1-D of length `num_sources`
    with nonnegative finite arguments whose sum plus `rate` is finite."""
    s = np.asarray(row, dtype=float)
    if s.ndim != 1:
        raise ValueError(f"argument vector must be 1-D, got shape {s.shape}")
    row = tuple((s + 0.0).tolist())  # -0.0 + 0.0 is 0.0, so -0 is labelled and kept as 0
    if len(row) != num_sources:
        raise ValueError(f"argument vector {row} has length {len(row)} but the system has {num_sources} sources")
    if not all(0.0 <= v < math.inf for v in row):
        raise ValueError(f"transform arguments must be nonnegative and finite, got {row}")
    if not math.isfinite(sum(row) + rate):  # the plain sum: math.fsum raises OverflowError
        raise ValueError("transform arguments overflow: their sum plus the aggregate rate is not finite")
    return row


def s_rows(spec: SystemSpec, s_grid=None) -> tuple[tuple[float, ...], ...]:
    """The s-rows of a run on `spec`: `s_grid`, or default_s_grid's rows
    when None, each checked by `_s_row` at the aggregate rate, as float
    tuples without repeats; ValueError if two differ but share a label."""
    if s_grid is None:
        s_grid = default_s_grid(spec.num_sources)
    rows = tuple(dict.fromkeys(_s_row(row, spec.num_sources, spec.total_rate) for row in s_grid))
    seen: dict[str, tuple[float, ...]] = {}
    for row in rows:
        label = joint_laplace_label(row)
        if seen.setdefault(label, row) != row:
            raise ValueError(f"argument vectors {seen[label]} and {row} share the label {label}")
    return rows


def analytic_quantities(spec: SystemSpec, s_grid=None) -> dict[str, float]:
    """Every closed form of the report table `_QUANTITIES` by label: per
    source (1-based) the age mean, variance and cv, update share and rate,
    delay and peak means; departure and pushout rates; the age covariance
    and correlation (two sources only); the joint transform per row of
    `s_rows(spec, s_grid)`.  The cv and covariance rows are analytic-only:
    `simulate` does not estimate them, so `compare` does not gate them.
    """
    rows = s_rows(spec, s_grid)
    by_scope = sorted(_QUANTITIES, key=lambda q: _SCOPES.index(q.scope))
    return {q.label(i): q.closed(spec, i) for q, i in _report_rows(by_scope, spec.num_sources, rows)}


# ---------------------------------------------------------------------------
# marginal age CDF by numerical transform inversion


def _talbot_cdf(spec: SystemSpec, k: int, x: np.ndarray, nodes: int) -> np.ndarray:
    """Invert source k's marginal transform over s at every threshold of
    `x` (n,) on the fixed-Talbot contour with `nodes` nodes: the subset
    recursion over {k} at all n * nodes points at once.  The contour is
    r * q for r = 2M / (5x), so x * r * q = 0.4 M q and no node weight
    depends on x.  Below x = 2M^2 / DBL_MAX (about 1e-304), where r * q
    would overflow, x is raised to that floor: an upper bound on the CDF."""
    M = int(nodes)
    r = 2.0 * M / (5.0 * np.maximum(x, 2.0 * M * M / np.finfo(float).max))
    theta = np.pi * np.arange(1, M) / M
    cot = np.cos(theta) / np.sin(theta)
    q = theta * (cot + 1j)
    sigma = theta + (theta * cot - 1.0) * cot
    z = r[:, None] * np.concatenate([[1.0], q])
    with np.errstate(over="ignore", invalid="ignore", under="ignore", divide="ignore"):
        lt = _subset_transform(spec, [k], z[..., None])
        # the transform can overflow far left of the contour; the age
        # transform ratio tends to 1 there and the node weight is negligible
        lt = np.where(np.isfinite(lt), lt, 1.0)
        terms = lt[:, 1:] * (np.exp(0.4 * M * q) * (1.0 + 1j * sigma) / (M * q))
    terms = np.where(np.isfinite(terms), terms, 0.0)
    head = 0.5 * np.exp(0.4 * M) / M * lt[:, 0].real
    return head + terms.real.sum(axis=1)


def marginal_aoi_cdf(spec: SystemSpec, k: int, x):
    """P(A_k <= x), by numerical inversion of the marginal transform.

    Inverts marginal_aoi_laplace(spec, k, .)/s at x on a fixed-Talbot
    contour with TALBOT_NODES nodes and clamps the result to [0, 1].  The
    same inversion at 3/4 of the node count, clamped too, serves as a
    residual estimate of the returned value, so a CDF of 1 that both
    contours overshoot has residual 0; each threshold whose residual is
    above INVERSION_RESIDUAL_TOL raises
    an InversionAccuracyWarning but still returns the value.  An age is at
    least the delay of the last delivered update, so at or below the lower
    end of source k's service support the result is exactly 0, with no
    inversion.

    `x` may be a scalar or an array of thresholds of any shape; an array
    returns an array of its shape.  Every threshold is checked before any
    inversion runs.  The rest are inverted as arrays, on both contours,
    in chunks of _CDF_CHUNK thresholds so that memory stays bounded; a
    threshold's value does not depend on the others.
    """
    k = _check_source_index(k, spec.num_sources)
    xs = np.asarray(x, dtype=float)
    flat = xs.reshape(-1)
    bad = ~(np.isfinite(flat) & (flat >= 0))
    if bad.any():
        raise ValueError(f"age threshold must be nonnegative and finite, got {flat[bad][0]}")
    out = np.zeros(flat.size)
    live = np.flatnonzero(flat > spec.services[k].support_min)
    for start in range(0, live.size, _CDF_CHUNK):
        idx = live[start : start + _CDF_CHUNK]
        # the residual compares clipped values, since the clipped one is returned
        value = np.clip(_talbot_cdf(spec, k, flat[idx], TALBOT_NODES), 0.0, 1.0)
        check = np.clip(_talbot_cdf(spec, k, flat[idx], 3 * TALBOT_NODES // 4), 0.0, 1.0)
        for xi, residual in zip(flat[idx], np.abs(value - check)):
            if residual > INVERSION_RESIDUAL_TOL:
                warnings.warn(
                    f"CDF inversion residual {residual:.3e} above {INVERSION_RESIDUAL_TOL:g} "
                    f"at x={xi:g} for source {k + 1}",
                    InversionAccuracyWarning,
                    stacklevel=2,
                )
        out[idx] = value
    return out.reshape(xs.shape) if xs.ndim else float(out[0])
