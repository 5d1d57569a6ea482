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

import math
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
    "aggregate_service_laplace",
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
    "distinct_s_rows",
    "analytic_quantities",
    "DEFAULT_MAX_SOURCES",
    "TALBOT_NODES",
    "INVERSION_RESIDUAL_TOL",
]

DEFAULT_MAX_SOURCES = 16
TALBOT_NODES = 64
INVERSION_RESIDUAL_TOL = 1e-6
_CDF_CHUNK = 256  # thresholds inverted together by marginal_aoi_cdf


class InversionAccuracyWarning(UserWarning):
    """Numerical CDF inversion residual exceeded the accuracy target."""


@dataclass
class SystemSpec:
    """Arrival rates and service-time models, one entry per source.

    Construction validates that every rate is positive and finite and that
    every source has a strictly positive completion probability
    L_k(lambda) at the aggregate rate (a packet must be able to beat the
    next arrival, otherwise no update ever happens and no stationary age
    exists; the check also rejects specs whose completion probability
    underflows to zero in float64).
    """

    rates: tuple[float, ...]
    services: tuple[ServiceTimeModel, ...]

    def __post_init__(self):
        self.rates = tuple(float(r) for r in self.rates)
        self.services = tuple(self.services)
        if len(self.rates) == 0:
            raise ValueError("at least one source is required")
        if len(self.rates) != len(self.services):
            raise ValueError(
                f"got {len(self.rates)} rates for {len(self.services)} service models"
            )
        for i, r in enumerate(self.rates):
            if not (math.isfinite(r) and r > 0):
                raise ValueError(f"source {i + 1}: arrival rate must be positive and finite, got {r}")
        for i, model in enumerate(self.services):
            if not isinstance(model, ServiceTimeModel):
                raise TypeError(
                    f"source {i + 1}: expected a ServiceTimeModel, got {type(model).__name__}"
                )
        lam = self.total_rate
        for i, model in enumerate(self.services):
            if model.laplace(lam) <= 0.0:
                raise ValueError(
                    f"source {i + 1}: completion probability is zero at aggregate rate {lam}"
                )

    @property
    def num_sources(self) -> int:
        return len(self.rates)

    @property
    def total_rate(self) -> float:
        return math.fsum(self.rates)


def _check_source_index(spec: SystemSpec, k: int) -> int:
    k = int(k)
    if not 0 <= k < spec.num_sources:
        raise IndexError(f"source index {k} out of range for {spec.num_sources} sources")
    return k


def aggregate_service_laplace(spec: SystemSpec, s: float) -> float:
    """Transform of the service law of a typical packet (rate-weighted mix)."""
    return math.fsum(r * m.laplace(s) for r, m in zip(spec.rates, spec.services)) / spec.total_rate


def departure_rate(spec: SystemSpec) -> float:
    """Long-run rate of delivered packets, lambda * L_S(lambda).

    Equivalently sum_k lambda_k L_k(lambda): each arrival survives with
    probability equal to its service transform at the aggregate rate.
    """
    lam = spec.total_rate
    return math.fsum(r * m.laplace(lam) for r, m in zip(spec.rates, spec.services))


def pushout_rate(spec: SystemSpec) -> float:
    """Long-run rate of packets replaced mid-service, lambda * (1 - L_S(lambda))."""
    return spec.total_rate - departure_rate(spec)


def source_update_share(spec: SystemSpec, k: int) -> float:
    """Fraction of deliveries that belong to source k; shares sum to one."""
    k = _check_source_index(spec, k)
    lam = spec.total_rate
    return spec.rates[k] * spec.services[k].laplace(lam) / departure_rate(spec)


def _source_update_rate(spec: SystemSpec, k: int) -> float:
    return spec.rates[k] * spec.services[k].laplace(spec.total_rate)


def marginal_aoi_laplace(spec: SystemSpec, k: int, s: float) -> float:
    """Transform E[exp(-s * A_k)] of the stationary age of source k.

    Closed form: lambda_k L_k(s + lambda) / (s + lambda_k L_k(s + lambda)).
    """
    k = _check_source_index(spec, k)
    s = float(s)
    if not (math.isfinite(s) and s >= 0):
        raise ValueError(f"transform argument must be nonnegative and finite, got {s}")
    lam = spec.total_rate
    num = spec.rates[k] * spec.services[k].laplace(s + lam)
    return num / (s + num)


class MarginalMoments(NamedTuple):
    mean: float
    variance: float
    cv: float


def marginal_aoi_moments(spec: SystemSpec, k: int) -> MarginalMoments:
    """Exact mean, variance, and coefficient of variation of A_k.

    mean = 1 / (lambda_k L_k(lambda)); the cv depends on the system only
    through lambda_k L_k'(lambda) and equals sqrt(1 + 2 lambda_k L_k'(lambda)),
    which is strictly below 1: sampling at delivery times makes the age
    less variable than an exponential of the same mean.
    """
    k = _check_source_index(spec, k)
    lam = spec.total_rate
    rate_k = spec.rates[k]
    el = rate_k * spec.services[k].laplace(lam)
    dl = rate_k * spec.services[k].laplace_derivative(lam)
    mean = 1.0 / el
    variance = (1.0 + 2.0 * dl) / el**2
    cv = math.sqrt(max(1.0 + 2.0 * dl, 0.0))
    return MarginalMoments(mean, variance, cv)


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
    k = _check_source_index(spec, k)
    lam = spec.total_rate
    lk = spec.services[k].laplace(lam)
    dk = spec.services[k].laplace_derivative(lam)
    delay_mean = -dk / lk
    update_rate = spec.rates[k] * lk
    return SourcePalmMeans(delay_mean, delay_mean + 1.0 / update_rate, update_rate)


def joint_aoi_laplace(spec: SystemSpec, s, max_sources: int = DEFAULT_MAX_SOURCES) -> float:
    """Joint transform E[exp(-sum_k s_k A_k)] of all K stationary ages.

    The closed form sums over the K! recency orderings of the sources; its
    terms factor over recency suffixes, so it is F(all sources) of the
    recursion over subsets H, with sbar_H the sum of s over H and F({}) = 1:

        F(H) = sum_{k in H} lambda_k L_k(sbar_H + lambda) F(H - {k})
               / (sbar_H + sum_{j in H} lambda_j L_j(sbar_H + lambda)).

    Every F(H) lies in [0, 1], so rescaling time cannot overflow it.  Cost
    grows as K 2^K; refuses K above `max_sources` (default 16).
    """
    K = spec.num_sources
    svec = [float(v) for v in np.asarray(s, dtype=float).reshape(-1)]
    if len(svec) != K:
        raise ValueError(f"argument vector has length {len(svec)}, expected {K}")
    for v in svec:
        if not (math.isfinite(v) and v >= 0):
            raise ValueError(f"transform arguments must be nonnegative and finite, got {v}")
    if K > max_sources:
        raise ValueError(
            f"{K} sources are above the cap of {max_sources}; raise max_sources to override"
        )
    lam = spec.total_rate
    nmask = 1 << K
    # per-subset tables indexed by bitmask; a mask's subsets come before it
    sbar = [0.0] * nmask
    F = [1.0] + [0.0] * (nmask - 1)
    for mask in range(1, nmask):
        low = (mask & -mask).bit_length() - 1
        sbar[mask] = sbar[mask & (mask - 1)] + svec[low]
        arg = sbar[mask] + lam
        rate_sum = 0.0
        acc = 0.0
        for k in range(K):
            if mask >> k & 1:
                val = spec.rates[k] * spec.services[k].laplace(arg)
                rate_sum += val
                acc += val * F[mask ^ (1 << k)]
        F[mask] = acc / (sbar[mask] + rate_sum)
    return F[nmask - 1]


def aoi_covariance(spec: SystemSpec) -> float:
    """Cov(A_1, A_2) for a two-source system; always <= 0.

    Closed form: (1/(lambda L_S(lambda))) * sum_k L_k'(lambda)/L_k(lambda).
    The two ages compete for the same server, so they are negatively
    correlated for every parameter choice.
    """
    if spec.num_sources != 2:
        raise ValueError(f"covariance closed form needs exactly 2 sources, got {spec.num_sources}")
    lam = spec.total_rate
    dep = departure_rate(spec)
    total = math.fsum(
        m.laplace_derivative(lam) / m.laplace(lam) for m in spec.services
    )
    return total / dep


def aoi_correlation(spec: SystemSpec) -> float:
    """Correlation coefficient of (A_1, A_2); lies in [-1, 0]."""
    if spec.num_sources != 2:
        raise ValueError(f"correlation closed form needs exactly 2 sources, got {spec.num_sources}")
    cov = aoi_covariance(spec)
    v1 = marginal_aoi_moments(spec, 0).variance
    v2 = marginal_aoi_moments(spec, 1).variance
    if not (v1 > 0 and v2 > 0):
        raise ValueError("marginal variance is not positive; correlation undefined")
    return cov / math.sqrt(v1 * v2)


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
    """Per-source age statistics plus pairwise dependence.

    Produced either from the closed forms (`provenance == "analytic"`,
    stderr fields None) or from simulation output
    (`provenance == "simulated"`, stderr fields filled).  The analytic
    pairwise covariance/correlation exists only for two sources; for
    K >= 3 the off-diagonal entries are NaN.
    """

    mean: np.ndarray
    variance: np.ndarray
    cv: np.ndarray
    covariance: np.ndarray
    correlation: np.ndarray
    provenance: str = "analytic"
    mean_stderr: np.ndarray | None = None
    variance_stderr: np.ndarray | None = None
    covariance_stderr: np.ndarray | None = None
    correlation_stderr: np.ndarray | None = None


def aoi_statistics(spec: SystemSpec) -> AoIStatistics:
    """Analytic AoIStatistics for `spec`."""
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
        cov = aoi_covariance(spec)
        cc = aoi_correlation(spec)
        covariance[0, 1] = covariance[1, 0] = cov
        correlation[0, 1] = correlation[1, 0] = cc
    return AoIStatistics(mean, variance, cv, covariance, correlation, provenance="analytic")


def joint_laplace_label(s_row) -> str:
    """Report label of the joint transform at `s_row`, e.g. `joint_laplace(0.5,1)`."""
    return "joint_laplace(" + ",".join(f"{v:g}" for v in s_row) + ")"


def distinct_s_rows(s_grid) -> tuple[tuple[float, ...], ...]:
    """`s_grid` as float tuples without repeats; ValueError if two differ but share a label."""
    rows = tuple(dict.fromkeys(tuple(float(v) for v in row) for row in s_grid))
    seen: dict[str, tuple[float, ...]] = {}
    for row in rows:
        label = joint_laplace_label(row)
        if seen.setdefault(label, row) != row:
            raise ValueError(f"argument vectors {seen[label]} and {row} share the label {label}")
    return rows


def analytic_quantities(spec: SystemSpec, s_grid) -> dict[str, float]:
    """Every closed-form quantity the reports show, by label, in report order:
    per source (1-based) the age mean, variance and cv, update share and rate,
    delay and peak means; departure and pushout rates; the age covariance and
    correlation (two sources only); the joint transform per distinct s-row.
    """
    stats = aoi_statistics(spec)
    out: dict[str, float] = {}
    for k in range(spec.num_sources):
        pm = palm_means(spec, k)
        out[f"aoi_mean[{k + 1}]"] = float(stats.mean[k])
        out[f"aoi_variance[{k + 1}]"] = float(stats.variance[k])
        out[f"aoi_cv[{k + 1}]"] = float(stats.cv[k])
        out[f"update_share[{k + 1}]"] = source_update_share(spec, k)
        out[f"update_rate[{k + 1}]"] = pm.update_rate
        out[f"delay_mean[{k + 1}]"] = pm.delay_mean
        out[f"peak_mean[{k + 1}]"] = pm.peak_mean
    out["departure_rate"] = departure_rate(spec)
    out["pushout_rate"] = pushout_rate(spec)
    if spec.num_sources == 2:
        out["aoi_covariance"] = float(stats.covariance[0, 1])
        out["aoi_correlation"] = float(stats.correlation[0, 1])
    for row in distinct_s_rows(s_grid):
        out[joint_laplace_label(row)] = joint_aoi_laplace(spec, row)
    return out


# ---------------------------------------------------------------------------
# marginal age CDF by numerical transform inversion


def _talbot_cdf(spec: SystemSpec, k: int, x: np.ndarray, nodes: int) -> np.ndarray:
    """Invert source k's marginal transform over s at every threshold of
    `x` (n,) on the fixed-Talbot contour with `nodes` nodes, evaluating
    the service transform once for all n * nodes points.  The contour is
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
        w = spec.services[k].laplace_complex(z + spec.total_rate)
        num = spec.rates[k] * w
        # the transform can overflow far left of the contour; the age
        # transform ratio tends to 1 there and the node weight is negligible
        lt = np.where(np.isfinite(w), num / (z + num), 1.0)
        terms = lt[:, 1:] * (np.exp(0.4 * M * q) * (1.0 + 1j * sigma) / (M * q))
    terms = np.where(np.isfinite(terms), terms, 0.0)
    head = 0.5 * np.exp(0.4 * M) / M * lt[:, 0].real
    return head + terms.real.sum(axis=1)


def marginal_aoi_cdf(spec: SystemSpec, k: int, x):
    """P(A_k <= x), by numerical inversion of the marginal transform.

    Inverts marginal_aoi_laplace(spec, k, .)/s at x on a fixed-Talbot
    contour with TALBOT_NODES nodes and clamps the result to [0, 1].  The
    same inversion at 3/4 of the node count serves as a residual estimate;
    each threshold whose residual is above INVERSION_RESIDUAL_TOL raises
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
    k = _check_source_index(spec, k)
    xs = np.asarray(x, dtype=float)
    flat = xs.reshape(-1)
    bad = ~(np.isfinite(flat) & (flat >= 0))
    if bad.any():
        raise ValueError(f"age threshold must be nonnegative and finite, got {flat[bad][0]}")
    out = np.zeros(flat.size)
    live = np.flatnonzero(flat > spec.services[k].support_min)
    for start in range(0, live.size, _CDF_CHUNK):
        idx = live[start : start + _CDF_CHUNK]
        value = _talbot_cdf(spec, k, flat[idx], TALBOT_NODES)
        check = _talbot_cdf(spec, k, flat[idx], 3 * TALBOT_NODES // 4)
        for xi, residual in zip(flat[idx], np.abs(value - check)):
            if residual > INVERSION_RESIDUAL_TOL:
                warnings.warn(
                    f"CDF inversion residual {residual:.3e} above {INVERSION_RESIDUAL_TOL:g} "
                    f"at x={xi:g} for source {k}",
                    InversionAccuracyWarning,
                    stacklevel=2,
                )
        out[idx] = np.clip(value, 0.0, 1.0)
    return out.reshape(xs.shape) if xs.ndim else float(out[0])
