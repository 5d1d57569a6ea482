"""Exact-path simulation of the multi-source Poisson pushout server.

The pushout discipline makes every packet's fate depend only on its own
service requirement and the gap to the next arrival: an arrival always
enters service immediately and departs iff its service fits in that gap
(a tie counts as a departure).  Path generation therefore vectorizes:
arrival epochs come from one superposed exponential clock, sources from
one categorical draw per arrival, and the departure set is a simple
thinning.  Between departures every age grows with slope one, so all
path integrals (exponential functionals for transforms, polynomial ones
for moments, occupancy for empirical CDFs) are accumulated segment by
segment in closed form; nothing is discretized.  Occupancy below each
level of a CDF grid is a cumulative sum, over the sorted grid, of each
cell's overlap with the segments' age ranges: O(n log m) per source for
n segments and m levels.

Randomness uses counter-based Philox streams keyed by
(seed, replication index, stream role), so any replication can be
regenerated independently and bit-identically.

Estimators combine replications as batches: the reported value is the
pooled (or batch-mean) estimate and the standard error is the sample
standard deviation across batches divided by sqrt(batches).
"""

from __future__ import annotations

import csv
import heapq
import math
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import analytics
from .analytics import AoIStatistics, SystemSpec

__all__ = [
    "DEFAULT_SEED",
    "DEFAULT_REPLICATIONS",
    "PathAccumulator",
    "PalmRecords",
    "ReplicationCounts",
    "ReplicationResult",
    "Estimate",
    "SimulationReport",
    "replication_rng",
    "default_burn_in",
    "default_s_grid",
    "run_replication",
    "simulate",
    "estimate_joint_laplace",
    "estimate_statistics",
    "estimate_palm",
    "estimate_departure_rate",
    "estimate_pushout_rate",
    "estimate_marginal_cdf",
]

DEFAULT_SEED = 112358
DEFAULT_REPLICATIONS = 32

_ROLE_INTERARRIVAL = 0
_ROLE_SOURCE = 1
_ROLE_SERVICE = 2

_MASK64 = (1 << 64) - 1


def replication_rng(seed: int, rep_index: int, role: int) -> np.random.Generator:
    """Counter-based generator for one (replication, stream role) pair.

    Philox keyed on (seed, rep_index, role); streams for different pairs
    never overlap and any pair can be reconstructed on its own.
    """
    if rep_index < 0:
        raise ValueError(f"replication index must be nonnegative, got {rep_index}")
    key = np.array(
        [int(seed) & _MASK64, ((int(rep_index) << 8) | int(role)) & _MASK64],
        dtype=np.uint64,
    )
    return np.random.Generator(np.random.Philox(key=key))


def default_burn_in(spec: SystemSpec) -> float:
    """Burn-in long enough for many update cycles of the slowest source."""
    slowest = min(analytics._source_update_rate(spec, k) for k in range(spec.num_sources))
    return max(100.0 / slowest, 1000.0 / spec.total_rate)


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


@dataclass
class PathAccumulator:
    """Closed-form path integrals over one or more replications.

    Tracks, per requested argument vector, the integral of
    exp(-s . A(t)); per source the integrals of A_k and A_k^2; all
    pairwise integrals of A_j A_k; optionally, per source, the occupancy
    time below each level of `cdf_grid` (a nonempty 1-D array of finite
    levels, in any order).
    """

    s_grid: tuple[tuple[float, ...], ...]
    num_sources: int
    cdf_grid: np.ndarray | None = None
    elapsed: float = 0.0
    exp_integrals: np.ndarray = field(init=False)
    age_integrals: np.ndarray = field(init=False)
    age_sq_integrals: np.ndarray = field(init=False)
    cross_integrals: np.ndarray = field(init=False)
    cdf_occupancy: np.ndarray | None = field(init=False)

    def __post_init__(self):
        K = self.num_sources
        grid = []
        for row in self.s_grid:
            row = tuple(float(v) for v in row)
            if len(row) != K:
                raise ValueError(f"argument vector {row} has length {len(row)}, expected {K}")
            if any(v < 0 or not math.isfinite(v) for v in row):
                raise ValueError(f"transform arguments must be nonnegative and finite: {row}")
            grid.append(row)
        self.s_grid = tuple(grid)
        self.exp_integrals = np.zeros(len(self.s_grid))
        self.age_integrals = np.zeros(K)
        self.age_sq_integrals = np.zeros(K)
        self.cross_integrals = np.zeros((K, K))
        if self.cdf_grid is not None:
            x = np.asarray(self.cdf_grid, dtype=float)
            if x.ndim != 1 or x.size == 0 or not np.all(np.isfinite(x)):
                raise ValueError(f"CDF grid must be a nonempty 1-D array of finite levels, got {x!r}")
            self.cdf_grid = x
            self.cdf_occupancy = np.zeros((K, x.size))
        else:
            self.cdf_occupancy = None

    def add_segments(self, ages: np.ndarray, lengths: np.ndarray) -> None:
        """Vectorized bulk accumulation; rows of `ages` are segment starts.

        A segment with start ages a and length L spends
        clip(x - a_k, 0, L) time with source k's age at or below x; the
        occupancy at every grid level is summed from per-cell overlaps in
        O(n log m) per source (see `_occupancy`), never as an n-by-m array.
        """
        ages = np.asarray(ages, dtype=float)
        lengths = np.asarray(lengths, dtype=float)
        if ages.ndim != 2 or ages.shape[1] != self.num_sources:
            raise ValueError(f"ages must be (n, {self.num_sources}), got {ages.shape}")
        if lengths.shape != (ages.shape[0],):
            raise ValueError("lengths must match the number of age rows")
        if np.any(lengths < 0):
            raise ValueError("segment lengths must be nonnegative")
        total = float(lengths.sum())
        L = lengths
        L2 = L * L
        for j, row in enumerate(self.s_grid):
            svec = np.array(row)
            sbar = float(svec.sum())
            if sbar == 0.0:
                self.exp_integrals[j] += total
            else:
                w = np.exp(-(ages @ svec))
                self.exp_integrals[j] += float(w @ (-np.expm1(-sbar * L))) / sbar
        self.age_integrals += ages.T @ L + L2.sum() / 2.0
        colsum_L2 = ages.T @ L2
        self.age_sq_integrals += (ages * ages).T @ L + colsum_L2 + float((L2 * L).sum()) / 3.0
        self.cross_integrals += (
            (ages.T * L) @ ages
            + (colsum_L2[:, None] + colsum_L2[None, :]) / 2.0
            + float((L2 * L).sum()) / 3.0
        )
        if self.cdf_grid is not None:
            for k in range(self.num_sources):
                self.cdf_occupancy[k] += _occupancy(self.cdf_grid, ages[:, k], L)
        self.elapsed += total


def _occupancy(grid: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """sum_i clip(x - starts[i], 0, lengths[i]) at every x in `grid`.

    Sorted, the grid splits the line into cells (x_{j-1}, x_j]; the result
    is the cumulative sum of each cell's total overlap with the age ranges
    [a_i, a_i + L_i].  A range contributes its part in the cell holding
    its start, whole cells, and its part in the cell holding its end; the
    whole cells are counted with a difference array.  Every increment is
    a sum of nonnegative terms, so the result never decreases along the
    sorted grid, and it is zero exactly where every clip term is.  Costs
    O(n log m + m) for n ranges and m grid points.
    """
    order = np.argsort(grid)
    xs = grid[order]
    m, n = xs.size, starts.size
    ends = starts + lengths
    # a range starting at a grid point adds nothing at that point, so its
    # first cell is the one right of it
    first = np.searchsorted(xs, starts, side="right")
    last = np.searchsorted(xs, ends, side="left")
    spans = last > first  # some grid point lies in (a_i, a_i + L_i)
    inside = ~spans

    # bincount adds a cell's values one after another, so many equal ones
    # (a deterministic source's deliveries all start at the same age) drift
    # by up to one rounding each.  Summing runs of about m consecutive
    # ranges apart and then the runs pairwise keeps that drift to about m
    # roundings, in a table of about n + m entries.
    runs = max(1, n // (m + 1))
    run = np.arange(n) * runs // max(n, 1)

    def cell_sums(sel, cells, weights):
        table = np.bincount(cells * runs + run[sel], weights, minlength=(m + 1) * runs)
        return table.reshape(m + 1, runs).sum(axis=1)

    f, l = first[spans], last[spans]
    inc = np.zeros(m + 1)  # bincount of no values returns integers
    inc += cell_sums(inside, first[inside], lengths[inside])
    inc += cell_sums(spans, f, xs[f] - starts[spans])
    inc += cell_sums(spans, l, ends[spans] - xs[l - 1])
    # ranges covering cell j whole: first < j < last
    covering = np.cumsum(np.bincount(f + 1, minlength=m + 1) - np.bincount(l, minlength=m + 1))
    inc[1:m] += covering[1:m] * np.diff(xs)
    occ = np.empty(m)
    occ[order] = np.cumsum(inc[:m])
    return occ


@dataclass
class PalmRecords:
    """Per-delivery observations of one replication, as parallel arrays.

    peak is NaN when the previous update of the source is the artificial
    start state (nothing real to peak against); gap is NaN for the final
    record when the next departure lies beyond the generated path;
    covered marks records where every source has had at least one real
    update.  No estimator reads them: they are kept for event-level checks.
    """

    epoch: np.ndarray
    source: np.ndarray
    delay: np.ndarray
    peak: np.ndarray
    gap: np.ndarray
    covered: np.ndarray

    def __len__(self) -> int:
        return self.epoch.size


@dataclass(frozen=True)
class ReplicationCounts:
    """Event counts; `arrivals/departures/pushouts` cover the whole run
    (0, horizon] while the `window_*` fields cover (burn_in, horizon].

    Conservation holds exactly:
    arrivals == departures + pushouts + in_flight.
    """

    arrivals: int
    departures: int
    pushouts: int
    in_flight: int
    window_arrivals: int
    window_departures: int
    window_pushouts: int


@dataclass
class ReplicationResult:
    """One replication, reduced where it ran to fixed-size sums.

    The estimators read `accumulator`, `counts`, the window and
    `source_sums`, of shape (4, K): per source the window deliveries,
    their delay sum, and the sum and count of their finite peaks.
    `records` keeps the per-delivery arrays for event-level checks.
    """

    accumulator: PathAccumulator
    records: PalmRecords
    counts: ReplicationCounts
    horizon: float
    burn_in: float
    late_sources: tuple[int, ...]
    source_sums: np.ndarray

    @property
    def window_span(self) -> float:
        return self.horizon - self.burn_in


def _generate_arrivals(lam: float, horizon: float, rng: np.random.Generator) -> np.ndarray:
    """Arrival epochs, strictly increasing, ending with the first epoch
    beyond the horizon (needed to settle the fate of the last packet)."""
    expect = lam * horizon
    n0 = int(expect + 6.0 * math.sqrt(expect + 1.0)) + 16
    epochs = np.cumsum(rng.exponential(1.0 / lam, size=n0))
    while epochs[-1] <= horizon:
        more = rng.exponential(1.0 / lam, size=max(n0 // 4, 64))
        epochs = np.concatenate([epochs, epochs[-1] + np.cumsum(more)])
    cut = int(np.searchsorted(epochs, horizon, side="right"))
    return epochs[: cut + 1]


def run_replication(
    spec: SystemSpec,
    horizon: float,
    burn_in: float,
    seed: int,
    rep_index: int = 0,
    s_grid=(),
    cdf_grid=None,
    trace_path=None,
) -> ReplicationResult:
    """Simulate one replication and accumulate all path quantities.

    The run starts empty at time 0 with every source's age state seeded
    at (update epoch 0, delay 0); statistics cover (burn_in, horizon].
    When `trace_path` is given, every arrival (value = service
    requirement) and departure (value = delay) up to the horizon is
    written there as CSV rows (epoch, kind, source, value).
    """
    horizon = float(horizon)
    burn_in = float(burn_in)
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    if not (math.isfinite(burn_in) and 0 <= burn_in < horizon):
        raise ValueError(f"burn-in must satisfy 0 <= burn_in < horizon, got {burn_in}")
    K = spec.num_sources
    lam = spec.total_rate

    rng_arr = replication_rng(seed, rep_index, _ROLE_INTERARRIVAL)
    rng_src = replication_rng(seed, rep_index, _ROLE_SOURCE)
    rng_svc = replication_rng(seed, rep_index, _ROLE_SERVICE)

    epochs = _generate_arrivals(lam, horizon, rng_arr)
    n_packets = epochs.size - 1  # the final epoch is past the horizon
    shares = np.cumsum(np.array(spec.rates) / lam)
    src = np.minimum(
        np.searchsorted(shares, rng_src.random(n_packets), side="right"), K - 1
    ).astype(np.int64)
    svc = np.empty(n_packets)
    for k in range(K):
        mask = src == k
        n = int(mask.sum())
        if n:
            svc[mask] = spec.services[k].sample(rng_svc, n)
    gaps = np.diff(epochs)
    completes = svc <= gaps  # a tie still departs
    dep_epoch_all = epochs[:-1][completes] + svc[completes]
    dep_src_all = src[completes]
    dep_delay_all = svc[completes]
    push_epochs = epochs[1:][~completes]
    in_flight = int(epochs[-2] + svc[-1] > horizon) if n_packets else 0

    # gap to the next departure, known for all but the last generated one
    gap_all = np.full(dep_epoch_all.size, np.nan)
    if dep_epoch_all.size > 1:
        gap_all[:-1] = np.diff(dep_epoch_all)

    within = dep_epoch_all <= horizon
    dep_epoch = dep_epoch_all[within]
    dep_src = dep_src_all[within]
    dep_delay = dep_delay_all[within]
    dep_gap = gap_all[within]

    counts = ReplicationCounts(
        arrivals=n_packets,
        departures=int(dep_epoch.size),
        pushouts=int((push_epochs <= horizon).sum()),
        in_flight=in_flight,
        window_arrivals=int((epochs[:-1] > burn_in).sum()),
        window_departures=int((dep_epoch > burn_in).sum()),
        window_pushouts=int(((push_epochs > burn_in) & (push_epochs <= horizon)).sum()),
    )

    # per-source update sequences with the artificial start state prepended,
    # and the sums over each source's window deliveries
    own_U: list[np.ndarray] = []
    own_D: list[np.ndarray] = []
    peak = np.full(dep_epoch.size, np.nan)
    source_sums = np.zeros((4, K))
    for k in range(K):
        own = np.flatnonzero(dep_src == k)
        Uk = np.concatenate([[0.0], dep_epoch[own]])
        Dk = np.concatenate([[0.0], dep_delay[own]])
        own_U.append(Uk)
        own_D.append(Dk)
        pk = Dk[:-1] + np.diff(Uk)
        pk[:1] = np.nan  # first-ever update peaks against the start state
        peak[own] = pk
        w = int(np.searchsorted(Uk, burn_in, side="right"))  # Uk[w:] lie in the window
        source_sums[:, k] = Uk.size - w, Dk[w:].sum(), np.nansum(pk[w - 1 :]), np.isfinite(pk[w - 1 :]).sum()

    # ages just after burn-in and after every window departure
    in_window = dep_epoch > burn_in
    w_epoch = dep_epoch[in_window]
    points = np.concatenate([[burn_in], w_epoch])
    ages = np.empty((points.size, K))
    covered = np.ones(points.size, dtype=bool)
    for k in range(K):
        j = np.searchsorted(own_U[k], points, side="right") - 1
        ages[:, k] = own_D[k][j] + (points - own_U[k][j])
        covered &= j >= 1

    # exact path integrals over (burn_in, horizon]: a segment starts at
    # burn-in and at each window departure before the horizon
    starts_at = np.concatenate([[True], w_epoch < horizon])
    starts = points[starts_at]
    lengths = np.append(starts[1:], horizon) - starts
    accumulator = PathAccumulator(s_grid=s_grid, num_sources=K, cdf_grid=cdf_grid)
    accumulator.add_segments(ages[starts_at], lengths)

    records = PalmRecords(
        epoch=w_epoch,
        source=dep_src[in_window],
        delay=dep_delay[in_window],
        peak=peak[in_window],
        gap=dep_gap[in_window],
        covered=covered[1:],
    )

    late = tuple(k for k in range(K) if own_U[k].size < 2 or own_U[k][1] > burn_in)

    if trace_path is not None:
        with open(trace_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "kind", "source", "value"])
            # both event streams are in time order; at equal epochs the
            # merge puts arrivals first
            arrivals = zip(epochs[:-1].tolist(), ["arrival"] * n_packets, (src + 1).tolist(), svc.tolist())
            departures = zip(
                dep_epoch.tolist(), ["departure"] * dep_epoch.size, (dep_src + 1).tolist(), dep_delay.tolist()
            )
            for ev_epoch, kind, source, value in heapq.merge(arrivals, departures, key=lambda ev: ev[0]):
                writer.writerow([repr(ev_epoch), kind, source, repr(value)])

    return ReplicationResult(
        accumulator=accumulator,
        records=records,
        counts=counts,
        horizon=horizon,
        burn_in=burn_in,
        late_sources=late,
        source_sums=source_sums,
    )


# ---------------------------------------------------------------------------
# batch-means estimators


@dataclass(frozen=True)
class Estimate:
    """Point estimate with a batch-means standard error."""

    value: float
    stderr: float
    batches: int
    flag: str | None = None


def _combine(values) -> Estimate:
    arr = np.asarray(values, dtype=float)
    if arr.size < 2:
        raise ValueError(f"need at least 2 batches for a standard error, got {arr.size}")
    return Estimate(
        value=float(arr.mean()),
        stderr=float(arr.std(ddof=1) / math.sqrt(arr.size)),
        batches=int(arr.size),
    )


def _require_results(results) -> list[ReplicationResult]:
    results = list(results)
    if len(results) < 2:
        raise ValueError(f"need at least 2 replications, got {len(results)}")
    return results


def _grid_index(results, s) -> int:
    row = tuple(float(v) for v in np.asarray(s, dtype=float).reshape(-1))
    grid = results[0].accumulator.s_grid
    for r in results:
        if r.accumulator.s_grid != grid:
            raise ValueError("replications were run with different argument grids")
    try:
        return grid.index(row)
    except ValueError:
        raise ValueError(f"argument vector {row} was not simulated; grid is {grid}") from None


def estimate_joint_laplace(results, s) -> Estimate:
    """Time-average estimate of E[exp(-s . A)] from the path integrals."""
    results = _require_results(results)
    j = _grid_index(results, s)
    values = [r.accumulator.exp_integrals[j] / r.accumulator.elapsed for r in results]
    return _combine(values)


def estimate_statistics(results) -> AoIStatistics:
    """Simulated per-source age statistics with batch-means stderr.

    Point values are plug-ins from the pooled integrals; standard errors
    recompute the same statistic per replication and take the spread.
    """
    results = _require_results(results)

    def stats_from(accs):
        T = math.fsum(a.elapsed for a in accs)
        age = np.sum([a.age_integrals for a in accs], axis=0)
        age_sq = np.sum([a.age_sq_integrals for a in accs], axis=0)
        cross = np.sum([a.cross_integrals for a in accs], axis=0)
        mean = age / T
        var = age_sq / T - mean**2
        cov = cross / T - np.outer(mean, mean)
        sd = np.sqrt(np.maximum(var, 0.0))
        with np.errstate(invalid="ignore", divide="ignore"):
            corr = cov / np.outer(sd, sd)
        np.fill_diagonal(corr, 1.0)
        np.fill_diagonal(cov, var)
        return mean, var, cov, corr

    mean, var, cov, corr = stats_from([r.accumulator for r in results])
    per_rep = [stats_from([r.accumulator]) for r in results]
    B = len(results)
    root_b = math.sqrt(B)
    mean_se = np.std([p[0] for p in per_rep], axis=0, ddof=1) / root_b
    var_se = np.std([p[1] for p in per_rep], axis=0, ddof=1) / root_b
    cov_se = np.std([p[2] for p in per_rep], axis=0, ddof=1) / root_b
    corr_se = np.std([p[3] for p in per_rep], axis=0, ddof=1) / root_b
    cv = np.sqrt(np.maximum(var, 0.0)) / mean
    return AoIStatistics(
        mean=mean,
        variance=var,
        cv=cv,
        covariance=cov,
        correlation=corr,
        provenance="simulated",
        mean_stderr=mean_se,
        variance_stderr=var_se,
        covariance_stderr=cov_se,
        correlation_stderr=corr_se,
    )


def _ratio_estimate(nums, dens, kind: str) -> Estimate:
    """Pooled-ratio estimate: value sums numerators over denominators,
    stderr comes from the per-replication ratios."""
    nums = np.asarray(nums, dtype=float)
    dens = np.asarray(dens, dtype=float)
    if dens.sum() == 0:
        return Estimate(math.nan, math.nan, len(nums), flag=f"no {kind}")
    with np.errstate(invalid="ignore", divide="ignore"):
        per = nums / dens
    usable = np.isfinite(per)
    if usable.sum() < 2:
        return Estimate(
            float(nums.sum() / dens.sum()), math.nan, int(usable.sum()),
            flag=f"too few replications with {kind} for a stderr",
        )
    flag = None
    if not usable.all():
        flag = f"{int((~usable).sum())} replications had no {kind}"
    return Estimate(
        value=float(nums.sum() / dens.sum()),
        stderr=float(per[usable].std(ddof=1) / math.sqrt(usable.sum())),
        batches=int(usable.sum()),
        flag=flag,
    )


def estimate_palm(results) -> dict[str, Estimate]:
    """Per source (1-based) the update share and rate and the
    delivery-averaged delay and peak means, by report label."""
    results = _require_results(results)
    K = results[0].accumulator.num_sources
    counts, delays, peaks, peak_counts = np.stack([r.source_sums for r in results], axis=1)
    spans = np.array([r.window_span for r in results])
    totals = np.array([r.counts.window_departures for r in results], dtype=float)
    out: dict[str, Estimate] = {}
    for k in range(K):
        label = f"deliveries for source {k + 1}"
        out[f"update_share[{k + 1}]"] = _ratio_estimate(counts[:, k], totals, "deliveries")
        out[f"update_rate[{k + 1}]"] = _ratio_estimate(counts[:, k], spans, label)
        out[f"delay_mean[{k + 1}]"] = _ratio_estimate(delays[:, k], counts[:, k], label)
        out[f"peak_mean[{k + 1}]"] = _ratio_estimate(peaks[:, k], peak_counts[:, k], f"peaks for source {k + 1}")
    return out


def estimate_departure_rate(results) -> Estimate:
    results = _require_results(results)
    return _combine([r.counts.window_departures / r.window_span for r in results])


def estimate_pushout_rate(results) -> Estimate:
    results = _require_results(results)
    return _combine([r.counts.window_pushouts / r.window_span for r in results])


def estimate_marginal_cdf(results, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Empirical P(A_k <= x) on the accumulators' CDF grid."""
    results = _require_results(results)
    K = results[0].accumulator.num_sources
    if not 0 <= k < K:
        raise IndexError(f"source index {k} out of range for {K} sources")
    grid = results[0].accumulator.cdf_grid
    if grid is None:
        raise ValueError("replications were run without a CDF grid")
    occ = np.sum([r.accumulator.cdf_occupancy[k] for r in results], axis=0)
    T = math.fsum(r.accumulator.elapsed for r in results)
    return grid.copy(), occ / T


# ---------------------------------------------------------------------------
# whole-run driver


@dataclass
class SimulationReport:
    """Everything `simulate` estimates, with config echo and flags.

    `quantities` holds every estimate by report label, in report order;
    each label names the same quantity as in
    `analytics.analytic_quantities`.
    """

    spec: SystemSpec
    horizon: float
    burn_in: float
    replications: int
    seed: int
    s_grid: tuple[tuple[float, ...], ...]
    quantities: dict[str, Estimate]
    flags: list[str]


def _run_one(args) -> ReplicationResult:
    return run_replication(*args)


def run_replications(
    spec: SystemSpec,
    horizon: float,
    burn_in: float,
    replications: int,
    seed: int,
    s_grid,
    cdf_grid=None,
    workers: int = 1,
    trace_path=None,
) -> list[ReplicationResult]:
    """Run independent replications (optionally in parallel processes);
    results are always ordered by replication index.

    At most min(workers, replications, CPU count) processes start; results
    do not depend on how many do.  Replication 0 writes its event trace to
    `trace_path` when one is given (see run_replication).
    """
    if replications < 2:
        raise ValueError(f"need at least 2 replications, got {replications}")
    args = [
        (spec, horizon, burn_in, seed, rep, tuple(s_grid), cdf_grid, trace_path if rep == 0 else None)
        for rep in range(replications)
    ]
    workers = min(workers, replications, os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_run_one, args))
    return [_run_one(a) for a in args]


def simulate(
    spec: SystemSpec,
    horizon: float,
    burn_in: float | None = None,
    replications: int = DEFAULT_REPLICATIONS,
    seed: int = DEFAULT_SEED,
    s_grid=None,
    workers: int = 1,
    trace_path=None,
) -> SimulationReport:
    """Simulate and estimate everything the analytic side can predict;
    replication 0 writes its event trace to `trace_path` when one is given.

    `flags` notes each source that first delivers after burn-in in some
    replication, then each flagged estimate as "<label>: <flag>".
    """
    if burn_in is None:
        burn_in = default_burn_in(spec)
        if burn_in >= horizon:
            raise ValueError(
                f"default burn-in {burn_in:g} reaches the horizon {horizon:g}; "
                "pass burn_in explicitly or extend the horizon"
            )
    if s_grid is None:
        s_grid = default_s_grid(spec.num_sources)
    s_grid = analytics.distinct_s_rows(s_grid)
    results = run_replications(
        spec, horizon, burn_in, replications, seed, s_grid, workers=workers, trace_path=trace_path
    )

    K = spec.num_sources
    stats = estimate_statistics(results)

    def batch(value, stderr) -> Estimate:
        return Estimate(float(value), float(stderr), len(results))

    quantities = {analytics.joint_laplace_label(row): estimate_joint_laplace(results, row) for row in s_grid}
    for k in range(K):
        quantities[f"aoi_mean[{k + 1}]"] = batch(stats.mean[k], stats.mean_stderr[k])
        quantities[f"aoi_variance[{k + 1}]"] = batch(stats.variance[k], stats.variance_stderr[k])
    if K == 2:
        quantities["aoi_correlation"] = batch(stats.correlation[0, 1], stats.correlation_stderr[0, 1])
    quantities["departure_rate"] = estimate_departure_rate(results)
    quantities["pushout_rate"] = estimate_pushout_rate(results)
    quantities.update(estimate_palm(results))

    late = Counter(k for r in results for k in r.late_sources)
    flags = [
        f"source {k + 1}: first delivery after burn-in in {late[k]} of "
        f"{len(results)} replications; its time averages include start-up ramp"
        for k in sorted(late)
    ]
    flags += [f"{label}: {est.flag}" for label, est in quantities.items() if est.flag]

    return SimulationReport(
        spec=spec,
        horizon=float(horizon),
        burn_in=float(burn_in),
        replications=int(replications),
        seed=int(seed),
        s_grid=s_grid,
        quantities=quantities,
        flags=flags,
    )
