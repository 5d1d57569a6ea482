"""Reference forms of the simulator's path integrals.

The simulator accumulates whole paths at once, with
`PathAccumulator.add_segments` for the transform and moment integrals and
`PathAccumulator.add_ramps` for each source's CDF occupancy; these
one-segment-at-a-time versions, and the clip sum over every (segment,
level) pair for CDF occupancy, are the oracles the tests check it against.
`mask_thinned_replication` is `run_replication` as it thinned arrivals
with boolean masks over every packet of the whole path at once, the
reference for its index-based thinning in blocks; its age columns,
gathered through a running count of each source's window deliveries, are
the reference for the run-length ones.
"""

import math
from dataclasses import dataclass

import numpy as np

from aoistats.simulator import (
    _ROLE_INTERARRIVAL,
    _ROLE_SERVICE,
    _ROLE_SOURCE,
    _SEGMENT_ROWS,
    PalmRecords,
    PathAccumulator,
    ReplicationCounts,
    ReplicationResult,
    replication_rng,
)


@dataclass(frozen=True)
class AoISnapshot:
    """Per-source (last update epoch, delay) state; age is delay + t - epoch."""

    update_epochs: np.ndarray
    delays: np.ndarray

    def ages(self, t: float) -> np.ndarray:
        return self.delays + (t - self.update_epochs)


def segment_integral_exponential(snapshot: AoISnapshot, t0: float, t1: float, s) -> float:
    """Exact integral of exp(-sum_k s_k A_k(t)) over [t0, t1).

    All ages grow with slope one on the segment, so the integral is
    exp(-s . a) * (1 - exp(-sbar L)) / sbar with a the ages at t0,
    sbar = sum(s) and L the segment length; plain L when sbar == 0.
    """
    if not t1 > t0:
        raise ValueError(f"segment must have positive length, got [{t0}, {t1})")
    s = np.asarray(s, dtype=float)
    a = snapshot.ages(t0)
    if s.shape != a.shape:
        raise ValueError(f"argument vector has shape {s.shape}, expected {a.shape}")
    if np.any(s < 0):
        raise ValueError("transform arguments must be nonnegative")
    L = t1 - t0
    sbar = float(s.sum())
    if sbar == 0.0:
        return L
    return math.exp(-float(s @ a)) * (-math.expm1(-sbar * L)) / sbar


def segment_integral_moments(snapshot: AoISnapshot, t0: float, t1: float):
    """Exact integrals of A_k, A_k^2, and A_j A_k over [t0, t1).

    Returns (age (K,), age_sq (K,), cross (K, K)); the cross diagonal
    equals age_sq.
    """
    if not t1 > t0:
        raise ValueError(f"segment must have positive length, got [{t0}, {t1})")
    a = snapshot.ages(t0)
    L = t1 - t0
    age = a * L + L**2 / 2.0
    age_sq = a**2 * L + a * L**2 + L**3 / 3.0
    cross = np.outer(a, a) * L + (a[:, None] + a[None, :]) * (L**2 / 2.0) + L**3 / 3.0
    return age, age_sq, cross


def add_segment(acc, snapshot: AoISnapshot, t0: float, t1: float) -> None:
    """Accumulate one constant-snapshot segment into the PathAccumulator `acc`,
    occupancy included: what `add_segments` and one `add_ramps` call per
    source add for it together."""
    for j, row in enumerate(acc.s_grid):
        acc.exp_integrals[j] += segment_integral_exponential(snapshot, t0, t1, row)
    age, _, cross = segment_integral_moments(snapshot, t0, t1)
    acc.age_integrals += age
    acc.cross_integrals += cross
    if acc.cdf_grid is not None:
        a = snapshot.ages(t0)
        L = t1 - t0
        acc.cdf_occupancy += np.clip(acc.cdf_grid[None, :] - a[:, None], 0.0, L)
    acc.elapsed += t1 - t0


def clip_occupancy(grid, ages: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Occupancy (K, m) of segments with start ages `ages` (n, K) and
    `lengths` (n,): sum_i clip(x - ages[i, k], 0, lengths[i]) at every x
    in `grid`, as one n-by-m array per source."""
    x = np.asarray(grid, dtype=float)
    L = np.asarray(lengths, dtype=float)[:, None]
    columns = np.asarray(ages, dtype=float).T
    return np.array([np.clip(x[None, :] - a[:, None], 0.0, L).sum(axis=0) for a in columns])


def arrival_epochs(lam, horizon, seed, rep_index):
    """The arrival epochs up to the horizon and the first one past it, as
    one running sum of the whole interarrival stream, redrawn from its
    start with twice as many draws until it passes the horizon."""
    n = 64
    while True:
        epochs = np.cumsum(replication_rng(seed, rep_index, _ROLE_INTERARRIVAL).exponential(1.0 / lam, n))
        if epochs[-1] > horizon:
            return epochs[: np.searchsorted(epochs, horizon, side="right") + 1]
        n *= 2


def service_draws(model, seed, rep_index, k, n):
    """Source k's first n service requirements, drawn at once from its
    service-role streams (k, j)."""
    rngs = [replication_rng(seed, rep_index, _ROLE_SERVICE, (k, j)) for j in range(model.streams)]
    return model.draw(rngs, n)


def mask_thinned_replication(spec, horizon, burn_in, seed, rep_index=0, s_grid=(), cdf_grid=None):
    """`run_replication` without its trace, on the whole path at once,
    thinning by boolean masks: a categorical source draw by
    `np.searchsorted`, service draws scattered through `src == k`, and
    the departure, horizon and window sets as masks over every packet or
    departure.  Segments go to `add_segments` in chunks of _SEGMENT_ROWS
    from a (K, n) age table, as a run of one block does, so a path of one
    block gives bit-identical sums."""
    horizon = float(horizon)
    burn_in = float(burn_in)
    K = spec.num_sources
    lam = spec.total_rate
    rng_src = replication_rng(seed, rep_index, _ROLE_SOURCE)

    epochs = arrival_epochs(lam, horizon, seed, rep_index)
    n_packets = epochs.size - 1
    shares = np.cumsum(np.array(spec.rates) / lam)
    src = np.minimum(
        np.searchsorted(shares, rng_src.random(n_packets), side="right"), K - 1
    ).astype(np.int64)
    svc = np.empty(n_packets)
    for k in range(K):
        mask = src == k
        svc[mask] = service_draws(spec.services[k], seed, rep_index, k, int(mask.sum()))
    gaps = np.diff(epochs)
    completes = svc <= gaps
    dep_epoch_all = epochs[:-1][completes] + svc[completes]
    dep_src_all = src[completes]
    dep_delay_all = svc[completes]
    push_epochs = epochs[1:][~completes]
    in_flight = int(epochs[-2] + svc[-1] > horizon) if n_packets else 0

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
    )

    own_U, own_D, own_w = [], [], []
    peak = np.full(dep_epoch.size, np.nan)
    source_sums = np.zeros((4, K))
    for k in range(K):
        own = np.flatnonzero(dep_src == k)
        Uk = np.concatenate([[0.0], dep_epoch[own]])
        Dk = np.concatenate([[0.0], dep_delay[own]])
        own_U.append(Uk)
        own_D.append(Dk)
        pk = Dk[:-1] + np.diff(Uk)
        pk[:1] = np.nan
        peak[own] = pk
        w = int(np.searchsorted(Uk, burn_in, side="right"))
        own_w.append(w)
        source_sums[:, k] = Uk.size - w, Dk[w:].sum(), np.nansum(pk[w - 1 :]), np.isfinite(pk[w - 1 :]).sum()

    in_window = dep_epoch > burn_in
    w_epoch = dep_epoch[in_window]
    w_src = dep_src[in_window]
    points = np.concatenate([[burn_in], w_epoch])
    ages = np.empty((K, points.size))
    covered = np.ones(points.size, dtype=bool)
    for k in range(K):
        j = own_w[k] - 1 + np.concatenate([[0], np.cumsum(w_src == k)])
        ages[k] = own_D[k][j] + (points - own_U[k][j])
        covered &= j >= 1

    starts_at = np.concatenate([[True], w_epoch < horizon])
    starts = points[starts_at]
    lengths = np.append(starts[1:], horizon) - starts
    accumulator = PathAccumulator(s_grid=s_grid, num_sources=K, cdf_grid=cdf_grid)
    accumulator.source_sums = source_sums
    accumulator.window_pushouts = int(((push_epochs > burn_in) & (push_epochs <= horizon)).sum())
    accumulator.window_span = horizon - burn_in
    seg_ages = np.ascontiguousarray(ages[:, starts_at])  # a (K, n) table, as the run's
    for lo in range(0, lengths.size, _SEGMENT_ROWS):
        accumulator.add_segments(seg_ages[:, lo : lo + _SEGMENT_ROWS].T, lengths[lo : lo + _SEGMENT_ROWS])
    if accumulator.cdf_grid is not None:
        for k in range(K):
            w = own_w[k]
            edges = np.concatenate([[burn_in], own_U[k][w:], [horizon]])
            accumulator.add_ramps(k, np.concatenate([[ages[k, 0]], own_D[k][w:]]), np.diff(edges))

    records = PalmRecords(
        epoch=w_epoch,
        source=dep_src[in_window],
        delay=dep_delay[in_window],
        peak=peak[in_window],
        gap=dep_gap[in_window],
        covered=covered[1:],
    )
    late = tuple(k for k in range(K) if own_U[k].size < 2 or own_U[k][1] > burn_in)
    return ReplicationResult(
        spec=spec,
        seed=seed,
        rep_index=rep_index,
        accumulator=accumulator,
        counts=counts,
        horizon=horizon,
        burn_in=burn_in,
        late_sources=late,
        _records=records,
    )
