"""Exact-path simulation of the multi-source Poisson pushout server.

The pushout discipline makes every packet's fate depend only on its own
service requirement and the gap to the next arrival: an arrival always
enters service immediately and departs iff its service fits in that gap
(a tie counts as a departure).  Path generation therefore vectorizes:
arrival epochs come from one superposed exponential clock, sources from
one categorical draw per arrival (K - 1 comparisons with the cumulative
shares), and the departure set is a thinning read by index and slice:
service draws are scattered to each source's arrival indices, the
departures are gathered once by theirs, and since departure epochs never
decrease, the horizon cut and the burn-in window are slices; pushout
counts follow from the departure indices.  Between departures every age
grows with slope one, so the path integrals (exponential functionals for
transforms, polynomial ones for moments) are accumulated segment by
segment in closed form; nothing is discretized.  Each source's age after
every departure is read off its own update sequence: its last update is
one value repeated over the run of departures up to its next delivery,
with no search.  For empirical CDFs a source's age is one ramp from each
of its updates to the next, and occupancy below each level of a CDF grid
is a cumulative sum, over the sorted grid, of each cell's overlap with
the ramps: O(n_k + m) per source for its n_k window deliveries and m
levels, since a bucket table built per source from the grid places the
ramp starts and ends on it, with a binary search only for a key whose
bucket holds two or more levels.

Randomness uses counter-based Philox streams keyed by
(seed, replication index, stream role), so any replication can be
regenerated independently and bit-identically.

Estimators combine the replications of one run by one rule: the value
is a sum over replications divided by a sum, and the standard error is
the sample standard deviation of the per-replication ratios divided by
sqrt(replications); age statistics are plug-ins of such pooled sums.
"""

from __future__ import annotations

import csv
import heapq
import logging
import math
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import analytics
from .analytics import AoIStatistics, SystemSpec
from .servicedist import categorical

__all__ = [
    "DEFAULT_SEED",
    "MAX_SEED",
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
    "estimate_marginal_cdf",
]

DEFAULT_SEED = 112358
MAX_SEED = 2**64 - 1  # a seed fills one 64-bit word of the Philox key
DEFAULT_REPLICATIONS = 32

_ROLE_INTERARRIVAL = 0
_ROLE_SOURCE = 1
_ROLE_SERVICE = 2

_log = logging.getLogger("aoistats")


def replication_rng(seed: int, rep_index: int, role: int) -> np.random.Generator:
    """Counter-based generator for one (replication, stream role) pair.

    Philox keyed on (seed, rep_index, role); streams for different pairs
    never overlap and any pair can be reconstructed on its own.  The
    index shares a 64-bit key word with one byte of role, so it lies below
    2^56; any other seed or index would alias a key and raises ValueError.
    """
    if not 0 <= seed <= MAX_SEED:
        raise ValueError(f"seed must lie in [0, {MAX_SEED}], got {seed}")
    if not 0 <= rep_index < 2**56:
        raise ValueError(f"replication index must lie in [0, 2**56), got {rep_index}")
    key = np.array([int(seed), (int(rep_index) << 8) | int(role)], dtype=np.uint64)
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
    exp(-s . A(t)); per source the integral of A_k; all pairwise
    integrals of A_j A_k, whose diagonal holds those of A_k^2;
    optionally, per source, the occupancy time below each level of
    `cdf_grid` (a nonempty 1-D array of finite levels, in any order,
    whose span is finite too).  `add_segments` adds the joint path, one
    segment per stretch between two departures of any source;
    `add_ramps` adds one source's occupancy from its age ramps, one per
    stretch between two of its own updates, which must cover the same
    time.
    """

    s_grid: tuple[tuple[float, ...], ...]
    num_sources: int
    cdf_grid: np.ndarray | None = None
    elapsed: float = field(init=False, default=0.0)
    exp_integrals: np.ndarray = field(init=False)
    age_integrals: np.ndarray = field(init=False)
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
        self.cross_integrals = np.zeros((K, K))
        if self.cdf_grid is not None:
            x = np.asarray(self.cdf_grid, dtype=float)
            if x.ndim != 1 or x.size == 0 or not np.all(np.isfinite(x)):
                raise ValueError(f"CDF grid must be a nonempty 1-D array of finite levels, got {x!r}")
            # an infinite level spacing would put 0 * inf into the occupancy
            if not math.isfinite(float(x.max()) - float(x.min())):
                raise ValueError(f"CDF grid must span a finite range, got {x!r}")
            self.cdf_grid = x
            self.cdf_occupancy = np.zeros((K, x.size))
        else:
            self.cdf_occupancy = None

    def add_segments(self, ages: np.ndarray, lengths: np.ndarray) -> None:
        """Vectorized bulk accumulation of the transform and moment
        integrals and the elapsed time; rows of `ages` are segment starts,
        every age and length finite.  Occupancy is added by `add_ramps`.
        """
        ages = np.asarray(ages, dtype=float)
        lengths = np.asarray(lengths, dtype=float)
        if ages.ndim != 2 or ages.shape[1] != self.num_sources:
            raise ValueError(f"ages must be (n, {self.num_sources}), got {ages.shape}")
        if lengths.shape != (ages.shape[0],):
            raise ValueError("lengths must match the number of age rows")
        if not (np.isfinite(ages).all() and np.isfinite(lengths).all()):
            raise ValueError("segment ages and lengths must be finite")
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
        self.cross_integrals += (
            (ages.T * L) @ ages
            + (colsum_L2[:, None] + colsum_L2[None, :]) / 2.0
            + float((L2 * L).sum()) / 3.0
        )
        self.elapsed += total

    def add_ramps(self, k: int, starts: np.ndarray, lengths: np.ndarray) -> None:
        """Add age ramps to source k's occupancy below every grid level.

        A ramp is an age range [a, a + L] passed through at slope one; it
        spends clip(x - a, 0, L) time with the age at or below x.  Between
        two of its own updates a source's age is one ramp, however many
        other sources deliver meanwhile, so n_k ramps cover the source on
        a whole path.  Every start and length must be finite.  Costs
        O(n_k + m) for m levels (see `_occupancy`), never an n_k-by-m array.
        """
        if self.cdf_grid is None:
            raise ValueError("accumulator has no CDF grid")
        k = analytics._check_source_index(k, self.num_sources)
        starts = np.asarray(starts, dtype=float)
        lengths = np.asarray(lengths, dtype=float)
        if starts.ndim != 1 or lengths.shape != starts.shape:
            raise ValueError(f"starts and lengths must be 1-D of one length, got {starts.shape} and {lengths.shape}")
        if not (np.isfinite(starts).all() and np.isfinite(lengths).all()):
            raise ValueError("ramp starts and lengths must be finite")
        if np.any(lengths < 0):
            raise ValueError("ramp lengths must be nonnegative")
        self.cdf_occupancy[k] += _occupancy(_SortedGrid(self.cdf_grid), starts, lengths)


# buckets per grid level in the table that places ramp starts and ends
_BUCKETS_PER_LEVEL = 4


class _SortedGrid:
    """A CDF grid sorted once, with a bucket table that answers
    `np.searchsorted` into it exactly.

    A value v goes to bucket trunc(clip((v - xs[0]) * scale + 1, 0, n_b + 2))
    for n_b = _BUCKETS_PER_LEVEL * m over the m levels.  Every step rounds
    monotonically, so a level in a lower bucket than a key lies below it
    and one in a higher bucket above it, whatever the rounding.  A key is
    placed by the count of levels in lower buckets, plus one comparison
    when its bucket holds one level; only keys whose bucket holds two or
    more levels are searched.
    """

    def __init__(self, grid: np.ndarray):
        self.order = np.argsort(grid)
        self.xs = grid[self.order]
        n_b = _BUCKETS_PER_LEVEL * self.xs.size
        self.lo = float(self.xs[0])
        span = float(self.xs[-1]) - self.lo
        # any positive finite scale is exact; n_b / span spreads the levels
        # out unless the span is 0, subnormal or overflows
        scale = n_b / span if span > 0 else 0.0
        self.scale = scale if 0 < scale < math.inf else 1.0
        self.top = float(n_b + 2)
        held = self._bucket(self.xs)
        edges = np.searchsorted(held, np.arange(n_b + 4))
        self.below = edges[:-1]  # levels in lower buckets
        count = np.diff(edges)
        # the one level a bucket holds; NaN compares false either way
        one = count == 1
        self.level = np.full(n_b + 3, np.nan)
        self.level[one] = self.xs[self.below[one]]
        self.crowded = count > 1

    def _bucket(self, values: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):  # an overflow to ±inf keeps the order
            y = values - self.lo
            y *= self.scale
        y += 1.0
        np.clip(y, 0.0, self.top, out=y)
        return y.astype(np.intp)

    def searchsorted(self, keys: np.ndarray, side: str) -> np.ndarray:
        """np.searchsorted(self.xs, keys, side) for 1-D keys without NaN."""
        t = self._bucket(keys)
        found = self.below[t]
        found += self.level[t] < keys if side == "left" else self.level[t] <= keys
        if self.crowded.any():
            near = np.flatnonzero(self.crowded[t])
            found[near] = np.searchsorted(self.xs, keys[near], side=side)
        return found


def _occupancy(grid: _SortedGrid, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """sum_i clip(x - starts[i], 0, lengths[i]) at every x in `grid`.

    The ranges [a_i, a_i + L_i] are one source's age ramps, or any age
    ranges.  Sorted, the grid splits the line into cells (x_{j-1}, x_j];
    the result is the cumulative sum of each cell's total overlap with
    the ranges.  A range contributes its part in the cell holding
    its start, whole cells, and its part in the cell holding its end; the
    whole cells are counted with a difference array.  Every increment is
    a sum of nonnegative terms, so the result never decreases along the
    sorted grid, and it is zero exactly where every clip term is.  Costs
    O(n + m) for n ranges and m grid points, plus a binary search for
    each start or end whose bucket holds two or more levels (see
    `_SortedGrid`).
    """
    xs = grid.xs
    m, n = xs.size, starts.size
    ends = starts + lengths
    # a range starting at a grid point adds nothing at that point, so its
    # first cell is the one right of it
    first = grid.searchsorted(starts, side="right")
    last = grid.searchsorted(ends, side="left")
    spans = last > first  # some grid point lies in (a_i, a_i + L_i)
    inside = ~spans

    # bincount adds a cell's values one after another, so many equal ones
    # (a deterministic source's ramps all start at the same age) drift
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
    occ[grid.order] = np.cumsum(inc[:m])
    return occ


@dataclass
class PalmRecords:
    """Per-delivery observations of one replication, as parallel arrays.

    peak is NaN when the previous update of the source is the artificial
    start state (nothing real to peak against); gap is NaN for the final
    record when the next departure lies beyond the generated path;
    covered marks records where every source has had at least one real
    update.  No estimator reads them: they are kept for event-level checks,
    built from the path only when first read (see `ReplicationResult`).
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
    `spec`, `seed` and `rep_index` name the path.  `records`, the
    per-delivery arrays for event-level checks, are not built by the run:
    the first read regenerates the path from its Philox streams, builds
    them bit for bit and keeps them.  Pickling drops kept records.
    """

    spec: SystemSpec
    seed: int
    rep_index: int
    accumulator: PathAccumulator
    counts: ReplicationCounts
    horizon: float
    burn_in: float
    late_sources: tuple[int, ...]
    source_sums: np.ndarray
    _records: PalmRecords | None = field(default=None, repr=False, compare=False)

    def __getstate__(self):
        return {**self.__dict__, "_records": None}

    @property
    def records(self) -> PalmRecords:
        if self._records is None:
            # the same Philox streams give the same path, and records
            # depend on nothing else
            *_, dep_epoch_all, dep_src, dep_delay = _path(self.spec, self.horizon, self.seed, self.rep_index)
            n_dep = dep_src.size
            b = int(np.searchsorted(dep_epoch_all, self.burn_in, side="right"))
            peak = np.full(n_dep, np.nan)  # NaN for each source's first delivery
            first = []
            for k in range(self.spec.num_sources):
                own = np.flatnonzero(dep_src == k)
                peak[own[1:]] = dep_delay[own[:-1]] + np.diff(dep_epoch_all[own])
                first.append(own[0] if own.size else n_dep)
            # gap to the next departure, known for all but the last generated one
            gap = np.full(n_dep - b, np.nan)
            following = np.diff(dep_epoch_all[b : n_dep + 1])
            gap[: following.size] = following
            self._records = PalmRecords(
                epoch=dep_epoch_all[b:n_dep],
                source=dep_src[b:],
                delay=dep_delay[b:],
                peak=peak[b:],
                gap=gap,
                covered=np.arange(b, n_dep) >= max(first),  # from the last first delivery on
            )
        return self._records

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


def _path(spec: SystemSpec, horizon: float, seed: int, rep_index: int):
    """One replication's path from its Philox streams: arrival epochs (the
    last beyond the horizon), each packet's source and service, the
    indices of the packets that depart, every departure epoch, and the
    sources and delays of the departures up to the horizon."""
    lam = spec.total_rate
    epochs = _generate_arrivals(lam, horizon, replication_rng(seed, rep_index, _ROLE_INTERARRIVAL))
    n_packets = epochs.size - 1
    rng_src = replication_rng(seed, rep_index, _ROLE_SOURCE)
    src = categorical(rng_src.random(n_packets), np.cumsum(np.array(spec.rates) / lam))
    rng_svc = replication_rng(seed, rep_index, _ROLE_SERVICE)
    svc = np.empty(n_packets)
    for k in range(spec.num_sources):
        own = np.flatnonzero(src == k)
        if own.size:
            svc[own] = spec.services[k].sample(rng_svc, own.size)
    done = np.flatnonzero(svc <= np.diff(epochs))  # a tie still departs
    dep_delay_all = svc[done]
    dep_epoch_all = epochs[done] + dep_delay_all
    # departure epochs never decrease, so the horizon cut is a slice
    n_dep = int(np.searchsorted(dep_epoch_all, horizon, side="right"))
    return epochs, src, svc, done, dep_epoch_all, src[done][:n_dep], dep_delay_all[:n_dep]


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
    epochs, src, svc, done, dep_epoch_all, dep_src, dep_delay = _path(spec, horizon, seed, rep_index)
    n_packets = epochs.size - 1  # the final epoch is past the horizon
    in_flight = int(epochs[-2] + svc[-1] > horizon) if n_packets else 0
    n_dep = dep_src.size
    dep_epoch = dep_epoch_all[:n_dep]
    b = int(np.searchsorted(dep_epoch, burn_in, side="right"))  # the window is a slice too
    first_arrival = int(np.searchsorted(epochs, burn_in, side="right"))

    def pushed_out(lo: int) -> int:
        # packets lo .. n_packets - 2 that do not depart are pushed out by
        # the next arrival, at or before the horizon
        hi = max(n_packets - 1, lo)
        return hi - lo - int(np.searchsorted(done, hi) - np.searchsorted(done, lo))

    counts = ReplicationCounts(
        arrivals=n_packets,
        departures=n_dep,
        pushouts=pushed_out(0),
        in_flight=in_flight,
        window_arrivals=n_packets - first_arrival,
        window_departures=n_dep - b,
        window_pushouts=pushed_out(max(first_arrival - 1, 0)),
    )

    # ages just after burn-in and after every window departure, and the
    # exact path integrals over (burn_in, horizon]: a segment starts at
    # burn-in and at each window departure before the horizon
    w_epoch = dep_epoch[b:]
    points = np.concatenate([[burn_in], w_epoch])
    n_seg = 1 + int(np.searchsorted(w_epoch, horizon, side="left"))
    starts = points[:n_seg]
    lengths = np.append(starts[1:], horizon) - starts
    accumulator = PathAccumulator(s_grid=s_grid, num_sources=K, cdf_grid=cdf_grid)
    ages = np.empty((points.size, K))
    source_sums = np.zeros((4, K))
    late = []
    for k in range(K):
        # source k's update sequence with the artificial start state prepended
        own = np.flatnonzero(dep_src == k)
        Uk = np.concatenate([[0.0], dep_epoch[own]])
        Dk = np.concatenate([[0.0], dep_delay[own]])
        pk = Dk[:-1] + np.diff(Uk)
        pk[:1] = np.nan  # first-ever update peaks against the start state
        w = int(np.searchsorted(Uk, burn_in, side="right"))  # Uk[w:] lie in the window
        at = own[w - 1 :] - b  # window positions of its window deliveries
        source_sums[:, k] = Uk.size - w, Dk[w:].sum(), np.nansum(pk[w - 1 :]), np.isfinite(pk[w - 1 :]).sum()
        # its last update is Uk[w - 1] up to its first window delivery, then
        # each of those in turn: one run of points per update
        runs = np.diff(np.concatenate([[0], at + 1, [points.size]]))
        ages[:, k] = np.repeat(Dk[w - 1 :], runs) + (points - np.repeat(Uk[w - 1 :], runs))
        if w == 1:  # no delivery up to burn-in: the start state until its first
            late.append(k)
        if accumulator.cdf_grid is not None:
            # its age ramps from its value at burn-in, then from the delay of
            # each of its window deliveries, to its next delivery or the horizon
            edges = np.concatenate([[burn_in], Uk[w:], [horizon]])
            accumulator.add_ramps(k, np.concatenate([[ages[0, k]], Dk[w:]]), np.diff(edges))
    accumulator.add_segments(ages[:n_seg], lengths)

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
        spec=spec,
        seed=seed,
        rep_index=rep_index,
        accumulator=accumulator,
        counts=counts,
        horizon=horizon,
        burn_in=burn_in,
        late_sources=tuple(late),
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


def _one_run(results) -> list[ReplicationResult]:
    """`results` as a list, checked to be replications of one run: at
    least two, of one system, with one s-grid and one CDF grid or none."""
    results = list(results)
    if len(results) < 2:
        raise ValueError(f"need at least 2 replications, got {len(results)}")
    first = results[0]
    for r in results[1:]:
        if r.spec != first.spec:
            raise ValueError(
                f"replications were run on different systems, of {first.spec.num_sources} and "
                f"{r.spec.num_sources} sources: {first.spec} and {r.spec}"
            )
        if r.accumulator.s_grid != first.accumulator.s_grid:
            raise ValueError("replications were run with different argument grids")
        # equal when both are None, unequal when one is
        if not np.array_equal(r.accumulator.cdf_grid, first.accumulator.cdf_grid):
            raise ValueError("replications were run with different CDF grids")
    return results


def _ratio_estimate(nums, dens, kind: str) -> Estimate:
    """The one rule that combines replications: the value sums numerators
    over denominators, the stderr comes from the per-replication ratios;
    a replication with no `kind` (a ratio not finite) is flagged."""
    nums = np.asarray(nums, dtype=float)
    dens = np.asarray(dens, dtype=float)
    if dens.sum() == 0:
        return Estimate(math.nan, math.nan, len(nums), flag=f"no {kind}")
    value = float(nums.sum() / dens.sum())
    with np.errstate(invalid="ignore", divide="ignore"):
        per = nums / dens
    per = per[np.isfinite(per)]
    if per.size < 2:
        return Estimate(value, math.nan, per.size, flag=f"too few replications with {kind} for a stderr")
    missing = len(nums) - per.size
    flag = f"{missing} replications had no {kind}" if missing else None
    return Estimate(value, float(per.std(ddof=1) / math.sqrt(per.size)), per.size, flag)


def estimate_joint_laplace(results, s) -> Estimate:
    """Time-average estimate of E[exp(-s . A)]: the integrals of
    exp(-s . A) summed over replications, over their summed time."""
    results = _one_run(results)
    row = tuple(float(v) for v in np.asarray(s, dtype=float).reshape(-1))
    grid = results[0].accumulator.s_grid
    if row not in grid:
        raise ValueError(f"argument vector {row} was not simulated; grid is {grid}")
    j = grid.index(row)
    accs = [r.accumulator for r in results]
    return _ratio_estimate([a.exp_integrals[j] for a in accs], [a.elapsed for a in accs], "time")


def estimate_statistics(results) -> AoIStatistics:
    """Simulated per-source age statistics with batch-means stderr.

    Point values are plug-ins from the integrals summed over
    replications; standard errors recompute the same statistic per
    replication and take the spread, as `_ratio_estimate` does.
    """

    def stats_from(T, age, cross):
        # broadcasts over any leading axes of T
        T = np.asarray(T)[..., None]
        mean = age / T
        cov = cross / T[..., None] - mean[..., :, None] * mean[..., None, :]
        var = np.diagonal(cov, axis1=-2, axis2=-1).copy()  # a writable array, not a view of cov
        sd = np.sqrt(np.maximum(var, 0.0))
        with np.errstate(invalid="ignore", divide="ignore"):
            corr = cov / (sd[..., :, None] * sd[..., None, :])
        diag = np.arange(age.shape[-1])
        corr[..., diag, diag] = 1.0
        return mean, var, cov, corr

    accs = [r.accumulator for r in _one_run(results)]
    T = np.array([a.elapsed for a in accs])
    age = np.stack([a.age_integrals for a in accs])
    cross = np.stack([a.cross_integrals for a in accs])
    mean, var, cov, corr = stats_from(math.fsum(T), age.sum(axis=0), cross.sum(axis=0))
    root_b = math.sqrt(len(accs))
    mean_se, var_se, cov_se, corr_se = (np.std(p, axis=0, ddof=1) / root_b for p in stats_from(T, age, cross))
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


def estimate_palm(results) -> dict[str, Estimate]:
    """Event-count estimates by report label: the departure and pushout
    rates over the window, then per source (1-based) the update share and
    rate and the delivery-averaged delay and peak means."""
    results = _one_run(results)
    K = results[0].spec.num_sources
    counts, delays, peaks, peak_counts = np.stack([r.source_sums for r in results], axis=1)
    spans = np.array([r.window_span for r in results])
    totals = np.array([r.counts.window_departures for r in results], dtype=float)
    pushouts = np.array([r.counts.window_pushouts for r in results], dtype=float)
    out = {
        "departure_rate": _ratio_estimate(totals, spans, "window time"),
        "pushout_rate": _ratio_estimate(pushouts, spans, "window time"),
    }
    for k in range(K):
        label = f"deliveries for source {k + 1}"
        out[f"update_share[{k + 1}]"] = _ratio_estimate(counts[:, k], totals, "deliveries")
        out[f"update_rate[{k + 1}]"] = _ratio_estimate(counts[:, k], spans, label)
        out[f"delay_mean[{k + 1}]"] = _ratio_estimate(delays[:, k], counts[:, k], label)
        out[f"peak_mean[{k + 1}]"] = _ratio_estimate(peaks[:, k], peak_counts[:, k], f"peaks for source {k + 1}")
    return out


def estimate_marginal_cdf(results, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Empirical P(A_k <= x) on the replications' CDF grid: the time below
    each level summed over replications, over their summed time."""
    results = _one_run(results)
    k = analytics._check_source_index(k, results[0].spec.num_sources)
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

    At most min(workers, replications, usable CPUs) processes start, the
    CPUs being those this process may run on; results do not depend on
    how many do.  Every result is fixed-size, a worker's as a serial one's:
    `records` are built where they are read (see `ReplicationResult`).
    Replication 0 writes its event trace to `trace_path` when one is given
    (see run_replication).
    """
    if replications < 2:
        raise ValueError(f"need at least 2 replications, got {replications}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    args = [
        (spec, horizon, burn_in, seed, rep, tuple(s_grid), cdf_grid, trace_path if rep == 0 else None)
        for rep in range(replications)
    ]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(workers, replications, cpus)
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
    replication, then each flagged estimate as "<label>: <flag>"; each
    note is also logged at INFO on the "aoistats" logger.
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
    quantities.update(estimate_palm(results))

    late = Counter(k for r in results for k in r.late_sources)
    flags = [
        f"source {k + 1}: first delivery after burn-in in {late[k]} of "
        f"{len(results)} replications; its time averages include start-up ramp"
        for k in sorted(late)
    ]
    flags += [f"{label}: {est.flag}" for label, est in quantities.items() if est.flag]
    for flag in flags:
        _log.info("%s", flag)

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
