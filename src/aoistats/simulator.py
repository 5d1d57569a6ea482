"""Exact-path simulation of the multi-source Poisson pushout server.

The pushout discipline makes every packet's fate depend only on its own
service requirement and the gap to the next arrival: an arrival always
enters service immediately and departs iff its service fits in that gap
(a tie counts as a departure).  Path generation therefore vectorizes:
arrival epochs come from one superposed exponential clock, sources from
one categorical draw per arrival, and the departure set is a thinning
read by index and slice: each source's service draws go to its arrival
indices, the departures are gathered once by theirs, and since departure
epochs never decrease, the horizon cut and the burn-in window are slices;
pushout counts follow from the departure indices.  A block's arrivals,
and then its departures, are split by source once: by one scan per
source for a few sources, and from _GROUP_SOURCES on by one stable radix
sort of the source codes, which costs O(n), not O(K n).
Between departures every age grows with slope one, so the path integrals
(exponential functionals for transforms, polynomial ones for moments)
are accumulated segment by segment in closed form; nothing is
discretized.  Each source's age after every departure is read off its
own update sequence: its last update is one value repeated over the run
of departures up to its next delivery, with no search.  For empirical
CDFs a source's age is one ramp from each of its updates to the next,
and occupancy below each level of a CDF grid is a cumulative sum, over
the sorted grid, of each cell's overlap with the ramps: O(n_k + m) per
source for its n_k window deliveries and m levels, since a bucket table
built once from the grid places the ramp starts and ends on it,
with a binary search only for a key whose bucket holds two or more
levels.

A path is generated and reduced in blocks of _BLOCK arrivals, so memory
does not grow with the horizon.  A block settles each packet whose
next arrival it draws, so the newest arrival of a full block is settled
by the next one.  What a block carries across its edge is small: the
arrival clock (the newest arrival's epoch), each source's last update
epoch and delay (which also give its open CDF ramp and the peak of its
next delivery), the epoch of its first delivery, the start of the open
path segment, and the running counts and sums.  Where blocks split
changes no draw and no event, and moves the sums only by rounding.

Randomness uses counter-based Philox streams keyed by
(seed, replication index, stream role), so any replication can be
regenerated independently and bit-identically.  Interarrival times and
source uniforms are drawn in order from their own streams, and epochs
are one running sum over the whole path.  Source k draws its service
requirements by `ServiceTimeModel.draw` from its own service-role
streams (k, j), one per component of a mixture beside its choices;
every family's draws are prefix-consistent, so the n-th packet of a
source gets the same service however blocks split.

Every simulated number of a run is a row of the report table, and
`_quantities`, which `simulate` calls, estimates them all by one rule:
each window sum of a replication, a field of its `PathAccumulator`, is
pooled over the run by np.sum, and every row, a time average, a rate or
a delivery mean, is a function g of the pooled sums.  Its standard
error is the sample standard deviation of g per replication, over those
where g is finite, divided by the square root of their count; a
replication where g is not finite is flagged.  The empirical CDF
(`estimate_marginal_cdf`) pools occupancy the same way, with no stderr.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import heapq
import logging
import math
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, fields
from itertools import repeat
from typing import NamedTuple

import numpy as np

from . import analytics
from .analytics import SystemSpec
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
    "run_replication",
    "simulate",
    "estimate_marginal_cdf",
]

DEFAULT_SEED = 112358
MAX_SEED = 2**64 - 1  # a seed fills one 64-bit word of the Philox key
DEFAULT_REPLICATIONS = 32

_ROLE_INTERARRIVAL = 0
_ROLE_SOURCE = 1
_ROLE_SERVICE = 2

# arrivals per block of a path; no result depends on it beyond rounding.
# At least 2, so that every block but the last settles a packet
_BLOCK = 2**15
# segment rows per `add_segments` call, small enough that OpenBLAS keeps
# each product on one thread
_SEGMENT_ROWS = 4096
# sources from which a block's packets are grouped by source with one
# sort instead of one scan per source (see `_by_source`).  Per 2^15
# arrivals the sort costs about what 4 scans do; over whole replications
# of the first K sources of the `gate-k8-par` benchmark system, grouping
# was slower up to K = 5 and faster from K = 6 on
_GROUP_SOURCES = 6
# the largest spacing of float epochs at the horizon, relative to the
# mean interarrival time, at which a path still resolves its gaps
_CLOCK_RESOLUTION = 2.0**-20

_log = logging.getLogger("aoistats")


def replication_rng(seed: int, rep_index: int, role: int, stream: tuple[int, int] = (0, 0)) -> np.random.Generator:
    """Counter-based generator for one (replication, stream role) pair,
    and its stream (k, j), which in the service role is source k's j-th.

    Philox keyed on (seed, rep_index, role), from counter [0, 0, k, j];
    no two streams overlap and any one can be reconstructed on its own.
    The index shares a 64-bit key word with one byte of role, so it lies
    below 2^56; any other seed or index would alias a key and raises
    ValueError.
    """
    if not 0 <= seed <= MAX_SEED:
        raise ValueError(f"seed must lie in [0, {MAX_SEED}], got {seed}")
    if not 0 <= rep_index < 2**56:
        raise ValueError(f"replication index must lie in [0, 2**56), got {rep_index}")
    key = np.array([int(seed), (int(rep_index) << 8) | int(role)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(counter=[0, 0, *stream], key=key))


def default_burn_in(spec: SystemSpec) -> float:
    """Burn-in long enough for many update cycles of the slowest source."""
    slowest = min(analytics._source_update_rate(spec, k) for k in range(spec.num_sources))
    return max(100.0 / slowest, 1000.0 / spec.total_rate)


@dataclass
class PathAccumulator:
    """Every sum an estimate reads, over the window (burn_in, horizon] of
    one replication or of a run (see `_run_sums`): the `init=False` fields.

    `add_segments` adds the path integrals in closed form, one segment per
    stretch between two departures of any source: the time (`elapsed`);
    per argument vector (each checked by `analytics._s_row`, with no rate)
    the integral of exp(-s . A(t)); per source that of A_k; all pairwise
    integrals of A_j A_k, whose diagonal holds those of A_k^2.
    `add_ramps` adds, per source, the occupancy time below each level of
    the optional `cdf_grid` (a nonempty 1-D array of finite levels, in any
    order, whose span is finite too, sorted once into a `_SortedGrid`)
    from its age ramps, one per stretch between two of its own updates.
    The run adds the delivery sums: `source_sums` (4, K), per source the
    deliveries, their delay sum and the sum and count of their finite
    peaks; the pushouts; and the window's span, horizon - burn_in.
    """

    s_grid: tuple[tuple[float, ...], ...]
    num_sources: int
    cdf_grid: np.ndarray | None = None
    elapsed: float = field(init=False, default=0.0)
    exp_integrals: np.ndarray = field(init=False)
    age_integrals: np.ndarray = field(init=False)
    cross_integrals: np.ndarray = field(init=False)
    cdf_occupancy: np.ndarray | None = field(init=False)
    source_sums: np.ndarray = field(init=False)
    window_pushouts: int = field(init=False, default=0)
    window_span: float = field(init=False, default=0.0)

    def __post_init__(self):
        K = self.num_sources
        self.s_grid = tuple(analytics._s_row(row, K) for row in self.s_grid)
        self.exp_integrals = np.zeros(len(self.s_grid))
        self.age_integrals = np.zeros(K)
        self.cross_integrals = np.zeros((K, K))
        self.source_sums = np.zeros((4, K))
        if self.cdf_grid is not None:
            x = np.asarray(self.cdf_grid, dtype=float)
            if x.ndim != 1 or x.size == 0 or not np.all(np.isfinite(x)):
                raise ValueError(f"CDF grid must be a nonempty 1-D array of finite levels, got {x!r}")
            # an infinite level spacing would put 0 * inf into the occupancy
            if not math.isfinite(float(x.max()) - float(x.min())):
                raise ValueError(f"CDF grid must span a finite range, got {x!r}")
            self.cdf_grid = x
            self.cdf_occupancy = np.zeros((K, x.size))
            self._sorted = _SortedGrid(x)
        else:
            self.cdf_occupancy = None

    def add_segments(self, ages: np.ndarray, lengths: np.ndarray) -> None:
        """Add n segments to the transform and moment integrals and the
        elapsed time; rows of `ages` are segment starts, every age and
        length finite.  Occupancy is added by `add_ramps`.

        On a segment of length L from ages a, exp(-s . A) integrates to
        exp(-s . a) (1 - exp(-sbar L)) / sbar for sbar = sum(s) > 0, and to
        L for sbar = 0.  All rows s with sbar > 0 are taken at once: one
        product of those rows with the ages, one exp of it, one expm1 of
        the table of sbar L and one row-wise dot.
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
        s = np.array(self.s_grid).reshape(-1, self.num_sources)
        sbar = s.sum(axis=1)
        flat = sbar == 0.0
        self.exp_integrals[flat] += total
        live = ~flat
        if live.any():
            s, sbar = s[live], sbar[live]
            with np.errstate(over="ignore"):  # s . a or sbar L may overflow to inf: exp and expm1 are exact there
                w = s @ ages.T  # s . a for every row and segment
                decay = np.multiply.outer(-sbar, L)
            np.negative(w, out=w)
            np.exp(w, out=w)
            np.expm1(decay, out=decay)  # -(1 - exp(-sbar L))
            self.exp_integrals[live] -= np.einsum("jn,jn->j", w, decay) / sbar
            del w, decay  # freed before the moment products allocate theirs
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
        self.cdf_occupancy[k] += _occupancy(self._sorted, starts, lengths)


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
        self.grid = grid
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

    def __reduce__(self):
        # a pickle keeps the grid alone, which its accumulator holds anyway
        return _SortedGrid, (self.grid,)

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
    the ranges.  Each range is placed once, in one pass over all of them:
    its part in the cell of its start (its length if it ends there, else
    up to the next level), its part in the cell of its end (none if that
    is the cell of its start), and the whole cells between, counted with
    a difference array.  Every increment is a sum of nonnegative terms,
    so the result never decreases along the sorted grid, and it is zero
    exactly where every clip term is.  Costs O(n + m) for n ranges and m
    grid points, plus a binary search for each start or end whose bucket
    holds two or more levels (see `_SortedGrid`).
    """
    xs = grid.xs
    m, n = xs.size, starts.size
    ends = starts + lengths
    # a range starting at a grid point adds nothing at that point, so its
    # first cell is the one right of it
    first = grid.searchsorted(starts, side="right")
    last = grid.searchsorted(ends, side="left")
    spans = last > first  # some grid point lies in (a_i, a_i + L_i)
    head = np.subtract(np.take(xs, first, mode="clip"), starts, out=lengths.copy(), where=spans)
    tail = np.subtract(ends, np.take(xs, last - 1, mode="clip"), out=np.zeros(n), where=spans)

    # bincount adds a cell's values one after another, so many equal ones
    # (a deterministic source's ramps all start at the same age) drift
    # by up to one rounding each.  Summing runs of about m consecutive
    # ranges apart and then the runs pairwise keeps that drift to about m
    # roundings, in a table of about n + m entries for each kind of part
    # (a whole range, a start part, an end part); the kinds are added last.
    runs = max(1, n // (m + 1))
    run = np.arange(n) * runs // max(n, 1)
    cells = np.concatenate([(3 * first + spans) * runs + run, (3 * last + 2) * runs + run])
    table = np.bincount(cells, np.concatenate([head, tail]), minlength=(m + 1) * 3 * runs)
    inc = table.reshape(m + 1, 3, runs).sum(axis=2, dtype=float).sum(axis=1)  # a bincount of nothing is integer
    # ranges covering cell j whole: first < j < last
    whole = np.bincount(first + 1, minlength=m + 2) - np.bincount(np.maximum(last, first + 1), minlength=m + 2)
    inc[1:m] += np.cumsum(whole)[1:m] * np.diff(xs)
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
    """Event counts of the whole run (0, horizon], burn-in included; the
    window's are sums of the accumulator.

    Conservation holds exactly:
    arrivals == departures + pushouts + in_flight.
    """

    arrivals: int
    departures: int
    pushouts: int
    in_flight: int


@dataclass
class ReplicationResult:
    """One replication, reduced where it ran to fixed-size sums.

    Every estimate reads `accumulator`, which holds the window's sums;
    `counts` cover the whole run.  `spec`, `seed` and `rep_index` name
    the path.  `records`, the per-delivery arrays for event-level checks,
    are not built by the run: the first read regenerates the path, block
    by block, from its Philox streams, builds them bit for bit and keeps
    them; they are the only part that grows with the horizon.  Pickling
    drops kept records.
    """

    spec: SystemSpec
    seed: int
    rep_index: int
    accumulator: PathAccumulator
    counts: ReplicationCounts
    horizon: float
    burn_in: float
    late_sources: tuple[int, ...]
    _records: PalmRecords | None = field(default=None, repr=False, compare=False)

    def __getstate__(self):
        return {**self.__dict__, "_records": None}

    @property
    def records(self) -> PalmRecords:
        if self._records is None:
            # the same Philox streams give the same path, and records
            # depend on nothing else
            parts = []
            for blk in _path(self.spec, self.horizon, self.seed, self.rep_index):
                parts.append((blk.departure, blk.dep_source, blk.delay))
                after = blk.after
            epoch, dep_src, dep_delay = (np.concatenate(part) for part in zip(*parts))
            n_dep = dep_src.size
            b = int(np.searchsorted(epoch, self.burn_in, side="right"))
            peak = np.full(n_dep, np.nan)  # NaN for each source's first delivery
            first = []
            for k in range(self.spec.num_sources):
                own = np.flatnonzero(dep_src == k)
                peak[own[1:]] = dep_delay[own[:-1]] + np.diff(epoch[own])
                first.append(own[0] if own.size else n_dep)
            self._records = PalmRecords(
                epoch=epoch[b:],
                source=dep_src[b:],
                delay=dep_delay[b:],
                peak=peak[b:],
                # gap to the next departure, NaN past the last generated one
                gap=np.diff(np.append(epoch[b:], after)),
                covered=np.arange(b, n_dep) >= max(first),  # from the last first delivery on
            )
        return self._records


class _Block(NamedTuple):
    """One block of a path: the packets it settles, in order of arrival,
    and their departures, all at or before the horizon.  A block settles
    each packet whose next arrival it draws.  `following` holds those
    next arrivals (for the path's last packet, the first arrival past the
    horizon; for a full block's last, the next block's first packet), and
    `done` the positions of the packets that depart.  On the last block,
    `after` is the epoch of the departure past the horizon, NaN when
    there is none."""

    arrival: np.ndarray
    source: np.ndarray
    service: np.ndarray
    departure: np.ndarray
    dep_source: np.ndarray
    delay: np.ndarray
    following: np.ndarray
    done: np.ndarray
    last: bool
    after: float

    def pushouts(self, t: float) -> int:
        """How many packets settled in the block are pushed out at or
        before t: those that do not depart, by next arrivals up to t."""
        upto = int(np.searchsorted(self.following, t, side="right"))
        return upto - int(np.searchsorted(self.done, upto))


def _by_source(src: np.ndarray, K: int) -> list[np.ndarray]:
    """Each source's positions in `src`, in order: np.flatnonzero(src == k)
    for k in range(K).  Below _GROUP_SOURCES sources that is what runs;
    from it on, one stable sort of the source codes in the narrowest
    unsigned type that holds them (8-bit up to 256 sources), which numpy
    sorts by radix, groups them all in O(n) and a bincount bounds each
    group."""
    if K < _GROUP_SOURCES:
        return [np.flatnonzero(src == k) for k in range(K)]
    order = np.argsort(src.astype(np.min_scalar_type(K - 1)), kind="stable")
    bounds = np.cumsum(np.bincount(src, minlength=K)).tolist()
    return [order[lo:hi] for lo, hi in zip([0, *bounds], bounds)]


def _path(spec: SystemSpec, horizon: float, seed: int, rep_index: int):
    """One replication's path from its Philox streams, as `_Block`s that
    each draw _BLOCK arrivals, the last cut at the horizon."""
    scale = 1.0 / spec.total_rate
    rng_arr = replication_rng(seed, rep_index, _ROLE_INTERARRIVAL)
    rng_src = replication_rng(seed, rep_index, _ROLE_SOURCE)
    shares = np.cumsum(np.array(spec.rates) / spec.total_rate)
    streams = [
        [replication_rng(seed, rep_index, _ROLE_SERVICE, (k, j)) for j in range(model.streams)]
        for k, model in enumerate(spec.services)
    ]
    # epochs[0] is the clock: time 0 in the first block, then the newest
    # arrival of the block before, which this block settles
    clock, first = 0.0, 1
    while True:
        epochs = np.empty(_BLOCK + 1)
        epochs[0] = clock
        rng_arr.standard_exponential(out=epochs[1:])
        epochs[1:] *= scale
        np.cumsum(epochs, out=epochs)  # one running sum over the whole path
        clock = float(epochs[-1])
        n = int(np.searchsorted(epochs[1:], horizon, side="right"))
        last = n < _BLOCK  # epochs[n + 1] is the first arrival past the horizon
        stop = min(n + 1, _BLOCK)
        epoch, following = epochs[first:stop], epochs[first + 1 : stop + 1]
        src = categorical(rng_src.random(epoch.size), shares)
        svc = np.empty(epoch.size)
        for model, rngs, own in zip(spec.services, streams, _by_source(src, len(streams))):
            svc[own] = model.draw(rngs, own.size)
        done = np.flatnonzero(svc <= following - epoch)  # a tie still departs
        delay = svc[done]
        departure = epoch[done] + delay
        after = math.nan
        if last:
            # departure epochs never decrease, so the horizon cut is a slice
            n_dep = int(np.searchsorted(departure, horizon, side="right"))
            if n_dep < departure.size:
                after = float(departure[n_dep])
            done, delay, departure = done[:n_dep], delay[:n_dep], departure[:n_dep]
        yield _Block(epoch, src, svc, departure, src[done], delay, following, done, last, after)
        if last:
            return
        first = 0


class _Reduction:
    """A replication's fixed-size sums, added one block of its path at a
    time, and the state each block hands to the next."""

    def __init__(self, horizon: float, burn_in: float, accumulator: PathAccumulator):
        K = accumulator.num_sources
        self.K, self.horizon, self.burn_in, self.accumulator = K, horizon, burn_in, accumulator
        accumulator.window_span += horizon - burn_in
        # each source's last update (epoch, delay), from the artificial start state
        self.update = np.zeros(K)
        self.delay = np.zeros(K)
        self.first = np.full(K, math.inf)  # each source's first delivery
        self.segment = burn_in  # start of the open segment
        self.tally = np.zeros(3, dtype=np.int64)  # arrivals, departures, pushouts
        # room for a block's table of each source's age at each closed
        # segment's start (a block closes at most _BLOCK + 1 segments),
        # twice over.  The table is freed when the replication ends, and
        # glibc keeps the free top of its heap only while that stays below
        # twice the largest chunk it has unmapped: with room for one block
        # the pool workers of the `gate-k8-par` benchmark gave back and
        # faulted in again about 470-850 pages per replication, with room
        # for two about 1.  Rows never written take no memory.
        self.ages = np.empty(2 * K * (_BLOCK + 1))

    def add(self, blk: _Block) -> None:
        horizon, burn_in, acc = self.horizon, self.burn_in, self.accumulator
        dep_epoch, dep_src, dep_delay = blk.departure, blk.dep_source, blk.delay
        b = int(np.searchsorted(dep_epoch, burn_in, side="right"))  # the window is a slice
        pushouts = blk.pushouts(horizon)
        self.tally += (blk.arrival.size, dep_epoch.size, pushouts)
        acc.window_pushouts += pushouts - blk.pushouts(burn_in)
        # segments start at the open one's start and at each window departure
        # of the block before the horizon; every segment but the last ends at
        # the next start, the last at the horizon or in a later block
        w_epoch = dep_epoch[b:]
        n_seg = 1 + int(np.searchsorted(w_epoch, horizon, side="left"))
        points = np.concatenate([[self.segment], w_epoch[: n_seg - 1]])
        ends = np.append(points[1:], horizon) if blk.last else points[1:]
        n_rows = ends.size
        ages = self.ages[: self.K * n_rows].reshape(self.K, n_rows)  # one row per source
        for k, own in enumerate(_by_source(dep_src, self.K)):
            # source k's updates with its last one before the block prepended
            Uk = np.concatenate([[self.update[k]], dep_epoch[own]])
            Dk = np.concatenate([[self.delay[k]], dep_delay[own]])
            pk = Dk[:-1] + np.diff(Uk)
            w = 1 + int(np.searchsorted(own, b))  # Uk[w:] lie in the window
            peaks = pk.size - (w - 1)  # those of pk[w - 1:]
            if own.size and self.first[k] == math.inf:
                # a first-ever update peaks against the start state: it
                # has no peak, so it adds 0 to the sum and none to the count
                pk[0] = 0.0
                peaks -= w == 1
                self.first[k] = Uk[1]
            at = own[w - 1 :] - b  # window positions of its window deliveries
            acc.source_sums[:, k] += (Uk.size - w, Dk[w:].sum(), pk[w - 1 :].sum(), peaks)
            # its last update is Uk[w - 1] up to its first window delivery,
            # then each of those in turn: one run of points per update
            runs = np.diff(np.concatenate([[0], np.minimum(at + 1, n_rows), [n_rows]]))
            np.subtract(points[:n_rows], np.repeat(Uk[w - 1 :], runs), out=ages[k])
            ages[k] += np.repeat(Dk[w - 1 :], runs)
            if acc.cdf_grid is not None:
                # its age ramps from burn-in or its last update, whichever is
                # later, then from each window delivery, to its next delivery;
                # the last ramp stays open unless the path ends here
                start = max(Uk[w - 1], burn_in)
                edges = np.concatenate([[start], Uk[w:], [horizon] if blk.last else []])
                if edges.size > 1:
                    ramps = np.concatenate([[Dk[w - 1] + (start - Uk[w - 1])], Dk[w:]])
                    acc.add_ramps(k, ramps[: edges.size - 1], np.diff(edges))
            self.update[k], self.delay[k] = Uk[-1], Dk[-1]
        lengths = ends - points[:n_rows]
        for lo in range(0, n_rows, _SEGMENT_ROWS):
            hi = lo + _SEGMENT_ROWS
            acc.add_segments(ages[:, lo:hi].T, lengths[lo:hi])
        self.segment = points[-1]

    def counts(self) -> ReplicationCounts:
        arrivals, departures, pushouts = (int(v) for v in self.tally)
        return ReplicationCounts(
            arrivals=arrivals,
            departures=departures,
            pushouts=pushouts,
            # the newest packet, if it has not left by the horizon
            in_flight=arrivals - departures - pushouts,
        )


class _Trace:
    """A path's events as CSV rows (epoch, kind, source, value), written
    block by block in time order with arrivals first at equal epochs."""

    def __init__(self, fh):
        self.writer = csv.writer(fh)
        self.writer.writerow(["epoch", "kind", "source", "value"])
        # departures at the next block's first arrival epoch, which that
        # arrival precedes
        self.held = (np.empty(0), np.empty(0, dtype=np.int64), np.empty(0))

    def add(self, blk: _Block) -> None:
        epoch, src, delay = (
            np.concatenate(part) for part in zip(self.held, (blk.departure, blk.dep_source, blk.delay))
        )
        cut = epoch.size if blk.last else int(np.searchsorted(epoch, blk.following[-1], side="left"))
        self.held = (epoch[cut:], src[cut:], delay[cut:])
        arrivals = zip(blk.arrival.tolist(), repeat("arrival"), (blk.source + 1).tolist(), blk.service.tolist())
        departures = zip(epoch[:cut].tolist(), repeat("departure"), (src[:cut] + 1).tolist(), delay[:cut].tolist())
        for ev_epoch, kind, source, value in heapq.merge(arrivals, departures, key=lambda ev: ev[0]):
            self.writer.writerow([repr(ev_epoch), kind, source, repr(value)])


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
    The path is generated and reduced one block of arrivals at a time, so
    memory does not grow with the horizon.  A horizon at which float
    epochs are spaced more than _CLOCK_RESOLUTION of the mean interarrival
    time apart cannot resolve the path and raises ValueError.  When
    `trace_path` is given, every arrival (value = service requirement)
    and departure (value = delay) up to the horizon is written there as
    CSV rows (epoch, kind, source, value), block by block.
    """
    horizon = float(horizon)
    burn_in = float(burn_in)
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    if not (math.isfinite(burn_in) and 0 <= burn_in < horizon):
        raise ValueError(f"burn-in must satisfy 0 <= burn_in < horizon, got {burn_in}")
    if math.ulp(horizon) * spec.total_rate > _CLOCK_RESOLUTION:
        raise ValueError(
            f"horizon {horizon:g} is too long for total arrival rate {spec.total_rate:g}: epochs near it are "
            f"{math.ulp(horizon):.3g} apart, against a mean interarrival time of {1.0 / spec.total_rate:.3g}"
        )
    accumulator = PathAccumulator(s_grid=s_grid, num_sources=spec.num_sources, cdf_grid=cdf_grid)
    reduction = _Reduction(horizon, burn_in, accumulator)
    with contextlib.ExitStack() as stack:
        trace = None if trace_path is None else _Trace(stack.enter_context(open(trace_path, "w", newline="")))
        for blk in _path(spec, horizon, seed, rep_index):
            reduction.add(blk)
            if trace is not None:
                trace.add(blk)
    return ReplicationResult(
        spec=spec,
        seed=seed,
        rep_index=rep_index,
        accumulator=accumulator,
        counts=reduction.counts(),
        horizon=horizon,
        burn_in=burn_in,
        # no delivery up to burn-in: the start state until its first
        late_sources=tuple(int(k) for k in np.flatnonzero(reduction.first > burn_in)),
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


# every sum an estimate reads, by name: the accumulator's init=False fields
_SUMS = tuple(f.name for f in fields(PathAccumulator) if not f.init)


def _run_sums(results) -> tuple[PathAccumulator, PathAccumulator]:
    """The `_SUMS` of `results`, checked to be replications of one run (at
    least two, of one system, with one s-grid and one CDF grid or none),
    pooled over them by np.sum, and stacked along a last, replication
    axis: each set in a copy of the first replication's accumulator, which
    keeps the grids."""
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
    pooled, stacked = copy.copy(first.accumulator), copy.copy(first.accumulator)
    for name in _SUMS:
        if getattr(first.accumulator, name) is not None:  # no occupancy without a CDF grid
            per = np.stack([getattr(r.accumulator, name) for r in results], axis=-1)
            setattr(stacked, name, per)
            setattr(pooled, name, per.sum(axis=-1))
    return pooled, stacked


def _stderr(per):
    """The sample standard deviation of per-replication values, along their
    last axis, divided by the square root of their count."""
    return np.std(per, axis=-1, ddof=1) / math.sqrt(per.shape[-1])


def _estimate(sums, q, index) -> Estimate:
    """The one rule for every simulated row: report table entry `q`'s
    estimate at `index` from a run's `sums` (see `_run_sums`).  The value
    is q.estimate of the pooled sums; over the stacked sums it gives one
    value per replication, and the finite ones give the stderr by `_stderr`
    and the batch count.  A replication whose value is not finite lacks
    what q.lacks names, and the estimate is flagged."""
    pooled, stacked = sums
    with np.errstate(invalid="ignore", divide="ignore"):  # a ratio over a zero count is flagged below
        value = float(q.estimate(pooled, index))
        per = q.estimate(stacked, index)
    lacks = q.lacks.format(index + 1) if q.scope == "source" else q.lacks
    if not math.isfinite(value):
        return Estimate(math.nan, math.nan, per.size, flag=f"no {lacks}")
    finite = per[np.isfinite(per)]
    if finite.size < 2:
        return Estimate(value, math.nan, finite.size, flag=f"too few replications with {lacks} for a stderr")
    missing = per.size - finite.size
    flag = f"{missing} replications had no {lacks}" if missing else None
    return Estimate(value, float(_stderr(finite)), finite.size, flag)


def _quantities(results) -> dict[str, Estimate]:
    """The estimate of every row of the report table `analytics._QUANTITIES`
    that is not analytic-only, by label in table order, from replications
    of one run (see `_run_sums`): a joint-transform row per row of their
    s-grid, each by `_estimate`."""
    sums = _run_sums(results)
    rows = analytics._report_rows(analytics._QUANTITIES, sums[0].num_sources, sums[0].s_grid)
    return {q.label(i): _estimate(sums, q, i) for q, i in rows if q.estimate is not None}


def estimate_marginal_cdf(results, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Empirical P(A_k <= x) on the replications' CDF grid: the time below
    each level summed over replications, over their summed time."""
    pooled, _ = _run_sums(results)
    k = analytics._check_source_index(k, pooled.num_sources)
    if pooled.cdf_grid is None:
        raise ValueError("replications were run without a CDF grid")
    return pooled.cdf_grid.copy(), pooled.cdf_occupancy[k] / pooled.elapsed


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


# the pool that parallel runs reuse: None, or (pid of the process that
# made it, its worker count, the executor)
_pool = None


def _map_in_pool(workers: int, args) -> list[ReplicationResult]:
    """`_run_one` over `args` in this process's pool of `workers` workers.

    The pool is made on first use and kept for later calls.  One of
    another worker count is shut down before the new one forks, and one
    inherited through fork is dropped untouched, since its workers serve
    the process that made it.  Executor.map submits the whole call before
    it returns, so a pool that map finds broken broke before the call, and
    a new one runs it; one that breaks during the call is dropped and the
    error raised, so the next call makes a new one.  A broken pool is shut
    down without waiting, its queued work cancelled.
    """
    global _pool
    pid = os.getpid()
    if _pool is not None and _pool[:2] != (pid, workers):
        if _pool[0] == pid:
            _pool[2].shutdown()
        _pool = None
    if _pool is None:
        _pool = (pid, workers, ProcessPoolExecutor(max_workers=workers))
    try:
        try:
            results = _pool[2].map(_run_one, args)
        except BrokenProcessPool:
            _pool[2].shutdown(wait=False, cancel_futures=True)
            _pool = (pid, workers, ProcessPoolExecutor(max_workers=workers))
            results = _pool[2].map(_run_one, args)
        return list(results)
    except BrokenProcessPool:
        _pool[2].shutdown(wait=False, cancel_futures=True)
        _pool = None
        raise


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
    how many do.  The worker processes stay alive for later parallel runs
    of this process with the same count, and end when it exits.  Each
    replication runs in blocks of arrivals, so the memory of a run does
    not grow with the horizon, and every result is fixed-size, a worker's
    as a serial one's: `records` are built where they are read (see
    `ReplicationResult`).
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
        return _map_in_pool(workers, args)
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
    """Simulate and estimate, by `_quantities`, every row of the report
    table `analytics._QUANTITIES` that is not analytic-only (all but the
    age cv and covariance), by label in table order, at each row
    `analytics.s_rows` gives `s_grid`; replication 0 writes its event trace
    to `trace_path`, if any.

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
    s_grid = analytics.s_rows(spec, s_grid)
    results = run_replications(
        spec, horizon, burn_in, replications, seed, s_grid, workers=workers, trace_path=trace_path
    )

    quantities = _quantities(results)

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
