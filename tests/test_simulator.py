import csv
import dataclasses
import math
import os
import pickle
import signal
import time
import tracemalloc
import warnings
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aoistats.analytics import (
    SystemSpec,
    aoi_correlation,
    default_s_grid,
    departure_rate,
    joint_aoi_laplace,
    joint_laplace_label,
    marginal_aoi_moments,
    palm_means,
    pushout_rate,
    source_update_share,
)
from aoistats import analytics, simulator
from aoistats.servicedist import Deterministic, Exponential, Gamma, Mixture
from aoistats.simulator import (
    Estimate,
    PathAccumulator,
    _quantities,
    default_burn_in,
    estimate_marginal_cdf,
    replication_rng,
    run_replication,
    run_replications,
    simulate,
)
from palm_oracles import palm_from_records, warm_up_note
from segment_oracles import (
    AoISnapshot,
    add_segment,
    clip_occupancy,
    mask_thinned_replication,
    segment_integral_exponential,
    segment_integral_moments,
)

SYMMETRIC = SystemSpec(rates=(3.0, 3.0), services=(Exponential(6.0), Exponential(6.0)))
MIXED3 = SystemSpec(
    rates=(1.0, 2.0, 3.0),
    services=(Exponential(6.0), Gamma(2.0, 12.0), Deterministic(0.1)),
)
LATE = SystemSpec(rates=(3.0, 0.05), services=(Exponential(6.0), Exponential(6.0)))
Z_GATE = 3.0


@pytest.fixture(scope="module")
def symmetric_results():
    return run_replications(SYMMETRIC, 1e4, 100.0, 16, 7, default_s_grid(2))


@pytest.fixture(scope="module")
def mixed3_results():
    return run_replications(MIXED3, 1e4, 100.0, 16, 7, default_s_grid(3))


def zscore(est: Estimate, truth: float) -> float:
    return (est.value - truth) / est.stderr


# --- random streams ----------------------------------------------------------


def test_replication_rng_reproducible_and_role_separated():
    a = replication_rng(123, 0, 0).random(5)
    b = replication_rng(123, 0, 0).random(5)
    assert np.array_equal(a, b)
    c = replication_rng(123, 0, 1).random(5)
    d = replication_rng(123, 1, 0).random(5)
    e = replication_rng(124, 0, 0).random(5)
    for other in (c, d, e):
        assert not np.array_equal(a, other)
    with pytest.raises(ValueError):
        replication_rng(1, -1, 0)


@pytest.mark.parametrize(
    "seed, rep_index, bound",
    [(-1, 0, "seed"), (2**64, 0, "seed"), (0, -1, "replication index"), (0, 2**56, "replication index")],
)
def test_replication_rng_rejects_keys_that_alias(seed, rep_index, bound):
    # masked to 64 bits, each of these keys would equal one inside the range
    with pytest.raises(ValueError, match=f"{bound} must lie in"):
        replication_rng(seed, rep_index, 2)


def test_replication_rng_keys_the_extreme_values_apart():
    draws = {
        key: tuple(replication_rng(*key, 2).random(3))
        for key in [(0, 0), (2**64 - 1, 0), (0, 2**56 - 1), (2**64 - 1, 2**56 - 1)]
    }
    assert len(set(draws.values())) == 4


def test_default_burn_in_and_grid():
    # slowest update rate of the symmetric anchor system is 1.5/s, but the
    # arrival-count floor is the binding term at total rate 6
    assert default_burn_in(SYMMETRIC) == pytest.approx(max(100.0 / 1.5, 1000.0 / 6.0))
    grid = default_s_grid(3)
    assert len(grid) >= 5
    assert grid[0] == (0.0, 0.0, 0.0)
    assert all(len(row) == 3 for row in grid)
    assert len(set(grid)) == len(grid)
    # for K=3 the staggered row duplicates nothing
    assert (0.5, 1.0, 2.0) in grid


# --- exact segment integrals -------------------------------------------------


def test_segment_integral_exponential_anchor():
    snap = AoISnapshot(np.zeros(2), np.zeros(2))
    # zero starting ages, s = (1, 1), length ln 2: (1 - 1/4) / 2
    got = segment_integral_exponential(snap, 0.0, math.log(2.0), (1.0, 1.0))
    assert got == pytest.approx(0.375, rel=1e-15)
    # s = 0 degenerates to the segment length
    assert segment_integral_exponential(snap, 0.0, 2.5, (0.0, 0.0)) == 2.5


def test_segment_integral_moments_anchor():
    snap = AoISnapshot(np.array([0.0, 0.0]), np.array([1.0, 2.0]))
    age, age_sq, cross = segment_integral_moments(snap, 0.0, 1.0)
    assert age == pytest.approx([1.5, 2.5], rel=1e-15)
    assert age_sq == pytest.approx([7.0 / 3.0, 19.0 / 3.0], rel=1e-15)
    assert cross[0, 1] == pytest.approx(23.0 / 6.0, rel=1e-15)
    assert cross[1, 0] == cross[0, 1]
    assert cross[0, 0] == age_sq[0]


def test_segment_integrals_are_additive():
    snap = AoISnapshot(np.array([-1.0, 0.5]), np.array([0.3, 0.0]))
    s = (0.7, 1.3)
    whole = segment_integral_exponential(snap, 1.0, 3.0, s)
    parts = segment_integral_exponential(snap, 1.0, 1.7, s) + segment_integral_exponential(
        snap, 1.7, 3.0, s
    )
    assert whole == pytest.approx(parts, rel=1e-13)
    w = segment_integral_moments(snap, 1.0, 3.0)
    p1 = segment_integral_moments(snap, 1.0, 1.7)
    p2 = segment_integral_moments(snap, 1.7, 3.0)
    for a, b, c in zip(w, p1, p2):
        assert a == pytest.approx(b + c, rel=1e-13)


def test_segment_integral_validation():
    snap = AoISnapshot(np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError):
        segment_integral_exponential(snap, 1.0, 1.0, (1.0, 1.0))
    with pytest.raises(ValueError):
        segment_integral_exponential(snap, 0.0, 1.0, (1.0,))
    with pytest.raises(ValueError):
        segment_integral_exponential(snap, 0.0, 1.0, (1.0, -1.0))


# --- path accumulator --------------------------------------------------------


def random_path(rng, n, K):
    ages = rng.uniform(0.0, 3.0, (n, K))
    lengths = rng.uniform(0.01, 0.8, n)
    return ages, lengths


def test_bulk_accumulation_matches_scalar():
    rng = np.random.default_rng(11)
    grid = ((0.0, 0.0, 0.0), (0.5, 1.0, 2.0), (1.0, 1.0, 1.0))
    cdf_grid = np.linspace(0.1, 3.0, 7)
    ages, lengths = random_path(rng, 200, 3)
    bulk = PathAccumulator(s_grid=grid, num_sources=3, cdf_grid=cdf_grid)
    bulk.add_segments(ages, lengths)
    for k in range(3):  # any age ranges are a valid set of ramps
        bulk.add_ramps(k, ages[:, k], lengths)
    scalar = PathAccumulator(s_grid=grid, num_sources=3, cdf_grid=cdf_grid)
    t = 0.0
    for a, L in zip(ages, lengths):
        snap = AoISnapshot(np.full(3, t), a)  # ages a at time t
        add_segment(scalar, snap, t, t + L)
        t += L
    assert bulk.exp_integrals == pytest.approx(scalar.exp_integrals, rel=1e-12)
    assert bulk.age_integrals == pytest.approx(scalar.age_integrals, rel=1e-12)
    assert bulk.cross_integrals == pytest.approx(scalar.cross_integrals, rel=1e-12)
    assert bulk.cdf_occupancy == pytest.approx(scalar.cdf_occupancy, rel=1e-12)
    assert bulk.elapsed == pytest.approx(scalar.elapsed, rel=1e-12)


def test_accumulator_layout_checks():
    acc = PathAccumulator(s_grid=((1.0, 1.0),), num_sources=2)
    assert acc.elapsed == 0.0
    with pytest.raises(TypeError, match="elapsed"):
        PathAccumulator(s_grid=(), num_sources=2, elapsed=1.0)
    with pytest.raises(ValueError):
        PathAccumulator(s_grid=((1.0,),), num_sources=2)
    with pytest.raises(ValueError):
        PathAccumulator(s_grid=((-1.0, 0.0),), num_sources=2)
    with pytest.raises(ValueError):
        acc.add_segments(np.zeros((3, 1)), np.ones(3))
    with pytest.raises(ValueError):
        acc.add_segments(np.zeros((3, 2)), np.ones(4))
    with pytest.raises(ValueError, match="no CDF grid"):
        acc.add_ramps(0, np.zeros(3), np.ones(3))
    acc = PathAccumulator(s_grid=(), num_sources=2, cdf_grid=[0.5, 1.0])
    with pytest.raises(IndexError):
        acc.add_ramps(2, np.zeros(3), np.ones(3))
    # a bool index would select every source's row
    for bad in (True, 0.5):
        with pytest.raises(TypeError):
            acc.add_ramps(bad, np.zeros(3), np.ones(3))
    assert not acc.cdf_occupancy.any()
    with pytest.raises(ValueError):
        acc.add_ramps(0, np.zeros(3), np.ones(4))
    with pytest.raises(ValueError):
        acc.add_ramps(0, np.zeros((3, 1)), np.ones((3, 1)))
    with pytest.raises(ValueError):
        acc.add_ramps(0, np.zeros(3), np.array([1.0, -1.0, 1.0]))
    for bad in ([], [[0.5, 1.0]], [0.5, np.nan], [np.inf], [0.5, -np.inf], [-1e308, 1e308]):
        with pytest.raises(ValueError, match="CDF grid"):
            PathAccumulator(s_grid=(), num_sources=2, cdf_grid=bad)
    # a span just inside the float range is kept
    wide = PathAccumulator(s_grid=(), num_sources=1, cdf_grid=[0.5, 1e308])
    wide.add_ramps(0, np.array([0.0]), np.array([1.0]))
    assert np.array_equal(wide.cdf_occupancy, [[0.5, 1.0]])
    # a non-finite value is rejected before anything is added
    for starts, lengths in (
        ([0.1, np.nan], [0.9, np.nan]),
        ([0.1, np.nan], [0.9, 0.5]),
        ([0.1, 0.2], [0.9, np.nan]),
        ([0.1, -np.inf], [0.9, 0.5]),
        ([0.1, 0.2], [0.9, np.inf]),
    ):
        with pytest.raises(ValueError, match="finite"):
            acc.add_ramps(0, np.array(starts), np.array(lengths))
    assert not acc.cdf_occupancy.any()
    acc = PathAccumulator(s_grid=((1.0, 1.0),), num_sources=2)
    for ages, lengths in (
        ([[0.1, 0.2], [0.3, 0.4]], [1.0, np.nan]),
        ([[0.1, np.nan], [0.3, 0.4]], [1.0, 1.0]),
        ([[0.1, 0.2], [np.inf, 0.4]], [1.0, 1.0]),
        ([[0.1, 0.2], [0.3, 0.4]], [np.inf, 1.0]),
    ):
        with pytest.raises(ValueError, match="finite"):
            acc.add_segments(np.array(ages), np.array(lengths))
    assert acc.elapsed == 0.0 and not acc.exp_integrals.any() and not acc.cross_integrals.any()


def test_sorted_grid_is_built_once_per_accumulator(monkeypatch):
    built = []

    class Counted(simulator._SortedGrid):
        def __init__(self, grid):
            built.append(grid.size)
            super().__init__(grid)

    monkeypatch.setattr(simulator, "_SortedGrid", Counted)
    spec = SystemSpec(rates=(2.0, 1.0), services=(Exponential(4.0), Deterministic(0.2)))
    r = run_replication(spec, 3e4, 10.0, 5, 0, (), cdf_grid=np.linspace(0.05, 3.0, 20))
    assert r.counts.arrivals > 2 * simulator._BLOCK  # three blocks, each adding ramps of both sources
    assert built == [20]


def test_pickled_accumulator_rebuilds_its_sorted_grid():
    starts, lengths = np.array([0.1, 0.3]), np.array([1.0, 0.4])
    acc = PathAccumulator(s_grid=(), num_sources=1, cdf_grid=[1.0, 0.25, 0.5])
    acc.add_ramps(0, starts, lengths)
    copy = pickle.loads(pickle.dumps(acc))
    for a in (acc, copy):
        a.add_ramps(0, starts, lengths)
    assert np.array_equal(copy.cdf_occupancy, acc.cdf_occupancy)
    # no bucket table goes between processes: 5,362 B is what this
    # accumulator pickled to while it held one and dropped it on pickling
    wide = PathAccumulator(s_grid=(), num_sources=2, cdf_grid=np.linspace(0.05, 10.0, 200))
    assert len(pickle.dumps(wide)) <= 5362


# levels that are exact in binary, so that segment starts, ends and grid
# points coincide exactly
_LEVELS = (0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0)


@st.composite
def occupancy_cases(draw):
    """Segments (ages (n, K), lengths (n,)) and an unsorted CDF grid.

    Lengths are 0 or at least 1e-2: below about 1e-4 of the ages, the
    rounding of a + L alone moves a segment's share by more than 1e-12 of
    it, in the clip oracle too.
    """
    K = draw(st.integers(1, 3))
    n = draw(st.integers(0, 12))
    level = st.sampled_from(_LEVELS)
    age = st.one_of(level, st.floats(0.0, 4.0))
    length = st.one_of(st.sampled_from((0.0, 0.25, 0.5, 1.0)), st.floats(1e-2, 2.0))
    ages = np.array(draw(st.lists(age, min_size=n * K, max_size=n * K))).reshape(n, K)
    lengths = np.array(draw(st.lists(length, min_size=n, max_size=n)), dtype=float)
    # grid points below every age, above every end, and on starts and ends
    seen = list(_LEVELS) + ages.ravel().tolist() + (ages + lengths[:, None]).ravel().tolist()
    point = st.one_of(st.sampled_from(seen), st.floats(-1.0, 7.0))
    grid = np.array(draw(st.lists(point, min_size=1, max_size=10)))
    return ages, lengths, grid


@given(occupancy_cases())
@example((np.array([[0.5], [1.0], [1.0]]), np.array([0.0, 0.5, 0.0]), np.array([1.5, 0.5, 1.0, 1.0, -1.0])))
@example((np.array([[2.0, 0.25], [0.5, 3.0]]), np.array([1.0, 0.25]), np.array([0.1, 6.0, 0.2])))
@example((np.zeros((0, 3)), np.zeros(0), np.array([1.0, 0.0])))
@example((np.array([[1.0]]), np.array([1e-17]), np.array([2.0, 1.0])))  # 1.0 + 1e-17 == 1.0
# one range ends in the cell it starts in, the other spans a level from that cell
@example((np.array([[0.25], [0.5]]), np.array([0.5, 1.0]), np.array([2.0, 1.0])))
@example((np.array([[1.0], [0.5]]), np.array([0.5, 1.0]), np.array([2.0, 0.5, 1.0])))  # starts on levels
@example((np.array([[0.25], [0.75]]), np.array([0.75, 0.25]), np.array([1.0, 0.5, 2.0])))  # ends on levels
@example((np.array([[1.0], [0.5]]), np.array([0.0, 0.0]), np.array([0.5, 1.0, 2.0])))  # zero lengths on levels
def test_occupancy_matches_clip_sum(case):
    ages, lengths, grid = case
    acc = PathAccumulator(s_grid=(), num_sources=ages.shape[1], cdf_grid=grid)
    for k in range(ages.shape[1]):  # any age ranges are a valid set of ramps
        acc.add_ramps(k, ages[:, k], lengths)
    occ = acc.cdf_occupancy
    # relative only: a level no segment reaches must read exactly 0
    np.testing.assert_allclose(occ, clip_occupancy(grid, ages, lengths), rtol=1e-12, atol=0.0)
    assert np.all(occ >= 0.0)
    assert np.all(np.diff(occ[:, np.argsort(grid)], axis=1) >= 0.0)


_TINY = 5e-324  # the smallest subnormal


@st.composite
def sorted_grid_cases(draw, bound=None):
    """A CDF grid of one of several kinds, and keys to place on it: its
    levels, one ulp either side of each, values below and above it, and
    any floats (±inf included unless `bound` caps the magnitudes)."""
    value = st.floats(-bound, bound) if bound else st.floats(allow_nan=False, allow_infinity=False)
    kind = draw(st.sampled_from(("random", "single", "repeated", "subnormal", "zero")))
    if kind == "random":
        levels = draw(st.lists(value, min_size=1, max_size=30))
    elif kind == "single":
        levels = [draw(value)]
    elif kind == "repeated":
        levels = draw(st.lists(value, min_size=1, max_size=4)) * draw(st.integers(2, 4))
    elif kind == "subnormal":
        base = draw(st.sampled_from((0.0, -2 * _TINY)))
        levels = [base + _TINY * i for i in range(draw(st.integers(1, 4)))]
    else:
        levels = draw(st.lists(value, max_size=10)) + [0.0]
    grid = np.array(draw(st.permutations(levels)), dtype=float)
    lo, hi = grid.min(), grid.max()
    with np.errstate(over="ignore"):
        near = np.concatenate([grid, np.nextafter(grid, -np.inf), np.nextafter(grid, np.inf)])
        outside = [lo - 1.0, lo - abs(lo), hi + 1.0, hi + abs(hi)]
    extra = draw(st.lists(value, max_size=10))
    keys = np.concatenate([near, outside, extra] + ([] if bound else [[-np.inf, np.inf]]))
    return grid, keys


@given(sorted_grid_cases())
@settings(max_examples=300)
@example((np.array([0.0, _TINY]), np.array([-np.inf, 0.0, _TINY, 2 * _TINY, np.inf])))
@example((np.array([-1e308, 1e308]), np.array([-np.inf, -1e308, 0.0, 1e308, np.inf])))
@example((np.array([2.0, 2.0, 1.0, 1.0]), np.array([1.0, 1.5, 2.0, 3.0])))
def test_sorted_grid_search_is_searchsorted(case):
    grid, keys = case
    sg = simulator._SortedGrid(grid)
    assert np.array_equal(sg.xs, np.sort(grid))
    for side in ("left", "right"):
        want = np.searchsorted(sg.xs, keys, side=side)
        got = sg.searchsorted(keys, side=side)
        assert got.dtype == want.dtype and np.array_equal(got, want), side


@given(sorted_grid_cases(bound=8.0), st.data())
@settings(max_examples=150)
def test_occupancy_on_degenerate_grids_matches_clip_sum(case, data):
    grid, keys = case
    keys = keys[np.abs(keys) <= 8.0]  # ramps start at finite ages
    lengths = np.array(
        data.draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-2, 4.0)), min_size=keys.size, max_size=keys.size))
    )
    acc = PathAccumulator(s_grid=(), num_sources=1, cdf_grid=grid)
    acc.add_ramps(0, keys, lengths)
    want = clip_occupancy(grid, keys[:, None], lengths)
    np.testing.assert_allclose(acc.cdf_occupancy, want, rtol=1e-12, atol=0.0)


# --- single replication ------------------------------------------------------


def test_replication_is_deterministic(tmp_path):
    kw = dict(s_grid=default_s_grid(2), cdf_grid=np.linspace(0.1, 2.0, 5))
    r1 = run_replication(SYMMETRIC, 2e3, 50.0, 99, 0, **kw)
    r2 = run_replication(SYMMETRIC, 2e3, 50.0, 99, 0, **kw)
    assert np.array_equal(r1.accumulator.exp_integrals, r2.accumulator.exp_integrals)
    assert np.array_equal(r1.accumulator.cdf_occupancy, r2.accumulator.cdf_occupancy)
    assert np.array_equal(r1.records.epoch, r2.records.epoch)
    assert np.array_equal(r1.records.peak, r2.records.peak, equal_nan=True)
    assert r1.counts == r2.counts
    # a different replication index gives a different path
    r3 = run_replication(SYMMETRIC, 2e3, 50.0, 99, 1, **kw)
    assert not np.array_equal(r1.records.epoch, r3.records.epoch)


def test_trace_rerun_is_byte_identical(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run_replication(SYMMETRIC, 500.0, 10.0, 4, 0, default_s_grid(2), trace_path=p1)
    run_replication(SYMMETRIC, 500.0, 10.0, 4, 0, default_s_grid(2), trace_path=p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_counts_conserve_packets():
    for seed in (0, 1, 2):
        for spec in (SYMMETRIC, MIXED3):
            r = run_replication(spec, 3e3, 100.0, seed, 0, ())
            c = r.counts
            assert c.arrivals == c.departures + c.pushouts + c.in_flight
            assert c.in_flight in (0, 1)
            # window tallies can only disagree through boundary packets
            assert abs(c.window_arrivals - c.window_departures - c.window_pushouts) <= 2
            assert r.window_span == pytest.approx(2.9e3)


def assert_same_replication(got, want):
    assert got.counts == want.counts
    assert got.late_sources == want.late_sources
    assert np.array_equal(got.source_sums, want.source_sums, equal_nan=True)
    for name in ("epoch", "source", "delay", "peak", "gap", "covered"):
        a, b = getattr(got.records, name), getattr(want.records, name)
        assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True), name
    acc, ref = got.accumulator, want.accumulator
    assert acc.elapsed == ref.elapsed
    for name in ("exp_integrals", "age_integrals", "cross_integrals"):
        assert np.array_equal(getattr(acc, name), getattr(ref, name), equal_nan=True), name
    assert (acc.cdf_occupancy is None) == (ref.cdf_occupancy is None)
    if acc.cdf_occupancy is not None:
        assert np.array_equal(acc.cdf_occupancy, ref.cdf_occupancy, equal_nan=True)


_pure_services = st.one_of(
    st.builds(Exponential, st.floats(0.5, 20.0)),
    st.builds(Gamma, st.floats(0.5, 4.0), st.floats(1.0, 20.0)),
    st.builds(Deterministic, st.sampled_from((0.0, 0.05, 0.1, 0.3, 1.0))),
)
_services = st.one_of(
    _pure_services,
    st.builds(
        lambda w, a, b: Mixture((w, 1.0 - w), (a, b)), st.floats(0.1, 0.9), _pure_services, _pure_services
    ),
)


@st.composite
def thinning_cases(draw):
    K = draw(st.integers(1, 5))
    spec = SystemSpec(
        rates=tuple(draw(st.lists(st.floats(0.1, 5.0), min_size=K, max_size=K))),
        services=tuple(draw(st.lists(_services, min_size=K, max_size=K))),
    )
    horizon = draw(st.floats(0.5, 100.0))
    burn_in = draw(st.sampled_from((0.0, 0.1, 0.5, 0.9))) * horizon
    s_grid = ((0.0,) * K, tuple(draw(st.lists(st.floats(0.0, 2.0), min_size=K, max_size=K))))
    cdf_grid = draw(st.sampled_from((None, (0.0, 0.05, 0.3, 1.0, 2.5))))
    return spec, horizon, burn_in, draw(st.integers(0, 2**32)), s_grid, cdf_grid


@given(thinning_cases())
@settings(max_examples=80, deadline=None)
def test_thinning_matches_mask_oracle(case):
    spec, horizon, burn_in, seed, s_grid, cdf_grid = case
    args = (spec, horizon, burn_in, seed, 0, s_grid, cdf_grid)
    assert_same_replication(run_replication(*args), mask_thinned_replication(*args))


NEVER_DELIVERS = SystemSpec(rates=(3.0, 1.0), services=(Exponential(6.0), Deterministic(50.0)))
RARE = SystemSpec(rates=(3.0, 0.5), services=(Exponential(6.0), Exponential(6.0)))


@pytest.mark.parametrize(
    "spec,horizon,burn_in,seed,holds",
    [
        # no arrival before the horizon
        (SYMMETRIC, 1e-4, 0.0, 0, lambda r: r.counts.arrivals == 0),
        (MIXED3, 50.0, 0.0, 1, lambda r: r.burn_in == 0.0 and r.counts.window_departures > 0),
        # the last arrival is pushed out by the first one past the horizon
        (MIXED3, 20.0, 5.0, 2, lambda r: r.counts.in_flight == 1 and np.isnan(r.records.gap[-1])),
        # the last arrival is still in service at the horizon and departs after it
        (MIXED3, "in service", 5.0, 3, lambda r: r.counts.in_flight == 1 and np.isfinite(r.records.gap[-1])),
        (NEVER_DELIVERS, 100.0, 10.0, 3, lambda r: r.late_sources == (1,) and r.source_sums[0, 1] == 0),
        # source 2 delivers before burn-in but not after it
        (RARE, 12.0, 10.0, 3, lambda r: r.late_sources == () and r.source_sums[0, 1] == 0),
        # source 2's first and only delivery is the last departure up to the horizon
        (RARE, 12.0, 10.0, 0, lambda r: r.source_sums[0, 1] == 1 and r.records.source[-1] == 1),
    ],
    ids=[
        "no-arrival",
        "no-burn-in",
        "last-pushed-out",
        "last-in-flight",
        "never-delivers",
        "no-window-delivery",
        "only-the-last-departure",
    ],
)
def test_thinning_edge_cases_match_mask_oracle(spec, horizon, burn_in, seed, holds):
    if horizon == "in service":
        # a shorter horizon replays a prefix of the same draws, so a horizon
        # inside the service of a packet that departs makes it the last
        # arrival, still in service at the horizon
        rec = run_replication(spec, 20.0, burn_in, seed).records
        served = np.flatnonzero(rec.delay > 0)[-1]
        horizon = float(rec.epoch[served] - rec.delay[served] / 2)
    args = (spec, horizon, burn_in, seed, 0, default_s_grid(spec.num_sources), np.linspace(0.0, 3.0, 7))
    got = run_replication(*args)
    assert holds(got)
    assert_same_replication(got, mask_thinned_replication(*args))


def test_thinning_ties_at_burn_in_and_horizon():
    # with one source a shorter horizon replays a prefix of the same draws,
    # so a rerun can put burn-in and the horizon exactly on departures
    spec = SystemSpec(rates=(3.0,), services=(Exponential(6.0),))
    epochs = run_replication(spec, 50.0, 0.0, 4).records.epoch
    burn_in, horizon = epochs[10], epochs[-10]
    args = (spec, horizon, burn_in, 4, 0, default_s_grid(1), np.linspace(0.0, 3.0, 7))
    got = run_replication(*args)
    assert np.array_equal(got.records.epoch, epochs[11:-9])
    assert_same_replication(got, mask_thinned_replication(*args))


# one source of each service family
FAMILIES = SystemSpec(
    rates=(1.5, 1.0, 0.8, 0.7),
    services=(
        Exponential(6.0),
        Gamma(2.0, 12.0),
        Deterministic(0.15),
        Mixture((0.5, 0.5), (Exponential(10.0), Deterministic(0.1))),
    ),
)


@pytest.mark.parametrize("block", [2, 7, 64, 1000, 10**6])
@pytest.mark.parametrize("burn_in", ["inside", "at the edge"])
@pytest.mark.parametrize("cdf_grid", [None, np.linspace(0.0, 3.0, 7)], ids=["no-grid", "grid"])
def test_results_do_not_depend_on_the_block_size(block, burn_in, cdf_grid, monkeypatch, tmp_path):
    horizon, seed = 400.0, 21
    (whole,) = simulator._path(FAMILIES, horizon, seed, 0)  # one block at the default size
    arrivals = whole.arrival
    assert 1000 < arrivals.size < simulator._BLOCK
    # burn-in at the last arrival of the block edge nearest the middle of
    # the path, or of the only block
    edge = max(1, arrivals.size // 2 // block) * block
    burn_in = arrivals[min(edge, arrivals.size) - 1] if burn_in == "at the edge" else 37.3
    args = (FAMILIES, horizon, burn_in, seed, 0, default_s_grid(4), cdf_grid)
    want = run_replication(*args, trace_path=tmp_path / "whole.csv")
    monkeypatch.setattr(simulator, "_BLOCK", block)
    monkeypatch.setattr(simulator, "_SEGMENT_ROWS", max(1, block // 3))
    got = run_replication(*args, trace_path=tmp_path / "blocks.csv")
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()
    assert got.counts == want.counts and got.late_sources == want.late_sources
    for name in ("epoch", "source", "delay", "peak", "gap", "covered"):
        a, b = getattr(got.records, name), getattr(want.records, name)
        assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True), name
    np.testing.assert_allclose(got.source_sums, want.source_sums, rtol=1e-12, atol=0.0)
    acc, ref = got.accumulator, want.accumulator
    assert acc.elapsed == pytest.approx(ref.elapsed, rel=1e-12, abs=0.0)
    for name in ("exp_integrals", "age_integrals", "cross_integrals", "cdf_occupancy"):
        if getattr(ref, name) is None:
            assert getattr(acc, name) is None
        else:
            np.testing.assert_allclose(getattr(acc, name), getattr(ref, name), rtol=1e-12, atol=0.0, err_msg=name)


@pytest.mark.parametrize("K", [2, 3, 8, 16])
def test_grouped_and_scanned_sources_give_the_same_replication(K, monkeypatch, tmp_path):
    # the last source is rare, so it misses some blocks of 64 arrivals
    families = (Exponential(6.0), Mixture((0.5, 0.5), (Exponential(10.0), Deterministic(0.1))), Gamma(2.0, 12.0))
    rates = tuple(3.0 * 0.75**k for k in range(K - 1)) + (0.05,)
    spec = SystemSpec(rates=rates, services=tuple(families[k % 3] for k in range(K)))
    monkeypatch.setattr(simulator, "_BLOCK", 64)
    monkeypatch.setattr(simulator, "_SEGMENT_ROWS", 21)
    horizon, seed = 150.0, 5
    blocks = list(simulator._path(spec, horizon, seed, 0))
    assert len(blocks) > 3
    assert any((np.bincount(blk.source, minlength=K) == 0).any() for blk in blocks)
    args = (spec, horizon, 7.3, seed, 0, default_s_grid(K), np.linspace(0.0, 3.0, 7))
    runs, traces = [], []
    for grouped in (False, True):
        monkeypatch.setattr(simulator, "_GROUP_SOURCES", K if grouped else K + 1)
        trace = tmp_path / f"grouped-{grouped}.csv"
        run = run_replication(*args, trace_path=trace)
        run.records  # built from the path while this split is in force
        runs.append(run)
        traces.append(trace.read_bytes())
    assert_same_replication(*runs)
    assert traces[0] == traces[1]


@pytest.mark.parametrize("K", [1, 2, 8, 300])  # 300 codes need 16 bits
@pytest.mark.parametrize("n", [0, 1, 1000])
def test_sources_split_as_one_scan_each(K, n, monkeypatch):
    src = np.random.default_rng(K + n).integers(0, K, n)
    src[: n // 2] = K - 1  # and some sources have no position
    want = [np.flatnonzero(src == k) for k in range(K)]
    for threshold in (K, K + 1):
        monkeypatch.setattr(simulator, "_GROUP_SOURCES", threshold)
        got = simulator._by_source(src, K)
        assert len(got) == K
        assert all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("burn_in", [5.0, 10.0], ids=["first-in-window", "first-before-burn-in"])
def test_first_delivery_in_a_later_block_has_no_peak(burn_in, monkeypatch):
    # seed 1 first delivers from the rare source at about 9.1, in the
    # second block of 16 arrivals, and delivers from it a few times more
    spec = SystemSpec(rates=(3.0, 0.1), services=(Exponential(6.0), Exponential(6.0)))
    monkeypatch.setattr(simulator, "_BLOCK", 16)
    args = (spec, 40.0, burn_in, 1)
    delivers = [(blk.dep_source == 1).any() for blk in simulator._path(spec, 40.0, 1, 0)]
    assert delivers.index(True) > 0 and 2 <= sum(delivers)
    got, want = run_replication(*args), mask_thinned_replication(*args)
    assert (1 in got.late_sources) == (burn_in == 5.0)
    assert got.late_sources == want.late_sources
    # fewer than 8 terms: both sums add them one by one in the same order
    assert np.array_equal(got.source_sums[:, 1], want.source_sums[:, 1])
    # a first-ever delivery in the window is the one without a peak
    deliveries, peaks = got.source_sums[[0, 3], 1]
    assert deliveries >= 2 and peaks == deliveries - (burn_in == 5.0)


def test_peak_memory_does_not_grow_with_the_horizon():
    # a full block of arrivals by the shorter horizon, a hundred by the longer
    rate = 0.55 * simulator._BLOCK / 1e4
    spec = SystemSpec(rates=(rate, rate), services=(Exponential(6.0), Exponential(6.0)))
    peaks = []
    for horizon in (1e4, 1e6):
        tracemalloc.start()
        try:
            run_replication(spec, horizon, 10.0, 1, 0, ((1.0, 1.0),))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0]


def test_horizon_the_clock_cannot_resolve_is_rejected():
    # float epochs near 1e12 are 1.2e-4 apart, against a mean gap of 1/6
    with pytest.raises(ValueError, match="horizon 1e\\+12 is too long for total arrival rate 6"):
        run_replication(SYMMETRIC, 1e12, 10.0, 1)
    # near 1e8 they are 1.5e-8 apart: a long run, but a resolved one
    assert math.ulp(1e8) * SYMMETRIC.total_rate <= simulator._CLOCK_RESOLUTION


def test_zero_service_never_gets_pushed_out():
    spec = SystemSpec(rates=(2.0, 2.0), services=(Deterministic(0.0), Deterministic(0.0)))
    r = run_replication(spec, 1e3, 10.0, 5, 0, ())
    assert r.counts.pushouts == 0
    assert r.counts.in_flight == 0
    assert r.counts.departures == r.counts.arrivals
    assert np.all(r.records.delay == 0.0)


def test_trace_replay_matches_accumulator(tmp_path):
    # the accumulator must agree exactly with a naive replay of the trace
    trace = tmp_path / "trace.csv"
    s = (0.5, 1.0, 2.0)
    horizon, burn = 2e3, 40.0
    rep = run_replication(MIXED3, horizon, burn, 13, 0, (s,), trace_path=trace)

    deps = []
    arrivals = {k: [] for k in range(3)}
    with open(trace) as fh:
        for row in csv.DictReader(fh):
            k = int(row["source"]) - 1
            if row["kind"] == "departure":
                deps.append((float(row["epoch"]), k, float(row["value"])))
            else:
                arrivals[k].append((float(row["epoch"]), float(row["value"])))
    deps.sort()
    # each delivered packet left exactly one service time after an arrival
    # of the same source, and its delay equals that service time; the
    # subtraction epoch - delay can lose an ulp, so match the epoch loosely
    # and the service time exactly
    import bisect

    for epoch, k, delay in deps:
        epochs = [a[0] for a in arrivals[k]]
        i = bisect.bisect_left(epochs, epoch - delay)
        near = [arrivals[k][j] for j in (i - 1, i, i + 1) if 0 <= j < len(epochs)]
        assert any(
            abs(a - (epoch - delay)) < 1e-9 * max(1.0, epoch) and svc == delay
            for a, svc in near
        )
    assert all(b[0] > a[0] for a, b in zip(deps, deps[1:]))

    svec = np.asarray(s)
    sbar = svec.sum()
    E = np.zeros(3)
    D = np.zeros(3)
    acc = 0.0
    t_prev = 0.0
    for epoch, k, delay in [d for d in deps if d[0] <= horizon] + [(horizon, None, None)]:
        t0, t1 = max(t_prev, burn), min(epoch, horizon)
        if t1 > t0:
            ages0 = D + (t0 - E)
            acc += math.exp(-float(svec @ ages0)) * (-math.expm1(-sbar * (t1 - t0))) / sbar
        if k is not None:
            E[k], D[k] = epoch, delay
        t_prev = epoch
    assert rep.accumulator.exp_integrals[0] == pytest.approx(acc, rel=1e-12)


@pytest.mark.parametrize(
    "spec, horizon, burn, seed",
    [
        (MIXED3, 2e3, 0.0, 13),
        (MIXED3, 2e3, 40.0, 13),
        (LATE, 40.0, 20.0, 8),  # source 2 never delivers
    ],
)
def test_trace_replay_matches_occupancy(spec, horizon, burn, seed, tmp_path):
    # the occupancy must agree with the clip sum over the segment table a
    # naive replay of the trace gives: ages at burn-in and after each
    # window departure, held until the next departure or the horizon
    trace = tmp_path / "trace.csv"
    # unsorted, with a level below every delay and one on MIXED3's det(0.1) delay
    grid = np.array([1.0, 0.1, 0.0, 0.3, 0.05, 2.5, 12.0, 25.0])
    rep = run_replication(spec, horizon, burn, seed, 0, (), cdf_grid=grid, trace_path=trace)
    with open(trace) as fh:
        deps = [
            (float(row["epoch"]), int(row["source"]) - 1, float(row["value"]))
            for row in csv.DictReader(fh)
            if row["kind"] == "departure"
        ]
    assert min(d[2] for d in deps) > 0.0
    K = spec.num_sources
    E = np.zeros(K)
    D = np.zeros(K)
    ages, lengths = [], []
    t_prev = 0.0
    for epoch, k, delay in deps + [(horizon, None, None)]:
        t0, t1 = max(t_prev, burn), min(epoch, horizon)
        if t1 > t0:
            ages.append(D + (t0 - E))
            lengths.append(t1 - t0)
        if k is not None:
            E[k], D[k] = epoch, delay
        t_prev = epoch
    if spec is LATE:
        assert rep.late_sources == (1,) and not any(d[1] == 1 for d in deps)
    want = clip_occupancy(grid, np.array(ages), np.array(lengths))
    np.testing.assert_allclose(rep.accumulator.cdf_occupancy, want, rtol=1e-12, atol=0.0)


def test_peak_identity_from_trace(tmp_path):
    # peak at a delivery = previous delay + time since the previous delivery
    # of the same source; the first-ever delivery has no true peak
    trace = tmp_path / "trace.csv"
    rep = run_replication(SYMMETRIC, 500.0, 20.0, 8, 0, (), trace_path=trace)
    deps = []
    with open(trace) as fh:
        for row in csv.DictReader(fh):
            if row["kind"] == "departure":
                deps.append((float(row["epoch"]), int(row["source"]) - 1, float(row["value"])))
    deps.sort()
    expected = {}
    last = {}
    for epoch, k, delay in deps:
        if k in last:
            prev_epoch, prev_delay = last[k]
            expected[epoch] = prev_delay + (epoch - prev_epoch)
        last[k] = (epoch, delay)
    rec = rep.records
    for epoch, peak in zip(rec.epoch, rec.peak):
        if math.isnan(peak):
            assert epoch not in expected
        else:
            assert peak == pytest.approx(expected[epoch], rel=1e-12)


def test_palm_records_hold_ages_after_each_departure(tmp_path):
    # walk the traced deliveries in epoch order from the start state and
    # rebuild the records' coverage and the replication's delivery sums
    trace = tmp_path / "trace.csv"
    s_grid = ((0.0, 0.0, 0.0), (0.5, 1.0, 2.0), (3.0, 3.0, 3.0))
    r = run_replication(MIXED3, 300.0, 0.0, 17, 0, s_grid, trace_path=trace)
    rec = r.records
    with open(trace) as fh:
        deps = [row for row in csv.DictReader(fh) if row["kind"] == "departure"]
    assert [float(d["epoch"]) for d in deps] == rec.epoch.tolist()
    assert rec.covered.shape == (len(rec),)
    assert np.array_equal(rec.gap[:-1], np.diff(rec.epoch))
    seen = set()
    for i, dep in enumerate(deps):
        seen.add(int(dep["source"]) - 1)
        assert rec.covered[i] == (len(seen) == 3)
    assert not rec.covered[0] and rec.covered[-1]
    deliveries, delay_sums, peak_sums, peak_counts = r.source_sums
    for k in range(3):
        mine = rec.source == k
        assert deliveries[k] == mine.sum()
        assert delay_sums[k] == pytest.approx(math.fsum(rec.delay[mine]), rel=1e-12)
        peaks = rec.peak[mine][np.isfinite(rec.peak[mine])]
        assert peak_counts[k] == peaks.size == mine.sum() - 1
        assert peak_sums[k] == pytest.approx(math.fsum(peaks), rel=1e-12)


def _same_estimate(a, b) -> bool:
    if (a.batches, a.flag) != (b.batches, b.flag):
        return False
    return all(
        (math.isnan(x) and math.isnan(y)) or x == pytest.approx(y, rel=1e-12, abs=0.0)
        for x, y in ((a.value, b.value), (a.stderr, b.stderr))
    )


# (spec, horizon, burn_in, replications, seed, warm_up): warm_up is what
# the records show of the start-up, in the words of warm_up_note
RECORD_CASES = [
    (SYMMETRIC, 400.0, 0.0, 4, 3, "12 warm-up departures skipped"),
    (MIXED3, 600.0, 0.0, 3, 11, "16 warm-up departures skipped"),
    (MIXED3, 600.0, 30.0, 3, 12, None),
    (LATE, 50.0, 2.0, 4, 31, "86 warm-up departures skipped"),
    (LATE, 5.0, 0.5, 3, 2, "a replication had no usable departures"),
]


@pytest.mark.parametrize("spec, horizon, burn_in, replications, seed, warm_up", RECORD_CASES)
def test_palm_estimators_match_record_oracles(spec, horizon, burn_in, replications, seed, warm_up):
    results = [run_replication(spec, horizon, burn_in, seed, rep, ()) for rep in range(replications)]
    assert warm_up_note(results) == warm_up
    want = palm_from_records(results)
    got = {label: est for label, est in _quantities(results).items() if label in want}
    assert list(got) == list(want)
    for label in got:
        assert _same_estimate(got[label], want[label]), label


@pytest.mark.parametrize("case", [c for c in RECORD_CASES if c[-1] and "skipped" in c[-1]])
def test_late_source_note_covers_warm_up_departures(case, tmp_path):
    # a window departure before every source has delivered leaves some
    # source without an update after burn-in, so that source is late
    spec, horizon, burn_in, replications, seed, _ = case
    late_anywhere = set()
    for rep in range(replications):
        trace = tmp_path / f"rep{rep}.csv"
        r = run_replication(spec, horizon, burn_in, seed, rep, (), trace_path=trace)
        late_anywhere.update(r.late_sources)
        with open(trace) as fh:
            deps = [row for row in csv.DictReader(fh) if row["kind"] == "departure"]
        seen = set()
        window = 0
        for dep in deps:
            seen.add(int(dep["source"]) - 1)
            if float(dep["epoch"]) <= burn_in:
                continue
            missing = set(range(spec.num_sources)) - seen
            assert r.records.covered[window] == (not missing)
            assert missing <= set(r.late_sources)
            window += 1
        assert window == len(r.records)
    report = simulate(spec, horizon=horizon, burn_in=burn_in, replications=replications, seed=seed)
    noted = {int(f.split(":")[0].removeprefix("source ")) - 1 for f in report.flags if f.startswith("source ")}
    assert late_anywhere and noted == late_anywhere


def test_late_source_detection():
    slow = SystemSpec(rates=(3.0, 0.05), services=(Exponential(6.0), Exponential(6.0)))
    late_total = 0
    for rep in range(4):
        r = run_replication(slow, 50.0, 2.0, 31, rep, ())
        late_total += len(r.late_sources)
        assert all(k == 1 for k in r.late_sources)
    assert late_total >= 3  # source 2 updates about once every 30 time units


# (horizon, burn_in, replications, seed) of a LATE run, and each flagged
# row's (value is NaN, batches, flag): no window delivery of source 2 in
# any replication, in only some, and in too few for a stderr
FLAG_CASES = [
    ((5.0, 0.5, 3, 2), {
        "delay_mean[2]": (True, 3, "no deliveries for source 2"),
        "peak_mean[2]": (True, 3, "no peaks for source 2"),
    }),
    ((40.0, 20.0, 8, 5), {
        "delay_mean[2]": (False, 4, "4 replications had no deliveries for source 2"),
        "peak_mean[2]": (False, 2, "6 replications had no peaks for source 2"),
    }),
    ((40.0, 20.0, 3, 0), {
        "delay_mean[2]": (False, 1, "too few replications with deliveries for source 2 for a stderr"),
        "peak_mean[2]": (False, 1, "too few replications with peaks for source 2 for a stderr"),
    }),
]


@pytest.mark.parametrize("run, flagged", FLAG_CASES)
def test_estimate_flags_name_what_replications_lack(run, flagged):
    horizon, burn_in, replications, seed = run
    report = simulate(LATE, horizon=horizon, burn_in=burn_in, replications=replications, seed=seed)
    assert report.flags[1:] == [f"{label}: {flag}" for label, (_, _, flag) in flagged.items()]
    assert report.flags[0].startswith("source 2: first delivery after burn-in")
    for label, est in report.quantities.items():
        got = (math.isnan(est.value), est.batches, est.flag)
        assert got == flagged.get(label, (False, replications, None)), label
        assert math.isnan(est.stderr) == (math.isnan(est.value) or est.batches < 2), label


@pytest.mark.parametrize(
    "spec, run",
    [(SYMMETRIC, (2e3, 50.0, 8, 3)), (MIXED3, (2e3, 50.0, 8, 4)), (LATE, FLAG_CASES[1][0])],
)
def test_simulate_reports_what_quantities_estimates(spec, run):
    # the tests that read _quantities check what simulate, and so the CLI,
    # reports: one estimator path, equal to the last bit
    horizon, burn_in, replications, seed = run
    report = simulate(spec, horizon=horizon, burn_in=burn_in, replications=replications, seed=seed)
    quantities = _quantities(run_replications(spec, horizon, burn_in, replications, seed, analytics.s_rows(spec)))

    def exact(estimates):
        return [(label, repr(e.value), repr(e.stderr), e.batches, e.flag) for label, e in estimates.items()]

    assert exact(report.quantities) == exact(quantities)


# --- estimators against the closed forms -------------------------------------


def test_joint_laplace_estimates(symmetric_results):
    quantities = _quantities(symmetric_results)
    for s in default_s_grid(2):
        truth = joint_aoi_laplace(SYMMETRIC, s)
        ta = quantities[joint_laplace_label(s)]
        if sum(s) == 0.0:
            assert ta.value == 1.0 and ta.stderr == 0.0
            continue
        assert abs(zscore(ta, truth)) < Z_GATE


def test_statistics_estimates(symmetric_results):
    quantities = _quantities(symmetric_results)
    m = marginal_aoi_moments(SYMMETRIC, 0)
    for k in range(2):
        mean, var = quantities[f"aoi_mean[{k + 1}]"], quantities[f"aoi_variance[{k + 1}]"]
        assert abs(mean.value - m.mean) < Z_GATE * mean.stderr
        assert abs(var.value - m.variance) < Z_GATE * var.stderr
    truth_cc = aoi_correlation(SYMMETRIC)
    cc = quantities["aoi_correlation"]
    assert abs(cc.value - truth_cc) < Z_GATE * cc.stderr
    pooled_sums = simulator._run_sums(symmetric_results)[0]
    assert analytics._age_correlation(pooled_sums, 0, 0) == pytest.approx(1.0, rel=1e-12)
    assert analytics._age_covariance(pooled_sums, 0, 1) == pytest.approx(
        analytics._age_covariance(pooled_sums, 1, 0), rel=1e-12
    )


def test_statistics_three_sources_are_finite(mixed3_results):
    # three sources report no correlation row; its g still reads the sums
    pooled_sums = simulator._run_sums(mixed3_results)[0]
    for j in range(3):
        for k in range(j + 1, 3):
            assert -1.0 < analytics._age_correlation(pooled_sums, j, k) < 0.5
    quantities = _quantities(mixed3_results)
    for k in range(3):
        truth = marginal_aoi_moments(MIXED3, k)
        mean = quantities[f"aoi_mean[{k + 1}]"]
        assert abs(mean.value - truth.mean) < Z_GATE * mean.stderr


def pooled(values):
    """np.sum of each entry's values over the replications, the first axis
    of `values`: how every estimator pools a replication sum.  A stderr
    takes np.std of each entry's per-replication values the same way."""
    return np.apply_along_axis(np.sum, 0, np.array(values))


def statistics_by_replication(results):
    """The age statistics as a loop that recomputes every statistic one
    replication at a time, reading the integrals of A_k^2 from the cross
    diagonal: the reference for their g over a replication axis."""

    def stats_from(accs):
        T = pooled([a.elapsed for a in accs])
        age = pooled([a.age_integrals for a in accs])
        cross = pooled([a.cross_integrals for a in accs])
        mean = age / T
        var = np.diagonal(cross) / T - mean**2
        cov = cross / T - np.outer(mean, mean)
        sd = np.sqrt(np.maximum(var, 0.0))
        with np.errstate(invalid="ignore", divide="ignore"):
            corr = cov / np.outer(sd, sd)
        np.fill_diagonal(corr, 1.0)
        np.fill_diagonal(cov, var)
        return mean, var, cov, corr

    mean, var, cov, corr = stats_from([r.accumulator for r in results])
    per_rep = [stats_from([r.accumulator]) for r in results]
    root_b = math.sqrt(len(results))
    mean_se, var_se, cov_se, corr_se = (
        np.apply_along_axis(np.std, 0, [p[i] for p in per_rep], ddof=1) / root_b for i in range(4)
    )
    return dict(
        mean=mean, variance=var, cv=np.sqrt(np.maximum(var, 0.0)) / mean, covariance=cov, correlation=corr,
        mean_stderr=mean_se, variance_stderr=var_se, covariance_stderr=cov_se, correlation_stderr=corr_se,
    )


def test_statistics_match_the_per_replication_loop(symmetric_results, mixed3_results):
    single = SystemSpec(rates=(2.0,), services=(Exponential(4.0),))
    for results in (symmetric_results, mixed3_results, run_replications(single, 2e3, 50.0, 8, 17, ())):
        quantities = _quantities(results)
        want = statistics_by_replication(results)
        assert len(want) == 9
        K = len(want["mean"])
        for k in range(K):
            for name, field in (("aoi_mean", "mean"), ("aoi_variance", "variance")):
                est = quantities[f"{name}[{k + 1}]"]
                assert (est.value, est.stderr) == (want[field][k], want[f"{field}_stderr"][k]), (name, k)
        if K == 2:
            est = quantities["aoi_correlation"]
            assert (est.value, est.stderr) == (want["correlation"][0, 1], want["correlation_stderr"][0, 1])
        # every pair's g, reported or not, over the pooled and the stacked sums
        pooled_sums, stacked_sums = simulator._run_sums(results)
        for j in range(K):
            for k in range(K):
                for g, field in ((analytics._age_covariance, "covariance"), (analytics._age_correlation, "correlation")):
                    if field == "correlation" and j == k:
                        continue  # the loop sets the diagonal to 1
                    assert g(pooled_sums, j, k) == want[field][j, k], (field, j, k)
                    assert simulator._stderr(g(stacked_sums, j, k)) == want[f"{field}_stderr"][j, k], (field, j, k)


def test_throughput_estimates(symmetric_results):
    palm = _quantities(symmetric_results)
    dep, push = palm["departure_rate"], palm["pushout_rate"]
    assert abs(zscore(dep, departure_rate(SYMMETRIC))) < Z_GATE
    assert abs(zscore(push, pushout_rate(SYMMETRIC))) < Z_GATE


def test_palm_estimates(mixed3_results):
    palm = _quantities(mixed3_results)
    shares = [palm[f"update_share[{k + 1}]"].value for k in range(3)]
    assert math.fsum(shares) == pytest.approx(1.0, abs=1e-12)
    rate_total = math.fsum(palm[f"update_rate[{k + 1}]"].value for k in range(3))
    assert rate_total == pytest.approx(palm["departure_rate"].value, rel=1e-12)
    for k in range(3):
        pm = palm_means(MIXED3, k)
        # a deterministic service makes the delay stderr collapse to
        # rounding noise, so keep an absolute floor in the gate
        est = palm[f"delay_mean[{k + 1}]"]
        assert abs(est.value - pm.delay_mean) < Z_GATE * est.stderr + 1e-12
        assert abs(zscore(palm[f"peak_mean[{k + 1}]"], pm.peak_mean)) < Z_GATE
        assert abs(zscore(palm[f"update_rate[{k + 1}]"], pm.update_rate)) < Z_GATE
        assert abs(zscore(palm[f"update_share[{k + 1}]"], source_update_share(MIXED3, k))) < Z_GATE


def test_single_source_palm_and_transform():
    spec = SystemSpec(rates=(2.0,), services=(Exponential(4.0),))
    results = run_replications(spec, 5e3, 50.0, 8, 17, ((1.5,),))
    truth = 8.0 / ((1.5 + 2.0) * (1.5 + 4.0))  # marginal transform closed form
    ta = _quantities(results)["joint_laplace(1.5)"]
    assert abs(zscore(ta, truth)) < Z_GATE


def test_empirical_cdf():
    grid = np.linspace(0.1, 2.0, 12)
    spec = SystemSpec(rates=(2.0,), services=(Exponential(4.0),))
    results = run_replications(spec, 5e3, 50.0, 8, 17, (), cdf_grid=grid)
    got_grid, values = estimate_marginal_cdf(results, 0)
    assert np.array_equal(got_grid, grid)
    assert np.all(np.diff(values) >= 0.0)
    assert np.all((values >= 0.0) & (values <= 1.0))
    exact = 1.0 - 2.0 * np.exp(-2.0 * grid) + np.exp(-4.0 * grid)
    assert np.max(np.abs(values - exact)) < 0.01
    for k in (-1, 1):
        with pytest.raises(IndexError, match=f"source index {k} out of range for 1 sources"):
            estimate_marginal_cdf(results, k)
    for k in (0.5, False, "0"):
        with pytest.raises(TypeError):
            estimate_marginal_cdf(results, k)
    assert np.array_equal(estimate_marginal_cdf(results, np.int64(0))[1], values)
    with pytest.raises(ValueError):
        estimate_marginal_cdf(run_replications(spec, 100.0, 1.0, 2, 0, ()), 0)


def test_empirical_cdf_needs_one_grid():
    spec = SystemSpec(rates=(2.0,), services=(Exponential(4.0),))
    grid = np.linspace(0.1, 2.0, 4)
    same = run_replications(spec, 100.0, 1.0, 2, 0, (), cdf_grid=grid)
    shifted = run_replication(spec, 100.0, 1.0, 0, 2, (), cdf_grid=grid + 0.1)
    no_grid = run_replication(spec, 100.0, 1.0, 0, 2, ())
    for results in (same + [shifted], same + [no_grid], [no_grid] + same):
        with pytest.raises(ValueError, match="replications were run with different CDF grids"):
            estimate_marginal_cdf(results, 0)


def test_stderr_shrinks_with_horizon():
    # doubling the measured window should shrink the batch stderr by
    # roughly 1/sqrt(2); the seed is fixed so the ratio is reproducible
    short = run_replications(SYMMETRIC, 4e3, 100.0, 16, 23, ((1.0, 1.0),))
    long = run_replications(SYMMETRIC, 7.9e3, 100.0, 16, 23, ((1.0, 1.0),))
    se_short = _quantities(short)["joint_laplace(1,1)"].stderr
    se_long = _quantities(long)["joint_laplace(1,1)"].stderr
    ratio = se_long / se_short
    assert 0.45 < ratio < 1.05


def test_every_rate_and_transform_is_a_pooled_ratio(symmetric_results):
    # the value sums numerators over denominators; the stderr is the spread
    # of the per-replication ratios
    accs = [r.accumulator for r in symmetric_results]
    palm = _quantities(symmetric_results)
    cases = [
        (palm["departure_rate"], [r.counts.window_departures for r in symmetric_results]),
        (palm["pushout_rate"], [r.counts.window_pushouts for r in symmetric_results]),
    ]
    spans = [r.window_span for r in symmetric_results]
    for est, nums in cases:
        per = np.divide(nums, spans)
        assert est.value == float(np.sum(nums) / np.sum(spans)) and est.batches == len(spans)
        assert est.stderr == float(per.std(ddof=1) / math.sqrt(per.size))
    for j, s in enumerate(default_s_grid(2)):
        est = palm[joint_laplace_label(s)]
        nums, dens = np.array([a.exp_integrals[j] for a in accs]), np.array([a.elapsed for a in accs])
        assert est.value == float(nums.sum() / dens.sum())
        assert est.stderr == float((nums / dens).std(ddof=1) / math.sqrt(len(accs)))
    # every other time average is a function g of sums pooled the same way,
    # with the spread of g per replication as its stderr; simulate runs the
    # fixture's replications again
    report = simulate(SYMMETRIC, 1e4, 100.0, 16, 7).quantities
    assert list(report) == list(palm)
    T = np.array([a.elapsed for a in accs])
    age, cross = np.array([a.age_integrals for a in accs]), np.array([a.cross_integrals for a in accs])

    def moments(T, age, cross):  # means, variances, correlation, one replication or pooled
        mean = age / T
        var = [cross[k, k] / T - mean[k] * mean[k] for k in range(2)]
        sd = [np.sqrt(np.maximum(v, 0.0)) for v in var]
        return mean, var, (cross[0, 1] / T - mean[0] * mean[1]) / (sd[0] * sd[1])

    mean, var, corr = moments(T.sum(), pooled(age), pooled(cross))
    per = [moments(a.elapsed, a.age_integrals, a.cross_integrals) for a in accs]
    cases = [(report["aoi_correlation"], corr, [p[2] for p in per])]
    for k in range(2):
        cases.append((report[f"aoi_mean[{k + 1}]"], mean[k], [p[0][k] for p in per]))
        cases.append((report[f"aoi_variance[{k + 1}]"], var[k], [p[1][k] for p in per]))
    for est, value, per_rep in cases:
        assert est.value == value and est.batches == len(accs) and est.flag is None
        assert est.stderr == float(np.std(per_rep, ddof=1) / math.sqrt(len(accs)))
    spec = SystemSpec(rates=(2.0, 1.0), services=(Exponential(4.0), Deterministic(0.2)))
    grid = np.linspace(0.05, 3.0, 9)
    results = run_replications(spec, 500.0, 10.0, 16, 5, (), cdf_grid=grid)
    for k in range(2):
        occ = np.array([r.accumulator.cdf_occupancy[k] for r in results])
        T = np.array([r.accumulator.elapsed for r in results])
        got_grid, values = estimate_marginal_cdf(results, k)
        assert np.array_equal(got_grid, grid)
        assert np.array_equal(values, pooled(occ) / T.sum())


def test_estimators_reject_replications_of_different_runs():
    grid = np.linspace(0.1, 2.0, 4)

    def reps(spec, seed, s_row, count=2):
        return [run_replication(spec, 100.0, 1.0, seed, rep, (s_row,), cdf_grid=grid) for rep in range(count)]

    two = reps(SYMMETRIC, 0, (1.0, 1.0))
    slower = reps(SystemSpec(rates=(3.0, 2.0), services=SYMMETRIC.services), 0, (1.0, 1.0), 1)
    three = reps(MIXED3, 0, (1.0, 1.0, 1.0), 1)
    estimators = [_quantities, lambda results: estimate_marginal_cdf(results, 0)]
    for mixed, message in [
        (two + three, "run on different systems, of 2 and 3 sources"),
        (three + two, "run on different systems, of 3 and 2 sources"),
        (two + slower, "run on different systems, of 2 and 2 sources"),
        (slower + two, "run on different systems, of 2 and 2 sources"),
    ]:
        for estimator in estimators:
            with pytest.raises(ValueError, match=message):
                estimator(mixed)
    # one system, another argument grid: the message names the grid
    other_row = reps(SYMMETRIC, 0, (2.0, 2.0), 1)
    with pytest.raises(ValueError, match="replications were run with different argument grids"):
        _quantities(two + other_row)


def test_too_few_replications_rejected():
    with pytest.raises(ValueError):
        run_replications(SYMMETRIC, 100.0, 1.0, 1, 0, ())
    r = run_replication(SYMMETRIC, 100.0, 1.0, 0, 0, ())
    with pytest.raises(ValueError):
        _quantities([r])


# --- full driver -------------------------------------------------------------


def test_simulate_report_round_trip():
    report = simulate(SYMMETRIC, horizon=2e3, burn_in=50.0, replications=8, seed=3)
    assert report.replications == 8
    assert report.burn_in == 50.0
    transforms = {label: est for label, est in report.quantities.items() if label.startswith("joint_laplace(")}
    assert list(transforms) == [joint_laplace_label(row) for row in default_s_grid(2)]
    for est in transforms.values():
        assert est.batches == 8
        assert est.stderr >= 0.0
    assert report.flags == []


def test_huge_transform_argument_warns_nothing():
    # the row's sum is finite, but s . a and sbar L overflow to inf, where
    # exp gives 0 and expm1 gives -1 exactly
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = simulate(SYMMETRIC, horizon=200.0, burn_in=10.0, replications=2, seed=3, s_grid=[(1e308, 0.0), (1, 1)])
    est = report.quantities["joint_laplace(1e+308,0)"]
    assert 0.0 <= est.value < 1e-300 and est.stderr < 1e-300
    assert joint_aoi_laplace(SYMMETRIC, (1e308, 0.0)) < 1e-300


def test_simulate_default_burn_in_guard():
    with pytest.raises(ValueError):
        simulate(SYMMETRIC, horizon=10.0, replications=2, seed=0)


def test_simulate_flags_slow_sources():
    slow = SystemSpec(rates=(3.0, 0.05), services=(Exponential(6.0), Exponential(6.0)))
    report = simulate(slow, horizon=50.0, burn_in=2.0, replications=4, seed=31)
    assert any("source 2" in f for f in report.flags)


def test_worker_count_does_not_change_results():
    serial = simulate(SYMMETRIC, horizon=2e3, burn_in=50.0, replications=4, seed=5, workers=1)
    parallel = simulate(SYMMETRIC, horizon=2e3, burn_in=50.0, replications=4, seed=5, workers=2)
    # the delivery sums are reduced in the workers
    assert serial.quantities == parallel.quantities


def test_worker_count_does_not_change_occupancy():
    grid = np.linspace(0.05, 3.0, 9)
    serial = run_replications(MIXED3, 1e3, 20.0, 3, 5, (), cdf_grid=grid, workers=1)
    parallel = run_replications(MIXED3, 1e3, 20.0, 3, 5, (), cdf_grid=grid, workers=2)
    for a, b in zip(serial, parallel, strict=True):
        assert np.array_equal(a.accumulator.cdf_occupancy, b.accumulator.cdf_occupancy)


ZERO_SERVICE = SystemSpec(rates=(2.0, 2.0), services=(Deterministic(0.0), Deterministic(0.0)))
# the gate-k8-par benchmark's sources
K8 = SystemSpec(
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


def test_pickled_result_is_fixed_size():
    r = run_replication(K8, 2e4, default_burn_in(K8), 3, 0, default_s_grid(8))
    assert len(r.records) > 10_000
    assert len(pickle.dumps(r)) <= 10_000


@pytest.mark.parametrize(
    "spec,horizon,burn_in",
    [(SYMMETRIC, 2e3, 50.0), (MIXED3, 2e3, 50.0), (ZERO_SERVICE, 500.0, 10.0), (LATE, 50.0, 2.0)],
    ids=["symmetric", "mixed3", "zero-service", "late-source"],
)
def test_unpickled_result_rebuilds_its_records(spec, horizon, burn_in):
    args = (spec, horizon, burn_in, 31, 2, default_s_grid(spec.num_sources), np.linspace(0.0, 2.0, 5))
    want = mask_thinned_replication(*args)
    fresh = run_replication(*args)
    unread = pickle.loads(pickle.dumps(fresh))
    assert_same_replication(fresh, want)
    read = pickle.loads(pickle.dumps(fresh))
    assert read._records is None  # pickling drops kept records
    for r in (fresh, unread, read):
        assert_same_replication(r, want)
        assert r.records is r.records  # built once, then kept


def held_bytes(obj, seen=None) -> int:
    """Bytes of every array reachable from `obj` through dataclass fields,
    tuples and lists, counting the base of a view too."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.nbytes + held_bytes(obj.base, seen)
    if dataclasses.is_dataclass(obj):
        return sum(held_bytes(getattr(obj, f.name), seen) for f in dataclasses.fields(obj))
    if isinstance(obj, (tuple, list)):
        return sum(held_bytes(v, seen) for v in obj)
    return 0


def test_fresh_result_holds_no_array_that_grows_with_the_horizon():
    held = [
        held_bytes(run_replication(MIXED3, horizon, 10.0, 4, 0, default_s_grid(3), np.linspace(0.0, 2.0, 7)))
        for horizon in (1e3, 1e4)
    ]
    assert held[0] == held[1] > 0


@pytest.mark.parametrize("spec", [MIXED3, ZERO_SERVICE, LATE], ids=["mixed3", "zero-service", "late-source"])
def test_worker_count_does_not_change_any_field(spec):
    args = (spec, 200.0, 2.0, 3, 7, default_s_grid(spec.num_sources), np.linspace(0.05, 3.0, 9))
    serial = run_replications(*args, workers=1)
    parallel = run_replications(*args, workers=2)
    for a, b in zip(parallel, serial, strict=True):
        for name in ("spec", "seed", "rep_index", "horizon", "burn_in"):
            assert getattr(a, name) == getattr(b, name), name
        assert_same_replication(a, b)


def test_parallel_simulate_runs_no_replication_in_this_process(monkeypatch):
    runs, paths = [], []
    run_replication, path = simulator.run_replication, simulator._path

    def counting_runs(*args, **kwargs):
        runs.append(args[4])
        return run_replication(*args, **kwargs)

    def counting_paths(*args):
        paths.append(args[3])
        return path(*args)

    monkeypatch.setattr(simulator, "run_replication", counting_runs)
    monkeypatch.setattr(simulator, "_path", counting_paths)
    monkeypatch.setattr(simulator.os, "sched_getaffinity", lambda pid: {0, 1})
    simulate(SYMMETRIC, horizon=500.0, burn_in=20.0, replications=4, seed=5, workers=2)
    assert runs == [] and paths == []
    # reading records on a worker's result rebuilds its path here, once
    results = run_replications(SYMMETRIC, 500.0, 20.0, 2, 5, (), workers=2)
    for r in results:
        r.records
        r.records
    assert runs == [] and paths == [0, 1]


def test_worker_count_below_one_is_rejected(monkeypatch):
    def no_run(args):
        raise AssertionError("no replication may run")

    monkeypatch.setattr(simulator, "_run_one", no_run)
    for workers in (0, -4):
        with pytest.raises(ValueError, match="workers must be at least 1"):
            run_replications(SYMMETRIC, 50.0, 5.0, 2, 1, (), workers=workers)
        with pytest.raises(ValueError, match="workers must be at least 1"):
            simulate(SYMMETRIC, horizon=50.0, burn_in=5.0, replications=2, workers=workers)


def test_worker_pool_is_capped(monkeypatch):
    started = []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def shutdown(self):
            pass

        def map(self, fn, args):
            return map(fn, args)

    # the pool reused by parallel runs is set aside for this test only
    monkeypatch.setattr(simulator, "_pool", None)
    monkeypatch.setattr(simulator, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(simulator.os, "sched_getaffinity", lambda pid: {0, 1, 2})
    for workers, replications in ((8, 2), (8, 5), (2, 5), (1, 5)):
        run_replications(SYMMETRIC, 50.0, 5.0, replications, 1, ((1.0, 1.0),), workers=workers)
    assert started == [2, 3, 2]


POOL_ARGS = (SYMMETRIC, 200.0, 5.0, 3, 1, ((1.0, 1.0),))


def pool_workers():
    """The worker processes of the simulator's own pool, by pid."""
    return sorted(simulator._pool[2]._processes.values(), key=lambda p: p.pid)


def test_parallel_runs_reuse_the_worker_processes(monkeypatch):
    monkeypatch.setattr(simulator.os, "sched_getaffinity", lambda pid: {0, 1})
    run_replications(*POOL_ARGS, workers=2)
    first = [p.pid for p in pool_workers()]
    run_replications(*POOL_ARGS, workers=2)
    assert len(first) == 2 and [p.pid for p in pool_workers()] == first


def test_pool_of_another_worker_count_replaces_the_workers(monkeypatch):
    monkeypatch.setattr(simulator.os, "sched_getaffinity", lambda pid: {0, 1})
    run_replications(*POOL_ARGS, workers=2)
    old = pool_workers()
    # the cached pool is relabelled as one of 3 workers, so that no test
    # starts more than 2
    pid, _, executor = simulator._pool
    simulator._pool = (pid, 3, executor)
    run_replications(*POOL_ARGS, workers=2)
    new = pool_workers()
    assert len(old) == len(new) == 2 and not {p.pid for p in old} & {p.pid for p in new}
    assert not any(p.is_alive() for p in old)


def test_pool_broken_before_a_call_is_replaced_for_it(monkeypatch):
    monkeypatch.setattr(simulator.os, "sched_getaffinity", lambda pid: {0, 1})
    serial = run_replications(*POOL_ARGS, workers=1)
    run_replications(*POOL_ARGS, workers=2)
    executor = simulator._pool[2]
    killed = pool_workers()[0]
    os.kill(killed.pid, signal.SIGKILL)
    # until the pool has seen the death, a call can be served whole by the
    # other worker and never reach a new pool
    deadline = time.monotonic() + 30.0
    while not executor._broken and time.monotonic() < deadline:
        time.sleep(0.01)
    assert executor._broken
    for a, b in zip(run_replications(*POOL_ARGS, workers=2), serial, strict=True):
        assert_same_replication(a, b)
    assert simulator._pool[2] is not executor and killed.pid not in {p.pid for p in pool_workers()}


@dataclasses.dataclass(frozen=True)
class DiesInWorkers(Exponential):
    """Exponential service whose draws end any process but the one that
    made it, with exit status 1."""

    parent: int = dataclasses.field(default_factory=os.getpid)

    def sample(self, rng, size):
        if os.getpid() != self.parent:
            os._exit(1)
        return super().sample(rng, size)


def test_broken_pool_raises_once_and_is_replaced(monkeypatch):
    # a worker that dies during a call breaks the pool: that call raises,
    # and the next runs on a new pool
    monkeypatch.setattr(simulator.os, "sched_getaffinity", lambda pid: {0, 1})
    serial = run_replications(*POOL_ARGS, workers=1)
    dying = SystemSpec(rates=(3.0, 3.0), services=(DiesInWorkers(6.0), Exponential(6.0)))
    with pytest.raises(BrokenProcessPool):
        run_replications(dying, *POOL_ARGS[1:], workers=2)
    assert simulator._pool is None
    for a, b in zip(run_replications(*POOL_ARGS, workers=2), serial, strict=True):
        assert_same_replication(a, b)


def test_forked_child_starts_its_own_pool(monkeypatch):
    monkeypatch.setattr(simulator.os, "sched_getaffinity", lambda pid: {0, 1})
    serial = run_replications(*POOL_ARGS, workers=1)
    run_replications(*POOL_ARGS, workers=2)
    inherited = {p.pid for p in pool_workers()}
    child = os.fork()
    if child == 0:
        # the child never returns to pytest: it exits 0 only if its run
        # matched the serial one on 2 workers of its own
        code = 1
        try:
            results = run_replications(*POOL_ARGS, workers=2)
            own = {p.pid for p in pool_workers()} - inherited
            for a, b in zip(results, serial, strict=True):
                assert_same_replication(a, b)
            simulator._pool[2].shutdown()
            code = 0 if len(own) == 2 else 1
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30.0
    while (done := os.waitpid(child, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.05)
    if done[0] == 0:
        os.kill(child, signal.SIGKILL)
        os.waitpid(child, 0)
        pytest.fail("the forked child's parallel run hung")
    assert os.waitstatus_to_exitcode(done[1]) == 0
