import csv
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from aoistats.analytics import (
    SystemSpec,
    aoi_correlation,
    departure_rate,
    joint_aoi_laplace,
    joint_laplace_label,
    marginal_aoi_moments,
    palm_means,
    pushout_rate,
    source_update_share,
)
from aoistats import simulator
from aoistats.servicedist import Deterministic, Exponential, Gamma, Mixture
from aoistats.simulator import (
    Estimate,
    PathAccumulator,
    default_burn_in,
    default_s_grid,
    estimate_departure_rate,
    estimate_joint_laplace,
    estimate_marginal_cdf,
    estimate_palm,
    estimate_pushout_rate,
    estimate_statistics,
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
    segment_integral_exponential,
    segment_integral_moments,
)

SYMMETRIC = SystemSpec(rates=(3.0, 3.0), services=(Exponential(6.0), Exponential(6.0)))
MIXED3 = SystemSpec(
    rates=(1.0, 2.0, 3.0),
    services=(Exponential(6.0), Gamma(2.0, 12.0), Deterministic(0.1)),
)
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
    scalar = PathAccumulator(s_grid=grid, num_sources=3, cdf_grid=cdf_grid)
    t = 0.0
    for a, L in zip(ages, lengths):
        snap = AoISnapshot(np.full(3, t), a)  # ages a at time t
        add_segment(scalar, snap, t, t + L)
        t += L
    assert bulk.exp_integrals == pytest.approx(scalar.exp_integrals, rel=1e-12)
    assert bulk.age_integrals == pytest.approx(scalar.age_integrals, rel=1e-12)
    assert bulk.age_sq_integrals == pytest.approx(scalar.age_sq_integrals, rel=1e-12)
    assert bulk.cross_integrals == pytest.approx(scalar.cross_integrals, rel=1e-12)
    assert bulk.cdf_occupancy == pytest.approx(scalar.cdf_occupancy, rel=1e-12)
    assert bulk.elapsed == pytest.approx(scalar.elapsed, rel=1e-12)


def test_accumulator_layout_checks():
    acc = PathAccumulator(s_grid=((1.0, 1.0),), num_sources=2)
    with pytest.raises(ValueError):
        PathAccumulator(s_grid=((1.0,),), num_sources=2)
    with pytest.raises(ValueError):
        PathAccumulator(s_grid=((-1.0, 0.0),), num_sources=2)
    with pytest.raises(ValueError):
        acc.add_segments(np.zeros((3, 1)), np.ones(3))
    with pytest.raises(ValueError):
        acc.add_segments(np.zeros((3, 2)), np.ones(4))
    for bad in ([], [[0.5, 1.0]], [0.5, np.nan], [np.inf], [0.5, -np.inf]):
        with pytest.raises(ValueError, match="CDF grid"):
            PathAccumulator(s_grid=(), num_sources=2, cdf_grid=bad)


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
def test_occupancy_matches_clip_sum(case):
    ages, lengths, grid = case
    acc = PathAccumulator(s_grid=(), num_sources=ages.shape[1], cdf_grid=grid)
    acc.add_segments(ages, lengths)
    occ = acc.cdf_occupancy
    # relative only: a level no segment reaches must read exactly 0
    np.testing.assert_allclose(occ, clip_occupancy(grid, ages, lengths), rtol=1e-12, atol=0.0)
    assert np.all(occ >= 0.0)
    assert np.all(np.diff(occ[:, np.argsort(grid)], axis=1) >= 0.0)


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


LATE = SystemSpec(rates=(3.0, 0.05), services=(Exponential(6.0), Exponential(6.0)))

# (spec, horizon, burn_in, replications, seed, warm_up): warm_up is what
# the records show of the start-up, in the words of warm_up_note
RECORD_CASES = [
    (SYMMETRIC, 400.0, 0.0, 4, 3, "11 warm-up departures skipped"),
    (MIXED3, 600.0, 0.0, 3, 11, "20 warm-up departures skipped"),
    (MIXED3, 600.0, 30.0, 3, 12, None),
    (LATE, 50.0, 2.0, 4, 31, "143 warm-up departures skipped"),
    (LATE, 5.0, 0.5, 3, 2, "a replication had no usable departures"),
]


@pytest.mark.parametrize("spec, horizon, burn_in, replications, seed, warm_up", RECORD_CASES)
def test_palm_estimators_match_record_oracles(spec, horizon, burn_in, replications, seed, warm_up):
    results = [run_replication(spec, horizon, burn_in, seed, rep, ()) for rep in range(replications)]
    assert warm_up_note(results) == warm_up
    got, want = estimate_palm(results), palm_from_records(results)
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


# --- estimators against the closed forms -------------------------------------


def test_joint_laplace_estimates(symmetric_results):
    for s in default_s_grid(2):
        truth = joint_aoi_laplace(SYMMETRIC, s)
        ta = estimate_joint_laplace(symmetric_results, s)
        if sum(s) == 0.0:
            assert ta.value == 1.0 and ta.stderr == 0.0
            continue
        assert abs(zscore(ta, truth)) < Z_GATE


def test_unsimulated_vector_is_rejected(symmetric_results):
    with pytest.raises(ValueError):
        estimate_joint_laplace(symmetric_results, (9.0, 9.0))


def test_statistics_estimates(symmetric_results):
    stats = estimate_statistics(symmetric_results)
    assert stats.provenance == "simulated"
    m = marginal_aoi_moments(SYMMETRIC, 0)
    for k in range(2):
        assert abs(stats.mean[k] - m.mean) < Z_GATE * stats.mean_stderr[k]
        assert abs(stats.variance[k] - m.variance) < Z_GATE * stats.variance_stderr[k]
    truth_cc = aoi_correlation(SYMMETRIC)
    assert abs(stats.correlation[0, 1] - truth_cc) < Z_GATE * stats.correlation_stderr[0, 1]
    assert stats.correlation[0, 0] == 1.0
    assert stats.covariance == pytest.approx(stats.covariance.T, rel=1e-12)


def test_statistics_three_sources_are_finite(mixed3_results):
    stats = estimate_statistics(mixed3_results)
    assert np.all(np.isfinite(stats.correlation))
    for j in range(3):
        for k in range(j + 1, 3):
            assert -1.0 < stats.correlation[j, k] < 0.5
    for k in range(3):
        truth = marginal_aoi_moments(MIXED3, k)
        assert abs(stats.mean[k] - truth.mean) < Z_GATE * stats.mean_stderr[k]


def test_throughput_estimates(symmetric_results):
    dep = estimate_departure_rate(symmetric_results)
    push = estimate_pushout_rate(symmetric_results)
    assert abs(zscore(dep, departure_rate(SYMMETRIC))) < Z_GATE
    assert abs(zscore(push, pushout_rate(SYMMETRIC))) < Z_GATE


def test_palm_estimates(mixed3_results):
    palm = estimate_palm(mixed3_results)
    shares = [palm[f"update_share[{k + 1}]"].value for k in range(3)]
    assert math.fsum(shares) == pytest.approx(1.0, abs=1e-12)
    rate_total = math.fsum(palm[f"update_rate[{k + 1}]"].value for k in range(3))
    assert rate_total == pytest.approx(
        estimate_departure_rate(mixed3_results).value, rel=1e-12
    )
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
    ta = estimate_joint_laplace(results, (1.5,))
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
    with pytest.raises(ValueError):
        estimate_marginal_cdf(run_replications(spec, 100.0, 1.0, 2, 0, ()), 0)


def test_stderr_shrinks_with_horizon():
    # doubling the measured window should shrink the batch stderr by
    # roughly 1/sqrt(2); the seed is fixed so the ratio is reproducible
    short = run_replications(SYMMETRIC, 4e3, 100.0, 16, 23, ((1.0, 1.0),))
    long = run_replications(SYMMETRIC, 7.9e3, 100.0, 16, 23, ((1.0, 1.0),))
    se_short = estimate_joint_laplace(short, (1.0, 1.0)).stderr
    se_long = estimate_joint_laplace(long, (1.0, 1.0)).stderr
    ratio = se_long / se_short
    assert 0.45 < ratio < 1.05


def test_too_few_replications_rejected():
    with pytest.raises(ValueError):
        run_replications(SYMMETRIC, 100.0, 1.0, 1, 0, ())
    r = run_replication(SYMMETRIC, 100.0, 1.0, 0, 0, ())
    with pytest.raises(ValueError):
        estimate_statistics([r])


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


def test_worker_pool_is_capped(monkeypatch):
    started = []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, args):
            return map(fn, args)

    monkeypatch.setattr(simulator, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(simulator.os, "cpu_count", lambda: 3)
    for workers, replications in ((8, 2), (8, 5), (2, 5), (1, 5)):
        run_replications(SYMMETRIC, 50.0, 5.0, replications, 1, ((1.0, 1.0),), workers=workers)
    assert started == [2, 3, 2]
