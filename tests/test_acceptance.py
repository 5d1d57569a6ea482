"""End-to-end acceptance gate.

Every test here prints one pass/fail verdict line (run pytest with -s to
see them on a green run; failures carry the line in the assert message).
The simulation checks use frozen seeds, so a green run stays green.
"""

import math
import time
import warnings

import numpy as np
import pytest

from aoistats.analytics import (
    InversionAccuracyWarning,
    SystemSpec,
    aoi_correlation,
    cc_lower_bound,
    default_s_grid,
    departure_rate,
    joint_aoi_laplace,
    joint_laplace_label,
    marginal_aoi_cdf,
    marginal_aoi_laplace,
    marginal_aoi_moments,
    palm_means,
    pushout_rate,
    source_update_share,
)
from aoistats.experiments import sweep_cc_vs_lambda2, sweep_cc_vs_service_rate
from aoistats.servicedist import Deterministic, Exponential, Gamma
from aoistats.simulator import _quantities, estimate_marginal_cdf, run_replications
from segment_oracles import AoISnapshot, segment_integral_exponential, segment_integral_moments

ANCHOR = SystemSpec(rates=(3.0, 3.0), services=(Exponential(6.0), Exponential(6.0)))
DET_SYM = SystemSpec(rates=(3.0, 3.0), services=(Deterministic(1 / 6), Deterministic(1 / 6)))
MIXED2 = SystemSpec(rates=(3.0, 3.0), services=(Exponential(6.0), Deterministic(1 / 6)))
MIXED3 = SystemSpec(
    rates=(1.0, 2.0, 3.0),
    services=(Exponential(6.0), Gamma(2.0, 12.0), Deterministic(0.1)),
)

DET_CC = -1.0 / (2.0 * (math.e - 1.0))


def verdict(number: int, label: str, ok: bool, detail: str) -> None:
    line = f"acceptance {number} ({label}): {'PASS' if ok else 'FAIL'} [{detail}]"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def anchor_run():
    t0 = time.perf_counter()
    results = run_replications(ANCHOR, 1e4, 100.0, 32, 112358, default_s_grid(2))
    return results, time.perf_counter() - t0


@pytest.fixture(scope="module")
def det_run():
    return run_replications(DET_SYM, 1e4, 100.0, 32, 112358, ())


@pytest.fixture(scope="module")
def mixed2_run():
    return run_replications(MIXED2, 1e4, 100.0, 32, 3, default_s_grid(2))


@pytest.fixture(scope="module")
def mixed3_run():
    return run_replications(MIXED3, 1e4, 100.0, 32, 3, default_s_grid(3))


def test_acceptance_1_exponential_anchor_mean(anchor_run):
    results, elapsed = anchor_run
    quantities = _quantities(results)
    ok = elapsed < 30.0
    worst_z = worst_rel = 0.0
    for k in range(2):
        truth = marginal_aoi_moments(ANCHOR, k).mean
        assert truth == 2.0 / 3.0  # closed form is exact here
        mean = quantities[f"aoi_mean[{k + 1}]"]
        z = (mean.value - truth) / mean.stderr
        rel = abs(mean.value - truth) / truth
        worst_z = max(worst_z, abs(z))
        worst_rel = max(worst_rel, rel)
        ok = ok and abs(z) < 3.0 and rel < 0.01
    verdict(
        1,
        "two-source exponential anchor mean age",
        ok,
        f"worst |z|={worst_z:.2f}, worst rel err={worst_rel:.2e}, sim {elapsed:.1f}s",
    )


def test_acceptance_2_correlation_anchors(anchor_run, det_run):
    cc_exp = aoi_correlation(ANCHOR)
    cc_det = aoi_correlation(DET_SYM)
    ok = abs(cc_exp - (-1.0 / 6.0)) < 1e-15
    ok = ok and abs(cc_det - DET_CC) < 1e-6
    ok = ok and abs(cc_lower_bound("deterministic") - DET_CC) < 1e-15
    zs = []
    for results, truth in ((anchor_run[0], cc_exp), (det_run, cc_det)):
        cc = _quantities(results)["aoi_correlation"]
        zs.append((cc.value - truth) / cc.stderr)
    ok = ok and all(abs(z) < 3.0 for z in zs)
    verdict(
        2,
        "correlation anchors -1/6 and -1/(2(e-1))",
        ok,
        f"analytic err {abs(cc_det - DET_CC):.1e}, sim z=({zs[0]:+.2f}, {zs[1]:+.2f})",
    )


def test_acceptance_3_joint_transform_vs_simulation(mixed2_run, mixed3_run):
    ok = True
    worst = 0.0
    tested = 0
    for spec, results in ((MIXED2, mixed2_run), (MIXED3, mixed3_run)):
        rows = [s for s in default_s_grid(spec.num_sources) if sum(s) > 0.0]
        assert len(rows) >= 5
        quantities = _quantities(results)
        for s in rows:
            truth = joint_aoi_laplace(spec, s)
            est = quantities[joint_laplace_label(s)]
            z = (est.value - truth) / est.stderr
            worst = max(worst, abs(z))
            ok = ok and abs(z) < 3.0
            tested += 1
    verdict(
        3,
        "joint transform, 2 and 3 mixed-service sources",
        ok,
        f"{tested} s-vectors, worst |z|={worst:.2f}",
    )


def test_acceptance_5_rates_and_shares(anchor_run, mixed3_run):
    ok = True
    worst = 0.0
    for spec, results in ((ANCHOR, anchor_run[0]), (MIXED3, mixed3_run)):
        palm = _quantities(results)
        checks = [(palm["departure_rate"], departure_rate(spec)), (palm["pushout_rate"], pushout_rate(spec))]
        for k in range(spec.num_sources):
            checks.append((palm[f"update_share[{k + 1}]"], source_update_share(spec, k)))
        for est, truth in checks:
            z = (est.value - truth) / est.stderr
            worst = max(worst, abs(z))
            ok = ok and abs(z) < 3.0
    verdict(5, "departure/pushout rates and update shares", ok, f"worst |z|={worst:.2f}")


def test_acceptance_6_peak_delay_identity(anchor_run, mixed3_run):
    ok = True
    worst = 0.0
    for spec, results in ((ANCHOR, anchor_run[0]), (MIXED3, mixed3_run)):
        palm = _quantities(results)
        for k in range(spec.num_sources):
            pm = palm_means(spec, k)
            diffs = []
            min_count = None
            for r in results:
                mask = r.records.source == k
                count = int(mask.sum())
                min_count = count if min_count is None else min(min_count, count)
                diffs.append(
                    float(np.nanmean(r.records.peak[mask]))
                    - float(r.records.delay[mask].mean())
                    - r.window_span / count
                )
            diffs = np.asarray(diffs)
            se = diffs.std(ddof=1) / math.sqrt(diffs.size)
            # windowed ratio estimators carry an O(1/count) edge bias;
            # allow for it explicitly on top of the batch noise
            gate = 3.0 * se + 3.0 * pm.peak_mean / min_count
            ok = ok and abs(diffs.mean()) <= gate
            worst = max(worst, abs(diffs.mean()) / gate)
            peak = palm[f"peak_mean[{k + 1}]"]
            z_peak = (peak.value - pm.peak_mean) / peak.stderr
            ok = ok and abs(z_peak) < 3.0
    verdict(
        6,
        "per-source peak = delay + mean update gap",
        ok,
        f"worst identity margin used {worst:.2f} of gate",
    )


def test_acceptance_7_correlation_sweep_shape():
    t0 = time.perf_counter()
    l2_grid = tuple(sorted(set(np.geomspace(1e-3, 50.0, 40)) | {3.0, 5.0}))
    sr_grid = tuple(sorted(set(np.geomspace(0.05, 1000.0, 40)) | {6.0}))
    bounds = {
        "exponential": -1.0 / 6.0,
        "gamma(0.5)": cc_lower_bound("gamma", 0.5),
        "gamma(2)": cc_lower_bound("gamma", 2.0),
        "deterministic": cc_lower_bound("deterministic"),
    }
    ok = True

    def split(points):
        out = {}
        for p in points:
            out.setdefault(p.family, []).append(p)
        return out

    # balanced rate sweep: the dip bottoms out at rate 3 on the family bound
    for family, pts in split(sweep_cc_vs_lambda2(3.0, 1.0 / 6.0, grid=l2_grid)).items():
        best = min(pts, key=lambda p: p.cc)
        ok = ok and best.param == 3.0 and abs(best.cc - bounds[family]) < 1e-12
        ok = ok and abs(pts[0].cc) < 0.02 and abs(pts[-1].cc) < 0.02
    # unbalanced rates: the minimum moves away from rate 5
    for family, pts in split(sweep_cc_vs_lambda2(1.0, 1.0 / 6.0, grid=l2_grid)).items():
        best = min(pts, key=lambda p: p.cc)
        at5 = next(p.cc for p in pts if p.param == 5.0)
        ok = ok and best.param != 5.0 and at5 > best.cc
    # service-rate sweep: minimum where the mean service matches the mean
    # interarrival gap; the bound is attained only for an even rate split
    for family, pts in split(sweep_cc_vs_service_rate(3.0, 3.0, grid=sr_grid)).items():
        best = min(pts, key=lambda p: p.cc)
        ok = ok and best.param == 6.0 and abs(best.cc - bounds[family]) < 1e-12
        ok = ok and abs(pts[0].cc) < 0.02 and abs(pts[-1].cc) < 0.02
    for family, pts in split(sweep_cc_vs_service_rate(1.0, 5.0, grid=sr_grid)).items():
        best = min(pts, key=lambda p: p.cc)
        ok = ok and best.param == 6.0 and best.cc > bounds[family] + 0.05
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    verdict(7, "correlation sweep minima and decay", ok, f"{elapsed * 1e3:.0f} ms")


def random_spec(rng, max_sources=4):
    K = int(rng.integers(1, max_sources + 1))
    rates = tuple(float(v) for v in rng.uniform(0.2, 4.0, K))
    services = []
    for _ in range(K):
        kind = rng.integers(0, 3)
        if kind == 0:
            services.append(Exponential(float(rng.uniform(0.5, 12.0))))
        elif kind == 1:
            services.append(Gamma(float(rng.uniform(0.3, 5.0)), float(rng.uniform(0.5, 12.0))))
        else:
            services.append(Deterministic(float(rng.uniform(0.01, 0.6))))
    return SystemSpec(rates=rates, services=tuple(services))


def test_acceptance_8_transform_invariants_on_random_systems():
    rng = np.random.default_rng(20240824)
    t0 = time.perf_counter()
    ok = True
    worst_marg = worst_fd = worst_add = 0.0
    for _ in range(100):
        spec = random_spec(rng)
        K = spec.num_sources
        ok = ok and abs(joint_aoi_laplace(spec, (0.0,) * K) - 1.0) < 1e-10
        s = tuple(float(v) for v in rng.uniform(0.1, 2.0, K))
        base = joint_aoi_laplace(spec, s)
        ok = ok and 0.0 < base <= 1.0
        for j in range(K):
            bumped = list(s)
            bumped[j] += 0.3
            ok = ok and joint_aoi_laplace(spec, tuple(bumped)) <= base + 1e-12
        if K > 1:
            # zeroing all but one coordinate leaves that source's
            # marginal transform within the same system
            keep = int(rng.integers(0, K))
            lone = [0.0] * K
            lone[keep] = s[keep]
            err = abs(
                joint_aoi_laplace(spec, tuple(lone))
                - marginal_aoi_laplace(spec, keep, s[keep])
            )
            worst_marg = max(worst_marg, err)
            ok = ok and err < 1e-10
        # transform derivative against a central finite difference
        model = spec.services[0]
        arg = spec.total_rate
        h = 1e-5 * max(1.0, arg)
        fd = (model.laplace(arg + h) - model.laplace(arg - h)) / (2.0 * h)
        exact = model.laplace_derivative(arg)
        worst_fd = max(worst_fd, abs(fd - exact) / abs(exact))
        ok = ok and abs(fd - exact) <= 1e-6 * abs(exact)
        # path integrals add over a segment split
        snap = AoISnapshot(rng.uniform(-1.0, 0.0, K), rng.uniform(0.0, 1.0, K))
        t1, tm, t2 = 0.2, 0.7, 1.3
        whole = segment_integral_exponential(snap, t1, t2, s)
        parts = segment_integral_exponential(snap, t1, tm, s) + segment_integral_exponential(
            snap, tm, t2, s
        )
        werr = abs(whole - parts) / whole
        w_m = segment_integral_moments(snap, t1, t2)
        p_m = segment_integral_moments(snap, t1, tm)
        q_m = segment_integral_moments(snap, tm, t2)
        for a, b, c in zip(w_m, p_m, q_m):
            werr = max(werr, float(np.max(np.abs(a - (b + c)) / np.abs(a))))
        worst_add = max(worst_add, werr)
        ok = ok and werr < 1e-12
    elapsed = time.perf_counter() - t0
    verdict(
        8,
        "transform and path-integral invariants, 100 random systems",
        ok,
        f"marg {worst_marg:.1e}, fd {worst_fd:.1e}, add {worst_add:.1e}, {elapsed:.1f}s",
    )


def test_acceptance_9_inverted_cdf_vs_empirical():
    spec = SystemSpec(rates=(2.0,), services=(Exponential(4.0),))
    grid = np.linspace(0.05, 5.0, 100)
    with warnings.catch_warnings():
        # the residual check is conservative deep in the upper tail; the
        # closed form for this system confirms ~1e-6 accuracy out to x=5
        warnings.simplefilter("ignore", InversionAccuracyWarning)
        inverted = marginal_aoi_cdf(spec, 0, grid)
    results = run_replications(spec, 63_000.0, 50.0, 16, 4242, (), cdf_grid=grid)
    total_time = sum(r.window_span for r in results)
    _, empirical = estimate_marginal_cdf(results, 0)
    distance = float(np.max(np.abs(inverted - empirical)))
    ok = total_time >= 1e6 and distance <= 0.005
    verdict(
        9,
        "numerically inverted age distribution vs empirical",
        ok,
        f"Kolmogorov {distance:.2e} over {total_time:.3g} time units",
    )
