import csv
import math

import numpy as np
import pytest

from aoistats import experiments, simulator
from aoistats.analytics import SystemSpec, aoi_correlation, cc_lower_bound
from aoistats.experiments import (
    ComparisonRow,
    compare,
    compare_with_retry,
    comparison_passed,
    family_model,
    sweep_cc_vs_lambda2,
    sweep_cc_vs_service_rate,
    write_comparison_csv,
    write_sweep_csv,
)
from aoistats.servicedist import Deterministic, Exponential, Gamma
from service_oracles import service_mean

# grids anchored on the balanced operating points so the extremes and the
# exact minima are both represented
L2_GRID = tuple(sorted(set(np.geomspace(1e-3, 50.0, 40)) | {3.0, 5.0}))
SR_GRID = tuple(sorted(set(np.geomspace(0.05, 1000.0, 40)) | {6.0}))

FAMILY_BOUNDS = {
    "exponential": -1.0 / 6.0,
    "gamma(0.5)": cc_lower_bound("gamma", 0.5),
    "gamma(2)": cc_lower_bound("gamma", 2.0),
    "deterministic": cc_lower_bound("deterministic"),
}


def by_family(points):
    out = {}
    for p in points:
        out.setdefault(p.family, []).append(p)
    return out


def sign_flips(values):
    signs = np.sign(np.diff(values))
    signs = signs[signs != 0]
    return int(np.sum(signs[1:] != signs[:-1]))


# --- family tags -------------------------------------------------------------


def test_family_model_construction():
    m = family_model("exponential", 0.25)
    assert isinstance(m, Exponential) and m.rate == 4.0
    m = family_model("deterministic", 0.25)
    assert isinstance(m, Deterministic) and m.value == 0.25
    m = family_model("gamma(2)", 0.25)
    assert isinstance(m, Gamma) and m.shape == 2.0 and m.rate == 8.0
    assert service_mean(m) == pytest.approx(0.25)
    # tags tolerate case and padding
    assert isinstance(family_model(" GAMMA( 0.5 ) ", 1.0), Gamma)


@pytest.mark.parametrize("tag", ["weibull", "gamma(x)", "gamma()", "gamma", "exp"])
def test_family_model_rejects_unknown_tags(tag):
    with pytest.raises(ValueError):
        family_model(tag, 1.0)


@pytest.mark.parametrize("mean", [0.0, -1.0, math.inf, math.nan])
def test_family_model_rejects_bad_mean(mean):
    with pytest.raises(ValueError):
        family_model("exponential", mean)


def test_gamma_one_is_exponential():
    for lam2 in (0.5, 3.0, 20.0):
        spec_g = SystemSpec(
            rates=(3.0, lam2), services=(family_model("gamma(1)", 1 / 6),) * 2
        )
        spec_e = SystemSpec(
            rates=(3.0, lam2), services=(family_model("exponential", 1 / 6),) * 2
        )
        assert aoi_correlation(spec_g) == pytest.approx(aoi_correlation(spec_e), rel=1e-12)


# --- sweep grids -------------------------------------------------------------


@pytest.mark.parametrize(
    "grid", [(1.0,), (1.0, -2.0), (2.0, 1.0), (1.0, 1.0), (1.0, math.inf)]
)
def test_sweep_rejects_bad_grids(grid):
    with pytest.raises(ValueError):
        sweep_cc_vs_lambda2(3.0, 1 / 6, grid=grid)


def test_lambda2_sweep_balanced_minimum():
    points = by_family(sweep_cc_vs_lambda2(3.0, 1.0 / 6.0, grid=L2_GRID))
    for family, pts in points.items():
        ccs = np.array([p.cc for p in pts])
        assert np.all((ccs <= 0.0) & (ccs >= -1.0))
        best = pts[int(np.argmin(ccs))]
        # the dip bottoms out exactly where the rates match and the mean
        # service equals the mean interarrival gap
        assert best.param == 3.0
        assert best.cc == pytest.approx(FAMILY_BOUNDS[family], abs=1e-12)
        assert np.min(ccs) >= FAMILY_BOUNDS[family] - 1e-12
        # one descent, one ascent
        assert sign_flips(ccs) == 1
        # correlation fades at both extremes of the rate axis
        assert abs(ccs[0]) < 0.02
        assert abs(ccs[-1]) < 0.02


def test_lambda2_sweep_unbalanced_is_shallower():
    balanced = by_family(sweep_cc_vs_lambda2(3.0, 1.0 / 6.0, grid=L2_GRID))
    skewed = by_family(sweep_cc_vs_lambda2(1.0, 1.0 / 6.0, grid=L2_GRID))
    for family in FAMILY_BOUNDS:
        min_bal = min(p.cc for p in balanced[family])
        min_skew = min(p.cc for p in skewed[family])
        assert min_skew > min_bal
        # pushing the second source well past the optimum costs correlation
        at5 = next(p.cc for p in skewed[family] if p.param == 5.0)
        assert at5 - min_skew >= 0.025


def test_service_rate_sweep_balanced_minimum():
    points = by_family(sweep_cc_vs_service_rate(3.0, 3.0, grid=SR_GRID))
    for family, pts in points.items():
        ccs = np.array([p.cc for p in pts])
        best = pts[int(np.argmin(ccs))]
        assert best.param == 6.0
        assert best.cc == pytest.approx(FAMILY_BOUNDS[family], abs=1e-12)
        assert sign_flips(ccs) == 1
        assert abs(ccs[0]) < 0.02
        assert abs(ccs[-1]) < 0.02


def test_service_rate_sweep_skewed_split_stays_above_bound():
    points = by_family(sweep_cc_vs_service_rate(1.0, 5.0, grid=SR_GRID))
    for family, pts in points.items():
        min_cc = min(p.cc for p in pts)
        assert min_cc >= FAMILY_BOUNDS[family] + 0.05


def test_sweep_csv_round_trip(tmp_path):
    points = sweep_cc_vs_lambda2(3.0, 1.0 / 6.0, families=("exponential",), grid=(1.0, 3.0, 9.0))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_sweep_csv(points, p1)
    write_sweep_csv(points, p2)
    assert p1.read_bytes() == p2.read_bytes()
    with open(p1) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    assert list(rows[0]) == ["param", "family", "cc"]
    for row, point in zip(rows, points):
        assert float(row["param"]) == point.param
        assert row["family"] == point.family
        assert float(row["cc"]) == point.cc


# --- analytic vs simulation gate ---------------------------------------------


def test_compare_gate_passes_on_anchor_system():
    spec = SystemSpec(rates=(3.0, 3.0), services=(Exponential(6.0), Exponential(6.0)))
    rows, passed, attempts = compare_with_retry(spec, horizon=1e4, replications=32, seed=112358)
    assert passed and attempts == 1
    assert comparison_passed(rows)
    assert len(rows) == 21
    names = {r.quantity for r in rows}
    for expected in (
        "joint_laplace(0,0)",
        "aoi_mean[1]",
        "aoi_variance[2]",
        "aoi_correlation",
        "departure_rate",
        "pushout_rate",
        "update_share[1]",
        "update_rate[2]",
        "delay_mean[1]",
        "peak_mean[2]",
    ):
        assert expected in names
    zero_row = next(r for r in rows if r.quantity == "joint_laplace(0,0)")
    assert zero_row.z == 0.0 and zero_row.stderr == 0.0 and zero_row.passed
    for r in rows:
        assert math.isfinite(r.z)
        assert abs(r.z) <= 3.0


def test_compare_row_edge_cases():
    from aoistats.simulator import Estimate

    exact = experiments._row("q", 1.0, Estimate(1.0, 0.0, 8))
    assert exact.z == 0.0 and exact.passed
    off = experiments._row("q", 1.0, Estimate(1.5, 0.0, 8))
    assert math.isinf(off.z) and not off.passed
    broken = experiments._row("q", 1.0, Estimate(math.nan, 0.1, 8))
    assert not broken.passed
    # deterministic quantities leave only rounding noise in the batch
    # stderr; 12-digit agreement must not be scored as a blowout
    noise = experiments._row("q", 0.1, Estimate(0.1 + 1e-17, 4e-18, 8))
    assert noise.z == 0.0 and noise.passed


def test_compare_retry_uses_fresh_seed(monkeypatch):
    calls = []

    def fake_compare(spec, **kwargs):
        calls.append(kwargs)
        passed = len(calls) > 1
        return [ComparisonRow("q", 1.0, 1.0, 0.1, 0.0, passed)]

    monkeypatch.setattr(experiments, "compare", fake_compare)
    spec = SystemSpec(rates=(1.0,), services=(Exponential(2.0),))
    settings = {"horizon": 10.0, "burn_in": 2.0, "replications": 4, "s_grid": ((0.5,),), "workers": 3}
    rows, passed, attempts = compare_with_retry(spec, seed=40, **settings)
    assert passed and attempts == 2
    assert calls == [{**settings, "seed": 40}, {**settings, "seed": 41}]
    # a setting after `spec` is never taken for the seed
    with pytest.raises(TypeError):
        compare_with_retry(spec, 1e4)
    assert len(calls) == 2


def test_compare_checks_closed_forms_before_simulating(monkeypatch):
    calls = []
    original = simulator.run_replications

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(simulator, "run_replications", spy)
    spec = SystemSpec(rates=(1.0,) * 17, services=(Exponential(50.0),) * 17)
    with pytest.raises(ValueError, match="above the cap of 16"):
        experiments.compare(spec, horizon=10.0, burn_in=1.0, replications=2)
    assert calls == []


def test_comparison_csv_round_trip(tmp_path):
    rows = [
        ComparisonRow("aoi_mean[1]", 2.0 / 3.0, 0.6671, 0.002, 0.2, True),
        ComparisonRow("pushout_rate", 3.0, 3.4, 0.1, 4.0, False),
    ]
    path = tmp_path / "cmp.csv"
    write_comparison_csv(rows, path)
    with open(path) as fh:
        got = list(csv.DictReader(fh))
    assert list(got[0]) == ["quantity", "analytic", "simulated", "stderr", "z", "pass"]
    assert got[0]["quantity"] == "aoi_mean[1]"
    assert float(got[0]["analytic"]) == 2.0 / 3.0
    assert got[0]["pass"] == "true"
    assert got[1]["pass"] == "false"
