"""Report labels: each side names its quantities once, in a frozen order,
and `compare` joins the simulated labels onto the analytic ones."""

import math

import pytest

from aoistats import simulator
from aoistats.analytics import SystemSpec, analytic_quantities, s_rows
from aoistats.experiments import compare
from aoistats.servicedist import Deterministic, Exponential, Gamma
from aoistats.simulator import simulate

K2 = SystemSpec(rates=(3.0, 3.0), services=(Exponential(6.0), Exponential(6.0)))
K3 = SystemSpec(
    rates=(1.0, 2.0, 3.0),
    services=(Exponential(6.0), Gamma(2.0, 12.0), Deterministic(0.1)),
)
GRID2 = ((0.0, 0.0), (0.5, 1.0))
GRID3 = ((1.0, 1.0, 1.0), (0.5, 1.0, 2.0))
RUN = dict(horizon=300.0, burn_in=10.0, replications=2, seed=3)


def source_labels(names, K):
    return [f"{name}[{k}]" for k in range(1, K + 1) for name in names]


ANALYTIC_PER_SOURCE = (
    "aoi_mean", "aoi_variance", "aoi_cv", "update_share", "update_rate", "delay_mean", "peak_mean"
)
PALM_PER_SOURCE = ("update_share", "update_rate", "delay_mean", "peak_mean")

ANALYTIC_K2 = [
    *source_labels(ANALYTIC_PER_SOURCE, 2),
    "departure_rate", "pushout_rate", "aoi_covariance", "aoi_correlation",
    "joint_laplace(0,0)", "joint_laplace(0.5,1)",
]
SIMULATED_K2 = [
    "joint_laplace(0,0)", "joint_laplace(0.5,1)",
    *source_labels(("aoi_mean", "aoi_variance"), 2),
    "aoi_correlation", "departure_rate", "pushout_rate",
    *source_labels(PALM_PER_SOURCE, 2),
]
ANALYTIC_K3 = [
    *source_labels(ANALYTIC_PER_SOURCE, 3),
    "departure_rate", "pushout_rate",
    "joint_laplace(1,1,1)", "joint_laplace(0.5,1,2)",
]
SIMULATED_K3 = [
    "joint_laplace(1,1,1)", "joint_laplace(0.5,1,2)",
    *source_labels(("aoi_mean", "aoi_variance"), 3),
    "departure_rate", "pushout_rate",
    *source_labels(PALM_PER_SOURCE, 3),
]


@pytest.mark.parametrize(
    "spec, grid, analytic, simulated",
    [(K2, GRID2, ANALYTIC_K2, SIMULATED_K2), (K3, GRID3, ANALYTIC_K3, SIMULATED_K3)],
)
def test_label_order_is_frozen_and_consistent(spec, grid, analytic, simulated):
    assert list(analytic_quantities(spec, grid)) == analytic
    report = simulate(spec, s_grid=grid, **RUN)
    assert list(report.quantities) == simulated
    assert [row.quantity for row in compare(spec, s_grid=grid, **RUN)] == simulated
    # every simulated quantity has a closed form to be gated against
    assert set(simulated) <= set(analytic)


def test_identical_s_rows_collapse():
    assert s_rows(K2, [(1, 1), (0.5, 2.0), (1.0, 1.0)]) == ((1.0, 1.0), (0.5, 2.0))
    labels = list(analytic_quantities(K2, [(1, 1), (0.5, 2), (1, 1)]))
    assert labels[-2:] == ["joint_laplace(1,1)", "joint_laplace(0.5,2)"]
    report = simulate(K2, s_grid=[(1, 1), (1.0, 1.0)], **RUN)
    assert report.s_grid == ((1.0, 1.0),)
    # -0 is 0, in the row and in its label, whichever spelling comes first
    for grid in ([(-0.0, 0.0)], [(0.0, 0.0), (-0.0, 0.0)], [(-0.0, 0.0), (0.0, -0.0)]):
        rows = s_rows(K2, grid)
        assert rows == ((0.0, 0.0),) and math.copysign(1.0, rows[0][0]) == 1.0
        assert list(analytic_quantities(K2, grid))[-1] == "joint_laplace(0,0)"
    assert list(simulate(K2, s_grid=[(-0.0, 0.0)], **RUN).quantities)[0] == "joint_laplace(0,0)"


def test_colliding_s_row_labels_are_rejected_before_simulating(monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("simulation started despite colliding labels")

    monkeypatch.setattr(simulator, "run_replications", must_not_run)
    for grid, message in (
        ([(0.1234567, 0.0), (0.1234568, 0.0)], r"share the label joint_laplace\(0.123457,0\)"),
        # each argument is finite, but their sum is not
        ([(1.0, 1.0), (1e308, 1e308)], "transform arguments overflow"),
    ):
        for call in (
            lambda: s_rows(K2, grid),
            lambda: analytic_quantities(K2, grid),
            lambda: simulate(K2, s_grid=grid, **RUN),
            lambda: compare(K2, s_grid=grid, **RUN),
        ):
            with pytest.raises(ValueError, match=message):
                call()
