"""The report table: each quantity is named once, with its closed form and
either how the simulation estimates it or the analytic-only mark."""

import re
from pathlib import Path

import numpy as np

from aoistats import analytics, simulator
from aoistats.analytics import SystemSpec, analytic_quantities
from aoistats.servicedist import Deterministic, Exponential, Gamma
from aoistats.simulator import run_replications, simulate

SRC = Path(__file__).resolve().parent.parent / "src" / "aoistats"


def test_every_entry_has_an_estimator_or_the_analytic_only_mark():
    for q in analytics._QUANTITIES:
        assert q.scope in analytics._SCOPES, q.name
        assert callable(q.closed) and (q.estimate is None or callable(q.estimate)), q.name
    # the one rule reads every simulated row's g as one value per
    # replication on the stacked sums and a scalar on the pooled sums; a
    # two-source system gives the pair rows too
    for spec in (
        SystemSpec(rates=(1.0, 2.0, 3.0), services=(Exponential(6.0), Gamma(2.0, 12.0), Deterministic(0.1))),
        SystemSpec(rates=(1.0, 2.0), services=(Gamma(2.0, 12.0), Deterministic(0.1))),
    ):
        rows = analytics.s_rows(spec)
        pooled, stacked = simulator._run_sums(run_replications(spec, 200.0, 10.0, 3, 5, rows))
        table = analytics._report_rows(analytics._QUANTITIES, spec.num_sources, rows)
        simulated = [(q, i) for q, i in table if q.estimate is not None]
        scopes = set(analytics._SCOPES) if spec.num_sources == 2 else set(analytics._SCOPES) - {"pair"}
        assert {q.scope for q, _ in simulated} == scopes
        for q, i in simulated:
            assert np.shape(q.estimate(stacked, i)) == (3,), q.label(i)
            assert np.ndim(q.estimate(pooled, i)) == 0, q.label(i)


class ReadNames:
    """A run's sums that record the name of every attribute read from them."""

    def __init__(self, sums):
        self.sums, self.names = sums, set()

    def __getattr__(self, name):
        self.names.add(name)
        return getattr(self.sums, name)


def test_every_estimate_reads_only_the_accumulator_sums():
    # a row's g reads the run's window sums, each a field of the
    # accumulator and so in _SUMS, and the s-grid that indexes them; a sum
    # kept anywhere else would not be pooled and stacked by _run_sums
    spec = SystemSpec(rates=(1.0, 2.0), services=(Gamma(2.0, 12.0), Deterministic(0.1)))
    rows = analytics.s_rows(spec)
    pooled, _ = simulator._run_sums(run_replications(spec, 200.0, 10.0, 3, 5, rows))
    for q, i in analytics._report_rows(analytics._QUANTITIES, spec.num_sources, rows):
        if q.estimate is not None:
            sums = ReadNames(pooled)
            q.estimate(sums, i)
            assert sums.names and sums.names <= {*simulator._SUMS, "s_grid"}, (q.label(i), sums.names)


def test_each_label_name_is_written_once_in_the_source():
    names = [q.name for q in analytics._QUANTITIES]
    assert len(set(names)) == len(names)
    text = "".join(path.read_text() for path in SRC.glob("*.py"))
    text = re.sub(r"__all__ = \[.*?\]", "", text, flags=re.S)  # where a public function shares a name
    for name in names:
        assert len(re.findall(f"[\"']{name}[\"']", text)) == 1, name


def test_simulated_rows_are_the_table_rows_not_marked_analytic_only():
    spec = SystemSpec(rates=(3.0, 3.0), services=(Exponential(6.0), Exponential(6.0)))
    grid = ((0.5, 1.0),)
    analytic = analytic_quantities(spec, grid)
    simulated = simulate(spec, horizon=300.0, burn_in=10.0, replications=2, seed=3, s_grid=grid).quantities
    only = {label for label in analytic if label not in simulated}
    assert only == {"aoi_cv[1]", "aoi_cv[2]", "aoi_covariance"}
    marked = [q for q in analytics._QUANTITIES if q.estimate is None]
    assert {q.name for q in marked} == {"aoi_cv", "aoi_covariance"}
    assert set(simulated) <= set(analytic)
