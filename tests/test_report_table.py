"""The report table: each quantity is named once, with its closed form and
either how the simulation estimates it or the analytic-only mark."""

import dataclasses
import re
from pathlib import Path

from aoistats import analytics
from aoistats.analytics import AoIStatistics, SystemSpec, analytic_quantities
from aoistats.servicedist import Exponential
from aoistats.simulator import simulate

SRC = Path(__file__).resolve().parent.parent / "src" / "aoistats"
FIELDS = {f.name for f in dataclasses.fields(AoIStatistics)}


def test_every_entry_has_an_estimator_or_the_analytic_only_mark():
    for q in analytics._QUANTITIES:
        assert q.scope in analytics._SCOPES, q.name
        assert callable(q.closed) or q.closed in FIELDS, q.name
        # at most one estimate kind: a time average g or a Palm ratio
        assert q.average is None or q.palm is None, q.name
        assert all(f is None or callable(f) for f in (q.average, q.palm)), q.name


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
    marked = [q for q in analytics._QUANTITIES if q.average is None and q.palm is None]
    assert {q.name for q in marked} == {"aoi_cv", "aoi_covariance"}
    assert set(simulated) <= set(analytic)
