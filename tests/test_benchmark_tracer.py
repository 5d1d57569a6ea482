"""The benchmark's tracer (perfbench/tracer.py) runs against this package.

The tracer wraps every function in each module's `__all__`,
`PathAccumulator.add_segments`, each service family's `sample` and
`ServiceTimeModel.laplace_complex`, and reads `records` (its length,
`covered` and `gap`) and `counts.arrivals` on every replication result.
A traced benchmark op that raises counts as failed, so a change that
drops any of these shows here, in the tier-1 suite, and not only in a
traced benchmark run.  The benchmark's workloads (perfbench/workloads.py)
are run here too, one checked op each, for the same reason.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from aoistats import analytics, simulator
from aoistats.analytics import SystemSpec
from aoistats.servicedist import Deterministic, Gamma

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    # a dataclass looks its module up in sys.modules while it is defined
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def test_traced_replications_and_estimators_run(monkeypatch):
    system = SystemSpec(rates=(2.0, 1.0), services=(Gamma(2.0, 8.0), Deterministic(0.2)))
    originals = (simulator.simulate, simulator.run_replications, simulator.PathAccumulator.add_segments)
    # workers forked while the tracer is installed keep its wrappers, so
    # their pool serves this test only
    monkeypatch.setattr(simulator, "_pool", None)
    tracer = load("perfbench_tracer", PERFBENCH / "tracer.py").Tracer()
    tracer.install()
    try:
        tracer.recording = True
        args = (system, 200.0, 10.0, 2, 3, ((1.0, 1.0),), np.linspace(0.1, 2.0, 5))
        results = simulator.run_replications(*args, workers=2)
        serial = simulator.run_replications(*args, workers=1)  # its records are built on read too
        report = simulator.simulate(system, 200.0, 10.0, 2, 3, ((1.0, 1.0),), workers=2)
        _, empirical = simulator.estimate_marginal_cdf(results, 0)
        analytics.marginal_aoi_cdf(system, 0, 1.0)
    finally:
        tracer.recording = False
        tracer.uninstall()
        if simulator._pool is not None:
            simulator._pool[2].shutdown()
    assert (simulator.simulate, simulator.run_replications, simulator.PathAccumulator.add_segments) == originals
    assert report.quantities["departure_rate"].value > 0 and np.all(np.diff(empirical) >= 0)
    assert [len(r.records) for r in serial] == [len(r.records) for r in results]
    counts = tracer.counts
    assert counts["simulator.palm_records"] > 0 and counts["simulator.arrivals"] > 0
    assert counts["simulator.palm_valid_records"] > 0 and counts["servicedist.laplace_complex.calls"] > 0
    for key in ("simulator.run_replications", "simulator.simulate", "simulator.estimate_marginal_cdf"):
        assert tracer.totals[key] > 0.0, key


@pytest.mark.parametrize("name", ["gate-k8-par", "cdf-long"])
def test_benchmark_workload_op_passes_its_check(name):
    workloads = load("perfbench_workloads", PERFBENCH / "workloads.py")
    op = workloads.setup(name)
    verdict = op.check(op(6001))
    assert verdict.passed, verdict.detail
