"""Tests of the benchmark itself: exact counts repeat, and the parallel
workload computes what the serial one does.

    python -m pytest perfbench
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import workloads  # noqa: E402
from run import PER_LAYER  # noqa: E402

# measured per-layer values; every other per-layer metric is an exact count
MEASURED_UNITS = ("s", "MiB")


def traced_run(name: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        check=True,
        capture_output=True,
        text=True,
        timeout=300,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", list(workloads.WHY))
def test_traced_counts_repeat_exactly(name):
    first, second = traced_run(name, 5), traced_run(name, 5)
    exact = [k for k, unit in PER_LAYER.items() if unit not in MEASURED_UNITS]
    counts = {k: first["metrics"][k]["value"] for k in exact}
    assert counts == {k: second["metrics"][k]["value"] for k in exact}
    assert counts["simulator.arrivals"] > 0
    assert counts["simulator.palm_records"] > 0
    if name == "gate-k8-par":
        assert counts["simulator.transfer_bytes_per_rep"] > 0
        assert counts["analytics.joint_aoi_laplace.calls"] > 0
    if name == "cdf-long":
        assert counts["analytics.marginal_aoi_cdf.points"] == 400
        assert counts["servicedist.laplace_complex.calls"] > 0


def test_compare_rows_do_not_depend_on_worker_count():
    gate = workloads.setup("gate-k8-par")
    cfg = gate.cfg

    def rows(workers):
        out = gate.experiments.compare(
            cfg.spec, horizon=3000.0, replications=4, seed=17, s_grid=cfg.s_grid, workers=workers
        )
        return [repr(dataclasses.astuple(r)) for r in out]

    assert rows(1) == rows(2)
