"""The benchmark's workloads.

Each workload is a closed loop of ops with one client: op i runs with
seed `seed + i` and starts only when op i-1 has returned.  `setup`
imports aoistats, builds the workload's spec through the config grammar
and returns the op: calling it with a seed runs one op, its `check`
method verifies that op's output, and its `run_check` method verifies
what the run's checked ops show together.  Nothing here imports numpy or
aoistats at module level, so the caller can time the import as part of
set-up.
"""

from __future__ import annotations

import math
import os
import re
import warnings
from dataclasses import dataclass

WHY = {
    "gate-k2": "the README's headline `aoistats compare` run, serial: replications and the Palm transform estimator",
    "gate-k8-par": "8 sources of every service family with 2 workers: K! joint transform, 8-column Palm sort, pickled results",
    "cdf-long": "largest arrays and a 200-point CDF grid: occupancy, Talbot inversion and the sweeps; no Palm, no pool",
}

_SOURCES = {
    "gate-k2": ["3.0 exp(6)", "3.0 exp(6)"],
    "gate-k8-par": [
        "1.0 exp(6)",
        "0.8 gamma(2, 12)",
        "0.6 det(0.15)",
        "0.5 mix(0.5*exp(10), 0.5*det(0.1))",
        "0.4 exp(8)",
        "0.3 gamma(0.5, 3)",
        "0.25 det(0.1)",
        "0.15 gamma(4, 24)",
    ],
    "cdf-long": ["2.0 gamma(2, 8)", "1.0 det(0.2)"],
}
# the default s-grid for K sources (simulator.default_s_grid) scaled by 1/20
_K8_S_GRID = "; ".join(
    ",".join(f"{v:g}" for v in row)
    for row in [
        (0.0,) * 8,
        (0.025,) * 8,
        (0.05,) * 8,
        (0.1,) * 8,
        tuple((0.025, 0.05, 0.1)[i % 3] for i in range(8)),
        (0.15,) * 8,
    ]
)
_RUN_KEYS = {
    "gate-k2": {"horizon": "1e4", "replications": "32"},
    "gate-k8-par": {"horizon": "2e4", "replications": "16", "s_grid": _K8_S_GRID},
    "cdf-long": {"horizon": "2e5", "burn_in": "50", "replications": "4"},
}
_GATE_WORKERS = {"gate-k2": 1, "gate-k8-par": 2}

# acceptance test 9's bound on the Kolmogorov distance between the
# inverted and the empirical age distribution
KS_BOUND = 0.005

# Gate checks, in batch standard errors.  The CLI's own rule (3 stderr
# per row, one retry) fails by chance on about one gate-k8-par op in ten,
# far too often for hundreds of checked ops.  Each op must instead keep
# every row within OP_Z_BOUND, and the run must keep, for every quantity,
# the difference summed over its distinct attempts within RUN_Z_BOUND of
# its pooled stderr.  A row's z-score spreads by up to 1.35 across seeds, so
# by chance neither check fails once in the benchmark's runs; a bias of
# two stderr per attempt still fails a run of ten ops.
OP_Z_BOUND = 10.0
RUN_Z_BOUND = 6.0


def config_text(name: str) -> str:
    lines = [f"source = {s}" for s in _SOURCES[name]]
    lines += [f"{key} = {value}" for key, value in _RUN_KEYS[name].items()]
    return "\n".join(lines) + "\n"


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@dataclass
class Verdict:
    """An op's check result, and the values reported beside the timings."""

    passed: bool
    detail: str
    attempts: int = 1
    max_abs_z: float = 0.0
    inversion_warnings: int = 0
    cli_passed: bool = True


class Gate:
    """`experiments.compare_with_retry`, which `aoistats compare` runs.

    An op passes if every row of its last attempt is finite and within
    OP_Z_BOUND; whether the CLI's 3-sigma rule passed is reported beside
    it.  `run_check` pools the distinct attempts of the run's checked ops.
    """

    def __init__(self, cfg, workers: int):
        from aoistats import experiments

        self.experiments = experiments
        self.cfg = cfg
        self.workers = workers
        self.attempts = {}  # seed of a returned attempt -> its rows

    def __call__(self, seed: int):
        cfg = self.cfg
        rows, passed, attempts = self.experiments.compare_with_retry(
            cfg.spec,
            horizon=cfg.horizon,
            burn_in=cfg.burn_in,
            replications=cfg.replications,
            seed=seed,
            s_grid=cfg.s_grid or None,
            workers=self.workers,
        )
        # a retry runs with the next seed, which the next op starts with
        return rows, passed, attempts, seed + attempts - 1

    def check(self, output) -> Verdict:
        rows, cli_passed, attempts, last_seed = output
        self.attempts[last_seed] = rows
        outside = [
            f"{r.quantity} z={r.z:.2f}"
            for r in rows
            if not (math.isfinite(r.simulated) and math.isfinite(r.stderr) and abs(r.z) <= OP_Z_BOUND)
        ]
        max_abs_z = max((abs(r.z) for r in rows if math.isfinite(r.z)), default=math.nan)
        cli = "CLI gate passed" if cli_passed else "CLI gate failed after its retry"
        detail = f"max|z| {max_abs_z:.2f}, {cli}"
        if outside:
            detail += f"; beyond {OP_Z_BOUND:g} stderr: " + "; ".join(outside)
        return Verdict(
            passed=not outside,
            detail=detail,
            attempts=attempts,
            max_abs_z=max_abs_z,
            cli_passed=cli_passed,
        )

    def run_check(self) -> Verdict:
        """Pool each quantity over the distinct attempts checked so far.

        Rows that agree exactly (no sampling noise, stderr at rounding
        level) carry no stderr to pool and are left to the op check.
        """
        diff, var = {}, {}
        for rows in self.attempts.values():
            for r in rows:
                floor = 1e-12 * max(1.0, abs(r.analytic))
                if r.stderr > floor:
                    diff[r.quantity] = diff.get(r.quantity, 0.0) + (r.simulated - r.analytic)
                    var[r.quantity] = var.get(r.quantity, 0.0) + r.stderr**2
        pooled = {q: diff[q] / math.sqrt(var[q]) for q in diff}
        worst = max(pooled, key=lambda q: abs(pooled[q]))
        outside = [f"{q} z={z:.2f}" for q, z in pooled.items() if not abs(z) <= RUN_Z_BOUND]
        detail = f"{len(self.attempts)} attempts pooled, largest |z| {abs(pooled[worst]):.2f} ({worst})"
        if outside:
            detail += f"; beyond {RUN_Z_BOUND:g} stderr: " + "; ".join(outside)
        return Verdict(passed=not outside, detail=detail)


class CdfLong:
    """Replications with a CDF grid, the empirical and the inverted CDF of
    both sources on that grid, and both default correlation sweeps.

    The check bounds the Kolmogorov distance between the two CDFs by
    KS_BOUND and requires cc_lower_bound(family) <= cc <= 0 at every
    sweep point.
    """

    def __init__(self, cfg):
        import numpy as np

        from aoistats import analytics, experiments, simulator

        self.analytics = analytics
        self.experiments = experiments
        self.simulator = simulator
        self.cfg = cfg
        self.grid = np.linspace(0.05, 6.0, 200)

    def __call__(self, seed: int):
        cfg, an, ex = self.cfg, self.analytics, self.experiments
        results = self.simulator.run_replications(
            cfg.spec, cfg.horizon, cfg.burn_in, cfg.replications, seed, (), cdf_grid=self.grid
        )
        cdfs = []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", an.InversionAccuracyWarning)
            for k in range(cfg.spec.num_sources):
                _, empirical = self.simulator.estimate_marginal_cdf(results, k)
                cdfs.append((empirical, an.marginal_aoi_cdf(cfg.spec, k, self.grid)))
        n_warnings = sum(issubclass(w.category, an.InversionAccuracyWarning) for w in caught)
        sweeps = ex.sweep_cc_vs_lambda2(1.0, 1.0) + ex.sweep_cc_vs_service_rate(1.0, 1.0)
        return cdfs, n_warnings, sweeps

    def check(self, output) -> Verdict:
        cdfs, n_warnings, sweeps = output
        distances = [float(abs(inverted - empirical).max()) for empirical, inverted in cdfs]
        outside = [p for p in sweeps if not (_cc_bound(self.analytics, p.family) <= p.cc <= 0.0)]
        detail = "Kolmogorov " + ", ".join(f"{d:.2e}" for d in distances)
        if outside:
            detail += f"; {len(outside)} sweep points outside [bound, 0], first {outside[0]}"
        return Verdict(
            passed=all(d <= KS_BOUND for d in distances) and not outside,
            detail=detail,
            inversion_warnings=n_warnings,
        )

    def run_check(self) -> Verdict:
        return Verdict(passed=True, detail="every op checked on its own")


def _cc_bound(analytics, family: str) -> float:
    if family == "deterministic":
        return analytics.cc_lower_bound("deterministic")
    if family == "exponential":
        return analytics.cc_lower_bound("gamma", 1.0)
    shape = re.fullmatch(r"gamma\((.+)\)", family)
    if shape is None:
        raise ValueError(f"no correlation bound for family {family!r}")
    return analytics.cc_lower_bound("gamma", float(shape.group(1)))


def setup(name: str):
    """Import aoistats, parse the workload's config and return its op.

    A gate never starts more workers than there are usable cores.
    """
    from aoistats import config

    cfg = config.parse_config(config_text(name))
    if name == "cdf-long":
        return CdfLong(cfg)
    return Gate(cfg, min(_GATE_WORKERS[name], nproc()))
