"""Parameter sweeps and analytic-vs-simulation comparison harness.

The two sweeps trace the age correlation coefficient of a two-source
system along the axes that matter: the second source's arrival rate (at
fixed common service law) and the common service rate (at fixed arrival
rates), each for a set of service families sharing the same mean.
"""

from __future__ import annotations

import csv
import math
import os
import re
from dataclasses import dataclass

import numpy as np

from . import analytics, simulator
from .analytics import SystemSpec
from .servicedist import Deterministic, Exponential, Gamma, ServiceTimeModel

__all__ = [
    "DEFAULT_FAMILIES",
    "DEFAULT_LAMBDA2_GRID",
    "DEFAULT_SERVICE_RATE_GRID",
    "SweepPoint",
    "ComparisonRow",
    "family_model",
    "sweep_cc_vs_lambda2",
    "sweep_cc_vs_service_rate",
    "write_csv",
    "write_sweep_csv",
    "compare",
    "comparison_passed",
    "compare_with_retry",
    "write_comparison_csv",
]

DEFAULT_FAMILIES = ("exponential", "gamma(0.5)", "gamma(2)", "deterministic")
DEFAULT_LAMBDA2_GRID = tuple(np.geomspace(0.05, 50.0, 60))
DEFAULT_SERVICE_RATE_GRID = tuple(np.geomspace(0.1, 100.0, 60))

_GAMMA_TAG = re.compile(r"^gamma\(\s*([^)]+?)\s*\)$")


def family_model(tag: str, mean_service: float) -> ServiceTimeModel:
    """Service model of family `tag` with mean E[S] = mean_service.

    Tags: "exponential", "deterministic", or "gamma(alpha)".
    """
    if not (math.isfinite(mean_service) and mean_service > 0):
        raise ValueError(f"mean service time must be positive and finite, got {mean_service}")
    tag = tag.strip().lower()
    if tag == "exponential":
        return Exponential(1.0 / mean_service)
    if tag == "deterministic":
        return Deterministic(mean_service)
    m = _GAMMA_TAG.match(tag)
    if m:
        try:
            alpha = float(m.group(1))
        except ValueError:
            raise ValueError(f"bad gamma shape in family tag {tag!r}") from None
        return Gamma(alpha, alpha / mean_service)
    raise ValueError(
        f"unknown family tag {tag!r}; expected 'exponential', 'deterministic', or 'gamma(alpha)'"
    )


@dataclass(frozen=True)
class SweepPoint:
    param: float
    family: str
    cc: float


def _check_grid(grid) -> list[float]:
    vals = [float(v) for v in grid]
    if len(vals) < 2:
        raise ValueError("sweep grid needs at least 2 points")
    for v in vals:
        if not (math.isfinite(v) and v > 0):
            raise ValueError(f"sweep grid values must be positive and finite, got {v}")
    if any(b <= a for a, b in zip(vals, vals[1:])):
        raise ValueError("sweep grid must be strictly increasing")
    return vals


def sweep_cc_vs_lambda2(
    lambda1: float,
    mean_service: float,
    families=DEFAULT_FAMILIES,
    grid=DEFAULT_LAMBDA2_GRID,
) -> list[SweepPoint]:
    """Age correlation against the second source's rate, per family.

    Both sources share the family's service law with mean `mean_service`;
    source 1 keeps rate `lambda1` while source 2 takes each grid value.
    """
    grid = _check_grid(grid)
    points = []
    for family in families:
        model = family_model(family, mean_service)
        for lam2 in grid:
            spec = SystemSpec(rates=(lambda1, lam2), services=(model, model))
            points.append(SweepPoint(param=lam2, family=family, cc=analytics.aoi_correlation(spec)))
    return points


def sweep_cc_vs_service_rate(
    lambda1: float,
    lambda2: float,
    families=DEFAULT_FAMILIES,
    grid=DEFAULT_SERVICE_RATE_GRID,
) -> list[SweepPoint]:
    """Age correlation against the common service rate 1/E[S], per family."""
    grid = _check_grid(grid)
    points = []
    for family in families:
        for rate in grid:
            model = family_model(family, 1.0 / rate)
            spec = SystemSpec(rates=(lambda1, lambda2), services=(model, model))
            points.append(SweepPoint(param=rate, family=family, cc=analytics.aoi_correlation(spec)))
    return points


def write_csv(target, header, rows) -> None:
    """Write `header` and `rows` as CSV to a path or an open text stream.

    Strings are written as they are and numbers as `repr(float(x))`, so
    reading them back gives the exact values.
    """
    if isinstance(target, (str, os.PathLike)):
        with open(target, "w", newline="") as fh:
            write_csv(fh, header, rows)
        return
    writer = csv.writer(target)
    writer.writerow(header)
    for row in rows:
        writer.writerow([c if isinstance(c, str) else repr(float(c)) for c in row])


def write_sweep_csv(points, path) -> None:
    """Write sweep points as `param,family,cc` to a path or an open text stream."""
    write_csv(path, ("param", "family", "cc"), ((p.param, p.family, p.cc) for p in points))


# ---------------------------------------------------------------------------
# analytic vs simulation comparison


@dataclass(frozen=True)
class ComparisonRow:
    quantity: str
    analytic: float
    simulated: float
    stderr: float
    z: float
    passed: bool


def _row(quantity: str, analytic_value: float, est: simulator.Estimate, threshold: float) -> ComparisonRow:
    if not (math.isfinite(est.value) and math.isfinite(est.stderr)):
        return ComparisonRow(quantity, analytic_value, est.value, est.stderr, math.nan, False)
    diff = est.value - analytic_value
    # a quantity with no sampling noise (say, a deterministic delay)
    # collapses the batch stderr to rounding level, where z-scores are
    # meaningless; agreement to 12 digits counts as exact instead
    floor = 1e-12 * max(1.0, abs(analytic_value))
    if est.stderr <= floor:
        z = 0.0 if abs(diff) <= floor else math.inf
    else:
        z = diff / est.stderr
    return ComparisonRow(quantity, analytic_value, est.value, est.stderr, z, abs(z) <= threshold)


def compare(
    spec: SystemSpec,
    horizon: float,
    burn_in: float | None = None,
    replications: int = simulator.DEFAULT_REPLICATIONS,
    seed: int = simulator.DEFAULT_SEED,
    s_grid=None,
    z_threshold: float = 3.0,
    workers: int = 1,
) -> list[ComparisonRow]:
    """Simulate `spec` and line up every estimate with its closed form.

    Covers the time-average joint transform on the grid, per-source means
    and variances, the correlation coefficient (two sources),
    departure/pushout rates, update shares and rates, and the
    per-delivery delay and peak means; each row carries the z-score
    (difference over batch stderr) and a pass mark at `z_threshold`.
    """
    report = simulator.simulate(
        spec,
        horizon=horizon,
        burn_in=burn_in,
        replications=replications,
        seed=seed,
        s_grid=s_grid,
        workers=workers,
    )
    analytic = analytics.analytic_quantities(spec, report.s_grid)
    return [_row(label, analytic[label], est, z_threshold) for label, est in report.quantities.items()]


def comparison_passed(rows) -> bool:
    return all(r.passed for r in rows)


def compare_with_retry(
    spec: SystemSpec,
    horizon: float,
    burn_in: float | None = None,
    replications: int = simulator.DEFAULT_REPLICATIONS,
    seed: int = simulator.DEFAULT_SEED,
    s_grid=None,
    z_threshold: float = 3.0,
    workers: int = 1,
    retries: int = 1,
) -> tuple[list[ComparisonRow], bool, int]:
    """Run `compare`, once more with a fresh seed if the gate fails.

    Every row is gated on its own, so a single run's chance of a false
    alarm grows with the row count: 21 rows for two sources on the
    default s-grid, 56 for eight sources on six s-rows.  One independent
    retry makes a false alarm much rarer, while a real discrepancy still
    fails both runs.
    Returns (rows of the last attempt, passed, attempts used).
    """
    attempts = 0
    rows: list[ComparisonRow] = []
    current_seed = seed
    while attempts <= retries:
        rows = compare(
            spec,
            horizon=horizon,
            burn_in=burn_in,
            replications=replications,
            seed=current_seed,
            s_grid=s_grid,
            z_threshold=z_threshold,
            workers=workers,
        )
        attempts += 1
        if comparison_passed(rows):
            return rows, True, attempts
        current_seed = current_seed + 1
    return rows, False, attempts


def write_comparison_csv(rows, path) -> None:
    """Write rows as `quantity,analytic,simulated,stderr,z,pass`."""
    header = ("quantity", "analytic", "simulated", "stderr", "z", "pass")
    cells = ((r.quantity, r.analytic, r.simulated, r.stderr, r.z, "true" if r.passed else "false") for r in rows)
    write_csv(path, header, cells)
