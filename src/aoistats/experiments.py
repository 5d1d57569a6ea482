"""Parameter sweeps and analytic-vs-simulation comparison harness.

The two sweeps trace the age correlation coefficient of a two-source
system along the axes that matter: the second source's arrival rate (at
fixed common service law) and the common service rate (at fixed arrival
rates), each for a set of service families sharing the same mean.  Each
kind is one entry of `_SWEEPS`, which config files and `aoistats sweep` read;
all kinds run through one loop, so a new kind is one entry.
"""

from __future__ import annotations

import csv
import logging
import math
import os
import re
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import analytics, simulator
from .analytics import SystemSpec
from .servicedist import Deterministic, Exponential, Gamma, ServiceTimeModel

__all__ = [
    "DEFAULT_FAMILIES",
    "DEFAULT_LAMBDA2_GRID",
    "DEFAULT_SERVICE_RATE_GRID",
    "Z_THRESHOLD",
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
Z_THRESHOLD = 3.0  # the gate passes a row whose |z| is at most this

_log = logging.getLogger("aoistats")

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
    raise ValueError(f"unknown family tag {tag!r}; expected 'exponential', 'deterministic', or 'gamma(alpha)'")


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


class _SweepKind(NamedTuple):
    axis: str  # what `aoistats sweep` calls a grid value
    fixed: str  # the setting held fixed beside lambda1; its RunConfig field and config key are sweep_<fixed>
    grid: tuple[float, ...]  # the default grid
    point: Callable  # (lambda1, fixed value, grid value) -> (the two rates, the common mean service time)


# the sweep kinds, by the name a config's `sweep` key gives them
_SWEEPS = {
    "lambda2": _SweepKind("lambda2", "mean_service", DEFAULT_LAMBDA2_GRID, lambda l1, mean, x: ((l1, x), mean)),
    "service_rate": _SweepKind(
        "service rate", "lambda2", DEFAULT_SERVICE_RATE_GRID, lambda l1, l2, x: ((l1, l2), 1.0 / x)
    ),
}


def _sweep(kind: str, lambda1: float, fixed: float, families, grid) -> list[SweepPoint]:
    """Age correlation at each value of sweep `kind`'s grid, per family."""
    grid, point = _check_grid(grid), _SWEEPS[kind].point
    points = []
    for family in families:
        for x in grid:
            rates, mean_service = point(lambda1, fixed, x)
            model = family_model(family, mean_service)
            spec = SystemSpec(rates=rates, services=(model, model))
            points.append(SweepPoint(param=x, family=family, cc=analytics.aoi_correlation(spec)))
    return points


def sweep_cc_vs_lambda2(
    lambda1: float, mean_service: float, families=DEFAULT_FAMILIES, grid=DEFAULT_LAMBDA2_GRID
) -> list[SweepPoint]:
    """Age correlation against the second source's rate, per family.

    Both sources share the family's service law with mean `mean_service`;
    source 1 keeps rate `lambda1` while source 2 takes each grid value.
    """
    return _sweep("lambda2", lambda1, mean_service, families, grid)


def sweep_cc_vs_service_rate(
    lambda1: float, lambda2: float, families=DEFAULT_FAMILIES, grid=DEFAULT_SERVICE_RATE_GRID
) -> list[SweepPoint]:
    """Age correlation against the common service rate 1/E[S], per family."""
    return _sweep("service_rate", lambda1, lambda2, families, grid)


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


def _row(quantity: str, analytic_value: float, est: simulator.Estimate) -> ComparisonRow:
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
    return ComparisonRow(quantity, analytic_value, est.value, est.stderr, z, abs(z) <= Z_THRESHOLD)


def compare(
    spec: SystemSpec,
    horizon: float,
    burn_in: float | None = None,
    replications: int = simulator.DEFAULT_REPLICATIONS,
    seed: int = simulator.DEFAULT_SEED,
    s_grid=None,
    workers: int = 1,
) -> list[ComparisonRow]:
    """Simulate `spec` and line up every estimate with its closed form:
    one row per row of `simulate`'s report, the rows of the report table
    `analytics._QUANTITIES` that are not analytic-only, so the age cv and
    covariance are not gated.  Each row carries the z-score (difference
    over batch stderr) and a pass mark at Z_THRESHOLD.  The closed forms
    are computed first, so a spec or s-grid they refuse fails before any
    replication runs.
    """
    analytic = analytics.analytic_quantities(spec, s_grid)
    report = simulator.simulate(
        spec,
        horizon=horizon,
        burn_in=burn_in,
        replications=replications,
        seed=seed,
        s_grid=s_grid,
        workers=workers,
    )
    return [_row(label, analytic[label], est) for label, est in report.quantities.items()]


def comparison_passed(rows) -> bool:
    return all(r.passed for r in rows)


def compare_with_retry(
    spec: SystemSpec, *, seed: int = simulator.DEFAULT_SEED, **settings
) -> tuple[list[ComparisonRow], bool, int]:
    """Run `compare`, once more with seed + 1 if the gate fails.

    `settings` are `compare`'s other keyword arguments, passed on as
    given to every attempt.
    Every row is gated on its own, so a single run's chance of a false
    alarm grows with the row count: 21 rows for two sources on the
    default s-grid, 56 for eight sources on six s-rows.  One independent
    retry makes a false alarm much rarer, while a real discrepancy still
    fails both runs.
    Each attempt logs its seed at INFO on the "aoistats" logger, ahead of
    its simulation's notes.
    Returns (rows of the last attempt, passed, attempts used: 1 or 2).
    """
    for attempt in (1, 2):
        _log.info("gate attempt %d of 2, seed %d", attempt, seed + attempt - 1)
        rows = compare(spec, seed=seed + attempt - 1, **settings)
        if comparison_passed(rows):
            return rows, True, attempt
    return rows, False, 2


def write_comparison_csv(rows, path) -> None:
    """Write rows as `quantity,analytic,simulated,stderr,z,pass`."""
    header = ("quantity", "analytic", "simulated", "stderr", "z", "pass")
    cells = ((r.quantity, r.analytic, r.simulated, r.stderr, r.z, "true" if r.passed else "false") for r in rows)
    write_csv(path, header, cells)
