"""Reference forms of the simulator's path integrals.

The simulator accumulates whole paths at once, with
`PathAccumulator.add_segments` for the transform and moment integrals and
`PathAccumulator.add_ramps` for each source's CDF occupancy; these
one-segment-at-a-time versions, and the clip sum over every (segment,
level) pair for CDF occupancy, are the oracles the tests check it against.
"""

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class AoISnapshot:
    """Per-source (last update epoch, delay) state; age is delay + t - epoch."""

    update_epochs: np.ndarray
    delays: np.ndarray

    def ages(self, t: float) -> np.ndarray:
        return self.delays + (t - self.update_epochs)


def segment_integral_exponential(snapshot: AoISnapshot, t0: float, t1: float, s) -> float:
    """Exact integral of exp(-sum_k s_k A_k(t)) over [t0, t1).

    All ages grow with slope one on the segment, so the integral is
    exp(-s . a) * (1 - exp(-sbar L)) / sbar with a the ages at t0,
    sbar = sum(s) and L the segment length; plain L when sbar == 0.
    """
    if not t1 > t0:
        raise ValueError(f"segment must have positive length, got [{t0}, {t1})")
    s = np.asarray(s, dtype=float)
    a = snapshot.ages(t0)
    if s.shape != a.shape:
        raise ValueError(f"argument vector has shape {s.shape}, expected {a.shape}")
    if np.any(s < 0):
        raise ValueError("transform arguments must be nonnegative")
    L = t1 - t0
    sbar = float(s.sum())
    if sbar == 0.0:
        return L
    return math.exp(-float(s @ a)) * (-math.expm1(-sbar * L)) / sbar


def segment_integral_moments(snapshot: AoISnapshot, t0: float, t1: float):
    """Exact integrals of A_k, A_k^2, and A_j A_k over [t0, t1).

    Returns (age (K,), age_sq (K,), cross (K, K)); the cross diagonal
    equals age_sq.
    """
    if not t1 > t0:
        raise ValueError(f"segment must have positive length, got [{t0}, {t1})")
    a = snapshot.ages(t0)
    L = t1 - t0
    age = a * L + L**2 / 2.0
    age_sq = a**2 * L + a * L**2 + L**3 / 3.0
    cross = np.outer(a, a) * L + (a[:, None] + a[None, :]) * (L**2 / 2.0) + L**3 / 3.0
    return age, age_sq, cross


def add_segment(acc, snapshot: AoISnapshot, t0: float, t1: float) -> None:
    """Accumulate one constant-snapshot segment into the PathAccumulator `acc`,
    occupancy included: what `add_segments` and one `add_ramps` call per
    source add for it together."""
    for j, row in enumerate(acc.s_grid):
        acc.exp_integrals[j] += segment_integral_exponential(snapshot, t0, t1, row)
    age, age_sq, cross = segment_integral_moments(snapshot, t0, t1)
    acc.age_integrals += age
    acc.age_sq_integrals += age_sq
    acc.cross_integrals += cross
    if acc.cdf_grid is not None:
        a = snapshot.ages(t0)
        L = t1 - t0
        acc.cdf_occupancy += np.clip(acc.cdf_grid[None, :] - a[:, None], 0.0, L)
    acc.elapsed += t1 - t0


def clip_occupancy(grid, ages: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Occupancy (K, m) of segments with start ages `ages` (n, K) and
    `lengths` (n,): sum_i clip(x - ages[i, k], 0, lengths[i]) at every x
    in `grid`, as one n-by-m array per source."""
    x = np.asarray(grid, dtype=float)
    L = np.asarray(lengths, dtype=float)[:, None]
    columns = np.asarray(ages, dtype=float).T
    return np.array([np.clip(x[None, :] - a[:, None], 0.0, L).sum(axis=0) for a in columns])
