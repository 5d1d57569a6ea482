"""Service-time distributions with closed-form Laplace transforms.

The analytic side of the package expresses every quantity through the
transforms L_k(s) = E[exp(-s*S_k)] of the per-source service laws, while
the simulator needs exact draws from the same laws.  Each family here
provides both, plus the exact first transform derivative, whose value at
0 gives the mean, so the two sides share a single model object.

Each family writes its transform once, elementwise over real or complex
arrays; the scalar `laplace(s)` is that formula at one point, so the
closed forms read what the joint recursion and the CDF inversion read.

Supported families: exponential, gamma, deterministic (point mass), and
one-level finite mixtures of the former three.  Each names its config
literal once, as its `literal` class attribute, with its dataclass fields
in order as the literal's arguments; `parse_service` and `format_service`
walk the table `_FAMILIES` of those that are not mixtures.
"""

from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "ServiceTimeModel",
    "Exponential",
    "Gamma",
    "Deterministic",
    "Mixture",
    "parse_service",
    "format_service",
]

MIXTURE_WEIGHT_TOL = 1e-12


def categorical(u, cum) -> np.ndarray:
    """Category of each uniform `u` for cumulative shares `cum`: the number
    of cum[:-1] at or below it, by len(cum) - 1 comparisons.  This is the
    right-sided search of `cum` capped at its last index, so a share total
    rounded below 1 never yields an index past the end.  The count runs in
    the narrowest integer type that holds it and is returned as int64."""
    idx = np.zeros(np.shape(u), dtype=np.min_scalar_type(len(cum) - 1))
    for c in cum[:-1]:
        idx += u >= c
    return idx.astype(np.int64)


def _parameter(value, what: str, bound: str = "positive") -> float:
    """`value` as a float: a real number (numpy scalars included) that is
    finite and positive, or nonnegative for bound="nonnegative".
    TypeError for a bool or a non-number, ValueError out of range."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
        raise TypeError(f"{what} must be a real number, got {type(value).__name__}")
    x = float(value)
    if not (math.isfinite(x) and (x > 0 or (x == 0 and bound == "nonnegative"))):
        raise ValueError(f"{what} must be {bound} and finite, got {value}")
    return x


def _check_argument(s) -> None:
    if isinstance(s, complex):
        raise TypeError("real transform argument expected; use laplace_complex")
    s = float(s)
    if not math.isfinite(s):
        raise ValueError(f"transform argument must be finite, got {s}")
    if s < 0:
        raise ValueError(f"transform argument must be nonnegative, got {s}")


class ServiceTimeModel:
    """Common interface of the service-time families."""

    def laplace(self, s: float) -> float:
        """Transform value E[exp(-s*S)] at real s >= 0; lies in (0, 1]."""
        _check_argument(s)
        # a Python float, not a numpy one, so that a step that overflows on
        # the way to a value of 0 raises no warning
        return float(self._laplace_array(float(s)))

    def laplace_derivative(self, s: float) -> float:
        """Exact first derivative of the transform at s >= 0,
        -E[S exp(-s*S)] <= 0."""
        _check_argument(s)
        return self._derivative(float(s))

    def laplace_complex(self, z):
        """Analytic continuation of the transform, elementwise over a
        complex scalar or array `z`, returned in its shape.

        Used internally by the numerical CDF inversion; no domain check,
        and a value too large to represent comes back as inf.
        """
        return self._laplace_array(np.asarray(z, dtype=complex))

    @property
    def support_min(self) -> float:
        """Smallest possible service time, the lower end of the support."""
        return 0.0

    # independent generators that `draw` reads
    streams = 1

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """`size` exact draws as a float ndarray, all from the one
        generator `rng`: `draw` itself for a family of one stream."""
        raise NotImplementedError

    def draw(self, rngs, size: int) -> np.ndarray:
        """`size` exact draws from the `streams` generators `rngs`, which
        every family must make prefix-consistent: n draws and then m give
        the n + m draws of one call.  So a source's n-th requirement does
        not depend on how the simulator splits its path into blocks."""
        return self.sample(rngs[0], size)

    def _laplace_array(self, z: np.ndarray):
        # elementwise over a real or complex array, with no domain check
        raise NotImplementedError

    def _derivative(self, s: float) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class Exponential(ServiceTimeModel):
    """Exponential service with rate mu: L(s) = mu / (mu + s)."""

    literal = "exp"
    rate: float

    def __post_init__(self):
        object.__setattr__(self, "rate", _parameter(self.rate, "exponential rate"))

    def _laplace_array(self, z):
        return self.rate / (self.rate + z)

    def _derivative(self, s):
        d = self.rate + s
        # d ** 2 leaves float64 outside about [1e-154, 1e154], and (rate / d) / d does not
        return -self.rate / d**2 if 1e-154 < d < 1e154 else -(self.rate / d) / d

    def sample(self, rng, size):
        # inverse CDF: exactly one uniform per draw
        return -np.log1p(-rng.random(size)) / self.rate


@dataclass(frozen=True)
class Gamma(ServiceTimeModel):
    """Gamma service with shape alpha, rate mu: L(s) = (1 + s/mu)^(-alpha)."""

    literal = "gamma"
    shape: float
    rate: float

    def __post_init__(self):
        object.__setattr__(self, "shape", _parameter(self.shape, "gamma shape"))
        object.__setattr__(self, "rate", _parameter(self.rate, "gamma rate"))

    def _laplace_array(self, z):
        # a complex power of a huge base is NaN, and a real one loses digits
        # as the shape grows; its logarithm does neither
        log = np.log1p(z / self.rate)  # a Python float's product overflows to -inf with no warning
        return np.exp(-self.shape * (float(log) if isinstance(z, float) else log))

    def _derivative(self, s):
        return -self.shape / (self.rate + s) * float(self._laplace_array(s))

    def sample(self, rng, size):
        return rng.standard_gamma(self.shape, size) / self.rate


@dataclass(frozen=True)
class Deterministic(ServiceTimeModel):
    """Point mass at `value` >= 0: L(s) = exp(-s * value)."""

    literal = "det"
    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", _parameter(self.value, "deterministic value", "nonnegative"))

    def _laplace_array(self, z):
        return np.exp(-z * self.value)

    def _derivative(self, s):
        return -self.value * math.exp(-s * self.value)

    @property
    def support_min(self):
        return self.value

    streams = 0  # a point mass reads no generator

    def sample(self, rng, size):
        return np.full(size, self.value)

    def draw(self, rngs, size):
        return self.sample(None, size)


@dataclass(frozen=True)
class Mixture(ServiceTimeModel):
    """Finite mixture of non-mixture families; weights sum to one.

    Only one level of mixing is supported: components must themselves be
    exponential, gamma, or deterministic.
    """

    literal = "mix"
    weights: tuple[float, ...]
    components: tuple[ServiceTimeModel, ...]

    def __post_init__(self):
        weights = tuple(float(w) for w in self.weights)
        components = tuple(self.components)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "components", components)
        if len(weights) == 0:
            raise ValueError("mixture needs at least one component")
        if len(weights) != len(components):
            raise ValueError(
                f"got {len(weights)} weights for {len(components)} components"
            )
        for w in weights:  # each in (0, 1], so that their sum cannot overflow
            if not 0 < w <= 1:
                raise ValueError(f"mixture weights must lie in (0, 1], got {w}")
        total = math.fsum(weights)
        if abs(total - 1.0) > MIXTURE_WEIGHT_TOL:
            raise ValueError(f"mixture weights must sum to 1 within {MIXTURE_WEIGHT_TOL}, got {total!r}")
        for comp in components:
            if isinstance(comp, Mixture):
                raise ValueError("nested mixtures are not supported")
            if not isinstance(comp, ServiceTimeModel):
                raise TypeError(f"mixture component must be a ServiceTimeModel, got {type(comp).__name__}")

    def _laplace_array(self, z):
        return sum(w * c._laplace_array(z) for w, c in zip(self.weights, self.components))

    def _derivative(self, s):
        return math.fsum(w * c._derivative(s) for w, c in zip(self.weights, self.components))

    @property
    def support_min(self):
        return min(c.support_min for c in self.components)

    @property
    def streams(self):
        return 1 + len(self.components)

    def draw(self, rngs, size):
        # the choices from stream 0, component i's values from stream 1 + i
        idx = categorical(rngs[0].random(size), np.cumsum(self.weights))
        out = np.empty(size)
        for i, (comp, rng) in enumerate(zip(self.components, rngs[1:])):
            pick = np.flatnonzero(idx == i)
            out[pick] = comp.sample(rng, pick.size)
        return out

    def sample(self, rng, size):
        # not prefix-consistent: the components read `rng` after the choices
        return self.draw([rng] * self.streams, size)


# ---------------------------------------------------------------------------
# distribution literals, as used by the config format


_FAMILIES = {family.literal: family for family in (Exponential, Gamma, Deterministic)}  # the non-mixture ones
_CALL_RE = re.compile(r"^\s*([A-Za-z_]+)\s*\((.*)\)\s*$", re.S)


def _parse_number(text: str, literal: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"bad number {text.strip()!r} in distribution literal {literal!r}") from None


def _split_args(body: str) -> list[str]:
    """Split on top-level commas (commas inside parentheses do not count)."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(body):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(body[start:i])
            start = i + 1
    parts.append(body[start:])
    return parts


def parse_service(text: str) -> ServiceTimeModel:
    """Parse a distribution literal.

    Grammar: ``name(args)`` with one number per field of its family in
    `_FAMILIES`, and ``mix(w1*lit1, w2*lit2, ...)`` of non-mix literals.
    """
    m = _CALL_RE.match(text)
    if m is None:
        raise ValueError(f"bad distribution literal {text.strip()!r}; expected name(args)")
    name, body = m.group(1).lower(), m.group(2)
    if name == Mixture.literal:
        weights, comps = [], []
        for part in _split_args(body):
            if "*" not in part:
                raise ValueError(f"mixture term {part.strip()!r} must look like weight*literal in {text.strip()!r}")
            wtext, inner = part.split("*", 1)
            weights.append(_parse_number(wtext, text))
            comp = parse_service(inner)
            if isinstance(comp, Mixture):
                raise ValueError(f"nested {name}() in {text.strip()!r}")
            comps.append(comp)
        return Mixture(tuple(weights), tuple(comps))
    if name not in _FAMILIES:
        raise ValueError(f"unknown distribution {name!r} in {text.strip()!r}")
    family, args = _FAMILIES[name], _split_args(body)
    n = len(fields(family))
    if len(args) != n:
        raise ValueError(f"{name}() takes {n} argument{'s' * (n != 1)}, got {len(args)} in {text.strip()!r}")
    return family(*(_parse_number(a, text) for a in args))


def format_service(model: ServiceTimeModel) -> str:
    """Canonical literal for `model`; parse_service inverts it exactly."""
    for family in _FAMILIES.values():
        if isinstance(model, family):
            return f"{family.literal}({', '.join(repr(getattr(model, f.name)) for f in fields(family))})"
    if isinstance(model, Mixture):
        inner = ", ".join(f"{w!r}*{format_service(c)}" for w, c in zip(model.weights, model.components))
        return f"{Mixture.literal}({inner})"
    raise TypeError(f"cannot format {type(model).__name__}")
