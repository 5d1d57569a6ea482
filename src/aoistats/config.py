"""Run configuration: a small line-based key=value format.

See docs/config.md for the grammar.  Parsing collects every validation
problem before failing, so a bad file reports all its mistakes at once.
`render_config` emits a canonical form that parses back to an equal
RunConfig.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .analytics import SystemSpec, aoi_statistics, distinct_s_rows
from .experiments import _SWEEPS, _check_grid, family_model
from .servicedist import format_service, parse_service
from .simulator import DEFAULT_REPLICATIONS, DEFAULT_SEED, MAX_SEED

__all__ = ["RunConfig", "SweepSettings", "ConfigError", "parse_config", "render_config"]

_LOGSPACE = re.compile(r"^logspace\(\s*([^,]+)\s*,\s*([^,]+)\s*,\s*([^)]+)\s*\)$")
_MAX_LOGSPACE_POINTS = 10_000  # the largest n of sweep_grid = logspace(lo, hi, n)


class _Command(NamedTuple):
    help: str
    runs: bool  # takes --seed, --horizon, --replications, --burn-in and --workers
    traces: bool  # takes --trace


# each subcommand, a value of the `command` key: its help line and the
# flags it takes beyond --config and --output
_COMMANDS = {
    "analytic": _Command("print closed-form statistics", runs=False, traces=False),
    "simulate": _Command("run the simulator and print estimates", runs=True, traces=True),
    "compare": _Command("check simulation against the closed forms", runs=True, traces=False),
    "sweep": _Command("tabulate the correlation coefficient along a parameter grid", runs=False, traces=False),
}


class ConfigError(ValueError):
    """All problems found in one configuration, as a list of messages."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {e}" for e in self.errors))


@dataclass
class SweepSettings:
    kind: str
    lambda1: float
    lambda2: float | None = None
    mean_service: float | None = None
    grid: tuple[float, ...] = ()
    families: tuple[str, ...] = ()


@dataclass
class RunConfig:
    spec: SystemSpec | None = None
    command: str | None = None
    horizon: float = 1e4
    burn_in: float | None = None
    replications: int = DEFAULT_REPLICATIONS
    seed: int = DEFAULT_SEED
    s_grid: tuple[tuple[float, ...], ...] = ()
    output: str | None = None
    sweep: SweepSettings | None = None


# A reader takes a value's text and returns the value, or raises ValueError
# with a message that does not name the key, so that the file and the
# command line report the same words after their own name for it.


def _number(text: str) -> float:
    try:
        out = float(text)
    except ValueError:
        raise ValueError(f"not a number: {text.strip()!r}") from None
    if not math.isfinite(out):
        raise ValueError(f"must be finite, got {text.strip()!r}")
    return out


def _positive(text: str) -> float:
    out = _number(text)
    if out <= 0:
        raise ValueError(f"must be positive, got {text.strip()!r}")
    return out


def _nonnegative(text: str) -> float:
    out = _number(text)
    if out < 0:
        raise ValueError(f"must be nonnegative, got {text.strip()!r}")
    return out


def _integer(text: str) -> int:
    try:
        return int(text.strip(), 0)
    except ValueError:
        raise ValueError(f"not an integer: {text.strip()!r}") from None


def _replications(text: str) -> int:
    out = _integer(text)
    if out < 2:
        raise ValueError(f"need at least 2 for batch stderr, got {out}")
    return out


def _seed(text: str) -> int:
    out = _integer(text)
    if not 0 <= out <= MAX_SEED:
        raise ValueError(f"must lie in [0, {MAX_SEED}], got {out}")
    return out


def _one_of(what: str, choices: tuple[str, ...]):
    def read(text: str) -> str:
        if text.lower() not in choices:
            raise ValueError(f"unknown {what} {text!r}; expected one of {', '.join(choices)}")
        return text.lower()

    return read


def _s_grid(text: str) -> tuple[tuple[float, ...], ...]:
    rows = tuple(tuple(_nonnegative(v) for v in row.split(",")) for row in text.split(";") if row.strip())
    if not rows:
        raise ValueError("needs at least one vector")
    distinct_s_rows(rows)
    return rows


def _grid(text: str) -> tuple[float, ...]:
    m = _LOGSPACE.match(text.strip())
    if m:
        n = _integer(m.group(3))
        if n > _MAX_LOGSPACE_POINTS:
            raise ValueError(f"logspace takes at most {_MAX_LOGSPACE_POINTS} points, got {n}")
        values = np.geomspace(_positive(m.group(1)), _positive(m.group(2)), n)
    else:
        values = [_number(v) for v in text.split(",")]
    return tuple(_check_grid(values))


def _output_path(text: str) -> str:
    if not text:
        raise ValueError("needs a path")
    return text


def _families(text: str) -> tuple[str, ...]:
    families = tuple(dict.fromkeys(f.strip() for f in text.split(",") if f.strip()))
    if not families:
        raise ValueError("needs at least one family")
    for family in families:
        family_model(family, 1.0)
    return families


# every key but `source`: its RunConfig field (SweepSettings for sweep*) and reader
_KEYS = {
    "command": ("command", _one_of("command", tuple(_COMMANDS))),
    "horizon": ("horizon", _positive),
    "burn_in": ("burn_in", _nonnegative),
    "replications": ("replications", _replications),
    "seed": ("seed", _seed),
    "s_grid": ("s_grid", _s_grid),
    "output": ("output", _output_path),
    "sweep": ("kind", _one_of("kind", tuple(_SWEEPS))),
    "sweep_lambda1": ("lambda1", _positive),
    "sweep_lambda2": ("lambda2", _positive),
    "sweep_mean_service": ("mean_service", _positive),
    "sweep_grid": ("grid", _grid),
    "sweep_families": ("families", _families),
}


def _window(cfg: RunConfig) -> None:
    if cfg.burn_in is not None and cfg.burn_in >= cfg.horizon:
        raise ValueError(f"burn-in must be below the horizon, got {cfg.burn_in} >= {cfg.horizon}")


def _read(read, value, name: str, errors: list[str]):
    """`read(value)`, or None with the problem appended to `errors` under `name`."""
    try:
        return read(value)
    except ValueError as exc:
        errors.append(f"{name}: {exc}")
        return None


def parse_config(text: str) -> RunConfig:
    """Parse configuration text; raises ConfigError listing every problem."""
    errors: list[str] = []
    source_lines: list[tuple[int, str]] = []
    scalars: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected key = value, got {line!r}")
            continue
        key, value = line.split("=", 1)
        key = key.strip().lower()
        value = value.strip()
        if key == "source":
            source_lines.append((lineno, value))
        elif key in scalars:
            errors.append(f"line {lineno}: duplicate key {key!r}")
        else:
            scalars[key] = value

    for key in scalars:
        if key not in _KEYS:
            errors.append(f"unknown key {key!r}")

    cfg = RunConfig()
    values = {key: _read(read, scalars[key], key, errors) for key, (_, read) in _KEYS.items() if key in scalars}
    sweep = {}
    for key, value in values.items():
        if value is not None:
            field = _KEYS[key][0]
            if key.startswith("sweep"):
                sweep[field] = value
            else:
                setattr(cfg, field, value)
    if values.get("horizon", cfg.horizon) is not None:  # an invalid horizon is not compared
        _read(_window, cfg, "burn_in", errors)

    rates: list[float] = []
    services = []
    for lineno, value in source_lines:
        parts = value.split(None, 1)
        if len(parts) != 2:
            errors.append(f"line {lineno}: source needs 'rate service-literal', got {value!r}")
            continue
        rate = _read(_positive, parts[0], f"line {lineno}: source rate", errors)
        model = _read(parse_service, parts[1], f"line {lineno}", errors)
        if rate is not None and model is not None:
            rates.append(rate)
            services.append(model)

    if rates and len(rates) == len(source_lines):
        try:
            cfg.spec = SystemSpec(rates=tuple(rates), services=tuple(services))
            aoi_statistics(cfg.spec)  # every report needs the age moments
        except (ValueError, TypeError) as exc:
            errors.append(str(exc))
    if cfg.spec is not None and cfg.s_grid:
        K = cfg.spec.num_sources
        for row in cfg.s_grid:
            if len(row) != K:
                errors.append(
                    f"s_grid: vector {row} has length {len(row)} but the system has {K} sources"
                )

    if any(k.startswith("sweep") for k in scalars):
        kind = sweep.get("kind")
        if "sweep" not in scalars:
            errors.append(f"sweep_*: settings given without a sweep kind (sweep = {' | '.join(_SWEEPS)})")
        if "sweep_lambda1" not in scalars:
            errors.append("sweep_lambda1: required for sweeps")
        needs = f"sweep_{_SWEEPS[kind].fixed}" if kind else None  # beyond sweep_lambda1; another kind's key is not read
        for key in dict.fromkeys(f"sweep_{entry.fixed}" for entry in _SWEEPS.values()):
            if key == needs and key not in scalars:
                errors.append(f"{key}: required for {kind} sweeps")
            elif key != needs and kind is not None and key in scalars:
                errors.append(f"{key}: not read by {kind} sweeps")

    if errors:
        raise ConfigError(errors)
    if sweep:
        cfg.sweep = SweepSettings(**sweep)
    return cfg


def _text(value) -> str:
    if isinstance(value, tuple):
        return ("; " if value and isinstance(value[0], tuple) else ", ").join(map(_text, value))
    return repr(value) if isinstance(value, float) else str(value)


def render_config(cfg: RunConfig) -> str:
    """Canonical text for `cfg`; parse_config(render_config(cfg)) == cfg."""
    lines: list[str] = []
    if cfg.spec is not None:
        for rate, model in zip(cfg.spec.rates, cfg.spec.services):
            lines.append(f"source = {rate!r} {format_service(model)}")
    for key, (field, _) in _KEYS.items():
        owner = cfg.sweep if key.startswith("sweep") else cfg
        value = None if owner is None else getattr(owner, field)
        if value is not None and value != ():
            lines.append(f"{key} = {_text(value)}")
    return "\n".join(lines) + "\n"
