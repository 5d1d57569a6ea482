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

import numpy as np

from .analytics import SystemSpec, distinct_s_rows
from .experiments import family_model
from .servicedist import format_service, parse_service
from .simulator import DEFAULT_REPLICATIONS, DEFAULT_SEED, MAX_SEED

__all__ = ["RunConfig", "SweepSettings", "ConfigError", "parse_config", "render_config"]

_COMMANDS = ("analytic", "simulate", "compare", "sweep")
_SWEEP_KINDS = ("lambda2", "service_rate")
_LOGSPACE = re.compile(r"^logspace\(\s*([^,]+)\s*,\s*([^,]+)\s*,\s*([^)]+)\s*\)$")


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


def _parse_float(value: str, key: str, errors: list[str], positive=False) -> float | None:
    try:
        out = float(value)
    except ValueError:
        errors.append(f"{key}: not a number: {value.strip()!r}")
        return None
    if not math.isfinite(out):
        errors.append(f"{key}: must be finite, got {value.strip()!r}")
        return None
    if positive and out <= 0:
        errors.append(f"{key}: must be positive, got {value.strip()!r}")
        return None
    return out


def _parse_int(value: str, key: str, errors: list[str]) -> int | None:
    try:
        return int(value.strip(), 0)
    except ValueError:
        errors.append(f"{key}: not an integer: {value.strip()!r}")
        return None


def _parse_grid(value: str, errors: list[str]) -> tuple[float, ...]:
    m = _LOGSPACE.match(value.strip())
    if m:
        lo = _parse_float(m.group(1), "sweep_grid", errors, positive=True)
        hi = _parse_float(m.group(2), "sweep_grid", errors, positive=True)
        n = _parse_int(m.group(3), "sweep_grid", errors)
        if lo is None or hi is None or n is None:
            return ()
        if n < 2 or hi <= lo:
            errors.append(f"sweep_grid: logspace needs hi > lo and n >= 2, got {value.strip()!r}")
            return ()
        return tuple(float(v) for v in np.geomspace(lo, hi, n))
    vals: list[float] = []
    for part in value.split(","):
        v = _parse_float(part, "sweep_grid", errors, positive=True)
        if v is None:
            return ()
        vals.append(v)
    if len(vals) < 2:
        errors.append("sweep_grid: needs at least 2 values")
    elif any(b <= a for a, b in zip(vals, vals[1:])):
        errors.append("sweep_grid: values must be strictly increasing")
    return tuple(vals)


def _parse_s_grid(value: str, errors: list[str]) -> tuple[tuple[float, ...], ...]:
    rows: list[tuple[float, ...]] = []
    for chunk in value.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        row: list[float] = []
        ok = True
        for part in chunk.split(","):
            v = _parse_float(part, "s_grid", errors)
            if v is None:
                ok = False
                break
            if v < 0:
                errors.append(f"s_grid: entries must be nonnegative, got {part.strip()!r}")
                ok = False
                break
            row.append(v)
        if ok:
            rows.append(tuple(row))
    return tuple(rows)


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

    known = {
        "command", "horizon", "burn_in", "replications", "seed", "s_grid", "output",
        "sweep", "sweep_lambda1", "sweep_lambda2", "sweep_mean_service",
        "sweep_grid", "sweep_families",
    }
    for key in scalars:
        if key not in known:
            errors.append(f"unknown key {key!r}")

    cfg = RunConfig()

    rates: list[float] = []
    services = []
    for lineno, value in source_lines:
        parts = value.split(None, 1)
        if len(parts) != 2:
            errors.append(f"line {lineno}: source needs 'rate service-literal', got {value!r}")
            continue
        rate = _parse_float(parts[0], f"line {lineno}: source rate", errors, positive=True)
        try:
            model = parse_service(parts[1])
        except ValueError as exc:
            errors.append(f"line {lineno}: {exc}")
            model = None
        if rate is not None and model is not None:
            rates.append(rate)
            services.append(model)

    if "command" in scalars:
        cmd = scalars["command"].lower()
        if cmd not in _COMMANDS:
            errors.append(f"command: unknown command {cmd!r}; expected one of {', '.join(_COMMANDS)}")
        else:
            cfg.command = cmd
    horizon = cfg.horizon  # None if the file's horizon is invalid
    if "horizon" in scalars:
        horizon = _parse_float(scalars["horizon"], "horizon", errors, positive=True)
        if horizon is not None:
            cfg.horizon = horizon
    if "burn_in" in scalars:
        v = _parse_float(scalars["burn_in"], "burn_in", errors)
        if v is not None:
            if v < 0:
                errors.append(f"burn_in: must be nonnegative, got {v}")
            else:
                cfg.burn_in = v
    if cfg.burn_in is not None and horizon is not None and cfg.burn_in >= horizon:
        errors.append(f"burn_in: must be below the horizon, got {cfg.burn_in} >= {cfg.horizon}")
    if "replications" in scalars:
        v = _parse_int(scalars["replications"], "replications", errors)
        if v is not None:
            if v < 2:
                errors.append(f"replications: need at least 2 for batch stderr, got {v}")
            else:
                cfg.replications = v
    if "seed" in scalars:
        v = _parse_int(scalars["seed"], "seed", errors)
        if v is not None:
            if not 0 <= v <= MAX_SEED:
                errors.append(f"seed: must lie in [0, {MAX_SEED}], got {v}")
            else:
                cfg.seed = v
    if "output" in scalars:
        cfg.output = scalars["output"]
    if "s_grid" in scalars:
        cfg.s_grid = _parse_s_grid(scalars["s_grid"], errors)
        try:
            distinct_s_rows(cfg.s_grid)
        except ValueError as exc:
            errors.append(f"s_grid: {exc}")

    if rates and len(rates) == len(source_lines):
        try:
            cfg.spec = SystemSpec(rates=tuple(rates), services=tuple(services))
        except (ValueError, TypeError) as exc:
            errors.append(str(exc))
    if cfg.spec is not None and cfg.s_grid:
        K = cfg.spec.num_sources
        for row in cfg.s_grid:
            if len(row) != K:
                errors.append(
                    f"s_grid: vector {row} has length {len(row)} but the system has {K} sources"
                )

    sweep_keys = [k for k in scalars if k.startswith("sweep")]
    if sweep_keys:
        kind = scalars.get("sweep")
        if kind is None:
            errors.append("sweep_*: settings given without a sweep kind (sweep = lambda2 | service_rate)")
        elif kind not in _SWEEP_KINDS:
            errors.append(f"sweep: unknown kind {kind!r}; expected one of {', '.join(_SWEEP_KINDS)}")
        lambda1 = None
        if "sweep_lambda1" in scalars:
            lambda1 = _parse_float(scalars["sweep_lambda1"], "sweep_lambda1", errors, positive=True)
        else:
            errors.append("sweep_lambda1: required for sweeps")
        lambda2 = None
        if "sweep_lambda2" in scalars:
            lambda2 = _parse_float(scalars["sweep_lambda2"], "sweep_lambda2", errors, positive=True)
        mean_service = None
        if "sweep_mean_service" in scalars:
            mean_service = _parse_float(scalars["sweep_mean_service"], "sweep_mean_service", errors, positive=True)
        if kind == "lambda2" and "sweep_mean_service" not in scalars:
            errors.append("sweep_mean_service: required for lambda2 sweeps")
        if kind == "service_rate" and "sweep_lambda2" not in scalars:
            errors.append("sweep_lambda2: required for service_rate sweeps")
        grid: tuple[float, ...] = ()
        if "sweep_grid" in scalars:
            grid = _parse_grid(scalars["sweep_grid"], errors)
        families: tuple[str, ...] = ()
        if "sweep_families" in scalars:
            families = tuple(f.strip() for f in scalars["sweep_families"].split(",") if f.strip())
            for fam in families:
                try:
                    family_model(fam, 1.0)
                except ValueError as exc:
                    errors.append(f"sweep_families: {exc}")
        if kind in _SWEEP_KINDS and lambda1 is not None:
            cfg.sweep = SweepSettings(
                kind=kind,
                lambda1=lambda1,
                lambda2=lambda2,
                mean_service=mean_service,
                grid=grid,
                families=families,
            )

    if errors:
        raise ConfigError(errors)
    return cfg


def render_config(cfg: RunConfig) -> str:
    """Canonical text for `cfg`; parse_config(render_config(cfg)) == cfg."""
    lines: list[str] = []
    if cfg.command is not None:
        lines.append(f"command = {cfg.command}")
    if cfg.spec is not None:
        for rate, model in zip(cfg.spec.rates, cfg.spec.services):
            lines.append(f"source = {rate!r} {format_service(model)}")
    lines.append(f"horizon = {cfg.horizon!r}")
    if cfg.burn_in is not None:
        lines.append(f"burn_in = {cfg.burn_in!r}")
    lines.append(f"replications = {cfg.replications}")
    lines.append(f"seed = {cfg.seed}")
    if cfg.s_grid:
        rows = "; ".join(", ".join(repr(v) for v in row) for row in cfg.s_grid)
        lines.append(f"s_grid = {rows}")
    if cfg.output is not None:
        lines.append(f"output = {cfg.output}")
    if cfg.sweep is not None:
        sw = cfg.sweep
        lines.append(f"sweep = {sw.kind}")
        lines.append(f"sweep_lambda1 = {sw.lambda1!r}")
        if sw.lambda2 is not None:
            lines.append(f"sweep_lambda2 = {sw.lambda2!r}")
        if sw.mean_service is not None:
            lines.append(f"sweep_mean_service = {sw.mean_service!r}")
        if sw.grid:
            lines.append("sweep_grid = " + ", ".join(repr(v) for v in sw.grid))
        if sw.families:
            lines.append("sweep_families = " + ", ".join(sw.families))
    return "\n".join(lines) + "\n"
