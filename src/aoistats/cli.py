"""Command-line interface.

Each subcommand of `config._COMMANDS` runs through the function of this
module named `_cmd_` and its name: closed forms only, estimates with
stderr, simulation against closed forms with z-scores, or tables of the
correlation along a parameter grid.  All take a config file
(docs/config.md); command-line flags override config values, and each
subcommand accepts only the flags it reads.  Exit codes: 0 success,
1 usage/validation error, 2 comparison gate failure.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from . import analytics, experiments, simulator
from .config import _COMMANDS, _KEYS, ConfigError, RunConfig, _read, _window, parse_config

__all__ = ["main", "entrypoint"]

# config keys that each subcommand which runs the simulator also takes as flags
_RUN_FLAGS = ("seed", "horizon", "replications", "burn_in")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; this CLI reserves 2 for the
    # comparison gate, so map usage problems to exit 1 instead
    def error(self, message):
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="aoistats", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="{" + ",".join(_COMMANDS) + "}")
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", required=True, type=Path, help="configuration file")
        p.add_argument("--output", type=Path, help="CSV output path (overrides config)")
        if command.runs:
            p.add_argument("--seed", help="RNG seed (overrides config)")
            p.add_argument("--horizon", help="simulated time per replication")
            p.add_argument("--replications", help="number of replications")
            p.add_argument("--burn-in", dest="burn_in", help="warm-up span discarded per replication")
            p.add_argument("--workers", type=int, default=1, help="parallel replication processes")
        if command.traces:
            p.add_argument("--trace", type=Path, help="write an event trace CSV for replication 0")
    return parser


def _load_config(args) -> RunConfig:
    text = Path(args.config).read_text()
    cfg = parse_config(text)
    if args.output is not None:
        cfg.output = str(args.output)
    if not _COMMANDS[args.command].runs:
        return cfg
    # each flag is read as its config key is, and reported under the flag's name
    errors: list[str] = []
    flags = {key: f"--{key.replace('_', '-')}" for key in _RUN_FLAGS if getattr(args, key) is not None}
    for key, flag in flags.items():
        value = _read(_KEYS[key][1], getattr(args, key), flag, errors)
        if value is not None:
            setattr(cfg, key, value)
    if not errors and ("burn_in" in flags or "horizon" in flags):
        _read(_window, cfg, flags.get("burn_in") or flags["horizon"], errors)
    if args.workers < 1:
        errors.append(f"--workers: must be at least 1, got {args.workers}")
    if errors:
        raise ConfigError(errors)
    return cfg


def _check_output_paths(*named_paths) -> None:
    """Reject, before anything runs, a path to be written that is a
    directory or lies in a directory that does not exist."""
    for name, path in named_paths:
        if not path:
            continue
        path = Path(path)
        if path.is_dir():
            raise ValueError(f"{name} {path} is a directory")
        if not path.parent.is_dir():
            raise ValueError(f"{name} {path}: no directory {path.parent}")


def _require_spec(cfg: RunConfig, command: str):
    if cfg.spec is None:
        raise ConfigError([f"{command}: the config must define at least one source line"])
    return cfg.spec


def _print_table(header, rows, out):
    widths = [max(len(str(r[i])) for r in [header, *rows]) for i in range(len(header))]
    line = "  ".join(str(h).ljust(w) for h, w in zip(header, widths))
    print(line, file=out)
    print("-" * len(line), file=out)
    for r in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(r, widths)), file=out)


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _cmd_analytic(cfg: RunConfig, args) -> int:
    spec = _require_spec(cfg, args.command)
    header = ("quantity", "value")
    s_grid = cfg.s_grid or simulator.default_s_grid(spec.num_sources)
    rows = analytics.analytic_quantities(spec, s_grid).items()
    _print_table(header, [(name, _fmt(value)) for name, value in rows], sys.stdout)
    if cfg.output:
        experiments.write_csv(cfg.output, header, rows)
        print(f"wrote {cfg.output}", file=sys.stdout)
    return 0


def _cmd_simulate(cfg: RunConfig, args) -> int:
    spec = _require_spec(cfg, args.command)
    report = simulator.simulate(
        spec,
        horizon=cfg.horizon,
        burn_in=cfg.burn_in,
        replications=cfg.replications,
        seed=cfg.seed,
        s_grid=cfg.s_grid or None,
        workers=args.workers,
        trace_path=args.trace,
    )
    if args.trace is not None:
        print(f"wrote event trace {args.trace}")
    print(
        f"simulated {report.replications} replications, horizon {report.horizon:g}, "
        f"burn-in {report.burn_in:g}, seed {report.seed}"
    )
    header = ("quantity", "value", "stderr")
    rows = [(name, est.value, est.stderr) for name, est in report.quantities.items()]
    _print_table(header, [(name, _fmt(v), _fmt(se)) for name, v, se in rows], sys.stdout)
    if cfg.output:
        experiments.write_csv(cfg.output, header, rows)
        print(f"wrote {cfg.output}")
    return 0


def _cmd_compare(cfg: RunConfig, args) -> int:
    spec = _require_spec(cfg, args.command)
    rows, passed, attempts = experiments.compare_with_retry(
        spec,
        horizon=cfg.horizon,
        burn_in=cfg.burn_in,
        replications=cfg.replications,
        seed=cfg.seed,
        s_grid=cfg.s_grid or None,
        workers=args.workers,
    )
    table = [
        (r.quantity, _fmt(r.analytic), _fmt(r.simulated), _fmt(r.stderr), _fmt(r.z),
         "pass" if r.passed else "FAIL")
        for r in rows
    ]
    _print_table(("quantity", "analytic", "simulated", "stderr", "z", "gate"), table, sys.stdout)
    verdict = "all quantities within" if passed else "GATE FAILED at"
    print(f"{verdict} {experiments.Z_THRESHOLD:g} stderr ({attempts} attempt(s))")
    if cfg.output:
        experiments.write_comparison_csv(rows, cfg.output)
        print(f"wrote {cfg.output}")
    if not passed:
        print("comparison gate failed", file=sys.stderr)
        return 2
    return 0


def _cmd_sweep(cfg: RunConfig, args) -> int:
    if cfg.sweep is None:
        kinds = " | ".join(experiments._SWEEPS)
        raise ConfigError([f"{args.command}: the config must define sweep settings (sweep = {kinds})"])
    sw = cfg.sweep
    kind = experiments._SWEEPS[sw.kind]
    families = sw.families or experiments.DEFAULT_FAMILIES
    points = experiments._sweep(sw.kind, sw.lambda1, getattr(sw, kind.fixed), families, sw.grid or kind.grid)
    for family in families:
        own = [p for p in points if p.family == family]
        best = min(own, key=lambda p: p.cc)
        print(f"{family}: min cc {best.cc:.6g} at {kind.axis} {best.param:.6g} over {len(own)} points")
    experiments.write_sweep_csv(points, cfg.output or sys.stdout)
    if cfg.output:
        print(f"wrote {cfg.output}")
    return 0


_HANDLERS = {name: globals()[f"_cmd_{name}"] for name in _COMMANDS}


def main(argv=None) -> int:
    parser = build_parser()
    # the simulator's notes go to stderr for this call only
    log = logging.getLogger("aoistats")
    level = log.level
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("note: %(message)s"))
    log.addHandler(handler)
    log.setLevel(logging.INFO)
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise _UsageError("a subcommand is required")
        cfg = _load_config(args)
        _check_output_paths(("output", cfg.output), ("--trace", getattr(args, "trace", None)))
        return _HANDLERS[args.command](cfg, args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 1
    except (OSError, MemoryError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


def entrypoint() -> None:
    sys.exit(main())
