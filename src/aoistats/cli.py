"""Command-line interface.

Subcommands: analytic (closed forms only), simulate (estimates with
stderr), compare (simulation against closed forms with z-scores, exit 2
on gate failure), sweep (correlation sweep tables).  All take a config
file (docs/config.md); command-line flags override config values.  Exit
codes: 0 success, 1 usage/validation error, 2 comparison gate failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import analytics, experiments, simulator
from .config import ConfigError, RunConfig, parse_config

__all__ = ["main", "entrypoint"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; this CLI reserves 2 for the
    # compare gate, so map usage problems to exit 1 instead
    def error(self, message):
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="aoistats", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="{analytic,simulate,compare,sweep}")
    for name, helptext in [
        ("analytic", "print closed-form statistics"),
        ("simulate", "run the simulator and print estimates"),
        ("compare", "check simulation against the closed forms"),
        ("sweep", "tabulate the correlation coefficient along a parameter grid"),
    ]:
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, type=Path, help="configuration file")
        p.add_argument("--output", type=Path, help="CSV output path (overrides config)")
        p.add_argument("--seed", type=int, help="RNG seed (overrides config)")
        p.add_argument("--horizon", type=float, help="simulated time per replication")
        p.add_argument("--replications", type=int, help="number of replications")
        p.add_argument("--burn-in", type=float, dest="burn_in", help="warm-up span discarded per replication")
        p.add_argument("--workers", type=int, default=1, help="parallel replication processes")
        p.add_argument("--trace", type=Path, help="write an event trace CSV for replication 0")
    return parser


def _load_config(args) -> RunConfig:
    text = Path(args.config).read_text()
    cfg = parse_config(text)
    if args.output is not None:
        cfg.output = str(args.output)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.horizon is not None:
        if not (math.isfinite(args.horizon) and args.horizon > 0):
            raise ConfigError([f"--horizon must be positive and finite, got {args.horizon}"])
        if args.burn_in is None and cfg.burn_in is not None and cfg.burn_in >= args.horizon:
            raise ConfigError([f"--horizon must exceed the config's burn_in {cfg.burn_in:g}, got {args.horizon:g}"])
        cfg.horizon = args.horizon
    if args.replications is not None:
        if args.replications < 2:
            raise ConfigError([f"--replications must be at least 2, got {args.replications}"])
        cfg.replications = args.replications
    if args.burn_in is not None:
        if not 0 <= args.burn_in < cfg.horizon:
            raise ConfigError([f"--burn-in must lie in [0, horizon), got {args.burn_in}"])
        cfg.burn_in = args.burn_in
    if args.workers < 1:
        raise ConfigError([f"--workers must be at least 1, got {args.workers}"])
    return cfg


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


def _cmd_analytic(cfg: RunConfig) -> int:
    spec = _require_spec(cfg, "analytic")
    header = ("quantity", "value")
    s_grid = cfg.s_grid or simulator.default_s_grid(spec.num_sources)
    rows = analytics.analytic_quantities(spec, s_grid).items()
    _print_table(header, [(name, _fmt(value)) for name, value in rows], sys.stdout)
    if cfg.output:
        experiments.write_csv(cfg.output, header, rows)
        print(f"wrote {cfg.output}", file=sys.stdout)
    return 0


def _cmd_simulate(cfg: RunConfig, workers: int, trace) -> int:
    spec = _require_spec(cfg, "simulate")
    report = simulator.simulate(
        spec,
        horizon=cfg.horizon,
        burn_in=cfg.burn_in,
        replications=cfg.replications,
        seed=cfg.seed,
        s_grid=cfg.s_grid or None,
        workers=workers,
        trace_path=trace,
    )
    if trace is not None:
        print(f"wrote event trace {trace}")
    print(
        f"simulated {report.replications} replications, horizon {report.horizon:g}, "
        f"burn-in {report.burn_in:g}, seed {report.seed}"
    )
    header = ("quantity", "value", "stderr")
    rows = [(name, est.value, est.stderr) for name, est in report.quantities.items()]
    _print_table(header, [(name, _fmt(v), _fmt(se)) for name, v, se in rows], sys.stdout)
    for flag in report.flags:
        print(f"note: {flag}", file=sys.stderr)
    if cfg.output:
        experiments.write_csv(cfg.output, header, rows)
        print(f"wrote {cfg.output}")
    return 0


def _cmd_compare(cfg: RunConfig, workers: int) -> int:
    spec = _require_spec(cfg, "compare")
    rows, passed, attempts = experiments.compare_with_retry(
        spec,
        horizon=cfg.horizon,
        burn_in=cfg.burn_in,
        replications=cfg.replications,
        seed=cfg.seed,
        s_grid=cfg.s_grid or None,
        workers=workers,
    )
    table = [
        (r.quantity, _fmt(r.analytic), _fmt(r.simulated), _fmt(r.stderr), _fmt(r.z),
         "pass" if r.passed else "FAIL")
        for r in rows
    ]
    _print_table(("quantity", "analytic", "simulated", "stderr", "z", "gate"), table, sys.stdout)
    print(f"{'all quantities within' if passed else 'GATE FAILED at'} 3 stderr ({attempts} attempt(s))")
    if cfg.output:
        experiments.write_comparison_csv(rows, cfg.output)
        print(f"wrote {cfg.output}")
    if not passed:
        print("comparison gate failed", file=sys.stderr)
        return 2
    return 0


def _cmd_sweep(cfg: RunConfig) -> int:
    if cfg.sweep is None:
        raise ConfigError(["sweep: the config must define sweep settings (sweep = lambda2 | service_rate)"])
    sw = cfg.sweep
    families = sw.families or experiments.DEFAULT_FAMILIES
    if sw.kind == "lambda2":
        points = experiments.sweep_cc_vs_lambda2(
            sw.lambda1, sw.mean_service, families, sw.grid or experiments.DEFAULT_LAMBDA2_GRID
        )
        axis = "lambda2"
    else:
        points = experiments.sweep_cc_vs_service_rate(
            sw.lambda1, sw.lambda2, families, sw.grid or experiments.DEFAULT_SERVICE_RATE_GRID
        )
        axis = "service rate"
    for family in families:
        own = [p for p in points if p.family == family]
        best = min(own, key=lambda p: p.cc)
        print(f"{family}: min cc {best.cc:.6g} at {axis} {best.param:.6g} over {len(own)} points")
    experiments.write_sweep_csv(points, cfg.output or sys.stdout)
    if cfg.output:
        print(f"wrote {cfg.output}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise _UsageError("a subcommand is required")
        cfg = _load_config(args)
        if args.command == "analytic":
            return _cmd_analytic(cfg)
        if args.command == "simulate":
            return _cmd_simulate(cfg, args.workers, args.trace)
        if args.command == "compare":
            return _cmd_compare(cfg, args.workers)
        return _cmd_sweep(cfg)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())
