"""Print every simulated number bit for bit, to show that a change moved none.

For two systems, the README's `system.cfg` and the benchmark's
`gate-k8-par` config (built by perfbench/workloads.py's `config_text`),
`simulate` runs with the config's settings and each row of its report is
printed as one line,

    label value.hex() stderr.hex() batches flag

after a line naming the system.  Two checkouts print the same text
exactly when every simulated value, stderr, batch count and flag is the
same.  Run it from the repository root in each checkout and compare:

    PYTHONPATH=src python tests/float_hex_probe.py > probe.txt

`--horizon` and `--burn-in` replace both configs' values, for a quick
run; `--workers` sets the worker count, which changes no number.  Pytest
does not collect this file; tests/test_simulator.py runs it at a short
horizon.
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
from pathlib import Path

from aoistats import config, simulator

ROOT = Path(__file__).resolve().parent.parent


def readme_config() -> str:
    """The text of the README's `system.cfg`."""
    text = (ROOT / "README.md").read_text()
    return text.split("cat > system.cfg <<'EOT'\n", 1)[1].split("EOT\n", 1)[0]


def gate_k8_config() -> str:
    """The `gate-k8-par` config, built by perfbench/workloads.py."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # a dataclass looks its module up in sys.modules while it is defined
    sys.modules[spec.name] = workloads
    spec.loader.exec_module(workloads)
    return workloads.config_text("gate-k8-par")


SYSTEMS = {"readme": readme_config, "gate-k8-par": gate_k8_config}


def probe(horizon: float | None = None, burn_in: float | None = None, workers: int = 1) -> list[str]:
    """The probe's lines; `horizon` and `burn_in`, when given, replace the configs' values."""
    lines = []
    for name, text in SYSTEMS.items():
        cfg = config.parse_config(text())
        report = simulator.simulate(
            cfg.spec,
            horizon=cfg.horizon if horizon is None else horizon,
            burn_in=cfg.burn_in if burn_in is None else burn_in,
            replications=cfg.replications,
            seed=cfg.seed,
            s_grid=cfg.s_grid or None,
            workers=workers,
        )
        lines.append(f"# {name}")
        lines += [f"{label} {e.value.hex()} {e.stderr.hex()} {e.batches} {e.flag}" for label, e in report.quantities.items()]
    return lines


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--horizon", type=float)
    parser.add_argument("--burn-in", type=float)
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args()
    print("\n".join(probe(args.horizon, args.burn_in, args.workers)))


if __name__ == "__main__":
    main()
