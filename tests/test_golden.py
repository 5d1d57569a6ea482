"""The README's command-line examples reproduce their committed CSVs.

`tests/golden/` holds the `analytic`, `simulate`, `compare` and `sweep`
CSVs of the README's `system.cfg` and `sweep.cfg`.  Labels and flags must
match exactly; floats to 1e-12 relative, so that a different BLAS build
moving a last digit does not fail the test.
"""

import csv
import math
import re
from pathlib import Path

import pytest

from aoistats.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
RTOL = 1e-12

COMMANDS = [
    ("analytic", "system.cfg"),
    ("simulate", "system.cfg"),
    ("compare", "system.cfg"),
    ("sweep", "sweep.cfg"),
]


def _readme_configs() -> dict[str, str]:
    text = (ROOT / "README.md").read_text()
    return dict(re.findall(r"cat > (\S+) <<'EOT'\n(.*?)EOT\n", text, re.DOTALL))


def _cells_match(got: str, want: str) -> bool:
    try:
        a, b = float(got), float(want)
    except ValueError:
        return got == want
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= RTOL * max(abs(a), abs(b))


@pytest.mark.parametrize("command,config", COMMANDS)
def test_readme_example_matches_golden_csv(tmp_path, command, config):
    configs = _readme_configs()
    assert set(configs) == {"system.cfg", "sweep.cfg"}
    cfgfile = tmp_path / config
    cfgfile.write_text(configs[config])
    out = tmp_path / f"{command}.csv"
    assert main([command, "--config", str(cfgfile), "--output", str(out)]) == 0
    with open(out, newline="") as fh:
        got = list(csv.reader(fh))
    with open(GOLDEN / f"{command}.csv", newline="") as fh:
        want = list(csv.reader(fh))
    assert len(got) == len(want)
    for got_row, want_row in zip(got, want):
        assert len(got_row) == len(want_row) and all(map(_cells_match, got_row, want_row)), (got_row, want_row)
