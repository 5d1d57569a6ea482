"""The README's command-line examples reproduce their committed CSVs.

`tests/golden/` holds the `analytic`, `simulate`, `compare` and `sweep`
CSVs of the README's `system.cfg` and `sweep.cfg`.  Labels and flags must
match exactly; floats to 1e-12 relative, so that a different BLAS build
moving a last digit does not fail the test.  A `compare` z-score is the
exception: z = (simulated - analytic) / stderr cancels about three digits
on the README system, so a last-digit move of a simulated mean moves its
z about a thousand times as much.  Each z is checked against the z of its
golden row's own cells, within the bound that 1e-12 moves of those cells
put on it.
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


def _z_matches(got: str, want: dict[str, str]) -> bool:
    """`got` against the z of the golden row `want`'s analytic, simulated
    and stderr cells, to first order in their RTOL moves; a z that is no
    such ratio (stderr 0, or no finite z) must match as a cell."""
    analytic, simulated, stderr = (float(want[k]) for k in ("analytic", "simulated", "stderr"))
    if not (stderr > 0 and math.isfinite(float(want["z"]))):
        return _cells_match(got, want["z"])
    z = (simulated - analytic) / stderr
    return abs(float(got) - z) <= RTOL * ((abs(simulated) + abs(analytic)) / stderr + abs(z))


def _row_matches(header: list[str], got_row: list[str], want_row: list[str]) -> bool:
    want = dict(zip(header, want_row))
    return len(got_row) == len(want_row) and all(
        _z_matches(g, want) if name == "z" else _cells_match(g, w) for name, g, w in zip(header, got_row, want_row)
    )


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
    assert len(got) == len(want) and got[0] == want[0]
    for got_row, want_row in zip(got[1:], want[1:]):
        assert _row_matches(want[0], got_row, want_row), (got_row, want_row)


def test_z_check_refuses_what_the_cell_checks_refuse():
    """A golden compare row fails with one of its analytic, simulated or
    stderr cells moved by 2 RTOL, z recomputed from the moved cells, and
    with z alone moved by 1e-6, over 200 times the widest z bound of these
    rows.  The 3e-16 move of aoi_mean[2] that moved its z by 1.3e-12 passes."""
    with open(GOLDEN / "compare.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    for row in rows:
        want = dict(zip(header, row))
        changed = [dict(want, z=repr(float(want["z"]) + 1e-6))]
        for name in ("analytic", "simulated", "stderr"):
            if float(want[name]) != 0.0:
                moved = dict(want, **{name: repr(float(want[name]) * (1 + 2 * RTOL))})
                if float(moved["stderr"]) > 0:
                    moved["z"] = repr((float(moved["simulated"]) - float(moved["analytic"])) / float(moved["stderr"]))
                changed.append(moved)
        for moved in changed:
            assert not _row_matches(header, [moved[k] for k in header], row), (moved, row)
    row = next(r for r in rows if r[0] == "aoi_mean[2]")
    want = dict(zip(header, row), simulated="0.6665009265052502", z="-0.2030660817715081")
    assert not _cells_match(want["z"], row[header.index("z")])
    assert _row_matches(header, [want[k] for k in header], row)
