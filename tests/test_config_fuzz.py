"""Generated config files: every text of the documented keys and service
literals parses to a RunConfig or fails with a ConfigError, and never
warns; every closed form of an accepted system is finite.  `aoistats
analytic` and `aoistats sweep` run on such files exit 0 or 1, with no
traceback and no warning, and every correlation a sweep writes is finite
and at most 0.  (`simulate` and `compare` would run replications.)

Numbers span a wide log range, from subnormals past the largest float,
so that the closed forms meet underflow and overflow as well as ordinary
values.  The examples are drawn from a fixed seed.
"""

import csv
import io
import math
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from aoistats.analytics import analytic_quantities
from aoistats.cli import main
from aoistats.config import ConfigError, RunConfig, parse_config
from aoistats.experiments import _SWEEPS

# positive numbers, half of them within 1e±20, the rest anywhere from
# below the smallest subnormal to above the largest float
EXPONENT = st.one_of(st.integers(-20, 20), st.integers(-330, 330))
POSITIVE = st.builds("{}.{}e{}".format, st.integers(1, 9), st.integers(0, 9), EXPONENT)
# one number in twenty is one that no key accepts
NUMBER = st.integers(0, 19).flatmap(
    lambda i: st.sampled_from(["0", "-1", "inf", "nan", "x"]) if i == 0 else POSITIVE
)
SIMPLE = st.one_of(
    st.builds("exp({})".format, NUMBER),
    st.builds("gamma({}, {})".format, NUMBER, NUMBER),
    st.builds("det({})".format, NUMBER),
)


@st.composite
def mixtures(draw):
    parts = draw(st.lists(SIMPLE, min_size=1, max_size=3))
    equal = st.just([repr(1 / len(parts))] * len(parts))
    weights = draw(st.one_of(equal, equal, st.lists(NUMBER, min_size=len(parts), max_size=len(parts))))
    return "mix(" + ", ".join(f"{w}*{lit}" for w, lit in zip(weights, parts)) + ")"


@st.composite
def configs(draw):
    num_sources = draw(st.integers(1, 3))
    lines = [f"source = {draw(NUMBER)} {draw(st.one_of(SIMPLE, SIMPLE, mixtures()))}" for _ in range(num_sources)]
    optional = {
        "command": st.sampled_from(["analytic", "simulate", "compare", "sweep"]),
        "horizon": NUMBER,
        "burn_in": NUMBER,
        "replications": st.integers(1, 10**9).map(str),
        "seed": st.integers(-1, 2**64).map(str),
        "s_grid": st.lists(
            st.lists(NUMBER, min_size=num_sources, max_size=num_sources).map(", ".join), min_size=1, max_size=3
        ).map("; ".join),
        "output": st.sampled_from(["out.csv", "out.csv", "out.csv", ""]),
    }
    for key, values in optional.items():
        if draw(st.integers(0, 3)) == 0:
            lines.append(f"{key} = {draw(values)}")
    if draw(st.integers(0, 4)) == 0:
        kind = draw(st.sampled_from(["lambda2", "service_rate"]))
        needs = "sweep_mean_service" if kind == "lambda2" else "sweep_lambda2"
        lines += [f"sweep = {kind}", f"sweep_lambda1 = {draw(NUMBER)}", f"{needs} = {draw(NUMBER)}"]
        grid = st.one_of(
            st.builds("logspace({}, {}, {})".format, NUMBER, NUMBER, st.integers(-3, 10**12)),
            st.lists(NUMBER, min_size=1, max_size=5).map(", ".join),
        )
        families = st.lists(st.sampled_from(["exponential", "deterministic", "gamma(2)", "gamma(0)"]), min_size=1, max_size=3)
        for key, values in (("sweep_grid", grid), ("sweep_families", families.map(", ".join))):
            if draw(st.booleans()):
                lines.append(f"{key} = {draw(values)}")
    return "\n".join(draw(st.permutations(lines))) + "\n"


@settings(max_examples=300, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@example("source = 1 mix(1e308*exp(1), 1e308*det(1))\n")
@example("source = 1 gamma(1e308, 1e-300)\n")
@example("source = 1 det(480)\n")
@example("source = 1e308 exp(1)\nsource = 1e308 exp(1)\n")
@example("source = 1 exp(1e300)\n")
@example("source = 1 exp(1)\nsource = 1 exp(1)\ns_grid = 1e308, 1e308\n")
@given(configs())
def test_generated_configs_parse_or_fail_cleanly(text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            cfg = parse_config(text)
        except ConfigError:
            return
        assert isinstance(cfg, RunConfig)
        if cfg.spec is not None:
            rows = analytic_quantities(cfg.spec, cfg.s_grid or None)
            assert all(math.isfinite(v) for v in rows.values()), rows


@st.composite
def sweeps(draw):
    # one log range per sweep, so that some sweeps keep every point inside
    # float64 and reach the end, while others run into its edges
    top = draw(st.sampled_from([1, 20, 330]))
    scaled = st.builds("{}.{}e{}".format, st.integers(1, 9), st.integers(0, 9), st.integers(-top, top))
    number = st.one_of(scaled, scaled, scaled, NUMBER)
    kind = draw(st.sampled_from([*_SWEEPS] * 4 + ["x"]))
    fixed = _SWEEPS[kind].fixed if kind in _SWEEPS else draw(st.sampled_from([k.fixed for k in _SWEEPS.values()]))
    lines = [f"sweep = {kind}", f"sweep_lambda1 = {draw(number)}", f"sweep_{fixed} = {draw(number)}"]
    increasing = st.lists(scaled, min_size=2, max_size=4, unique_by=float).map(lambda v: sorted(v, key=float))
    grid = st.one_of(
        increasing.map(", ".join),
        increasing.map(", ".join),
        st.builds(lambda ends, n: f"logspace({ends[0]}, {ends[-1]}, {n})", increasing, st.integers(2, 12)),
        st.lists(number, min_size=1, max_size=4).map(", ".join),
        st.builds("logspace({}, {}, {})".format, number, number, st.integers(-1, 12)),
    )
    families = st.sampled_from(["exponential", "deterministic", "gamma(0.5)", "gamma(2)"])
    families = st.lists(st.one_of(families, st.builds("gamma({})".format, number)), min_size=1, max_size=3)
    for key, values in (("sweep_grid", grid), ("sweep_families", families.map(", ".join))):
        if draw(st.integers(0, 3)):
            lines.append(f"{key} = {draw(values)}")
    return "\n".join(draw(st.permutations(lines))) + "\n"


def run_cli(command, text):
    """Exit code of `aoistats <command>` on config `text`, with warnings as
    errors, and the rows of the CSV it wrote."""
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        path, output = Path(tmp) / "run.cfg", Path(tmp) / "out.csv"
        path.write_text(text)
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = main([command, "--config", str(path), "--output", str(output)])
        if not output.exists():
            return code, []
        with output.open() as fh:
            return code, list(csv.DictReader(fh))


@settings(max_examples=150, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@example("source = 1 gamma(1e308, 1e-300)\n")
@given(configs())
def test_cli_analytic_on_generated_configs_exits_cleanly(text):
    code, rows = run_cli("analytic", text)
    assert code in (0, 1)
    assert all(math.isfinite(float(r["value"])) for r in rows)


@settings(max_examples=150, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@example(  # both update rates underflow to 0 at grid value 3e-235
    "sweep = service_rate\nsweep_lambda1 = 3.0e-235\nsweep_lambda2 = 3.2e-120\n"
    "sweep_grid = 3.0e-235, 9.9e-172, 9.2e7\nsweep_families = gamma(2)\n"
)
@given(sweeps())
def test_cli_sweep_on_generated_configs_exits_cleanly(text):
    code, rows = run_cli("sweep", text)
    assert code in (0, 1)
    assert all(math.isfinite(float(r["cc"])) and float(r["cc"]) <= 0 for r in rows)
