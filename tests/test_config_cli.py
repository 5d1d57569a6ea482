import csv
import logging
import os
import re
import shutil
import signal
import subprocess
import sys
import time
import tokenize
import warnings
from pathlib import Path

import pytest

import aoistats
from aoistats import cli, config, experiments, servicedist, simulator
from aoistats.cli import main
from aoistats.config import ConfigError, parse_config, render_config
from aoistats.experiments import ComparisonRow
from aoistats.servicedist import Exponential, Gamma, Mixture

FULL_CONFIG = """
# two-source anchor system
command = simulate
source = 3.0 exp(6)
source = 3.0 mix(0.5*exp(6), 0.5*det(0.1666))

horizon = 5e3        # per replication
burn_in = 80
replications = 8
seed = 42
s_grid = 0.5, 0.5; 1, 2
output = out.csv
"""

ROOT = Path(__file__).resolve().parent.parent

SWEEP_CONFIG = """
command = sweep
sweep = lambda2
sweep_lambda1 = 3.0
sweep_mean_service = 0.16666666666666666
sweep_grid = logspace(0.5, 50, 9)
sweep_families = exponential, deterministic
"""


# --- parsing -----------------------------------------------------------------


def test_parse_full_config():
    cfg = parse_config(FULL_CONFIG)
    assert cfg.command == "simulate"
    assert cfg.spec.rates == (3.0, 3.0)
    assert isinstance(cfg.spec.services[0], Exponential)
    assert isinstance(cfg.spec.services[1], Mixture)
    assert cfg.horizon == 5e3
    assert cfg.burn_in == 80.0
    assert cfg.replications == 8
    assert cfg.seed == 42
    assert cfg.s_grid == ((0.5, 0.5), (1.0, 2.0))
    assert cfg.output == "out.csv"
    assert cfg.sweep is None


def test_parse_is_case_and_whitespace_tolerant():
    cfg = parse_config("HORIZON = 2e3\n\n  Seed=7  # trailing comment\n")
    assert cfg.horizon == 2e3
    assert cfg.seed == 7


def test_parse_collects_every_error():
    bad = "\n".join(
        [
            "wat = 1",
            "source = -1 exp(2)",
            "source = 2 exp(3)",
            "replications = 1",
        ]
    )
    with pytest.raises(ConfigError) as exc:
        parse_config(bad)
    errors = exc.value.errors
    assert len(errors) == 3
    joined = "\n".join(errors)
    assert "unknown key 'wat'" in joined
    assert "source rate: must be positive" in joined
    assert "replications: need at least 2" in joined
    assert str(exc.value).startswith("invalid configuration:\n  - ")


@pytest.mark.parametrize("horizon", ["-5", "soon", "inf"])
def test_invalid_horizon_is_the_only_error(horizon):
    # the burn-in is not compared with a default horizon the file never set
    with pytest.raises(ConfigError) as exc:
        parse_config(f"source = 1 exp(2)\nhorizon = {horizon}\nburn_in = 2e4\n")
    (error,) = exc.value.errors
    assert error.startswith("horizon: ")


@pytest.mark.parametrize(
    "text,needle",
    [
        ("horizon = 1\nhorizon = 2\n", "duplicate key"),
        ("just some words\n", "expected key = value"),
        ("source = 1 exp(2)\nhorizon = 100\nburn_in = 100\n", "below the horizon"),
        ("burn_in = -3\nsource = 1 exp(2)\n", "nonnegative"),
        ("command = fly\n", "unknown command"),
        ("source = 1 exp(2)\ns_grid = 1; -2\n", "nonnegative"),
        ("source = 1\n", "rate service-literal"),
        ("source = 1 weibull(2)\n", "unknown distribution"),
        ("source = 1 exp(2)\ns_grid = 1, 2, 3\n", "length 3 but the system has 1 sources"),
        ("sweep_lambda1 = 3\n", "without a sweep kind"),
        ("sweep = sideways\nsweep_lambda1 = 3\n", "unknown kind"),
        ("sweep = lambda2\nsweep_lambda1 = 3\n", "sweep_mean_service: required"),
        ("sweep = service_rate\nsweep_lambda1 = 3\n", "sweep_lambda2: required"),
        ("sweep = service_rate\nsweep_lambda2 = 1\n", "sweep_lambda1: required"),
        (SWEEP_CONFIG + "sweep_families = exponential, weird\n", "duplicate key"),
        (
            SWEEP_CONFIG.replace("exponential, deterministic", "weird"),
            "unknown family tag",
        ),
        (
            SWEEP_CONFIG.replace("logspace(0.5, 50, 9)", "logspace(50, 0.5, 9)"),
            "sweep_grid: sweep grid must be strictly increasing",
        ),
        (
            SWEEP_CONFIG.replace("logspace(0.5, 50, 9)", "logspace(1, 1.0000000000000002, 5)"),
            "sweep_grid: sweep grid must be strictly increasing",
        ),
        (SWEEP_CONFIG.replace("logspace(0.5, 50, 9)", "3, 2, 1"), "strictly increasing"),
        ("seed = -1\n", "seed: must lie in [0, 18446744073709551615], got -1"),
        ("seed = 0x10000000000000000\n", "seed: must lie in [0, 18446744073709551615], got 18446744073709551616"),
        (
            FULL_CONFIG.replace("s_grid = 0.5, 0.5; 1, 2", "s_grid = 0.1234567, 0; 0.1234568, 0"),
            "share the label joint_laplace(0.123457,0)",
        ),
        (SWEEP_CONFIG + "sweep_lambda2 = 3\n", "sweep_lambda2: not read by lambda2 sweeps"),
        (
            "sweep = service_rate\nsweep_lambda1 = 3\nsweep_lambda2 = 1\nsweep_mean_service = 0.5\n",
            "sweep_mean_service: not read by service_rate sweeps",
        ),
        ("source = 1 exp(2)\ns_grid =\n", "s_grid: needs at least one vector"),
        ("source = 1 exp(2)\ns_grid = ;\n", "s_grid: needs at least one vector"),
        (
            SWEEP_CONFIG.replace("exponential, deterministic", ","),
            "sweep_families: needs at least one family",
        ),
        ("source = 1 exp(2)\noutput =\n", "output: needs a path"),
        (
            SWEEP_CONFIG.replace("logspace(0.5, 50, 9)", "logspace(0.5, 50, 10001)"),
            "sweep_grid: logspace takes at most 10000 points, got 10001",
        ),
        ("source = 1 mix(1e308*exp(1), 1e308*det(1))\n", "mixture weights must lie in (0, 1], got 1e+308"),
        ("source = 1 det(480)\n", "source 1: age moments are out of float64 range at update rate 3.4566e-209"),
        ("source = 1e308 exp(1)\nsource = 1e308 exp(1)\n", "the total arrival rate overflows"),
    ],
)
def test_parse_rejects(text, needle):
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert needle in str(exc.value)


def test_huge_logspace_is_refused_before_it_is_built():
    text = SWEEP_CONFIG.replace("logspace(0.5, 50, 9)", "logspace(1, 2, 1000000000)")
    start = time.perf_counter()
    with pytest.raises(ConfigError, match="sweep_grid: logspace takes at most 10000 points, got 1000000000"):
        parse_config(text)
    assert time.perf_counter() - start < 0.5
    assert f"`n` is at most {config._MAX_LOGSPACE_POINTS}" in (ROOT / "docs" / "config.md").read_text()
    assert len(parse_config(SWEEP_CONFIG.replace("logspace(0.5, 50, 9)", "logspace(1, 2, 10000)")).sweep_grid) == 10000


def test_overflowing_gamma_transform_warns_nothing():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="source 1: completion probability is zero"):
            parse_config("source = 1 gamma(1e308, 1e-300)\n")


def test_parse_sweep_config():
    cfg = parse_config(SWEEP_CONFIG)
    assert cfg.sweep == "lambda2"
    assert cfg.sweep_lambda1 == 3.0
    assert cfg.sweep_mean_service == pytest.approx(1.0 / 6.0)
    assert len(cfg.sweep_grid) == 9
    assert cfg.sweep_grid[0] == pytest.approx(0.5)
    assert cfg.sweep_grid[-1] == pytest.approx(50.0)
    assert cfg.sweep_families == ("exponential", "deterministic")


def test_repeated_sweep_families_collapse(tmp_path, capsys):
    text = SWEEP_CONFIG.replace("exponential, deterministic", "exponential, deterministic, exponential")
    assert parse_config(text).sweep_families == ("exponential", "deterministic")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(write_config(tmp_path, text)), "--output", str(out)]) == 0
    assert capsys.readouterr().out.count("exponential: min cc") == 1
    assert len(out.read_text().splitlines()) == 1 + 2 * 9


def test_sweep_families_giving_one_model_count_once():
    text = SWEEP_CONFIG.replace(
        "exponential, deterministic", "exponential, Exponential, gamma(2), gamma( 2 ), gamma(2.0), gamma(0.5)"
    )
    assert parse_config(text).sweep_families == ("exponential", "gamma(2)", "gamma(0.5)")
    # a shape-1 gamma is the exponential law, under whichever spelling comes first
    for families, kept in [
        ("exponential, gamma(1), gamma(1.0)", ("exponential",)),
        ("gamma(1), deterministic, Exponential", ("gamma(1)", "deterministic")),
    ]:
        assert parse_config(SWEEP_CONFIG.replace("exponential, deterministic", families)).sweep_families == kept


def test_docs_config_tables_list_every_key():
    doc = (ROOT / "docs" / "config.md").read_text()
    keys = set()
    for section in ("## Run keys", "## Sweep keys"):
        table = doc.split(section, 1)[1].split("\n## ", 1)[0]
        keys |= set(re.findall(r"^\| `(\w+)` \|", table, re.M))
    for key in keys:
        try:
            parse_config(f"{key} = ?\n")
        except ConfigError as exc:
            assert f"unknown key {key!r}" not in exc.errors
    assert keys == set(config._KEYS)


def test_render_parse_round_trip():
    for text in (FULL_CONFIG, SWEEP_CONFIG, "source = 2 gamma(1.5, 4)\n"):
        cfg = parse_config(text)
        assert parse_config(render_config(cfg)) == cfg


# --- command line ------------------------------------------------------------


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


ANALYTIC_CFG = "source = 3 exp(6)\nsource = 3 exp(6)\ns_grid = 1, 1\n"
SIM_CFG = "source = 3 exp(6)\nsource = 3 exp(6)\nhorizon = 500\nburn_in = 20\nreplications = 4\nseed = 1\n"


def test_cli_analytic_table(tmp_path, capsys):
    cfgfile = write_config(tmp_path, ANALYTIC_CFG)
    assert main(["analytic", "--config", str(cfgfile)]) == 0
    out = capsys.readouterr().out
    assert "aoi_mean[1]" in out and "0.666667" in out
    assert "aoi_correlation" in out and "-0.166667" in out
    assert "joint_laplace(1,1)" in out
    assert "pushout_rate" in out and "update_share[2]" in out


def test_cli_analytic_csv_is_reproducible(tmp_path, capsys):
    cfgfile = write_config(tmp_path, ANALYTIC_CFG)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["analytic", "--config", str(cfgfile), "--output", str(out1)]) == 0
    assert main(["analytic", "--config", str(cfgfile), "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    with open(out1) as fh:
        rows = {r["quantity"]: float(r["value"]) for r in csv.DictReader(fh)}
    assert rows["aoi_mean[1]"] == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert rows["aoi_covariance"] == pytest.approx(-1.0 / 18.0, rel=1e-12)
    assert rows["departure_rate"] == pytest.approx(3.0, rel=1e-12)


def test_cli_simulate(tmp_path, capsys):
    cfgfile = write_config(tmp_path, SIM_CFG)
    out = tmp_path / "sim.csv"
    code = main(["simulate", "--config", str(cfgfile), "--output", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "simulated 4 replications, horizon 500, burn-in 20, seed 1" in captured.out
    assert "joint_laplace(0,0)" in captured.out
    assert "palm_" not in captured.out
    with open(out) as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == ["quantity", "value", "stderr"]
        rows = {r["quantity"]: r for r in reader}
    assert float(rows["aoi_mean[1]"]["stderr"]) > 0.0
    assert float(rows["joint_laplace(0,0)"]["value"]) == 1.0


def test_cli_simulate_flag_overrides(tmp_path, capsys):
    cfgfile = write_config(tmp_path, SIM_CFG)
    code = main(
        [
            "simulate",
            "--config",
            str(cfgfile),
            "--replications",
            "6",
            "--seed",
            "9",
            "--horizon",
            "400",
            "--burn-in",
            "10",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "simulated 6 replications, horizon 400, burn-in 10, seed 9" in out


def test_cli_flags_accept_what_keys_accept(tmp_path, capsys):
    cfgfile = write_config(tmp_path, SIM_CFG)
    assert main(["simulate", "--config", str(cfgfile), "--seed", "0x10", "--replications", "0x3"]) == 0
    assert "simulated 3 replications, horizon 500, burn-in 20, seed 16" in capsys.readouterr().out


@pytest.mark.parametrize(
    "key, value",
    [
        ("seed", "-1"),
        ("seed", "1.5"),
        ("horizon", "-5"),
        ("horizon", "soon"),
        ("replications", "1"),
        ("burn_in", "-3"),
        ("burn_in", "500"),
    ],
)
def test_flag_reports_what_its_key_reports(key, value, tmp_path, capsys):
    text = re.sub(rf"^{key} = .*$", f"{key} = {value}", SIM_CFG, flags=re.M)
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    (error,) = exc.value.errors
    assert error.startswith(f"{key}: ")
    flag = "--" + key.replace("_", "-")
    assert main(["simulate", "--config", str(write_config(tmp_path, SIM_CFG)), flag, value]) == 1
    assert f"  - {flag}: {error[len(key) + 2:]}\n" in capsys.readouterr().err


def test_cli_simulate_trace(tmp_path, capsys):
    cfgfile = write_config(tmp_path, SIM_CFG)
    trace = tmp_path / "trace.csv"
    assert main(["simulate", "--config", str(cfgfile), "--trace", str(trace)]) == 0
    assert "wrote event trace" in capsys.readouterr().out
    with open(trace) as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == ["epoch", "kind", "source", "value"]
        kinds = {row["kind"] for row in reader}
    assert kinds == {"arrival", "departure"}


LATE_CFG = "source = 3 exp(6)\nsource = 0.05 exp(6)\nhorizon = 50\nburn_in = 2\nreplications = 4\nseed = 31\n"
# source 2's det(50) service never fits before the horizon, whatever the seed
NEVER_CFG = LATE_CFG.replace("0.05 exp(6)", "0.05 det(50)")


def test_cli_simulate_notes_flagged_estimates(tmp_path, capsys):
    # source 2 never delivers, so its delay and peak means have no value
    # and no stderr
    cfgfile = write_config(tmp_path, NEVER_CFG)
    out = tmp_path / "late.csv"
    assert main(["simulate", "--config", str(cfgfile), "--output", str(out)]) == 0
    notes = [line for line in capsys.readouterr().err.splitlines() if line.startswith("note: ")]
    assert notes[-2:] == [
        "note: delay_mean[2]: no deliveries for source 2",
        "note: peak_mean[2]: no peaks for source 2",
    ]
    assert [n for n in notes if not n.startswith("note: source ")] == notes[-2:]
    # the notes leave the CSV as the library reports it
    cfg = parse_config(NEVER_CFG)
    report = simulator.simulate(
        cfg.spec, horizon=cfg.horizon, burn_in=cfg.burn_in, replications=cfg.replications, seed=cfg.seed
    )
    with open(out) as fh:
        rows = [tuple(row) for row in csv.reader(fh)]
    assert rows[0] == ("quantity", "value", "stderr")
    assert rows[1:] == [(name, repr(est.value), repr(est.stderr)) for name, est in report.quantities.items()]
    assert dict((r[0], r[2]) for r in rows[1:])["peak_mean[2]"] == "nan"


def test_cli_compare_notes_flagged_estimates(tmp_path, capsys):
    # compare runs the same simulation, so its FAIL rows come with the reason
    cfgfile = write_config(tmp_path, NEVER_CFG)
    assert main(["compare", "--config", str(cfgfile)]) == 2
    notes = [line for line in capsys.readouterr().err.splitlines() if line.startswith("note: ")]
    assert any(n.startswith("note: source 2: first delivery after burn-in") for n in notes)
    assert "note: peak_mean[2]: no peaks for source 2" in notes


def test_cli_compare_names_the_seed_of_each_attempt(tmp_path, capsys):
    # both attempts fail on the late-source config, and each one's notes
    # follow a line naming its seed
    cfgfile = write_config(tmp_path, LATE_CFG)
    assert main(["compare", "--config", str(cfgfile)]) == 2
    notes = [line for line in capsys.readouterr().err.splitlines() if line.startswith("note: ")]
    heads = [i for i, n in enumerate(notes) if n.startswith("note: gate attempt ")]
    assert [notes[i] for i in heads] == ["note: gate attempt 1 of 2, seed 31", "note: gate attempt 2 of 2, seed 32"]
    assert heads[0] == 0
    cfg = parse_config(LATE_CFG)
    for seed, block in ((31, notes[1 : heads[1]]), (32, notes[heads[1] + 1 :])):
        report = simulator.simulate(
            cfg.spec, horizon=cfg.horizon, burn_in=cfg.burn_in, replications=cfg.replications, seed=seed
        )
        assert block == [f"note: {flag}" for flag in report.flags]
    assert notes[1 : heads[1]] != notes[heads[1] + 1 :]


def test_cli_notes_print_once_per_call(tmp_path, capsys):
    log = logging.getLogger("aoistats")
    handlers, level = list(log.handlers), log.level
    cfgfile = write_config(tmp_path, LATE_CFG)
    errs = []
    for _ in range(2):
        assert main(["simulate", "--config", str(cfgfile)]) == 0
        errs.append(capsys.readouterr().err)
        assert (log.handlers, log.level) == (handlers, level)
    notes = [line for line in errs[0].splitlines() if line.startswith("note: ")]
    assert notes and len(set(notes)) == len(notes)
    assert errs[1] == errs[0]


def test_library_simulate_writes_nothing_to_stderr(capsys):
    cfg = parse_config(LATE_CFG)
    report = simulator.simulate(
        cfg.spec, horizon=cfg.horizon, burn_in=cfg.burn_in, replications=cfg.replications, seed=cfg.seed
    )
    assert report.flags
    assert capsys.readouterr().err == ""


class _InProcessPool:
    def __init__(self, max_workers):
        pass

    def shutdown(self):
        pass

    def map(self, fn, args):
        return map(fn, args)


@pytest.mark.parametrize("workers", ["1", "2"])
def test_cli_simulate_trace_is_replication_0_of_the_run(workers, tmp_path, capsys, monkeypatch):
    cfgfile = write_config(tmp_path, SIM_CFG)
    cfg = parse_config(SIM_CFG)
    expected = tmp_path / "expected.csv"
    simulator.run_replication(cfg.spec, cfg.horizon, cfg.burn_in, cfg.seed, rep_index=0, trace_path=expected)
    trace = tmp_path / "trace.csv"
    argv = ["simulate", "--config", str(cfgfile), "--trace", str(trace), "--workers", workers]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert first.startswith(f"wrote event trace {trace}\nsimulated 4 replications")
    assert trace.read_bytes() == expected.read_bytes()

    # the same run, with every replication in this process, runs each once
    calls = []
    run_replication = simulator.run_replication

    def recording(*args, **kwargs):
        calls.append(args[4])
        return run_replication(*args, **kwargs)

    monkeypatch.setattr(simulator, "run_replication", recording)
    # the pool reused by parallel runs is set aside for this test only
    monkeypatch.setattr(simulator, "_pool", None)
    monkeypatch.setattr(simulator, "ProcessPoolExecutor", _InProcessPool)
    monkeypatch.setattr(simulator.os, "sched_getaffinity", lambda pid: {0, 1})
    trace.unlink()
    assert main(argv) == 0
    assert calls == list(range(cfg.replications))
    assert capsys.readouterr().out == first
    assert trace.read_bytes() == expected.read_bytes()


def test_cli_compare_workers_end_with_the_process(tmp_path):
    cfgfile = write_config(tmp_path, SIM_CFG)
    # the subprocess imports the package this test imported, may use 2
    # CPUs, and prints the pids of its pool's workers after the run
    package_parent = str(Path(aoistats.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_parent, env.get("PYTHONPATH")]))
    script = (
        "import multiprocessing, os, sys; from aoistats.cli import main; "
        "os.sched_getaffinity = lambda pid: {0, 1}; "
        f"code = main(['compare', '--config', {str(cfgfile)!r}, '--workers', '2']); "
        "print(*[p.pid for p in multiprocessing.active_children()]); sys.exit(code)"
    )
    ran = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
    pids = [int(pid) for pid in ran.stdout.splitlines()[-1].split()]
    # a worker that outlived the subprocess is killed here, and fails the test
    alive = []
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
            alive.append(pid)
        except ProcessLookupError:
            pass
    assert ran.returncode == 0 and len(pids) == 2 and alive == []


def test_cli_compare_pass_and_fail(tmp_path, capsys, monkeypatch):
    cfgfile = write_config(tmp_path, SIM_CFG)

    def fake_retry(spec, **kwargs):
        row = ComparisonRow("aoi_mean[1]", 1.0, 1.001, 0.01, 0.1, True)
        return [row], True, 1

    monkeypatch.setattr(experiments, "compare_with_retry", fake_retry)
    assert main(["compare", "--config", str(cfgfile)]) == 0
    assert "all quantities within 3 stderr (1 attempt(s))" in capsys.readouterr().out

    def fake_retry_fail(spec, **kwargs):
        row = ComparisonRow("aoi_mean[1]", 1.0, 2.0, 0.01, 100.0, False)
        return [row], False, 2

    monkeypatch.setattr(experiments, "compare_with_retry", fake_retry_fail)
    out_csv = tmp_path / "cmp.csv"
    code = main(["compare", "--config", str(cfgfile), "--output", str(out_csv)])
    captured = capsys.readouterr()
    assert code == 2
    assert "GATE FAILED" in captured.out
    assert "comparison gate failed" in captured.err
    assert "FAIL" in captured.out
    assert out_csv.exists()


def test_cli_runs_pass_the_same_settings(tmp_path, monkeypatch):
    # both subcommands that run the simulator map the config and the flags
    # to its settings the same way; an empty s_grid means the default grid
    received = {}

    def fake_simulate(spec, **kwargs):
        received["simulate"] = kwargs
        return simulator.SimulationReport(spec, 700.0, 20.0, 3, 11, (), {}, [])

    def fake_retry(spec, **kwargs):
        received["compare"] = kwargs
        return [], True, 1

    monkeypatch.setattr(simulator, "simulate", fake_simulate)
    monkeypatch.setattr(experiments, "compare_with_retry", fake_retry)
    flags = ["--seed", "11", "--horizon", "700", "--replications", "3", "--burn-in", "20", "--workers", "2"]
    for cfg, s_grid in ((SIM_CFG, None), (SIM_CFG + "s_grid = 1, 2\n", ((1.0, 2.0),))):
        cfgfile = write_config(tmp_path, cfg)
        for name in ("simulate", "compare"):
            assert main([name, "--config", str(cfgfile), *flags]) == 0
        settings = dict(horizon=700.0, burn_in=20.0, replications=3, seed=11, s_grid=s_grid, workers=2)
        assert received["simulate"] == dict(settings, trace_path=None)
        assert received["compare"] == settings


def test_cli_compare_end_to_end(tmp_path, capsys):
    # the real gate on the anchor system with its frozen seed
    cfg = "source = 3 exp(6)\nsource = 3 exp(6)\nhorizon = 1e4\nreplications = 32\nseed = 112358\n"
    cfgfile = write_config(tmp_path, cfg)
    assert main(["compare", "--config", str(cfgfile)]) == 0
    out = capsys.readouterr().out
    assert "all quantities within 3 stderr" in out
    assert "aoi_correlation" in out


def test_cli_sweep_stdout(tmp_path, capsys):
    cfgfile = write_config(tmp_path, SWEEP_CONFIG)
    assert main(["sweep", "--config", str(cfgfile)]) == 0
    out = capsys.readouterr().out
    assert "exponential: min cc" in out
    assert "deterministic: min cc" in out
    assert "param,family,cc" in out


def test_cli_sweep_csv_is_reproducible(tmp_path, capsys):
    cfgfile = write_config(tmp_path, SWEEP_CONFIG)
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert main(["sweep", "--config", str(cfgfile), "--output", str(out1)]) == 0
    assert main(["sweep", "--config", str(cfgfile), "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    with open(out1) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 18  # 9 grid points x 2 families
    assert {r["family"] for r in rows} == {"exponential", "deterministic"}


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["bogus"],
        ["simulate"],  # --config is required
        ["analytic", "--config", "/nonexistent/path.cfg"],
        ["simulate", "--config", "CFG", "--replications", "1"],
        ["simulate", "--config", "CFG", "--horizon", "-5"],
        ["simulate", "--config", "CFG", "--burn-in", "1e9"],
        ["simulate", "--config", "CFG", "--workers", "0"],
        ["compare", "--config", "CFG", "--workers", "-1"],
    ],
)
def test_cli_usage_errors_exit_1(argv, tmp_path, capsys):
    argv = [a if a != "CFG" else str(write_config(tmp_path, SIM_CFG)) for a in argv]
    assert main(argv) == 1
    assert capsys.readouterr().err != ""


@pytest.mark.parametrize(
    "argv",
    [
        ["analytic", "--config", "DIR"],
        ["analytic", "--config", "CFG", "--output", "DIR"],
        ["simulate", "--config", "CFG", "--trace", "DIR"],
        ["simulate", "--config", "CFG", "--trace", "DIR", "--workers", "2"],
        ["simulate", "--config", "CFG", "--output", "DIR"],
        ["simulate", "--config", "CFG_DIR_OUTPUT"],
        ["compare", "--config", "CFG", "--output", "MISSING"],
        ["simulate", "--config", "CFG", "--trace", "MISSING"],
        ["simulate", "--config", "CFG", "--output", "FILE", "--trace", "FILE"],
        ["simulate", "--config", "CFG_FILE_OUTPUT", "--trace", "SAME_FILE"],
    ],
)
def test_cli_unusable_paths_exit_1(argv, tmp_path, capsys, monkeypatch):
    # a directory, or a file in a missing directory, where a file is read or
    # written is rejected before any replication runs, and so is one file,
    # however spelled, given both for the estimates and for the trace
    def must_not_run(*args, **kwargs):
        raise AssertionError("replications ran")

    monkeypatch.setattr(simulator, "run_replications", must_not_run)
    paths = {
        "CFG": write_config(tmp_path, SIM_CFG),
        "CFG_DIR_OUTPUT": write_config(tmp_path, SIM_CFG + f"output = {tmp_path}\n", "dir-output.cfg"),
        "DIR": tmp_path,
        "MISSING": tmp_path / "missing" / "out.csv",
        "FILE": tmp_path / "x.csv",
        "SAME_FILE": tmp_path / ".." / tmp_path.name / "x.csv",
        "CFG_FILE_OUTPUT": write_config(tmp_path, SIM_CFG + f"output = {tmp_path / 'x.csv'}\n", "file-output.cfg"),
    }
    argv = [str(paths.get(a, a)) for a in argv]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_cli_unallocatable_run_exits_1(tmp_path, capsys):
    # 6e15 expected arrivals: float epochs near the horizon are 0.125 apart,
    # against a mean gap of 1/6, so the run is refused before it starts
    cfgfile = write_config(tmp_path, SIM_CFG)
    assert main(["simulate", "--config", str(cfgfile), "--horizon", "1e15"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("command", ["simulate", "compare"])
@pytest.mark.parametrize("horizon", ["nan", "inf", "20", "5"])
def test_cli_horizon_checked_before_running(command, horizon, tmp_path, capsys, monkeypatch):
    # SIM_CFG sets burn_in = 20, so a horizon of 20 or less leaves no window
    def must_not_run(*args, **kwargs):
        raise AssertionError("replications ran")

    monkeypatch.setattr(simulator, "run_replications", must_not_run)
    cfgfile = write_config(tmp_path, SIM_CFG)
    assert main([command, "--config", str(cfgfile), "--horizon", horizon]) == 1
    assert "--horizon" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flags",
    [("analytic", ["--seed", "1"]), ("sweep", ["--workers", "2"]), ("compare", ["--trace", "TRACE"])],
)
def test_cli_rejects_flags_the_subcommand_ignores(command, flags, tmp_path, capsys):
    cfgfile = write_config(tmp_path, SWEEP_CONFIG if command == "sweep" else SIM_CFG)
    flags = [str(tmp_path / "t.csv") if f == "TRACE" else f for f in flags]
    assert main([command, "--config", str(cfgfile), "--output", str(tmp_path / "out.csv"), *flags]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfgfile]


@pytest.mark.parametrize("command", ["simulate", "compare"])
@pytest.mark.parametrize("seed", [-1, 2**64])
def test_cli_seed_checked_before_running(command, seed, tmp_path, capsys, monkeypatch):
    # seeds s and s + 2^64 would key the same streams
    def must_not_run(*args, **kwargs):
        raise AssertionError("replications ran")

    monkeypatch.setattr(simulator, "run_replications", must_not_run)
    cfgfile = write_config(tmp_path, SIM_CFG)
    assert main([command, "--config", str(cfgfile), "--seed", str(seed)]) == 1
    assert f"--seed: must lie in [0, 18446744073709551615], got {seed}" in capsys.readouterr().err
    cfgfile = write_config(tmp_path, SIM_CFG.replace("seed = 1", f"seed = {seed}"), "seed.cfg")
    assert main([command, "--config", str(cfgfile)]) == 1
    assert f"seed: must lie in [0, 18446744073709551615], got {seed}" in capsys.readouterr().err


def test_cli_compare_retry_past_the_largest_seed_fails(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(experiments, "comparison_passed", lambda rows: False)
    cfgfile = write_config(tmp_path, SIM_CFG)
    assert main(["compare", "--config", str(cfgfile), "--seed", str(2**64 - 1)]) == 1
    err = capsys.readouterr().err
    assert "gate attempt 1 of 2, seed 18446744073709551615" in err
    assert "error: seed must lie in [0, 18446744073709551615], got 18446744073709551616" in err


def test_cli_config_errors_exit_1(tmp_path, capsys):
    cfgfile = write_config(tmp_path, "wat = 1\nsource = -1 exp(2)\n")
    assert main(["analytic", "--config", str(cfgfile)]) == 1
    err = capsys.readouterr().err
    assert "invalid configuration" in err
    assert err.count("  - ") == 2


@pytest.mark.parametrize(
    "text, message",
    [
        ("source = 1 exp(2)\noutput =\n", "output: needs a path"),
        ("source = 1 mix(1e308*exp(1), 1e308*det(1))\n", "mixture weights must lie in (0, 1], got 1e+308"),
        ("source = 1 det(480)\n", "source 1: age moments are out of float64 range"),
    ],
)
def test_cli_reports_extreme_inputs_as_config_errors(text, message, tmp_path, capsys):
    # a config error on stderr, with nothing on stdout and no traceback
    cfgfile = write_config(tmp_path, text)
    assert main(["analytic", "--config", str(cfgfile)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and message in err and "Traceback" not in err


def test_cli_sweep_without_settings_exits_1(tmp_path, capsys):
    cfgfile = write_config(tmp_path, SIM_CFG)
    assert main(["sweep", "--config", str(cfgfile)]) == 1
    assert "sweep" in capsys.readouterr().err


# at grid value 3e-235 both update rates underflow to 0 while each
# completion probability stays positive
UNDERFLOW_SWEEP = """
sweep = service_rate
sweep_lambda1 = 3.0e-235
sweep_lambda2 = 3.2e-120
sweep_grid = 3.0e-235, 9.9e-172, 9.2e7
sweep_families = gamma(2)
"""


def test_sweep_through_underflowing_update_rates_is_refused(tmp_path, capsys):
    message = "source 1: age moments are out of float64 range at update rate 0"
    cfgfile = write_config(tmp_path, UNDERFLOW_SWEEP)
    assert main(["sweep", "--config", str(cfgfile)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and message in err and "Traceback" not in err
    cfg = parse_config(UNDERFLOW_SWEEP)
    with pytest.raises(ValueError, match=re.escape(message)):
        experiments.sweep_cc_vs_service_rate(cfg.sweep_lambda1, cfg.sweep_lambda2, cfg.sweep_families, cfg.sweep_grid)


def test_docs_config_tables_list_every_literal_and_sweep_kind():
    doc = (ROOT / "docs" / "config.md").read_text()
    sources = doc.split("## Sources", 1)[1].split("\n## ", 1)[0]
    literals = set(re.findall(r"^\| `(\w+)\(", sources, re.M))
    assert literals == set(servicedist._FAMILIES) | {servicedist.Mixture.literal}
    sweep_row = re.search(r"^\| `sweep` \|(.*)$", doc, re.M).group(1)
    assert set(re.findall(r"`(\w+)`", sweep_row)) == set(experiments._SWEEPS)


def test_config_and_cli_name_no_sweep_kind():
    # kinds live in experiments._SWEEPS: no string or comment of config.py
    # or cli.py spells one as a word of its own
    types = (tokenize.STRING, tokenize.COMMENT, getattr(tokenize, "FSTRING_MIDDLE", tokenize.STRING))
    for module in (config, cli):
        with open(module.__file__) as fh:
            text = [t.string for t in tokenize.generate_tokens(fh.readline) if t.type in types]
        for kind in experiments._SWEEPS:
            spelled = [t for t in text if re.search(rf"(?<!\w){kind}(?!\w)", t)]
            assert spelled == [], (module.__name__, spelled)


def test_cli_names_no_subcommand():
    # subcommands live in config._COMMANDS: no string or comment of cli.py
    # spells one as a word of its own, but for the `analytic` column of the
    # comparison table and the message that names the `sweep` key
    allowed = {"analytic": 1, "sweep": 1}
    types = (tokenize.STRING, tokenize.COMMENT, getattr(tokenize, "FSTRING_MIDDLE", tokenize.STRING))
    with open(cli.__file__) as fh:
        text = [t.string for t in tokenize.generate_tokens(fh.readline) if t.type in types]
    for name in config._COMMANDS:
        spelled = [t for t in text if re.search(rf"(?<!\w){name}(?!\w)", t)]
        assert len(spelled) == allowed.get(name, 0), (name, spelled)


def console_script_commands(name="aoistats"):
    """Ways to run console script `name`: its `[project.scripts]` target from
    pyproject.toml in a fresh interpreter, plus the installed binary when on PATH."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"][name]
    module, func = target.split(":")
    call = f"import sys; from {module} import {func}; sys.exit({func}())"
    commands = [[sys.executable, "-c", call]]
    if shutil.which(name):
        commands.append([name])
    return commands


def test_console_script_and_module_entry(tmp_path):
    cfgfile = write_config(tmp_path, ANALYTIC_CFG)
    # the subprocesses import the package this test imported
    package_parent = str(Path(aoistats.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_parent, env.get("PYTHONPATH")]))
    ran = subprocess.run(
        [sys.executable, "-m", "aoistats", "analytic", "--config", str(cfgfile)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert ran.returncode == 0
    assert "aoi_mean[1]" in ran.stdout
    for command in console_script_commands():
        ran = subprocess.run(
            [*command, "analytic", "--config", str(cfgfile)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert ran.returncode == 0, ran.stderr
        assert "aoi_mean[1]" in ran.stdout


S_GRID_CFG = SIM_CFG + "s_grid = {}\n"


@pytest.mark.parametrize("command", ["analytic", "simulate", "compare"])
def test_cli_identical_s_rows_collapse(command, tmp_path, capsys):
    cfgfile = write_config(tmp_path, S_GRID_CFG.format("1, 1; 0.5, 2; 1, 1"))
    assert main([command, "--config", str(cfgfile)]) in (0, 2)  # 2: a gate miss at this short horizon
    labels = [line.split()[0] for line in capsys.readouterr().out.splitlines() if "joint_laplace(" in line]
    assert sorted(labels) == sorted(set(labels))
    assert "joint_laplace(1,1)" in labels and "joint_laplace(0.5,2)" in labels


# each refused s-grid by id suffix: the grid and its whole config error
S_GRID_REFUSALS = {
    "": (
        "0.1234567, 0; 0.1234568, 0; 1, 1; 1, 1",
        "s_grid: argument vectors (0.1234567, 0.0) and (0.1234568, 0.0) share the label joint_laplace(0.123457,0)",
    ),
    # each argument is finite, but their sum is not
    "-overflow": (
        "1, 1; 1e308, 1e308",
        "s_grid: transform arguments overflow: their sum plus the aggregate rate is not finite",
    ),
    "-negative": ("1, 1; 0.5, -2", "s_grid: must be nonnegative, got '-2'"),
}


@pytest.mark.parametrize(
    "command,grid,message",
    [
        pytest.param(command, grid, message, id=command + suffix)
        for command in ("analytic", "simulate", "compare")
        for suffix, (grid, message) in S_GRID_REFUSALS.items()
    ],
)
def test_cli_colliding_s_row_labels_exit_1(command, grid, message, tmp_path, capsys):
    cfgfile = write_config(tmp_path, S_GRID_CFG.format(grid))
    trace = tmp_path / "trace.csv"
    argv = [command, "--config", str(cfgfile)] + (["--trace", str(trace)] if command == "simulate" else [])
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"invalid configuration:\n  - {message}\n"
    assert captured.out == ""
    assert not trace.exists()


def test_cli_analytic_falls_back_to_default_s_grid(tmp_path, capsys):
    cfg = "source = 1 exp(6)\nsource = 2 gamma(2, 12)\nsource = 3 det(0.1)\n"
    cfgfile = write_config(tmp_path, cfg + "horizon = 300\nburn_in = 20\nreplications = 4\nseed = 1\n")

    def joint_labels(command):
        assert main([command, "--config", str(cfgfile)]) in (0, 2)  # 2: a gate miss at this short horizon
        out = capsys.readouterr().out
        return [line.split()[0] for line in out.splitlines() if line.startswith("joint_laplace(")]

    labels = joint_labels("analytic")
    assert len(labels) == 6 and "joint_laplace(0.5,1,2)" in labels
    assert joint_labels("compare") == labels
