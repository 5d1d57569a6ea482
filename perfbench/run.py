"""aoistats benchmark: closed-loop workloads timed end to end and per module.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Each workload runs in a fresh process
(`all`, the default, starts one per workload).  With `--trace 0` the
last line of standard output is a JSON object with the end-to-end
metrics; with `--trace 1` it holds the per-layer metrics of the traced
run.  See perfbench/README.md for the workloads and every metric.
"""

import os

# One BLAS thread per process, set before anything imports numpy: the
# parallel workload's workers would otherwise oversubscribe the cores.
for _var in (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import multiprocessing  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(HERE), str(SRC)]

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

# set-ups per run: this process's own, plus fresh processes that only set up
SETUP_SAMPLES = 11
PROBE_TIMEOUT_S = 60
WORKLOAD_TIMEOUT_S = 900

END_TO_END = {"setup_s": "s", "op_s.p50": "s", "peak_rss_mib": "MiB"}

# per-layer metric -> unit; metrics in seconds are medians over the
# traced ops, all others are exact values of op 0
PER_LAYER = {
    "simulator.run_replications.s": "s",
    "simulator.run_replication.self_s": "s",
    "simulator.add_segments.s": "s",
    "simulator.simulate.self_s": "s",
    "simulator.estimate_joint_laplace_palm.s": "s",
    "simulator.estimate_joint_laplace.s": "s",
    "simulator.estimate_statistics.s": "s",
    "simulator.estimate_palm.s": "s",
    "simulator.estimate_marginal_cdf.s": "s",
    "simulator.pool_overhead_s": "s",
    "analytics.joint_aoi_laplace.s": "s",
    "analytics.marginal_aoi_cdf.s": "s",
    "analytics.other.s": "s",
    "servicedist.sample.s": "s",
    "experiments.compare.self_s": "s",
    "experiments.sweep.s": "s",
    "config.parse_config.s": "s",
    "tracing.traced_op_s.p50": "s",
    "tracing.untraced_op_s.p50": "s",
    "tracing.overhead_s": "s",
    "simulator.run_replication.calls": "count",
    "simulator.arrivals": "count",
    "simulator.palm_records": "count",
    "simulator.palm_valid_share": "ratio",
    "simulator.transfer_bytes_per_rep": "bytes",
    "simulator.worker_rss_mib": "MiB",
    "analytics.joint_aoi_laplace.calls": "count",
    "analytics.marginal_aoi_cdf.points": "count",
    "analytics.inversion_warnings": "count",
    "servicedist.laplace_complex.calls": "count",
    "servicedist.sample.draws": "count",
    "experiments.attempts": "count",
    "experiments.max_abs_z": "sigma",
}


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": workloads.nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "start_method": multiprocessing.get_start_method(),
    }


def timed_setup(name: str):
    start = time.perf_counter()
    op = workloads.setup(name)
    return op, time.perf_counter() - start


def probe_setup(name: str) -> float:
    """Set-up time measured in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--probe-setup", name],
        check=True,
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
    )
    return float(out.stdout.strip().splitlines()[-1])


def run_op(op, seed: int):
    """Run and check one op; an op that raises counts as failed."""
    start = time.perf_counter()
    try:
        output = op(seed)
    except Exception:  # the benchmark reports a failing op and goes on
        traceback.print_exc()
        return time.perf_counter() - start, workloads.Verdict(False, "raised")
    elapsed = time.perf_counter() - start
    return elapsed, op.check(output)


def report_op(i: int, seed: int, elapsed: float, verdict) -> None:
    mark = "pass" if verdict.passed else "FAIL"
    print(
        f"  op {i} seed {seed}: {elapsed:.4f} s, {verdict.attempts} attempt(s), {mark}: {verdict.detail}",
        flush=True,
    )


def finish_checks(op, verdicts: list) -> bool:
    """Print the run's checks; True if the run's outputs are correct."""
    cli_failed = sum(not v.cli_passed for v in verdicts)
    if isinstance(op, workloads.Gate):
        print(f"  CLI gate (3 stderr, one retry) failed after its retry on {cli_failed} of {len(verdicts)} ops")
    run = op.run_check()
    print(f"  run check {'pass' if run.passed else 'FAIL'}: {run.detail}", flush=True)
    return run.passed and all(v.passed for v in verdicts)


def end_to_end(name: str, seed: int, seconds: float) -> dict:
    op, own_setup = timed_setup(name)
    setups = [own_setup] + [probe_setup(name) for _ in range(SETUP_SAMPLES - 1)]
    per_attempt, verdicts = [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        elapsed, verdict = run_op(op, seed + i)
        report_op(i, seed + i, elapsed, verdict)
        # a gate that retries ran twice; time per attempt keeps the
        # median independent of which seeds needed the retry
        per_attempt.append(elapsed / verdict.attempts)
        verdicts.append(verdict)
        i += 1
    failed = sum(not v.passed for v in verdicts)
    correct = finish_checks(op, verdicts)
    values = {
        "setup_s": statistics.median(setups),
        "op_s.p50": statistics.median(per_attempt),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "op_s.p50": f"{i} ops, per compare attempt" if name.startswith("gate") else f"{i} ops",
        "peak_rss_mib": "ru_maxrss of this process",
    }
    for key, unit in END_TO_END.items():
        print(f"  {key:<14} {values[key]:.6g} {unit}  ({notes[key]})")
    print(f"  {'error_rate':<14} {failed / i:.6g} ratio  ({failed} failed of {i} attempted)")
    return {
        "correct": correct,
        "attempted": i,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()},
    }


def _per_op_values(tracer: Tracer, elapsed: float, verdict) -> dict:
    """Flatten one traced op into per-layer metric values."""
    c = tracer.counts
    values = {f"{key}.s": v / verdict.attempts for key, v in tracer.totals.items()}
    values.update({f"{key}.self_s": v / verdict.attempts for key, v in tracer.self_time.items()})
    values.update(c)
    values["simulator.pool_overhead_s"] = tracer.pool_overhead_s / verdict.attempts
    records = c["simulator.palm_records"]
    values["simulator.palm_valid_share"] = c["simulator.palm_valid_records"] / records if records else 0.0
    reps = c["simulator.transferred_reps"]
    values["simulator.transfer_bytes_per_rep"] = c["simulator.transfer_bytes"] / reps if reps else 0
    values["analytics.inversion_warnings"] = verdict.inversion_warnings
    values["experiments.attempts"] = verdict.attempts
    values["experiments.max_abs_z"] = verdict.max_abs_z
    values["op_s"] = elapsed / verdict.attempts
    return values


def per_layer(name: str, seed: int, seconds: float) -> dict:
    """Alternate traced and untraced ops; op 0 is traced."""
    tracer = Tracer()
    tracer.install()
    tracer.recording = True
    op = workloads.setup(name)
    tracer.recording = False
    tracer.uninstall()
    parse_s = tracer.totals["config.parse_config"]
    traced, untraced, verdicts = [], [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while i < 2 or time.perf_counter() < deadline:
        trace_this = i % 2 == 0
        if trace_this:
            tracer.install()
            tracer.reset()
            tracer.recording = True
        elapsed, verdict = run_op(op, seed + i)
        tracer.recording = False
        if trace_this:
            elapsed -= tracer.excluded_s
            traced.append(_per_op_values(tracer, elapsed, verdict))
            tracer.uninstall()
        else:
            untraced.append(elapsed / verdict.attempts)
        report_op(i, seed + i, elapsed, verdict)
        verdicts.append(verdict)
        i += 1
    failed = sum(not v.passed for v in verdicts)
    correct = finish_checks(op, verdicts)

    first = traced[0]
    values = {}
    for key, unit in PER_LAYER.items():
        if unit == "s":
            values[key] = statistics.median(t.get(key, 0.0) for t in traced)
        else:
            values[key] = first.get(key, 0)
    values["config.parse_config.s"] = parse_s
    values["tracing.traced_op_s.p50"] = statistics.median(t["op_s"] for t in traced)
    values["tracing.untraced_op_s.p50"] = statistics.median(untraced)
    values["tracing.overhead_s"] = values["tracing.traced_op_s.p50"] - values["tracing.untraced_op_s.p50"]
    # a traced run starts no children but pool workers, so the largest
    # reaped child is the largest worker
    if first.get("simulator.transferred_reps"):
        values["simulator.worker_rss_mib"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    for key, unit in PER_LAYER.items():
        value = values[key]
        print(f"  {key:<42} {f'{value:.6g}' if isinstance(value, float) else value} {unit}")
    print(f"  ({len(traced)} traced and {len(untraced)} untraced ops; times per attempt)")
    return {
        "correct": correct,
        "attempted": i,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in PER_LAYER.items()},
    }


def run_one(name: str, seed: int, seconds: float, trace: int) -> dict:
    print(f"workload {name}: {workloads.WHY[name]}", flush=True)
    result = (per_layer if trace else end_to_end)(name, seed, seconds)
    print(json.dumps({"environment": environment(), "workload": name, "seed": seed, "trace": trace}))
    return result


def run_all(args) -> dict:
    """Each workload in a fresh process, since ru_maxrss only grows."""
    results = {}
    for name in workloads.WHY:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=WORKLOAD_TIMEOUT_S)
        print(proc.stdout, end="", flush=True)
        if proc.returncode != 0:
            raise SystemExit(f"workload {name} exited with {proc.returncode}")
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    return results


def main(argv=None) -> int:
    names = list(workloads.WHY)
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", choices=names, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "aoistats" / "__init__.py").is_file():
        print(f"benchmark: no aoistats sources under {SRC}", file=sys.stderr)
        return 2
    if not (math.isfinite(args.seconds) and args.seconds > 0):
        parser.error("--seconds must be positive")
    if args.probe_setup:
        print(timed_setup(args.probe_setup)[1])
        return 0
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_one(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
