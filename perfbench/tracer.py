"""Span tracing of the aoistats modules, installed from outside the package.

`Tracer.install()` replaces the public functions of `servicedist`,
`analytics`, `simulator`, `experiments` and `config` with wrappers that
time each call as a span and count work; `uninstall()` puts the
originals back.  Package code calls these functions through module
globals or class attributes, so the wrappers see calls made inside the
package too.

Spans are folded into per-key totals as they close instead of being
kept one by one:

- `totals[key]` is the summed duration of the outermost spans of `key`.
  A call made while a span of the same key is open is part of that span,
  so `Mixture.sample` does not count its component draws twice and the
  array form of `marginal_aoi_cdf` does not count its per-point calls.
- `self_time[key]` is that duration minus the time of the spans directly
  nested in it.
- `counts` holds the exact work counts named in the benchmark doc.

Replications that run in worker processes trace nothing back to the
parent.  For a parallel `run_replications` call the tracer therefore
re-runs the same replications serially, traced, on a detached span
stack; the replay's wall time, and the time spent pickling results to
measure the transfer size, are excluded from every enclosing span and
from the traced op time.

Like workloads.py, this module imports numpy and aoistats only inside
functions, so that set-up timing includes those imports.
"""

from __future__ import annotations

import functools
import inspect
import pickle
import time
from collections import Counter, defaultdict

# public functions with a metric of their own; the others of a module
# report under "<module>.other"
_OWN_KEY = {
    "simulator.run_replication",
    "simulator.simulate",
    "simulator.estimate_joint_laplace_palm",
    "simulator.estimate_joint_laplace",
    "simulator.estimate_statistics",
    "simulator.estimate_palm",
    "simulator.estimate_marginal_cdf",
    "analytics.joint_aoi_laplace",
    "analytics.marginal_aoi_cdf",
    "experiments.compare",
    "config.parse_config",
}
_SHARED_KEY = {
    "experiments.sweep_cc_vs_lambda2": "experiments.sweep",
    "experiments.sweep_cc_vs_service_rate": "experiments.sweep",
}


class _Frame:
    __slots__ = ("start", "child", "excluded")

    def __init__(self):
        self.start = time.perf_counter()
        self.child = 0.0
        self.excluded = 0.0


class Tracer:
    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[_Frame] = []
        self._open: Counter = Counter()
        self.recording = False
        self.reset()

    def reset(self) -> None:
        """Start a fresh per-op tally."""
        self.totals: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.pool_overhead_s = 0.0
        self.excluded_s = 0.0

    # -- span bookkeeping -------------------------------------------------

    def _call(self, key, fn, tally, args, kwargs):
        if not self.recording or self._open[key]:
            return fn(*args, **kwargs)
        if tally is not None:
            tally(self.counts, args, kwargs)
        frame = _Frame()
        self._stack.append(frame)
        self._open[key] += 1
        try:
            return fn(*args, **kwargs)
        finally:
            self._open[key] -= 1
            self._stack.pop()
            dur = time.perf_counter() - frame.start - frame.excluded
            self.totals[key] += dur
            self.self_time[key] += dur - frame.child
            if self._stack:
                self._stack[-1].child += dur

    def _exclude(self, seconds: float) -> None:
        for frame in self._stack:
            frame.excluded += seconds
        self.excluded_s += seconds

    # -- installation -----------------------------------------------------

    def _patch(self, owner, name: str, wrapper) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def _wrap(self, owner, name: str, key: str, tally=None) -> None:
        fn = owner.__dict__[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(key, fn, tally, args, kwargs)

        self._patch(owner, name, traced)

    def install(self) -> None:
        from aoistats import analytics, config, experiments, servicedist, simulator

        if self._patches:
            raise RuntimeError("tracer already installed")
        tallies = {
            "simulator.run_replication": _count("simulator.run_replication.calls"),
            "analytics.joint_aoi_laplace": _count("analytics.joint_aoi_laplace.calls"),
            "analytics.marginal_aoi_cdf": _tally_points(inspect.signature(analytics.marginal_aoi_cdf)),
        }
        for module in (analytics, simulator, experiments, config, servicedist):
            short = module.__name__.rsplit(".", 1)[-1]
            for name in module.__all__:
                if inspect.isfunction(getattr(module, name)):
                    key = f"{short}.{name}"
                    tally = tallies.get(key)
                    key = key if key in _OWN_KEY else _SHARED_KEY.get(key, f"{short}.other")
                    self._wrap(module, name, key, tally)
        self._wrap_run_replications(simulator)
        self._wrap(simulator.PathAccumulator, "add_segments", "simulator.add_segments")
        for cls in (servicedist.Exponential, servicedist.Gamma, servicedist.Deterministic, servicedist.Mixture):
            self._wrap(cls, "sample", "servicedist.sample", _tally_draws)
        self._wrap_laplace_complex(servicedist.ServiceTimeModel)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _wrap_run_replications(self, simulator) -> None:
        original = simulator.run_replications
        signature = inspect.signature(original)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not self.recording:
                return original(*args, **kwargs)
            start = time.perf_counter()
            results = self._call("simulator.run_replications", original, None, args, kwargs)
            parallel_s = time.perf_counter() - start
            self._tally_results(results)
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            workers = int(bound.arguments["workers"])
            if workers > 1:
                held = time.perf_counter()
                self.counts["simulator.transfer_bytes"] += sum(len(pickle.dumps(r)) for r in results)
                self.counts["simulator.transferred_reps"] += len(results)
                bound.arguments["workers"] = 1
                stack, self._stack = self._stack, []
                try:
                    serial_start = time.perf_counter()
                    original(*bound.args, **bound.kwargs)
                    serial_s = time.perf_counter() - serial_start
                finally:
                    self._stack = stack
                self.pool_overhead_s += parallel_s - serial_s / workers
                self._exclude(time.perf_counter() - held)
            return results

        self._patch(simulator, "run_replications", traced)

    def _tally_results(self, results) -> None:
        import numpy as np

        for r in results:
            self.counts["simulator.arrivals"] += r.counts.arrivals
            self.counts["simulator.palm_records"] += len(r.records)
            self.counts["simulator.palm_valid_records"] += int(
                (r.records.covered & np.isfinite(r.records.gap)).sum()
            )

    def _wrap_laplace_complex(self, cls) -> None:
        # counted only: a span per contour node would cost more than the call
        fn = cls.laplace_complex

        @functools.wraps(fn)
        def counted(model, z):
            if self.recording:
                self.counts["servicedist.laplace_complex.calls"] += 1
            return fn(model, z)

        self._patch(cls, "laplace_complex", counted)


def _count(name: str):
    def tally(counts, args, kwargs):
        counts[name] += 1

    return tally


def _tally_points(signature):
    import numpy as np

    def tally(counts, args, kwargs):
        x = signature.bind(*args, **kwargs).arguments["x"]
        counts["analytics.marginal_aoi_cdf.points"] += int(np.size(x))

    return tally


def _tally_draws(counts, args, kwargs):
    size = kwargs.get("size", args[2] if len(args) > 2 else None)
    counts["servicedist.sample.draws"] += 1 if size is None else int(size)
