"""Delivery-sampled (Palm) estimators computed from the per-delivery records.

A replication reduces its window departures to sums where it runs
(ReplicationResult.palm_* and the per-source delivery sums), and the
library's estimators read only those.  These are the record-walking forms
they replace: each takes the replications' PalmRecords, plus each
source's age just after every window departure, replayed from the
replication's event trace.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from aoistats.simulator import (
    Estimate,
    PalmEstimates,
    _combine,
    _grid_index,
    _ratio_estimate,
    _require_results,
)


def trace_ages(trace_path, burn_in: float, num_sources: int) -> np.ndarray:
    """A_k(t+) = D_k + t - U_k at every departure after `burn_in`.

    Replays the trace's departures from the start state (update epoch 0,
    delay 0) of every source; one row per window departure.
    """
    last = [(0.0, 0.0)] * num_sources
    rows = []
    with open(trace_path) as fh:
        for row in csv.DictReader(fh):
            if row["kind"] != "departure":
                continue
            t, k = float(row["epoch"]), int(row["source"]) - 1
            last[k] = (t, float(row["value"]))
            if t > burn_in:
                rows.append([D + (t - U) for U, D in last])
    return np.array(rows, dtype=float).reshape(-1, num_sources)


def palm_transform_from_records(results, ages, s) -> Estimate:
    """estimate_joint_laplace_palm over the records; ages[i] holds the
    ages after replication i's window departures (see trace_ages)."""
    results = _require_results(results)
    row, _ = _grid_index(results, s)
    svec = np.array(row)
    sbar = float(svec.sum())
    if sbar == 0.0:
        return Estimate(1.0, 0.0, len(results), flag="zero argument vector; value is the s -> 0 limit")
    values = []
    skipped = 0
    for r, age in zip(results, ages):
        rec = r.records
        valid = rec.covered & np.isfinite(rec.gap)
        skipped += int((~rec.covered).sum())
        if not valid.any():
            values.append(np.nan)
            continue
        term = -np.expm1(-sbar * rec.gap[valid]) * np.exp(-(age[valid] @ svec))
        rate = rec.epoch.size / r.window_span
        values.append(rate * float(term.mean()) / sbar)
    flag = f"{skipped} warm-up departures skipped" if skipped else None
    if any(not math.isfinite(v) for v in values):
        return Estimate(math.nan, math.nan, len(results), flag="a replication had no usable departures")
    return _combine(values, flag=flag)


def palm_from_records(results) -> PalmEstimates:
    """estimate_palm over the records."""
    results = _require_results(results)
    K = results[0].accumulator.num_sources
    delay, peakm, urate, share = [], [], [], []
    totals = np.array([len(r.records) for r in results], dtype=float)
    spans = np.array([r.window_span for r in results])
    for k in range(K):
        masks = [r.records.source == k for r in results]
        counts = np.array([int(m.sum()) for m in masks], dtype=float)
        delay_sums = [float(r.records.delay[m].sum()) for r, m in zip(results, masks)]
        peaks = [r.records.peak[m] for r, m in zip(results, masks)]
        peak_sums = [float(np.nansum(p)) for p in peaks]
        peak_counts = [int(np.isfinite(p).sum()) for p in peaks]
        label = f"deliveries for source {k + 1}"
        delay.append(_ratio_estimate(delay_sums, counts, label))
        peakm.append(_ratio_estimate(peak_sums, peak_counts, f"peaks for source {k + 1}"))
        urate.append(_ratio_estimate(counts, spans, label))
        share.append(_ratio_estimate(counts, totals, "deliveries"))
    return PalmEstimates(delay_mean=delay, peak_mean=peakm, update_rate=urate, update_share=share)
