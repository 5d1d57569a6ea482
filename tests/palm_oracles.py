"""Delivery (Palm) estimators computed from the per-delivery records.

A replication reduces its window departures to per-source delivery sums
where it runs (PathAccumulator.source_sums), and the library's
estimators read only those.  palm_from_records is the record-walking form
they replace, pooled by ratio_estimate, a ratio rule of its own;
warm_up_note reads the records' coverage of the start-up.
"""

from __future__ import annotations

import math

import numpy as np

from aoistats.simulator import Estimate


def ratio_estimate(nums, dens, kind: str) -> Estimate:
    """The ratio rule over per-replication numerators and denominators:
    the value sums numerators over denominators, the stderr comes from the
    per-replication ratios; a replication with no `kind` (a ratio not
    finite) is flagged."""
    nums = np.asarray(nums, dtype=float)
    dens = np.asarray(dens, dtype=float)
    if dens.sum() == 0:
        return Estimate(math.nan, math.nan, len(nums), flag=f"no {kind}")
    value = float(nums.sum() / dens.sum())
    with np.errstate(invalid="ignore", divide="ignore"):
        per = nums / dens
    per = per[np.isfinite(per)]
    if per.size < 2:
        return Estimate(value, math.nan, per.size, flag=f"too few replications with {kind} for a stderr")
    missing = len(nums) - per.size
    flag = f"{missing} replications had no {kind}" if missing else None
    return Estimate(value, float(per.std(ddof=1) / math.sqrt(per.size)), per.size, flag)


def warm_up_note(results) -> str | None:
    """What the records show of the start-up, as a note.

    A window departure is uncovered while some source has not yet
    delivered, and usable when it is covered and the gap to the next
    departure is known.  Gives "a replication had no usable departures"
    if one had none, else "N warm-up departures skipped" for N uncovered
    departures over all replications, else None.
    """
    if any(not (r.records.covered & np.isfinite(r.records.gap)).any() for r in results):
        return "a replication had no usable departures"
    skipped = sum(int((~r.records.covered).sum()) for r in results)
    return f"{skipped} warm-up departures skipped" if skipped else None


def palm_from_records(results) -> dict[str, Estimate]:
    """The delivery rows of simulator._quantities, from the records;
    pushouts leave no record, so the pushout rate reads the window pushouts."""
    results = list(results)
    K = results[0].accumulator.num_sources
    totals = np.array([len(r.records) for r in results], dtype=float)
    spans = np.array([r.accumulator.window_span for r in results])
    pushouts = np.array([r.accumulator.window_pushouts for r in results], dtype=float)
    out: dict[str, Estimate] = {
        "departure_rate": ratio_estimate(totals, spans, "window time"),
        "pushout_rate": ratio_estimate(pushouts, spans, "window time"),
    }
    for k in range(K):
        masks = [r.records.source == k for r in results]
        counts = np.array([int(m.sum()) for m in masks], dtype=float)
        delay_sums = [float(r.records.delay[m].sum()) for r, m in zip(results, masks)]
        peaks = [r.records.peak[m] for r, m in zip(results, masks)]
        peak_sums = [float(np.nansum(p)) for p in peaks]
        peak_counts = [int(np.isfinite(p).sum()) for p in peaks]
        label = f"deliveries for source {k + 1}"
        out[f"update_share[{k + 1}]"] = ratio_estimate(counts, totals, "deliveries")
        out[f"update_rate[{k + 1}]"] = ratio_estimate(counts, spans, label)
        out[f"delay_mean[{k + 1}]"] = ratio_estimate(delay_sums, counts, label)
        out[f"peak_mean[{k + 1}]"] = ratio_estimate(peak_sums, peak_counts, f"peaks for source {k + 1}")
    return out
