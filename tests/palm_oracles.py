"""Delivery (Palm) estimators computed from the per-delivery records.

A replication reduces its window departures to per-source delivery sums
where it runs (ReplicationResult.source_sums), and the library's
estimators read only those.  palm_from_records is the record-walking form
they replace; warm_up_note reads the records' coverage of the start-up.
"""

from __future__ import annotations

import numpy as np

from aoistats.simulator import Estimate, _ratio_estimate, _require_results


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
    """estimate_palm over the records."""
    results = _require_results(results)
    K = results[0].accumulator.num_sources
    out: dict[str, Estimate] = {}
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
        out[f"update_share[{k + 1}]"] = _ratio_estimate(counts, totals, "deliveries")
        out[f"update_rate[{k + 1}]"] = _ratio_estimate(counts, spans, label)
        out[f"delay_mean[{k + 1}]"] = _ratio_estimate(delay_sums, counts, label)
        out[f"peak_mean[{k + 1}]"] = _ratio_estimate(peak_sums, peak_counts, f"peaks for source {k + 1}")
    return out
