"""Latency summaries over op slots: percentiles of per-slot medians.

An *op slot* is position ``i`` in a trial's fixed op sequence; the same
slot is the same request in every trial.  Each slot keeps the **median**
of its latencies across the timed trials, and percentiles are taken over
slots second.  The raw p95 of homogeneous ops measures host jitter (a
different 5 % of the ops is unlucky in every trial); the p95 of slot
medians measures the slots that are slow every time, i.e. the program.
"""

from __future__ import annotations

import statistics
from typing import Optional, Sequence


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (``pct`` in 0..100) of ``values``.

    Deliberately not ``repro.harness.reporting.percentile``: the arithmetic
    behind a benchmark metric must not change with the program under test.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def slot_medians(trials: Sequence[Sequence[Optional[float]]]) -> list[float]:
    """Per-slot median latency across trials.

    ``trials[t][i]`` is slot ``i``'s latency in trial ``t`` or ``None`` for
    a failed op (a failed op has no latency).  Slots that failed in every
    trial have no latency at all and are left out.
    """
    if not trials:
        return []
    width = len(trials[0])
    if any(len(trial) != width for trial in trials):
        raise ValueError("trials must share one op sequence (same length)")
    medians = []
    for slot in range(width):
        samples = [trial[slot] for trial in trials if trial[slot] is not None]
        if samples:
            medians.append(statistics.median(samples))
    return medians


def beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples lie beyond the ``pct`` percentile."""
    return int(count * (100.0 - pct) / 100.0)
