"""Service telemetry registry: counters, histograms and gauges.

The service's observable contract, exposed through the ``stats`` wire
request and printed by the load harness.  Three instrument shapes:

* :class:`Counter` — monotonically increasing event counts (admitted,
  rejected, completed, timed-out, cancelled, failed);
* :class:`Histogram` — recorded samples with tail percentiles
  (queue-wait ms, execution wall-clock ms, rows returned);
* :class:`Gauge` — a current level (queries in flight, queue depth).

All instruments are thread-safe under one registry lock: records arrive
from the event-loop thread while tests and the stats endpoint snapshot
concurrently.  Percentile math is shared with the figure harness
(:func:`repro.harness.reporting.percentile`).
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Optional

from repro.harness.reporting import format_table, latency_summary

#: Counters every :class:`ServiceTelemetry` starts with.
#: ``worker_restarts`` counts worker-process respawns by the
#: multi-process tier (0 on a pool-less service — the snapshot shape is
#: identical either way).  The ``reopt_*`` counters describe mid-query
#: re-optimization episodes (``reopt_trips`` = watchdog cancellations,
#: ``reopt_wins`` = trips whose replan chose a different plan,
#: ``reopt_false_trips`` = trips that re-chose the same plan); they
#: annotate *completed* requests, so they stay outside the admission
#: slot-conservation sum in :func:`leaked_slots_from`.
STANDARD_COUNTERS = (
    "admitted",
    "rejected",
    "completed",
    "timed_out",
    "cancelled",
    "failed",
    "worker_restarts",
    "reopt_trips",
    "reopt_wins",
    "reopt_false_trips",
)

#: Histograms every :class:`ServiceTelemetry` starts with.
STANDARD_HISTOGRAMS = ("queue_wait_ms", "execution_ms", "rows_returned")

#: Gauges every :class:`ServiceTelemetry` starts with.  The two
#: ``workers_*`` gauges track the multi-process tier's occupancy and
#: stay 0 on a pool-less service.
STANDARD_GAUGES = ("in_flight", "queue_depth", "workers_busy", "workers_idle")


class Counter:
    """A monotonically increasing event count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease ({amount})")
        self.value += amount


class Gauge:
    """A current level, set by its owner."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def set(self, value: int) -> None:
        self.value = value


#: Samples a :class:`Histogram` keeps for its percentiles (the most
#: recent ones); ``count`` / ``mean`` / ``max`` cover every sample.
HISTOGRAM_WINDOW = 4096


class Histogram:
    """Recorded samples with percentile digests, at constant size.

    ``count``, ``mean`` and ``max`` are exact over everything recorded;
    ``p50`` / ``p95`` / ``p99`` are taken over the last
    :data:`HISTOGRAM_WINDOW` samples, so a service that runs for days
    neither grows per request nor sorts its whole history on every
    ``stats`` poll.
    """

    __slots__ = ("name", "count", "total", "max", "recent")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.max = 0.0
        self.recent: deque[float] = deque(maxlen=HISTOGRAM_WINDOW)

    def record(self, value: float) -> None:
        value = float(value)
        self.max = value if not self.count else max(self.max, value)
        self.count += 1
        self.total += value
        self.recent.append(value)

    def summary(self) -> dict[str, float]:
        digest = latency_summary(self.recent)
        if self.count:
            digest.update(
                count=self.count, mean=self.total / self.count, max=self.max
            )
        return digest


class ServiceTelemetry:
    """The service's instrument registry.

    Instruments are created eagerly (:data:`STANDARD_COUNTERS` and
    friends) so a snapshot always has the same shape — a counter that
    never fired reports 0, not a missing key.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters = {name: Counter(name) for name in STANDARD_COUNTERS}
        self._histograms = {
            name: Histogram(name) for name in STANDARD_HISTOGRAMS
        }
        self._gauges = {name: Gauge(name) for name in STANDARD_GAUGES}

    # -- recording ------------------------------------------------------
    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counters[name].inc(amount)

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            self._histograms[name].record(value)

    def gauge_set(self, name: str, value: int) -> None:
        with self._lock:
            self._gauges[name].set(value)

    # -- reading --------------------------------------------------------
    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters[name].value

    def gauge(self, name: str) -> int:
        with self._lock:
            return self._gauges[name].value

    def histogram(self, name: str) -> dict[str, float]:
        with self._lock:
            return self._histograms[name].summary()

    def snapshot(self) -> dict[str, Any]:
        """One coherent read of every instrument (single lock hold)."""
        with self._lock:
            return {
                "counters": {
                    name: counter.value
                    for name, counter in self._counters.items()
                },
                "gauges": {
                    name: gauge.value for name, gauge in self._gauges.items()
                },
                "histograms": {
                    name: histogram.summary()
                    for name, histogram in self._histograms.items()
                },
            }

    def render(self) -> str:
        """Plain-text report (the ``stats`` endpoint's human form)."""
        snap = self.snapshot()
        lines = [
            "counters: "
            + " ".join(f"{k}={v}" for k, v in snap["counters"].items()),
            "gauges:   "
            + " ".join(f"{k}={v}" for k, v in snap["gauges"].items()),
        ]
        rows = [
            [
                name,
                digest["count"],
                digest["mean"],
                digest["p50"],
                digest["p95"],
                digest["p99"],
                digest["max"],
            ]
            for name, digest in snap["histograms"].items()
        ]
        lines.append(
            format_table(
                ["histogram", "count", "mean", "p50", "p95", "p99", "max"],
                rows,
            )
        )
        return "\n".join(lines)

    def leaked_slots(self) -> Optional[str]:
        """Admission-slot conservation check; ``None`` when balanced.

        Every admitted request must terminate in exactly one of
        completed/timed-out/cancelled/failed, and nothing may remain in
        flight — the load harness and the CI smoke gate call this after a
        drained run.
        """
        return leaked_slots_from(self.snapshot())


def leaked_slots_from(snapshot: dict[str, Any]) -> Optional[str]:
    """:meth:`ServiceTelemetry.leaked_slots` over a snapshot dict.

    Module-level so remote auditors (the TCP load generator reading the
    ``stats`` endpoint) can run the same conservation check without
    holding the registry.
    """
    counters = snapshot["counters"]
    finished = (
        counters["completed"]
        + counters["timed_out"]
        + counters["cancelled"]
        + counters["failed"]
    )
    if counters["admitted"] != finished:
        return (
            f"admitted={counters['admitted']} but only {finished} "
            "request(s) reached a terminal state — an admission slot "
            "leaked"
        )
    if snapshot["gauges"]["in_flight"] != 0:
        return (
            f"in_flight gauge stuck at {snapshot['gauges']['in_flight']} "
            "after drain"
        )
    return None
