"""Wall-clock timing for the harness — the only sanctioned host-clock reader.

Everything inside the simulated engine measures time on per-execution
:class:`~repro.storage.accounting.IOContext` objects; reading the host
clock there would leak nondeterminism into results.  The harness still legitimately
wants wall-clock durations ("figure regenerated in 12.3s"), so this module
owns that capability and the codebase linter (rule ``R005`` in
:mod:`repro.analysis.codelint`) bans ``time.time`` / ``datetime.now`` and
friends everywhere else.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field


def utc_now_iso() -> str:
    """Current UTC time as an ISO-8601 string (``2026-08-08T12:00:00Z``).

    Used to stamp benchmark-trajectory entries; lives here so the R005
    host-clock ban stays a single-module waiver.
    """
    import datetime

    now = datetime.datetime.now(datetime.timezone.utc)
    return now.replace(microsecond=0).isoformat().replace("+00:00", "Z")


@dataclass
class Stopwatch:
    """Measure a wall-clock duration: ``Stopwatch()`` … ``.elapsed_seconds``."""

    _start: float = field(default_factory=time.perf_counter)

    @property
    def elapsed_seconds(self) -> float:
        return time.perf_counter() - self._start

    def restart(self) -> None:
        self._start = time.perf_counter()
