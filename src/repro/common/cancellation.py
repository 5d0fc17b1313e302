"""Cooperative cancellation for in-flight query executions.

The service layer admits queries with per-request deadlines; when a
deadline fires the execution must *stop* — not merely have its result
discarded — so it stops charging its :class:`~repro.storage.accounting.IOContext`
and releases its admission slot promptly.  Python threads cannot be
interrupted from outside, so cancellation is cooperative: the executor
checks a :class:`CancellationToken` at page/batch boundaries
(:mod:`repro.exec.executor`) and raises
:class:`~repro.common.errors.QueryCancelled` once the token is cancelled.

Tokens are cancelled from *other* threads (an asyncio event-loop timer in
the service, a test driver) while the execution runs on a worker thread,
so the cancelled flag is a :class:`threading.Event`.  A token belongs to
exactly one execution; create a fresh one per run.

A token may also carry its own ``deadline``: a stopwatch (anything with
an ``elapsed_seconds`` reading, such as the service's per-request
:class:`~repro.harness.timing.Stopwatch`) and a budget in seconds.  The
owning thread then cancels the token at the first checkpoint past the
budget, so a deadline is precise to one checkpoint however long another
thread takes to get the GIL and fire a timer.

For deterministic tests, ``cancel_after_checks=N`` self-cancels the token
on its N-th checkpoint — "the deadline expired mid-scan" becomes an exact,
repeatable program point instead of a wall-clock race.
"""

from __future__ import annotations

import threading
from typing import Optional, Protocol


class ElapsedClock(Protocol):
    """A running stopwatch: seconds since it started."""

    @property
    def elapsed_seconds(self) -> float: ...

from repro.common.errors import QueryCancelled


class CancellationToken:
    """One execution's cancellation flag, checked at executor checkpoints.

    ``cancel()`` is thread-safe and idempotent (the first reason wins);
    ``checkpoint()`` is called only by the owning execution's thread.
    """

    __slots__ = (
        "_event",
        "_reason",
        "checks",
        "cancel_after_checks",
        "_deadline",
    )

    def __init__(
        self,
        cancel_after_checks: Optional[int] = None,
        deadline: Optional[tuple[ElapsedClock, float]] = None,
    ) -> None:
        if cancel_after_checks is not None and cancel_after_checks <= 0:
            raise ValueError(
                f"cancel_after_checks must be positive, got {cancel_after_checks}"
            )
        self._event = threading.Event()
        self._reason = "cancelled"
        #: Checkpoints passed so far (owning thread only; no lock needed).
        self.checks = 0
        self.cancel_after_checks = cancel_after_checks
        #: ``(clock, budget in seconds)``: cancel once the clock reads more.
        self._deadline = deadline

    # -- cancellation side (any thread) --------------------------------
    def cancel(self, reason: str = "cancelled") -> None:
        """Mark the token cancelled; the next checkpoint raises."""
        if not self._event.is_set():
            self._reason = reason
            self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    @property
    def reason(self) -> str:
        return self._reason

    # -- execution side (owning thread) --------------------------------
    def checkpoint(self) -> None:
        """Raise :class:`QueryCancelled` if the token has been cancelled.

        Called by the executor at page/batch boundaries; cheap enough for
        the checked drive loop (an Event.is_set read, plus one clock read
        under a deadline) but never on the token-less fast path.
        """
        self.checks += 1
        if (
            self.cancel_after_checks is not None
            and self.checks >= self.cancel_after_checks
        ):
            self.cancel(
                f"cancel_after_checks={self.cancel_after_checks} reached"
            )
        deadline = self._deadline
        if deadline is not None and deadline[0].elapsed_seconds >= deadline[1]:
            self.cancel(f"deadline of {deadline[1] * 1000:.1f}ms exceeded")
        if self._event.is_set():
            raise QueryCancelled(self._reason)

    def __repr__(self) -> str:
        state = f"cancelled: {self._reason}" if self.cancelled else "live"
        return f"CancellationToken({state}, checks={self.checks})"
