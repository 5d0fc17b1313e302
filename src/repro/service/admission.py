"""Admission control: a bounded in-flight semaphore plus a bounded queue.

A service fronting a shared engine must bound *both* dimensions of load:

* ``max_in_flight`` — requests admitted at once, running on or waiting
  for the engine thread (or out on worker processes); past the point of
  diminishing returns more concurrency only inflates every query's
  latency;
* ``max_queue_depth`` — admitted-but-waiting requests.  An unbounded
  queue converts overload into unbounded latency and memory; this one
  rejects instead, with an explicit ``SERVICE_OVERLOADED`` error the
  client can back off on.

The controller is a plain asyncio object: single event-loop, no locks.
``admit()`` either grants immediately, parks the caller in FIFO order, or
raises :class:`~repro.common.errors.AdmissionError`.  Grants hand back an
:class:`AdmissionSlot` whose idempotent :meth:`~AdmissionSlot.release`
passes the slot to the next waiter — the telemetry invariant checked
after every load run is that slots are conserved.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Deque

from repro.common.errors import AdmissionError


class AdmissionSlot:
    """Possession of one unit of service concurrency."""

    __slots__ = ("_controller", "_released")

    def __init__(self, controller: "AdmissionController") -> None:
        self._controller = controller
        self._released = False

    def release(self) -> None:
        """Give the slot back (idempotent — double release is a no-op,
        so error paths can release defensively without double-granting)."""
        if not self._released:
            self._released = True
            self._controller._release_one()


class AdmissionController:
    """Bounded concurrency + bounded waiting; reject past both limits."""

    def __init__(self, max_in_flight: int, max_queue_depth: int) -> None:
        if max_in_flight <= 0:
            raise ValueError(
                f"max_in_flight must be positive, got {max_in_flight}"
            )
        if max_queue_depth < 0:
            raise ValueError(
                f"max_queue_depth must be >= 0, got {max_queue_depth}"
            )
        self.max_in_flight = max_in_flight
        self.max_queue_depth = max_queue_depth
        self.in_flight = 0
        self._waiters: Deque[asyncio.Future] = deque()
        #: Cumulative decisions, mirrored into ServiceTelemetry by the
        #: service; kept here too so the controller is testable alone.
        self.total_admitted = 0
        self.total_rejected = 0
        self.total_aborted = 0

    @property
    def queue_depth(self) -> int:
        return sum(1 for w in self._waiters if not w.done())

    async def admit(self) -> AdmissionSlot:
        """Obtain a slot: immediately, after queueing, or never (raise).

        FIFO: a request only bypasses the queue when the queue is empty,
        so a burst cannot starve earlier waiters.
        """
        if self.in_flight < self.max_in_flight and not self._waiters:
            self.in_flight += 1
            self.total_admitted += 1
            return AdmissionSlot(self)
        if self.queue_depth >= self.max_queue_depth:
            self.total_rejected += 1
            raise AdmissionError(
                f"service overloaded: {self.in_flight}/{self.max_in_flight} "
                f"in flight and {self.queue_depth}/{self.max_queue_depth} "
                "queued"
            )
        loop = asyncio.get_running_loop()
        waiter: asyncio.Future = loop.create_future()
        self._waiters.append(waiter)
        try:
            await waiter
        except asyncio.CancelledError:
            # The waiting task was cancelled.  If the grant already
            # happened (release raced with cancellation), pass it on so
            # the slot is not lost.
            if waiter.done() and not waiter.cancelled():
                self._release_one()
            raise
        self.total_admitted += 1
        return AdmissionSlot(self)

    def abort_waiters(self, reason: str) -> int:
        """Fail every parked waiter with :class:`AdmissionError`.

        Fast-abort shutdown calls this so queued requests answer
        immediately instead of acquiring slots later and executing after
        the service stopped accepting work.  Waiters whose grant already
        happened (done futures) are untouched — their tasks hold a slot
        and release it normally.  Returns the number aborted.
        """
        aborted = 0
        while self._waiters:
            waiter = self._waiters.popleft()
            if not waiter.done():
                waiter.set_exception(AdmissionError(reason))
                aborted += 1
        self.total_aborted += aborted
        return aborted

    def _release_one(self) -> None:
        """Hand the freed slot to the next live waiter, or free it."""
        while self._waiters:
            waiter = self._waiters.popleft()
            if not waiter.done():
                waiter.set_result(None)  # in_flight transfers to the waiter
                return
        self.in_flight -= 1

    def snapshot(self) -> dict[str, int]:
        return {
            "in_flight": self.in_flight,
            "max_in_flight": self.max_in_flight,
            "queue_depth": self.queue_depth,
            "max_queue_depth": self.max_queue_depth,
            "total_admitted": self.total_admitted,
            "total_rejected": self.total_rejected,
            "total_aborted": self.total_aborted,
        }
