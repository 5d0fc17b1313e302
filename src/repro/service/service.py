"""The asyncio query service fronting one shared :class:`Engine`.

This is the subsystem that turns per-query machinery into a multi-client,
continuously-learning system: every admitted request runs through the
engine's staged lifecycle on the service's engine thread (a fresh
IOContext, shared plan cache, shared feedback store), so one client's
harvested page-count feedback re-optimizes the next client's plan.

Request path::

    admit (bounded semaphore + bounded queue)  ->  stage pipeline
    (canonicalize ... execute on the engine thread)  ->  harvest
    (optional)  ->  respond (rows + RunStats + lifecycle trace)

Properties the tests and the CI smoke gate hold the service to:

* **No unbounded queues.**  Past ``max_in_flight`` running and
  ``max_queue_depth`` waiting, requests are rejected with
  ``SERVICE_OVERLOADED`` instead of parked.
* **Deadlines cancel work, not just responses.**  ``deadline_ms`` bounds
  the admission wait (an expired request leaves the queue and answers
  promptly) and is carried by the run's
  :class:`~repro.common.cancellation.CancellationToken`, which the
  executor checks at every page/batch boundary (an event-loop timer also
  withdraws a call still waiting for the engine thread); the executor
  stops at the first boundary past the deadline, so a timed-out query stops
  charging its IOContext, releases its admission slot, and (because the
  harvest stage is never reached) cannot bump the feedback epoch with a
  partial run.
* **Graceful shutdown.**  New requests are rejected with
  ``SERVICE_SHUTTING_DOWN``; in-flight queries drain (with
  ``drain=False`` running queries are cancelled *and* admission-queued
  requests are aborted without executing); then the engine itself is
  shut down, after which ``Engine.session()`` raises.
* **Slot conservation.**  Every admitted request terminates in exactly
  one of completed/timed-out/cancelled/failed and returns its slot —
  :meth:`ServiceTelemetry.leaked_slots` audits this after every run.

Engine work happens on **one engine thread** (a one-worker
``ThreadPoolExecutor``): parse, plan, execute and harvest of every
admitted request, in admission order, so the engine's feedback store
and plan cache need no locks (under the interpreter lock a
second execution thread bought no throughput).  With a
:class:`~repro.service.workers.WorkerPool` attached, only the pipe round
trip to a worker process leaves it, on ``max_in_flight`` waiter
threads.  The event loop itself never blocks on a query.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Callable, Optional, TypeVar

from repro.common.cancellation import CancellationToken
from repro.common.errors import (
    AdmissionError,
    QueryCancelled,
    ReproError,
    ExpressionError,
    ServiceError,
    WorkerCrashed,
    WorkerQueryError,
)
from repro.engine import Engine, WorkloadItem
from repro.harness.methodology import default_requests
from repro.harness.timing import Stopwatch
from repro.service.admission import AdmissionController
from repro.service.protocol import (
    BAD_REQUEST,
    DEADLINE_EXCEEDED,
    INTERNAL_ERROR,
    QUERY_ERROR,
    SERVICE_OVERLOADED,
    SERVICE_SHUTTING_DOWN,
    WORKER_CRASHED,
    QueryRequest,
    QueryResponse,
)
from repro.service.telemetry import ServiceTelemetry
from repro.service.workers import WorkerPool
from repro.sql import parse_query

_T = TypeVar("_T")


class QueryService:
    """Admission-controlled asyncio front end over one :class:`Engine`."""

    def __init__(
        self,
        engine: Engine,
        max_in_flight: int = 8,
        max_queue_depth: int = 32,
        reopt_by_default: bool = False,
        worker_pool: Optional[WorkerPool] = None,
    ) -> None:
        self.engine = engine
        self.admission = AdmissionController(max_in_flight, max_queue_depth)
        self.telemetry = ServiceTelemetry()
        #: Run monitored in-process requests under the reopt watchdog
        #: even when they do not ask (``serve --reopt``); a request's own
        #: ``reopt=True`` always opts in regardless.
        self.reopt_by_default = reopt_by_default
        #: Optional multi-process execution tier; with a pool attached,
        #: admitted queries run on worker processes while this service's
        #: engine keeps the one authoritative feedback store/plan cache.
        self.worker_pool = worker_pool
        #: The one thread that reads and writes the engine's state.
        self._engine_thread = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-engine"
        )
        #: Pipe round trips to worker processes, one per admitted request.
        self._waiters: Optional[ThreadPoolExecutor] = None
        if worker_pool is not None:
            worker_pool.attach_telemetry(self.telemetry)
            self._waiters = ThreadPoolExecutor(
                max_workers=max_in_flight, thread_name_prefix="repro-waiter"
            )
        self._accepting = True
        self._aborting = False
        self._pending = 0
        self._drained: Optional[asyncio.Event] = None
        #: Every admitted request's token -> its current engine-thread
        #: call, which a deadline or fast abort withdraws if not started.
        self._live: dict[CancellationToken, Optional[Future[Any]]] = {}

    # ------------------------------------------------------------------
    @property
    def accepting(self) -> bool:
        return self._accepting

    @property
    def pending(self) -> int:
        """Requests currently inside :meth:`handle` (queued or running)."""
        return self._pending

    def _drain_event(self) -> asyncio.Event:
        if self._drained is None:
            self._drained = asyncio.Event()
            self._drained.set()
        return self._drained

    # ------------------------------------------------------------------
    async def handle(self, request: QueryRequest) -> QueryResponse:
        """Serve one request end to end (the in-process client entry)."""
        watch = Stopwatch()
        if not self._accepting:
            self.telemetry.count("rejected")
            return QueryResponse.failure(
                request.request_id,
                SERVICE_SHUTTING_DOWN,
                "service is shutting down; not accepting new queries",
            )
        drained = self._drain_event()
        self._pending += 1
        drained.clear()
        try:
            return await self._admit_and_run(request, watch)
        finally:
            self._pending -= 1
            if self._pending == 0:
                drained.set()

    async def _admit_and_run(
        self, request: QueryRequest, watch: Stopwatch
    ) -> QueryResponse:
        try:
            self.telemetry.gauge_set(
                "queue_depth", self.admission.queue_depth + 1
            )
            if request.deadline_ms is not None:
                # Bound the queue wait by the deadline so an expired
                # request leaves its queue slot and answers promptly
                # instead of holding it until admission.
                slot = await asyncio.wait_for(
                    self.admission.admit(), request.deadline_ms / 1000
                )
            else:
                slot = await self.admission.admit()
        except asyncio.TimeoutError:
            self.telemetry.count("rejected")
            self.telemetry.gauge_set(
                "queue_depth", self.admission.queue_depth
            )
            queue_wait_ms = watch.elapsed_seconds * 1000
            return self._finish(
                QueryResponse.failure(
                    request.request_id,
                    DEADLINE_EXCEEDED,
                    f"deadline of {request.deadline_ms:.1f}ms spent "
                    f"waiting for admission ({queue_wait_ms:.1f}ms)",
                ),
                queue_wait_ms,
                watch,
            )
        except AdmissionError as exc:
            # Overload, or a fast-abort shutdown failing the queue.
            self.telemetry.count("rejected")
            self.telemetry.gauge_set(
                "queue_depth", self.admission.queue_depth
            )
            code = SERVICE_OVERLOADED if self._accepting else (
                SERVICE_SHUTTING_DOWN
            )
            return self._finish(
                QueryResponse.failure(request.request_id, code, str(exc)),
                watch.elapsed_seconds * 1000,
                watch,
            )
        # From here the slot is held: everything up to the return must sit
        # inside the try so the finally's idempotent release covers every
        # path — a telemetry hiccup before the old try started would have
        # leaked the slot and wedged admission capacity forever (F002).
        queue_wait_ms = watch.elapsed_seconds * 1000
        timer: Optional[asyncio.TimerHandle] = None
        try:
            if self._aborting:
                # Granted in the race between shutdown(drain=False) and a
                # running query's release: hand the slot back unused.
                slot.release()
                self.telemetry.count("rejected")
                self.telemetry.gauge_set(
                    "in_flight", self.admission.in_flight
                )
                self.telemetry.gauge_set(
                    "queue_depth", self.admission.queue_depth
                )
                return self._finish(
                    QueryResponse.failure(
                        request.request_id,
                        SERVICE_SHUTTING_DOWN,
                        "service is shutting down; queued request aborted",
                    ),
                    queue_wait_ms,
                    watch,
                )
            self.telemetry.count("admitted")
            self.telemetry.observe("queue_wait_ms", queue_wait_ms)
            self.telemetry.gauge_set("in_flight", self.admission.in_flight)
            self.telemetry.gauge_set(
                "queue_depth", self.admission.queue_depth
            )

            # The token checks the deadline at every checkpoint; the timer
            # below withdraws a call still waiting for the engine thread
            # (and reaches a worker's run, which has no checkpoints here).
            token = CancellationToken(
                deadline=None
                if request.deadline_ms is None
                else (watch, request.deadline_ms / 1000)
            )
            loop = asyncio.get_running_loop()
            if request.deadline_ms is not None:
                remaining_ms = request.deadline_ms - queue_wait_ms
                if remaining_ms <= 0:
                    self.telemetry.count("timed_out")
                    return self._finish(
                        QueryResponse.failure(
                            request.request_id,
                            DEADLINE_EXCEEDED,
                            f"deadline of {request.deadline_ms:.1f}ms spent "
                            f"waiting for admission ({queue_wait_ms:.1f}ms)",
                        ),
                        queue_wait_ms,
                        watch,
                    )
                timer = loop.call_later(
                    remaining_ms / 1000,
                    self._cancel,
                    token,
                    f"deadline of {request.deadline_ms:.1f}ms exceeded",
                )
            self._live[token] = None
            try:
                response = await self._execute(request, token)
            finally:
                del self._live[token]
            self.telemetry.count("completed")
            self._count_reopt(response.runstats or {})
            self.telemetry.observe(
                "execution_ms", watch.elapsed_seconds * 1000 - queue_wait_ms
            )
            self.telemetry.observe("rows_returned", len(response.rows))
            return self._finish(response, queue_wait_ms, watch)
        except QueryCancelled as exc:
            if exc.reason.startswith("deadline"):
                self.telemetry.count("timed_out")
                code = DEADLINE_EXCEEDED
            else:
                self.telemetry.count("cancelled")
                code = SERVICE_SHUTTING_DOWN
            return self._finish(
                QueryResponse.failure(request.request_id, code, exc.reason),
                queue_wait_ms,
                watch,
            )
        except WorkerQueryError as exc:
            # A worker-side failure already classified into the wire
            # vocabulary: relay code and message verbatim.
            self.telemetry.count("failed")
            return self._finish(
                QueryResponse.failure(
                    request.request_id, exc.code, exc.message
                ),
                queue_wait_ms,
                watch,
            )
        except WorkerCrashed as exc:
            # The worker process died under this request.  The slot
            # settles through the finally below (conservation law), and
            # the pool respawns the worker on its next acquisition.
            self.telemetry.count("failed")
            return self._finish(
                QueryResponse.failure(
                    request.request_id, WORKER_CRASHED, str(exc)
                ),
                queue_wait_ms,
                watch,
            )
        except (ExpressionError, ServiceError) as exc:
            self.telemetry.count("failed")
            return self._finish(
                QueryResponse.failure(
                    request.request_id, BAD_REQUEST, str(exc)
                ),
                queue_wait_ms,
                watch,
            )
        except ReproError as exc:
            self.telemetry.count("failed")
            return self._finish(
                QueryResponse.failure(
                    request.request_id,
                    QUERY_ERROR,
                    f"{type(exc).__name__}: {exc}",
                ),
                queue_wait_ms,
                watch,
            )
        except Exception as exc:  # noqa: BLE001 — the wire must answer
            self.telemetry.count("failed")
            return self._finish(
                QueryResponse.failure(
                    request.request_id,
                    INTERNAL_ERROR,
                    f"{type(exc).__name__}: {exc}",
                ),
                queue_wait_ms,
                watch,
            )
        finally:
            if timer is not None:
                timer.cancel()
            slot.release()
            self.telemetry.gauge_set("in_flight", self.admission.in_flight)
            self.telemetry.gauge_set("queue_depth", self.admission.queue_depth)

    def _count_reopt(self, runstats: dict[str, Any]) -> None:
        """Fold a completed run's reopt episode into the counters.

        Reads the episode summary the reopt runner leaves in the run's
        lifecycle payload.  These counters annotate completed requests
        (one request, one slot, however many plans it took), so they stay
        outside :meth:`ServiceTelemetry.leaked_slots`' conservation sum.
        """
        lifecycle = runstats.get("lifecycle") or {}
        episode = lifecycle.get("reopt")
        if not episode or not episode.get("tripped"):
            return
        self.telemetry.count("reopt_trips")
        if episode.get("switched"):
            self.telemetry.count("reopt_wins")
        if episode.get("false_trip"):
            self.telemetry.count("reopt_false_trips")

    @staticmethod
    def _finish(
        response: QueryResponse, queue_wait_ms: float, watch: Stopwatch
    ) -> QueryResponse:
        response.queue_wait_ms = queue_wait_ms
        response.service_ms = watch.elapsed_seconds * 1000
        return response

    def _cancel(self, token: CancellationToken, reason: str) -> None:
        """Cancel ``token``, withdrawing its engine-thread call if that
        call has not started: it then never runs."""
        token.cancel(reason)
        waiting = self._live.get(token)
        if waiting is not None:
            waiting.cancel()

    async def _on_engine_thread(
        self, token: CancellationToken, fn: Callable[..., _T], *args: Any
    ) -> _T:
        """``fn(*args)`` on the engine thread, after every call queued
        before it; raises :class:`QueryCancelled` if withdrawn."""
        call = self._engine_thread.submit(fn, *args)
        self._live[token] = call
        try:
            return await asyncio.wrap_future(call)
        except asyncio.CancelledError:
            if call.cancelled() and token.cancelled:
                raise QueryCancelled(token.reason) from None
            raise
        finally:
            self._live[token] = None

    async def _execute(
        self, request: QueryRequest, token: CancellationToken
    ) -> QueryResponse:
        """Parse, plan, execute and (maybe) harvest one admitted request.

        With a worker pool only the pipe round trip leaves the engine
        thread: parsing first fails malformed SQL as ``BAD_REQUEST``
        without spending a worker, and the replica snapshot and the
        harvest touch the one authoritative store.  Worker executions
        ignore ``reopt`` (a worker's replan would read its stale replica).
        """
        pool = self.worker_pool
        if pool is None:
            return await self._on_engine_thread(
                token, self._execute_blocking, request, token
            )
        replica = await self._on_engine_thread(
            token, self._prepare, pool, request
        )
        outcome = await asyncio.get_running_loop().run_in_executor(
            self._waiters,
            pool.exchange,
            request,
            token,
            request.monitor is not False,
            replica,
        )
        if request.remember:
            await self._on_engine_thread(token, pool.harvest, request, outcome)
        return QueryResponse(
            request_id=request.request_id,
            rows=outcome.rows,
            columns=outcome.columns,
            runstats=outcome.runstats,
        )

    @staticmethod
    def _prepare(
        pool: WorkerPool, request: QueryRequest
    ) -> Optional[tuple[int, str]]:
        """Parse ``request``; snapshot its feedback replica if it asks."""
        parse_query(request.sql)
        return pool.replica() if request.use_feedback else None

    def _execute_blocking(
        self, request: QueryRequest, token: CancellationToken
    ) -> QueryResponse:
        """The in-process engine-thread call."""
        query = parse_query(request.sql)
        requests = (
            tuple(default_requests(self.engine.database, query))
            if request.monitor is not False
            else ()
        )
        item = WorkloadItem(
            query=query,
            requests=requests,
            use_feedback=request.use_feedback,
            hint=request.plan_hint(),
            remember=request.remember,
            exec_mode=request.exec_mode,
            # The reopt watchdog needs streaming monitor counters to
            # project from, so the flag is inert without monitors (and
            # the engine's session routing ignores requestless items).
            reopt=request.reopt or self.reopt_by_default,
        )
        session = self.engine.session()
        executed = self.engine.execute(
            item, session=session, cancellation=token
        )
        return QueryResponse(
            request_id=request.request_id,
            rows=[list(row) for row in executed.result.rows],
            columns=list(executed.result.columns),
            runstats=executed.result.runstats.to_dict(),
        )

    # ------------------------------------------------------------------
    async def stats(self) -> dict[str, Any]:
        """The ``stats`` endpoint payload: telemetry + admission + engine
        (read on the engine thread while it runs)."""
        try:
            call = self._engine_thread.submit(self._engine_stats)
        except RuntimeError:
            engine = self._engine_stats()
        else:
            engine = await asyncio.wrap_future(call)
        return {
            "kind": "stats",
            "accepting": self._accepting,
            "telemetry": self.telemetry.snapshot(),
            "admission": self.admission.snapshot(),
            "engine": engine,
            "workers": (
                self.worker_pool.snapshot()
                if self.worker_pool is not None
                else None
            ),
        }

    def _engine_stats(self) -> dict[str, Any]:
        return {
            "feedback_records": len(self.engine.feedback),
            "feedback_epoch": self.engine.feedback.epoch,
            "plan_cache": self.engine.plan_cache.stats.snapshot(),
            "report": self.engine.report(),
        }

    async def shutdown(self, drain: bool = True) -> None:
        """Stop accepting, settle in-flight work, shut the engine down.

        ``drain=True`` lets queued and running queries finish;
        ``drain=False`` aborts the admission queue (each waiter answers
        ``SERVICE_SHUTTING_DOWN`` without executing) and cancels every
        live execution's token (each stops at its next page/batch
        boundary and answers ``SERVICE_SHUTTING_DOWN``; one still
        waiting for the engine thread never runs).  Either way, by return
        the service is idle, its threads are stopped, and the engine
        refuses new sessions.  Idempotent.
        """
        self._accepting = False
        if not drain:
            self._aborting = True
            self.admission.abort_waiters(
                "service is shutting down; queued request aborted"
            )
            for token in list(self._live):
                self._cancel(token, "shutdown: service stopping")
        await self._drain_event().wait()
        # Post-drain teardown: every request has answered and the threads
        # are idle (or stopping at their next checkpoint), so these
        # blocking joins return promptly and nothing else runs on the
        # loop that they could starve.
        self._engine_thread.shutdown(wait=True)  # lint: disable=C003
        if self._waiters is not None:
            self._waiters.shutdown(wait=True)  # lint: disable=C003
        if self.worker_pool is not None:
            self.worker_pool.shutdown()
        if not self.engine.closed:
            self.engine.shutdown(drain=True)  # lint: disable=C003
