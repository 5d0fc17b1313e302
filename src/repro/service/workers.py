"""Coordinator side of the multi-process worker execution tier.

A :class:`WorkerPool` spawns N worker processes (each rebuilding the
seeded database from a :class:`~repro.service.marshal.WorkerSpec` and
holding its own engine) and routes admitted queries onto them, keeping
the service's single-process contract intact:

* **One authoritative feedback store, one thread touching it.**
  Workers execute with ``remember=False`` and return their observations
  in the reply's ``runstats``; for a ``remember`` request
  :meth:`WorkerPool.harvest` applies the batch through
  :meth:`Engine.harvest_observations` (epoch bumped exactly once per
  batch, zero-answerable batches are no-ops —
  :meth:`FeedbackStore.record_observations`' contract, the same one a
  shard fan-out's harvest lands through).  ``use_feedback`` queries read a
  serialized replica (:meth:`WorkerPool.replica`), memoized per epoch and
  shipped to a worker whose copy is older.
* **Deadlines abandon or recycle, never leak.**  While a query is on a
  worker the pool polls the request's token; a cancel is forwarded over
  the worker's cancel pipe and the worker stops at its next checkpoint.
  A worker that ignores the cancel past the grace window is killed and
  respawned — either way the admission slot settles through the
  service's ``finally``.
* **Crashes are typed and contained.**  A worker dying mid-query raises
  :class:`~repro.common.errors.WorkerCrashed` (the service answers
  ``WORKER_CRASHED``); the dead handle stays pool-owned and is respawned
  on its next acquisition, counted by the ``worker_restarts`` telemetry
  counter and the per-worker ``respawns`` gauge.

:meth:`WorkerPool.replica` and :meth:`WorkerPool.harvest` touch the
engine's store, so the service runs them on its engine thread; the pipe
round trip, :meth:`WorkerPool.exchange`, runs on its waiter threads, and
the pool's lock guards handles and gauges against them.
"""

from __future__ import annotations

import multiprocessing
import queue
import threading
from dataclasses import dataclass
from multiprocessing.connection import Connection
from typing import Any, Optional

from repro.common.cancellation import CancellationToken
from repro.common.errors import (
    QueryCancelled,
    WorkerCrashed,
    WorkerError,
    WorkerQueryError,
)
from repro.core.requests import PageCountObservation
from repro.engine import Engine
from repro.harness.timing import Stopwatch
from repro.service.marshal import WorkerSpec
from repro.service.protocol import QueryRequest
from repro.service.telemetry import ServiceTelemetry
from repro.service.worker_main import worker_entry

#: Seconds a cancelled query may keep its worker before the pool kills
#: and recycles it (a cooperative stop normally lands within one page).
DEFAULT_CANCEL_GRACE_S = 5.0

#: Seconds granted to a stopping worker before it is killed outright.
SHUTDOWN_GRACE_S = 5.0

#: Reply-pipe poll interval while a query is out on a worker.
_POLL_INTERVAL_S = 0.02


@dataclass
class WorkerOutcome:
    """What a worker execution hands back to the service."""

    rows: list[list[Any]]
    columns: list[str]
    runstats: dict[str, Any]
    #: The worker that ran the query.
    worker_id: int = 0


@dataclass
class _WorkerHandle:
    """One worker process plus its pipes and counters (pool-internal)."""

    worker_id: int
    process: multiprocessing.process.BaseProcess
    conn: Connection
    cancel_conn: Connection
    seq: int = 0
    busy: bool = False
    queries_served: int = 0
    respawns: int = 0
    #: Feedback epoch of the replica last shipped to this worker
    #: (-1 = never synced).
    synced_epoch: int = -1
    dead: bool = False

    def next_seq(self) -> int:
        self.seq += 1
        return self.seq

    def alive(self) -> bool:
        return not self.dead and self.process.is_alive()

    def snapshot(self) -> dict[str, Any]:
        return {
            "worker_id": self.worker_id,
            "pid": self.process.pid,
            "alive": self.alive(),
            "busy": self.busy,
            "queries_served": self.queries_served,
            "respawns": self.respawns,
            "synced_epoch": self.synced_epoch,
        }


class WorkerPool:
    """N worker processes behind the admission controller.

    ``engine`` is the coordinator's engine — the owner of the one
    authoritative feedback store the pool harvests into and snapshots
    replicas from.  The pool never executes on it.
    """

    def __init__(
        self,
        spec: WorkerSpec,
        num_workers: int,
        engine: Engine,
        telemetry: Optional[ServiceTelemetry] = None,
        cancel_grace_s: float = DEFAULT_CANCEL_GRACE_S,
    ) -> None:
        if num_workers <= 0:
            raise WorkerError(
                f"num_workers must be positive, got {num_workers}"
            )
        self.spec = spec
        self.num_workers = num_workers
        self.engine = engine
        self.telemetry = telemetry
        self.cancel_grace_s = cancel_grace_s
        self._ctx = multiprocessing.get_context("spawn")
        self._lock = threading.Lock()
        self._closed = False
        #: Replica payload memoized per epoch (one serialization per
        #: harvest, not per query); engine thread only.
        self._feedback_cache: Optional[tuple[int, str]] = None
        #: One-shot debug envelope armed by :meth:`inject_debug`.
        self._injected_debug: Optional[dict[str, Any]] = None
        self._handles: list[_WorkerHandle] = []
        self._idle: "queue.Queue[_WorkerHandle]" = queue.Queue()
        for worker_id in range(num_workers):
            handle = self._spawn(worker_id)
            self._handles.append(handle)
            self._idle.put(handle)
        self._update_gauges()

    # -- lifecycle ------------------------------------------------------
    def _spawn(self, worker_id: int) -> _WorkerHandle:
        parent_conn, child_conn = self._ctx.Pipe()
        parent_cancel, child_cancel = self._ctx.Pipe()
        process = self._ctx.Process(
            target=worker_entry,
            args=(child_conn, child_cancel, self.spec),
            name=f"repro-worker-{worker_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        child_cancel.close()
        return _WorkerHandle(
            worker_id=worker_id,
            process=process,
            conn=parent_conn,
            cancel_conn=parent_cancel,
        )

    def _destroy(self, handle: _WorkerHandle) -> None:
        """Kill a worker's process and close its pipes (idempotent)."""
        handle.dead = True
        if handle.process.is_alive():
            handle.process.kill()
        handle.process.join(timeout=SHUTDOWN_GRACE_S)
        for conn in (handle.conn, handle.cancel_conn):
            try:
                conn.close()
            except OSError:
                pass

    def _respawn(self, handle: _WorkerHandle) -> None:
        """Replace a dead worker's process in place, keeping its slot."""
        self._destroy(handle)
        fresh = self._spawn(handle.worker_id)
        handle.process = fresh.process
        handle.conn = fresh.conn
        handle.cancel_conn = fresh.cancel_conn
        handle.dead = False
        handle.synced_epoch = -1
        handle.respawns += 1
        if self.telemetry is not None:
            self.telemetry.count("worker_restarts")

    def attach_telemetry(self, telemetry: ServiceTelemetry) -> None:
        """Bind the service's registry (the service calls this on init)."""
        self.telemetry = telemetry
        self._update_gauges()

    def rebind_engine(self, engine: Engine) -> None:
        """Point the harvest/replica side at a different coordinator
        engine (benchmarks reuse one spawned pool across runs).  Worker
        replicas are invalidated so the next ``use_feedback`` query
        ships a fresh snapshot."""
        with self._lock:
            self.engine = engine
            self._feedback_cache = None
            for handle in self._handles:
                handle.synced_epoch = -1

    def shutdown(self) -> None:
        """Stop every worker: polite ``stop`` first, then the kill."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for handle in self._handles:
            if handle.alive():
                try:
                    handle.conn.send({"op": "stop"})
                except (OSError, ValueError):
                    pass
        for handle in self._handles:
            handle.process.join(timeout=SHUTDOWN_GRACE_S)
            self._destroy(handle)
        self._update_gauges()

    def leaked_workers(self) -> list[int]:
        """PIDs of worker processes still alive (empty after shutdown)."""
        return [
            handle.process.pid or 0
            for handle in self._handles
            if handle.process.is_alive()
        ]

    # -- observability --------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            workers = [handle.snapshot() for handle in self._handles]
        busy = sum(1 for w in workers if w["busy"])
        return {
            "num_workers": self.num_workers,
            "busy": busy,
            "idle": len(workers) - busy,
            "restarts": sum(w["respawns"] for w in workers),
            "workers": workers,
        }

    def _update_gauges(self) -> None:
        if self.telemetry is None:
            return
        with self._lock:
            busy = sum(1 for handle in self._handles if handle.busy)
        self.telemetry.gauge_set("workers_busy", busy)
        self.telemetry.gauge_set("workers_idle", self.num_workers - busy)

    def inject_debug(self, debug: dict[str, Any]) -> None:
        """Arm a debug envelope for the next :meth:`exchange` (tests only).

        The crash tests need to make a worker die while a request is in
        flight *through the service*, and the wire ``QueryRequest``
        (rightly) has no debug field — so the injection rides the pool.
        One-shot: consumed by the next exchange, whichever thread runs it.
        """
        with self._lock:
            self._injected_debug = dict(debug)

    # -- execution ------------------------------------------------------
    def execute(
        self,
        request: QueryRequest,
        token: Optional[CancellationToken] = None,
        monitor: bool = False,
        debug: Optional[dict[str, Any]] = None,
    ) -> WorkerOutcome:
        """Run one request on an idle worker: replica, exchange, harvest.

        Blocks while all workers are busy.  Raises :class:`QueryCancelled`,
        :class:`WorkerQueryError` or :class:`WorkerCrashed` exactly like
        the in-process execution path raises its failures, so the
        service's exception-to-error-code mapping stays in one place.
        """
        replica = self.replica() if request.use_feedback else None
        outcome = self.exchange(request, token, monitor, replica, debug)
        self.harvest(request, outcome)
        return outcome

    def replica(self) -> tuple[int, str]:
        """``(epoch, payload)`` of the engine's feedback store, memoized
        per epoch.  Reads the store: call it on the engine's thread."""
        epoch = self.engine.feedback.epoch
        if self._feedback_cache is None or self._feedback_cache[0] != epoch:
            self._feedback_cache = (epoch, self.engine.feedback.to_json())
        return self._feedback_cache

    def exchange(
        self,
        request: QueryRequest,
        token: Optional[CancellationToken] = None,
        monitor: bool = False,
        replica: Optional[tuple[int, str]] = None,
        debug: Optional[dict[str, Any]] = None,
    ) -> WorkerOutcome:
        """The pipe round trip, unharvested: acquire a worker, ship it
        ``replica`` if its copy is another epoch's, send, await the reply.
        Touches no engine state, so it may run on any thread."""
        if token is not None and token.cancelled:
            # Mirror the in-process path, where the first executor
            # checkpoint raises before any page is read: an already-
            # cancelled request never spends a worker.
            raise QueryCancelled(token.reason)
        if debug is None:
            with self._lock:
                debug = self._injected_debug
                self._injected_debug = None
        handle = self._acquire(token)
        handle.busy = True
        self._update_gauges()
        try:
            return self._run_on(handle, request, token, monitor, replica, debug)
        finally:
            handle.busy = False
            self._idle.put(handle)
            self._update_gauges()

    def harvest(self, request: QueryRequest, outcome: WorkerOutcome) -> None:
        """Apply a ``remember`` reply's observations to the engine's
        store (a no-op otherwise).  Writes the store: call it on the
        engine's thread.  A page-count entry ``from_wire`` rejects raises
        :class:`WorkerError` and files nothing."""
        if not request.remember:
            return
        try:
            observations = [
                PageCountObservation.from_wire(entry)
                for entry in outcome.runstats.get("page_counts", [])
            ]
        except ValueError as exc:
            raise WorkerError(
                f"worker {outcome.worker_id} sent {exc}"
            ) from exc
        # One batch into the one authoritative store: the epoch advances
        # exactly once, zero-answerable batches not at all.
        if self.engine.harvest_observations(observations):
            self._feedback_cache = None

    def _acquire(self, token: Optional[CancellationToken]) -> _WorkerHandle:
        """Next idle worker, respawned first if its process died idle."""
        while True:
            if self._closed:
                raise WorkerError("worker pool is shut down")
            try:
                handle = self._idle.get(timeout=_POLL_INTERVAL_S)
            except queue.Empty:
                if token is not None and token.cancelled:
                    raise QueryCancelled(token.reason)
                continue
            if not handle.alive():
                self._respawn(handle)
            return handle

    def _run_on(
        self,
        handle: _WorkerHandle,
        request: QueryRequest,
        token: Optional[CancellationToken],
        monitor: bool,
        replica: Optional[tuple[int, str]],
        debug: Optional[dict[str, Any]],
    ) -> WorkerOutcome:
        seq = handle.next_seq()
        envelope: dict[str, Any] = {
            "op": "query",
            "seq": seq,
            "request": request.to_dict(),
            "monitor": monitor,
        }
        if replica is not None and handle.synced_epoch != replica[0]:
            handle.synced_epoch, envelope["feedback"] = replica
        if debug:
            envelope["debug"] = debug
        try:
            handle.conn.send(envelope)
        except (OSError, ValueError) as exc:
            handle.dead = True
            raise WorkerCrashed(
                f"worker {handle.worker_id} (pid {handle.process.pid}) "
                f"pipe closed before accepting a query: {exc}"
            ) from exc
        reply = self._await_reply(handle, seq, token)
        return self._interpret_reply(handle, reply)

    def _await_reply(
        self,
        handle: _WorkerHandle,
        seq: int,
        token: Optional[CancellationToken],
    ) -> dict[str, Any]:
        """Poll for the reply, forwarding a cancel and enforcing grace."""
        cancel_watch: Optional[Stopwatch] = None
        while True:
            try:
                if handle.conn.poll(_POLL_INTERVAL_S):
                    reply = handle.conn.recv()
                    if isinstance(reply, dict) and reply.get("seq") == seq:
                        return reply
                    continue  # stale frame from a pre-crash query
            except (EOFError, OSError):
                handle.dead = True
                raise WorkerCrashed(
                    f"worker {handle.worker_id} (pid {handle.process.pid}) "
                    "died mid-query; its request fails with WORKER_CRASHED "
                    "and the worker will be respawned"
                )
            if not handle.process.is_alive() and not handle.conn.poll(0):
                handle.dead = True
                raise WorkerCrashed(
                    f"worker {handle.worker_id} (pid {handle.process.pid}) "
                    "died mid-query; its request fails with WORKER_CRASHED "
                    "and the worker will be respawned"
                )
            if token is not None and token.cancelled:
                if cancel_watch is None:
                    cancel_watch = Stopwatch()
                    try:
                        handle.cancel_conn.send(
                            {"seq": seq, "reason": token.reason}
                        )
                    except (OSError, ValueError):
                        pass  # worker already dying; next poll sees EOF
                elif cancel_watch.elapsed_seconds > self.cancel_grace_s:
                    # The worker ignored the cancel past the grace
                    # window: abandon it (kill + respawn-on-next-use)
                    # so the admission slot settles now.
                    self._destroy(handle)
                    raise QueryCancelled(token.reason)

    def _interpret_reply(
        self, handle: _WorkerHandle, reply: dict[str, Any]
    ) -> WorkerOutcome:
        status = reply.get("status")
        if status == "cancelled":
            raise QueryCancelled(str(reply.get("reason", "cancelled")))
        if status == "error":
            raise WorkerQueryError(
                str(reply.get("code", "INTERNAL_ERROR")),
                str(reply.get("message", "worker-side failure")),
            )
        if status != "ok":
            raise WorkerError(
                f"worker {handle.worker_id} sent a malformed reply "
                f"(status {status!r})"
            )
        handle.queries_served += 1
        return WorkerOutcome(
            rows=list(reply.get("rows", [])),
            columns=list(reply.get("columns", [])),
            runstats=dict(reply.get("runstats", {})),
            worker_id=handle.worker_id,
        )
