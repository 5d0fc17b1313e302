"""Worker-process entry point for the multi-process execution tier.

Each worker child rebuilds the seeded database from its
:class:`~repro.service.marshal.WorkerSpec`, holds its **own**
:class:`~repro.engine.Engine` (private plan cache, private feedback
*replica*) and serves one query at a time off a request pipe.  The
division of authority is strict:

* the **coordinator** owns the one authoritative ``FeedbackStore`` and
  ``PlanCache``; this module never touches them (codelint R014 makes
  that structural) — every query here runs with ``remember=False`` and
  the observations travel back in the reply's ``runstats`` (the
  ``page_counts`` of ``RunStats.to_dict()``) for the coordinator to
  apply as one atomic batch;
* a ``use_feedback`` query reads a **replica**: the coordinator attaches
  a serialized store snapshot when the worker's copy is stale, and the
  child swaps its engine's store wholesale — replicas are rebuilt, never
  mutated, so a worker cannot bump an epoch anybody else observes.

Cancellation crosses the boundary cooperatively: a dedicated cancel pipe
is watched by a daemon thread that cancels the *current* query's
:class:`~repro.common.cancellation.CancellationToken` (sequence numbers
keep a late cancel from hitting the next query); the executor then stops
at its next page/batch checkpoint exactly as it does in-process.

The ``debug`` envelope field exists for the crash tests only: it lets a
test make the child die mid-scan (``exit_after_checks``) or between
finishing a query and replying (``exit_before_reply``), proving the
coordinator's slot-conservation and respawn behavior.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Mapping, Optional

from repro.common.cancellation import CancellationToken
from repro.common.errors import (
    ExpressionError,
    QueryCancelled,
    ReproError,
    ServiceError,
)
from repro.core.feedback import FeedbackStore
from repro.engine import Engine, WorkloadItem
from repro.harness.methodology import default_requests
from repro.harness.timing import Stopwatch
from repro.service.marshal import WorkerSpec
from repro.service.protocol import (
    BAD_REQUEST,
    INTERNAL_ERROR,
    QUERY_ERROR,
    QueryRequest,
)
from repro.sql import parse_query

#: Exit status a debug-crashed worker dies with (tests assert respawn,
#: not this value; it only keeps crash exits distinguishable in ps/CI).
CRASH_EXIT_STATUS = 17


class _CrashAfterChecksToken(CancellationToken):
    """Debug token: hard-kill the process at the Nth checkpoint.

    Checkpoints fire at page/batch boundaries inside the executor, so
    ``os._exit`` here is a genuine crash *mid-scan* — no reply, no
    cleanup, the pipe just goes EOF on the coordinator.
    """

    def __init__(self, crash_after: int) -> None:
        super().__init__()
        self._crash_after = crash_after
        self._checks = 0

    def checkpoint(self) -> None:
        self._checks += 1
        if self._checks >= self._crash_after:
            os._exit(CRASH_EXIT_STATUS)
        super().checkpoint()


class _CurrentQuery:
    """The cancel-watcher's view of what is executing right now.

    The watcher thread and the serve loop race by construction (that is
    the point); the lock plus the sequence number make a cancel land on
    exactly the query it was sent for.  A cancel that arrives *before*
    its query registers (the coordinator can send one the instant the
    envelope is written) is parked and applied at registration.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._seq = -1
        self._token: Optional[CancellationToken] = None
        self._pending: dict[int, str] = {}

    def register(self, seq: int, token: CancellationToken) -> None:
        with self._lock:
            self._seq = seq
            self._token = token
            reason = self._pending.get(seq)
            self._pending = {}
        # Cancel outside the lock: token.cancel is idempotent and
        # thread-safe, and calling it under _lock would order this lock
        # against whatever the token's own cancel path takes.
        if reason is not None:
            token.cancel(reason)

    def clear(self, seq: int) -> None:
        with self._lock:
            if self._seq == seq:
                self._token = None

    def cancel(self, seq: int, reason: str) -> None:
        with self._lock:
            if seq == self._seq and self._token is not None:
                self._token.cancel(reason)
            elif seq > self._seq:
                self._pending[seq] = reason


def _watch_cancels(cancel_conn: Any, current: _CurrentQuery) -> None:
    """Daemon loop: forward cancel envelopes into the current token."""
    while True:
        try:
            message = cancel_conn.recv()
        except (EOFError, OSError):
            return
        if not isinstance(message, dict):
            continue
        current.cancel(
            int(message.get("seq", -1)),
            str(message.get("reason", "cancelled")),
        )


def _debug_hold(token: CancellationToken, debug: Mapping[str, Any]) -> None:
    """Test hook: park mid-query for ``hold_s`` seconds.

    Checkpoints while parked (so a forwarded cancel lands at a
    deterministic point) unless ``ignore_cancel`` is set — the rogue-
    worker simulation that forces the coordinator's grace-window kill.
    """
    pause = threading.Event()
    watch = Stopwatch()
    obeys_cancel = not debug.get("ignore_cancel", False)
    while watch.elapsed_seconds < float(debug["hold_s"]):
        if obeys_cancel:
            token.checkpoint()
        pause.wait(0.005)


def _make_token(debug: Optional[Mapping[str, Any]]) -> CancellationToken:
    if debug and "exit_after_checks" in debug:
        return _CrashAfterChecksToken(int(debug["exit_after_checks"]))
    return CancellationToken()


def _serve_query(
    engine: Engine, message: Mapping[str, Any], current: _CurrentQuery
) -> dict[str, Any]:
    """Execute one query envelope; always returns a reply envelope.

    Failures are classified into the service's wire error-code
    vocabulary *here*, with the same message formatting as the
    in-process path, so the coordinator can relay them verbatim and a
    worker-side failure is indistinguishable from a local one.
    """
    seq = int(message["seq"])
    debug = message.get("debug")
    token = _make_token(debug)
    current.register(seq, token)
    try:
        feedback_sync = message.get("feedback")
        if feedback_sync is not None:
            # Replica swap: rebuilt wholesale, never mutated in place.
            engine.feedback = FeedbackStore.from_json(feedback_sync)
        request = QueryRequest.from_dict(message["request"])
        if debug and debug.get("hold_s"):
            _debug_hold(token, debug)
        query = parse_query(request.sql)
        requests = (
            tuple(default_requests(engine.database, query))
            if bool(message.get("monitor", False))
            else ()
        )
        item = WorkloadItem(
            query=query,
            requests=requests,
            use_feedback=request.use_feedback,
            hint=request.plan_hint(),
            remember=False,  # the coordinator owns the harvest
            exec_mode=request.exec_mode,
        )
        executed = engine.execute(item, cancellation=token)
        reply: dict[str, Any] = {
            "status": "ok",
            "seq": seq,
            "rows": [list(row) for row in executed.result.rows],
            "columns": list(executed.result.columns),
            "runstats": executed.result.runstats.to_dict(),
        }
        if debug and debug.get("exit_before_reply"):
            os._exit(CRASH_EXIT_STATUS)
        return reply
    except QueryCancelled as exc:
        return {"status": "cancelled", "seq": seq, "reason": exc.reason}
    except (ExpressionError, ServiceError) as exc:
        return {
            "status": "error",
            "seq": seq,
            "code": BAD_REQUEST,
            "message": str(exc),
        }
    except ReproError as exc:
        return {
            "status": "error",
            "seq": seq,
            "code": QUERY_ERROR,
            "message": f"{type(exc).__name__}: {exc}",
        }
    except Exception as exc:  # noqa: BLE001 — the pipe must answer
        return {
            "status": "error",
            "seq": seq,
            "code": INTERNAL_ERROR,
            "message": f"{type(exc).__name__}: {exc}",
        }
    finally:
        current.clear(seq)


def worker_entry(conn: Any, cancel_conn: Any, spec: WorkerSpec) -> None:
    """The child process's main loop (target of ``WorkerPool`` spawns).

    Rebuilds the database, then serves ``query`` envelopes one at a time
    until a ``stop`` envelope or pipe EOF.  The first query envelope may
    already be queued in the pipe while the rebuild runs — the
    coordinator never waits for a ready handshake.
    """
    current = _CurrentQuery()
    watcher = threading.Thread(
        target=_watch_cancels,
        args=(cancel_conn, current),
        name="worker-cancel-watcher",
        daemon=True,
    )
    watcher.start()
    engine = Engine(spec.build_database())
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if not isinstance(message, dict):
            continue
        op = message.get("op")
        if op == "stop":
            return
        if op == "ping":
            conn.send({"status": "ok", "op": "ping"})
            continue
        if op == "query":
            conn.send(_serve_query(engine, message, current))
