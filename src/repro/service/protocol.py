"""Wire protocol: newline-delimited JSON request/response messages.

One message per line, UTF-8 JSON, no framing beyond the newline — trivial
to speak from ``nc``, a test, or any language.  Every message carries a
``kind``:

``query``
    Execute SQL through the engine's staged lifecycle.  The request mirrors
    :meth:`repro.session.Session.run`: exec mode, feedback use, an optional
    plan hint, an optional harvest (``remember``) and an optional
    ``deadline_ms`` budget covering queue wait + execution.
``stats``
    Return the service telemetry registry, admission-controller state and
    the engine report.

Responses echo the request's ``id`` and carry either the result payload
(rows, ``RunStats.to_dict()``, the lifecycle trace) or a machine-readable
``error_code`` from :data:`ERROR_CODES`.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import Any, Mapping, Optional

from repro.common.errors import ServiceError
from repro.exec.executor import DEFAULT_EXEC_MODE, EXEC_MODES
from repro.optimizer.hints import PlanHint

#: Machine-readable error codes a response may carry.
SERVICE_OVERLOADED = "SERVICE_OVERLOADED"
SERVICE_SHUTTING_DOWN = "SERVICE_SHUTTING_DOWN"
DEADLINE_EXCEEDED = "DEADLINE_EXCEEDED"
BAD_REQUEST = "BAD_REQUEST"
QUERY_ERROR = "QUERY_ERROR"
INTERNAL_ERROR = "INTERNAL_ERROR"
#: A worker process died while this request was in flight on it.
WORKER_CRASHED = "WORKER_CRASHED"

ERROR_CODES = (
    SERVICE_OVERLOADED,
    SERVICE_SHUTTING_DOWN,
    DEADLINE_EXCEEDED,
    BAD_REQUEST,
    QUERY_ERROR,
    INTERNAL_ERROR,
    WORKER_CRASHED,
)

@dataclass(frozen=True)
class QueryRequest:
    """One client query as it crosses the wire."""

    sql: str
    request_id: str = ""
    exec_mode: str = DEFAULT_EXEC_MODE
    #: Optimize with the engine's shared feedback store folded in.
    use_feedback: bool = False
    #: Harvest this run's observations into the shared store (epoch bump).
    remember: bool = False
    #: Attach the default page-count monitor requests for the query.
    #: ``None`` (unspecified on the wire) monitors; only an explicit
    #: ``False`` opts out.
    monitor: Optional[bool] = None
    #: Optional plan restriction, as :class:`PlanHint` fields
    #: (``{"kind": "table_scan"}``, ...).
    hint: Optional[dict[str, Any]] = None
    #: Run under the mid-query re-optimization watchdog: the execution
    #: may be cancelled at a checkpoint, replanned from partial actuals
    #: and switched to a better plan (episode outcome lands in the
    #: response's ``runstats.lifecycle["reopt"]``).  Needs monitoring —
    #: a request that also disables monitors runs plain.
    reopt: bool = False
    #: Total budget in wall-clock milliseconds (queue wait + execution);
    #: ``None`` means no deadline.
    deadline_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if not isinstance(self.sql, str) or not self.sql.strip():
            raise ServiceError("query request needs a non-empty 'sql' string")
        if self.exec_mode not in EXEC_MODES:
            raise ServiceError(
                f"unknown exec_mode {self.exec_mode!r}; expected "
                f"{'|'.join(EXEC_MODES)}"
            )
        # The fields arrive as whatever JSON the client sent: a truthy
        # string for a flag would harvest when the client said "false".
        if not isinstance(self.request_id, str):
            raise ServiceError(
                f"request_id must be a string, got {self.request_id!r}"
            )
        for name in ("use_feedback", "remember", "reopt"):
            if not isinstance(getattr(self, name), bool):
                raise ServiceError(
                    f"{name} must be true or false, got {getattr(self, name)!r}"
                )
        if self.monitor is not None and not isinstance(self.monitor, bool):
            raise ServiceError(
                f"monitor must be true, false or null, got {self.monitor!r}"
            )
        if self.hint is not None and not isinstance(self.hint, Mapping):
            raise ServiceError(f"hint must be an object, got {self.hint!r}")
        if self.deadline_ms is not None and not (
            isinstance(self.deadline_ms, (int, float))
            and not isinstance(self.deadline_ms, bool)
            and math.isfinite(self.deadline_ms)
            and self.deadline_ms > 0
        ):
            raise ServiceError(
                "deadline_ms must be a finite positive number, got "
                f"{self.deadline_ms!r}"
            )

    def plan_hint(self) -> Optional[PlanHint]:
        """Materialize the hint dict (validates the kind)."""
        if self.hint is None:
            return None
        try:
            return PlanHint(**self.hint)
        except TypeError as exc:
            raise ServiceError(f"malformed hint {self.hint!r}: {exc}") from exc

    def to_dict(self) -> dict[str, Any]:
        payload = {"kind": "query", **asdict(self)}
        return {k: v for k, v in payload.items() if v is not None}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "QueryRequest":
        fields = dict(payload)
        fields.pop("kind", None)
        unknown = set(fields) - {
            "sql",
            "request_id",
            "exec_mode",
            "use_feedback",
            "remember",
            "monitor",
            "hint",
            "reopt",
            "deadline_ms",
        }
        if unknown:
            raise ServiceError(
                f"unknown query request field(s) {sorted(unknown)}"
            )
        if "sql" not in fields:
            raise ServiceError("query request needs a non-empty 'sql' string")
        return cls(**fields)


@dataclass
class QueryResponse:
    """The service's answer to one request."""

    request_id: str = ""
    status: str = "ok"  # "ok" | "error"
    error_code: str = ""
    error: str = ""
    #: Result rows as lists (JSON has no tuples); empty on error.
    rows: list[list[Any]] = field(default_factory=list)
    columns: list[str] = field(default_factory=list)
    #: ``RunStats.to_dict()`` of the execution (includes the lifecycle
    #: trace and page-count observations); ``None`` on error.
    runstats: Optional[dict[str, Any]] = None
    #: Milliseconds spent waiting for an admission slot.
    queue_wait_ms: float = 0.0
    #: Total milliseconds inside the service (queue wait + execution).
    service_ms: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "kind": "response",
            "request_id": self.request_id,
            "status": self.status,
            "queue_wait_ms": self.queue_wait_ms,
            "service_ms": self.service_ms,
        }
        if self.ok:
            payload["rows"] = self.rows
            payload["columns"] = self.columns
            payload["runstats"] = self.runstats
        else:
            payload["error_code"] = self.error_code
            payload["error"] = self.error
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "QueryResponse":
        return cls(
            request_id=payload.get("request_id", ""),
            status=payload.get("status", "error"),
            error_code=payload.get("error_code", ""),
            error=payload.get("error", ""),
            rows=payload.get("rows", []) or [],
            columns=list(payload.get("columns", []) or []),
            runstats=payload.get("runstats"),
            queue_wait_ms=payload.get("queue_wait_ms", 0.0),
            service_ms=payload.get("service_ms", 0.0),
        )

    @classmethod
    def failure(
        cls, request_id: str, code: str, message: str
    ) -> "QueryResponse":
        if code not in ERROR_CODES:
            raise ServiceError(f"unknown error code {code!r}")
        return cls(
            request_id=request_id, status="error", error_code=code,
            error=message,
        )


def encode_message(payload: Mapping[str, Any]) -> bytes:
    """One wire frame: compact JSON + newline."""
    return (
        json.dumps(payload, separators=(",", ":"), default=_jsonify) + "\n"
    ).encode("utf-8")


def _jsonify(value: Any) -> Any:
    if isinstance(value, tuple):
        return list(value)
    raise TypeError(f"cannot serialize {type(value).__name__} on the wire")


def decode_message(line: bytes | str) -> dict[str, Any]:
    """Parse one wire frame; raises :class:`ServiceError` on junk."""
    text = line.decode("utf-8") if isinstance(line, bytes) else line
    text = text.strip()
    if not text:
        raise ServiceError("empty message")
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ServiceError(f"malformed JSON message: {exc}") from exc
    if not isinstance(payload, dict):
        raise ServiceError(
            f"message must be a JSON object, got {type(payload).__name__}"
        )
    return payload
