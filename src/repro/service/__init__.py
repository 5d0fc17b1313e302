"""The query service layer: asyncio front end over a shared engine.

See :mod:`repro.service.service` for the subsystem overview (admission
control, deadlines, telemetry, graceful shutdown) and
``docs/architecture.md`` for where it sits in the stack.
"""

from repro.service.admission import AdmissionController, AdmissionSlot
from repro.service.client import InProcessClient, TCPClient
from repro.service.marshal import WorkerSpec
from repro.service.protocol import (
    BAD_REQUEST,
    DEADLINE_EXCEEDED,
    ERROR_CODES,
    INTERNAL_ERROR,
    QUERY_ERROR,
    SERVICE_OVERLOADED,
    SERVICE_SHUTTING_DOWN,
    WORKER_CRASHED,
    QueryRequest,
    QueryResponse,
    decode_message,
    encode_message,
)
from repro.service.server import QueryServer
from repro.service.service import QueryService
from repro.service.telemetry import (
    STANDARD_COUNTERS,
    STANDARD_GAUGES,
    STANDARD_HISTOGRAMS,
    ServiceTelemetry,
)
from repro.service.workers import WorkerOutcome, WorkerPool

__all__ = [
    "AdmissionController",
    "AdmissionSlot",
    "BAD_REQUEST",
    "DEADLINE_EXCEEDED",
    "ERROR_CODES",
    "INTERNAL_ERROR",
    "InProcessClient",
    "QUERY_ERROR",
    "QueryRequest",
    "QueryResponse",
    "QueryServer",
    "QueryService",
    "SERVICE_OVERLOADED",
    "SERVICE_SHUTTING_DOWN",
    "STANDARD_COUNTERS",
    "STANDARD_GAUGES",
    "STANDARD_HISTOGRAMS",
    "ServiceTelemetry",
    "TCPClient",
    "WORKER_CRASHED",
    "WorkerOutcome",
    "WorkerPool",
    "WorkerSpec",
    "decode_message",
    "encode_message",
]
