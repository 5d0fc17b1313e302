"""Exception hierarchy for the repro engine.

Every error raised by the library derives from :class:`ReproError`, so callers
can catch one base type.  Subsystems raise the most specific subclass that
describes the failure; messages always name the offending object (table,
index, column, page) so diagnostics do not require a debugger.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class CatalogError(ReproError):
    """A catalog lookup or registration failed (unknown table, index, ...)."""


class SchemaError(CatalogError):
    """A schema definition or column reference is invalid."""


class StorageError(ReproError):
    """The storage engine detected an inconsistency (bad RID, full page...)."""


class PageError(StorageError):
    """A page-level operation failed (bad slot, overflow, unknown PID)."""


class BufferPoolError(StorageError):
    """The buffer pool could not satisfy a request (no evictable frame...)."""


class IndexError_(StorageError):
    """A B-tree index operation failed.

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`IndexError`, which has different semantics.
    """


class ShardError(ReproError):
    """A sharded-deployment operation failed (partitioning, scatter-gather,
    or per-shard feedback merge)."""


class ExecutionError(ReproError):
    """A runtime operator failed while executing a plan."""


class QueryCancelled(ExecutionError):
    """An execution stopped at a cooperative cancellation checkpoint.

    Raised from the executor's page/batch-boundary checkpoints when the
    run's :class:`~repro.common.cancellation.CancellationToken` has been
    cancelled (deadline expiry, client disconnect, service shutdown).
    ``reason`` carries the cause recorded at :meth:`cancel` time."""

    def __init__(self, reason: str = "cancelled") -> None:
        super().__init__(reason)
        self.reason = reason


class ReoptRequested(QueryCancelled):
    """A regret watchdog stopped the execution to re-optimize mid-query.

    Subclasses :class:`QueryCancelled` so every existing handler that
    settles admission slots and skips the exact-feedback harvest on
    cancellation treats a re-optimization stop identically; only the
    reopt episode runner (``repro.reopt``) catches this type specifically
    to harvest *partial* actuals and switch plans.  Raised exclusively by
    :meth:`~repro.reopt.watchdog.RegretWatchdog.observe` on a trip, after
    the caller's token was consulted at the same checkpoint — so a caller
    cancel is never re-typed as a trip; codelint rule R015 keeps it
    that way."""

    def __init__(self, reason: str = "reopt") -> None:
        super().__init__(reason)


class EngineError(ReproError):
    """The multi-session engine violated (or detected a violation of) a
    workload-level contract, e.g. a concurrent run that did not produce
    exactly one result per workload item."""


class ExpressionError(ReproError):
    """A predicate or scalar expression is malformed or mistyped."""


class OptimizerError(ReproError):
    """The optimizer could not produce a plan for the query."""


class EstimationError(OptimizerError):
    """A cardinality or page-count estimate could not be computed."""


class MonitorError(ReproError):
    """A page-count monitor was misconfigured or observed invalid input."""


class FeedbackError(ReproError):
    """The feedback store rejected a record or lookup."""


class WorkloadError(ReproError):
    """A workload/data generator received invalid parameters."""


class ServiceError(ReproError):
    """The query service layer rejected or failed a request."""


class AdmissionError(ServiceError):
    """The admission controller refused a request (in-flight semaphore
    saturated and the bounded wait queue full, or the service no longer
    accepting).  Clients see this as ``SERVICE_OVERLOADED``."""


class WorkerError(ServiceError):
    """The multi-process worker tier violated its protocol (bad spec,
    unexpected reply shape, pool misuse)."""


class WorkerCrashed(WorkerError):
    """A worker process died while a query was in flight on it.

    The coordinator answers the affected request with the typed
    ``WORKER_CRASHED`` error code, releases its admission slot and
    respawns the worker; other in-flight requests are untouched."""


class WorkerQueryError(WorkerError):
    """A query failed *inside* a worker process for an ordinary reason
    (bad request, execution error).  The worker classifies the failure
    into the service's wire error-code vocabulary and the coordinator
    relays ``code``/``message`` verbatim, so worker-side failures answer
    bit-identically to in-process ones."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code
        self.message = message


class AnalysisError(ReproError):
    """The static-analysis subsystem received invalid input."""
