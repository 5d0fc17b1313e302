"""Operator base class and the execution context.

Operators follow the Volcano iterator model, implemented with Python
generators: :meth:`Operator.rows` yields output tuples and runs any
blocking work (hash build, sort) before its first yield.  Each operator
owns an :class:`~repro.exec.runstats.OperatorStats` and is marked with the
engine layer it executes in — ``SE`` operators see page ids, ``RE``
operators do not (the separation that motivates the paper's callback
design, Fig. 1/Fig. 5).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Iterator, Optional, Protocol

from repro.catalog.catalog import Database
from repro.common.cancellation import CancellationToken
from repro.core.requests import PageCountObservation
from repro.exec.batch import DEFAULT_BATCH_ROWS, RowBatch, chunk_rows
from repro.exec.runstats import OperatorStats
from repro.storage.accounting import IOContext


class ExecutionWatchdog(Protocol):
    """Checkpoint-boundary observer (the reopt regret watchdog's seam).

    ``observe`` runs on the executing thread at every
    :meth:`ExecutionContext.checkpoint` — i.e. at the same scan-chunk/probe
    boundaries cancellation is checked at — *after* the cancellation
    token is consulted, so a caller cancel always wins the boundary.  An
    observer stops the run by raising from ``observe`` (the regret
    watchdog raises :class:`~repro.common.errors.ReoptRequested`).
    Implementations charge any bookkeeping they do to the passed ``io``
    context (their overhead must be visible in simulated time, like
    every monitor's).
    """

    def observe(self, io: IOContext) -> None: ...


@dataclass
class ExecutionContext:
    """Shared state for one query execution.

    ``io`` is this execution's private accounting context: every operator,
    storage call and monitor charges it, so the run's timings and read
    counts are exact attributions (no global clock, no snapshot deltas).
    ``batch_rows`` is the chunk size of batch mode: relational-engine
    operators exchange chunks of it, and storage-engine scans read chunks
    of whole pages of about that many rows (one page at a time when a
    ``watchdog`` observes the run or resume tracking is armed).
    ``cancellation`` is the run's cooperative-cancellation token (``None``
    for the overwhelmingly common uncancellable run); operators call
    :meth:`checkpoint` at scan-chunk/probe boundaries.  ``watchdog`` is an
    optional checkpoint observer (mid-query re-optimization's regret
    watchdog); it runs after the token check, at the same boundary.
    """

    database: Database
    io: IOContext
    observations: list[PageCountObservation] = field(default_factory=list)
    batch_rows: int = DEFAULT_BATCH_ROWS
    cancellation: Optional[CancellationToken] = None
    watchdog: Optional[ExecutionWatchdog] = None

    def checkpoint(self) -> None:
        """Raise :class:`~repro.common.errors.QueryCancelled` if this
        execution's token has been cancelled, then let the watchdog
        observe; no-op with neither.

        Called once per scan chunk (one page under a watchdog or in the
        row drive) and once per probe row (index-nested-loop join), so a
        timed-out query stops charging its :attr:`io` within one chunk of
        work.  The token is consulted first, so a deadline landing on a
        trip boundary surfaces as ``QueryCancelled``; a watchdog, when
        attached, observes the boundary second and may raise its own
        trip — how mid-query re-optimization stops a run.
        """
        if self.cancellation is not None:
            self.cancellation.checkpoint()
        if self.watchdog is not None:
            self.watchdog.observe(self.io)


class Operator(ABC):
    """Base class of all physical operators."""

    #: Which engine layer the operator runs in: "SE" (storage engine,
    #: page ids visible) or "RE" (relational engine).
    engine_layer = "RE"

    def __init__(self) -> None:
        self.stats = OperatorStats(operator=type(self).__name__)
        self.estimated_rows: Optional[float] = None

    @property
    @abstractmethod
    def output_columns(self) -> tuple[str, ...]:
        """Names of the columns in yielded tuples, in order."""

    @abstractmethod
    def rows(self, ctx: ExecutionContext) -> Iterator[tuple]:
        """Yield output rows; must run to exhaustion for monitors to
        observe end-of-stream."""

    def batches(self, ctx: ExecutionContext) -> Iterator[RowBatch]:
        """Yield output rows as :class:`~repro.exec.batch.RowBatch` chunks.

        The default adapts :meth:`rows` into fixed-size chunks, so every
        operator is batch-drivable; operators with a native batch path
        override this (and must emit exactly the rows, in exactly the
        order, the row iterator would — the equivalence harness checks).

        :class:`~repro.exec.joins.MergeJoin` is the only operator still
        on the adapter (``tests/exec/test_default_exec_mode.py`` walks
        the subclasses).  The adapter pulls :meth:`rows`, which pulls the
        children's :meth:`rows` — so under a batch-mode plan the *whole
        subtree* below a merge join runs the row drive and feeds its
        monitors per row.  That is why :meth:`rows` is a production
        path, not only the test oracle, until merge join gets a batch
        drive of its own.
        """
        yield from chunk_rows(self.rows(ctx), ctx.batch_rows)

    def finalize(self, ctx: ExecutionContext) -> None:
        """Called after the stream is exhausted; default collects children.

        Operators with monitors override this to flush observations into
        ``ctx.observations`` (the end-of-stream message of Fig. 3).
        """

    def collect_stats(self) -> OperatorStats:
        """Assemble this operator's stats subtree."""
        self.stats.operator = type(self).__name__
        self.stats.estimated_rows = self.estimated_rows
        self.stats.children = [child.collect_stats() for child in self.children()]
        return self.stats

    def children(self) -> list["Operator"]:
        return []

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.stats.detail})"
