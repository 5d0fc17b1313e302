"""Driving a physical operator tree to completion.

:func:`execute` runs a root operator to exhaustion under a fresh
:class:`~repro.exec.base.ExecutionContext`, finalizes monitors (the
end-of-stream step every counting mechanism needs) and assembles the
:class:`~repro.exec.runstats.RunStats` feedback — rows, simulated timings,
I/O counters and page-count observations.

Accounting is per-execution: the run charges an
:class:`~repro.storage.accounting.IOContext` of its own and ``RunStats``
are read directly off it, so concurrent executions (each with its own
context) cannot corrupt each other's numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.catalog.catalog import Database
from repro.common.cancellation import CancellationToken
from repro.exec.base import ExecutionContext, ExecutionWatchdog, Operator
from repro.exec.runstats import RunStats
from repro.storage.accounting import IOContext

#: The execution modes every layer accepts (the single owner of the set:
#: the wire protocol, the load generator, the CLIs and the equivalence
#: harness all import it).  ``"row"`` is the reference oracle.
EXEC_MODES = ("row", "batch")

#: The drive every layer runs when the caller names none: the production
#: drive.  Every ``exec_mode`` / ``mode`` default in the package refers to
#: this name; the oracle is asked for by name (``"row"``).
DEFAULT_EXEC_MODE = "batch"

#: Row-mode cancellation granularity: the checked drive loop consults the
#: token every this-many output rows (batch mode checks at every batch —
#: i.e. page — boundary instead).  Small enough that a timed-out scan
#: stops within one page's worth of output, large enough that the check
#: is invisible next to per-row simulation costs.
CANCELLATION_CHECK_ROWS = 64


@dataclass
class QueryResult:
    """Rows plus execution feedback for one query run."""

    rows: list[tuple]
    runstats: RunStats
    columns: tuple[str, ...] = field(default_factory=tuple)

    @property
    def elapsed_ms(self) -> float:
        return self.runstats.elapsed_ms

    def scalar(self):
        """The single value of a one-row/one-column result (COUNT queries)."""
        if len(self.rows) != 1 or len(self.rows[0]) != 1:
            num_columns = len(self.rows[0]) if self.rows else 0
            raise ValueError(
                f"scalar() needs a 1x1 result, got {len(self.rows)} row(s) "
                f"x {num_columns} column(s)"
            )
        return self.rows[0][0]


def _drive_checked(
    root: Operator, ctx: ExecutionContext, mode: str, token: CancellationToken
) -> list[tuple]:
    """Drive the tree with cancellation checkpoints at exchange boundaries.

    Batch mode checks once per batch — one storage page at scan leaves, so
    a cancelled scan stops at the next page boundary.  Row mode checks
    every :data:`CANCELLATION_CHECK_ROWS` output rows.  Raising
    :class:`~repro.common.errors.QueryCancelled` abandons the generators
    mid-stream: the run stops charging its IOContext immediately and no
    end-of-stream monitor observations are produced (so a later harvest
    of a partial run cannot happen — the exception skips it).
    """
    rows: list[tuple] = []
    token.checkpoint()
    if mode == "batch":
        for batch in root.batches(ctx):
            token.checkpoint()
            rows.extend(batch.rows)
        return rows
    check_interval = CANCELLATION_CHECK_ROWS
    for row in root.rows(ctx):
        rows.append(row)
        if len(rows) % check_interval == 0:
            token.checkpoint()
    return rows


def execute(
    root: Operator,
    database: Database,
    io: Optional[IOContext] = None,
    mode: str = DEFAULT_EXEC_MODE,
    cancellation: Optional[CancellationToken] = None,
    watchdog: Optional[ExecutionWatchdog] = None,
) -> QueryResult:
    """Run ``root`` to completion against ``database``.

    ``io`` is the execution's accounting context and buffer frames; by
    default a fresh one, so every call starts from zeroed counters on a
    cold cache (the paper's measurement methodology).  A context carried
    over from an earlier run continues it warm: its counters keep
    accumulating and its resident pages are hits.

    ``mode`` selects the drive style: ``"batch"``
    (:data:`DEFAULT_EXEC_MODE`) pulls chunk-at-a-time
    :class:`~repro.exec.batch.RowBatch` exchange with compiled predicate
    kernels, ``"row"`` pulls the Volcano row iterator (the reference
    oracle; :data:`EXEC_MODES` is the whole set).  Batch payloads are row
    lists, except that a table scan feeding a column-consuming aggregate
    emits multi-page column chunks, monitored or not — a property of the
    plan shape (:func:`repro.core.planner.build_executable` marks the
    scan), never of the mode.  Both modes produce identical rows, observations
    and read counts (the equivalence harness in
    :mod:`repro.harness.equivalence` checks).

    ``cancellation`` opts the run into cooperative cancellation: the drive
    loop consults the token at page/batch boundaries and raises
    :class:`~repro.common.errors.QueryCancelled` once it is cancelled.
    The default ``None`` keeps the unchecked fast path bit-identical to a
    token-less run.

    ``watchdog`` attaches a checkpoint-boundary observer (the reopt
    regret watchdog): it sees every ``ctx.checkpoint()`` the operators
    hit, after ``cancellation``, and acts by raising its own trip, so it
    needs no token.
    """
    if mode == "columnar":
        # Retired spelling, accepted here alone and run as batch: the
        # frozen ``benchmarks/perf`` trace still passes it for its
        # ``exec.scan_rows_per_s.columnar`` reading.  It selects nothing
        # and goes when a benchmark PR drops that metric.
        mode = "batch"
    if mode not in EXEC_MODES:
        raise ValueError(
            f"unknown execution mode {mode!r}; expected {'|'.join(EXEC_MODES)}"
        )
    if io is None:
        io = database.new_io_context()
    ctx = ExecutionContext(
        database=database,
        io=io,
        cancellation=cancellation,
        watchdog=watchdog,
    )
    if cancellation is not None:
        rows = _drive_checked(root, ctx, mode, cancellation)
    elif mode == "batch":
        rows = [row for batch in root.batches(ctx) for row in batch.rows]
    else:
        rows = list(root.rows(ctx))
    root.finalize(ctx)
    runstats = RunStats(
        root=root.collect_stats(),
        elapsed_ms=io.elapsed_ms,
        io_ms=io.io_ms,
        cpu_ms=io.cpu_ms,
        random_reads=io.random_reads,
        sequential_reads=io.sequential_reads,
        logical_reads=io.logical_reads,
        pool_hits=io.pool_hits,
        execution_mode=mode,
        observations=list(ctx.observations),
    )
    return QueryResult(rows=rows, runstats=runstats, columns=root.output_columns)
