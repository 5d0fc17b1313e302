"""Fan-out execution over N shard-local engines.

:class:`ShardCoordinator` is an :class:`~repro.engine.Engine` over the
*global* database — sessions, plan cache, feedback store and the
drain/shutdown lifecycle are the base class's — whose executions fan out
over N independent shard engines holding the rows
(:func:`repro.shard.partition.partition_database`); one query then runs
as:

1. **canonicalize + optimize once** — the coordinator's planning session
   plans against the global catalog (global statistics, the store's
   feedback injections) through the shared
   :class:`~repro.lifecycle.PlanCache`, so a repeated query costs one
   cached plan resolution no matter how many shards execute it;
2. **fan out** — the same plan node goes to every shard engine in shard
   order, which rebinds it *by table/index name* (shard catalogs clone
   the global schema) and executes it under its own fresh accounting
   context via :meth:`~repro.engine.Engine.execute_plan` — no per-shard
   re-optimization, ever.  The fan-out is a plain loop on the caller's
   thread with the caller's cancellation token: the executions are
   CPU-bound Python, so threads bought nothing under the GIL (measured
   2x *slower* in batch mode, EXPERIMENTS.md), and an error or
   :class:`~repro.common.errors.QueryCancelled` in shard *k* propagates
   as itself with shards after *k* never started;
3. **merge** — a sum (:func:`merge_shard_runs`): every plan the
   optimizer emits is a scalar ``COUNT``, so the shards' partial counts
   add up, per-shard observations merge by summing disjoint page counts
   (:func:`repro.core.feedback.merge_page_count_observations`), and —
   when the item asks to remember — the merged observations are
   harvested into the coordinator's one
   :class:`~repro.core.feedback.FeedbackStore` exactly as a serial
   engine harvests a run: one atomic batch, one epoch bump iff
   something was stored.  Shard engines' own stores stay empty.

Merged ``RunStats`` model the parallel deployment: integer I/O counters
**sum** across shards (total work), while the simulated times take the
**maximum** over the shards' own simulated clocks (the makespan of a
deployment whose shards run concurrently — computed, not run), which is
what the ≥3×-at-4-shards scan-throughput gate in
``benchmarks/smoke_shard.py`` measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.catalog.catalog import Database
from repro.catalog.schema import PartitionSpec
from repro.common.cancellation import CancellationToken
from repro.common.errors import EngineError
from repro.core.feedback import merge_page_count_observations
from repro.core.planner import MonitorConfig
from repro.core.requests import PageCountRequest
from repro.engine.engine import Engine, WorkloadItem
from repro.exec.executor import DEFAULT_EXEC_MODE, QueryResult
from repro.exec.runstats import OperatorStats, RunStats
from repro.lifecycle.runner import ExecutedQuery
from repro.optimizer.optimizer import Query
from repro.optimizer.plans import CountPlan, PlanNode
from repro.session import Session
from repro.shard.partition import partition_database


@dataclass
class ShardedExecutedQuery(ExecutedQuery):
    """A merged execution result plus the per-shard executions behind it."""

    shard_results: list[ExecutedQuery] = field(default_factory=list)


def merge_shard_runs(shard_runs: Sequence[ExecutedQuery]) -> QueryResult:
    """Sum the shards' scalar ``COUNT`` partials into the global answer.

    Free, like the partial counts it adds: every row was charged on its
    shard's own accounting context.  The merged :class:`RunStats` graft
    the per-shard stats trees under one root, so ``render()`` still shows
    the fan-out.
    """
    shard_stats = [run.result.runstats for run in shard_runs]
    root = OperatorStats(
        operator="ShardSum",
        detail=f"{len(shard_runs)} shard(s)",
        actual_rows=1,
        children=[stats.root for stats in shard_stats],
    )
    runstats = RunStats(
        root=root,
        execution_mode=shard_stats[0].execution_mode,
        # Makespan of the parallel fan-out: shards execute concurrently,
        # so the deployment's simulated time is the slowest shard's.
        elapsed_ms=max(s.elapsed_ms for s in shard_stats),
        io_ms=max(s.io_ms for s in shard_stats),
        cpu_ms=max(s.cpu_ms for s in shard_stats),
        random_reads=sum(s.random_reads for s in shard_stats),
        sequential_reads=sum(s.sequential_reads for s in shard_stats),
        logical_reads=sum(s.logical_reads for s in shard_stats),
        pool_hits=sum(s.pool_hits for s in shard_stats),
        observations=merge_page_count_observations(
            [stats.observations for stats in shard_stats]
        ),
    )
    total = sum(run.result.scalar() for run in shard_runs)
    return QueryResult(
        rows=[(total,)],
        runstats=runstats,
        columns=shard_runs[0].result.columns,
    )


class ShardCoordinator(Engine):
    """An :class:`Engine` whose executions fan out over shard engines."""

    def __init__(
        self,
        database: Database,
        num_shards: int = 4,
        strategy: str = "range",
        partition_column: Optional[str] = None,
        partition_seed: int = 0,
        monitor_config: Optional[MonitorConfig] = None,
    ) -> None:
        # The base engine is the planning side: global catalog, one plan
        # cache (a repeated query resolves once and every shard executes
        # the cached plan) and the one feedback store.
        super().__init__(database, monitor_config=monitor_config)
        self.spec = PartitionSpec(
            num_shards=num_shards, strategy=strategy, column=partition_column
        )
        self.shard_databases = partition_database(
            database, self.spec, seed=partition_seed
        )
        #: Shard engines never optimize (plans arrive pre-built through
        #: ``execute_plan``), so their own plan caches stay empty.
        self.engines = [
            Engine(shard_db, monitor_config=self.monitor_config)
            for shard_db in self.shard_databases
        ]

    @property
    def num_shards(self) -> int:
        return len(self.engines)

    def shutdown(self, drain: bool = True, timeout: Optional[float] = None) -> bool:
        """Stop admitting work, drain in-flight fan-outs, cascade to shards."""
        drained = super().shutdown(drain=drain, timeout=timeout)
        for engine in self.engines:
            drained = engine.shutdown(drain=drain, timeout=timeout) and drained
        return drained

    # ------------------------------------------------------------------
    # Execution: the two Engine entry points that differ
    # ------------------------------------------------------------------
    def execute(
        self,
        item: WorkloadItem,
        session: Optional[Session] = None,
        cancellation: Optional[CancellationToken] = None,
    ) -> ShardedExecutedQuery:
        """Plan once, fan out, merge — one sharded execution.

        Mid-query re-optimization is refused, not dropped: the fan-out
        has no one place to decide a plan switch for N shards yet, and a
        plain result must not pass for a watched one.
        """
        if item.reopt:
            raise EngineError(
                "mid-query re-optimization is not supported on a sharded "
                "deployment; send the request without 'reopt' or serve "
                "unsharded"
            )
        session = session if session is not None else self.session()
        self._begin_execution()
        try:
            plan = session.optimize(
                item.query, use_feedback=item.use_feedback, hint=item.hint
            )
            executed = self._fan_out(
                item.query, plan, item.requests, item.exec_mode, cancellation
            )
            if item.remember:
                self.harvest_observations(executed.observations)
            executed.trace = session.last_trace
            return executed
        finally:
            self._end_execution()

    def execute_plan(
        self,
        query: Query,
        plan: PlanNode,
        requests: Sequence[PageCountRequest] = (),
        exec_mode: str = DEFAULT_EXEC_MODE,
        session: Optional[Session] = None,
        cancellation: Optional[CancellationToken] = None,
    ) -> ShardedExecutedQuery:
        """Fan an already-optimized plan out and merge — the sharded
        form of :meth:`Engine.execute_plan`, under the same lifecycle
        accounting (shutdown drains it, post-shutdown calls raise).

        The §V-B harness hands explicit plans (P, then P') to whichever
        engine it was given; feedback is *not* harvested here.
        ``session`` is the base signature's: shard engines execute under
        sessions of their own, so a caller's session plays no part.
        """
        self._begin_execution()
        try:
            return self._fan_out(query, plan, requests, exec_mode, cancellation)
        finally:
            self._end_execution()

    def _fan_out(
        self,
        query: Query,
        plan: PlanNode,
        requests: Sequence[PageCountRequest],
        exec_mode: str,
        cancellation: Optional[CancellationToken],
    ) -> ShardedExecutedQuery:
        if not isinstance(plan, CountPlan):
            raise EngineError(
                "a sharded deployment merges scalar COUNT partials only; "
                f"plan root {plan.describe()} is not a CountPlan"
            )
        shard_runs = [
            engine.execute_plan(
                query,
                plan,
                requests=requests,
                exec_mode=exec_mode,
                cancellation=cancellation,
            )
            for engine in self.engines
        ]
        return ShardedExecutedQuery(
            query=query,
            plan=plan,
            result=merge_shard_runs(shard_runs),
            shard_results=shard_runs,
        )

    # ------------------------------------------------------------------
    def report(self) -> str:
        """The engine report under a line naming the shard shape."""
        return (
            f"shards: {self.num_shards} ({self.spec.strategy} partitioning)\n"
            + super().report()
        )
