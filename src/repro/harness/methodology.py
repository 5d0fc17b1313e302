"""The paper's evaluation methodology (§V-B), as a reusable harness.

For a query Q:

1. optimize with **accurate cardinalities injected** -> plan P
   (isolates page-count error from cardinality error);
2. run P unmonitored, cold cache -> time T;
3. run P with page-count monitors attached -> observations (and the
   monitoring overhead, Fig. 7: ``(T_monitored - T) / T``);
4. inject the observed distinct page counts, re-optimize -> plan P';
5. run P' unmonitored, cold cache -> time T';
6. report SpeedUp ``(T - T') / T``.

Because the clock is simulated and deterministic, identical plans imply
identical times, so step 5 reuses T when the plan did not change.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.catalog.catalog import Database
from repro.core.requests import (
    AccessPathRequest,
    IndexLeafRequest,
    JoinMethodRequest,
    PageCountObservation,
    PageCountRequest,
)
from repro.engine import Engine
from repro.exec.executor import DEFAULT_EXEC_MODE
from repro.lifecycle.plan import build_optimizer
from repro.optimizer.injection import InjectionSet
from repro.optimizer.optimizer import JoinQuery, Query, SingleTableQuery
from repro.optimizer.plans import PlanNode
from repro.sql.predicates import Conjunction
from repro.workloads.queries import GeneratedQuery


def default_requests(database: Database, query: Query) -> list[PageCountRequest]:
    """The page-count expressions relevant for costing Q's alternatives.

    Single-table queries: one request per predicate term whose column has
    a usable index (each would drive an Index Seek), plus the full
    conjunction when it has several such terms (Index Intersection /
    current-plan DPC).  Join queries: a join-method request per table that
    could serve as the INL inner (index or clustering on its join column),
    each followed by a leaf request per index on that column.
    """
    requests: list[PageCountRequest] = []
    if isinstance(query, SingleTableQuery):
        table = database.table(query.table)
        indexed_terms = [
            term
            for term in query.predicate.terms
            if table.indexes_on_column(term.column)
            or (
                table.clustered_index is not None
                and table.clustered_index.key_columns[0] == term.column
            )
        ]
        for term in indexed_terms:
            requests.append(
                AccessPathRequest(query.table, Conjunction((term,)))
            )
        if len(indexed_terms) >= 2:
            requests.append(
                AccessPathRequest(query.table, Conjunction(tuple(indexed_terms)))
            )
    elif isinstance(query, JoinQuery):
        for table_name in (
            query.join_predicate.left_table,
            query.join_predicate.right_table,
        ):
            table = database.table(table_name)
            column = query.join_predicate.column_for(table_name)
            indexes = table.indexes_on_column(column)
            has_access = bool(indexes) or (
                table.clustered_index is not None
                and table.clustered_index.key_columns[0] == column
            )
            if has_access:
                requests.append(JoinMethodRequest.for_query(query, table_name))
            requests.extend(
                IndexLeafRequest.for_query(query, table_name, index.name)
                for index in indexes
            )
    return requests


@dataclass
class EvaluationOutcome:
    """Everything §V-B reports about one query."""

    generated: GeneratedQuery
    original_plan: PlanNode
    improved_plan: PlanNode
    time_original_ms: float
    time_monitored_ms: float
    time_improved_ms: float
    observations: list[PageCountObservation] = field(default_factory=list)
    requests: list[PageCountRequest] = field(default_factory=list)

    @property
    def speedup(self) -> float:
        """``(T - T') / T`` — positive when feedback improved the plan."""
        if self.time_original_ms <= 0:
            return 0.0
        return (self.time_original_ms - self.time_improved_ms) / self.time_original_ms

    @property
    def overhead(self) -> float:
        """``(T_monitored - T) / T`` — the cost of monitoring (Fig. 7)."""
        if self.time_original_ms <= 0:
            return 0.0
        return (
            self.time_monitored_ms - self.time_original_ms
        ) / self.time_original_ms

    @property
    def plan_changed(self) -> bool:
        return self.original_plan.signature() != self.improved_plan.signature()

    def summary(self) -> str:
        arrow = "=>" if self.plan_changed else "=="
        return (
            f"{self.generated.label:<16} sel={self.generated.selectivity:6.3%} "
            f"{self.original_plan.access_method():<22} {arrow} "
            f"{self.improved_plan.access_method():<22} "
            f"T={self.time_original_ms:9.2f}ms T'={self.time_improved_ms:9.2f}ms "
            f"speedup={self.speedup:7.2%} overhead={self.overhead:6.2%}"
        )


def evaluate_query(
    engine: Engine,
    generated: GeneratedQuery,
    requests: Optional[Sequence[PageCountRequest]] = None,
    base_injections: Optional[InjectionSet] = None,
    exec_mode: str = DEFAULT_EXEC_MODE,
) -> EvaluationOutcome:
    """Run the full §V-B methodology for one generated query.

    ``engine`` is the deployment under evaluation: every execution goes
    through its :meth:`~repro.engine.Engine.execute_plan` (cold,
    monitored per the engine's own ``monitor_config``), so a serial
    :class:`~repro.engine.Engine` and a
    :class:`~repro.shard.coordinator.ShardCoordinator` walk the same six
    steps — on the coordinator T / T_monitored / T' are fan-out makespans
    and step 4 absorbs the shard-merged observations; planning happens
    once, against the engine's (global) catalog, either way.

    ``exec_mode`` selects the execution drive for all three runs; the
    simulated times and observations are identical either way (see
    :mod:`repro.harness.equivalence`), batch mode just gets there with
    far less interpreter work per row.
    """
    database = engine.database
    injections = generated.injections(base_injections)
    query = generated.query
    request_list = (
        list(requests)
        if requests is not None
        else default_requests(database, query)
    )

    # 1. Plan P under accurate cardinalities.
    original_plan = build_optimizer(database, injections=injections).optimize(query)

    # 2. T: plan P, no monitoring.
    time_original = engine.execute_plan(
        query, original_plan, exec_mode=exec_mode
    ).elapsed_ms

    # 3. Monitored run of P.
    monitored = engine.execute_plan(
        query, original_plan, requests=request_list, exec_mode=exec_mode
    )
    observations = list(monitored.observations)

    # 4. Re-optimize with the feedback injected.
    corrected = injections.copy()
    corrected.absorb_observations(observations)
    improved_plan = build_optimizer(database, injections=corrected).optimize(query)

    # 5./6. T' (identical plan -> identical deterministic time).
    if improved_plan.signature() == original_plan.signature():
        time_improved = time_original
    else:
        time_improved = engine.execute_plan(
            query, improved_plan, exec_mode=exec_mode
        ).elapsed_ms

    return EvaluationOutcome(
        generated=generated,
        original_plan=original_plan,
        improved_plan=improved_plan,
        time_original_ms=time_original,
        time_monitored_ms=monitored.elapsed_ms,
        time_improved_ms=time_improved,
        observations=observations,
        requests=request_list,
    )


def evaluate_workload(
    engine: Engine,
    workload: Sequence[GeneratedQuery],
    base_injections: Optional[InjectionSet] = None,
    exec_mode: str = DEFAULT_EXEC_MODE,
) -> list[EvaluationOutcome]:
    """Evaluate every query in a workload (Figs. 6-8, 11)."""
    return [
        evaluate_query(
            engine,
            generated,
            base_injections=base_injections,
            exec_mode=exec_mode,
        )
        for generated in workload
    ]
