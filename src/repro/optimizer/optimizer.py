"""The query optimizer: queries in, costed physical plans out.

Supports the two query shapes of the paper's evaluation:

* :class:`SingleTableQuery` — ``SELECT count(col) FROM T WHERE <conj>``
  (Figs. 6, 7, 9, 11), optimized by access-path enumeration;
* :class:`JoinQuery` — ``SELECT count(col) FROM A, B WHERE <sel(A)> AND
  <sel(B)> AND A.x = B.y`` (Fig. 8), optimized by join enumeration.

Injections (accurate cardinalities, feedback page counts) and plan hints
plug in through the constructor; ``explain=True`` callers can inspect all
candidates, which the diagnostics tool uses to rank alternatives under
corrected page counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.catalog.catalog import Database
from repro.common.errors import OptimizerError
from repro.optimizer.access_paths import AccessPathEnumerator
from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.cost import CostModel
from repro.optimizer.estimators import PageCountEstimator
from repro.optimizer.hints import PlanHint
from repro.optimizer.injection import InjectionSet
from repro.optimizer.join_enum import JoinEnumerator
from repro.optimizer.plans import CountPlan, PlanNode
from repro.sql.predicates import Conjunction, JoinEquality


def _memoized_key(query: object, render: Callable[[], str]) -> str:
    """A frozen query's canonical key, rendered on the first ask only (a
    replayed workload asks once per run; the instance dict takes the memo
    without touching the frozen fields)."""
    key = query.__dict__.get("_canonical_key")
    if key is None:
        key = query.__dict__["_canonical_key"] = render()
    return key


@dataclass(frozen=True)
class SingleTableQuery:
    """``SELECT count(count_column) FROM table WHERE predicate``."""

    table: str
    predicate: Conjunction
    count_column: Optional[str] = None

    def describe(self) -> str:
        return (
            f"SELECT count({self.count_column or '*'}) FROM {self.table} "
            f"WHERE {self.predicate.key()}"
        )

    def tables(self) -> tuple[str, ...]:
        """Tables this query reads (plan-cache freshness tracking)."""
        return (self.table,)

    def canonical_key(self) -> str:
        """Stable identity for plan caching.

        The predicate's *ordered* key is deliberately kept: conjunct
        order flows into residual-predicate order in the chosen plan, so
        two spellings of the same conjunction must not share a cache
        entry (a hit must be bit-identical to a fresh optimization).
        """
        return _memoized_key(self, self.describe)


@dataclass(frozen=True)
class JoinQuery:
    """Two-table equality join with per-table selections and a COUNT.

    ``count_column`` is qualified (``table.column``).  ``predicates`` maps
    table name to its selection conjunction; missing tables mean TRUE.
    """

    join_predicate: JoinEquality
    predicates: dict[str, Conjunction] = field(default_factory=dict)
    count_column: Optional[str] = None

    def describe(self) -> str:
        clauses = [
            conj.key() for conj in self.predicates.values() if len(conj)
        ]
        clauses.append(self.join_predicate.key())
        return (
            f"SELECT count({self.count_column or '*'}) FROM "
            f"{self.join_predicate.left_table}, {self.join_predicate.right_table} "
            f"WHERE {' AND '.join(clauses)}"
        )

    def __post_init__(self) -> None:
        participants = {
            self.join_predicate.left_table,
            self.join_predicate.right_table,
        }
        unknown = set(self.predicates) - participants
        if unknown:
            raise OptimizerError(
                f"selection predicates on non-participant tables: {sorted(unknown)}"
            )

    def tables(self) -> tuple[str, ...]:
        """Tables this query reads (plan-cache freshness tracking)."""
        return (
            self.join_predicate.left_table,
            self.join_predicate.right_table,
        )

    def canonical_key(self) -> str:
        """Stable identity for plan caching.

        Selection clauses are keyed *per table* and emitted in sorted
        table order, so the insertion order of the ``predicates`` dict —
        which the join enumerator never sees — cannot split one logical
        query across cache entries.
        """
        return _memoized_key(self, self._render_canonical_key)

    def _render_canonical_key(self) -> str:
        clauses = [
            f"{table}: {conj.key()}"
            for table, conj in sorted(self.predicates.items())
            if len(conj)
        ]
        return (
            f"SELECT count({self.count_column or '*'}) FROM "
            f"{self.join_predicate.left_table} JOIN "
            f"{self.join_predicate.right_table} "
            f"ON {self.join_predicate.key()} WHERE [{'; '.join(clauses)}]"
        )


Query = SingleTableQuery | JoinQuery


class Optimizer:
    """Cost-based optimizer over the simulated engine."""

    def __init__(
        self,
        database: Database,
        injections: Optional[InjectionSet] = None,
        hint: Optional[PlanHint] = None,
    ) -> None:
        self.database = database
        self.injections = injections if injections is not None else InjectionSet()
        self.cost_model = CostModel(database.disk_params)
        self.cardinality = CardinalityEstimator(database, self.injections)
        self.page_counts = PageCountEstimator(database, self.injections)
        self.access_paths = AccessPathEnumerator(
            database, self.cardinality, self.page_counts, self.cost_model
        )
        self.joins = JoinEnumerator(
            database,
            self.cardinality,
            self.page_counts,
            self.access_paths,
            self.cost_model,
        )
        self.hint = hint

    # ------------------------------------------------------------------
    def candidates(self, query: Query) -> list[PlanNode]:
        """All candidate plans (pre-hint), each topped with the COUNT."""
        if isinstance(query, SingleTableQuery):
            required = [query.count_column] if query.count_column else []
            bases = self.access_paths.enumerate(
                query.table, query.predicate, required
            )
        elif isinstance(query, JoinQuery):
            required: dict[str, list[str]] = {}
            if query.count_column is not None:
                table, _, column = query.count_column.partition(".")
                if not column:
                    raise OptimizerError(
                        "JoinQuery.count_column must be qualified as table.column, "
                        f"got {query.count_column!r}"
                    )
                required[table] = [column]
            bases = self.joins.enumerate(
                query.join_predicate, query.predicates, required
            )
        else:
            raise OptimizerError(f"unsupported query type {type(query).__name__}")

        plans = []
        for base in bases:
            count = CountPlan(child=base, column=query.count_column)
            count.estimated_rows = 1.0
            count.estimated_cost_ms = (
                base.estimated_cost_ms
                + self.cost_model.aggregate_cost(base.estimated_rows)
            )
            plans.append(count)
        return plans

    def optimize(self, query: Query) -> PlanNode:
        """The cheapest plan satisfying the hint (if any)."""
        plans = self.candidates(query)
        if self.hint is not None:
            plans = self.hint.filter(plans)
        if not plans:
            raise OptimizerError(f"no plan found for {query.describe()}")
        return min(plans, key=lambda p: p.estimated_cost_ms)

    def explain(self, query: Query) -> str:
        """All candidate plans, cheapest first, rendered for humans."""
        plans = sorted(self.candidates(query), key=lambda p: p.estimated_cost_ms)
        chunks = [query.describe(), ""]
        for rank, plan in enumerate(plans, start=1):
            marker = "-> " if rank == 1 else "   "
            chunks.append(f"{marker}#{rank}")
            chunks.append(plan.render(indent=1))
        return "\n".join(chunks)
