"""Two-table join enumeration and costing.

Enumerates, for ``σ(L) ⋈ σ(R)`` on an equality predicate:

* **Hash Join** in both build/probe orders, each side using its best
  single-table access path;
* **INL Join** in both directions, when the inner table has a
  non-clustered index on the join column or is clustered on it — the
  method whose costing needs ``DPC(inner, join-pred)`` (§IV), and the
  leaf pages of the inner index its probes read
  (``LEAVES(inner, index, join-pred)``);
* **Merge Join**, adding Sort operators on sides that do not already
  produce join-column order (a side is pre-sorted when its table is
  clustered on the join column and the chosen access path preserves that
  order).
"""

from __future__ import annotations

from typing import Optional

from repro.catalog.catalog import Database
from repro.optimizer.access_paths import AccessPathEnumerator
from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.cost import CostModel
from repro.optimizer.estimators import PageCountEstimator
from repro.optimizer.plans import (
    ClusteredRangeScanPlan,
    HashJoinPlan,
    INLJoinPlan,
    MergeJoinPlan,
    PlanNode,
    SeqScanPlan,
)
from repro.sql.predicates import Conjunction, JoinEquality


class JoinEnumerator:
    """Enumerates and costs join plans for a two-table equality join."""

    def __init__(
        self,
        database: Database,
        cardinality: CardinalityEstimator,
        page_counts: PageCountEstimator,
        access_paths: AccessPathEnumerator,
        cost_model: Optional[CostModel] = None,
    ) -> None:
        self.database = database
        self.cardinality = cardinality
        self.page_counts = page_counts
        self.access_paths = access_paths
        self.cost_model = (
            cost_model
            if cost_model is not None
            else CostModel(database.disk_params)
        )

    # ------------------------------------------------------------------
    def _best_access_path(
        self, table: str, predicate: Conjunction, required_columns: list[str]
    ) -> PlanNode:
        plans = self.access_paths.enumerate(table, predicate, required_columns)
        return min(plans, key=lambda p: p.estimated_cost_ms)

    def _preserves_clustering_order(self, plan: PlanNode, column: str) -> bool:
        table_name = getattr(plan, "table", None)
        if table_name is None:
            return False
        table = self.database.table(table_name)
        if table.clustered_index is None:
            return False
        if table.clustered_index.key_columns[0] != column:
            return False
        return isinstance(plan, (SeqScanPlan, ClusteredRangeScanPlan))

    def enumerate(
        self,
        join_predicate: JoinEquality,
        predicates: dict[str, Conjunction],
        required_columns: dict[str, list[str]],
    ) -> list[PlanNode]:
        """All join plans for the two tables of ``join_predicate``."""
        left = join_predicate.left_table
        right = join_predicate.right_table
        left_pred = predicates.get(left, Conjunction())
        right_pred = predicates.get(right, Conjunction())
        left_needed = list(required_columns.get(left, [])) + [
            join_predicate.left_column
        ]
        right_needed = list(required_columns.get(right, [])) + [
            join_predicate.right_column
        ]

        left_best = self._best_access_path(left, left_pred, left_needed)
        right_best = self._best_access_path(right, right_pred, right_needed)
        left_rows = self.cardinality.estimate_selection(left, left_pred)
        right_rows = self.cardinality.estimate_selection(right, right_pred)
        join_rows = self.cardinality.estimate_join(
            join_predicate, left_pred, right_pred
        )

        plans: list[PlanNode] = []
        plans.extend(
            self._hash_plans(
                join_predicate,
                predicates,
                (left, left_best, left_rows),
                (right, right_best, right_rows),
                join_rows,
            )
        )
        plans.extend(
            self._inl_plans(
                join_predicate, predicates, required_columns, join_rows
            )
        )
        plans.append(
            self._merge_plan(
                join_predicate,
                predicates,
                (left, left_best, left_rows),
                (right, right_best, right_rows),
                join_rows,
            )
        )
        return plans

    # ------------------------------------------------------------------
    def _hash_plans(
        self,
        join_predicate: JoinEquality,
        predicates: dict[str, Conjunction],
        left_side: tuple[str, PlanNode, float],
        right_side: tuple[str, PlanNode, float],
        join_rows: float,
    ) -> list[PlanNode]:
        plans = []
        for build_side, probe_side in (
            (left_side, right_side),
            (right_side, left_side),
        ):
            build_table, build_plan, build_rows = build_side
            probe_table, probe_plan, probe_rows = probe_side
            plan = HashJoinPlan(
                build=build_plan,
                probe=probe_plan,
                build_table=build_table,
                probe_table=probe_table,
                join_predicate=join_predicate,
                build_filter=predicates.get(build_table, Conjunction()),
            )
            plan.estimated_rows = join_rows
            plan.estimated_cost_ms = self.cost_model.hash_join_cost(
                build_plan.estimated_cost_ms,
                probe_plan.estimated_cost_ms,
                build_rows,
                probe_rows,
            )
            plans.append(plan)
        return plans

    def _inl_plans(
        self,
        join_predicate: JoinEquality,
        predicates: dict[str, Conjunction],
        required_columns: dict[str, list[str]],
        join_rows: float,
    ) -> list[PlanNode]:
        plans: list[PlanNode] = []
        tables = (join_predicate.left_table, join_predicate.right_table)
        for outer_table, inner_table in (tables, tuple(reversed(tables))):
            inner_column = join_predicate.column_for(inner_table)
            outer_column = join_predicate.column_for(outer_table)
            inner = self.database.table(inner_table)

            inner_accesses: list[Optional[str]] = [
                idx.name for idx in inner.indexes_on_column(inner_column)
            ]
            if (
                inner.clustered_index is not None
                and inner.clustered_index.key_columns[0] == inner_column
            ):
                inner_accesses.append(None)  # clustered-key access
            if not inner_accesses:
                continue

            outer_pred = predicates.get(outer_table, Conjunction())
            inner_pred = predicates.get(inner_table, Conjunction())
            outer_needed = list(required_columns.get(outer_table, [])) + [
                outer_column
            ]
            outer_best = self._best_access_path(
                outer_table, outer_pred, outer_needed
            )
            outer_rows = self.cardinality.estimate_selection(
                outer_table, outer_pred
            )
            # Entries matched in the inner index across the whole outer
            # stream: the join result *before* the inner residual.
            matched_entries = self.cardinality.estimate_join(
                join_predicate, outer_pred, Conjunction()
            )
            dpc, source = self.page_counts.join_dpc(
                inner_table, join_predicate, outer_pred, matched_entries
            )
            inner_stats = inner.require_statistics()
            residual_selectivities = [
                inner_stats.estimate_term_selectivity(t)
                for t in inner_pred.terms
            ]
            for access in inner_accesses:
                leaves, leaf_source = self.page_counts.leaf_dpc(
                    inner_table, access, join_predicate, outer_pred, matched_entries
                )
                plan = INLJoinPlan(
                    outer=outer_best,
                    outer_table=outer_table,
                    inner_table=inner_table,
                    join_predicate=join_predicate,
                    inner_residual=inner_pred,
                    inner_index_name=access,
                    outer_filter=outer_pred,
                    estimated_dpc=dpc,
                    dpc_source=source,
                    estimated_leaf_pages=leaves,
                    leaf_source=leaf_source,
                )
                plan.estimated_rows = join_rows
                plan.estimated_cost_ms = self.cost_model.inl_join_cost(
                    outer_best.estimated_cost_ms,
                    outer_rows,
                    matched_entries,
                    leaves,
                    dpc,
                    residual_selectivities,
                )
                plans.append(plan)
        return plans

    def _merge_plan(
        self,
        join_predicate: JoinEquality,
        predicates: dict[str, Conjunction],
        left_side: tuple[str, PlanNode, float],
        right_side: tuple[str, PlanNode, float],
        join_rows: float,
    ) -> MergeJoinPlan:
        left_table, left_plan, left_rows = left_side
        right_table, right_plan, right_rows = right_side
        sort_left = not self._preserves_clustering_order(
            left_plan, join_predicate.column_for(left_table)
        )
        sort_right = not self._preserves_clustering_order(
            right_plan, join_predicate.column_for(right_table)
        )
        plan = MergeJoinPlan(
            outer=left_plan,
            inner=right_plan,
            outer_table=left_table,
            inner_table=right_table,
            join_predicate=join_predicate,
            sort_outer=sort_left,
            sort_inner=sort_right,
            outer_filter=predicates.get(left_table, Conjunction()),
        )
        plan.estimated_rows = join_rows
        plan.estimated_cost_ms = self.cost_model.merge_join_cost(
            left_plan.estimated_cost_ms,
            right_plan.estimated_cost_ms,
            left_rows,
            right_rows,
            sort_left,
            sort_right,
        )
        return plan
