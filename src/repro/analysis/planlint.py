"""Tier 1 — static linter over physical plan trees.

Runs between ``Optimizer.optimize()`` and :mod:`repro.core.planner`: every
plan the optimizer hands to the execution layer is checked against the
structural and estimate invariants the rest of the system silently assumes
(§III–V of the paper).  The rules:

========  =====================================================================
``P001``  structural integrity: children present, intersection has ≥ 2 legs,
          no node aliasing (a subtree reachable twice would double-charge
          monitors and the simulated clock)
``P002``  name resolution: tables, indexes, predicate/residual/join columns
          all resolve against the catalog; seek terms target the index's
          leading column
``P003``  seek-range sanity: lower bound ≤ upper bound; degenerate
          (empty) ranges flagged
``P004``  estimate sanity: ``estimated_rows`` / ``estimated_cost_ms`` /
          ``estimated_dpc`` / ``estimated_leaf_pages`` finite and
          non-negative
``P005``  DPC consistency: estimated DPC ≤ the table's page count (a
          *distinct* page count can never exceed it, §II-A), and injection
          provenance: when the :class:`~repro.optimizer.injection.InjectionSet`
          carries a feedback value for a fetch expression the plan must
          record ``dpc_source="injected"`` — and must not claim it without
          one; an INL join's ``estimated_leaf_pages`` ≤ its index's leaf
          page count, with ``leaf_source`` held to the same provenance
``P006``  shape-key hygiene: ``signature()`` is stable across calls and no
          estimate or provenance annotation leaks into ``shape_key()`` —
          the harness detects plan changes by comparing signatures, so a
          leak would make every re-estimate look like a plan flip
========  =====================================================================

Findings surface through :mod:`repro.analysis.findings`;
:class:`repro.session.Session` runs this linter on every optimized plan and
records the findings in ``Session.lint_findings``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from repro.analysis.findings import Finding, Severity
from repro.catalog.catalog import Database
from repro.common.errors import AnalysisError, CatalogError, ExpressionError
from repro.optimizer.injection import InjectionSet
from repro.optimizer.plans import (
    ClusteredRangeScanPlan,
    CoveringScanPlan,
    HashJoinPlan,
    IndexIntersectionPlan,
    IndexSeekPlan,
    InListSeekPlan,
    INLJoinPlan,
    MergeJoinPlan,
    PlanNode,
    SeqScanPlan,
)
from repro.sql.predicates import Conjunction

#: Rule id -> one-line description (the CLI and docs render this catalog).
PLAN_RULES: dict[str, str] = {
    "P001": "plan tree is structurally sound (children present, no aliasing)",
    "P002": "tables, indexes and predicate columns resolve against the catalog",
    "P003": "seek lower bound <= upper bound",
    "P004": "estimated rows/cost/DPC are finite and non-negative",
    "P005": "estimated DPC <= table (leaf) page count; injection provenance consistent",
    "P006": "signature() stable; no estimate leakage into shape_key()",
}

#: Valid ``dpc_source`` provenance tags (see PageCountEstimator).
_DPC_SOURCES = frozenset({"model", "injected"})

_RELATIVE_TOLERANCE = 1e-9


@dataclass
class _Context:
    database: Database
    injections: Optional[InjectionSet]
    findings: list[Finding]

    def report(
        self,
        rule: str,
        location: str,
        message: str,
        hint: str = "",
        severity: Severity = Severity.ERROR,
    ) -> None:
        self.findings.append(
            Finding(
                rule=rule,
                severity=severity,
                message=message,
                location=location,
                hint=hint,
            )
        )

    def table(self, name: str):
        """The catalog table, or None (P002 reports the miss)."""
        try:
            return self.database.table(name)
        except CatalogError:
            return None


# ----------------------------------------------------------------------
# P001 — structural integrity
# ----------------------------------------------------------------------
def _check_structure(ctx: _Context, nodes: list[tuple[str, PlanNode]]) -> None:
    seen_ids: set[int] = set()
    for path, node in nodes:
        if id(node) in seen_ids:
            ctx.report(
                "P001",
                path,
                "plan node is reachable through more than one parent",
                hint="plans must be trees; copy the shared subtree",
            )
        seen_ids.add(id(node))
        for index, child in enumerate(node.children()):
            if child is None:
                ctx.report(
                    "P001",
                    path,
                    f"child #{index} of {type(node).__name__} is None",
                )
        if isinstance(node, IndexIntersectionPlan) and len(node.legs) < 2:
            ctx.report(
                "P001",
                path,
                f"IndexIntersection has {len(node.legs)} leg(s); needs >= 2",
                hint="a one-leg intersection is an IndexSeekPlan",
            )


# ----------------------------------------------------------------------
# P002 — name resolution
# ----------------------------------------------------------------------
def _check_columns(
    ctx: _Context, path: str, table, expression: Conjunction, what: str
) -> None:
    for column in expression.columns():
        if not table.schema.has_column(column):
            ctx.report(
                "P002",
                path,
                f"{what} references unknown column "
                f"{table.name}.{column}",
            )


def _resolve_index(ctx: _Context, path: str, table, index_name: str):
    try:
        return table.index(index_name)
    except CatalogError:
        ctx.report(
            "P002",
            path,
            f"table {table.name} has no index {index_name!r}",
        )
        return None


def _check_seek_leg(
    ctx: _Context, path: str, table, index_name: str, seek_column: str
) -> None:
    index = _resolve_index(ctx, path, table, index_name)
    if index is not None and index.definition.leading_column != seek_column:
        ctx.report(
            "P002",
            path,
            f"seek term targets column {seek_column!r} but index "
            f"{index_name} leads on {index.definition.leading_column!r}",
        )


def _check_join_columns(ctx: _Context, path: str, node, tables: list[str]) -> None:
    for table_name in tables:
        try:
            column = node.join_predicate.column_for(table_name)
        except ExpressionError:
            ctx.report(
                "P002",
                path,
                f"table {table_name!r} does not participate in join "
                f"predicate {node.join_predicate.key()}",
            )
            continue
        table = ctx.table(table_name)
        if table is None:
            ctx.report("P002", path, f"unknown table {table_name!r}")
        elif not table.schema.has_column(column):
            ctx.report(
                "P002",
                path,
                f"join column {table_name}.{column} does not exist",
            )


def _check_resolution(ctx: _Context, nodes: list[tuple[str, PlanNode]]) -> None:
    for path, node in nodes:
        if isinstance(
            node,
            (
                SeqScanPlan,
                ClusteredRangeScanPlan,
                IndexSeekPlan,
                InListSeekPlan,
                IndexIntersectionPlan,
                CoveringScanPlan,
            ),
        ):
            table = ctx.table(node.table)
            if table is None:
                ctx.report("P002", path, f"unknown table {node.table!r}")
                continue
            if isinstance(node, SeqScanPlan):
                _check_columns(ctx, path, table, node.predicate, "scan predicate")
            elif isinstance(node, ClusteredRangeScanPlan):
                _check_columns(
                    ctx, path, table, Conjunction((node.range_term,)), "range term"
                )
                _check_columns(ctx, path, table, node.residual, "residual predicate")
            elif isinstance(node, IndexSeekPlan):
                _check_seek_leg(ctx, path, table, node.index_name, node.seek_term.column)
                _check_columns(ctx, path, table, node.residual, "residual predicate")
            elif isinstance(node, InListSeekPlan):
                _check_seek_leg(ctx, path, table, node.index_name, node.in_term.column)
                _check_columns(ctx, path, table, node.residual, "residual predicate")
            elif isinstance(node, IndexIntersectionPlan):
                for leg in node.legs:
                    _check_seek_leg(
                        ctx, path, table, leg.index_name, leg.seek_term.column
                    )
                _check_columns(ctx, path, table, node.residual, "residual predicate")
            elif isinstance(node, CoveringScanPlan):
                index = _resolve_index(ctx, path, table, node.index_name)
                if index is not None:
                    carried = set(index.definition.carried_columns())
                    outside = [
                        c for c in node.predicate.columns() if c not in carried
                    ]
                    if outside:
                        ctx.report(
                            "P002",
                            path,
                            f"covering index {node.index_name} does not carry "
                            f"columns {outside}",
                        )
        elif isinstance(node, INLJoinPlan):
            _check_join_columns(ctx, path, node, [node.outer_table, node.inner_table])
            inner = ctx.table(node.inner_table)
            if inner is not None:
                _check_columns(
                    ctx, path, inner, node.inner_residual, "inner residual"
                )
                if node.inner_index_name is not None:
                    try:
                        join_column = node.join_predicate.column_for(node.inner_table)
                    except ExpressionError:
                        join_column = None
                    if join_column is not None:
                        _check_seek_leg(
                            ctx, path, inner, node.inner_index_name, join_column
                        )
        elif isinstance(node, HashJoinPlan):
            _check_join_columns(ctx, path, node, [node.build_table, node.probe_table])
        elif isinstance(node, MergeJoinPlan):
            _check_join_columns(ctx, path, node, [node.outer_table, node.inner_table])


# ----------------------------------------------------------------------
# P003 — seek-range sanity
# ----------------------------------------------------------------------
def _check_bounds(
    ctx: _Context,
    path: str,
    low,
    high,
    low_inclusive: bool,
    high_inclusive: bool,
    label: str,
) -> None:
    if low is None or high is None:
        return
    try:
        inverted = low > high
    except TypeError:
        ctx.report(
            "P003",
            path,
            f"{label}: bounds {low!r} and {high!r} are not comparable",
        )
        return
    if inverted:
        ctx.report(
            "P003",
            path,
            f"{label}: lower bound {low!r} > upper bound {high!r}",
            hint="the seek would return no rows; bounds are likely swapped",
        )
    elif low == high and not (low_inclusive and high_inclusive):
        ctx.report(
            "P003",
            path,
            f"{label}: point range on {low!r} excludes its own endpoint",
            severity=Severity.WARNING,
        )


def _check_seek_ranges(ctx: _Context, nodes: list[tuple[str, PlanNode]]) -> None:
    for path, node in nodes:
        if isinstance(node, (IndexSeekPlan, ClusteredRangeScanPlan)):
            _check_bounds(
                ctx,
                path,
                node.low,
                node.high,
                node.low_inclusive,
                node.high_inclusive,
                "seek range",
            )
        elif isinstance(node, IndexIntersectionPlan):
            for position, leg in enumerate(node.legs):
                _check_bounds(
                    ctx,
                    path,
                    leg.low,
                    leg.high,
                    leg.low_inclusive,
                    leg.high_inclusive,
                    f"intersection leg #{position} ({leg.index_name})",
                )


# ----------------------------------------------------------------------
# P004 — estimate sanity
# ----------------------------------------------------------------------
def _check_estimates(ctx: _Context, nodes: list[tuple[str, PlanNode]]) -> None:
    for path, node in nodes:
        values = [
            ("estimated_rows", node.estimated_rows),
            ("estimated_cost_ms", node.estimated_cost_ms),
        ]
        for name in ("estimated_dpc", "estimated_leaf_pages"):
            if hasattr(node, name):
                values.append((name, getattr(node, name)))
        for name, value in values:
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                ctx.report(
                    "P004", path, f"{name} is not a finite number: {value!r}"
                )
            elif value < 0:
                ctx.report("P004", path, f"{name} is negative: {value!r}")


# ----------------------------------------------------------------------
# P005 — DPC consistency and injection provenance
# ----------------------------------------------------------------------
def _fetch_expression(node: PlanNode) -> Optional[Conjunction]:
    """The expression a fetch node's DPC was estimated for, if any."""
    if isinstance(node, IndexSeekPlan):
        return Conjunction((node.seek_term,))
    if isinstance(node, InListSeekPlan):
        return Conjunction((node.in_term,))
    if isinstance(node, IndexIntersectionPlan):
        return Conjunction(tuple(leg.seek_term for leg in node.legs))
    return None


def _check_dpc(ctx: _Context, nodes: list[tuple[str, PlanNode]]) -> None:
    for path, node in nodes:
        if not hasattr(node, "estimated_dpc"):
            continue
        source = node.dpc_source
        if source not in _DPC_SOURCES:
            ctx.report(
                "P005",
                path,
                f"unknown dpc_source {source!r}; expected one of "
                f"{sorted(_DPC_SOURCES)}",
            )
        table_name = (
            node.inner_table if isinstance(node, INLJoinPlan) else node.table
        )
        table = ctx.table(table_name)
        if table is not None and not isinstance(node.estimated_dpc, bool):
            pages = table.num_pages
            limit = pages * (1.0 + _RELATIVE_TOLERANCE)
            if (
                isinstance(node.estimated_dpc, (int, float))
                and math.isfinite(node.estimated_dpc)
                and node.estimated_dpc > limit
            ):
                ctx.report(
                    "P005",
                    path,
                    f"estimated_dpc {node.estimated_dpc:.1f} exceeds "
                    f"{table_name}'s page count {pages}",
                    hint="a distinct page count is bounded by the table size "
                    "(UB = min(n, P), §II-A)",
                )
        if ctx.injections is None:
            continue
        if isinstance(node, INLJoinPlan):
            injected = ctx.injections.join_page_count(
                node.inner_table, node.join_predicate, node.outer_filter
            )
        else:
            expression = _fetch_expression(node)
            injected = (
                ctx.injections.access_page_count(node.table, expression)
                if expression is not None
                else None
            )
        _check_provenance(ctx, path, "dpc_source", source, injected)


def _check_provenance(
    ctx: _Context, path: str, field_name: str, source: str, injected: Optional[float]
) -> None:
    """``source`` must say ``"injected"`` exactly when feedback exists."""
    if injected is not None and source == "model":
        ctx.report(
            "P005",
            path,
            "an injected feedback count exists for this expression but the "
            "plan was costed with the analytical model",
            hint=f"{field_name} must record 'injected' when feedback "
            "overrode the model's estimate",
        )
    elif injected is None and source == "injected":
        ctx.report(
            "P005",
            path,
            f"{field_name} claims an injected value but the injection set "
            "has no entry for this expression",
            hint="injection provenance must be traceable",
        )


def _check_leaves(ctx: _Context, nodes: list[tuple[str, PlanNode]]) -> None:
    """P005 for an INL join's index side: the leaf estimate is bounded by
    the index's leaf pages and its provenance matches the injections."""
    for path, node in nodes:
        if not isinstance(node, INLJoinPlan) or node.inner_index_name is None:
            continue
        if node.leaf_source not in ("model", "injected"):
            ctx.report(
                "P005", path, f"unknown leaf_source {node.leaf_source!r}"
            )
        table = ctx.table(node.inner_table)
        if table is None or node.inner_index_name not in table.indexes:
            continue  # P002 reports the miss
        leaves = table.index(node.inner_index_name).num_leaf_pages
        estimate = node.estimated_leaf_pages
        if (
            isinstance(estimate, (int, float))
            and estimate > leaves * (1.0 + _RELATIVE_TOLERANCE)
        ):
            ctx.report(
                "P005",
                path,
                f"estimated_leaf_pages {estimate:.1f} exceeds "
                f"{node.inner_index_name}'s {leaves} leaf pages",
                hint="a distinct leaf count is bounded by the index's leaves",
            )
        if ctx.injections is not None:
            injected = ctx.injections.leaf_page_count(
                node.inner_table,
                node.inner_index_name,
                node.join_predicate,
                node.outer_filter,
            )
            _check_provenance(ctx, path, "leaf_source", node.leaf_source, injected)


def _check_counts(ctx: _Context, nodes: list[tuple[str, PlanNode]]) -> None:
    _check_dpc(ctx, nodes)
    _check_leaves(ctx, nodes)


# ----------------------------------------------------------------------
# P006 — shape-key hygiene
# ----------------------------------------------------------------------
_PERTURBABLE = (
    "estimated_rows",
    "estimated_cost_ms",
    "estimated_dpc",
    "dpc_source",
    "estimated_leaf_pages",
    "leaf_source",
)


def _check_shape(ctx: _Context, nodes: list[tuple[str, PlanNode]]) -> None:
    for path, node in nodes:
        first = node.signature()
        if node.signature() != first:
            ctx.report(
                "P006",
                path,
                "signature() is unstable: two consecutive calls disagree",
                hint="signatures must be pure functions of plan shape",
            )
            continue
        before = node.shape_key()
        saved = {
            name: getattr(node, name)
            for name in _PERTURBABLE
            if hasattr(node, name)
        }
        try:
            for name, value in saved.items():
                if isinstance(value, str):
                    setattr(node, name, "injected" if value != "injected" else "model")
                else:
                    setattr(node, name, float(value) + 1.0 if isinstance(value, (int, float)) else 1.0)
            if node.shape_key() != before:
                ctx.report(
                    "P006",
                    path,
                    "shape_key() depends on estimates or DPC provenance",
                    hint="shape_key() must exclude estimated rows/cost/dpc/"
                    "leaves and their sources, or plan-change detection "
                    "misfires on every re-estimate",
                )
        finally:
            for name, value in saved.items():
                setattr(node, name, value)


_CHECKS: dict[str, Callable[[_Context, list[tuple[str, PlanNode]]], None]] = {
    "P001": _check_structure,
    "P002": _check_resolution,
    "P003": _check_seek_ranges,
    "P004": _check_estimates,
    "P005": _check_counts,
    "P006": _check_shape,
}


def lint_plan(
    plan: PlanNode,
    database: Database,
    injections: Optional[InjectionSet] = None,
    rules: Optional[Iterable[str]] = None,
) -> list[Finding]:
    """Lint one plan tree; returns the (possibly empty) finding list.

    ``injections`` should be the set the producing optimizer ran with —
    it is what the P005 provenance check validates ``dpc_source`` against;
    pass ``None`` to skip provenance checking.  ``rules`` restricts the
    run to a subset of :data:`PLAN_RULES`.
    """
    selected = list(PLAN_RULES) if rules is None else list(rules)
    unknown = [r for r in selected if r not in PLAN_RULES]
    if unknown:
        raise AnalysisError(
            f"unknown plan-lint rule(s) {unknown}; known: {sorted(PLAN_RULES)}"
        )
    ctx = _Context(database=database, injections=injections, findings=[])
    nodes = list(plan.walk())
    for rule in selected:
        _CHECKS[rule](ctx, nodes)
    return ctx.findings
