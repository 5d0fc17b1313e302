"""DBA diagnostics: estimate-vs-actual page counts and hint suggestions.

The paper's primary exploitation path (§II-C): surface, per monitored
expression, the optimizer's estimated DPC next to the actual DPC from
execution feedback, flag large discrepancies, and let the DBA (or a tuning
tool) re-cost alternatives with the corrected values and recommend a plan
hint.  :func:`diagnose` produces that report; :func:`recommend_hint`
re-optimizes with the feedback injected and, when the plan shape changes,
returns the :class:`~repro.optimizer.hints.PlanHint` that forces the
better plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.analysis.findings import Finding, render_findings
from repro.catalog.catalog import Database
from repro.core.dpc import guarded_ratio
from repro.core.requests import PageCountObservation
from repro.optimizer.hints import PlanHint
from repro.optimizer.injection import InjectionSet
from repro.optimizer.optimizer import Optimizer, Query
from repro.optimizer.plans import (
    ClusteredRangeScanPlan,
    InListSeekPlan,
    CountPlan,
    CoveringScanPlan,
    HashJoinPlan,
    IndexIntersectionPlan,
    IndexSeekPlan,
    INLJoinPlan,
    MergeJoinPlan,
    PlanNode,
    SeqScanPlan,
)


@dataclass(frozen=True)
class DiagnosticLine:
    """One expression's estimate-vs-actual comparison."""

    expression: str
    estimated_pages: Optional[float]
    actual_pages: Optional[float]
    mechanism: str
    answered: bool
    reason: str = ""
    #: The actual was served from feedback its own instrument measured.
    remembered: bool = False

    @property
    def error_factor(self) -> Optional[float]:
        """The q-error (:func:`~repro.core.dpc.guarded_ratio`: both
        sides floored at one page, so a 0-page estimate of 30 actual pages
        reads 30); None when either side is missing."""
        if (
            not self.answered
            or self.estimated_pages is None
            or self.actual_pages is None
        ):
            return None
        return guarded_ratio(self.actual_pages, self.estimated_pages)

    def flagged(self, threshold: float = 2.0) -> bool:
        """Whether the estimate is off by more than ``threshold``x."""
        factor = self.error_factor
        return factor is not None and factor >= threshold


@dataclass
class DiagnosticReport:
    """Estimate-vs-actual report for one executed query."""

    query: str
    plan_description: str
    lines: list[DiagnosticLine] = field(default_factory=list)
    #: Plan-linter findings for the executed plan (repro.analysis.planlint);
    #: a structurally suspect plan makes its DPC numbers suspect too, so
    #: the DBA report carries them alongside the estimate-vs-actual lines.
    lint_findings: list[Finding] = field(default_factory=list)

    def flagged(self, threshold: float = 2.0) -> list[DiagnosticLine]:
        return [line for line in self.lines if line.flagged(threshold)]

    def render(self, threshold: float = 2.0) -> str:
        rows = [f"query: {self.query}", f"plan:  {self.plan_description}", ""]
        if self.lint_findings:
            rows.append("plan lint:")
            rows.append(render_findings(self.lint_findings))
            rows.append("")
        header = f"{'expression':<58} {'est':>10} {'actual':>10} {'flag':>5}"
        rows.append(header)
        rows.append("-" * len(header))
        for line in self.lines:
            if not line.answered:
                rows.append(f"{line.expression:<58} {'—':>10} {'—':>10}   n/a")
                rows.append(f"    reason: {line.reason}")
                continue
            estimate = (
                f"{line.estimated_pages:.1f}"
                if line.estimated_pages is not None
                else "—"
            )
            actual = f"{line.actual_pages:.1f}"
            flag = "  <<<" if line.flagged(threshold) else ""
            if line.remembered:
                flag += "  (remembered)"
            rows.append(f"{line.expression:<58} {estimate:>10} {actual:>10}{flag}")
        return "\n".join(rows)


def _plan_dpc_estimates(plan: PlanNode) -> dict[str, float]:
    """Harvest (expression key -> estimated DPC) pairs from a plan tree,
    an INL join's leaf estimate under its ``LEAVES(...)`` key."""
    estimates: dict[str, float] = {}
    from repro.core.requests import (
        AccessPathRequest,
        IndexLeafRequest,
        JoinMethodRequest,
    )
    from repro.sql.predicates import Conjunction

    for _path, node in plan.walk():
        if isinstance(node, IndexSeekPlan):
            key = AccessPathRequest(
                node.table, Conjunction((node.seek_term,))
            ).key()
            estimates[key] = node.estimated_dpc
        elif isinstance(node, InListSeekPlan):
            key = AccessPathRequest(
                node.table, Conjunction((node.in_term,))
            ).key()
            estimates[key] = node.estimated_dpc
        elif isinstance(node, IndexIntersectionPlan):
            key = AccessPathRequest(
                node.table,
                Conjunction(tuple(leg.seek_term for leg in node.legs)),
            ).key()
            estimates[key] = node.estimated_dpc
        elif isinstance(node, INLJoinPlan):
            for predicate in (node.join_predicate, node.join_predicate.reversed()):
                key = JoinMethodRequest(
                    node.inner_table, predicate, node.outer_filter
                ).key()
                estimates[key] = node.estimated_dpc
                if node.inner_index_name is not None:
                    key = IndexLeafRequest(
                        node.inner_table,
                        node.inner_index_name,
                        predicate,
                        node.outer_filter,
                    ).key()
                    estimates[key] = node.estimated_leaf_pages
    return estimates


def diagnose(
    query_description: str,
    executed_plan: PlanNode,
    observations: list[PageCountObservation],
    optimizer: Optional[Optimizer] = None,
    query: Optional[Query] = None,
    lint_findings: Optional[Sequence[Finding]] = None,
) -> DiagnosticReport:
    """Build the estimate-vs-actual report for one executed query.

    Estimated DPCs come from the executed plan's own fetch nodes when the
    expression was part of the plan; for expressions the plan did not cost
    (e.g. an index the optimizer rejected), passing ``optimizer`` and
    ``query`` lets the report pull the estimate from the corresponding
    *candidate* plans, which is what a DBA comparing alternatives wants.
    ``lint_findings`` (e.g. ``Session.lint_findings``) are carried into the
    report so plan-invariant violations render next to the numbers they
    taint.
    """
    estimates = _plan_dpc_estimates(executed_plan)
    if optimizer is not None and query is not None:
        for candidate in optimizer.candidates(query):
            for key, value in _plan_dpc_estimates(candidate).items():
                estimates.setdefault(key, value)
    lines = []
    for observation in observations:
        lines.append(
            DiagnosticLine(
                expression=observation.key,
                estimated_pages=estimates.get(observation.key),
                actual_pages=observation.estimate,
                mechanism=observation.mechanism.value,
                answered=observation.answered,
                reason=observation.reason,
                remembered=observation.remembered,
            )
        )
    return DiagnosticReport(
        query=query_description,
        plan_description=executed_plan.describe(),
        lines=lines,
        lint_findings=list(lint_findings or ()),
    )


_HINT_KINDS: list[tuple[type, str]] = [
    (SeqScanPlan, "table_scan"),
    (ClusteredRangeScanPlan, "clustered_range"),
    (IndexSeekPlan, "index_seek"),
    (InListSeekPlan, "in_list_seek"),
    (IndexIntersectionPlan, "index_intersection"),
    (CoveringScanPlan, "covering_scan"),
    (HashJoinPlan, "hash_join"),
    (INLJoinPlan, "inl_join"),
    (MergeJoinPlan, "merge_join"),
]


def hint_for_plan(plan: PlanNode) -> PlanHint:
    """The hint that forces a plan of this shape."""
    target = plan.child if isinstance(plan, CountPlan) else plan
    for plan_type, kind in _HINT_KINDS:
        if isinstance(target, plan_type):
            return PlanHint(
                kind=kind,
                index_name=getattr(target, "index_name", None),
                inner_table=getattr(target, "inner_table", None),
            )
    raise ValueError(f"no hint kind for plan node {type(target).__name__}")


def recommend_hint(
    database: Database,
    query: Query,
    observations: list[PageCountObservation],
    base_injections: Optional[InjectionSet] = None,
) -> Optional[PlanHint]:
    """Re-optimize with feedback injected; return a hint if the plan flips.

    Returns ``None`` when the corrected page counts do not change the
    chosen plan shape — no hint needed.
    """
    without = Optimizer(database, injections=base_injections)
    original = without.optimize(query)

    corrected = InjectionSet() if base_injections is None else base_injections.copy()
    corrected.absorb_observations(observations)
    with_feedback = Optimizer(database, injections=corrected)
    improved = with_feedback.optimize(query)

    if hint_for_plan(improved) == hint_for_plan(original):
        return None
    return hint_for_plan(improved)
