"""Tier-1 plan linter: every rule P001–P006 fires on a purpose-built
violating plan and stays silent on a clean one, and the Session runs the
linter on every optimized plan (strict mode raises)."""

from __future__ import annotations

import math

import pytest

from repro.analysis.findings import Severity
from repro.analysis.planlint import PLAN_RULES, lint_plan
from repro.common.errors import AnalysisError
from repro.core.requests import IndexLeafRequest
from repro.optimizer.injection import InjectionSet
from repro.optimizer.optimizer import Optimizer, SingleTableQuery
from repro.optimizer.plans import (
    CountPlan,
    IndexIntersectionLeg,
    IndexIntersectionPlan,
    IndexSeekPlan,
    INLJoinPlan,
    MergeJoinPlan,
    SeqScanPlan,
)
from repro.session import Session
from repro.sql.predicates import Comparison, Conjunction, JoinEquality, conjunction_of
from tests.conftest import make_tiny_table


@pytest.fixture(scope="module")
def tiny_db():
    database, _table, _rows = make_tiny_table(num_rows=500)
    return database


def make_seek(**overrides) -> IndexSeekPlan:
    """A clean index seek on tiny.ix_v (v < 100)."""
    fields = dict(
        table="tiny",
        index_name="ix_v",
        seek_term=Comparison("v", "<", 100),
        low=None,
        high=(100,),
        low_inclusive=True,
        high_inclusive=False,
        residual=Conjunction(()),
        estimated_dpc=5.0,
        dpc_source="model",
    )
    fields.update(overrides)
    plan = IndexSeekPlan(**fields)
    plan.estimated_rows = 100.0
    plan.estimated_cost_ms = 12.0
    return plan


def rules_fired(findings) -> set[str]:
    return {finding.rule for finding in findings}


class TestCleanPlan:
    def test_clean_seek_has_no_findings(self, tiny_db):
        assert lint_plan(make_seek(), tiny_db) == []

    def test_clean_count_over_scan(self, tiny_db):
        scan = SeqScanPlan(table="tiny", predicate=conjunction_of(Comparison("v", "<", 40)))
        scan.estimated_rows = 40.0
        scan.estimated_cost_ms = 3.0
        count = CountPlan(child=scan, column="v")
        count.estimated_rows = 1.0
        assert lint_plan(count, tiny_db) == []

    def test_unknown_rule_rejected(self, tiny_db):
        with pytest.raises(AnalysisError):
            lint_plan(make_seek(), tiny_db, rules=["P999"])


class TestP001Structure:
    def test_fires_on_missing_child(self, tiny_db):
        count = CountPlan(child=None, column=None)
        assert "P001" in rules_fired(lint_plan(count, tiny_db, rules=["P001"]))

    def test_fires_on_single_leg_intersection(self, tiny_db):
        plan = IndexIntersectionPlan(
            table="tiny",
            legs=[
                IndexIntersectionLeg(
                    index_name="ix_v",
                    seek_term=Comparison("v", "<", 10),
                    low=None,
                    high=(10,),
                )
            ],
            residual=Conjunction(()),
        )
        assert "P001" in rules_fired(lint_plan(plan, tiny_db, rules=["P001"]))

    def test_fires_on_node_aliasing(self, tiny_db):
        shared = SeqScanPlan(table="tiny", predicate=Conjunction(()))
        join = MergeJoinPlan(
            outer=shared,
            inner=shared,
            outer_table="tiny",
            inner_table="tiny",
            join_predicate=JoinEquality("tiny", "v", "tiny", "v"),
            sort_outer=False,
            sort_inner=False,
        )
        assert "P001" in rules_fired(lint_plan(join, tiny_db, rules=["P001"]))

    def test_silent_on_clean_plan(self, tiny_db):
        assert lint_plan(make_seek(), tiny_db, rules=["P001"]) == []


class TestP002Resolution:
    def test_fires_on_unknown_table(self, tiny_db):
        plan = SeqScanPlan(table="ghost", predicate=Conjunction(()))
        assert "P002" in rules_fired(lint_plan(plan, tiny_db, rules=["P002"]))

    def test_fires_on_unknown_index(self, tiny_db):
        plan = make_seek(index_name="ix_ghost")
        assert "P002" in rules_fired(lint_plan(plan, tiny_db, rules=["P002"]))

    def test_fires_on_seek_term_not_on_leading_column(self, tiny_db):
        plan = make_seek(seek_term=Comparison("k", "<", 100))
        assert "P002" in rules_fired(lint_plan(plan, tiny_db, rules=["P002"]))

    def test_fires_on_unknown_residual_column(self, tiny_db):
        plan = make_seek(residual=conjunction_of(Comparison("ghost_col", "=", 1)))
        assert "P002" in rules_fired(lint_plan(plan, tiny_db, rules=["P002"]))

    def test_fires_on_non_participant_join_table(self, tiny_db):
        outer = SeqScanPlan(table="tiny", predicate=Conjunction(()))
        join = INLJoinPlan(
            outer=outer,
            outer_table="elsewhere",
            inner_table="tiny",
            join_predicate=JoinEquality("tiny", "v", "tiny", "k"),
            inner_residual=Conjunction(()),
            inner_index_name=None,
        )
        assert "P002" in rules_fired(lint_plan(join, tiny_db, rules=["P002"]))

    def test_silent_on_clean_plan(self, tiny_db):
        assert lint_plan(make_seek(), tiny_db, rules=["P002"]) == []


class TestP003SeekBounds:
    def test_fires_on_inverted_bounds(self, tiny_db):
        plan = make_seek(low=(100,), high=(10,))
        findings = lint_plan(plan, tiny_db, rules=["P003"])
        assert rules_fired(findings) == {"P003"}
        assert all(f.severity is Severity.ERROR for f in findings)

    def test_warns_on_self_excluding_point_range(self, tiny_db):
        plan = make_seek(low=(50,), high=(50,), low_inclusive=False, high_inclusive=True)
        findings = lint_plan(plan, tiny_db, rules=["P003"])
        assert rules_fired(findings) == {"P003"}
        assert all(f.severity is Severity.WARNING for f in findings)

    def test_fires_on_incomparable_bounds(self, tiny_db):
        plan = make_seek(low=(1,), high=("zebra",))
        assert "P003" in rules_fired(lint_plan(plan, tiny_db, rules=["P003"]))

    def test_silent_on_open_and_ordered_ranges(self, tiny_db):
        assert lint_plan(make_seek(), tiny_db, rules=["P003"]) == []
        closed = make_seek(low=(10,), high=(100,))
        assert lint_plan(closed, tiny_db, rules=["P003"]) == []


class TestP004Estimates:
    def test_fires_on_negative_rows(self, tiny_db):
        plan = make_seek()
        plan.estimated_rows = -3.0
        assert "P004" in rules_fired(lint_plan(plan, tiny_db, rules=["P004"]))

    def test_fires_on_nan_cost(self, tiny_db):
        plan = make_seek()
        plan.estimated_cost_ms = math.nan
        assert "P004" in rules_fired(lint_plan(plan, tiny_db, rules=["P004"]))

    def test_fires_on_negative_dpc(self, tiny_db):
        plan = make_seek(estimated_dpc=-1.0)
        assert "P004" in rules_fired(lint_plan(plan, tiny_db, rules=["P004"]))

    def test_silent_on_clean_plan(self, tiny_db):
        assert lint_plan(make_seek(), tiny_db, rules=["P004"]) == []


class TestP005DPCConsistency:
    def test_fires_when_dpc_exceeds_page_count(self, tiny_db):
        pages = tiny_db.table("tiny").num_pages
        plan = make_seek(estimated_dpc=float(pages) * 10.0)
        assert "P005" in rules_fired(lint_plan(plan, tiny_db, rules=["P005"]))

    def test_fires_when_feedback_ignored(self, tiny_db):
        injections = InjectionSet()
        injections.inject_access_page_count(
            "tiny", Conjunction((Comparison("v", "<", 100),)), 3.0
        )
        plan = make_seek(dpc_source="model")
        findings = lint_plan(plan, tiny_db, injections=injections, rules=["P005"])
        assert rules_fired(findings) == {"P005"}

    def test_fires_on_unprovenanced_injection_claim(self, tiny_db):
        plan = make_seek(dpc_source="injected")
        findings = lint_plan(plan, tiny_db, injections=InjectionSet(), rules=["P005"])
        assert rules_fired(findings) == {"P005"}

    def test_fires_on_unknown_source_tag(self, tiny_db):
        # The optimizer has two sources; a histogram reaches it injected.
        for tag in ("vibes", "dpc-histogram"):
            plan = make_seek(dpc_source=tag)
            assert "P005" in rules_fired(lint_plan(plan, tiny_db, rules=["P005"]))

    def test_silent_when_provenance_matches(self, tiny_db):
        injections = InjectionSet()
        injections.inject_access_page_count(
            "tiny", Conjunction((Comparison("v", "<", 100),)), 3.0
        )
        plan = make_seek(estimated_dpc=3.0, dpc_source="injected")
        assert lint_plan(plan, tiny_db, injections=injections, rules=["P005"]) == []

    def test_silent_without_injection_context(self, tiny_db):
        assert lint_plan(make_seek(), tiny_db, rules=["P005"]) == []

    # An INL node's feedback key includes the outer filter it was costed
    # under: P005 must look the injection up under the node's own filter.
    JOIN = JoinEquality("tiny", "v", "tiny", "k")
    NARROW = conjunction_of(Comparison("v", "<", 40))
    WIDE = conjunction_of(Comparison("v", "<", 400))

    def make_inl(self, **overrides) -> INLJoinPlan:
        outer = SeqScanPlan(table="tiny", predicate=self.NARROW)
        outer.estimated_rows = 40.0
        fields = dict(
            outer=outer,
            outer_table="tiny",
            inner_table="tiny",
            join_predicate=self.JOIN,
            inner_residual=Conjunction(()),
            inner_index_name=None,
            outer_filter=self.NARROW,
            estimated_dpc=2.0,
            dpc_source="model",
        )
        fields.update(overrides)
        plan = INLJoinPlan(**fields)
        plan.estimated_rows = 40.0
        return plan

    def test_inl_fires_when_same_filter_feedback_ignored(self, tiny_db):
        injections = InjectionSet()
        injections.inject_join_page_count("tiny", self.JOIN, self.NARROW, 2.0)
        findings = lint_plan(
            self.make_inl(), tiny_db, injections=injections, rules=["P005"]
        )
        assert rules_fired(findings) == {"P005"}

    def test_inl_silent_on_feedback_under_another_filter(self, tiny_db):
        injections = InjectionSet()
        injections.inject_join_page_count("tiny", self.JOIN, self.WIDE, 9.0)
        injections.inject_join_page_count("tiny", self.JOIN, Conjunction(), 9.0)
        plan = self.make_inl()
        assert lint_plan(plan, tiny_db, injections=injections, rules=["P005"]) == []

    def test_inl_injected_claim_needs_its_own_filters_entry(self, tiny_db):
        injections = InjectionSet()
        injections.inject_join_page_count("tiny", self.JOIN, self.WIDE, 9.0)
        plan = self.make_inl(dpc_source="injected")
        findings = lint_plan(plan, tiny_db, injections=injections, rules=["P005"])
        assert rules_fired(findings) == {"P005"}
        injections.inject_join_page_count("tiny", self.JOIN, self.NARROW, 2.0)
        assert lint_plan(plan, tiny_db, injections=injections, rules=["P005"]) == []

    # The index side of an INL join: a leaf count, bounded by the index's
    # leaves and held to the same provenance rule under its LEAVES key.
    def test_inl_leaf_estimate_bounded_by_the_index_leaves(self, tiny_db):
        leaves = tiny_db.table("tiny").index("ix_v").num_leaf_pages
        plan = self.make_inl(inner_index_name="ix_v", estimated_leaf_pages=leaves)
        assert lint_plan(plan, tiny_db, rules=["P005"]) == []
        plan.estimated_leaf_pages = leaves + 1
        (finding,) = lint_plan(plan, tiny_db, rules=["P005"])
        assert finding.rule == "P005" and "leaf pages" in finding.message

    def test_inl_leaf_provenance_follows_its_own_key(self, tiny_db):
        injections = InjectionSet()
        leaf_key = IndexLeafRequest("tiny", "ix_v", self.JOIN, self.NARROW).key()
        injections.inject_page_count_by_key(leaf_key, 1.0)
        plan = self.make_inl(inner_index_name="ix_v", estimated_leaf_pages=1.0)
        (finding,) = lint_plan(plan, tiny_db, injections=injections, rules=["P005"])
        assert "leaf_source" in finding.hint
        plan.leaf_source = "injected"
        assert lint_plan(plan, tiny_db, injections=injections, rules=["P005"]) == []
        # Claimed without an entry under the node's own filter.
        plan.outer_filter = self.WIDE
        (finding,) = lint_plan(plan, tiny_db, injections=injections, rules=["P005"])
        assert finding.message.startswith("leaf_source claims an injected value")


class _LeakyShapeSeek(IndexSeekPlan):
    """A buggy node whose shape key includes an estimate."""

    def shape_key(self) -> str:
        return f"LeakySeek(dpc={self.estimated_dpc})"


class _UnstableScan(SeqScanPlan):
    """A buggy node whose signature changes between calls."""

    def describe(self) -> str:
        self._calls = getattr(self, "_calls", 0) + 1
        return f"UnstableScan#{self._calls}"


class _LeakyLeafINL(INLJoinPlan):
    """A buggy INL node whose shape key includes its leaf provenance."""

    def shape_key(self) -> str:
        return f"LeakyINL({self.leaf_source})"


class TestP006ShapeHygiene:
    def test_fires_on_estimate_leak_into_shape_key(self, tiny_db):
        plan = make_seek()
        leaky = _LeakyShapeSeek(
            table=plan.table,
            index_name=plan.index_name,
            seek_term=plan.seek_term,
            low=plan.low,
            high=plan.high,
            low_inclusive=plan.low_inclusive,
            high_inclusive=plan.high_inclusive,
            residual=plan.residual,
            estimated_dpc=5.0,
            dpc_source="model",
        )
        assert "P006" in rules_fired(lint_plan(leaky, tiny_db, rules=["P006"]))

    def test_fires_on_unstable_signature(self, tiny_db):
        plan = _UnstableScan(table="tiny", predicate=Conjunction(()))
        assert "P006" in rules_fired(lint_plan(plan, tiny_db, rules=["P006"]))

    def test_perturbation_leaves_plan_unchanged(self, tiny_db):
        plan = make_seek()
        lint_plan(plan, tiny_db, rules=["P006"])
        assert plan.estimated_dpc == pytest.approx(5.0)
        assert plan.estimated_rows == pytest.approx(100.0)
        assert plan.dpc_source == "model"

    def test_silent_on_clean_plan(self, tiny_db):
        assert lint_plan(make_seek(), tiny_db, rules=["P006"]) == []

    def test_leaf_fields_are_perturbed_and_restored(self, tiny_db):
        fields = dict(
            outer=SeqScanPlan(table="tiny", predicate=Conjunction(())),
            outer_table="tiny",
            inner_table="tiny",
            join_predicate=JoinEquality("tiny", "v", "tiny", "k"),
            inner_residual=Conjunction(()),
            inner_index_name="ix_v",
            estimated_leaf_pages=3.0,
            leaf_source="injected",
        )
        leaky = _LeakyLeafINL(**fields)
        assert "P006" in rules_fired(lint_plan(leaky, tiny_db, rules=["P006"]))
        clean = INLJoinPlan(**fields)
        assert lint_plan(clean, tiny_db, rules=["P006"]) == []
        assert clean.estimated_leaf_pages == 3.0 and clean.leaf_source == "injected"


class TestRuleCatalog:
    def test_catalog_is_complete(self):
        assert set(PLAN_RULES) == {"P001", "P002", "P003", "P004", "P005", "P006"}
        assert all(PLAN_RULES[rule] for rule in PLAN_RULES)


class TestSessionIntegration:
    def test_session_lints_by_default_and_stays_clean(self, tiny_db):
        session = Session(tiny_db)
        query = SingleTableQuery(
            table="tiny", predicate=conjunction_of(Comparison("v", "<", 50))
        )
        session.optimize(query)
        assert session.lint_findings == []

    def test_default_mode_records_findings_without_raising(self, tiny_db, monkeypatch):
        broken = make_seek(index_name="ix_ghost")
        monkeypatch.setattr(Optimizer, "optimize", lambda self, query: broken)
        session = Session(tiny_db)
        query = SingleTableQuery(
            table="tiny", predicate=conjunction_of(Comparison("v", "<", 50))
        )
        plan = session.optimize(query)
        assert plan is broken
        assert "P002" in rules_fired(session.lint_findings)
