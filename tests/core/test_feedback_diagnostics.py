"""Tests for the feedback store, diagnostics report and hint recommendation."""

import pytest

from repro.core.diagnostics import diagnose, hint_for_plan, recommend_hint
from repro.core.feedback import FeedbackStore
from repro.core.requests import (
    AccessPathRequest,
    Mechanism,
    PageCountObservation,
)
from repro.common.errors import FeedbackError
from repro.harness.methodology import default_requests
from repro.optimizer import JoinQuery, Optimizer, PlanHint, SingleTableQuery
from repro.optimizer.plans import INLJoinPlan
from repro.session import Session
from repro.sql import Comparison, JoinEquality, conjunction_of


def observation(key_expr, estimate, exact=True):
    request = AccessPathRequest("t", conjunction_of(Comparison(key_expr, "<", 1)))
    return PageCountObservation(
        request=request,
        mechanism=Mechanism.EXACT_SCAN_COUNT if exact else Mechanism.DPSAMPLE,
        estimate=estimate,
        exact=exact,
    )


class TestFeedbackStore:
    def test_records_answered_only(self):
        store = FeedbackStore()
        unanswerable = PageCountObservation.unanswerable(
            AccessPathRequest("t", conjunction_of(Comparison("a", "<", 1))), "no"
        )
        stored = store.record_observations([observation("a", 5.0), unanswerable])
        assert stored == 1
        assert len(store) == 1

    def test_newest_wins(self):
        store = FeedbackStore()
        store.record_observations([observation("a", 5.0)])
        store.record_observations([observation("a", 9.0)])
        assert store.record(observation("a", 0).key).page_count == 9.0

    def test_exact_beats_estimate_within_run(self):
        store = FeedbackStore()
        store.record_observations(
            [observation("a", 5.0, exact=False), observation("a", 7.0, exact=True)]
        )
        record = store.record(observation("a", 0).key)
        assert record.page_count == 7.0 and record.page_count_exact

    def test_estimate_does_not_downgrade_exact_same_run(self):
        store = FeedbackStore()
        store.record_observations(
            [observation("a", 7.0, exact=True), observation("a", 5.0, exact=False)]
        )
        assert store.record(observation("a", 0).key).page_count == 7.0

    def test_to_injections_roundtrip(self):
        store = FeedbackStore()
        obs = observation("a", 12.0)
        store.record_observations([obs])
        injections = store.to_injections()
        assert injections.access_page_count("t", obs.request.expression) == 12.0

    def test_cardinality_records(self):
        store = FeedbackStore()
        store.record_cardinality("CARD(t, a < 1)", 42.0)
        assert store.record("CARD(t, a < 1)").cardinality == 42.0
        with pytest.raises(FeedbackError):
            store.record_cardinality("k", -1)

    def test_keys_sorted(self):
        store = FeedbackStore()
        store.record_observations([observation("b", 1.0), observation("a", 1.0)])
        assert store.keys() == sorted(store.keys())


class TestDiagnose:
    def make_executed(self, synthetic_db):
        predicate = conjunction_of(Comparison("c2", "<", 500))
        query = SingleTableQuery("t", predicate, "padding")
        optimizer = Optimizer(synthetic_db)
        plan = optimizer.optimize(query)
        obs = PageCountObservation(
            request=AccessPathRequest("t", predicate),
            mechanism=Mechanism.EXACT_SCAN_COUNT,
            estimate=8.0,
            exact=True,
        )
        return query, optimizer, plan, [obs]

    def test_report_pairs_estimates_with_actuals(self, synthetic_db):
        query, optimizer, plan, observations = self.make_executed(synthetic_db)
        report = diagnose(
            query.describe(), plan, observations, optimizer=optimizer, query=query
        )
        (line,) = report.lines
        assert line.actual_pages == 8.0
        assert line.estimated_pages is not None  # pulled from candidate seek
        assert line.estimated_pages > 100  # analytical overestimate

    def test_flagging_threshold(self, synthetic_db):
        query, optimizer, plan, observations = self.make_executed(synthetic_db)
        report = diagnose(
            query.describe(), plan, observations, optimizer=optimizer, query=query
        )
        assert report.flagged(threshold=2.0)
        assert not report.flagged(threshold=10**9)

    def test_unanswered_rendered_with_reason(self, synthetic_db):
        query, optimizer, plan, _ = self.make_executed(synthetic_db)
        bad = PageCountObservation.unanswerable(
            AccessPathRequest("t", conjunction_of(Comparison("c5", "<", 1))),
            "some reason",
        )
        report = diagnose(query.describe(), plan, [bad])
        assert "some reason" in report.render()

    def test_remembered_inl_run_pairs_estimate_with_actual(self, join_db):
        """The join line's key carries the outer filter on both sides: the
        plan node's estimate and the monitor's actual meet on one row."""
        query = JoinQuery(
            join_predicate=JoinEquality("t1", "c2", "t", "c2"),
            predicates={"t1": conjunction_of(Comparison("c1", "<", 300))},
            count_column="t.padding",
        )
        requests = default_requests(join_db, query)
        session = Session(join_db)
        session.remember(session.run(query, requests=requests))
        second = session.run(query, requests=requests, use_feedback=True)
        inl = second.plan.children()[0]
        assert isinstance(inl, INLJoinPlan) and inl.dpc_source == "injected"
        assert inl.leaf_source == "injected"
        report = diagnose(query.describe(), second.plan, second.observations)
        line, leaves = [item for item in report.lines if item.answered]
        assert line.expression == "DPC(t, t1.c2 = t.c2 | c1 < 300)"
        assert line.estimated_pages == inl.estimated_dpc
        assert line.actual_pages is not None
        (row,) = [r for r in report.render().splitlines() if r.startswith("DPC(")]
        assert f"{line.estimated_pages:.1f}" in row
        assert f"{line.actual_pages:.1f}" in row
        # The index side meets its own observation: a remembered, exact
        # leaf count, so the q-error is 1.
        assert leaves.expression == "LEAVES(t, ix_c2, t1.c2 = t.c2 | c1 < 300)"
        assert leaves.mechanism == "leaf-bitmap"
        assert leaves.estimated_pages == inl.estimated_leaf_pages
        assert leaves.actual_pages == inl.estimated_leaf_pages
        assert leaves.error_factor == 1.0

    def test_error_factor_none_when_missing(self):
        from repro.core.diagnostics import DiagnosticLine

        line = DiagnosticLine("e", None, 5.0, "m", True)
        assert line.error_factor is None
        assert not line.flagged()


class TestHints:
    def test_hint_for_plan_kinds(self, synthetic_db):
        query = SingleTableQuery(
            "t", conjunction_of(Comparison("c2", "<", 500)), "padding"
        )
        scan_plan = Optimizer(synthetic_db, hint=PlanHint("table_scan")).optimize(query)
        assert hint_for_plan(scan_plan).kind == "table_scan"
        seek_plan = Optimizer(synthetic_db, hint=PlanHint("index_seek")).optimize(query)
        hint = hint_for_plan(seek_plan)
        assert hint.kind == "index_seek" and hint.index_name == "ix_c2"

    def test_recommend_hint_flips_on_correlated_column(self, synthetic_db):
        predicate = conjunction_of(Comparison("c2", "<", 500))
        query = SingleTableQuery("t", predicate, "padding")
        from repro.core.dpc import exact_dpc

        observations = [
            PageCountObservation(
                request=AccessPathRequest("t", predicate),
                mechanism=Mechanism.EXACT_SCAN_COUNT,
                estimate=float(exact_dpc(synthetic_db.table("t"), predicate)),
                exact=True,
            )
        ]
        hint = recommend_hint(synthetic_db, query, observations)
        assert hint is not None and hint.kind == "index_seek"

    def test_recommend_hint_none_when_no_change(self, synthetic_db):
        predicate = conjunction_of(Comparison("c5", "<", 500))
        query = SingleTableQuery("t", predicate, "padding")
        from repro.core.dpc import exact_dpc

        observations = [
            PageCountObservation(
                request=AccessPathRequest("t", predicate),
                mechanism=Mechanism.EXACT_SCAN_COUNT,
                estimate=float(exact_dpc(synthetic_db.table("t"), predicate)),
                exact=True,
            )
        ]
        assert recommend_hint(synthetic_db, query, observations) is None

    def test_recommend_hint_does_not_mutate_base(self, synthetic_db):
        from repro.optimizer import InjectionSet

        base = InjectionSet()
        predicate = conjunction_of(Comparison("c2", "<", 500))
        query = SingleTableQuery("t", predicate, "padding")
        observations = [observation("c2", 8.0)]
        recommend_hint(synthetic_db, query, observations, base_injections=base)
        assert len(base) == 0
