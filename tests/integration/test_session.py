"""Tests for the Session facade and miscellaneous end-to-end behaviour."""

import pytest

from repro.core.planner import MonitorConfig
from repro.core.requests import AccessPathRequest
from repro.optimizer import InjectionSet, Optimizer, PlanHint, SingleTableQuery
from repro.session import Session
from repro.sql import Comparison, conjunction_of


@pytest.fixture()
def session(synthetic_db):
    return Session(synthetic_db)


def c2_query(cut=700):
    return SingleTableQuery(
        "t", conjunction_of(Comparison("c2", "<", cut)), "padding"
    )


class TestSession:
    def test_run_returns_executed_query(self, session):
        executed = session.run(c2_query())
        assert executed.result.scalar() == 700
        assert executed.elapsed_ms > 0
        assert executed.plan is not None

    def test_run_plan_uses_given_plan(self, session, synthetic_db):
        query = c2_query()
        plan = Optimizer(synthetic_db, hint=PlanHint("index_seek")).optimize(query)
        executed = session.run_plan(query, plan)
        assert executed.plan is plan
        assert executed.result.scalar() == 700

    def test_unanswerable_requests_surface(self, session):
        query = c2_query()
        ghost = AccessPathRequest("t", conjunction_of(Comparison("nope", "<", 1)))
        executed = session.run(query, requests=[ghost])
        (observation,) = executed.observations
        assert not observation.answered

    def test_summary_text(self, session):
        executed = session.run(
            c2_query(), requests=[AccessPathRequest("t", c2_query().predicate)]
        )
        text = executed.summary()
        assert "SELECT count(padding)" in text
        assert "distinct page counts" in text

    def test_extra_injections_do_not_leak(self, session, synthetic_db):
        extra = InjectionSet()
        predicate = c2_query().predicate
        extra.inject_access_page_count("t", predicate, 5.0)
        plan = session.optimizer(extra_injections=extra).optimize(c2_query())
        assert "IndexSeek" in plan.signature()
        # The session's own injections were never touched.
        assert len(session.injections) == 0
        default_plan = session.optimize(c2_query())
        assert "SeqScan" in default_plan.signature()

    def test_monitor_config_respected(self, synthetic_db):
        session = Session(
            synthetic_db, monitor_config=MonitorConfig(dpsample_fraction=1.0)
        )
        foreign = conjunction_of(Comparison("c5", "<", 1_000))
        executed = session.run(
            c2_query(), requests=[AccessPathRequest("t", foreign)]
        )
        (observation,) = executed.observations
        assert observation.details["fraction"] == 1.0

    def test_feedback_accumulates_across_queries(self, session):
        for cut in (500, 900):
            query = c2_query(cut)
            executed = session.run(
                query, requests=[AccessPathRequest("t", query.predicate)]
            )
            session.remember(executed)
        assert len(session.feedback) == 2


class TestFetchNonPrefixRequests:
    def test_non_prefix_request_is_unanswerable(self, synthetic_db):
        """A fetch evaluates its residual short-circuited, so a request for
        the seek term plus a non-prefix residual subset is not obtainable
        from an index plan (§II-B): it comes back unanswerable, with the
        reason, and the fetch is not monitored."""
        seek = Comparison("c2", "<", 800)
        residual_a = Comparison("c4", "<", 15_000)
        residual_b = Comparison("c5", "<", 15_000)
        predicate = conjunction_of(seek, residual_a, residual_b)
        query = SingleTableQuery("t", predicate, "padding")
        # Request seek + the SECOND residual term: not a prefix of (a, b).
        request = AccessPathRequest("t", conjunction_of(seek, residual_b))

        from repro.core.planner import build_executable
        from repro.exec import execute

        plan = Optimizer(
            synthetic_db, hint=PlanHint("index_seek", index_name="ix_c2")
        ).optimize(query)

        build = build_executable(plan, synthetic_db, [request], MonitorConfig())
        (refusal,) = build.unanswerable
        assert not refusal.answered
        assert "not a prefix of the fetch residual" in refusal.reason
        assert "§II-B" in refusal.reason
        assert build.root.child.bundle is None
        result = execute(build.root, synthetic_db)
        assert not result.runstats.observations
