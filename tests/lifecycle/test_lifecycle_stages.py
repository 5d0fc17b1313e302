"""Staged lifecycle observability: traces, cache events, RunStats surfacing."""

from __future__ import annotations

from repro.core.requests import AccessPathRequest
from repro.engine import Engine
from repro.lifecycle import STAGES, PlanCache
from repro.optimizer import SingleTableQuery
from repro.session import Session
from repro.sql import Comparison, conjunction_of


def query_on(column: str = "c2", cut: int = 300) -> SingleTableQuery:
    return SingleTableQuery(
        "t", conjunction_of(Comparison(column, "<", cut)), "padding"
    )


class TestTraceWithoutCache:
    def test_all_stages_recorded_in_order(self, synthetic_db):
        session = Session(synthetic_db)
        query = query_on()
        executed = session.run(
            query, requests=[AccessPathRequest("t", query.predicate)]
        )
        trace = executed.trace
        assert trace is not None
        assert [r.stage for r in trace.records] == list(STAGES)
        assert trace.cache_event == "bypassed"
        assert trace.optimized
        assert trace.stage("harvest").status == "skipped"

    def test_remember_flag_harvests(self, synthetic_db):
        session = Session(synthetic_db)
        query = query_on()
        executed = session.run(
            query,
            requests=[AccessPathRequest("t", query.predicate)],
            remember=True,
        )
        assert executed.trace.stage("harvest").status == "ok"
        assert len(session.feedback) == 1

    def test_runstats_render_includes_lifecycle(self, synthetic_db):
        session = Session(synthetic_db)
        executed = session.run(query_on())
        rendered = executed.result.runstats.render()
        assert "lifecycle:" in rendered
        assert "canonicalize:ok" in rendered
        assert "plan-cache:bypassed" in rendered

    def test_runstats_to_dict_includes_lifecycle(self, synthetic_db):
        session = Session(synthetic_db)
        executed = session.run(query_on())
        payload = executed.result.runstats.to_dict()
        assert payload["lifecycle"]["cache_event"] == "bypassed"
        assert len(payload["lifecycle"]["stages"]) == len(STAGES)


    def test_execute_stage_reports_a_row_count_not_the_rows(self, synthetic_db):
        # A rowset plan (the scan under the count, run on its own): the
        # stage detail ships in runstats.lifecycle over the wire, so it
        # must stay O(1) however many rows come back.
        session = Session(synthetic_db)
        query = query_on(cut=40)
        scan_plan = session.optimize(query).child
        executed = session.run_plan(query, scan_plan)
        assert len(executed.result.rows) == 40
        detail = executed.trace.stage("execute").detail
        assert detail.startswith("mode=batch rows=40 physical_reads=")
        stages = executed.result.runstats.to_dict()["lifecycle"]["stages"]
        assert stages[-2]["detail"] == detail

    def test_stage_details_are_fixed_when_the_run_returns(self, synthetic_db):
        # Details are formatted on first read; what they say is not.
        session = Session(synthetic_db)
        executed = session.run(query_on())
        executed.trace.record("late", "ok", "not part of the run's report")
        executed.result.rows.append(("late",))
        lifecycle = executed.result.runstats.lifecycle
        assert [s["stage"] for s in lifecycle["stages"]] == list(STAGES)
        assert lifecycle["stages"][5]["detail"].startswith("mode=batch rows=1 ")
        assert executed.result.runstats.lifecycle is lifecycle


class TestTraceWithCache:
    def test_second_run_hits_and_skips_optimize(self, synthetic_db):
        engine = Engine(synthetic_db)
        session = engine.session()
        first = session.run(query_on())
        second = session.run(query_on())
        assert first.trace.cache_event == "miss"
        assert first.trace.optimized
        assert second.trace.cache_event == "hit"
        assert not second.trace.optimized
        assert second.trace.stage("optimize").status == "skipped"
        assert second.trace.stage("lint").status == "skipped"

    def test_hit_serves_the_same_plan_object(self, synthetic_db):
        engine = Engine(synthetic_db)
        session = engine.session()
        first = session.run(query_on())
        second = session.run(query_on())
        assert second.plan is first.plan
        assert second.plan.render() == first.plan.render()

    def test_cache_shared_across_engine_sessions(self, synthetic_db):
        engine = Engine(synthetic_db)
        first = engine.session().run(query_on())
        second = engine.session().run(query_on())
        assert first.trace.cache_event == "miss"
        assert second.trace.cache_event == "hit"

    def test_counters_surface_in_render(self, synthetic_db):
        engine = Engine(synthetic_db)
        session = engine.session()
        session.run(query_on())
        second = session.run(query_on())
        rendered = second.result.runstats.render()
        assert "plan-cache[hit]:" in rendered
        assert "hits=1" in rendered
        assert "hit-rate=" in rendered

    def test_distinct_queries_do_not_share_entries(self, synthetic_db):
        engine = Engine(synthetic_db)
        session = engine.session()
        session.run(query_on(cut=300))
        other = session.run(query_on(cut=700))
        assert other.trace.cache_event == "miss"

    def test_explicit_cache_on_standalone_session(self, synthetic_db):
        session = Session(synthetic_db, plan_cache=PlanCache())
        session.run(query_on())
        assert session.run(query_on()).trace.cache_event == "hit"

    def test_optimize_also_goes_through_cache(self, synthetic_db):
        engine = Engine(synthetic_db)
        session = engine.session()
        session.optimize(query_on())
        session.optimize(query_on())
        assert session.last_trace.cache_event == "hit"
