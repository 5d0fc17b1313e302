"""Episode runner: correctness, trace stages, restart vs. resume, and the
plan-cache / feedback-epoch non-poisoning contract."""

from __future__ import annotations

from repro.harness.methodology import default_requests
from repro.harness.reopt_ab import evaluate_reopt_query
from repro.lifecycle.plancache import PlanCache
from repro.optimizer import SingleTableQuery
from repro.optimizer.hints import PlanHint
from repro.reopt import run_with_reopt
from repro.session import Session

from tests.reopt.test_watchdog import generated_query, run_episode

#: Stage names a tripped episode must record, in order.
TRIP_STAGES = (
    "reopt-trip",
    "reopt-harvest",
    "reopt-replan",
)


def stage_names(trace):
    return [record.stage for record in trace.records]


class TestSwitchCorrectness:
    def test_switched_run_returns_identical_rows(self, synthetic_db):
        generated = generated_query(synthetic_db, "c2")
        outcome = evaluate_reopt_query(synthetic_db, generated)
        assert outcome.tripped and outcome.switched
        assert outcome.rows_match
        assert outcome.win > 1.0, "switching must beat riding the bad plan"

    def test_quiet_run_returns_identical_rows(self, synthetic_db):
        generated = generated_query(synthetic_db, "c5")
        outcome = evaluate_reopt_query(synthetic_db, generated)
        assert not outcome.tripped
        assert outcome.rows_match
        # The only extra cost is the (simulated-time-visible) checks.
        assert outcome.overhead <= 0.02

    def test_trace_records_the_state_machine(self, synthetic_db):
        generated = generated_query(synthetic_db, "c2")
        session, episode = run_episode(synthetic_db, generated)
        names = stage_names(session.last_trace)
        cancelled = [
            record
            for record in session.last_trace.records
            if record.stage == "execute" and record.status == "cancelled"
        ]
        assert cancelled, "the first leg must record execute:cancelled"
        for stage in TRIP_STAGES:
            assert stage in names
        assert ("reopt-restart" in names) != ("reopt-resume" in names)
        # The switch leg re-runs monitor-plan + execute after the replan.
        assert names.index("reopt-replan") < len(names) - 2
        assert episode.final_plan is not None
        assert (
            episode.final_plan.signature() != episode.original_plan.signature()
        )

    def test_untripped_episode_records_plain_stage_list(self, synthetic_db):
        generated = generated_query(synthetic_db, "c5")
        session, _ = run_episode(synthetic_db, generated)
        names = stage_names(session.last_trace)
        assert not any(name.startswith("reopt-") for name in names)


class TestRestartVsResume:
    """Resume is legal only for COUNT(*) over a hinted full scan of t
    (clustered on the unique c1) under the page-at-a-time batch drive;
    every other tripped shape restarts."""

    def resume_shape(self, database):
        generated = generated_query(database, "c2")
        query = SingleTableQuery(
            table="t", predicate=generated.query.predicate, count_column=None
        )
        requests = tuple(default_requests(database, query))
        hint = PlanHint(kind="table_scan")
        truth = Session(
            database=database, injections=generated.injections()
        ).run(query, requests=requests, hint=hint, exec_mode="batch")
        return generated, query, requests, hint, truth.result.rows

    def run_mode(self, database, exec_mode="batch"):
        generated, query, requests, hint, truth_rows = self.resume_shape(
            database
        )
        session = Session(
            database=database, injections=generated.injections()
        )
        episode = run_with_reopt(
            session,
            query,
            requests=requests,
            hint=hint,
            exec_mode=exec_mode,
        )
        return session, episode, truth_rows

    def test_resume_replays_only_the_suffix(self, synthetic_db):
        session, episode, truth_rows = self.run_mode(synthetic_db)
        assert episode.tripped and episode.resumed
        assert episode.executed.result.rows == truth_rows
        resume = session.last_trace.stage("reopt-resume")
        assert resume is not None and "prefix" in resume.detail

    def test_auto_prefers_resume_when_legal(self, synthetic_db):
        _, episode, truth_rows = self.run_mode(synthetic_db)
        assert episode.resumed
        assert episode.executed.result.rows == truth_rows

    def test_row_drive_never_resumes(self, synthetic_db):
        # The row drive records no replay boundary, so the consumed
        # prefix is not replayable; the episode must restart.
        _, episode, truth_rows = self.run_mode(synthetic_db, exec_mode="row")
        assert episode.tripped and not episode.resumed
        assert episode.executed.result.rows == truth_rows

    def test_count_column_shape_never_resumes(self, synthetic_db):
        # count(padding) counts non-null values, not scanned rows — the
        # scan counter is not the prefix answer, so resume is illegal
        # and the episode restarts from the top.
        generated = generated_query(synthetic_db, "c2")
        session, episode = run_episode(synthetic_db, generated)
        assert episode.tripped and not episode.resumed
        assert session.last_trace.stage("reopt-restart") is not None

    def test_hinted_same_plan_replan_is_a_false_trip(self, synthetic_db):
        # The hint also binds the replan, so the episode re-chooses the
        # same scan: accounted as a false trip, answer still exact.
        _, episode, truth_rows = self.run_mode(synthetic_db)
        assert episode.false_trip and not episode.switched
        assert episode.executed.result.rows == truth_rows


class TestNonPoisoning:
    """A tripped episode must leave shared planning state untouched:
    no feedback-epoch bump, no lower-bound plan published in the cache."""

    def test_partial_harvest_leaves_epoch_untouched(self, synthetic_db):
        generated = generated_query(synthetic_db, "c2")
        session, episode = run_episode(synthetic_db, generated)
        assert episode.partials_recorded >= 1
        assert session.feedback.epoch == 0
        assert session.feedback.partial_writes == 1
        harvest = session.last_trace.stage("reopt-harvest")
        assert harvest is not None and "epoch untouched" in harvest.detail

    def test_replan_bypasses_the_plan_cache(self, synthetic_db):
        generated = generated_query(synthetic_db, "c2")
        session = Session(
            database=synthetic_db,
            injections=generated.injections(),
            plan_cache=PlanCache(),
        )
        requests = tuple(default_requests(synthetic_db, generated.query))

        # Prime the cache with the (bad) plan the optimizer believes in.
        session.run(generated.query, requests=requests, exec_mode="batch")
        primed, trace = session.lifecycle().plan(generated.query)
        assert trace.cache_event == "hit"

        episode = run_with_reopt(
            session, generated.query, requests=requests, exec_mode="batch"
        )
        assert episode.tripped and episode.switched
        replan = session.last_trace.stage("reopt-replan")
        assert replan is not None and "cache=bypassed" in replan.detail

        # The cached entry still serves the original plan: the switched
        # plan (built from partial lower bounds) was never published.
        cached_after, trace_after = session.lifecycle().plan(generated.query)
        assert trace_after.cache_event == "hit"
        assert cached_after.signature() == primed.signature()
        assert cached_after.signature() != episode.final_plan.signature()
