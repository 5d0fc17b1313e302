"""RegretWatchdog behaviour: trips, guards and cancellation semantics.

Uses the shared 20k-row synthetic database.  On the correlated column c2
(which exactly tracks the clustering order) the analytic page-count
model grossly overestimates DPC, so a monitored sequential scan's
projection diverges early and the watchdog must trip; on the
uncorrelated column c5 the projection tracks the estimate and the
watchdog must stay quiet.
"""

from __future__ import annotations

import pytest

from repro.common.cancellation import CancellationToken
from repro.common.errors import QueryCancelled, ReoptRequested
from repro.harness.methodology import default_requests
from repro.reopt import RegretWatchdog, run_with_reopt
from repro.reopt import watchdog as watchdog_module
from repro.session import Session
from repro.workloads.queries import single_table_workload


def generated_query(database, column: str):
    """One exact-cardinality query at a selectivity where SeqScan wins."""
    return single_table_workload(
        database,
        "t",
        columns=(column,),
        queries_per_column=1,
        seed=3,
        selectivity_range=(0.01, 0.05),
    )[0]


def run_episode(database, generated, **kwargs):
    session = Session(database=database, injections=generated.injections())
    episode = run_with_reopt(
        session,
        generated.query,
        requests=tuple(default_requests(database, generated.query)),
        exec_mode="batch",
        **kwargs,
    )
    return session, episode


def run_first_leg(database, generated, cancellation=None):
    """The watched plan alone, up to its trip: the checks ``cancellation``
    has passed when the watchdog raises are the trip checkpoint's."""
    session = Session(database=database, injections=generated.injections())
    plan, _ = session.lifecycle().plan(generated.query)
    session.lifecycle().run_plan(
        generated.query,
        plan,
        requests=tuple(default_requests(database, generated.query)),
        exec_mode="batch",
        cancellation=cancellation,
        watchdog=RegretWatchdog(database, injections=session.injections.copy()),
    )


def trip_checks(database, generated) -> int:
    """How many checkpoints a free caller token passes up to the trip."""
    token = CancellationToken()
    with pytest.raises(ReoptRequested):
        run_first_leg(database, generated, cancellation=token)
    return token.checks


class TestTripping:
    def test_correlated_scan_trips(self, synthetic_db):
        generated = generated_query(synthetic_db, "c2")
        _, episode = run_episode(synthetic_db, generated)
        assert episode.tripped
        assert "q-error" in episode.trip_detail
        assert episode.partials_recorded >= 1

    def test_uncorrelated_scan_stays_quiet(self, synthetic_db):
        generated = generated_query(synthetic_db, "c5")
        _, episode = run_episode(synthetic_db, generated)
        assert not episode.tripped
        assert episode.trip_detail == ""
        assert episode.partials_recorded == 0

    def test_quiet_run_still_attaches_watchdog(self, synthetic_db):
        generated = generated_query(synthetic_db, "c5")
        session, _ = run_episode(synthetic_db, generated)
        stage = session.last_trace.stage("monitor-plan")
        assert stage is not None and "watchdog" in stage.detail


class TestGuards:
    def test_hysteresis_blocks_single_breach(self, synthetic_db, monkeypatch):
        monkeypatch.setattr(watchdog_module, "HYSTERESIS_CHECKS", 10_000)
        generated = generated_query(synthetic_db, "c2")
        _, episode = run_episode(synthetic_db, generated)
        assert not episode.tripped

    def test_min_pages_floor_blocks_trip(self, synthetic_db, monkeypatch):
        monkeypatch.setattr(watchdog_module, "MIN_PAGES", 10**6)
        generated = generated_query(synthetic_db, "c2")
        _, episode = run_episode(synthetic_db, generated)
        assert not episode.tripped

    def test_high_trip_ratio_never_fires(self, synthetic_db, monkeypatch):
        monkeypatch.setattr(watchdog_module, "TRIP_RATIO", 1e9)
        generated = generated_query(synthetic_db, "c2")
        _, episode = run_episode(synthetic_db, generated)
        assert not episode.tripped


class TestCancellationSemantics:
    def test_watchdog_raises_its_own_trip(self, synthetic_db):
        # No caller token at all: the watchdog needs none to stop a run.
        generated = generated_query(synthetic_db, "c2")
        with pytest.raises(ReoptRequested) as caught:
            run_first_leg(synthetic_db, generated)
        assert "q-error" in str(caught.value)

    def test_reopt_requested_is_a_query_cancelled(self):
        # Existing except-QueryCancelled handlers (deadline bookkeeping,
        # slot release) must see a reopt trip like any other cancel.
        assert issubclass(ReoptRequested, QueryCancelled)

    def test_deadline_at_the_trip_is_not_upgraded(self, synthetic_db):
        # The token is consulted before the watchdog at every checkpoint,
        # so a deadline landing on the trip boundary stays a plain cancel.
        generated = generated_query(synthetic_db, "c2")
        token = CancellationToken(
            cancel_after_checks=trip_checks(synthetic_db, generated)
        )
        with pytest.raises(QueryCancelled) as caught:
            run_episode(synthetic_db, generated, cancellation=token)
        assert not isinstance(caught.value, ReoptRequested)
        assert "cancel_after_checks" in str(caught.value)

    def test_deadline_covers_the_switched_leg(self, synthetic_db):
        # One check past the trip: the first leg trips, and the caller's
        # token must still stop the switched (restart) leg.
        generated = generated_query(synthetic_db, "c2")
        token = CancellationToken(
            cancel_after_checks=trip_checks(synthetic_db, generated) + 1
        )
        session = Session(
            database=synthetic_db, injections=generated.injections()
        )
        with pytest.raises(QueryCancelled) as caught:
            run_with_reopt(
                session,
                generated.query,
                requests=tuple(
                    default_requests(synthetic_db, generated.query)
                ),
                exec_mode="batch",
                cancellation=token,
            )
        assert not isinstance(caught.value, ReoptRequested)
        assert session.last_trace.stage("reopt-restart") is not None

    def test_cancelled_caller_token_propagates_not_trips(self, synthetic_db):
        generated = generated_query(synthetic_db, "c2")
        token = CancellationToken()
        token.cancel("deadline exceeded")
        session = Session(
            database=synthetic_db, injections=generated.injections()
        )
        with pytest.raises(QueryCancelled) as caught:
            run_with_reopt(
                session,
                generated.query,
                requests=tuple(
                    default_requests(synthetic_db, generated.query)
                ),
                exec_mode="batch",
                cancellation=token,
            )
        assert not isinstance(caught.value, ReoptRequested)
