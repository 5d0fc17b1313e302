"""Concurrent-workload equivalence: the tentpole's proof obligation.

N queries interleaved on K threads against one :class:`Engine` must
produce per-query rows, physical-read counts and page-count observations
*identical* to running the same queries serially with a cold cache.
Before the per-execution IOContext refactor this was impossible: RunStats
were deltas of a global clock, so any interleaving corrupted them.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.core.requests import AccessPathRequest
from repro.engine import Engine, WorkloadItem
from repro.optimizer import SingleTableQuery
from repro.session import Session
from repro.sql import Comparison, conjunction_of


def query_on(column: str, cut: int) -> SingleTableQuery:
    return SingleTableQuery(
        "t", conjunction_of(Comparison(column, "<", cut)), "padding"
    )


def workload() -> list[WorkloadItem]:
    """Eight single-table queries over four columns, each with a monitored
    page-count request on its own predicate."""
    items = []
    for column, cut in [
        ("c2", 300),
        ("c2", 700),
        ("c2", 1_100),
        ("c3", 250),
        ("c3", 650),
        ("c4", 5_000),
        ("c4", 15_000),
        ("c5", 9_000),
    ]:
        query = query_on(column, cut)
        items.append(
            WorkloadItem(
                query=query,
                requests=(AccessPathRequest("t", query.predicate),),
            )
        )
    return items


class TestConcurrentEquivalence:
    def test_concurrent_matches_serial_exactly(self, synthetic_db):
        """8 queries, 4 threads: rows, physical reads and observations
        must match serial execution query-for-query."""
        items = workload()
        assert len(items) >= 8

        engine = Engine(synthetic_db)
        serial = engine.run_serial(items)
        concurrent = engine.run_concurrent(items, num_threads=4)

        assert len(serial) == len(concurrent) == len(items)
        for ser, conc in zip(serial, concurrent):
            assert ser.result.rows == conc.result.rows
            ser_stats, conc_stats = ser.result.runstats, conc.result.runstats
            assert ser_stats.physical_reads == conc_stats.physical_reads
            assert ser_stats.random_reads == conc_stats.random_reads
            assert ser_stats.sequential_reads == conc_stats.sequential_reads
            assert ser_stats.elapsed_ms == conc_stats.elapsed_ms
            # Page-count observations: same requests answered, same
            # mechanisms, same estimates.
            ser_obs = [
                (o.key, o.mechanism, o.answered, o.estimate, o.exact)
                for o in ser.observations
            ]
            conc_obs = [
                (o.key, o.mechanism, o.answered, o.estimate, o.exact)
                for o in conc.observations
            ]
            assert ser_obs == conc_obs
            assert ser_obs  # the workload genuinely monitors something

    def test_matches_plain_cold_cache_session(self, synthetic_db):
        """An Engine execution (isolated context) reproduces a standalone
        cold-cache Session run (shared pool) read-for-read."""
        engine = Engine(synthetic_db)
        for item in workload()[:3]:
            standalone = Session(synthetic_db).run(
                item.query, requests=item.requests, cold_cache=True
            )
            engine_run = engine.execute(item)
            assert (
                standalone.result.runstats.physical_reads
                == engine_run.result.runstats.physical_reads
            )
            assert standalone.result.rows == engine_run.result.rows

    def test_equivalence_report(self, synthetic_db):
        report = Engine(synthetic_db).equivalence_report(
            workload(), num_threads=4
        )
        assert len(report.comparisons) == 8
        assert report.equivalent
        assert report.mismatches() == []
        assert all(c.serial_physical_reads > 0 for c in report.comparisons)

    def test_more_threads_than_items_is_fine(self, synthetic_db):
        engine = Engine(synthetic_db)
        results = engine.run_concurrent(workload()[:2], num_threads=6)
        assert len(results) == 2

    def test_worker_errors_propagate(self, synthetic_db):
        engine = Engine(synthetic_db)
        bad = WorkloadItem(query=query_on("no_such_column", 1))
        with pytest.raises(Exception):
            engine.run_concurrent([bad], num_threads=2)


class TestSharedFeedback:
    def test_concurrent_remembering_is_serialized(self, synthetic_db):
        """All threads write observations into one FeedbackStore without
        losing records (the store serializes each batch)."""
        engine = Engine(synthetic_db)
        items = [
            WorkloadItem(
                query=q.query, requests=q.requests, remember=True
            )
            for q in workload()
        ]
        engine.run_concurrent(items, num_threads=4)
        # Every item monitored one distinct expression -> 8 records.
        assert len(engine.feedback) == 8

    def test_feedback_visible_to_later_sessions(self, synthetic_db):
        engine = Engine(synthetic_db)
        item = workload()[1]  # c2 < 700
        engine.execute(
            WorkloadItem(query=item.query, requests=item.requests, remember=True)
        )
        follow_up = engine.session()
        plan = follow_up.optimize(item.query, use_feedback=True)
        assert plan is not None
        assert len(engine.feedback) == 1

    def test_sessions_share_lock_instance(self, synthetic_db):
        # The store is the shared instance, and the one lock is its own.
        engine = Engine(synthetic_db)
        first, second = engine.session(), engine.session()
        assert first.feedback is engine.feedback
        assert second.feedback is engine.feedback

    def test_eight_threads_remembering_bump_once_per_nonempty_batch(
        self, synthetic_db
    ):
        """No lock above the store: ``Session.remember`` from 8 threads
        advances the epoch exactly once per batch that stored something
        (a lost or doubled ``_bump`` would miss the count)."""
        engine = Engine(synthetic_db)
        monitored = [engine.execute(item) for item in workload()[:3]]
        unmonitored = engine.execute(WorkloadItem(query=query_on("c5", 400)))
        assert all(run.observations for run in monitored)
        assert not unmonitored.observations
        rounds, num_threads = 25, 8
        gate = threading.Barrier(num_threads)
        failures: list[Exception] = []

        def remember_all() -> None:
            session = engine.session()
            try:
                gate.wait(timeout=10.0)
                for _ in range(rounds):
                    for run in (*monitored, unmonitored):
                        session.remember(run)
            except Exception as exc:  # surfaced by the assert below
                failures.append(exc)

        threads = [
            threading.Thread(target=remember_all) for _ in range(num_threads)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not failures and not any(t.is_alive() for t in threads)
        assert engine.feedback.epoch == num_threads * rounds * len(monitored)
        assert len(engine.feedback) == len(monitored)
