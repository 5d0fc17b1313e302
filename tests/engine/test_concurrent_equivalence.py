"""Concurrent-workload equivalence through the query service.

N concurrent clients of the query service, queued onto its one engine
thread, must produce per-query rows, physical-read counts,
simulated time and page-count observations *identical* to running the
same queries serially with a cold cache
(:func:`~repro.harness.loadgen.diff_against_serial`).  Before the
per-execution IOContext refactor this was impossible: RunStats were
deltas of a global clock, so any interleaving corrupted them.
"""

from __future__ import annotations

import asyncio

from repro.core.requests import AccessPathRequest
from repro.engine import Engine, WorkloadItem
from repro.harness.loadgen import (
    LoadSpec,
    diff_against_serial,
    run_closed_loop,
    workload_items,
)
from repro.optimizer import SingleTableQuery
from repro.service import QueryRequest, QueryService
from repro.session import Session
from repro.sql import Comparison, conjunction_of

#: Eight single-table queries over four columns.
CUTS = [
    ("c2", 300),
    ("c2", 700),
    ("c2", 1_100),
    ("c3", 250),
    ("c3", 650),
    ("c4", 5_000),
    ("c4", 15_000),
    ("c5", 9_000),
]
SQLS = tuple(
    f"SELECT count(padding) FROM t WHERE {column} < {cut}" for column, cut in CUTS
)


def query_on(column: str, cut: int) -> SingleTableQuery:
    return SingleTableQuery(
        "t", conjunction_of(Comparison(column, "<", cut)), "padding"
    )


def workload() -> list[WorkloadItem]:
    """The eight queries, each with a monitored page-count request on its
    own predicate."""
    items = []
    for column, cut in CUTS:
        query = query_on(column, cut)
        items.append(
            WorkloadItem(
                query=query,
                requests=(AccessPathRequest("t", query.predicate),),
            )
        )
    return items


def serve(engine: Engine, scenario):
    """Run ``scenario(service)`` against a 4-wide service over ``engine``."""

    async def run():
        service = QueryService(engine, max_in_flight=4)
        try:
            return await scenario(service)
        finally:
            await service.shutdown()

    return asyncio.run(run())


class TestConcurrentEquivalence:
    def test_concurrent_matches_serial_exactly(self, synthetic_db):
        """8 clients, 4 admitted at a time: rows, physical reads, elapsed
        time and observation fingerprints match a serial replay
        query-for-query."""
        spec = LoadSpec(sqls=SQLS, concurrency=8, passes=1)
        report = serve(
            Engine(synthetic_db), lambda service: run_closed_loop(service, spec)
        )
        assert report.ok_count == len(SQLS)
        for response in report.responses:
            # The workload genuinely reads and monitors something.
            runstats = response.runstats
            assert runstats["page_counts"]
            assert runstats["random_reads"] + runstats["sequential_reads"] > 0
        assert diff_against_serial(synthetic_db, report) == []

    def test_equivalence_report(self, synthetic_db):
        """The serial-equivalence verdict compares every one of the 8
        requests against a serial replay that genuinely reads pages, and
        names each request whose answer diverges."""
        spec = LoadSpec(sqls=SQLS, concurrency=8, passes=1)
        report = serve(
            Engine(synthetic_db), lambda service: run_closed_loop(service, spec)
        )
        assert len(report.responses) == 8
        assert all(response.ok for response in report.responses)
        assert diff_against_serial(synthetic_db, report) == []
        serial = Engine(synthetic_db).run_serial(
            workload_items(synthetic_db, SQLS)
        )
        assert all(run.result.runstats.physical_reads > 0 for run in serial)

        for response in report.responses:
            response.rows = []
        mismatches = diff_against_serial(synthetic_db, report)
        assert len(mismatches) == 8
        assert sorted(m.split(":")[0] for m in mismatches) == sorted(
            response.request_id for response in report.responses
        )

    def test_matches_plain_cold_cache_session(self, synthetic_db):
        """An Engine execution reproduces a standalone Session run (each on
        a fresh, cold context) read-for-read."""
        engine = Engine(synthetic_db)
        for item in workload()[:3]:
            standalone = Session(synthetic_db).run(item.query, requests=item.requests)
            engine_run = engine.execute(item)
            assert (
                standalone.result.runstats.physical_reads
                == engine_run.result.runstats.physical_reads
            )
            assert standalone.result.rows == engine_run.result.rows


class TestSharedFeedback:
    def test_concurrent_remembering_is_serialized(self, synthetic_db):
        """Eight ``remember`` requests in flight at once write one
        FeedbackStore without losing records (each batch lands on the
        engine thread)."""
        engine = Engine(synthetic_db)

        async def remember_all(service):
            return await asyncio.gather(
                *(
                    service.handle(QueryRequest(sql=sql, remember=True))
                    for sql in SQLS
                )
            )

        responses = serve(engine, remember_all)
        assert all(response.ok for response in responses)
        # Every request monitored one distinct expression -> 8 records,
        # filed in 8 batches.
        assert len(engine.feedback) == 8
        assert engine.feedback.epoch == 8

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
        # Every session writes the engine's one store instance.
        engine = Engine(synthetic_db)
        first, second = engine.session(), engine.session()
        assert first.feedback is engine.feedback
        assert second.feedback is engine.feedback

    def test_eight_threads_remembering_bump_once_per_nonempty_batch(
        self, synthetic_db
    ):
        """Eight sessions remembering in turn share one store: the epoch
        advances exactly once per batch that stored something, and an
        unmonitored run's empty batch never bumps it."""
        engine = Engine(synthetic_db)
        monitored = [engine.execute(item) for item in workload()[:3]]
        unmonitored = engine.execute(WorkloadItem(query=query_on("c5", 400)))
        assert all(run.observations for run in monitored)
        assert not unmonitored.observations
        rounds, num_sessions = 25, 8
        sessions = [engine.session() for _ in range(num_sessions)]
        for _ in range(rounds):
            for session in sessions:
                for run in (*monitored, unmonitored):
                    session.remember(run)
        assert engine.feedback.epoch == num_sessions * rounds * len(monitored)
        assert len(engine.feedback) == len(monitored)
