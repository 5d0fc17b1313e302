"""The multi-process worker tier behind the admission controller.

The contract under test: execution fans out to worker processes, but
nothing observable changes — responses carry the same rows and
observations as the in-process path, the coordinator keeps the one
authoritative feedback store (harvests land atomically, replicas ship
one way), deadlines still cancel work without leaking slots, and
shutdown reaps every worker process.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.common.cancellation import CancellationToken
from repro.common.errors import QueryCancelled, WorkerError
from repro.engine import Engine, WorkloadItem
from repro.harness.loadgen import (
    LoadSpec,
    diff_against_serial,
    run_closed_loop,
    workload_items,
)
from repro.harness.reporting import format_worker_table
from repro.service import (
    QUERY_ERROR,
    QueryRequest,
    QueryService,
    WorkerOutcome,
    WorkerPool,
    WorkerSpec,
)
from repro.service.worker_main import _CurrentQuery, _serve_query
from repro.workloads import build_synthetic_database

#: Small but real: enough rows that scans cross many pages (checkpoints
#: fire), small enough that spawning workers stays cheap.
FACTORY_KWARGS = {"num_rows": 1500, "seed": 11}
SPEC = WorkerSpec(
    "repro.workloads:build_synthetic_database", dict(FACTORY_KWARGS)
)

SCAN_SQL = "SELECT count(padding) FROM t WHERE c2 < 300"
OTHER_SQL = "SELECT count(padding) FROM t WHERE c3 < 250"


@pytest.fixture(scope="module")
def worker_db():
    return build_synthetic_database(**FACTORY_KWARGS)


@pytest.fixture(scope="module")
def pool(worker_db):
    """One 2-worker pool shared by the non-destructive tests."""
    engine = Engine(worker_db)
    pool = WorkerPool(SPEC, num_workers=2, engine=engine)
    yield pool
    pool.shutdown()
    assert pool.leaked_workers() == []


def serve(pool, requests, **service_kwargs):
    """Run requests through a fresh service sharing the module pool."""
    engine = Engine(pool.engine.database)
    pool.rebind_engine(engine)

    async def scenario():
        service = QueryService(
            engine, worker_pool=pool, **service_kwargs
        )
        responses = [await service.handle(r) for r in requests]
        stats = await service.stats()
        # Settle telemetry/engine but keep the module-scoped pool alive.
        service.worker_pool = None
        await service.shutdown()
        return service, responses, stats

    return asyncio.run(scenario())


class TestExecutionEquivalence:
    def test_rows_and_observations_match_in_process(self, worker_db, pool):
        _, responses, _ = serve(
            pool, [QueryRequest(sql=SCAN_SQL, request_id="q1")]
        )
        response = responses[0]
        assert response.ok, response.error
        reference = Engine(worker_db)
        item = workload_items(worker_db, [SCAN_SQL])[0]
        executed = reference.execute(item)
        assert response.rows == [list(r) for r in executed.result.rows]
        assert response.columns == list(executed.result.columns)
        assert (
            response.runstats["page_counts"]
            == executed.result.runstats.to_dict()["page_counts"]
        )

    def test_closed_loop_diffs_clean_and_slots_conserved(
        self, worker_db, pool
    ):
        engine = Engine(worker_db)
        pool.rebind_engine(engine)

        async def scenario():
            service = QueryService(
                engine,
                max_in_flight=4,
                max_queue_depth=64,
                worker_pool=pool,
            )
            report = await run_closed_loop(
                service, LoadSpec(concurrency=6, passes=2)
            )
            service.worker_pool = None
            await service.shutdown()
            return report

        report = asyncio.run(scenario())
        assert report.status_counts() == {"ok": report.total_requests}
        assert report.leaked is None
        assert diff_against_serial(worker_db, report) == []


class TestCentralizedFeedback:
    def test_remember_harvests_into_coordinator_store(
        self, worker_db, pool
    ):
        _, responses, _ = serve(
            pool,
            [QueryRequest(sql=SCAN_SQL, request_id="h1", remember=True)],
        )
        assert responses[0].ok
        engine = pool.engine
        assert engine.feedback.epoch == 1
        assert len(engine.feedback) >= 1
        # Bit-identical to an in-process harvest of the same query.
        reference = Engine(worker_db)
        item = workload_items(worker_db, [SCAN_SQL])[0]
        reference.execute(
            WorkloadItem(
                query=item.query, requests=item.requests, remember=True
            )
        )
        assert engine.feedback.to_json() == reference.feedback.to_json()

    def test_use_feedback_ships_replica_once_per_epoch(
        self, worker_db, pool
    ):
        _, _, stats = serve(
            pool,
            [
                QueryRequest(sql=SCAN_SQL, request_id="h1", remember=True),
                QueryRequest(
                    sql=SCAN_SQL, request_id="f1", use_feedback=True
                ),
                QueryRequest(
                    sql=SCAN_SQL, request_id="f2", use_feedback=True
                ),
            ],
        )
        workers = stats["workers"]["workers"]
        # Whichever worker(s) served the use_feedback queries hold the
        # harvested epoch; nobody holds a *newer* one.
        assert any(w["synced_epoch"] == 1 for w in workers)
        assert all(w["synced_epoch"] <= 1 for w in workers)

    def test_zero_answerable_harvest_is_a_noop(self, worker_db, pool):
        # monitor=False → no observations → remember must not bump.
        _, responses, _ = serve(
            pool,
            [
                QueryRequest(
                    sql=SCAN_SQL,
                    request_id="n1",
                    remember=True,
                    monitor=False,
                )
            ],
        )
        assert responses[0].ok
        assert pool.engine.feedback.epoch == 0
        assert len(pool.engine.feedback) == 0

    def test_malformed_harvest_entry_is_a_worker_error(self, pool):
        """A ``remember`` reply's page counts come from another process:
        an entry ``from_wire`` rejects fails the request as a typed
        ``WorkerError`` and files nothing."""
        outcome = WorkerOutcome(
            rows=[], columns=[], runstats={"page_counts": [{"table": "t"}]}
        )
        epoch = pool.engine.feedback.epoch
        with pytest.raises(WorkerError, match="malformed wire observation"):
            pool.harvest(QueryRequest(sql=SCAN_SQL, remember=True), outcome)
        assert pool.engine.feedback.epoch == epoch


    def test_corrupt_replica_answers_a_typed_feedback_error(self, worker_db):
        """The child rebuilds its replica with ``FeedbackStore.from_json``;
        a payload that fails validation is a query error, not an internal
        one (no worker process needed: the serve function is the child)."""
        reply = _serve_query(
            Engine(worker_db),
            {
                "seq": 1,
                "feedback": '{"version": 1, "records": '
                '[{"key": "DPC(t, c2 < 300)", "page_count": "many"}]}',
                "request": QueryRequest(
                    sql=SCAN_SQL, use_feedback=True
                ).to_dict(),
            },
            _CurrentQuery(),
        )
        assert reply["status"] == "error"
        assert reply["code"] == QUERY_ERROR
        assert reply["message"].startswith("FeedbackError:")


class TestCancellation:
    def test_precancelled_token_never_spends_a_worker(self, pool):
        served_before = sum(
            w["queries_served"] for w in pool.snapshot()["workers"]
        )
        token = CancellationToken()
        token.cancel("deadline of 1.0ms exceeded")
        with pytest.raises(QueryCancelled):
            pool.execute(
                QueryRequest(sql=SCAN_SQL, request_id="c1"),
                token=token,
                monitor=True,
            )
        served_after = sum(
            w["queries_served"] for w in pool.snapshot()["workers"]
        )
        assert served_after == served_before

    def test_cancel_crosses_the_pipe_and_recycles_the_worker(self, pool):
        # Park the query on the worker (checkpointing), then cancel from
        # a client thread: the pool forwards the cancel over the cancel
        # pipe and the worker stops at its next checkpoint — recycled,
        # not killed.
        token = CancellationToken()
        timer = threading.Timer(0.2, token.cancel, args=("client gone",))
        timer.start()
        try:
            with pytest.raises(QueryCancelled):
                pool.execute(
                    QueryRequest(sql=SCAN_SQL, request_id="c2"),
                    token=token,
                    monitor=False,
                    debug={"hold_s": 30.0},
                )
        finally:
            timer.cancel()
        assert pool.snapshot()["restarts"] == 0
        outcome = pool.execute(
            QueryRequest(sql=OTHER_SQL, request_id="c3"), monitor=False
        )
        assert outcome.rows


class TestTelemetryAndStats:
    def test_stats_carry_worker_section_and_gauges(self, pool):
        service, responses, stats = serve(
            pool, [QueryRequest(sql=SCAN_SQL, request_id="t1")]
        )
        assert responses[0].ok
        workers = stats["workers"]
        assert workers["num_workers"] == 2
        assert workers["busy"] == 0 and workers["idle"] == 2
        assert len(workers["workers"]) == 2
        assert sum(w["queries_served"] for w in workers["workers"]) >= 1
        snapshot = stats["telemetry"]
        assert snapshot["counters"]["worker_restarts"] == 0
        assert snapshot["gauges"]["workers_idle"] == 2
        assert snapshot["gauges"]["workers_busy"] == 0

    def test_worker_table_renders(self, pool):
        text = format_worker_table(pool.snapshot())
        assert "workers: 2" in text
        assert "respawns" in text


class TestPoolLifecycle:
    def test_shutdown_reaps_processes_and_refuses_work(self, worker_db):
        engine = Engine(worker_db)
        pool = WorkerPool(SPEC, num_workers=1, engine=engine)
        outcome = pool.execute(
            QueryRequest(sql=SCAN_SQL, request_id="s1"), monitor=False
        )
        assert outcome.rows
        pool.shutdown()
        assert pool.leaked_workers() == []
        with pytest.raises(WorkerError):
            pool.execute(
                QueryRequest(sql=SCAN_SQL, request_id="s2"), monitor=False
            )

    def test_rejects_nonpositive_worker_count(self, worker_db):
        with pytest.raises(WorkerError):
            WorkerPool(SPEC, num_workers=0, engine=Engine(worker_db))

    def test_rejects_malformed_factory_path(self):
        with pytest.raises(WorkerError):
            WorkerSpec("not-a-dotted-path", {})
