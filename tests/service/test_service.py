"""End-to-end service behaviour over the in-process transport.

The deadline tests are the heart of the satellite contract: a query that
times out mid-scan or mid-probe must answer ``DEADLINE_EXCEEDED``,
release its admission slot (the next query on a width-1 service runs),
and must NOT bump the shared feedback epoch even when the request asked
to ``remember`` — a partial run's observations are not evidence.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.common.errors import EngineError
from repro.engine import Engine
from repro.service import (
    BAD_REQUEST,
    DEADLINE_EXCEEDED,
    INTERNAL_ERROR,
    QUERY_ERROR,
    SERVICE_SHUTTING_DOWN,
    QueryRequest,
    QueryService,
)

SCAN_SQL = "SELECT count(padding) FROM t WHERE c2 < 900"
JOIN_SQL = (
    "SELECT count(t.padding) FROM t, t1 WHERE t1.c1 < 1000 AND t1.c2 = t.c2"
)
#: What a request that must still be running asks for: a full table scan
#: whose two terms hold on every row, 20-37 ms on the row oracle on a
#: 2-vCPU Xeon.  ``SCAN_SQL`` takes 7-13 ms there, within two GIL switch
#: intervals (5 ms) of the time a 1 ms deadline needs to fire: its timer
#: runs on the event loop, which waits for the engine thread's GIL.
SLOW_SQL = "SELECT count(padding) FROM t WHERE c5 >= 0 AND c3 >= 0"

#: Far below the queries' execution cost on the row oracle (tens of ms;
#: the batch drive finishes in about a millisecond, so tests that need a
#: query still running ask for ``exec_mode="row"`` by name), far above
#: timer resolution — the deadline reliably fires at an executor
#: checkpoint.
TINY_DEADLINE_MS = 1.0


def slow_request(request_id: str) -> QueryRequest:
    """A scan on the row oracle: still running when the test looks."""
    return QueryRequest(sql=SLOW_SQL, request_id=request_id, exec_mode="row")


def serve_one(engine: Engine, request: QueryRequest, **service_kwargs):
    async def scenario():
        service = QueryService(engine, **service_kwargs)
        response = await service.handle(request)
        return service, response

    return asyncio.run(scenario())


class TestHappyPath:
    def test_query_returns_rows_stats_and_trace(self, synthetic_db):
        engine = Engine(synthetic_db)
        _, response = serve_one(
            engine,
            QueryRequest(sql=SCAN_SQL, request_id="q1", remember=True),
        )
        assert response.ok, response.error
        assert response.rows == [[900]]
        assert response.columns == ["count(padding)"] or response.columns
        assert response.runstats is not None
        assert "lifecycle" in response.runstats
        assert response.runstats["page_counts"], "monitoring was attached"
        assert response.service_ms >= response.queue_wait_ms >= 0
        assert engine.feedback.epoch == 1  # remember=True harvested

    def test_wire_request_without_exec_mode_runs_the_batch_drive(
        self, synthetic_db
    ):
        request = QueryRequest.from_dict({"kind": "query", "sql": SCAN_SQL})
        _, response = serve_one(Engine(synthetic_db), request)
        assert response.ok, response.error
        assert response.runstats["execution_mode"] == "batch"

    def test_monitor_off_skips_page_counts(self, synthetic_db):
        _, response = serve_one(
            Engine(synthetic_db),
            QueryRequest(sql=SCAN_SQL, request_id="q1", monitor=False),
        )
        assert response.ok
        assert response.runstats["page_counts"] == []

    def test_unspecified_monitor_uses_service_default(self, synthetic_db):
        _, response = serve_one(
            Engine(synthetic_db),
            QueryRequest(sql=SCAN_SQL, request_id="q1"),  # monitor=None
        )
        assert response.ok
        assert response.runstats["page_counts"], "monitor=None is monitored"

    def test_telemetry_counts_completion(self, synthetic_db):
        service, response = serve_one(
            Engine(synthetic_db), QueryRequest(sql=SCAN_SQL)
        )
        assert response.ok
        assert service.telemetry.counter("admitted") == 1
        assert service.telemetry.counter("completed") == 1
        assert service.telemetry.histogram("execution_ms")["count"] == 1
        assert service.telemetry.histogram("rows_returned")["max"] == 1.0
        assert service.telemetry.leaked_slots() is None


class TestErrorMapping:
    def test_unparseable_sql_is_bad_request(self, synthetic_db):
        service, response = serve_one(
            Engine(synthetic_db), QueryRequest(sql="SELECT nonsense")
        )
        assert response.error_code == BAD_REQUEST
        assert service.telemetry.counter("failed") == 1

    def test_unknown_table_is_query_error(self, synthetic_db):
        _, response = serve_one(
            Engine(synthetic_db),
            QueryRequest(sql="SELECT count(z) FROM ghost WHERE z < 5"),
        )
        assert response.error_code == QUERY_ERROR

    def test_bad_hint_is_bad_request(self, synthetic_db):
        _, response = serve_one(
            Engine(synthetic_db),
            QueryRequest(sql=SCAN_SQL, hint={"flavor": "fast"}),
        )
        assert response.error_code == BAD_REQUEST

    def test_reopt_on_a_sharded_engine_is_query_error(self, synthetic_db):
        """The coordinator cannot re-optimize mid-query; it must say so
        rather than answer a plain result that looks watched."""
        from repro.shard import ShardCoordinator

        service, response = serve_one(
            ShardCoordinator(synthetic_db, num_shards=2),
            QueryRequest(sql=SCAN_SQL, reopt=True),
        )
        assert response.error_code == QUERY_ERROR
        assert "re-optimization" in response.error
        assert service.telemetry.leaked_slots() is None

    def test_engine_crash_is_internal_error(self, synthetic_db):
        async def scenario():
            service = QueryService(Engine(synthetic_db))
            def boom(request, token):
                raise RuntimeError("kaboom")
            service._execute_blocking = boom
            response = await service.handle(QueryRequest(sql=SCAN_SQL))
            return service, response

        service, response = asyncio.run(scenario())
        assert response.error_code == INTERNAL_ERROR
        assert "kaboom" in response.error
        assert service.telemetry.counter("failed") == 1
        assert service.telemetry.leaked_slots() is None


class TestDeadlines:
    @pytest.mark.parametrize("sql_kind", ["scan", "probe"])
    def test_deadline_expiry_releases_slot_and_epoch(
        self, join_db, sql_kind
    ):
        """Timeout mid-scan / mid-probe: slot freed, no epoch bump."""
        sql = SLOW_SQL if sql_kind == "scan" else JOIN_SQL
        engine = Engine(join_db)

        async def scenario():
            service = QueryService(engine, max_in_flight=1, max_queue_depth=1)
            timed_out = await service.handle(
                QueryRequest(
                    sql=sql,
                    request_id="doomed",
                    exec_mode="row",
                    remember=True,  # must still not bump the epoch
                    deadline_ms=TINY_DEADLINE_MS,
                )
            )
            # The slot must be free again: the next query on this
            # width-1 service runs to completion.
            follow_up = await service.handle(
                QueryRequest(sql=sql, request_id="after")
            )
            return service, timed_out, follow_up

        service, timed_out, follow_up = asyncio.run(scenario())
        assert timed_out.error_code == DEADLINE_EXCEEDED
        assert "deadline" in timed_out.error
        assert follow_up.ok, follow_up.error
        assert service.telemetry.counter("timed_out") == 1
        assert service.telemetry.counter("completed") == 1
        assert service.admission.in_flight == 0
        assert service.telemetry.leaked_slots() is None
        # the partial run never reached harvest:
        assert engine.feedback.epoch == 0
        assert len(engine.feedback) == 0

    def test_deadline_spent_in_queue_rejects_without_running(
        self, synthetic_db
    ):
        engine = Engine(synthetic_db)

        async def scenario():
            service = QueryService(engine, max_in_flight=1, max_queue_depth=2)
            blocker = asyncio.ensure_future(
                service.handle(slow_request("slow"))
            )
            while service.admission.in_flight == 0:
                await asyncio.sleep(0.001)
            doomed = await service.handle(
                QueryRequest(
                    sql=SCAN_SQL, request_id="late", deadline_ms=0.001
                )
            )
            # The expired request must leave the queue promptly, not
            # hold its queue slot until the blocker finishes.
            answered_before_blocker = not blocker.done()
            first = await blocker
            return service, first, doomed, answered_before_blocker

        service, first, doomed, prompt = asyncio.run(scenario())
        assert first.ok
        assert doomed.error_code == DEADLINE_EXCEEDED
        assert "waiting for admission" in doomed.error
        assert prompt, "expired request waited for admission anyway"
        assert service.admission.queue_depth == 0
        assert service.telemetry.counter("rejected") == 1
        assert service.telemetry.leaked_slots() is None

    def test_deadline_spent_waiting_for_the_engine_thread_never_runs(
        self, synthetic_db
    ):
        """Admitted behind a running query, a request whose deadline fires
        while it waits for the one engine thread is withdrawn: it answers
        before the running query finishes and never plans or executes."""
        engine = Engine(synthetic_db)

        async def scenario():
            service = QueryService(engine, max_in_flight=2, max_queue_depth=2)
            running = asyncio.ensure_future(
                service.handle(slow_request("running"))
            )

            async def started():
                while engine.active_executions == 0:
                    await asyncio.sleep(0.0005)

            await asyncio.wait_for(started(), timeout=5.0)
            doomed = await service.handle(
                QueryRequest(
                    sql=SCAN_SQL,
                    request_id="doomed",
                    remember=True,
                    deadline_ms=TINY_DEADLINE_MS,
                )
            )
            answered_first = not running.done()
            return service, await running, doomed, answered_first

        service, first, doomed, answered_first = asyncio.run(scenario())
        assert first.ok, first.error
        assert doomed.error_code == DEADLINE_EXCEEDED
        assert "deadline" in doomed.error
        assert answered_first, "the withdrawn request waited for the engine"
        assert service.telemetry.counter("admitted") == 2
        assert service.telemetry.counter("timed_out") == 1
        assert service.telemetry.leaked_slots() is None
        # Only the running query ever planned; nothing was harvested.
        assert engine.plan_cache.stats.lookups == 1
        assert engine.feedback.epoch == 0

    def test_generous_deadline_does_not_fire(self, synthetic_db):
        _, response = serve_one(
            Engine(synthetic_db),
            QueryRequest(sql=SCAN_SQL, deadline_ms=60_000.0),
        )
        assert response.ok, response.error


class TestOverload:
    def test_full_queue_rejects_with_service_overloaded(self, synthetic_db):
        from repro.service import SERVICE_OVERLOADED

        engine = Engine(synthetic_db)

        async def scenario():
            service = QueryService(engine, max_in_flight=1, max_queue_depth=1)
            running = asyncio.ensure_future(
                service.handle(slow_request("r"))
            )
            while service.admission.in_flight == 0:
                await asyncio.sleep(0.001)
            queued = asyncio.ensure_future(
                service.handle(QueryRequest(sql=SCAN_SQL, request_id="q"))
            )
            while service.admission.queue_depth == 0:
                await asyncio.sleep(0)
            rejected = await service.handle(
                QueryRequest(sql=SCAN_SQL, request_id="x")
            )
            return service, await running, await queued, rejected

        service, running, queued, rejected = asyncio.run(scenario())
        assert running.ok and queued.ok
        assert rejected.error_code == SERVICE_OVERLOADED
        assert service.telemetry.counter("rejected") == 1
        assert service.telemetry.counter("admitted") == 2
        assert service.telemetry.leaked_slots() is None


class TestStats:
    def test_stats_payload_shape(self, synthetic_db):
        async def scenario():
            service = QueryService(Engine(synthetic_db))
            await service.handle(QueryRequest(sql=SCAN_SQL))
            return await service.stats()

        stats = asyncio.run(scenario())
        assert stats["kind"] == "stats"
        assert stats["accepting"] is True
        assert stats["telemetry"]["counters"]["completed"] == 1
        assert stats["admission"]["max_in_flight"] == 8
        assert stats["engine"]["feedback_epoch"] == 0
        assert stats["engine"]["plan_cache"]["misses"] >= 1
        assert "feedback" in stats["engine"]["report"]


    def test_histogram_stays_constant_size(self):
        from repro.service.telemetry import HISTOGRAM_WINDOW, ServiceTelemetry

        telemetry = ServiceTelemetry()
        for sample in range(100_000):
            telemetry.observe("execution_ms", sample)
        histogram = telemetry._histograms["execution_ms"]
        assert len(histogram.recent) == HISTOGRAM_WINDOW
        digest = telemetry.histogram("execution_ms")
        assert digest["count"] == 100_000
        assert digest["mean"] == 49_999.5 and digest["max"] == 99_999.0
        # Percentiles describe the most recent window only.
        assert digest["p50"] == 100_000 - (HISTOGRAM_WINDOW + 1) / 2
        assert set(telemetry.histogram("queue_wait_ms")) == set(digest)
        assert telemetry.histogram("queue_wait_ms")["count"] == 0


class TestShutdown:
    def test_drain_then_reject(self, synthetic_db):
        engine = Engine(synthetic_db)

        async def scenario():
            service = QueryService(engine)
            in_flight = asyncio.ensure_future(
                service.handle(slow_request("live"))
            )
            while service.admission.in_flight == 0:
                await asyncio.sleep(0.001)
            await service.shutdown(drain=True)
            drained = await in_flight  # finished before shutdown returned
            late = await service.handle(
                QueryRequest(sql=SCAN_SQL, request_id="late")
            )
            return service, drained, late

        service, drained, late = asyncio.run(scenario())
        assert drained.ok, drained.error
        assert late.error_code == SERVICE_SHUTTING_DOWN
        assert service.pending == 0
        assert engine.closed
        with pytest.raises(EngineError, match="shut down"):
            engine.session()

    def test_fast_abort_cancels_in_flight(self, synthetic_db):
        engine = Engine(synthetic_db)

        async def scenario():
            service = QueryService(engine)
            victim = asyncio.ensure_future(
                service.handle(slow_request("v"))
            )
            while service.admission.in_flight == 0:
                await asyncio.sleep(0.001)
            await service.shutdown(drain=False)
            return service, await victim

        service, victim = asyncio.run(scenario())
        assert victim.error_code == SERVICE_SHUTTING_DOWN
        assert "shutdown" in victim.error
        assert service.telemetry.counter("cancelled") == 1
        assert service.telemetry.leaked_slots() is None
        assert engine.feedback.epoch == 0

    def test_fast_abort_aborts_queued_requests(self, synthetic_db):
        """drain=False must fail admission-queued requests immediately,
        not let them acquire slots and run after shutdown began."""
        engine = Engine(synthetic_db)

        async def scenario():
            service = QueryService(engine, max_in_flight=1, max_queue_depth=4)
            running = asyncio.ensure_future(
                service.handle(slow_request("run"))
            )
            while service.admission.in_flight == 0:
                await asyncio.sleep(0.001)
            queued = asyncio.ensure_future(
                service.handle(QueryRequest(sql=SCAN_SQL, request_id="q"))
            )
            while service.admission.queue_depth == 0:
                await asyncio.sleep(0)
            await service.shutdown(drain=False)
            return service, await running, await queued

        service, running, queued = asyncio.run(scenario())
        assert queued.error_code == SERVICE_SHUTTING_DOWN
        assert "aborted" in queued.error
        # The queued request never executed: only the running one was
        # ever admitted, and the books balance.
        assert service.telemetry.counter("admitted") == 1
        assert service.telemetry.counter("rejected") == 1
        assert service.admission.total_aborted == 1
        assert service.admission.in_flight == 0
        assert service.telemetry.leaked_slots() is None
        assert engine.feedback.epoch == 0

    def test_shutdown_is_idempotent(self, synthetic_db):
        async def scenario():
            service = QueryService(Engine(synthetic_db))
            await service.shutdown()
            await service.shutdown()

        asyncio.run(scenario())
