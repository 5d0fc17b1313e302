"""The reopt flag's path through engine, service, protocol and loadgen."""

from __future__ import annotations

import asyncio

from repro.engine import Engine, WorkloadItem
from repro.harness.loadgen import LoadSpec
from repro.harness.methodology import default_requests
from repro.service import QueryRequest, QueryService
from repro.sql.parser import parse_query

TRIP_SQL = "SELECT count(padding) FROM t WHERE c2 < 400"
QUIET_SQL = "SELECT count(padding) FROM t WHERE c5 < 400"


def serve_one(engine: Engine, request: QueryRequest, **service_kwargs):
    async def scenario():
        service = QueryService(engine, **service_kwargs)
        response = await service.handle(request)
        return service, response

    return asyncio.run(scenario())


def item_for(database, sql: str, reopt: bool) -> WorkloadItem:
    query = parse_query(sql)
    return WorkloadItem(
        query=query,
        requests=tuple(default_requests(database, query)),
        exec_mode="batch",
        reopt=reopt,
    )


class TestEngineRouting:
    def test_plain_item_never_touches_the_reopt_path(self, synthetic_db):
        engine = Engine(synthetic_db)
        executed = engine.execute(item_for(synthetic_db, TRIP_SQL, False))
        assert "reopt" not in executed.result.runstats.lifecycle

    def test_reopt_item_records_an_episode(self, synthetic_db):
        engine = Engine(synthetic_db)
        plain = engine.execute(item_for(synthetic_db, TRIP_SQL, False))
        executed = engine.execute(item_for(synthetic_db, TRIP_SQL, True))
        episode = executed.result.runstats.lifecycle["reopt"]
        assert episode["tripped"] and episode["switched"]
        assert executed.result.rows == plain.result.rows

    def test_serial_items_do_not_leak_the_policy(self, synthetic_db):
        # run_serial reuses one session; a reopt item must not leave its
        # watchdog behind for the plain item that follows it.
        engine = Engine(synthetic_db)
        executed = engine.run_serial(
            [
                item_for(synthetic_db, TRIP_SQL, True),
                item_for(synthetic_db, TRIP_SQL, False),
            ]
        )
        assert "reopt" in executed[0].result.runstats.lifecycle
        assert "reopt" not in executed[1].result.runstats.lifecycle


class TestServiceRouting:
    def test_request_flag_trips_and_counts(self, synthetic_db):
        service, response = serve_one(
            Engine(synthetic_db), QueryRequest(sql=TRIP_SQL, reopt=True)
        )
        assert response.ok
        episode = response.runstats["lifecycle"]["reopt"]
        assert episode["tripped"] and episode["switched"]
        assert service.telemetry.counter("reopt_trips") == 1
        assert service.telemetry.counter("reopt_wins") == 1
        assert service.telemetry.counter("reopt_false_trips") == 0
        assert service.telemetry.leaked_slots() is None

    def test_quiet_request_counts_nothing(self, synthetic_db):
        service, response = serve_one(
            Engine(synthetic_db), QueryRequest(sql=QUIET_SQL, reopt=True)
        )
        assert response.ok
        assert service.telemetry.counter("reopt_trips") == 0
        assert service.telemetry.counter("reopt_wins") == 0

    def test_service_default_applies_when_request_is_silent(
        self, synthetic_db
    ):
        service, response = serve_one(
            Engine(synthetic_db),
            QueryRequest(sql=TRIP_SQL),
            reopt_by_default=True,
        )
        assert response.ok
        assert service.telemetry.counter("reopt_trips") == 1

    def test_reopt_off_is_the_pre_reopt_path(self, synthetic_db):
        service, response = serve_one(
            Engine(synthetic_db), QueryRequest(sql=TRIP_SQL)
        )
        assert response.ok
        assert "reopt" not in response.runstats["lifecycle"]
        assert service.telemetry.counter("reopt_trips") == 0

    def test_protocol_round_trips_the_flag(self):
        request = QueryRequest(sql=TRIP_SQL, reopt=True)
        assert QueryRequest.from_dict(request.to_dict()).reopt is True
        assert QueryRequest.from_dict({"sql": TRIP_SQL}).reopt is False


class TestLoadSpec:
    def test_spec_propagates_reopt_to_requests(self):
        spec = LoadSpec(sqls=(TRIP_SQL,), passes=1, reopt=True)
        assert all(request.reopt for request in spec.requests())

    def test_spec_defaults_to_reopt_off(self):
        spec = LoadSpec(sqls=(TRIP_SQL,), passes=1)
        assert not any(request.reopt for request in spec.requests())
