"""NDJSON-over-TCP transport: framing, error frames, connection reuse."""

from __future__ import annotations

import asyncio
import json

from repro.engine import Engine
from repro.service import (
    BAD_REQUEST,
    QueryRequest,
    QueryServer,
    QueryService,
    TCPClient,
)

SCAN_SQL = "SELECT count(padding) FROM t WHERE c2 < 300"


def run_with_server(synthetic_db, scenario):
    """Start a server on an ephemeral port, run scenario(host, port)."""

    async def main():
        service = QueryService(Engine(synthetic_db))
        server = QueryServer(service)
        host, port = await server.start()
        try:
            return await scenario(host, port)
        finally:
            await server.stop()

    return asyncio.run(main())


class TestRoundTrip:
    def test_query_over_tcp(self, synthetic_db):
        async def scenario(host, port):
            async with TCPClient(host, port) as client:
                return await client.query(QueryRequest(sql=SCAN_SQL))

        response = run_with_server(synthetic_db, scenario)
        assert response.ok, response.error
        assert response.rows == [[300]]
        assert response.runstats is not None

    def test_sequential_requests_reuse_connection(self, synthetic_db):
        async def scenario(host, port):
            async with TCPClient(host, port) as client:
                first = await client.query(
                    QueryRequest(sql=SCAN_SQL, request_id="a")
                )
                second = await client.query(
                    QueryRequest(sql=SCAN_SQL, request_id="b")
                )
                stats = await client.stats()
            return first, second, stats

        first, second, stats = run_with_server(synthetic_db, scenario)
        assert first.ok and second.ok
        assert first.request_id == "a" and second.request_id == "b"
        assert stats["telemetry"]["counters"]["completed"] == 2

    def test_stats_endpoint(self, synthetic_db):
        async def scenario(host, port):
            async with TCPClient(host, port) as client:
                return await client.stats()

        stats = run_with_server(synthetic_db, scenario)
        assert stats["kind"] == "stats"
        assert stats["accepting"] is True


class TestMalformedInput:
    def test_junk_line_gets_error_frame_and_keeps_connection(
        self, synthetic_db
    ):
        async def scenario(host, port):
            reader, writer = await asyncio.open_connection(host, port)
            try:
                writer.write(b"this is not json\n")
                await writer.drain()
                error_frame = json.loads(await reader.readline())
                # connection survives: a well-formed query still works
                writer.write(
                    (json.dumps(QueryRequest(sql=SCAN_SQL).to_dict()) + "\n")
                    .encode()
                )
                await writer.drain()
                ok_frame = json.loads(await reader.readline())
            finally:
                writer.close()
            return error_frame, ok_frame

        error_frame, ok_frame = run_with_server(synthetic_db, scenario)
        assert error_frame["error_code"] == BAD_REQUEST
        assert ok_frame["rows"] == [[300]]

    def test_unknown_kind_is_bad_request(self, synthetic_db):
        async def scenario(host, port):
            reader, writer = await asyncio.open_connection(host, port)
            try:
                writer.write(b'{"kind": "mystery"}\n')
                await writer.drain()
                return json.loads(await reader.readline())
            finally:
                writer.close()

        frame = run_with_server(synthetic_db, scenario)
        assert frame["error_code"] == BAD_REQUEST
        assert "mystery" in frame["error"]

    def test_invalid_request_fields_are_bad_request(self, synthetic_db):
        async def scenario(host, port):
            reader, writer = await asyncio.open_connection(host, port)
            try:
                writer.write(b'{"kind": "query", "sql": "   "}\n')
                await writer.drain()
                return json.loads(await reader.readline())
            finally:
                writer.close()

        frame = run_with_server(synthetic_db, scenario)
        assert frame["error_code"] == BAD_REQUEST

    def test_mistyped_flags_are_bad_request_no_harvest(
        self, synthetic_db
    ):
        """``"remember": "false"`` is a truthy string: before validation
        it harvested and bumped the epoch the client asked to leave alone."""

        async def scenario(host, port):
            reader, writer = await asyncio.open_connection(host, port)
            try:
                payload = {
                    "kind": "query",
                    "sql": SCAN_SQL,
                    "remember": "false",
                    "monitor": "no",
                    "reopt": "off",
                }
                writer.write((json.dumps(payload) + "\n").encode())
                await writer.drain()
                frame = json.loads(await reader.readline())
                writer.write(b'{"kind": "stats"}\n')
                await writer.drain()
                stats = json.loads(await reader.readline())
            finally:
                writer.close()
            return frame, stats

        frame, stats = run_with_server(synthetic_db, scenario)
        assert frame["error_code"] == BAD_REQUEST
        assert "remember" in frame["error"]
        assert stats["engine"]["feedback_epoch"] == 0
        assert stats["engine"]["feedback_records"] == 0
