"""Wire-protocol round trips and validation."""

from __future__ import annotations

import pytest

from repro.common.errors import ServiceError
from repro.service.protocol import (
    BAD_REQUEST,
    ERROR_CODES,
    QueryRequest,
    QueryResponse,
    decode_message,
    encode_message,
)


class TestQueryRequest:
    def test_round_trip(self):
        request = QueryRequest(
            sql="SELECT count(padding) FROM t WHERE c2 < 500",
            request_id="q1",
            exec_mode="batch",
            use_feedback=True,
            remember=True,
            monitor=False,
            hint={"kind": "table_scan"},
            deadline_ms=250.0,
        )
        payload = decode_message(encode_message(request.to_dict()))
        assert payload["kind"] == "query"
        assert QueryRequest.from_dict(payload) == request

    def test_round_trip_drops_nones(self):
        request = QueryRequest(sql="SELECT count(*) FROM t")
        payload = request.to_dict()
        assert "hint" not in payload
        assert "deadline_ms" not in payload
        assert QueryRequest.from_dict(payload) == request

    def test_empty_sql_rejected(self):
        with pytest.raises(ServiceError, match="non-empty 'sql'"):
            QueryRequest(sql="   ")

    def test_missing_sql_rejected(self):
        with pytest.raises(ServiceError, match="non-empty 'sql'"):
            QueryRequest.from_dict({"kind": "query"})

    def test_unknown_exec_mode_rejected(self):
        with pytest.raises(ServiceError, match="exec_mode"):
            QueryRequest(sql="SELECT count(*) FROM t", exec_mode="vectorized")

    def test_nonpositive_deadline_rejected(self):
        with pytest.raises(ServiceError, match="deadline_ms"):
            QueryRequest(sql="SELECT count(*) FROM t", deadline_ms=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("remember", "false"),
            ("use_feedback", 0),
            ("reopt", "off"),
            ("monitor", "no"),
            ("deadline_ms", float("nan")),
            ("deadline_ms", float("inf")),
            ("deadline_ms", True),
            ("deadline_ms", "250"),
            ("request_id", 7),
            ("hint", "table_scan"),
            ("hint", ["kind", "table_scan"]),
        ],
    )
    def test_mistyped_field_rejected(self, field, value):
        """JSON hands over whatever the client typed: a truthy string
        must not pass for a flag, nor NaN for a deadline."""
        payload = {"sql": "SELECT count(*) FROM t", field: value}
        with pytest.raises(ServiceError, match=field):
            QueryRequest.from_dict(payload)

    def test_nan_deadline_from_json_text_rejected(self):
        payload = decode_message('{"sql": "x", "deadline_ms": NaN}')
        with pytest.raises(ServiceError, match="deadline_ms"):
            QueryRequest.from_dict(payload)

    def test_unknown_field_rejected(self):
        with pytest.raises(ServiceError, match="unknown query request field"):
            QueryRequest.from_dict(
                {"sql": "SELECT count(*) FROM t", "priority": 9}
            )

    def test_malformed_hint_rejected(self):
        request = QueryRequest(
            sql="SELECT count(*) FROM t", hint={"flavor": "fast"}
        )
        with pytest.raises(ServiceError, match="malformed hint"):
            request.plan_hint()

    def test_valid_hint_materializes(self):
        request = QueryRequest(
            sql="SELECT count(*) FROM t",
            hint={"kind": "index_seek", "index_name": "ix_c2"},
        )
        hint = request.plan_hint()
        assert hint is not None and hint.kind == "index_seek"
        assert QueryRequest(sql="SELECT count(*) FROM t").plan_hint() is None


class TestQueryResponse:
    def test_ok_round_trip(self):
        response = QueryResponse(
            request_id="q1",
            rows=[[500]],
            columns=["count"],
            runstats={"elapsed_ms": 1.0},
            queue_wait_ms=0.5,
            service_ms=2.0,
        )
        decoded = QueryResponse.from_dict(
            decode_message(encode_message(response.to_dict()))
        )
        assert decoded == response
        assert decoded.ok

    def test_error_round_trip(self):
        response = QueryResponse.failure("q2", BAD_REQUEST, "nope")
        decoded = QueryResponse.from_dict(
            decode_message(encode_message(response.to_dict()))
        )
        assert not decoded.ok
        assert decoded.error_code == BAD_REQUEST
        assert decoded.error == "nope"
        payload = response.to_dict()
        assert "rows" not in payload  # error frames carry no result fields

    def test_failure_validates_code(self):
        with pytest.raises(ServiceError, match="unknown error code"):
            QueryResponse.failure("q", "OOPS", "message")
        assert len(ERROR_CODES) == len(set(ERROR_CODES))

    def test_tuples_become_lists_on_the_wire(self):
        frame = encode_message({"rows": [(1, "a")]})
        assert decode_message(frame)["rows"] == [[1, "a"]]


class TestDecodeMessage:
    def test_rejects_junk(self):
        with pytest.raises(ServiceError, match="malformed JSON"):
            decode_message(b"this is not json\n")

    def test_rejects_empty(self):
        with pytest.raises(ServiceError, match="empty"):
            decode_message(b"   \n")

    def test_rejects_non_object(self):
        with pytest.raises(ServiceError, match="JSON object"):
            decode_message(b"[1, 2]\n")

    def test_accepts_str_and_bytes(self):
        assert decode_message('{"kind":"stats"}') == {"kind": "stats"}
        assert decode_message(b'{"kind":"stats"}') == {"kind": "stats"}
