"""Closed-loop load generator: spec validation, equivalence, reporting."""

from __future__ import annotations

import asyncio
import copy
import json

import pytest

from repro.engine import Engine
from repro.harness.loadgen import (
    DEFAULT_WORKLOAD_SQL,
    LoadSpec,
    diff_against_serial,
    run_closed_loop,
)
from repro.service import QueryService


class TestLoadSpec:
    def test_defaults(self):
        spec = LoadSpec()
        assert spec.sqls == DEFAULT_WORKLOAD_SQL
        assert spec.concurrency == 8
        assert len(list(spec.requests())) == len(DEFAULT_WORKLOAD_SQL) * 3

    def test_requests_are_pass_major_and_stable(self):
        spec = LoadSpec(sqls=("SELECT count(c2) FROM t WHERE c2 < 5",),
                        passes=2)
        ids = [r.request_id for r in spec.requests()]
        assert ids == ["p0-q0", "p1-q0"]

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one SQL"):
            LoadSpec(sqls=())
        with pytest.raises(ValueError, match="concurrency"):
            LoadSpec(concurrency=0)
        with pytest.raises(ValueError, match="passes"):
            LoadSpec(passes=0)
        with pytest.raises(ValueError, match="exec_mode"):
            LoadSpec(exec_mode="turbo")
        with pytest.raises(ValueError, match="deadline_ms"):
            LoadSpec(deadline_ms=-1.0)


class TestClosedLoop:
    def test_small_run_is_clean_and_serial_equivalent(self, synthetic_db):
        spec = LoadSpec(concurrency=4, passes=2)

        async def scenario():
            service = QueryService(Engine(synthetic_db), max_in_flight=2)
            try:
                return await run_closed_loop(service, spec)
            finally:
                await service.shutdown()

        report = asyncio.run(scenario())
        assert report.total_requests == len(DEFAULT_WORKLOAD_SQL) * 2
        assert report.ok_count == report.total_requests
        assert report.status_counts() == {"ok": report.total_requests}
        assert report.leaked is None
        assert report.qps > 0
        assert diff_against_serial(synthetic_db, report) == []

    def test_armed_quiet_reopt_run_is_serial_equivalent(self, synthetic_db):
        """The watchdog's checks cost simulated time, so an armed run is
        diffed on everything else; none of these queries trips."""
        spec = LoadSpec(concurrency=4, passes=1, reopt=True)

        async def scenario():
            service = QueryService(Engine(synthetic_db), max_in_flight=2)
            try:
                return await run_closed_loop(service, spec)
            finally:
                await service.shutdown()

        report = asyncio.run(scenario())
        assert report.ok_count == report.total_requests
        assert diff_against_serial(synthetic_db, report) == []

    def test_report_renders_latency_sections(self, synthetic_db):
        spec = LoadSpec(concurrency=2, passes=2)

        async def scenario():
            service = QueryService(Engine(synthetic_db))
            try:
                return await run_closed_loop(service, spec)
            finally:
                await service.shutdown()

        report = asyncio.run(scenario())
        rendered = report.render()
        for needle in ("closed loop", "p50", "p99", "queue wait",
                       "cold pass", "warm passes"):
            assert needle in rendered, f"missing {needle!r}"
        warm = report.warm_latency()
        cold = report.cold_latency()
        assert warm["count"] + cold["count"] == report.total_requests


def _swap_instrument(runstats):
    """A count taken by a different instrument (here: another seed)."""
    entry = next(e for e in runstats["page_counts"] if e.get("instrument"))
    instrument = json.loads(entry["instrument"])
    instrument["seed"] = (instrument["seed"] or 0) + 1
    entry["instrument"] = json.dumps(instrument, sort_keys=True)


def _serve_remembered(runstats):
    """The same count, served from feedback where the replay measured it."""
    runstats["page_counts"][0]["remembered"] = True


def _shift_elapsed(runstats):
    runstats["elapsed_ms"] += 0.5


class TestDiffAgainstSerial:
    """One response differs from the serial replay in one field the
    feedback loop can see; the diff must name it."""

    @pytest.fixture(scope="class")
    def clean(self, synthetic_db):
        spec = LoadSpec(sqls=DEFAULT_WORKLOAD_SQL[:1], concurrency=2, passes=2)

        async def scenario():
            service = QueryService(Engine(synthetic_db), max_in_flight=2)
            try:
                return await run_closed_loop(service, spec)
            finally:
                await service.shutdown()

        report = asyncio.run(scenario())
        assert diff_against_serial(synthetic_db, report) == []
        return report

    @pytest.mark.parametrize(
        "mutate", [_swap_instrument, _serve_remembered, _shift_elapsed]
    )
    def test_one_field_mutation_is_a_diff(self, synthetic_db, clean, mutate):
        report = copy.deepcopy(clean)
        mutate(report.responses[1].runstats)
        diffs = diff_against_serial(synthetic_db, report)
        assert len(diffs) == 1
        assert diffs[0].startswith(report.responses[1].request_id)
