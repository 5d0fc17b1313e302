"""Feedback-planned runs serve what their own instruments already measured.

Every sampler is seeded from its scan's identity and every hash from the
config seed, so a monitor re-attached to unchanged data reproduces its
remembered count bit for bit.  A run whose plan was costed from the store
therefore attaches no such monitor: the build names the instrument it
would attach (:class:`~repro.core.requests.InstrumentFingerprint`) and
serves the record that instrument wrote.  These tests hold that to the
live measurement — a store-less :class:`Engine` running the same plan —
over the figure and benchmark statements in both drives, and check the
records that must never be served.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.catalog import ColumnDef, Database, IndexDef, TableSchema
from repro.common.errors import FeedbackError
from repro.core.diagnostics import DiagnosticLine, diagnose
from repro.core.feedback import FeedbackStore, partial_page_count_observation
from repro.core.planner import MonitorConfig, build_executable
from repro.core.requests import (
    AccessPathRequest,
    InstrumentFingerprint,
    JoinMethodRequest,
    Mechanism,
    PageCountObservation,
)
from repro.engine import Engine, WorkloadItem
from repro.exec.joins import HashJoin
from repro.harness.methodology import default_requests
from repro.optimizer import PlanHint
from repro.session import Session
from repro.shard import ShardCoordinator
from repro.sql import Comparison, conjunction_of, parse_query
from repro.sql.types import SqlType
from repro.workloads import build_synthetic_database
from repro.workloads.queries import join_workload, single_table_workload
from repro.workloads.realworld import build_real_world_databases
from repro.workloads.tpch import TPCH_QUERY_COLUMNS

MODES = ("batch", "row")
FIXTURE = Path(__file__).parent / "fixtures" / "feedback_store_pr21.json"
SCAN_SQL = "SELECT count(padding) FROM t WHERE c2 < 300"


@pytest.fixture(scope="module")
def small_db() -> Database:
    return build_synthetic_database(num_rows=4000, seed=31, with_copy=True)


def as_live(observation) -> tuple:
    """The fingerprint a served observation shares with the measured one
    it stands in for: every field but ``remembered``."""
    return replace(observation, remembered=False).fingerprint()


#: The ``details`` an observation of each mechanism reports, against the
#: fingerprint field the monitor that made it was built from.
BUILT_FROM = {
    Mechanism.DPSAMPLE: (("fraction", "fraction"),),
    Mechanism.LINEAR_COUNTING: (("bitmap_bits", "bits"),),
    Mechanism.BITVECTOR_DPSAMPLE: (("fraction", "fraction"), ("filter_bits", "bits")),
}


def assert_built_from_instrument(observation) -> None:
    """A live observation's monitor was built from its own fingerprint."""
    for detail, field_name in BUILT_FROM.get(observation.mechanism, ()):
        expected = getattr(observation.instrument, field_name)
        assert observation.details[detail] == expected, (observation, detail)


def serve_against_live(database, queries, mode, config=None) -> int:
    """Remember ``queries`` twice, run them once more feedback-planned,
    and hold every observation of that run — served or measured — to a
    store-less engine running the same plan live, whose every monitor was
    built from the fingerprint it stamps.  Returns how many were served."""
    engine = Engine(database, monitor_config=config)
    items = [
        WorkloadItem(
            query=query,
            requests=tuple(default_requests(database, query)),
            use_feedback=True,
            exec_mode=mode,
        )
        for query in queries
    ]
    for _ in range(2):
        for item in items:
            engine.execute(replace(item, remember=True))
    live_engine = Engine(database, monitor_config=config)
    served = 0
    for item in items:
        run = engine.execute(item)
        live = live_engine.execute_plan(
            item.query, run.plan, item.requests, exec_mode=mode
        )
        assert not any(obs.remembered for obs in live.observations)
        for observation in live.observations:
            assert_built_from_instrument(observation)
        measured = {obs.key: obs.fingerprint() for obs in live.observations}
        assert {obs.key: as_live(obs) for obs in run.observations} == measured
        assert run.result.rows == live.result.rows
        served += sum(obs.remembered for obs in run.observations)
    return served


class TestServedEqualsLive:
    """The figures' statement generators at their own statement counts,
    over small databases."""

    @pytest.mark.parametrize("mode", MODES)
    def test_fig6_statements(self, small_db, mode):
        workload = single_table_workload(
            small_db, "t", ["c2", "c3", "c4", "c5"], queries_per_column=25
        )
        assert serve_against_live(small_db, [g.query for g in workload], mode) > 0

    @pytest.mark.parametrize("mode", MODES)
    def test_fig8_statements(self, small_db, mode):
        workload = join_workload(
            small_db,
            "t1",
            "t",
            ["c2", "c3", "c4", "c5"],
            queries_per_column=10,
            selectivity_range=(0.005, 0.10),
        )
        served = serve_against_live(
            small_db,
            [g.query for g in workload],
            mode,
            MonitorConfig(dpsample_fraction=0.3),
        )
        assert served > 0

    @pytest.mark.parametrize("mode", MODES)
    def test_fig11_statements(self, mode):
        served = 0
        for name, database in build_real_world_databases(scale=0.05).items():
            if name == "tpch":
                table, columns, count = "lineitem", list(TPCH_QUERY_COLUMNS), "l_padding"
            else:
                table, count = name, "padding"
                columns = [
                    index.definition.leading_column
                    for index in database.table(name).indexes.values()
                ]
            workload = single_table_workload(
                database,
                table,
                columns,
                queries_per_column=4,
                selectivity_range=(0.005, 0.10),
                count_column=count,
            )
            served += serve_against_live(database, [g.query for g in workload], mode)
        assert served > 0

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize(
        "shape",
        [
            # pipeline_scan: single range terms and a conjunction
            (
                "SELECT count(padding) FROM t WHERE c3 < 400",
                "SELECT count(padding) FROM t WHERE c2 < 3000 AND c3 < 3000",
            ),
            # pipeline_join
            (
                "SELECT count(t.padding) FROM t1, t WHERE t1.c1 < 60 AND t1.c3 = t.c3",
                "SELECT count(t.padding) FROM t1, t WHERE t1.c1 < 480 AND t1.c4 = t.c4",
            ),
            # svc_point_warm: tiny seeks, c1 the clustering key
            (
                "SELECT count(padding) FROM t WHERE c1 < 10",
                "SELECT count(padding) FROM t WHERE c4 < 20",
            ),
            # svc_feedback_churn: seeks and joins on the same cuts
            (
                "SELECT count(padding) FROM t WHERE c2 < 40",
                "SELECT count(t.padding) FROM t1, t WHERE t1.c1 < 40 AND t1.c2 = t.c2",
            ),
        ],
        ids=["pipeline_scan", "pipeline_join", "svc_point_warm", "svc_feedback_churn"],
    )
    def test_benchmark_shapes(self, small_db, mode, shape):
        queries = [parse_query(sql) for sql in shape]
        assert serve_against_live(small_db, queries, mode) > 0

    @pytest.mark.parametrize("mode", MODES)
    def test_served_scan_request_keeps_the_join_sampler(self, small_db, mode):
        """A hash join's bit vector samples its probe scan with the seed the
        scan's sampled access request chose; serving that request must not
        reseed the bit vector's pages."""
        query = parse_query(
            "SELECT count(t.padding) FROM t1, t "
            "WHERE t1.c1 < 600 AND t.c3 < 2000 AND t1.c5 = t.c5"
        )
        access = AccessPathRequest(
            "t", conjunction_of(Comparison("c3", "<", 2000), Comparison("c2", "<", 1500))
        )
        join = JoinMethodRequest.for_query(query, "t")
        session = Session(small_db)
        hint = PlanHint("hash_join")
        for _ in range(2):
            session.run(
                query, requests=[access], use_feedback=True, hint=hint,
                remember=True, exec_mode=mode,
            )
        run = session.run(
            query, requests=[access, join], use_feedback=True, hint=hint,
            exec_mode=mode,
        )
        assert [obs.remembered for obs in run.observations] == [False, True]
        live = Engine(small_db).execute_plan(
            query, run.plan, [access, join], exec_mode=mode
        )
        measured = {obs.key: obs.fingerprint() for obs in live.observations}
        assert {obs.key: as_live(obs) for obs in run.observations} == measured
        assert measured[join.key()][1] == Mechanism.BITVECTOR_DPSAMPLE.value

    def test_growing_table_is_measured_again(self):
        database = Database("events_db", buffer_pool_pages=100_000)
        schema = TableSchema(
            "events",
            [
                ColumnDef("seq", SqlType.INT),
                ColumnDef("bucket", SqlType.INT),
                ColumnDef("padding", SqlType.STR, width_bytes=80),
            ],
        )
        table = database.load_table(
            schema,
            [(i, i // 10, "x") for i in range(6_000)],
            clustered_on=None,
            indexes=[IndexDef("ix_bucket", "events", ("bucket",))],
        )
        predicate = conjunction_of(Comparison("bucket", "<", 60))
        query = parse_query("SELECT count(padding) FROM events WHERE bucket < 60")
        request = AccessPathRequest("events", predicate)
        session = Session(database)

        def run(remember: bool = True):
            return session.run(
                query, requests=[request], use_feedback=True, remember=remember
            ).observations[0]

        first, second = run(), run()
        assert not first.remembered
        # The second run's plan may use another instrument; the third
        # runs the instrument that wrote the record and is served it.
        served = run(remember=False)
        assert served.remembered
        assert served.estimate == (second.estimate)
        assert served.instrument.table_rows == (("events", 6_000),)

        table.append_rows([(6_000 + i, (i * 37) % 600, "x") for i in range(6_000)])
        table.build_table_statistics()
        grown = run()
        assert not grown.remembered
        assert grown.instrument.table_rows == (("events", 12_000),)
        assert session.feedback.record(request.key()).instrument == grown.instrument


class TestNeverServed:
    def plain_run(self, database, store, sql=SCAN_SQL):
        query = parse_query(sql)
        session = Session(database, feedback=store)
        return session.run(
            query, requests=default_requests(database, query), use_feedback=True
        )

    def test_store_without_fingerprints_is_measured_again(self, small_db):
        store = FeedbackStore.from_json(FIXTURE.read_text(encoding="utf-8"))
        assert all(store.record(key).instrument is None for key in store.keys())
        query = parse_query("SELECT count(padding) FROM t WHERE c2 < 800")
        session = Session(small_db, feedback=store)
        first = session.run(
            query, requests=default_requests(small_db, query), use_feedback=True,
            remember=True,
        )
        assert first.observations and not any(o.remembered for o in first.observations)
        # The re-measurement stamps the record: from now on it is servable.
        assert store.record("DPC(t, c2 < 800)").instrument is not None

    def test_shard_merge_records_carry_no_fingerprint(self, small_db):
        coordinator = ShardCoordinator(small_db, num_shards=2)
        query = parse_query(SCAN_SQL)
        requests = tuple(default_requests(small_db, query))
        coordinator.execute(
            WorkloadItem(query=query, requests=requests, remember=True)
        )
        store = coordinator.feedback
        assert len(store) and all(
            store.record(key).instrument is None for key in store.keys()
        )
        run = self.plain_run(small_db, store)
        assert not any(obs.remembered for obs in run.observations)

    def test_wire_form_without_instrument_is_never_served(self, small_db):
        session = Session(small_db)
        query = parse_query(SCAN_SQL)
        requests = default_requests(small_db, query)
        for _ in range(2):
            session.remember(session.run(query, requests=requests, use_feedback=True))
        steady = session.optimize(query, use_feedback=True)
        harvested = Engine(small_db).execute_plan(query, steady, requests).observations
        wire = [obs.to_wire() for obs in harvested]
        # With its instrument the wire form files the same record as an
        # in-process harvest, and a run is served from it ...
        carried = FeedbackStore()
        carried.record_observations(map(PageCountObservation.from_wire, wire))
        assert any(o.remembered for o in self.plain_run(small_db, carried).observations)
        # ... without it (a sender that does not know the instrument) the
        # record is never served.
        bare = FeedbackStore()
        bare.record_observations(
            PageCountObservation.from_wire({**entry, "instrument": None})
            for entry in wire
        )
        assert not any(o.remembered for o in self.plain_run(small_db, bare).observations)

    def test_runs_not_costed_from_the_store_measure(self, small_db):
        engine = Engine(small_db)
        query = parse_query(SCAN_SQL)
        item = WorkloadItem(
            query=query, requests=tuple(default_requests(small_db, query)),
            use_feedback=True,
        )
        for _ in range(2):
            engine.execute(replace(item, remember=True))
        served = engine.execute(item)
        assert any(obs.remembered for obs in served.observations)
        unplanned = engine.execute(replace(item, use_feedback=False))
        explicit = engine.execute_plan(query, served.plan, item.requests)
        for run in (unplanned, explicit):
            assert run.observations
            assert not any(obs.remembered for obs in run.observations)

    def test_partial_record_is_never_served(self, small_db):
        query = parse_query(SCAN_SQL)
        requests = default_requests(small_db, query)
        live = Engine(small_db).execute(
            WorkloadItem(query=query, requests=tuple(requests))
        )
        [observation] = [o for o in live.observations if o.answered]
        store = FeedbackStore()
        partial = partial_page_count_observation(
            observation.request, observation.mechanism, observation.estimate, 3, 10
        )
        store.record_partial_observations(
            [replace(partial, instrument=observation.instrument)]
        )
        record = store.record(observation.key)
        assert record.partial and record.instrument is None
        assert store.remembered(observation.request, observation.instrument) is None
        build = build_executable(live.plan, small_db, requests, feedback=store)
        assert build.served == []


class TestHarvestAndReporting:
    def test_served_run_still_harvests_and_bumps_once(self, small_db):
        engine = Engine(small_db)
        query = parse_query(SCAN_SQL)
        item = WorkloadItem(
            query=query, requests=tuple(default_requests(small_db, query)),
            use_feedback=True, remember=True,
        )
        engine.execute(item)
        engine.execute(item)
        epoch = engine.feedback.epoch
        run = engine.execute(item)
        assert all(o.remembered for o in run.observations if o.answered)
        assert engine.feedback.epoch == epoch + 1
        detail = run.trace.stage("monitor-plan").detail
        served = sum(o.remembered for o in run.observations)
        assert detail.endswith(f", {served} served from feedback")
        assert f"{run.trace.stage('harvest').detail}".startswith(f"{served} ")

    def test_diagnostic_report_marks_served_lines(self, small_db):
        engine = Engine(small_db)
        query = parse_query(SCAN_SQL)
        item = WorkloadItem(
            query=query, requests=tuple(default_requests(small_db, query)),
            use_feedback=True,
        )
        for _ in range(2):
            engine.execute(replace(item, remember=True))
        run = engine.execute(item)
        report = diagnose(query.describe(), run.plan, run.observations)
        [line] = [line for line in report.lines if line.answered]
        assert line.remembered
        assert any(row.endswith("(remembered)") for row in report.render().splitlines())

    def test_zero_page_estimate_is_flagged(self):
        line = DiagnosticLine("DPC(t, c2 < 1)", 0.0, 30.0, "exact-scan-count", True)
        assert line.error_factor == 30.0
        assert line.flagged()
        assert DiagnosticLine("e", 0.0, 0.0, "m", True).error_factor == 1.0

    def test_reopt_episode_serves_its_feedback_planned_leg(self, small_db):
        session = Session(small_db)
        query = parse_query(SCAN_SQL)
        requests = default_requests(small_db, query)
        for _ in range(2):
            session.remember(session.run(query, requests=requests, use_feedback=True))
        run = session.run(query, requests=requests, use_feedback=True, reopt=True)
        assert run.result.runstats.lifecycle["reopt"]["tripped"] is False
        assert any(obs.remembered for obs in run.observations)

    def test_second_pipeline_join_run_builds_no_bit_vector(self, small_db):
        query = parse_query(
            "SELECT count(t.padding) FROM t1, t WHERE t1.c1 < 900 AND t1.c5 = t.c5"
        )
        requests = default_requests(small_db, query)
        session = Session(small_db)
        for _ in range(2):
            session.remember(session.run(query, requests=requests, use_feedback=True))
        plan = session.optimize(query, use_feedback=True)
        live = build_executable(plan, small_db, requests)
        served = build_executable(plan, small_db, requests, feedback=session.feedback)
        [live_join] = [op for op in _walk(live.root) if isinstance(op, HashJoin)]
        [served_join] = [op for op in _walk(served.root) if isinstance(op, HashJoin)]
        assert live_join.bitvector is not None and live_join.leaf_monitors
        assert served_join.bitvector is None and not served_join.leaf_monitors
        assert {obs.mechanism for obs in served.served} == {
            Mechanism.BITVECTOR_DPSAMPLE,
            Mechanism.LEAF_BITMAP,
        }


def _walk(operator):
    yield operator
    for child in operator.children():
        yield from _walk(child)


class TestFingerprintPersistence:
    def test_round_trip(self, small_db):
        store = FeedbackStore()
        query = parse_query(SCAN_SQL)
        store.record_run(
            Engine(small_db).execute(
                WorkloadItem(query=query, requests=tuple(default_requests(small_db, query)))
            ).result.runstats
        )
        [key] = store.keys()
        loaded = FeedbackStore.from_json(store.to_json())
        assert loaded.record(key).instrument == store.record(key).instrument
        assert loaded.to_json() == store.to_json()

    @pytest.mark.parametrize(
        "instrument",
        [
            "exact",
            {"mechanism": "exact-scan-count"},
            {**InstrumentFingerprint(Mechanism.DPSAMPLE).to_json(), "fraction": 1.5},
            {**InstrumentFingerprint(Mechanism.NOT_AVAILABLE).to_json()},
            {
                **InstrumentFingerprint(Mechanism.LEAF_BITMAP).to_json(),
                "table_rows": [["t", -1]],
            },
            {**InstrumentFingerprint(Mechanism.LINEAR_COUNTING).to_json(), "bits": True},
        ],
    )
    def test_corrupt_instrument_rejected_at_load(self, instrument):
        payload = json.loads(FIXTURE.read_text(encoding="utf-8"))
        payload["records"][0]["instrument"] = instrument
        with pytest.raises(FeedbackError, match="instrument"):
            FeedbackStore.from_json(json.dumps(payload))
