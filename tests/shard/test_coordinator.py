"""ShardCoordinator: an Engine that fans out in a loop and harvests once."""

from __future__ import annotations

import asyncio
import concurrent.futures
import threading

import pytest

from repro.common.cancellation import CancellationToken
from repro.common.errors import EngineError, QueryCancelled
from repro.core.feedback import FeedbackStore, partial_page_count_observation
from repro.core.requests import AccessPathRequest, JoinMethodRequest, Mechanism
from repro.engine.engine import Engine, WorkloadItem
from repro.harness.equivalence import SHARD_INEXACT_RTOL
from repro.harness.regret import plan_regret
from repro.optimizer import PlanHint, SingleTableQuery
from repro.service import QueryRequest, QueryService, WorkerPool, WorkerSpec
from repro.session import Session
from repro.shard import ShardCoordinator, ShardedExecutedQuery
from repro.sql import Comparison, JoinEquality, conjunction_of
from repro.workloads import build_synthetic_database

NUM_SHARDS = 4


@pytest.fixture(scope="module")
def database():
    return build_synthetic_database(num_rows=6_000, seed=23)


@pytest.fixture()
def coordinator(database):
    coordinator = ShardCoordinator(database, num_shards=NUM_SHARDS)
    yield coordinator
    coordinator.shutdown(drain=True, timeout=5.0)


def _query(column: str = "c2", value: int = 700) -> SingleTableQuery:
    return SingleTableQuery(
        "t", conjunction_of(Comparison(column, "<", value)), "padding"
    )


class TestExecution:
    def test_rows_match_a_serial_engine(self, database, coordinator):
        query = _query()
        serial = Session(database).run(query)
        sharded = coordinator.execute(WorkloadItem(query=query))
        assert sharded.result.columns == serial.result.columns
        assert sharded.result.rows == serial.result.rows
        assert len(sharded.shard_results) == NUM_SHARDS

    def test_io_counters_sum_and_elapsed_is_makespan(self, coordinator):
        sharded = coordinator.execute(WorkloadItem(query=_query(value=5_000)))
        per_shard = [run.result.runstats for run in sharded.shard_results]
        merged = sharded.result.runstats
        assert merged.logical_reads == sum(s.logical_reads for s in per_shard)
        assert merged.elapsed_ms >= max(s.elapsed_ms for s in per_shard)

    def test_plan_cache_is_shared_across_the_fanout(self, coordinator):
        session = coordinator.session()
        for _ in range(3):
            coordinator.execute(WorkloadItem(query=_query()), session=session)
        stats = coordinator.plan_cache.stats
        assert stats.misses == 1
        assert stats.hits == 2

    def test_shard_engines_never_plan(self, coordinator):
        coordinator.execute(WorkloadItem(query=_query()))
        for engine in coordinator.engines:
            assert len(engine.plan_cache) == 0
            assert engine.plan_cache.stats.lookups == 0

    def test_remember_bumps_the_global_epoch_exactly_once(self, coordinator):
        query = _query()
        request = AccessPathRequest("t", query.predicate)
        coordinator.execute(
            WorkloadItem(query=query, requests=(request,), remember=True)
        )
        assert coordinator.feedback.epoch == 1
        assert coordinator.feedback.table_epoch("t") == 1
        # The merged batch is the only harvest: shard stores stay empty.
        for engine in coordinator.engines:
            assert engine.feedback.epoch == 0

    def test_remembered_injections_match_a_serial_engine(
        self, database, coordinator
    ):
        query = _query()
        item = WorkloadItem(
            query=query,
            requests=(AccessPathRequest("t", query.predicate),),
            remember=True,
        )
        serial = Engine(database)
        serial.execute(item)
        coordinator.execute(item)
        keys = serial.feedback.keys()
        assert coordinator.feedback.keys() == keys and keys
        for key in keys:
            ours = coordinator.feedback.record(key)
            theirs = serial.feedback.record(key)
            if theirs.page_count_exact:
                assert ours.page_count_exact
                assert ours.page_count == theirs.page_count
            else:
                assert ours.page_count == pytest.approx(
                    theirs.page_count, rel=SHARD_INEXACT_RTOL
                )

    def test_unanswerable_fanout_harvest_is_a_noop(self, coordinator):
        """No shard's single-table plan can observe a join-method request:
        the merged observation is unanswerable and nothing is stored."""
        query = _query()
        request = JoinMethodRequest("t", JoinEquality("s", "c1", "t", "c1"))
        executed = coordinator.execute(
            WorkloadItem(query=query, requests=(request,), remember=True)
        )
        assert [obs.answered for obs in executed.observations] == [False]
        assert coordinator.feedback.epoch == 0
        assert coordinator.feedback.table_epoch("t") == 0
        assert len(coordinator.feedback.to_injections()) == 0

    def test_partial_harvest_lowers_without_bumping_the_epoch(
        self, coordinator
    ):
        """The reopt ingest path exists on the coordinator's store too."""
        request = AccessPathRequest("t", _query().predicate)
        partial = partial_page_count_observation(
            request, Mechanism.EXACT_SCAN_COUNT, 7.0, pages_seen=9, total_pages=40
        )
        assert coordinator.feedback.record_partial_observations([partial]) == 1
        assert coordinator.feedback.epoch == 0
        injections = coordinator.feedback.to_injections()
        assert injections.access_page_count("t", request.expression) == 7.0

    def test_execute_plan_does_not_harvest(self, coordinator):
        query = _query()
        session = coordinator.session()
        plan = session.optimize(query)
        request = AccessPathRequest("t", query.predicate)
        coordinator.execute_plan(query, plan, requests=(request,))
        assert coordinator.feedback.epoch == 0


class TestExecutePlan:
    """``execute_plan`` is the fan-out, not the inherited unsharded run."""

    def test_fans_out_and_reports_the_makespan(self, database, coordinator):
        query = _query(value=5_000)
        plan = coordinator.session().optimize(query)
        request = AccessPathRequest("t", query.predicate)
        executed = coordinator.execute_plan(query, plan, requests=(request,))
        assert isinstance(executed, ShardedExecutedQuery)
        assert len(executed.shard_results) == NUM_SHARDS
        assert executed.elapsed_ms == max(
            run.elapsed_ms for run in executed.shard_results
        )
        serial = Engine(database).execute_plan(query, plan, requests=(request,))
        assert executed.result.rows == serial.result.rows
        assert executed.elapsed_ms < serial.elapsed_ms / 3
        # The merged stats tree still shows the fan-out.
        root = executed.result.runstats.root
        assert [child.operator for child in root.children] == [
            run.result.runstats.root.operator for run in executed.shard_results
        ]
        assert root.operator in executed.result.runstats.render()

    def test_plan_regret_measures_the_sharded_deployment(
        self, database, coordinator
    ):
        query = _query(value=5_000)
        regret = plan_regret(
            coordinator, query, alternatives=(PlanHint("index_seek"),)
        )
        sharded = coordinator.execute_plan(query, regret.chosen_plan)
        serial = Engine(database).execute_plan(query, regret.chosen_plan)
        assert regret.chosen_ms == sharded.elapsed_ms != serial.elapsed_ms
        seek_plan, seek_ms = regret.alternatives["index_seek"]
        assert seek_ms == coordinator.execute_plan(query, seek_plan).elapsed_ms

    def test_non_count_root_is_refused_before_any_shard_runs(self, coordinator):
        query = _query()
        scan = coordinator.session().optimize(query).child
        started: list = []
        for engine in coordinator.engines:
            _spy_on_execute_plan(engine, started)
        with pytest.raises(EngineError, match="not a CountPlan") as raised:
            coordinator.execute_plan(query, scan)
        assert scan.describe() in str(raised.value)
        assert started == []
        assert coordinator.active_executions == 0

    def test_drain_waits_for_a_direct_execute_plan(self, coordinator):
        """The last shard has finished but the fan-out has not returned:
        only the coordinator's own accounting can hold the drain."""
        query = _query(value=5_000)
        plan = coordinator.session().optimize(query)
        last_shard_done, release = threading.Event(), threading.Event()

        def hold_the_fan_out() -> None:
            last_shard_done.set()
            release.wait(timeout=5.0)

        _spy_on_execute_plan(coordinator.engines[-1], [], after=hold_the_fan_out)
        with concurrent.futures.ThreadPoolExecutor(max_workers=1) as pool:
            running = pool.submit(coordinator.execute_plan, query, plan)
            assert last_shard_done.wait(timeout=5.0)
            assert coordinator.active_executions == 1
            assert coordinator.shutdown(drain=True, timeout=0.05) is False
            release.set()
            assert coordinator.shutdown(drain=True, timeout=5.0) is True
            executed = running.result(timeout=5.0)
        assert len(executed.shard_results) == NUM_SHARDS
        assert coordinator.active_executions == 0


def _spy_on_execute_plan(engine, started: list, after=None) -> None:
    """Record each ``execute_plan`` call on ``engine``, then run it."""
    real = engine.execute_plan

    def spy(*args, **kwargs):
        started.append(engine)
        result = real(*args, **kwargs)
        if after is not None:
            after()
        return result

    engine.execute_plan = spy


class TestFailureSettling:
    def test_failing_shard_propagates_later_never_start(
        self, coordinator
    ):
        boom = RuntimeError("disk on fire")

        def explode(*args, **kwargs):
            raise boom

        started: list = []
        coordinator.engines[1].execute_plan = explode
        for engine in coordinator.engines[2:]:
            _spy_on_execute_plan(engine, started)
        with pytest.raises(RuntimeError) as raised:
            coordinator.execute(WorkloadItem(query=_query(value=5_000)))
        # The shard's own exception object, not a wrapper or a sibling's
        # collateral cancellation...
        assert raised.value is boom
        # ...and shards after the failing one did no work at all: no
        # execution started, so no reads were charged anywhere.
        assert started == []
        for engine in coordinator.engines:
            assert engine.active_executions == 0
        assert coordinator.active_executions == 0

    def test_external_cancel_stops_the_fanout_unharvested(
        self, coordinator
    ):
        """A token cancelled while shard 0 runs stops shard 1 at its
        first checkpoint; shards 2+ never start and nothing is stored."""
        token = CancellationToken()
        started: list = []
        _spy_on_execute_plan(
            coordinator.engines[0],
            started,
            after=lambda: token.cancel("client went away"),
        )
        for engine in coordinator.engines[1:]:
            _spy_on_execute_plan(engine, started)
        query = _query(value=5_000)
        item = WorkloadItem(
            query=query,
            requests=(AccessPathRequest("t", query.predicate),),
            remember=True,
        )
        with pytest.raises(QueryCancelled, match="client went away"):
            coordinator.execute(item, cancellation=token)
        assert started == coordinator.engines[:2]
        assert coordinator.feedback.epoch == 0
        assert len(coordinator.feedback) == 0
        for engine in coordinator.engines:
            assert engine.active_executions == 0
        assert coordinator.active_executions == 0

    def test_reopt_items_are_refused_not_run_plain(
        self, coordinator
    ):
        query = _query()
        item = WorkloadItem(
            query=query,
            requests=(AccessPathRequest("t", query.predicate),),
            reopt=True,
        )
        with pytest.raises(EngineError, match="re-optimization"):
            coordinator.execute(item)
        assert coordinator.active_executions == 0


class TestLifecycle:
    def test_shutdown_cascades_and_rejects_new_work(self, database):
        coordinator = ShardCoordinator(database, num_shards=2)
        plan = coordinator.session().optimize(_query())
        assert not coordinator.closed
        assert coordinator.shutdown(drain=True, timeout=5.0)
        assert coordinator.closed
        for engine in coordinator.engines:
            assert engine.closed
        with pytest.raises(EngineError):
            coordinator.execute(WorkloadItem(query=_query()))
        with pytest.raises(EngineError, match="shut down"):
            coordinator.execute_plan(_query(), plan)
        with pytest.raises(EngineError):
            coordinator.session()

    def test_no_active_executions_after_a_run(self, coordinator):
        coordinator.execute(WorkloadItem(query=_query()))
        assert coordinator.active_executions == 0

    def test_report_mentions_shape_and_cache(self, coordinator):
        coordinator.execute(WorkloadItem(query=_query()))
        report = coordinator.report()
        assert f"shards: {NUM_SHARDS} (range partitioning)" in report
        assert "plan-cache:" in report


class TestIsAnEngine:
    def test_coordinator_is_an_engine(self, coordinator):
        assert isinstance(coordinator, Engine)
        inherited = (
            "closed",
            "active_executions",
            "_begin_execution",
            "_end_execution",
            "session",
            "run_serial",
            "harvest_observations",
        )
        assert not set(inherited) & set(vars(ShardCoordinator))

    def test_service_and_worker_pool_accept_it(self, coordinator):
        async def scenario():
            service = QueryService(coordinator)
            response = await service.handle(
                QueryRequest(
                    sql="SELECT count(padding) FROM t WHERE c2 < 700",
                    remember=True,
                )
            )
            await service.shutdown()
            return response

        response = asyncio.run(scenario())
        assert response.ok
        assert coordinator.feedback.epoch == 1
        spec = WorkerSpec(
            "repro.workloads:build_synthetic_database",
            {"num_rows": 500, "seed": 23},
        )
        pool = WorkerPool(spec, num_workers=1, engine=coordinator)
        try:
            assert pool.engine is coordinator
        finally:
            pool.shutdown()
        assert pool.leaked_workers() == []


class TestPersistedFeedback:
    def test_saved_feedback_replans_identically_on_a_fresh_coordinator(
        self, database, coordinator, tmp_path
    ):
        query = _query(value=300)
        request = AccessPathRequest("t", query.predicate)
        coordinator.execute(
            WorkloadItem(query=query, requests=(request,), remember=True)
        )
        session = coordinator.session()
        plan = session.optimize(query, use_feedback=True)
        path = tmp_path / "feedback.json"
        coordinator.feedback.save(path)

        fresh = ShardCoordinator(database, num_shards=2)
        try:
            fresh.feedback = FeedbackStore.load(path)
            replanned = fresh.session().optimize(query, use_feedback=True)
            assert replanned.render() == plan.render()
            assert fresh.feedback.table_epochs(["t"]) == (
                coordinator.feedback.table_epochs(["t"])
            )
            assert (
                fresh.feedback.to_injections()._page_counts
                == coordinator.feedback.to_injections()._page_counts
            )
        finally:
            fresh.shutdown(drain=True, timeout=5.0)
