"""No stale plan is ever served: feedback writes and statistics rebuilds
invalidate cached plans (the bench_ablation_staleness scenario, in-suite).

The growing-heap scenario: a heap table whose indexed column correlates
with insertion order doubles via appends; statistics are rebuilt.  A plan
cached before the growth describes a table that no longer exists — the
cache must treat both the feedback epoch bump (``remember``) and the
statistics-version bump (``build_table_statistics``) as invalidation.
"""

from __future__ import annotations

from repro.catalog import ColumnDef, Database, IndexDef, TableSchema
from repro.core.feedback import FeedbackStore
from repro.core.requests import AccessPathRequest
from repro.engine import Engine, WorkloadItem
from repro.harness.methodology import default_requests
from repro.lifecycle.plancache import PlanCache
from repro.optimizer import SingleTableQuery
from repro.reopt import run_with_reopt
from repro.session import Session
from repro.sql import Comparison, conjunction_of
from repro.sql.types import SqlType

from tests.reopt.test_watchdog import generated_query


def build_growing_heap(num_rows: int = 8_000) -> Database:
    database = Database("growing", buffer_pool_pages=50_000)
    schema = TableSchema(
        "events",
        [
            ColumnDef("seq", SqlType.INT),
            ColumnDef("bucket", SqlType.INT),
            ColumnDef("padding", SqlType.STR, width_bytes=80),
        ],
    )
    rows = [(i, i // 10, "x") for i in range(num_rows)]  # bucket ~ load order
    database.load_table(
        schema,
        rows,
        clustered_on=None,
        indexes=[IndexDef("ix_bucket", "events", ("bucket",))],
    )
    return database


def grow(database: Database, num_rows: int = 8_000) -> None:
    """Double the table on fresh pages (old bucket values, new pages)."""
    table = database.table("events")
    extra = [
        (num_rows + i, (i * 37) % (num_rows // 10), "x")
        for i in range(num_rows)
    ]
    table.append_rows(extra)
    table.build_table_statistics()


def the_query() -> SingleTableQuery:
    return SingleTableQuery(
        "events", conjunction_of(Comparison("bucket", "<", 120)), "padding"
    )


def monitored_item(remember: bool = False) -> WorkloadItem:
    query = the_query()
    return WorkloadItem(
        query=query,
        requests=(AccessPathRequest("events", query.predicate),),
        use_feedback=True,
        remember=remember,
    )


class TestFeedbackEpochInvalidation:
    def test_new_feedback_stales_the_same_key(self):
        """Harvesting new feedback leaves the cache key alone (the store
        never enters it) and moves the table's epoch, so the plan built
        before the store had the observation is found, detected stale and
        rebuilt in place."""
        engine = Engine(build_growing_heap())
        session = engine.session()
        query = the_query()

        session.run(query, use_feedback=True)
        assert session.last_trace.cache_event == "miss"
        session.run(query, use_feedback=True)
        assert session.last_trace.cache_event == "hit"

        # Harvest feedback for the events table -> epoch bump.
        engine.execute(monitored_item(remember=True), session=session)
        assert engine.feedback.epoch > 0

        before = engine.plan_cache.stats.invalidations
        session.run(query, use_feedback=True)
        assert session.last_trace.cache_event == "miss"
        assert engine.plan_cache.stats.invalidations == before + 1
        assert len(engine.plan_cache) == 1

    def test_reharvest_invalidates_same_key_entry(self):
        """Re-observing the same expression bumps the epoch: the cached
        entry is found under its key, detected stale, and evicted — the
        invalidation counter proves the epoch check fired."""
        engine = Engine(build_growing_heap())
        session = engine.session()
        query = the_query()

        # Seed the store, then cache a feedback-driven plan at epoch 1.
        engine.execute(monitored_item(remember=True), session=session)
        session.run(query, use_feedback=True)
        session.run(query, use_feedback=True)
        assert session.last_trace.cache_event == "hit"

        # Identical table, identical monitored run -> identical estimate,
        # but the write bumps the table's epoch.
        engine.execute(monitored_item(remember=True), session=session)

        before = engine.plan_cache.stats.invalidations
        session.run(query, use_feedback=True)
        assert session.last_trace.cache_event == "miss"
        assert engine.plan_cache.stats.invalidations == before + 1

    def test_plain_mode_plans_survive_remember(self):
        """Plans optimized without feedback carry a constant feedback tag,
        so harvesting observations must not evict them."""
        engine = Engine(build_growing_heap())
        session = engine.session()
        query = the_query()

        session.run(query, use_feedback=False)
        engine.execute(monitored_item(remember=True), session=session)
        session.run(query, use_feedback=False)
        assert session.last_trace.cache_event == "hit"

    def test_fresh_feedback_plan_matches_uncached(self):
        """After an epoch bump the rebuilt cached plan is bit-identical to
        a fresh cache-bypassing optimization at the same epoch."""
        engine = Engine(build_growing_heap())
        session = engine.session()
        query = the_query()
        engine.execute(monitored_item(remember=True), session=session)

        cached = session.optimize(query, use_feedback=True)
        bypass = engine.session()
        bypass.plan_cache = None
        fresh = bypass.optimize(query, use_feedback=True)
        assert cached.render() == fresh.render()


def scan(table: str, cut: int, column: str = "c2") -> SingleTableQuery:
    return SingleTableQuery(
        table, conjunction_of(Comparison(column, "<", cut)), "padding"
    )


def query_key(query: SingleTableQuery) -> str:
    return AccessPathRequest(query.table, query.predicate).key()


def harvest(engine: Engine, query: SingleTableQuery) -> None:
    """Remember one monitored run of ``query``, leaving the cache alone."""
    session = engine.session()
    session.plan_cache = None
    session.run(
        query,
        requests=(AccessPathRequest(query.table, query.predicate),),
        remember=True,
    )


class TestPerTableFreshness:
    """The freshness vector is the cache's only feedback authority: a
    harvest stales the plans over the table it wrote, and nothing else."""

    def test_other_tables_harvest_keeps_the_plan_cached(self, join_db):
        engine = Engine(join_db)
        session = engine.session()
        query = scan("t1", 300)
        session.optimize(query, use_feedback=True)
        for cut in (100, 200, 300):
            harvest(engine, scan("t", cut))
            session.optimize(query, use_feedback=True)
            assert session.last_trace.cache_event == "hit"
        assert engine.feedback.table_epochs(["t", "t1"]) == (("t", 3), ("t1", 0))
        assert engine.plan_cache.stats.invalidations == 0
        assert len(engine.plan_cache) == 1

    def test_reharvest_counts_one_invalidation_and_keeps_one_entry(
        self, join_db
    ):
        engine = Engine(join_db)
        session = engine.session()
        query = scan("t", 300)
        session.optimize(query, use_feedback=True)  # against an empty store
        harvest(engine, query)
        session.optimize(query, use_feedback=True)
        remembered = engine.feedback.record(query_key(query)).page_count

        before = engine.plan_cache.stats.invalidations
        harvest(engine, query)
        assert engine.feedback.record(query_key(query)).page_count == remembered
        session.optimize(query, use_feedback=True)
        assert session.last_trace.cache_event == "miss"
        assert engine.plan_cache.stats.invalidations == before + 1
        assert len(engine.plan_cache) == 1

    def test_live_entries_equal_distinct_statements(self, join_db):
        engine = Engine(join_db)
        session = engine.session()
        statements = [scan("t", 300), scan("t", 600, "c3"), scan("t1", 300)]
        for k in range(4):
            harvest(engine, scan("t", 100 + k))
            for query in statements:
                session.optimize(query, use_feedback=True)
        assert len(engine.plan_cache) == len(statements)

    def test_warm_hit_never_lowers_the_store(self, join_db, monkeypatch):
        engine = Engine(join_db)
        session = engine.session()
        query = scan("t", 300)
        harvest(engine, query)
        session.optimize(query, use_feedback=True)

        def refuse(*args, **kwargs):
            raise AssertionError("a plan-cache hit lowered the feedback store")

        monkeypatch.setattr(FeedbackStore, "snapshot_injections", refuse)
        monkeypatch.setattr(FeedbackStore, "to_injections", refuse)
        session.optimize(query, use_feedback=True)
        assert session.last_trace.cache_event == "hit"

    def test_write_racing_the_build_is_caught_on_the_next_lookup(
        self, join_db, monkeypatch
    ):
        """A harvest landing between the freshness read and the miss
        path's lowering tags the new plan older than its data: the next
        lookup invalidates it instead of serving it."""
        engine = Engine(join_db)
        session = engine.session()
        query = scan("t", 300)
        lower = FeedbackStore.snapshot_injections
        raced: list[bool] = []

        def racing(store, base=None):
            if not raced:
                raced.append(True)
                harvest(engine, query)
            return lower(store, base)

        monkeypatch.setattr(FeedbackStore, "snapshot_injections", racing)
        session.optimize(query, use_feedback=True)
        assert raced and session.last_trace.cache_event == "miss"

        session.optimize(query, use_feedback=True)
        assert session.last_trace.cache_event == "miss"
        assert engine.plan_cache.stats.invalidations == 1
        cached = session.optimize(query, use_feedback=True)
        assert session.last_trace.cache_event == "hit"

        bypass = engine.session()
        bypass.plan_cache = None
        assert cached.render() == bypass.optimize(query, use_feedback=True).render()

    def test_reopt_trip_leaves_the_feedback_plan_cached(self, synthetic_db):
        """A trip's partial bounds are epoch-free, so the statement's next
        feedback lookup is a hit on the plan primed before the trip."""
        generated = generated_query(synthetic_db, "c2")
        session = Session(
            database=synthetic_db,
            injections=generated.injections(),
            plan_cache=PlanCache(),
        )
        primed = session.optimize(generated.query, use_feedback=True)
        episode = run_with_reopt(
            session,
            generated.query,
            requests=tuple(default_requests(synthetic_db, generated.query)),
            use_feedback=True,
            exec_mode="batch",
        )
        assert episode.tripped and episode.partials_recorded >= 1
        store = session.feedback
        assert store.epoch == 0
        assert all(store.record(key).partial for key in store.keys())

        plan, trace = session.lifecycle().plan(generated.query, use_feedback=True)
        assert trace.cache_event == "hit"
        assert plan.signature() == primed.signature()


class TestStatisticsVersionInvalidation:
    def test_rebuild_invalidates_all_modes(self):
        database = build_growing_heap()
        engine = Engine(database)
        session = engine.session()
        query = the_query()

        session.run(query, use_feedback=False)
        session.run(query, use_feedback=False)
        assert session.last_trace.cache_event == "hit"

        grow(database)

        before = engine.plan_cache.stats.invalidations
        session.run(query, use_feedback=False)
        assert session.last_trace.cache_event == "miss"
        assert engine.plan_cache.stats.invalidations == before + 1

    def test_post_growth_plan_matches_uncached(self):
        """The plan resolved after growth reflects the rebuilt statistics,
        not the pre-growth table."""
        database = build_growing_heap()
        engine = Engine(database)
        session = engine.session()
        query = the_query()
        session.run(query)

        grow(database)

        cached = session.optimize(query)
        bypass = engine.session()
        bypass.plan_cache = None
        fresh = bypass.optimize(query)
        assert cached.render() == fresh.render()

    def test_statistics_version_bumps_on_rebuild(self):
        database = build_growing_heap()
        table = database.table("events")
        version = table.statistics_version
        grow(database)
        assert table.statistics_version == version + 1
