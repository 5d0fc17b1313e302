"""Engine-level plan-cache guarantees: shared-cache equivalence under
concurrent service traffic, cached-vs-uncached plan identity, one
response per request, and the hit-rate the repeated-query story
promises."""

from __future__ import annotations

import asyncio

from repro.core.requests import AccessPathRequest
from repro.engine import Engine, WorkloadItem
from repro.harness.loadgen import LoadSpec, diff_against_serial, run_closed_loop
from repro.optimizer import SingleTableQuery
from repro.service import QueryService
from repro.sql import Comparison, conjunction_of

CUTS = [("c2", 300), ("c3", 250), ("c4", 5_000)]
SQLS = tuple(
    f"SELECT count(padding) FROM t WHERE {column} < {cut}" for column, cut in CUTS
)


def query_on(column: str, cut: int) -> SingleTableQuery:
    return SingleTableQuery(
        "t", conjunction_of(Comparison(column, "<", cut)), "padding"
    )


def workload() -> list[WorkloadItem]:
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


def closed_loop(engine: Engine, spec: LoadSpec):
    """``spec`` through a 4-wide service over ``engine``."""

    async def run():
        service = QueryService(engine, max_in_flight=4)
        try:
            return await run_closed_loop(service, spec)
        finally:
            await service.shutdown()

    return asyncio.run(run())


class TestSharedCacheEquivalence:
    def test_concurrent_with_shared_cache_matches_serial(self, synthetic_db):
        """Three passes make the concurrent clients hit (and stampede) the
        one shared cache — responses must still match a serial replay
        query-for-query."""
        engine = Engine(synthetic_db)
        report = closed_loop(engine, LoadSpec(sqls=SQLS, concurrency=4, passes=3))
        assert report.ok_count == 3 * len(SQLS)
        assert diff_against_serial(synthetic_db, report) == []
        assert engine.plan_cache.stats.hits > 0

    def test_cached_plan_renders_like_a_fresh_optimization(self, synthetic_db):
        """The plan the shared cache serves renders bit-identically to a
        cache-bypassing optimization at the same feedback epoch."""
        engine = Engine(synthetic_db)
        engine.run_serial(workload())
        for item in workload():
            cached = engine.session()
            plan = cached.optimize(item.query)
            assert cached.last_trace.cache_event == "hit"
            fresh = engine.session()
            fresh.plan_cache = None
            assert plan.render() == fresh.optimize(item.query).render()


class TestWorkloadContracts:
    def test_closed_loop_returns_exactly_one_response_per_request(
        self, synthetic_db
    ):
        spec = LoadSpec(sqls=SQLS, concurrency=3, passes=2)
        report = closed_loop(Engine(synthetic_db), spec)
        assert [r.request_id for r in report.responses] == [
            r.request_id for r in spec.requests()
        ]
        assert report.ok_count == len(spec.requests())


class TestHitRateAndReport:
    def test_repeated_workload_hit_rate(self, synthetic_db):
        """After one warmup pass, every repeat is a cache hit: >= 90%
        post-warmup hit rate (the acceptance bar) by a wide margin."""
        engine = Engine(synthetic_db)
        items = workload()
        engine.run_serial(items)  # warmup: misses
        warm = engine.plan_cache.stats.snapshot()
        for _ in range(5):
            engine.run_serial(items)
        stats = engine.plan_cache.stats
        post_warmup_hits = stats.hits - warm["hits"]
        post_warmup_lookups = stats.lookups - (warm["hits"] + warm["misses"])
        assert post_warmup_hits == 5 * len(items)
        assert post_warmup_hits / post_warmup_lookups >= 0.9

    def test_engine_report_renders_counters(self, synthetic_db):
        engine = Engine(synthetic_db)
        engine.run_serial(workload())
        text = engine.report()
        assert "plan-cache:" in text
        assert "hits=" in text and "misses=" in text
        assert "feedback:" in text
