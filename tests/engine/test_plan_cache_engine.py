"""Engine-level plan-cache guarantees: shared-cache equivalence, the
cached-vs-uncached plan identity check, exact-length workload contracts,
and the hit-rate the repeated-query story promises."""

from __future__ import annotations

import pytest

from repro.common.errors import EngineError
from repro.core.requests import AccessPathRequest
from repro.engine import Engine, WorkloadItem
from repro.optimizer import SingleTableQuery
from repro.sql import Comparison, conjunction_of


def query_on(column: str, cut: int) -> SingleTableQuery:
    return SingleTableQuery(
        "t", conjunction_of(Comparison(column, "<", cut)), "padding"
    )


def workload() -> list[WorkloadItem]:
    items = []
    for column, cut in [("c2", 300), ("c3", 250), ("c4", 5_000)]:
        query = query_on(column, cut)
        items.append(
            WorkloadItem(
                query=query,
                requests=(AccessPathRequest("t", query.predicate),),
            )
        )
    return items


class TestSharedCacheEquivalence:
    def test_concurrent_with_shared_cache_matches_serial(self, synthetic_db):
        """Repeating each item makes the concurrent run exercise cache
        hits (and stampedes) across worker sessions — results must still
        match serial execution query-for-query."""
        items = workload() * 3
        engine = Engine(synthetic_db)
        serial = engine.run_serial(items)
        concurrent = engine.run_concurrent(items, num_threads=4)
        assert len(serial) == len(concurrent) == len(items)
        for ser, conc in zip(serial, concurrent):
            assert ser.result.rows == conc.result.rows
            assert (
                ser.result.runstats.physical_reads
                == conc.result.runstats.physical_reads
            )
        assert engine.plan_cache.stats.hits > 0

    def test_equivalence_report_checks_plan_identity(self, synthetic_db):
        engine = Engine(synthetic_db)
        report = engine.equivalence_report(workload(), num_threads=2)
        assert report.equivalent
        assert all(c.plans_match for c in report.comparisons)
        # The serial+concurrent warmup cached every item, so the identity
        # check resolves each plan via the cache.
        assert all(c.cache_event == "hit" for c in report.comparisons)


class TestWorkloadContracts:
    def test_run_concurrent_returns_exactly_one_result_per_item(
        self, synthetic_db
    ):
        engine = Engine(synthetic_db)
        items = workload()
        results = engine.run_concurrent(items, num_threads=3)
        assert len(results) == len(items)
        assert all(result is not None for result in results)

    def test_equivalence_report_raises_on_length_mismatch(
        self, synthetic_db, monkeypatch
    ):
        """A lost result must fail loudly, not silently shrink the diff."""
        engine = Engine(synthetic_db)

        def truncating(items, num_threads=4):
            return Engine.run_concurrent(engine, items, num_threads)[:-1]

        monkeypatch.setattr(engine, "run_concurrent", truncating)
        with pytest.raises(EngineError, match="zip-truncate"):
            engine.equivalence_report(workload(), num_threads=2)


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
