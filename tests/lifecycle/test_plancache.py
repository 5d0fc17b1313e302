"""PlanCache unit tests: hits, misses, invalidation, LRU, repeated misses.

These tests use a stub "plan" (any object works — the cache never
inspects it) so cache mechanics are tested in isolation from the
optimizer.
"""

from __future__ import annotations

import pytest

from repro.lifecycle.plancache import PlanCache, PlanCacheKey


def key(name: str = "q1", fingerprint: str = "fp") -> PlanCacheKey:
    return PlanCacheKey(query_key=name, injection_fingerprint=fingerprint)


FRESH = (("t", 1, 0),)
STALER = (("t", 2, 0),)


class TestLookupAndStore:
    def test_empty_lookup_is_a_miss(self):
        cache = PlanCache()
        assert cache.lookup(key(), FRESH) is None
        assert cache.stats.misses == 1
        assert cache.stats.hits == 0

    def test_store_then_hit(self):
        cache = PlanCache()
        plan = object()
        cache.store(key(), FRESH, plan)
        assert cache.lookup(key(), FRESH) is plan
        assert cache.stats.hits == 1
        assert cache.stats.builds == 1

    def test_stale_entry_counts_invalidation_and_miss(self):
        cache = PlanCache()
        cache.store(key(), FRESH, object())
        assert cache.lookup(key(), STALER) is None
        assert cache.stats.invalidations == 1
        assert cache.stats.misses == 1
        # The stale entry is gone for good, not just skipped.
        assert len(cache) == 0

    def test_distinct_keys_do_not_collide(self):
        cache = PlanCache()
        first, second = object(), object()
        cache.store(key("a"), FRESH, first)
        cache.store(key("b"), FRESH, second)
        assert cache.lookup(key("a"), FRESH) is first
        assert cache.lookup(key("b"), FRESH) is second

    def test_hit_rate(self):
        cache = PlanCache()
        cache.store(key(), FRESH, object())
        cache.lookup(key(), FRESH)
        cache.lookup(key("other"), FRESH)
        assert cache.stats.lookups == 2
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=0)


class TestLru:
    def test_eviction_over_capacity(self):
        cache = PlanCache(capacity=2)
        cache.store(key("a"), FRESH, object())
        cache.store(key("b"), FRESH, object())
        cache.store(key("c"), FRESH, object())
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        assert cache.lookup(key("a"), FRESH) is None  # oldest evicted

    def test_hit_refreshes_recency(self):
        cache = PlanCache(capacity=2)
        cache.store(key("a"), FRESH, object())
        cache.store(key("b"), FRESH, object())
        cache.lookup(key("a"), FRESH)  # a is now most recent
        cache.store(key("c"), FRESH, object())
        assert cache.lookup(key("a"), FRESH) is not None
        assert cache.lookup(key("b"), FRESH) is None


class TestGetOrBuild:
    def test_miss_builds_then_hit(self):
        cache = PlanCache()
        calls = []

        def builder():
            calls.append(1)
            return object()

        plan, event = cache.get_or_build(key(), FRESH, builder)
        assert event == "miss" and len(calls) == 1
        again, event = cache.get_or_build(key(), FRESH, builder)
        assert event == "hit" and again is plan and len(calls) == 1

    def test_freshness_change_rebuilds(self):
        cache = PlanCache()
        first, _ = cache.get_or_build(key(), FRESH, object)
        second, event = cache.get_or_build(key(), STALER, object)
        assert event == "miss"
        assert second is not first
        assert cache.stats.invalidations == 1

    def test_stampede_builds_once(self):
        """N misses on one key, one after another, optimize once: the
        first builds and stores, the rest hit its plan."""
        cache = PlanCache()
        build_calls = []

        def builder():
            build_calls.append(1)
            return object()

        results = [cache.get_or_build(key(), FRESH, builder) for _ in range(6)]

        assert len(build_calls) == 1
        assert len({id(plan) for plan, _ in results}) == 1
        assert [event for _, event in results] == ["miss"] + ["hit"] * 5
        assert cache.stats.builds == 1 and cache.stats.hits == 5

    def test_builds_of_distinct_keys_run_in_parallel(self):
        """Distinct keys build once each, and each is served its own plan."""
        cache = PlanCache()
        built = {
            name: cache.get_or_build(key(name), FRESH, object)
            for name in ("slow", "fast")
        }
        assert all(event == "miss" for _, event in built.values())
        assert cache.stats.builds == 2
        for name, (plan, _) in built.items():
            assert cache.get_or_build(key(name), FRESH, object) == (plan, "hit")
        assert cache.stats.builds == 2


class TestInvalidate:
    def test_invalidate_by_table(self):
        cache = PlanCache()
        cache.store(key("on_t"), (("t", 1, 0),), object())
        cache.store(key("on_u"), (("u", 1, 0),), object())
        assert cache.invalidate("t") == 1
        assert cache.lookup(key("on_t"), (("t", 1, 0),)) is None
        assert cache.lookup(key("on_u"), (("u", 1, 0),)) is not None

    def test_invalidate_all(self):
        cache = PlanCache()
        cache.store(key("a"), FRESH, object())
        cache.store(key("b"), FRESH, object())
        assert cache.invalidate() == 2
        assert len(cache) == 0
        assert cache.stats.invalidations == 2

    def test_invalidate_drops_the_build_locks_with_the_entries(self):
        """Invalidated entries are gone: the next lookup of each misses."""
        cache = PlanCache()
        for table in ("t", "u"):
            for shape in range(5):
                cache.get_or_build(
                    key(f"{table}{shape}"), ((table, 1, 0),), object
                )
        assert len(cache) == 10
        assert cache.invalidate("t") == 5
        assert len(cache) == 5
        assert all(
            cache.lookup(key(f"t{shape}"), (("t", 1, 0),)) is None
            for shape in range(5)
        )
        assert cache.invalidate() == 5
        assert len(cache) == 0
        assert cache.lookup(key("u0"), (("u", 1, 0),)) is None
