"""PlanCache unit tests: hits, misses, invalidation, LRU, stampedes.

These tests use a stub "plan" (any object works — the cache never
inspects it) so cache mechanics are tested in isolation from the
optimizer.
"""

from __future__ import annotations

import threading

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
        """N threads missing the same key serialize on its build lock:
        exactly one optimizes, the rest coalesce onto its plan."""
        cache = PlanCache()
        release = threading.Event()
        build_calls = []
        results = []

        def builder():
            build_calls.append(1)
            release.wait(timeout=5)
            return object()

        def chase():
            results.append(cache.get_or_build(key(), FRESH, builder))

        threads = [threading.Thread(target=chase) for _ in range(6)]
        for t in threads:
            t.start()
        release.set()
        for t in threads:
            t.join()

        assert len(build_calls) == 1
        plans = {id(plan) for plan, _ in results}
        assert len(plans) == 1
        events = sorted(event for _, event in results)
        assert events.count("miss") == 1
        assert cache.stats.coalesced == len(threads) - 1

    def test_builds_of_distinct_keys_run_in_parallel(self):
        """A slow build of one key must not block another key's build."""
        cache = PlanCache()
        first_started = threading.Event()
        second_done = threading.Event()

        def slow_builder():
            first_started.set()
            # Wait for the other key to finish building; if builds were
            # serialized cache-wide this would deadlock (timeout fails).
            assert second_done.wait(timeout=5)
            return object()

        slow = threading.Thread(
            target=lambda: cache.get_or_build(key("slow"), FRESH, slow_builder)
        )
        slow.start()
        assert first_started.wait(timeout=5)
        cache.get_or_build(key("fast"), FRESH, object)
        second_done.set()
        slow.join(timeout=5)
        assert not slow.is_alive()
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
        cache = PlanCache()
        for table in ("t", "u"):
            for shape in range(5):
                cache.get_or_build(
                    key(f"{table}{shape}"), ((table, 1, 0),), object
                )
        assert len(cache._building) == len(cache._entries) == 10
        assert cache.invalidate("t") == 5
        assert len(cache._building) <= len(cache._entries) == 5
        assert cache.invalidate() == 5
        assert len(cache._building) <= len(cache._entries) == 0
