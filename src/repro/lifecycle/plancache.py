"""A thread-safe, invalidating, engine-shared plan cache.

The production question behind this module (cf. Sampling-Based Query
Re-Optimization and PLANSIEVE in the related work): *when is a previously
chosen plan still trustworthy, and how cheaply can we detect that it is
not?*  Our answer is structural.  A cached plan is trustworthy exactly
while the inputs it was optimized from are unchanged, and every such
input is versioned:

* the **canonical query key** and the fingerprint of the session's own
  base injections identify what was optimized (they form the cache key,
  together with the hint fingerprint and the feedback mode);
* the **freshness vector** — per touched table, the
  :class:`~repro.core.feedback.FeedbackStore` epoch and the
  :class:`~repro.storage.table.Table` statistics version — identifies
  what it was optimized *against*.  A lookup whose current vector
  differs from the entry's recorded vector counts an invalidation,
  evicts the entry and rebuilds; a stale plan is therefore unreachable
  by construction, not by best-effort eviction hooks.

Logically the cache is keyed on (query key, base injection fingerprint,
freshness vector); physically the vector lives *in the entry* and is
compared on lookup, so superseded feedback and statistics never pile up
as dead entries.  The caller reads the vector *before* building: a write
racing the build tags the plan older than its data, which costs one
invalidation on the next lookup and never serves a stale plan.

Lookups are **stampede-safe**: concurrent misses on the same key
serialize on a per-key build lock, so one thread optimizes while the
rest wait and then reuse its plan (counted as ``coalesced``).  Distinct
keys build fully in parallel.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.optimizer.plans import PlanNode

#: Per touched table: (table, feedback epoch, statistics version).
FreshnessVector = tuple[tuple[str, int, int], ...]


@dataclass(frozen=True)
class PlanCacheKey:
    """Identity of one optimization problem (freshness excluded)."""

    query_key: str
    #: The session's base injections; the feedback store never enters.
    injection_fingerprint: str
    hint_fingerprint: str = ""
    #: ``"feedback"`` or ``"plain"`` — a feedback-driven optimization and
    #: a plain one are distinct problems even when the store is empty
    #: (their freshness vectors evolve differently).
    mode: str = "plain"


@dataclass
class CacheStats:
    """Counters surfaced through ``RunStats.render()`` and engine reports."""

    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    builds: int = 0
    coalesced: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served without optimizing (hits only)."""
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups

    def snapshot(self) -> dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "builds": self.builds,
            "coalesced": self.coalesced,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }

    def render(self) -> str:
        return (
            f"plan-cache: hits={self.hits} misses={self.misses} "
            f"invalidations={self.invalidations} builds={self.builds} "
            f"coalesced={self.coalesced} evictions={self.evictions} "
            f"hit-rate={self.hit_rate:.1%}"
        )


@dataclass
class _Entry:
    plan: PlanNode
    freshness: FreshnessVector


class PlanCache:
    """LRU cache of optimized plans with freshness validation on lookup.

    Shared by all of an :class:`~repro.engine.Engine`'s sessions; all
    public methods are thread-safe.  Cached :class:`PlanNode` trees are
    treated as immutable: they are linted before publication and only
    read afterwards (``build_executable`` constructs fresh operators).
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[PlanCacheKey, _Entry]" = OrderedDict()
        self._lock = threading.Lock()
        #: Per-key build locks (stampede control).  Bounded by the number
        #: of distinct keys ever seen; pruned opportunistically on evict.
        self._building: dict[PlanCacheKey, threading.Lock] = {}
        self.stats = CacheStats()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # ------------------------------------------------------------------
    def lookup(
        self, key: PlanCacheKey, freshness: FreshnessVector
    ) -> Optional[PlanNode]:
        """A fresh cached plan, or ``None`` (counting a miss).

        A present-but-stale entry counts an invalidation *and* a miss and
        is evicted, so the stale plan can never be returned again.
        """
        with self._lock:
            return self._lookup_locked(key, freshness)

    def _lookup_locked(
        self, key: PlanCacheKey, freshness: FreshnessVector
    ) -> Optional[PlanNode]:
        entry = self._entries.get(key)
        if entry is not None:
            if entry.freshness == freshness:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return entry.plan
            del self._entries[key]
            self.stats.invalidations += 1
        self.stats.misses += 1
        return None

    def get_or_build(
        self,
        key: PlanCacheKey,
        freshness: FreshnessVector,
        builder: Callable[[], PlanNode],
    ) -> tuple[PlanNode, str]:
        """The fresh plan for ``key``, building it at most once per miss.

        Returns ``(plan, event)`` with ``event`` one of ``"hit"`` (served
        from cache), ``"miss"`` (this call optimized), or ``"coalesced"``
        (another thread optimized the same key while we waited on its
        build lock).  ``builder`` runs outside the cache-wide lock but
        under the per-key lock, so an exploding build never blocks
        lookups of other keys, and concurrent identical queries cost one
        optimization, not N.
        """
        with self._lock:
            plan = self._lookup_locked(key, freshness)
            if plan is not None:
                return plan, "hit"
            build_lock = self._building.get(key)
            if build_lock is None:
                build_lock = threading.Lock()
                self._building[key] = build_lock
        with build_lock:
            # Double-check: a concurrent builder may have published the
            # plan while this thread waited on the key's build lock.
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None and entry.freshness == freshness:
                    self._entries.move_to_end(key)
                    self.stats.coalesced += 1
                    return entry.plan, "coalesced"
            plan = builder()
            self.store(key, freshness, plan)
            return plan, "miss"

    def store(
        self, key: PlanCacheKey, freshness: FreshnessVector, plan: PlanNode
    ) -> None:
        """Publish a built plan (evicting LRU entries over capacity)."""
        with self._lock:
            self._entries[key] = _Entry(plan=plan, freshness=freshness)
            self._entries.move_to_end(key)
            self.stats.builds += 1
            while len(self._entries) > self.capacity:
                evicted_key, _ = self._entries.popitem(last=False)
                self._building.pop(evicted_key, None)
                self.stats.evictions += 1

    # ------------------------------------------------------------------
    def invalidate(self, table: Optional[str] = None) -> int:
        """Drop entries touching ``table`` (or all entries); returns count.

        Freshness validation already prevents stale *serving*; this is
        the explicit operational lever (DBA dropped an index, reloaded a
        table object wholesale, swapped in an unrelated feedback store, …).
        """
        with self._lock:
            doomed = [
                key
                for key, entry in self._entries.items()
                if table is None
                or any(name == table for name, _, _ in entry.freshness)
            ]
            for key in doomed:
                del self._entries[key]
                # The build lock goes with the entry, as on eviction: a
                # service invalidating per table must not keep one lock
                # per statement shape it ever saw.
                self._building.pop(key, None)
            self.stats.invalidations += len(doomed)
            return len(doomed)

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"PlanCache({len(self._entries)}/{self.capacity} entries, "
                f"hits={self.stats.hits}, misses={self.stats.misses})"
            )
