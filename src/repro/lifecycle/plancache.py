"""An invalidating, engine-shared plan cache.

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
as dead entries.  The caller reads the vector *before* building, so a
plan is never tagged newer than the feedback it was optimized from.

The cache has no lock: an engine runs one execution at a time, and the
query service touches its engine's cache only on its one engine thread.
"""

from __future__ import annotations

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
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }

    def render(self) -> str:
        return (
            f"plan-cache: hits={self.hits} misses={self.misses} "
            f"invalidations={self.invalidations} builds={self.builds} "
            f"evictions={self.evictions} hit-rate={self.hit_rate:.1%}"
        )


@dataclass
class _Entry:
    plan: PlanNode
    freshness: FreshnessVector


class PlanCache:
    """LRU cache of optimized plans with freshness validation on lookup.

    Shared by all of an :class:`~repro.engine.Engine`'s sessions, which
    call it from the one thread that runs the engine's executions; it is
    not thread-safe.  Cached :class:`PlanNode` trees are treated as
    immutable: they are linted before publication and only read
    afterwards (``build_executable`` constructs fresh operators).
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[PlanCacheKey, _Entry]" = OrderedDict()
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    def lookup(
        self, key: PlanCacheKey, freshness: FreshnessVector
    ) -> Optional[PlanNode]:
        """A fresh cached plan, or ``None`` (counting a miss).

        A present-but-stale entry counts an invalidation *and* a miss and
        is evicted, so the stale plan can never be returned again.
        """
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
        """The fresh plan for ``key``, building and storing it on a miss.

        Returns ``(plan, event)`` with ``event`` ``"hit"`` (served from
        cache) or ``"miss"`` (this call optimized).
        """
        plan = self.lookup(key, freshness)
        if plan is not None:
            return plan, "hit"
        plan = builder()
        self.store(key, freshness, plan)
        return plan, "miss"

    def store(
        self, key: PlanCacheKey, freshness: FreshnessVector, plan: PlanNode
    ) -> None:
        """Publish a built plan (evicting LRU entries over capacity)."""
        self._entries[key] = _Entry(plan=plan, freshness=freshness)
        self._entries.move_to_end(key)
        self.stats.builds += 1
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    # ------------------------------------------------------------------
    def invalidate(self, table: Optional[str] = None) -> int:
        """Drop entries touching ``table`` (or all entries); returns count.

        Freshness validation already prevents stale *serving*; this is
        the explicit operational lever (DBA dropped an index, reloaded a
        table object wholesale, swapped in an unrelated feedback store, …).
        """
        doomed = [
            key
            for key, entry in self._entries.items()
            if table is None
            or any(name == table for name, _, _ in entry.freshness)
        ]
        for key in doomed:
            del self._entries[key]
        self.stats.invalidations += len(doomed)
        return len(doomed)

    def __repr__(self) -> str:
        return (
            f"PlanCache({len(self._entries)}/{self.capacity} entries, "
            f"hits={self.stats.hits}, misses={self.stats.misses})"
        )
