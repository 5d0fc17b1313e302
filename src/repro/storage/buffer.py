"""LRU buffer pool: shared page-residency state, per-execution accounting.

Every page access in the engine goes through :meth:`BufferPool.access`.
A *logical* read that misses the pool becomes a *physical* read and
charges the caller's :class:`~repro.storage.accounting.IOContext` — a
full random read for point accesses (Fetch, B-tree traversal) or an
amortised sequential read for scan readahead.  The paper's experiments
run with a **cold cache** ("All execution times were measured with a
cold cache which ensures that effects due to buffering are eliminated"),
which :meth:`reset` provides; within one query the pool still absorbs
repeated fetches of the same hot page, exactly the effect that makes
*distinct* page count (not fetch count) the right cost parameter.

The pool splits *state* from *accounting*: which pages are resident is
shared by every non-isolated context, but every counter and time charge
lands on the context the caller passed in, never on a global.  An
``isolated`` context bypasses the shared frames entirely and uses its
own private frame set with the same capacity — a dedicated cold cache,
which is what lets every engine execution reproduce a serial cold-cache
run exactly.  The pool has no lock: an engine runs one execution at a
time, and every engine execution reads through an isolated context.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Collection, Sequence

from repro.common.errors import BufferPoolError
from repro.common.types import FileId, PageId
from repro.storage.accounting import IOContext


@dataclass
class BufferPoolStats:
    """Cumulative shared-pool counters since the last
    :meth:`BufferPool.reset_stats`.

    These describe traffic through the *shared* frame set only; isolated
    contexts keep their own counters (see
    :class:`~repro.storage.accounting.IOContext`), which is what
    per-query ``RunStats`` report.
    """

    logical_reads: int = 0
    physical_reads: int = 0
    physical_random: int = 0
    physical_sequential: int = 0
    evictions: int = 0

    @property
    def hit_ratio(self) -> float:
        """Fraction of logical reads served without a physical read.

        Defined as 0.0 when ``logical_reads`` is zero: a pool that has
        served no reads has demonstrated no warmth, so the "everything
        was cold" value is reported rather than raising or returning NaN.
        """
        if self.logical_reads == 0:
            return 0.0
        return 1.0 - self.physical_reads / self.logical_reads


class BufferPool:
    """Fixed-capacity LRU cache of ``(file_id, page_id)`` frames.

    The pool stores only identities, not page payloads — the pages live in
    their files; what matters for the simulation is *whether a read is
    physical* and what it costs, and the cost always lands on the caller's
    :class:`~repro.storage.accounting.IOContext`.
    """

    def __init__(self, capacity_pages: int = 8192) -> None:
        if capacity_pages <= 0:
            raise BufferPoolError(
                f"buffer pool capacity must be positive, got {capacity_pages}"
            )
        self.capacity_pages = capacity_pages
        self._frames: OrderedDict[tuple[FileId, PageId], None] = OrderedDict()
        self.stats = BufferPoolStats()

    def __contains__(self, key: tuple[FileId, PageId]) -> bool:
        return key in self._frames

    @property
    def resident_pages(self) -> int:
        return len(self._frames)

    def access(
        self,
        file_id: FileId,
        page_id: PageId,
        io: IOContext,
        sequential: bool = False,
    ) -> bool:
        """Record one logical page read; returns True if it hit a frame.

        On a miss the page is faulted in: ``io`` is charged one physical
        read (sequential or random) and an LRU victim is evicted if the
        frame set is full.  An ``isolated`` context uses its private frame
        set (same capacity, initially cold) and touches no shared state.
        Not thread-safe (see the module docstring).
        """
        key = (file_id, page_id)
        if io.isolated:
            return self._touch(io.private_frames(), key, io, sequential)
        hit = self._touch(self._frames, key, io, sequential)
        self.stats.logical_reads += 1
        if not hit:
            self.stats.physical_reads += 1
            if sequential:
                self.stats.physical_sequential += 1
            else:
                self.stats.physical_random += 1
        return hit

    def _touch(
        self,
        frames: "OrderedDict[tuple[FileId, PageId], None]",
        key: tuple[FileId, PageId],
        io: IOContext,
        sequential: bool,
    ) -> bool:
        if key in frames:
            frames.move_to_end(key)
            io.record_pool_hit()
            return True
        if sequential:
            io.charge_sequential_read()
        else:
            io.charge_random_read()
        if len(frames) >= self.capacity_pages:
            frames.popitem(last=False)
            io.record_eviction()
            if frames is self._frames:
                self.stats.evictions += 1
        frames[key] = None
        return False

    def access_sequence(
        self,
        keys: Sequence[tuple[FileId, PageId]],
        io: IOContext,
        sequential: Collection[int] = (),
    ) -> None:
        """Record the logical reads ``keys``, in order, as one :meth:`access`
        per key would: the same hits, the same physical reads charged in the
        same order, the same victims evicted.

        ``sequential`` holds the positions in ``keys`` read sequentially
        (a continuation leaf of an index range); every other read is
        random.  The stream's *order* is part of the contract — once the
        pool evicts, which page is the LRU victim depends on it — so a
        caller batching an operator's reads hands them over in the order
        the row-at-a-time operator makes them.  An immediate repeat of a
        key (the next row of the same data page) is a hit that needs no
        frame bookkeeping: the page is resident and already the most
        recently used.
        """
        sequential = frozenset(sequential)
        shared = not io.isolated
        frames = self._frames if shared else io.private_frames()
        capacity = self.capacity_pages
        move_to_end = frames.move_to_end
        charge_random, charge_sequential = io.charge_random_read, io.charge_sequential_read
        hits = evictions = 0
        random_before, sequential_before = io.random_reads, io.sequential_reads
        previous = None
        for position, key in enumerate(keys):
            if key == previous:
                hits += 1
                continue
            previous = key
            if key in frames:
                move_to_end(key)
                hits += 1
                continue
            if position in sequential:
                charge_sequential()
            else:
                charge_random()
            if len(frames) >= capacity:
                frames.popitem(last=False)
                evictions += 1
            frames[key] = None
        io.record_pool_hit(hits)
        io.record_eviction(evictions)
        if shared:
            random = io.random_reads - random_before
            in_sequence = io.sequential_reads - sequential_before
            stats = self.stats
            stats.logical_reads += len(keys)
            stats.physical_reads += random + in_sequence
            stats.physical_random += random
            stats.physical_sequential += in_sequence
            stats.evictions += evictions

    def reset(self) -> None:
        """Cold-cache reset: drop all shared frames (keeps cumulative stats)."""
        self._frames.clear()

    def reset_stats(self) -> None:
        self.stats = BufferPoolStats()

    def __repr__(self) -> str:
        return (
            f"BufferPool({len(self._frames)}/{self.capacity_pages} pages, "
            f"{self.stats.logical_reads} logical / {self.stats.physical_reads} physical)"
        )
