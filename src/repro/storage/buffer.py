"""LRU buffer pool: one capacity and one page-access walk.

Every page access in the engine goes through
:meth:`BufferPool.access_sequence`.  A *logical* read that misses the
execution's buffer frames becomes a *physical* read and charges the
caller's :class:`~repro.storage.accounting.IOContext` — a full random
read for point accesses (Fetch, B-tree traversal) or an amortised
sequential read for scan readahead.

The frames belong to the context, not to the pool: every
:class:`~repro.storage.accounting.IOContext` owns its LRU frame set, so a
fresh context is a cold cache — the paper's methodology ("All execution
times were measured with a cold cache which ensures that effects due to
buffering are eliminated") — and a context carried into a second run is
a warm one.  Within one run the frames still absorb repeated fetches of
the same hot page, exactly the effect that makes *distinct* page count
(not fetch count) the right cost parameter.  The pool itself holds only
the capacity every frame set shares, so no execution can see another's
residency.
"""

from __future__ import annotations

from typing import Container, Sequence

from repro.common.errors import BufferPoolError
from repro.common.types import FileId, PageId
from repro.storage.accounting import IOContext


class BufferPool:
    """The frame capacity of one database and the LRU walk over a
    context's ``(file_id, page_id)`` frames.

    Frames hold only identities, not page payloads — the pages live in
    their files; what matters for the simulation is *whether a read is
    physical* and what it costs, and the cost always lands on the
    caller's :class:`~repro.storage.accounting.IOContext`.
    """

    def __init__(self, capacity_pages: int = 8192) -> None:
        if capacity_pages <= 0:
            raise BufferPoolError(
                f"buffer pool capacity must be positive, got {capacity_pages}"
            )
        self.capacity_pages = capacity_pages

    def access_sequence(
        self,
        keys: Sequence[tuple[FileId, PageId]],
        io: IOContext,
        sequential: Container[int] = (),
    ) -> None:
        """Record the logical reads ``keys``, in order, in ``io``'s frames.

        A resident key is a hit and becomes the most recently used frame.
        Any other key is faulted in: ``io`` is charged one physical read
        and, when the frame set is full, its least recently used frame is
        evicted.  ``sequential`` holds the positions in ``keys`` read
        sequentially (scan readahead, a continuation leaf of an index
        range) and must answer ``in`` in constant time (a set, a
        ``range``); every other read is random.  The stream's *order* is
        part of the contract — once the frames evict, which page is the
        LRU victim depends on it — so a caller batching an operator's
        reads hands them over in the order the row-at-a-time operator
        makes them, and cutting a stream into several calls changes
        nothing.  An immediate repeat of a key (the next row of the same
        data page) is a hit that needs no frame bookkeeping: the page is
        resident and already the most recently used.
        """
        frames = io.frames
        capacity = self.capacity_pages
        hits = 0
        previous = None
        for position, key in enumerate(keys):
            if key == previous:
                hits += 1
                continue
            previous = key
            if key in frames:
                frames.move_to_end(key)
                hits += 1
                continue
            if position in sequential:
                io.charge_sequential_read()
            else:
                io.charge_random_read()
            if len(frames) >= capacity:
                frames.popitem(last=False)
                io.evictions += 1
            frames[key] = None
        io.pool_hits += hits

    def __repr__(self) -> str:
        return f"BufferPool({self.capacity_pages} pages per context)"
