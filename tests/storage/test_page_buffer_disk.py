"""Tests for pages, the buffer pool and per-execution accounting contexts."""

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import BufferPoolError, PageError
from repro.common.types import RID, FileId, PageId
from repro.storage.accounting import IOContext
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskParameters
from repro.storage.heap import HeapFile
from repro.storage.page import (
    ROW_OVERHEAD_BYTES,
    USABLE_PAGE_BYTES,
    rows_per_page,
)


def make_file(rows, row_width=4000) -> HeapFile:
    """A heap of one-column rows, two to a page."""
    heap = HeapFile(FileId(0), row_width, BufferPool())
    heap.bulk_append([[list(rows)]])
    return heap


class TestPage:
    def test_append_and_get(self):
        heap = make_file([])
        assert heap.page_capacity == 2
        assert heap.append_row((1,)) == RID(PageId(0), 0)
        assert heap.append_row((2,)) == RID(PageId(0), 1)
        page = heap.page(PageId(0))
        assert page.get(1) == (2,)
        assert page.num_rows == 2

    def test_a_page_is_a_window_over_the_file(self):
        heap = make_file(range(3))
        before = heap.page(PageId(1))
        assert (before.num_rows, before.capacity) == (1, 2)
        heap.append_row((3,))  # tops the part-filled page up, opens no new one
        assert heap.num_pages == 2
        assert before.rows_list() == [(2,)]  # the window it was taken as
        assert heap.page(PageId(1)).rows_list() == [(2,), (3,)]
        assert type(heap.page(PageId(1)).get(0)[0]) is int

    def test_bad_slot(self):
        page = make_file(range(3)).page(PageId(1))
        for slot in (-1, 1, 2):
            with pytest.raises(PageError):
                page.get(slot)

    def test_rows_in_slot_order(self):
        heap = make_file(range(5), row_width=1000)
        page = heap.page(PageId(0))
        assert [r[0] for r in page.rows()] == list(range(5))
        assert page.rows_list() == [(i,) for i in range(5)]

    def test_capacity_validation(self):
        # A page's capacity is its file's, and never below one row.
        heap = HeapFile(FileId(0), 10**9, BufferPool(), fill_factor=0.01)
        heap.append_row((1,))
        heap.append_row((2,))
        assert heap.page_capacity == 1 == heap.page(PageId(1)).capacity
        assert heap.page(PageId(1)).rows_list() == [(2,)]

    def test_rows_per_page_formula(self):
        assert rows_per_page(100) == USABLE_PAGE_BYTES // (100 + ROW_OVERHEAD_BYTES)
        assert rows_per_page(10**9) == 1  # huge rows still fit one per page
        with pytest.raises(PageError):
            rows_per_page(0)


def read(pool, io, page, file_id=0, sequential=False) -> bool:
    """One logical read through the pool's walk; whether it hit a frame."""
    hits = io.pool_hits
    sequential_at = (0,) if sequential else ()
    pool.access_sequence([(FileId(file_id), PageId(page))], io, sequential_at)
    return io.pool_hits > hits


class TestBufferPool:
    def make(self, capacity=4):
        return BufferPool(capacity_pages=capacity), IOContext()

    def test_miss_then_hit(self):
        pool, io = self.make()
        assert read(pool, io, 1) is False
        assert read(pool, io, 1) is True
        assert io.logical_reads == 2
        assert io.physical_reads == 1
        assert io.pool_hits == 1

    def test_random_vs_sequential_charges(self):
        pool, io = self.make()
        read(pool, io, 1, sequential=False)
        read(pool, io, 2, sequential=True)
        params = io.params
        assert io.io_ms == pytest.approx(
            params.random_read_ms + params.sequential_read_ms
        )
        assert (io.random_reads, io.sequential_reads) == (1, 1)

    def test_lru_eviction_order(self):
        pool, io = self.make(capacity=2)
        read(pool, io, 1)
        read(pool, io, 2)
        read(pool, io, 1)  # touch 1: now 2 is LRU
        read(pool, io, 3)  # evicts 2
        assert list(io.frames) == [(FileId(0), PageId(1)), (FileId(0), PageId(3))]
        assert io.evictions == 1

    def test_files_are_distinct(self):
        pool, io = self.make()
        read(pool, io, 1)
        assert read(pool, io, 1, file_id=1) is False  # different file

    def test_capacity_validation(self):
        with pytest.raises(BufferPoolError):
            BufferPool(capacity_pages=0)

    def test_hit_ratio(self):
        pool, io = self.make()
        assert io.warm_ratio == 0.0  # zero logical reads -> all-cold
        read(pool, io, 1)
        read(pool, io, 1)
        assert io.warm_ratio == 0.5

    def test_charges_split_across_contexts(self):
        """Two executions on one pool each pay only their own reads, each
        in its own frames: the second context's read is a miss too."""
        pool, first = self.make()
        second = IOContext()
        read(pool, first, 1)  # miss, charged to first
        read(pool, second, 1)  # miss, charged to second
        assert first.physical_reads == 1 and first.pool_hits == 0
        assert second.physical_reads == 1 and second.pool_hits == 0
        assert list(first.frames) == list(second.frames) == [(FileId(0), PageId(1))]

    def test_isolated_context_ignores_shared_warmth(self):
        """Every context is isolated: another context's warmth, on the
        same pool, is no hit for a fresh one."""
        pool, warm = self.make()
        read(pool, warm, 1)
        fresh = IOContext()
        assert read(pool, fresh, 1) is False  # cold
        assert read(pool, fresh, 1) is True
        assert fresh.physical_reads == 1 and fresh.pool_hits == 1
        # ...and the warm context is left as it was.
        assert warm.logical_reads == 1 and len(warm.frames) == 1

    def test_isolated_frames_respect_capacity(self):
        pool, io = self.make(capacity=2)
        for page in (1, 2, 3):
            read(pool, io, page)
        assert io.evictions == 1
        assert len(io.frames) == 2

    @given(st.lists(st.integers(0, 20), min_size=1, max_size=200))
    def test_resident_never_exceeds_capacity(self, accesses):
        pool, io = self.make(capacity=5)
        for page in accesses:
            read(pool, io, page)
        assert len(io.frames) <= 5

    @given(st.lists(st.integers(0, 20), min_size=1, max_size=200))
    def test_isolated_matches_fresh_shared_pool(self, accesses):
        """A fresh context on a pool other contexts have read through is
        indistinguishable from one on a pool nothing has used."""
        used_pool, other = self.make(capacity=5)
        for page in accesses:
            read(used_pool, other, page)
        fresh = IOContext()
        unused_pool, control = self.make(capacity=5)
        for page in accesses:
            read(used_pool, fresh, page)
            read(unused_pool, control, page)
        assert fresh.physical_reads == control.physical_reads
        assert fresh.pool_hits == control.pool_hits
        assert fresh.evictions == control.evictions
        assert list(fresh.frames) == list(control.frames)


class TestAccessSequence:
    """The walk is one walk however a stream is cut: one call per key, or
    a few calls over runs of keys, give the same hits, physical reads and
    victims — checked on a 4-frame pool, where the order of the stream
    decides every eviction."""

    streams = st.lists(
        st.tuples(st.integers(0, 1), st.integers(0, 7), st.booleans()),
        max_size=120,
    )

    @given(
        stream=streams, cuts=st.lists(st.integers(0, 120), max_size=4), second=streams
    )
    def test_matches_access_per_key(self, stream, cuts, second):
        """``stream`` one key at a time against ``stream`` cut at ``cuts``;
        then each context is carried into a second run of ``second``, which
        starts warm on the first run's frames."""
        pool = BufferPool(4)
        io_one, io_batched = IOContext(), IOContext()
        for file_id, page_id, sequential in stream + second:
            read(pool, io_one, page_id, file_id, sequential)
        bounds = sorted({0, len(stream), *(cut for cut in cuts if cut < len(stream))})
        pieces = [stream[start:stop] for start, stop in zip(bounds, bounds[1:])]
        for piece in [*pieces, second]:
            pool.access_sequence(
                [(FileId(f), PageId(p)) for f, p, _ in piece],
                io_batched,
                {at for at, (_, _, sequential) in enumerate(piece) if sequential},
            )
        for counter in ("random_reads", "sequential_reads", "pool_hits", "evictions"):
            assert getattr(io_batched, counter) == getattr(io_one, counter), counter
        assert io_batched.io_ms == io_one.io_ms  # same additions, same order
        assert io_batched.logical_reads == len(stream) + len(second)
        assert list(io_batched.frames) == list(io_one.frames)  # final LRU order

    def test_immediate_repeats_are_hits(self):
        pool, io = BufferPool(4), IOContext()
        key = (FileId(0), PageId(3))
        pool.access_sequence([key, key, key, (FileId(0), PageId(4)), key], io)
        assert (io.random_reads, io.pool_hits) == (2, 3)
        assert io.logical_reads == 5


class TestIOContext:
    def test_charges_accumulate(self):
        io = IOContext()
        io.charge_random_read(2)
        io.charge_rows(100)
        assert io.random_reads == 2
        assert io.elapsed_ms == pytest.approx(
            2 * io.params.random_read_ms + 100 * io.params.cpu_row_ms
        )

    def test_contexts_are_independent(self):
        """The refactor's core guarantee: no shared mutable counters."""
        first = IOContext()
        second = IOContext()
        first.charge_sequential_read(3)
        second.charge_random_read(1)
        second.charge_hashes(10)
        assert first.random_reads == 0 and first.sequential_reads == 3
        assert second.random_reads == 1 and second.sequential_reads == 0
        assert second.elapsed_ms == pytest.approx(
            second.params.random_read_ms + 10 * second.params.cpu_hash_ms
        )

    def test_derived_read_counters(self):
        io = IOContext()
        io.charge_random_read(2)
        io.charge_sequential_read(3)
        io.pool_hits += 1
        assert io.physical_reads == 5
        assert io.logical_reads == 6
        assert io.warm_ratio == pytest.approx(1 / 6)

    def test_warm_ratio_zero_logical_reads(self):
        assert IOContext().warm_ratio == 0.0

    def test_negative_params_rejected(self):
        with pytest.raises(ValueError):
            DiskParameters(random_read_ms=-1)

    def test_custom_params_drive_charges(self):
        params = DiskParameters(random_read_ms=7.0)
        io = IOContext(params=params)
        io.charge_random_read()
        assert io.io_ms == pytest.approx(7.0)

    def test_all_charge_kinds(self):
        io = IOContext()
        io.charge_predicates(5)
        io.charge_bitvector_probes(5)
        io.charge_index_entries(5)
        io.charge_index_descent(2)
        io.charge_monitor_checks(100)
        assert io.cpu_ms > 0 and io.io_ms == 0
