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


class TestBufferPool:
    def make(self, capacity=4):
        return BufferPool(capacity_pages=capacity), IOContext()

    def test_miss_then_hit(self):
        pool, io = self.make()
        assert pool.access(FileId(0), PageId(1), io) is False
        assert pool.access(FileId(0), PageId(1), io) is True
        assert pool.stats.logical_reads == 2
        assert pool.stats.physical_reads == 1
        assert io.logical_reads == 2
        assert io.physical_reads == 1
        assert io.pool_hits == 1

    def test_random_vs_sequential_charges(self):
        pool, io = self.make()
        pool.access(FileId(0), PageId(1), io, sequential=False)
        pool.access(FileId(0), PageId(2), io, sequential=True)
        params = io.params
        assert io.io_ms == pytest.approx(
            params.random_read_ms + params.sequential_read_ms
        )
        assert pool.stats.physical_random == 1
        assert pool.stats.physical_sequential == 1

    def test_lru_eviction_order(self):
        pool, io = self.make(capacity=2)
        pool.access(FileId(0), PageId(1), io)
        pool.access(FileId(0), PageId(2), io)
        pool.access(FileId(0), PageId(1), io)  # touch 1: now 2 is LRU
        pool.access(FileId(0), PageId(3), io)  # evicts 2
        assert (FileId(0), PageId(1)) in pool
        assert (FileId(0), PageId(2)) not in pool
        assert pool.stats.evictions == 1
        assert io.evictions == 1

    def test_files_are_distinct(self):
        pool, io = self.make()
        pool.access(FileId(0), PageId(1), io)
        assert pool.access(FileId(1), PageId(1), io) is False  # different file

    def test_reset_keeps_stats(self):
        pool, io = self.make()
        pool.access(FileId(0), PageId(1), io)
        pool.reset()
        assert pool.resident_pages == 0
        assert pool.stats.physical_reads == 1
        pool.reset_stats()
        assert pool.stats.physical_reads == 0

    def test_capacity_validation(self):
        with pytest.raises(BufferPoolError):
            BufferPool(capacity_pages=0)

    def test_hit_ratio(self):
        pool, io = self.make()
        assert pool.stats.hit_ratio == 0.0  # zero logical reads -> all-cold
        pool.access(FileId(0), PageId(1), io)
        pool.access(FileId(0), PageId(1), io)
        assert pool.stats.hit_ratio == 0.5

    def test_charges_split_across_contexts(self):
        """Two executions sharing the pool each pay only their own reads."""
        pool, first = self.make()
        second = IOContext()
        pool.access(FileId(0), PageId(1), first)  # miss, charged to first
        pool.access(FileId(0), PageId(1), second)  # hit, charged to second
        assert first.physical_reads == 1 and first.pool_hits == 0
        assert second.physical_reads == 0 and second.pool_hits == 1
        assert pool.stats.logical_reads == 2

    def test_isolated_context_ignores_shared_warmth(self):
        pool, shared = self.make()
        pool.access(FileId(0), PageId(1), shared)  # warms the shared frames
        isolated = IOContext(isolated=True)
        assert pool.access(FileId(0), PageId(1), isolated) is False  # cold
        assert pool.access(FileId(0), PageId(1), isolated) is True
        assert isolated.physical_reads == 1 and isolated.pool_hits == 1
        # ...and leaves no trace in the shared pool or its stats.
        assert pool.stats.logical_reads == 1
        assert pool.resident_pages == 1

    def test_isolated_frames_respect_capacity(self):
        pool, _ = self.make(capacity=2)
        io = IOContext(isolated=True)
        for page in (1, 2, 3):
            pool.access(FileId(0), PageId(page), io)
        assert io.evictions == 1
        assert len(io.private_frames()) == 2

    @given(st.lists(st.integers(0, 20), min_size=1, max_size=200))
    def test_resident_never_exceeds_capacity(self, accesses):
        pool, io = self.make(capacity=5)
        for page in accesses:
            pool.access(FileId(0), PageId(page), io)
        assert pool.resident_pages <= 5

    @given(st.lists(st.integers(0, 20), min_size=1, max_size=200))
    def test_isolated_matches_fresh_shared_pool(self, accesses):
        """An isolated context is indistinguishable from a private cold pool."""
        shared_pool, _ = self.make(capacity=5)
        isolated = IOContext(isolated=True)
        private_pool, private = self.make(capacity=5)
        for page in accesses:
            shared_pool.access(FileId(0), PageId(page), isolated)
            private_pool.access(FileId(0), PageId(page), private)
        assert isolated.physical_reads == private.physical_reads
        assert isolated.pool_hits == private.pool_hits
        assert isolated.evictions == private.evictions


class TestAccessSequence:
    """``access_sequence`` is ``access`` per key: same hits, same physical
    reads, same victims — checked on a 4-frame pool, where the order of the
    stream decides every eviction."""

    @staticmethod
    def lru_order(pool, io, universe):
        """Resident keys, least recently used first (by evicting them)."""
        if io.isolated:
            return list(io.private_frames())
        resident = [key for key in universe if key in pool]
        order, probe = [], IOContext()
        for fresh in range(len(resident)):
            pool.access(FileId(99), PageId(fresh), probe)
            order += [key for key in resident if key not in pool and key not in order]
        return order

    @given(
        stream=st.lists(
            st.tuples(st.integers(0, 1), st.integers(0, 7), st.booleans()),
            max_size=120,
        ),
        cuts=st.lists(st.integers(0, 120), max_size=4),
        isolated=st.booleans(),
    )
    def test_matches_access_per_key(self, stream, cuts, isolated):
        universe = [(FileId(f), PageId(p)) for f in range(2) for p in range(8)]
        one_by_one, batched = BufferPool(4), BufferPool(4)
        io_one, io_batched = IOContext(isolated=isolated), IOContext(isolated=isolated)
        for file_id, page_id, sequential in stream:
            one_by_one.access(FileId(file_id), PageId(page_id), io_one, sequential)
        bounds = sorted({0, len(stream), *(cut for cut in cuts if cut < len(stream))})
        for start, stop in zip(bounds, bounds[1:]):
            piece = stream[start:stop]
            batched.access_sequence(
                [(FileId(f), PageId(p)) for f, p, _ in piece],
                io_batched,
                [at for at, (_, _, sequential) in enumerate(piece) if sequential],
            )
        for counter in ("random_reads", "sequential_reads", "pool_hits", "evictions"):
            assert getattr(io_batched, counter) == getattr(io_one, counter), counter
        assert io_batched.io_ms == io_one.io_ms  # same additions, same order
        assert batched.stats == one_by_one.stats
        assert (batched.stats.logical_reads == 0) == (isolated or not stream)
        assert self.lru_order(batched, io_batched, universe) == self.lru_order(
            one_by_one, io_one, universe
        )

    def test_immediate_repeats_are_hits(self):
        pool, io = BufferPool(4), IOContext()
        key = (FileId(0), PageId(3))
        pool.access_sequence([key, key, key, (FileId(0), PageId(4)), key], io)
        assert (io.random_reads, io.pool_hits) == (2, 3)
        assert pool.stats.logical_reads == 5


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
        io.record_pool_hit()
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
