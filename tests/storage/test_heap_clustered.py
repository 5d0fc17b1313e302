"""Tests for heap files and clustered files."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import StorageError
from repro.common.types import FileId, RID, PageId
from repro.exec import vector
from repro.storage.accounting import IOContext
from repro.storage.buffer import BufferPool
from repro.storage.clustered import ClusteredFile
from repro.storage.heap import HeapFile

from tests.conftest import by_column


def make_heap(row_width=400) -> HeapFile:
    pool = BufferPool(capacity_pages=1000)
    return HeapFile(FileId(0), row_width, pool)


def make_clustered(rows, key_positions=(0,), row_width=400) -> ClusteredFile:
    pool = BufferPool(capacity_pages=1000)
    cf = ClusteredFile(FileId(0), row_width, pool, key_positions=key_positions)
    cf.bulk_load([by_column(rows)])
    return cf


class TestHeapFile:
    def test_append_returns_dense_rids(self):
        heap = make_heap()
        rids = [heap.append_row((i,)) for i in range(50)]
        capacity = heap.page_capacity
        assert rids[0] == RID(PageId(0), 0)
        assert rids[capacity] == RID(PageId(1), 0)

    def test_fetch_roundtrip(self):
        heap = make_heap()
        heap.bulk_append([by_column([(i, i * 2) for i in range(100)])])
        rids = list(heap.rids())
        page_id, row = heap.fetch(IOContext(), rids[42])
        assert row == (42, 84)
        assert page_id == rids[42].page_id

    def test_fetch_charges_random_read(self):
        heap = make_heap()
        heap.bulk_append([by_column([(i,) for i in range(10)])])
        io = IOContext()
        heap.fetch(io, next(heap.rids()))
        assert io.random_reads == 1

    def test_scan_charges_sequential(self):
        heap = make_heap()
        heap.bulk_append([by_column([(i,) for i in range(100)])])
        io = IOContext()
        list(heap.scan_rows(io))
        assert io.sequential_reads == heap.num_pages
        assert io.random_reads == 0

    def test_grouped_page_access_property(self):
        """Once a scan leaves a page, it never returns to it (§III-B)."""
        heap = make_heap()
        heap.bulk_append([by_column([(i,) for i in range(200)])])
        seen: list[int] = []
        for page_id, _slot, _row in heap.scan_rows(IOContext()):
            if not seen or seen[-1] != page_id:
                seen.append(int(page_id))
        assert seen == sorted(set(seen))

    def test_num_rows_is_maintained_by_both_append_paths(self):
        heap = make_heap()
        assert heap.num_rows == 0
        heap.append_row((0,))
        heap.bulk_append([by_column([(i,) for i in range(1, 50)])])
        heap.append_row((50,))
        assert heap.num_rows == 51 == sum(
            heap.page(PageId(i)).num_rows for i in range(heap.num_pages)
        )

    @settings(max_examples=30, deadline=None)
    @given(
        sizes=st.lists(st.integers(0, 45), min_size=1, max_size=6),
        singles=st.integers(0, 3),
    )
    def test_bulk_append_packs_like_append_row(self, sizes, singles):
        """Slice packing tops up a part-filled page first: same pages, RIDs."""
        by_row, by_slice = make_heap(), make_heap()
        value = 0
        for size in sizes:
            batch = [(value + i, "x") for i in range(size)]
            value += size
            before = by_slice.num_rows
            by_slice.bulk_append([by_column(batch, width=2)])
            assert list(by_slice.rids(before)) == [
                by_row.append_row(row) for row in batch
            ]
            for _ in range(singles):
                single = (value, "y")
                assert by_slice.append_row(single) == by_row.append_row(single)
                value += 1
        assert by_slice.num_rows == by_row.num_rows == value
        assert [
            by_slice.page(PageId(i)).rows_list() for i in range(by_slice.num_pages)
        ] == [by_row.page(PageId(i)).rows_list() for i in range(by_row.num_pages)]

    def test_bad_page_rejected(self):
        heap = make_heap()
        heap.append_row((1,))
        with pytest.raises(StorageError):
            heap.fetch(IOContext(), RID(PageId(99), 0))

    def test_fill_factor_reduces_capacity(self):
        pool = BufferPool()
        full = HeapFile(FileId(0), 400, pool, fill_factor=1.0)
        half = HeapFile(FileId(1), 400, pool, fill_factor=0.5)
        assert half.page_capacity == max(1, int(full.page_capacity * 0.5))
        with pytest.raises(StorageError):
            HeapFile(FileId(2), 400, pool, fill_factor=0.0)


class TestClusteredFile:
    def test_rows_sorted_by_key(self):
        rows = [(i,) for i in reversed(range(100))]
        cf = make_clustered(rows)
        scanned = [row[0] for _pid, _slot, row in cf.scan_rows(IOContext())]
        assert scanned == sorted(scanned)

    def test_stable_for_duplicate_keys(self):
        rows = [(1, "a"), (0, "x"), (1, "b"), (1, "c")]
        cf = make_clustered(rows)
        values = [row for _pid, _slot, row in cf.scan_rows(IOContext())]
        assert values == [(0, "x"), (1, "a"), (1, "b"), (1, "c")]

    def test_double_load_rejected(self):
        cf = make_clustered([(1,)])
        with pytest.raises(StorageError):
            cf.bulk_load([by_column([(2,)])])

    def test_seek_before_load_rejected(self):
        pool = BufferPool()
        cf = ClusteredFile(FileId(0), 100, pool, key_positions=(0,))
        with pytest.raises(StorageError):
            list(cf.seek_range(IOContext(), (1,), (2,)))

    def test_range_seek_reads_only_needed_pages(self):
        rows = [(i,) for i in range(1000)]
        cf = make_clustered(rows, row_width=400)
        io = IOContext()
        hits = list(cf.seek_range(io, (0,), (20,), True, False))
        assert len(hits) == 20
        assert io.sequential_reads <= 2  # 20 rows at ~19 rows/page

    def test_fetch_by_key_single(self):
        rows = [(i, i * 10) for i in range(500)]
        cf = make_clustered(rows)
        matches = list(cf.fetch_by_key(IOContext(), (123,)))
        assert [row for _pid, row in matches] == [(123, 1230)]

    def test_fetch_by_key_duplicates_spanning_pages(self):
        rows = [(0, j) for j in range(40)] + [(1, j) for j in range(40)]
        cf = make_clustered(rows, row_width=400)  # ~19 rows/page
        matches = [row for _pid, row in cf.fetch_by_key(IOContext(), (1,))]
        assert len(matches) == 40
        assert all(row[0] == 1 for row in matches)

    def test_fetch_by_key_missing(self):
        cf = make_clustered([(i,) for i in range(100)])
        assert list(cf.fetch_by_key(IOContext(), (999,))) == []

    def test_fetch_by_key_charges_descent(self):
        cf = make_clustered([(i,) for i in range(100)])
        io = IOContext()
        list(cf.fetch_by_key(io, (5,)))
        assert io.cpu_ms > 0

    @settings(max_examples=25, deadline=None)
    @given(
        keys=st.lists(st.integers(0, 100), min_size=1, max_size=200),
        low=st.integers(-10, 110),
        span=st.integers(0, 60),
    )
    def test_seek_range_matches_bruteforce(self, keys, low, span):
        rows = [(k, i) for i, k in enumerate(keys)]
        cf = make_clustered(rows, row_width=1000)
        high = low + span
        got = sorted(
            row for _pid, _slot, row in cf.seek_range(IOContext(), (low,), (high,))
        )
        expected = sorted((k, i) for i, k in enumerate(keys) if low <= k <= high)
        assert got == expected

    @settings(max_examples=150, deadline=None)
    @given(
        # Few distinct keys on ~7-row pages: duplicates straddle fences.
        keys=st.lists(st.integers(0, 30), min_size=1, max_size=120),
        low=st.one_of(st.none(), st.integers(-3, 33)),
        high=st.one_of(st.none(), st.integers(-3, 33)),  # below low: empty
        low_inclusive=st.booleans(),
        high_inclusive=st.booleans(),
        composite=st.booleans(),  # two-column key, one-column (prefix) bounds
        rows_per_chunk=st.sampled_from([1, 10, 1_000]),
    )
    def test_seek_range_chunks_is_seek_range_grouped_by_page(
        self, keys, low, high, low_inclusive, high_inclusive, composite, rows_per_chunk
    ):
        """Chunks cut at the bounds hold the row oracle's pages and rows,
        and the reads — the early stop's included — are the oracle's."""
        rows = [(k, i % 3, i) for i, k in enumerate(keys)]
        cf = make_clustered(
            rows, key_positions=(0, 1) if composite else (0,), row_width=1000
        )
        bounds = (
            None if low is None else (low,),
            None if high is None else (high,),
            low_inclusive,
            high_inclusive,
        )
        io_rows, io_chunks = IOContext(), IOContext()
        grouped = _grouped_by_page(
            (page_id, row) for page_id, _slot, row in cf.seek_range(io_rows, *bounds)
        )
        chunked = _grouped_by_page(
            _chunk_rows(cf.seek_range_chunks(io_chunks, rows_per_chunk, *bounds))
        )
        assert chunked == grouped
        assert (io_chunks.sequential_reads, io_chunks.random_reads) == (
            io_rows.sequential_reads,
            io_rows.random_reads,
        )
        assert io_chunks.logical_reads == io_rows.logical_reads

    def test_seek_range_chunks_cut_only_the_boundary_pages(self):
        cf = make_clustered([(i,) for i in range(200)], row_width=400)
        capacity = cf.page_capacity
        bounds = ((3,), (3 * capacity + 1,), True, True)
        paged = list(cf.seek_range_chunks(IOContext(), 1, *bounds))
        assert [(first, count, num_rows) for first, count, _, num_rows, _ in paged] == [
            (0, 1, capacity - 3), (1, 1, capacity), (2, 1, capacity), (3, 1, 2),
        ]
        # One wide chunk: the same pages, segmented by ``page_starts``.
        ((first, count, columns, num_rows, starts),) = cf.seek_range_chunks(
            IOContext(), 1_000, *bounds
        )
        assert (first, count, num_rows) == (0, 4, 3 * capacity - 1)
        assert starts == [0, capacity - 3, 2 * capacity - 3, 3 * capacity - 3]
        assert list(columns[0]) == list(range(3, 3 * capacity + 2))

    def test_seek_range_chunks_read_the_page_past_the_range(self):
        """The oracle reads the page holding the first row past the range
        even when it yields nothing from it; the chunk form charges that
        read but puts the page in no chunk."""
        cf = make_clustered([(i,) for i in range(200)], row_width=400)
        capacity = cf.page_capacity
        cases = {
            # Ends exactly on a page boundary: page 1 is read, not chunked.
            "boundary": (((0,), (capacity,), True, False), [0], 2),
            # Empty inside the file: the page holding ``low`` is read.
            "empty": (((capacity + 2,), (capacity + 2,), True, False), [], 1),
            # Below ``low``: the same single read.
            "inverted": (((capacity + 2,), (1,), True, True), [], 1),
            # Past the last key: nothing to read at all.
            "past_the_end": (((500,), None, True, True), [], 0),
            # Open upper bound: no page past the file.
            "to_the_end": (((190,), None, True, True), None, None),
        }
        for name, (bounds, pages, reads) in cases.items():
            io_rows, io_chunks = IOContext(), IOContext()
            oracle = list(cf.seek_range(io_rows, *bounds))
            chunks = list(cf.seek_range_chunks(io_chunks, 1, *bounds))
            chunk_pages = [first for first, *_ in chunks]
            assert chunk_pages == sorted({page for page, _slot, _row in oracle}), name
            assert io_chunks.sequential_reads == io_rows.sequential_reads, name
            if pages is not None:
                assert (chunk_pages, io_chunks.sequential_reads) == (pages, reads), name

    def test_range_rows_bisects_to_row_positions(self):
        cf = make_clustered([(i // 2,) for i in range(100)], row_width=400)
        assert cf.range_rows(None, None) == (0, 100)
        assert cf.range_rows((10,), (12,)) == (20, 26)
        assert cf.range_rows((10,), (12,), False, False) == (22, 24)
        assert cf.range_rows((30,), (20,)) == (60, 60)
        assert cf.range_rows((99,), None) == (100, 100)

    @settings(max_examples=150, deadline=None)
    @given(
        # Few distinct even keys on ~7-row pages: runs straddle page fences,
        # and odd probes fall between fences, -1 below and 13 above them all.
        keys=st.lists(st.integers(0, 6).map(lambda k: 2 * k), min_size=1, max_size=90),
        probe=st.integers(-1, 13),
    )
    def test_fetch_by_key_is_a_linear_filter(self, keys, probe):
        """Each page of the run is bisected, not walked: same rows, same
        pages (first random, continuation sequential), same descent."""
        rows = [(k, i) for i, k in enumerate(keys)]
        cf = make_clustered(rows, row_width=1000)
        io = IOContext()
        got = list(cf.fetch_by_key(io, (probe,)))
        stored = [
            (page_id, row) for page_id, _slot, row in cf.scan_rows(IOContext())
        ]
        assert got == [(page_id, row) for page_id, row in stored if row[0] == probe]
        # Pages read: every page whose fences straddle the probe, in order.
        pages = [page_id for page_id, row in stored]
        straddling = sorted(
            page_id for page_id in set(pages)
            if min(r[0] for p, r in stored if p == page_id) <= probe
            <= max(r[0] for p, r in stored if p == page_id)
        )
        assert io.logical_reads == len(straddling)  # none when the key falls between fences
        assert io.random_reads == min(1, len(straddling))
        assert io.sequential_reads == max(0, len(straddling) - 1)
        assert io.cpu_ms == io.params.cpu_index_descent_ms

    @settings(max_examples=25, deadline=None)
    @given(keys=st.lists(st.integers(0, 50), min_size=1, max_size=150))
    def test_fetch_by_key_matches_bruteforce(self, keys):
        rows = [(k, i) for i, k in enumerate(keys)]
        cf = make_clustered(rows, row_width=1000)
        probe = keys[len(keys) // 2]
        got = sorted(row for _pid, row in cf.fetch_by_key(IOContext(), (probe,)))
        expected = sorted((k, i) for i, k in enumerate(keys) if k == probe)
        assert got == expected


def _chunk_rows(chunks):
    """``(page_id, row)`` for every row of ``seek_range_chunks`` chunks."""
    for first_page_id, _count, columns, num_rows, page_starts in chunks:
        rows = vector.rows_from_columns(list(columns), num_rows)
        stops = [*page_starts[1:], num_rows]
        for page, (start, stop) in enumerate(zip(page_starts, stops)):
            for row in rows[start:stop]:
                yield first_page_id + page, row


def _grouped_by_page(located):
    grouped: list[tuple[PageId, list[tuple]]] = []
    for page_id, row in located:
        if not grouped or grouped[-1][0] != page_id:
            grouped.append((page_id, []))
        grouped[-1][1].append(row)
    return grouped
