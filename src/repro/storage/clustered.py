"""Clustered files: rows physically ordered by a clustering key.

A clustered table *is* its clustered index: rows are packed into pages in
key order, so a key-range predicate touches one contiguous run of pages.
We model the B-tree above the leaf level implicitly — range seeks locate
the first qualifying page by binary search over per-page key fences (the
engine assumption, shared with Mackert–Lohman, that non-leaf index levels
stay cached), then read leaf pages sequentially.

Bulk load sorts the rows once.  Non-unique clustering keys are allowed;
ties keep their input order (a stable sort), mirroring SQL Server's
uniquifier mechanism without materialising it — the tables are immutable
after load, so secondary indexes can carry physical RIDs directly (the
page-access pattern, which is what the paper's monitors observe, is
identical to chasing clustering keys).
"""

from __future__ import annotations

import bisect
from typing import Any, Iterable, Iterator, Optional, Sequence

from repro.common.errors import StorageError
from repro.common.types import FileId, PageId
from repro.storage.accounting import IOContext
from repro.storage.buffer import BufferPool
from repro.storage.heap import DataFile


class ClusteredFile(DataFile):
    """A table stored in clustering-key order."""

    layout_name = "clustered"

    def __init__(
        self,
        file_id: FileId,
        row_width_bytes: int,
        buffer_pool: BufferPool,
        key_positions: Sequence[int],
        fill_factor: float = 1.0,
    ) -> None:
        super().__init__(file_id, row_width_bytes, buffer_pool, fill_factor)
        if not key_positions:
            raise StorageError("clustered file needs at least one key column")
        self.key_positions = tuple(key_positions)
        self._loaded = False
        # Per-page fences: highest key on each page, for leaf binary search.
        self._page_high_keys: list[tuple] = []
        self._page_low_keys: list[tuple] = []

    def key_of(self, row: Sequence[Any]) -> tuple:
        """The clustering-key tuple of a row."""
        return tuple(row[pos] for pos in self.key_positions)

    # ------------------------------------------------------------------
    # Load path
    # ------------------------------------------------------------------
    def bulk_load(self, batches: Iterable[Sequence[Any]]) -> None:
        """Store the rows (batches of columns, as :meth:`bulk_append` takes
        them) sorted by the clustering key.

        May be called exactly once; the file is immutable afterwards.
        """
        if self._loaded:
            raise StorageError(
                f"clustered file {int(self.file_id)} was already bulk-loaded"
            )
        self.bulk_append(batches)
        vector = self._vector
        columns = self._columns
        # Stable, so ties keep input order.
        order = vector.sort_order([columns[pos] for pos in self.key_positions])
        # In place, a column at a time (nothing reads a file mid-load): only
        # one column's unsorted copy is alive beside the table.
        for position, column in enumerate(columns):
            columns[position] = vector.values_at(column, order)
        # The fences are the keys of each page's first and last row.
        capacity = self.page_capacity
        firsts = range(0, self.num_rows, capacity)
        self._page_low_keys = self._keys_at(firsts)
        self._page_high_keys = self._keys_at(
            [min(first + capacity, self.num_rows) - 1 for first in firsts]
        )
        self._loaded = True

    def _keys_at(self, positions: Sequence[int]) -> list[tuple]:
        """The clustering-key tuples of the rows at ``positions``."""
        columns = self._columns
        return self._vector.rows_at(
            [columns[pos] for pos in self.key_positions], list(positions)
        )

    def _page_keys(self, page_id: int) -> tuple[int, list[tuple]]:
        """A page's first row position and its rows' key tuples (sorted):
        what locates a key run inside the page without building its rows."""
        start = page_id * self.page_capacity
        stop = min(start + self.page_capacity, self.num_rows)
        columns = self._columns
        slice_values = self._vector.slice_values
        keys = [slice_values(columns[pos], start, stop) for pos in self.key_positions]
        return start, list(zip(*keys))

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def _require_loaded(self) -> None:
        if not self._loaded:
            raise StorageError(
                f"clustered file {int(self.file_id)} has not been bulk-loaded yet"
            )

    def first_page_with_key_ge(self, key: tuple) -> int:
        """Index of the first page whose highest key is >= ``key``."""
        self._require_loaded()
        return bisect.bisect_left(self._page_high_keys, key)

    def first_page_with_key_gt(self, key: tuple) -> int:
        """Index of the first page whose highest key is > ``key``."""
        self._require_loaded()
        return bisect.bisect_right(self._page_high_keys, key)

    def seek_range(
        self,
        io: IOContext,
        low: Optional[tuple],
        high: Optional[tuple],
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> Iterator[tuple[PageId, int, tuple]]:
        """Yield ``(page_id, slot, row)`` for rows with key in the range.

        ``None`` bounds are open.  Pages are read sequentially starting at
        the first qualifying page; the scan stops at the first row past the
        upper bound (grouped page access holds within the range).  This is
        the row oracle's seek; the batch drive reads the same pages through
        :meth:`seek_range_chunks`.
        """
        self._require_loaded()
        start = 0
        if low is not None:
            start = (
                self.first_page_with_key_ge(low)
                if low_inclusive
                else self.first_page_with_key_gt(low)
            )
        for page_id, page in self.scan_pages(io, start_page=start):
            for slot, row in enumerate(page.rows()):
                key = self.key_of(row)
                if low is not None:
                    if low_inclusive and key < low:
                        continue
                    if not low_inclusive and key <= low:
                        continue
                if high is not None:
                    if high_inclusive and key > high:
                        return
                    if not high_inclusive and key >= high:
                        return
                yield page_id, slot, row

    def range_rows(
        self,
        low: Optional[tuple],
        high: Optional[tuple],
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> tuple[int, int]:
        """The row positions ``[start, stop)`` holding the keys in the range
        (no I/O): one fence bisection and one in-page bisection per bound.
        An empty range has ``start == stop``."""
        self._require_loaded()
        start, stop = 0, self.num_rows
        if low is not None:
            start = self._first_row(low, past=not low_inclusive)
        if high is not None:
            stop = self._first_row(high, past=high_inclusive)
        return start, max(start, stop)

    def _first_row(self, key: tuple, past: bool) -> int:
        """Position of the first row whose key is > ``key`` (``past``) or
        >= ``key``; the row count when there is none."""
        find = bisect.bisect_right if past else bisect.bisect_left
        page_id = find(self._page_high_keys, key)
        if page_id == self.num_pages:
            return self.num_rows
        base, keys = self._page_keys(page_id)
        return base + find(keys, key)

    def seek_range_chunks(
        self,
        io: IOContext,
        rows_per_chunk: int,
        low: Optional[tuple],
        high: Optional[tuple],
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> Iterator[tuple[PageId, int, Any, int, list[int]]]:
        """Chunk form of :meth:`seek_range`: :meth:`scan_column_chunks`
        over :meth:`range_rows`, with :meth:`seek_range`'s reads.

        :meth:`seek_range` stops at the first row past the range, so it
        also reads the page holding that row when no row of the range is
        on it (the range is empty or ends on a page boundary).  That read
        is charged here after the last chunk; the page is in no chunk, so
        a monitor flips no coin for it and counts no touch.
        """
        start, stop = self.range_rows(low, high, low_inclusive, high_inclusive)
        yield from self.scan_column_chunks(io, rows_per_chunk, start, stop)
        if stop < self.num_rows and (start == stop or not stop % self.page_capacity):
            self.buffer_pool.access_sequence(
                ((self.file_id, stop // self.page_capacity),), io, (0,)
            )

    def fetch_by_key(self, io: IOContext, key: tuple) -> Iterator[tuple[PageId, tuple]]:
        """Random-access fetch of all rows with the exact clustering key.

        Charges a random read for the first page of the run and sequential
        reads for continuation pages (key runs spanning pages are read in
        order).  Used by INL joins whose inner index *is* the clustered key.
        """
        self._require_loaded()
        io.charge_index_descent(1)
        start = self.first_page_with_key_ge(key)
        first_read = True
        for page_id in range(start, self.num_pages):
            if self._page_low_keys[page_id] > key:
                return
            # The page's key range straddles ``key``: it must be read.
            self.buffer_pool.access_sequence(
                ((self.file_id, page_id),), io, () if first_read else (0,)
            )
            first_read = False
            # Keys are sorted within the page: bisect to the run.
            base, keys = self._page_keys(page_id)
            first = bisect.bisect_left(keys, key)
            stop = bisect.bisect_right(keys, key, lo=first)
            for row in self.rows_between(base + first, base + stop):
                yield page_id, row
            if stop < len(keys):
                return  # a row past the key ends the run
