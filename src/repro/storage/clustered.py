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
        columns = self._store()
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
        columns = self._store()
        return self._vector.rows_at(
            [columns[pos] for pos in self.key_positions], list(positions)
        )

    def _page_keys(self, page_id: int) -> tuple[int, list[tuple]]:
        """A page's first row position and its rows' key tuples (sorted):
        what locates a key run inside the page without building its rows."""
        start = page_id * self.page_capacity
        stop = min(start + self.page_capacity, self.num_rows)
        columns = self._store()
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
        upper bound (grouped page access holds within the range).
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

    def seek_range_pages(
        self,
        io: IOContext,
        low: Optional[tuple],
        high: Optional[tuple],
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> Iterator[tuple[PageId, list[tuple]]]:
        """Page-at-a-time form of :meth:`seek_range`: ``(page_id, rows)``.

        Yields exactly the pages (and rows, in order) that grouping
        :meth:`seek_range`'s output by page would produce: pages the scan
        reads but that hold no in-range row are charged yet not yielded,
        and the scan stops at the first row past the upper bound (the
        partial page's in-range rows are still yielded first).  Keeping
        the page sequence identical keeps the monitor's Bernoulli sampler
        and ``pages_touched`` identical between the two execution modes.
        """
        self._require_loaded()
        start = 0
        if low is not None:
            start = (
                self.first_page_with_key_ge(low)
                if low_inclusive
                else self.first_page_with_key_gt(low)
            )
        # The fences say which pages lie wholly inside the range; those
        # are passed whole.  A boundary page's keys are sorted, so each
        # bound is one bisection over them, and only the rows inside the
        # bounds are built.
        page_lows = self._page_low_keys
        page_highs = self._page_high_keys
        for page_id, page in self.scan_pages(io, start_page=start):
            cut_low = low is not None and (
                page_lows[page_id] < low
                if low_inclusive
                else page_lows[page_id] <= low
            )
            cut_high = high is not None and (
                page_highs[page_id] > high
                if high_inclusive
                else page_highs[page_id] >= high
            )
            if not (cut_low or cut_high):
                yield page_id, page.rows_list()
                continue
            base, keys = self._page_keys(page_id)
            first, stop = 0, len(keys)
            if cut_low:
                first = (bisect.bisect_left if low_inclusive else bisect.bisect_right)(
                    keys, low
                )
            if cut_high:
                stop = (bisect.bisect_right if high_inclusive else bisect.bisect_left)(
                    keys, high
                )
            if first < stop:
                yield page_id, self.rows_between(base + first, base + stop)
            if stop < len(keys):
                return  # the first row past the upper bound ends the scan

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
            self.buffer_pool.access(
                self.file_id, page_id, io, sequential=not first_read
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
