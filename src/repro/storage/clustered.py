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
from operator import itemgetter
from typing import Any, Callable, Iterator, Optional, Sequence

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
    def bulk_load(self, rows: Sequence[Sequence[Any]]) -> None:
        """Sort ``rows`` by the clustering key and pack them into pages.

        May be called exactly once; the file is immutable afterwards.
        """
        if self._loaded:
            raise StorageError(
                f"clustered file {int(self.file_id)} was already bulk-loaded"
            )
        # Stable, so ties keep input order.  A one-column key sorts on the
        # bare value: the same order as on its 1-tuple, without building one.
        self.bulk_append(sorted(rows, key=itemgetter(*self.key_positions)))
        self._page_low_keys = [
            self.key_of(page.get(0)) for page in self._pages if page.num_rows
        ]
        self._page_high_keys = [
            self.key_of(page.get(page.num_rows - 1))
            for page in self._pages
            if page.num_rows
        ]
        self._loaded = True

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
        # are passed as they are.  A boundary page's rows are sorted by
        # key, so each bound is one bisection (a few ``key_of`` calls).
        key_of = self.key_of
        page_lows = self._page_low_keys
        page_highs = self._page_high_keys
        for page_id, page in self.scan_pages(io, start_page=start):
            rows = page.rows_list()
            first, stop = 0, len(rows)
            if low is not None:
                if low_inclusive:
                    if page_lows[page_id] < low:
                        first = bisect.bisect_left(rows, low, key=key_of)
                elif page_lows[page_id] <= low:
                    first = bisect.bisect_right(rows, low, key=key_of)
            if high is not None:
                if high_inclusive:
                    if page_highs[page_id] > high:
                        stop = bisect.bisect_right(rows, high, key=key_of)
                elif page_highs[page_id] >= high:
                    stop = bisect.bisect_left(rows, high, key=key_of)
            if first == 0 and stop == len(rows):
                yield page_id, rows
            elif first < stop:
                yield page_id, rows[first:stop]
            if stop < len(rows):
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
        for page_index in range(start, len(self._pages)):
            if self._page_low_keys[page_index] > key:
                return
            page = self._pages[page_index]
            # The page's key range straddles ``key``: it must be read.
            self.buffer_pool.access(
                self.file_id, page.page_id, io, sequential=not first_read
            )
            first_read = False
            # Rows are sorted by key within the page: bisect to the run.
            rows = page.rows_list()
            first = bisect.bisect_left(rows, key, key=self.key_of)
            stop = bisect.bisect_right(rows, key, lo=first, key=self.key_of)
            for row in rows[first:stop]:
                yield page.page_id, row
            if stop < len(rows):
                return  # a row past the key ends the run
