"""Heap files: unordered pages of rows, stored by column.

:class:`DataFile` is the shared base for the two physical table layouts
(heap and clustered).  The table *is* its columns: one vector per column
for the whole file — NumPy arrays for numeric NULL-free columns, lists
for string, date or NULL-bearing columns (``vector.make_scan_column``'s
rule, the one the index leaves follow).  Rows
pack densely, so page ``p`` is rows ``[p * page_capacity, (p + 1) *
page_capacity)`` of every column and a :class:`~repro.storage.page.Page`
is a window, not a container; row tuples exist only where a caller asks
for them (:meth:`DataFile.rows_between`, :meth:`DataFile.row`); a
batched fetch gathers columns (:meth:`DataFile.columns_at`).

All *reads* are routed through the buffer pool, which charges the
caller's :class:`~repro.storage.accounting.IOContext`.  Scans read pages
in allocation order with sequential I/O charges (readahead); RID fetches
are random reads — this asymmetry is the entire economics of the paper's
Index Seek vs. Table Scan decision.
"""

from __future__ import annotations

from itertools import repeat
from typing import Any, Iterable, Iterator, Optional, Sequence

from repro.common.errors import StorageError
from repro.common.types import RID, FileId, PageId
from repro.storage.accounting import IOContext
from repro.storage.buffer import BufferPool
from repro.storage.page import Page, rows_per_page


class DataFile:
    """The column vectors of one table, paged by position."""

    def __init__(
        self,
        file_id: FileId,
        row_width_bytes: int,
        buffer_pool: BufferPool,
        fill_factor: float = 1.0,
    ) -> None:
        if not 0.0 < fill_factor <= 1.0:
            raise StorageError(f"fill_factor must be in (0, 1], got {fill_factor}")
        self.file_id = file_id
        self.buffer_pool = buffer_pool
        # Kept verbatim (not re-derived from page_capacity) so shard files
        # rebuilt from a partitioned table reproduce the identical layout.
        self.fill_factor = fill_factor
        full_capacity = rows_per_page(row_width_bytes)
        self.page_capacity = max(1, int(full_capacity * fill_factor))
        #: One vector per column (none before the first append), each
        #: ``_num_rows`` long and never changed in place: an append
        #: installs new vectors, then raises the row count, so a reader
        #: that takes the count first always finds at least that many rows.
        self._columns: list = []
        self._num_rows = 0
        # Imported lazily: storage must stay importable without touching
        # the exec package (which imports storage back).
        from repro.exec import vector

        self._vector = vector

    # ------------------------------------------------------------------
    # Load path (no I/O charges: loading happens "offline")
    # ------------------------------------------------------------------
    def bulk_append(self, batches: Iterable[Sequence[Any]]) -> None:
        """Append rows given as batches of columns (each batch one list or
        vector per column), in order.

        Each batch is packed into stored form as it arrives, so a lazy
        ``batches`` never has more than one batch of Python values alive;
        the file's columns are then rebuilt once per call — one copy, not
        one per row — so callers append in batches.  Nothing is stored if
        reading ``batches`` raises.
        """
        vector = self._vector
        parts: list[list] = [[column] for column in self._columns]
        added = 0
        for batch in batches:
            parts = parts or [[] for _ in batch]
            if len(batch) != len(parts) or len({len(column) for column in batch}) > 1:
                raise StorageError(
                    f"file {int(self.file_id)}: expected {len(parts)} columns of "
                    f"one length, got lengths {[len(column) for column in batch]}"
                )
            for chunks, column in zip(parts, batch):
                chunks.append(vector.make_scan_column(column))
            added += len(batch[0]) if batch else 0
        self._columns = [vector.concat_columns(chunks) for chunks in parts]
        self._num_rows += added

    def append_row(self, row: Sequence[Any]) -> RID:
        """Append one row; returns its RID."""
        self.bulk_append([[[value] for value in row]])
        return RID(*divmod(self._num_rows - 1, self.page_capacity))

    def locators(self, first_row: int = 0) -> tuple[list[int], list[int]]:
        """``(pages, slots)`` of the stored rows from position ``first_row``
        on, in physical order — the file's RIDs as two parallel vectors
        (no I/O)."""
        capacity = self.page_capacity
        positions = range(first_row, self._num_rows)
        return (
            [position // capacity for position in positions],
            [position % capacity for position in positions],
        )

    def rids(self, first_row: int = 0) -> Iterator[RID]:
        """The RIDs :meth:`locators` lists (no I/O)."""
        return map(RID, *self.locators(first_row))

    # ------------------------------------------------------------------
    # Read path (charges the caller's IOContext via the buffer pool)
    # ------------------------------------------------------------------
    @property
    def num_pages(self) -> int:
        return -(-self._num_rows // self.page_capacity)  # ceil div

    @property
    def num_rows(self) -> int:
        return self._num_rows

    def columns(self) -> list:
        """The stored column vectors, in schema order — read-only, no I/O
        (what index builds and partitioning read)."""
        return self._columns

    def column_values(self) -> Iterator[list]:
        """Each column in turn as a list of plain Python values (what
        statistics read; one column is held at a time)."""
        return map(self._vector.column_values, self._columns)

    def rows_between(self, start: int, stop: int) -> list[tuple]:
        """Rows ``[start, stop)`` as tuples of plain Python values, *without*
        I/O accounting: where a page's rows come into being."""
        slice_values = self._vector.slice_values
        return list(
            zip(*[slice_values(column, start, stop) for column in self._columns])
        )

    def row(self, position: int) -> tuple:
        """The row at file position ``position``: :meth:`rows_between` for
        one row (what a RID fetch reads)."""
        return self._vector.row_at(self._columns, position)

    def page(self, page_id: PageId) -> Page:
        """Direct page access *without* I/O accounting (internal/tests)."""
        if not 0 <= page_id < self.num_pages:
            raise StorageError(
                f"file {int(self.file_id)}: page {int(page_id)} out of range "
                f"(file has {self.num_pages} pages)"
            )
        return self._window(page_id, self._num_rows)

    def _window(self, page_id: PageId, num_rows: int) -> Page:
        """Page ``page_id`` of the file's first ``num_rows`` rows."""
        start = page_id * self.page_capacity
        return Page(self, page_id, start, min(start + self.page_capacity, num_rows))

    def fetch(self, io: IOContext, rid: RID) -> tuple[PageId, tuple]:
        """Random-access read of one row by RID.

        Returns ``(page_id, row)`` — the page id is what the paper's
        Fetch-side monitors consume.  Charges ``io`` a random physical
        read if the page is not buffered.
        """
        page = self.page(rid.page_id)
        self.buffer_pool.access_sequence(((self.file_id, rid.page_id),), io)
        return rid.page_id, page.get(rid.slot)

    def columns_at(self, pages: Sequence[int], slots: Sequence[int]) -> tuple:
        """The column vectors of the rows at ``(pages[i], slots[i])``, in
        that order, *without* I/O accounting — the gather step of a
        batched fetch, whose page reads the caller charges as one
        :meth:`BufferPool.access_sequence` stream."""
        capacity = self.page_capacity
        positions = [page * capacity + slot for page, slot in zip(pages, slots)]
        if positions and not (
            0 <= min(slots)
            and max(slots) < capacity
            and 0 <= min(positions)
            and max(positions) < self._num_rows
        ):
            raise StorageError(
                f"file {int(self.file_id)}: row locator out of range "
                f"(file has {self.num_pages} pages)"
            )
        return self._vector.gather(self._columns, positions)

    def fetch_many(
        self, io: IOContext, pages: Sequence[int], slots: Sequence[int]
    ) -> tuple:
        """:meth:`fetch` for many locators, in order: the same reads, as
        one stream, and the rows as :meth:`columns_at` gathers them."""
        columns = self.columns_at(pages, slots)
        self.buffer_pool.access_sequence(list(zip(repeat(self.file_id), pages)), io)
        return columns

    def scan_pages(
        self, io: IOContext, start_page: int = 0
    ) -> Iterator[tuple[PageId, Page]]:
        """Iterate pages in allocation order from ``start_page``, charging
        ``io`` sequential reads.  The scan covers the rows the file held
        when it started."""
        num_rows = self._num_rows
        for page_id in range(start_page, -(-num_rows // self.page_capacity)):
            self.buffer_pool.access_sequence(((self.file_id, page_id),), io, (0,))
            yield page_id, self._window(page_id, num_rows)

    def scan_column_chunks(
        self,
        io: IOContext,
        rows_per_chunk: int,
        start: int = 0,
        stop: Optional[int] = None,
    ) -> Iterator[tuple[PageId, int, Any, int, list[int]]]:
        """Columnar scan of rows ``[start, stop)`` in multi-page chunks:
        ``(first_page_id, page_count, columns_view, num_rows, page_starts)``.

        Groups contiguous pages until a chunk reaches ``rows_per_chunk``
        rows, so one whole-vector kernel evaluation covers many simulated
        pages — the granularity at which NumPy dispatch overhead
        amortizes; ``rows_per_chunk=1`` makes every page its own chunk.
        The view is a zero-copy slice of the store.  Every page holding a
        row of the range is read once, in order, as a sequential read: a
        chunk's pages are charged as one pool walk before the chunk is
        yielded.  The first and last page may be cut at the bounds.
        ``stop`` defaults to the file end, and the scan covers the rows
        the file held when it started.
        ``page_starts`` lists each page's first row within the chunk
        (``page_starts[0] == 0``): a caller whose accounting is per page
        rather than additive across pages (scan monitors count *pages*
        with a witness row) reduces its chunk-wide masks over those
        segments, so the kernel can be wider than a page while the
        counters stay page-granular.
        """
        sliced = self._vector.SlicedColumns
        capacity = self.page_capacity
        stop = self._num_rows if stop is None else min(stop, self._num_rows)
        access_sequence = self.buffer_pool.access_sequence
        file_id = self.file_id
        while start < stop:
            first_page_id = page_id = start // capacity
            chunk_stop = start
            page_starts = []
            while chunk_stop < stop and chunk_stop - start < rows_per_chunk:
                page_starts.append(chunk_stop - start)
                page_id += 1
                chunk_stop = min(page_id * capacity, stop)
            pages = range(first_page_id, page_id)
            access_sequence(list(zip(repeat(file_id), pages)), io, range(len(pages)))
            yield (
                first_page_id,
                page_id - first_page_id,
                sliced(self._columns, start, chunk_stop),
                chunk_stop - start,
                page_starts,
            )
            start = chunk_stop

    def scan_rows(self, io: IOContext) -> Iterator[tuple[PageId, int, tuple]]:
        """Full scan yielding ``(page_id, slot, row)`` in grouped page order.

        This ordering is the *grouped page access* property of Section III:
        once the iterator moves past a page, that page never reappears.
        """
        for page_id, page in self.scan_pages(io):
            for slot, row in enumerate(page.rows_list()):
                yield page_id, slot, row


class HeapFile(DataFile):
    """An unordered table: rows live wherever insertion placed them."""

    layout_name = "heap"
