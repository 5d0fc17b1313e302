"""Heap files: unordered pages of rows.

:class:`DataFile` is the shared base for the two physical table layouts
(heap and clustered); it owns the page array, bulk append and RID fetch.
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


class FileColumns:
    """Lazily materialized file-level column vectors over a page list.

    Columnar scans used to transpose (and cache) each 73-row page
    separately, which meant one NumPy kernel dispatch per page — too
    little work to amortize the call overhead.  This cache instead holds
    one file-wide vector per *touched* column (predicates on two columns
    materialize two vectors, never the whole table) plus the running
    page-row offsets, and hands out zero-copy
    :class:`~repro.exec.vector.SlicedColumns` views for any contiguous
    page run.  Validity is checked by :meth:`DataFile.file_columns`
    against the append-only row count and the active vector backend.
    """

    __slots__ = ("backend", "num_rows", "_pages", "_offsets", "_columns")

    def __init__(self, pages: list[Page], backend: str) -> None:
        self.backend = backend
        offsets = [0]
        for page in pages:
            offsets.append(offsets[-1] + page.num_rows)
        self._pages = pages
        self._offsets = offsets
        self.num_rows = offsets[-1]
        width = len(pages[0].rows_list()[0]) if self.num_rows else 0
        self._columns: list = [None] * width

    def __len__(self) -> int:
        return len(self._columns)

    def __getitem__(self, position: int):
        column = self._columns[position]
        if column is None:
            # Imported lazily: storage must stay importable without
            # touching the exec package (which imports storage back).
            from repro.exec import vector

            values = [
                row[position] for page in self._pages for row in page.rows_list()
            ]
            column = vector.make_scan_column(values)
            self._columns[position] = column
        return column

    def page_starts(self, first_page: int, page_count: int) -> list[int]:
        """File-level row offset of each page of a contiguous page run."""
        return self._offsets[first_page : first_page + page_count]

    def slice_rows(self, start: int, stop: int) -> "Any":
        """An arbitrary contiguous row range as a zero-copy columns view."""
        from repro.exec import vector

        return vector.SlicedColumns(self, start, stop)


class DataFile:
    """A sequence of pages holding full rows of one table."""

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
        self._pages: list[Page] = []
        #: Rows across all pages, maintained by the two append paths
        #: (files are append-only), so :attr:`num_rows` is O(1).
        self._num_rows = 0
        self._file_columns: Optional[FileColumns] = None

    # ------------------------------------------------------------------
    # Load path (no I/O charges: loading happens "offline")
    # ------------------------------------------------------------------
    def append_row(self, row: Sequence[Any]) -> RID:
        """Append one row, opening a new page when the last one is full."""
        if not self._pages or self._pages[-1].is_full:
            self._pages.append(Page(PageId(len(self._pages)), self.page_capacity))
        page = self._pages[-1]
        slot = page.append(row)
        self._num_rows += 1
        return RID(page.page_id, slot)

    def bulk_append(self, rows: Iterable[Sequence[Any]]) -> None:
        """Append many rows, in order.

        Packs whole pages by slice — the layout (and every RID, see
        :meth:`locators`) is what row-by-row :meth:`append_row` calls
        would produce, including topping up a part-filled last page first.
        Rows that already are tuples are stored as they come, not copied.
        """
        rows = [row if type(row) is tuple else tuple(row) for row in rows]
        pages = self._pages
        capacity = self.page_capacity
        position = 0
        while position < len(rows):
            if not pages or pages[-1].is_full:
                pages.append(Page(PageId(len(pages)), capacity))
            page = pages[-1]
            taken = rows[position : position + capacity - page.num_rows]
            page.extend(taken)
            position += len(taken)
        self._num_rows += len(rows)

    def locators(self) -> tuple[list[int], list[int]]:
        """``(pages, slots)`` of every stored row, in physical order — the
        file's RIDs as two parallel vectors (no I/O)."""
        pages: list[int] = []
        slots: list[int] = []
        for page in self._pages:
            pages.extend([page.page_id] * page.num_rows)
            slots.extend(range(page.num_rows))
        return pages, slots

    def rids(self) -> Iterator[RID]:
        """Every stored row's RID, in physical order (no I/O)."""
        return map(RID, *self.locators())

    # ------------------------------------------------------------------
    # Read path (charges the caller's IOContext via the buffer pool)
    # ------------------------------------------------------------------
    @property
    def num_pages(self) -> int:
        return len(self._pages)

    @property
    def num_rows(self) -> int:
        return self._num_rows

    def page(self, page_id: PageId) -> Page:
        """Direct page access *without* I/O accounting (internal/tests)."""
        if not 0 <= page_id < len(self._pages):
            raise StorageError(
                f"file {int(self.file_id)}: page {int(page_id)} out of range "
                f"(file has {len(self._pages)} pages)"
            )
        return self._pages[page_id]

    def fetch(self, io: IOContext, rid: RID) -> tuple[PageId, tuple]:
        """Random-access read of one row by RID.

        Returns ``(page_id, row)`` — the page id is what the paper's
        Fetch-side monitors consume.  Charges ``io`` a random physical
        read if the page is not buffered.
        """
        page = self.page(rid.page_id)
        self.buffer_pool.access(self.file_id, rid.page_id, io, sequential=False)
        return rid.page_id, page.get(rid.slot)

    def rows_at(self, pages: Sequence[int], slots: Sequence[int]) -> list[tuple]:
        """The rows at ``(pages[i], slots[i])``, *without* I/O accounting —
        the gather step of a batched fetch, whose page reads the caller
        charges as one :meth:`BufferPool.access_sequence` stream."""
        file_pages = self._pages
        if pages and (min(pages) < 0 or min(slots) < 0):
            raise StorageError(f"file {int(self.file_id)}: negative row locator")
        try:
            return [
                file_pages[page].rows_list()[slot] for page, slot in zip(pages, slots)
            ]
        except IndexError:
            raise StorageError(
                f"file {int(self.file_id)}: row locator out of range "
                f"(file has {len(file_pages)} pages)"
            ) from None

    def fetch_many(
        self, io: IOContext, pages: Sequence[int], slots: Sequence[int]
    ) -> list[tuple]:
        """:meth:`fetch` for many locators, in order: the same reads, as
        one stream."""
        rows = self.rows_at(pages, slots)
        self.buffer_pool.access_sequence(list(zip(repeat(self.file_id), pages)), io)
        return rows

    def scan_pages(
        self, io: IOContext, start_page: int = 0, end_page: Optional[int] = None
    ) -> Iterator[tuple[PageId, Page]]:
        """Iterate pages in allocation order, charging ``io`` sequential reads.

        ``start_page``/``end_page`` bound the scan (used by clustered range
        seeks); ``end_page`` is exclusive and defaults to the file end.
        """
        stop = len(self._pages) if end_page is None else min(end_page, len(self._pages))
        for page_id in range(start_page, stop):
            page = self._pages[page_id]
            self.buffer_pool.access(self.file_id, page.page_id, io, sequential=True)
            yield page.page_id, page

    def file_columns(self) -> FileColumns:
        """The file-level column cache, rebuilt when stale.

        Staleness is cheap to detect because files are append-only: the
        row count strictly grows under :meth:`append_row`, so ``(backend,
        num_rows)`` identifies the loaded snapshot.  The vectors
        themselves materialize lazily, per touched column.
        """
        # Imported lazily: storage must stay importable without touching
        # the exec package (which imports storage back).
        from repro.exec import vector

        cached = self._file_columns
        backend = vector.backend_name()
        if (
            cached is not None
            and cached.backend == backend
            and cached.num_rows == self.num_rows
        ):
            return cached
        cached = FileColumns(self._pages, backend)
        self._file_columns = cached
        return cached

    def scan_column_chunks(
        self,
        io: IOContext,
        rows_per_chunk: int,
        start_page: int = 0,
        end_page: Optional[int] = None,
    ) -> Iterator[tuple[PageId, int, Any, int, list[int]]]:
        """Columnar scan in multi-page chunks:
        ``(first_page_id, page_count, columns_view, num_rows, page_starts)``.

        Groups contiguous whole pages until a chunk reaches
        ``rows_per_chunk`` rows, so one whole-vector kernel evaluation
        covers many simulated pages — the granularity at which NumPy
        dispatch overhead amortizes.  Page order and per-page sequential
        I/O charging are exactly those of :meth:`scan_pages`.
        ``page_starts`` lists each page's first row within the chunk
        (``page_starts[0] == 0``): a caller whose accounting is per page
        rather than additive across pages (scan monitors count *pages*
        with a witness row) reduces its chunk-wide masks over those
        segments, so the kernel can be wider than a page while the
        counters stay page-granular.
        """
        columns = self.file_columns()
        chunk_start: Optional[PageId] = None
        chunk_rows = 0
        chunk_pages = 0

        def chunk() -> tuple[PageId, int, Any, int, list[int]]:
            starts = columns.page_starts(chunk_start, chunk_pages)
            offset = starts[0]
            return (
                chunk_start,
                chunk_pages,
                columns.slice_rows(offset, offset + chunk_rows),
                chunk_rows,
                [start - offset for start in starts],
            )

        for page_id, page in self.scan_pages(io, start_page, end_page):
            if chunk_start is None:
                chunk_start = page_id
            chunk_rows += page.num_rows
            chunk_pages += 1
            if chunk_rows >= rows_per_chunk:
                yield chunk()
                chunk_start, chunk_rows, chunk_pages = None, 0, 0
        if chunk_start is not None:
            yield chunk()

    def scan_rows(self, io: IOContext) -> Iterator[tuple[PageId, int, tuple]]:
        """Full scan yielding ``(page_id, slot, row)`` in grouped page order.

        This ordering is the *grouped page access* property of Section III:
        once the iterator moves past a page, that page never reappears.
        """
        for page_id, page in self.scan_pages(io):
            for slot, row in enumerate(page.rows()):
                yield page_id, slot, row


class HeapFile(DataFile):
    """An unordered table: rows live wherever insertion placed them."""

    layout_name = "heap"
