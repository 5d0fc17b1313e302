"""A disk page: a window over its file's column vectors.

A table is stored once, by column (:class:`~repro.storage.heap.DataFile`);
a :class:`Page` is a read-only ``(file, start, stop)`` run of row positions
whose extent comes from the simulated page geometry (8 KB pages, ~8060
usable bytes, like SQL Server).  The engine never serialises rows to
bytes — the declared byte widths exist only to make rows-per-page
realistic, because rows-per-page is the quantity that links cardinality to
page counts throughout the paper (``k`` in the LB = n/k bound of Section
V-B).  Geometry comes from those declared widths, never from the item
size of the arrays that happen to hold the values.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.common.errors import PageError
from repro.common.types import PageId

if TYPE_CHECKING:
    from repro.storage.heap import DataFile

#: Simulated page size; 8192 bytes minus header, following SQL Server.
PAGE_SIZE_BYTES = 8192
USABLE_PAGE_BYTES = 8060
#: Per-row slot/record overhead (slot pointer + record header).
ROW_OVERHEAD_BYTES = 9


def rows_per_page(row_width_bytes: int) -> int:
    """How many rows of the given width fit on one page (at least 1)."""
    if row_width_bytes <= 0:
        raise PageError(f"row width must be positive, got {row_width_bytes}")
    return max(1, USABLE_PAGE_BYTES // (row_width_bytes + ROW_OVERHEAD_BYTES))


class Page:
    """Rows ``[start, stop)`` of a file, addressed by slot.

    Slots are dense: slot ``i`` is row ``start + i``.  The page holds no
    rows of its own; :meth:`get`, :meth:`rows` and :meth:`rows_list`
    materialise plain-Python tuples from the file's columns each time they
    are called (the row drive and the oracles do; the chunk scan reads the
    columns and never comes here).  Files are append-only, so a window
    stays valid — a page taken before an append keeps showing the rows it
    had.
    """

    __slots__ = ("page_id", "_file", "_start", "_stop")

    def __init__(self, file: "DataFile", page_id: PageId, start: int, stop: int) -> None:
        self.page_id = page_id
        self._file = file
        self._start = start
        self._stop = stop

    @property
    def num_rows(self) -> int:
        return self._stop - self._start

    @property
    def capacity(self) -> int:
        return self._file.page_capacity

    def get(self, slot: int) -> tuple:
        """Return the row in ``slot``; raises on invalid slots."""
        if not 0 <= slot < self.num_rows:
            raise PageError(
                f"page {int(self.page_id)}: slot {slot} out of range "
                f"(page has {self.num_rows} rows)"
            )
        return self._file.row(self._start + slot)

    def rows(self) -> Iterator[tuple]:
        """Iterate rows in slot order."""
        return iter(self.rows_list())

    def rows_list(self) -> list[tuple]:
        """The page's rows in slot order, as a new list of tuples."""
        return self._file.rows_between(self._start, self._stop)

    def __len__(self) -> int:
        return self.num_rows

    def __repr__(self) -> str:
        return f"Page({int(self.page_id)}: {self.num_rows}/{self.capacity} rows)"
