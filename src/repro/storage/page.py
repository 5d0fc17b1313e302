"""In-memory representation of a disk page.

A :class:`Page` holds full row tuples in slot order, bounded by a capacity
derived from the simulated page geometry (8 KB pages, ~8060 usable bytes,
like SQL Server).  The engine never serialises rows to bytes — the byte
widths exist only to make rows-per-page realistic, because rows-per-page is
the quantity that links cardinality to page counts throughout the paper
(``k`` in the LB = n/k bound of Section V-B).
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence

from repro.common.errors import PageError
from repro.common.types import PageId

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
    """A fixed-capacity container of row tuples.

    Slots are dense: slot ``i`` holds the ``i``-th row inserted.  Pages are
    append-only because the simulated tables are bulk-loaded and immutable
    (deletes/updates are out of scope for the paper's experiments, which
    load data once and measure read plans).
    """

    __slots__ = ("page_id", "capacity", "_rows")

    def __init__(self, page_id: PageId, capacity: int) -> None:
        if capacity <= 0:
            raise PageError(f"page capacity must be positive, got {capacity}")
        self.page_id = page_id
        self.capacity = capacity
        self._rows: list[tuple] = []

    @property
    def num_rows(self) -> int:
        return len(self._rows)

    @property
    def is_full(self) -> bool:
        return len(self._rows) >= self.capacity

    def append(self, row: Sequence[Any]) -> int:
        """Append a row; returns the slot number.  Raises when full."""
        if self.is_full:
            raise PageError(
                f"page {int(self.page_id)} is full ({self.capacity} rows)"
            )
        self._rows.append(tuple(row))
        return len(self._rows) - 1

    def extend(self, rows: list[tuple]) -> None:
        """Append row tuples in order (bulk load).

        The rows are stored as given — the caller hands over tuples it
        will not mutate.  Raises when they do not all fit.
        """
        if len(self._rows) + len(rows) > self.capacity:
            raise PageError(
                f"page {int(self.page_id)} cannot take {len(rows)} more rows "
                f"({len(self._rows)}/{self.capacity} used)"
            )
        self._rows.extend(rows)

    def get(self, slot: int) -> tuple:
        """Return the row in ``slot``; raises on invalid slots."""
        if not 0 <= slot < len(self._rows):
            raise PageError(
                f"page {int(self.page_id)}: slot {slot} out of range "
                f"(page has {len(self._rows)} rows)"
            )
        return self._rows[slot]

    def rows(self) -> Iterator[tuple]:
        """Iterate rows in slot order."""
        return iter(self._rows)

    def rows_list(self) -> list[tuple]:
        """The page's rows in slot order, as a list — read-only.

        Batch scans use this to hand a whole page to the compiled kernels
        without a per-row iterator hop; callers must not mutate it.
        """
        return self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def __repr__(self) -> str:
        return f"Page({int(self.page_id)}: {len(self._rows)}/{self.capacity} rows)"
