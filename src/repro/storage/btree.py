"""Non-clustered B-tree indexes.

A :class:`BTreeIndex` maps (composite) key tuples to row locators (RIDs —
see :mod:`repro.storage.clustered` for why RIDs suffice on immutable
tables).  Leaf entries are packed into index pages sized by the key width,
so index fan-out and leaf page counts are realistic; non-leaf levels are
modelled implicitly (assumed cached, as in the Mackert–Lohman model), so a
range seek charges one random read for the first leaf and sequential reads
for subsequent leaves, plus a per-entry CPU charge.

Entries for equal keys are stored in *insertion* order, which for our bulk
loads is physical row order — this matches how SQL Server's uniquifier
tie-breaks and keeps INL fetch patterns realistic.

``included_columns`` payloads make an index covering: a covering scan can
produce those column values without touching the table (Section III-B's
"Scan of a Covering Index").
"""

from __future__ import annotations

import bisect
from operator import itemgetter
from typing import Any, Callable, Iterator, Optional, Sequence

from repro.common.errors import IndexError_
from repro.common.types import RID, FileId, PageId
from repro.catalog.schema import IndexDef, TableSchema
from repro.storage.accounting import IOContext
from repro.storage.buffer import BufferPool
from repro.storage.page import USABLE_PAGE_BYTES

#: Simulated per-entry overhead (slot pointer + row locator).
_ENTRY_OVERHEAD_BYTES = 9
_LOCATOR_BYTES = 8


def _tuple_getter(positions: tuple[int, ...]) -> Callable[[Sequence[Any]], tuple]:
    """``row -> tuple(row[p] for p in positions)``, without the generator."""
    if not positions:
        return lambda row: ()
    if len(positions) == 1:
        (position,) = positions
        return lambda row: (row[position],)
    return itemgetter(*positions)


class BTreeIndex:
    """A secondary index over one table."""

    def __init__(
        self,
        definition: IndexDef,
        schema: TableSchema,
        file_id: FileId,
        buffer_pool: BufferPool,
    ) -> None:
        self.definition = definition
        self.schema = schema
        self.file_id = file_id
        self.buffer_pool = buffer_pool
        self._key_positions = tuple(
            schema.position(col) for col in definition.key_columns
        )
        self._payload_positions = tuple(
            schema.position(col) for col in definition.included_columns
        )
        #: ``row -> key tuple`` of this index.
        self.key_of = _tuple_getter(self._key_positions)
        self._payload_of = _tuple_getter(self._payload_positions)
        entry_width = (
            sum(schema.column(c).width_bytes for c in definition.carried_columns())
            + _LOCATOR_BYTES
            + _ENTRY_OVERHEAD_BYTES
        )
        self.entries_per_page = max(1, USABLE_PAGE_BYTES // entry_width)
        # Sorted leaf entries: (key_tuple, rid, payload_tuple).
        self._entries: list[tuple[tuple, RID, tuple]] = []
        self._keys: list[tuple] = []
        self._built = False

    @property
    def name(self) -> str:
        return self.definition.name

    @property
    def num_entries(self) -> int:
        return len(self._entries)

    @property
    def num_leaf_pages(self) -> int:
        if not self._entries:
            return 0
        return -(-len(self._entries) // self.entries_per_page)  # ceil div

    # ------------------------------------------------------------------
    # Build path
    # ------------------------------------------------------------------
    def build(self, rows_with_rids: Iterator[tuple[RID, Sequence[Any]]]) -> None:
        """Build the index from ``(rid, row)`` pairs; callable once."""
        if self._built:
            raise IndexError_(f"index {self.name} was already built")
        key_of, payload_of = self.key_of, self._payload_of
        entries = [(key_of(row), rid, payload_of(row)) for rid, row in rows_with_rids]
        entries.sort(key=lambda entry: (entry[0], entry[1].page_id, entry[1].slot))
        if self.definition.unique:
            for previous, current in zip(entries, entries[1:]):
                if previous[0] == current[0]:
                    raise IndexError_(
                        f"unique index {self.name}: duplicate key {current[0]!r}"
                    )
        self._entries = entries
        self._keys = [entry[0] for entry in entries]
        self._built = True

    def insert(self, rid: RID, row: Sequence[Any]) -> None:
        """Insert one row's entry, keeping leaf order (incremental load).

        Supports append workloads on heap tables: the entry is placed at
        its sorted position (``bisect``), so seeks stay correct; leaf page
        numbers shift accordingly, matching how a real B-tree's logical
        leaf order absorbs inserts.
        """
        self._require_built()
        key = self.key_of(row)
        payload = self._payload_of(row)
        index = bisect.bisect_left(self._keys, key)
        # Advance past equal keys to keep RID tie-break order.
        while (
            index < len(self._entries)
            and self._entries[index][0] == key
            and (self._entries[index][1].page_id, self._entries[index][1].slot)
            < (rid.page_id, rid.slot)
        ):
            index += 1
        if self.definition.unique and (
            (index < len(self._keys) and self._keys[index] == key)
            or (index > 0 and self._keys[index - 1] == key)
        ):
            raise IndexError_(f"unique index {self.name}: duplicate key {key!r}")
        self._entries.insert(index, (key, rid, payload))
        self._keys.insert(index, key)

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def _require_built(self) -> None:
        if not self._built:
            raise IndexError_(f"index {self.name} has not been built")

    def _leaf_page_of(self, entry_index: int) -> PageId:
        return PageId(entry_index // self.entries_per_page)

    def _normalize(self, key: Any) -> tuple:
        """Accept a scalar for single-column keys; always store tuples."""
        if isinstance(key, tuple):
            return key
        return (key,)

    def seek_range(
        self,
        io: IOContext,
        low: Optional[Any] = None,
        high: Optional[Any] = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> Iterator[tuple[tuple, RID, tuple]]:
        """Yield ``(key, rid, payload)`` for keys within the range, in key
        order, charging ``io`` index-page I/O and per-entry CPU as it goes.

        A partial (prefix) key bound on a composite index is supported by
        passing a shorter tuple; comparison semantics follow Python tuple
        ordering, which matches B-tree prefix-range behaviour for
        inclusive-low / exclusive-high prefix bounds.
        """
        self._require_built()
        # Root-to-leaf descent: non-leaf levels are assumed cached, so the
        # traversal costs CPU, charged once per seek.
        io.charge_index_descent(1)
        if low is None:
            start = 0
        else:
            low_key = self._normalize(low)
            start = (
                bisect.bisect_left(self._keys, low_key)
                if low_inclusive
                else bisect.bisect_right(self._keys, low_key)
            )
        previous_leaf: Optional[PageId] = None
        high_key = None if high is None else self._normalize(high)
        for index in range(start, len(self._entries)):
            key, rid, payload = self._entries[index]
            if high_key is not None:
                # For prefix bounds compare only the provided prefix length.
                head = key[: len(high_key)]
                if high_inclusive and head > high_key:
                    return
                if not high_inclusive and head >= high_key:
                    return
            leaf = self._leaf_page_of(index)
            if leaf != previous_leaf:
                self.buffer_pool.access(
                    self.file_id, leaf, io, sequential=previous_leaf is not None
                )
                previous_leaf = leaf
            io.charge_index_entries(1)
            yield key, rid, payload

    def seek_equal(self, io: IOContext, key: Any) -> Iterator[tuple[tuple, RID, tuple]]:
        """All entries with exactly this (possibly prefix) key."""
        normalized = self._normalize(key)
        return self.seek_range(
            io, low=normalized, high=normalized, low_inclusive=True, high_inclusive=True
        )

    def scan_all(self, io: IOContext) -> Iterator[tuple[tuple, RID, tuple]]:
        """Full leaf-order scan (the access path of a covering-index scan)."""
        return self.seek_range(io)

    def __repr__(self) -> str:
        return (
            f"BTreeIndex({self.name} on {self.definition.table_name}"
            f"({', '.join(self.definition.key_columns)}), "
            f"{len(self._entries)} entries, {self.num_leaf_pages} leaf pages)"
        )
