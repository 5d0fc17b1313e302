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

from itertools import repeat
from typing import Any, Iterable, Iterator, Optional, Sequence

from repro.common.errors import IndexError_
from repro.common.types import RID, FileId, PageId
from repro.catalog.schema import IndexDef, TableSchema
from repro.storage.accounting import IOContext
from repro.storage.buffer import BufferPool
from repro.storage.page import USABLE_PAGE_BYTES

#: Simulated per-entry overhead (slot pointer + row locator).
_ENTRY_OVERHEAD_BYTES = 9
_LOCATOR_BYTES = 8

#: One contiguous run of leaf entries read by one seek: ``(start, stop,
#: entered_leaf)``.  ``entered_leaf`` is the leaf page the seek is already
#: on when it reaches ``start`` (a range cut into chunks carries it from
#: one chunk to the next), ``None`` for a seek that has read nothing yet.
LeafRun = tuple[int, int, Optional[int]]


class BTreeIndex:
    """A secondary index over one table.

    The leaf level is stored by column: one vector per key column, sorted
    lexicographically, then the locators' ``page`` and ``slot`` vectors,
    then one vector per included column — NumPy arrays, or lists for
    string, date or NULL-bearing columns.  An entry's leaf *page* is its
    position divided by :attr:`entries_per_page`.  RIDs are two integer
    vectors, not one object per entry, because everything a plan does
    with locators is vector-shaped: a key range is a slice, the data
    pages it touches are ``pages[start:stop]``, fetching its rows is one
    gather.

    :meth:`locate` finds a key range by column-at-a-time bisection.
    :meth:`seek_range` / :meth:`seek_equal` / :meth:`scan_all` walk a
    located range entry by entry (the row drive); the batch drive reads
    it as chunks of :data:`LeafRun` (:meth:`chunk_runs`, then
    :meth:`read_runs` and, for a covering scan, :meth:`entry_columns`).
    """

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
        self._key_count = len(definition.key_columns)
        #: Row positions of the carried columns: keys, then payloads.
        self._positions = tuple(
            schema.position(col) for col in definition.carried_columns()
        )
        entry_width = (
            sum(schema.column(c).width_bytes for c in definition.carried_columns())
            + _LOCATOR_BYTES
            + _ENTRY_OVERHEAD_BYTES
        )
        self.entries_per_page = max(1, USABLE_PAGE_BYTES // entry_width)
        #: Leaf columns: keys..., pages, slots, payloads... (``None``: unbuilt).
        self._columns: Optional[list] = None
        self._size = 0
        # Imported lazily: storage must stay importable without touching
        # the exec package (which imports storage back).
        from repro.exec import vector

        self._vector = vector

    @property
    def name(self) -> str:
        return self.definition.name

    @property
    def num_entries(self) -> int:
        return self._size

    @property
    def num_leaf_pages(self) -> int:
        return -(-self._size // self.entries_per_page)  # ceil div

    # ------------------------------------------------------------------
    # Build path
    # ------------------------------------------------------------------
    def build(
        self, columns: Sequence[Any], pages: Sequence[int], slots: Sequence[int]
    ) -> None:
        """Build the index over a table stored as ``columns`` (one per schema
        column, row ``i`` at ``(pages[i], slots[i])``, in physical order);
        callable once.

        One stable sort on the key columns: equal keys keep physical order.
        """
        if self._columns is not None:
            raise IndexError_(f"index {self.name} was already built")
        vector = self._vector
        columns = [
            vector.make_scan_column(columns[position]) for position in self._positions
        ]
        order = vector.sort_order(columns[: self._key_count])
        columns[self._key_count : self._key_count] = [
            vector.make_scan_column(pages),
            vector.make_scan_column(slots),
        ]
        columns = [vector.values_at(column, order) for column in columns]
        if self.definition.unique:
            keys = columns[: self._key_count]
            duplicate = vector.first_adjacent_duplicate(keys)
            if duplicate >= 0:
                key = tuple(
                    vector.slice_values(column, duplicate, duplicate + 1)[0]
                    for column in keys
                )
                raise IndexError_(f"unique index {self.name}: duplicate key {key!r}")
        self._columns = columns
        self._size = len(pages)

    def insert(self, rid: RID, row: Sequence[Any]) -> None:
        """Insert one row's entry, keeping leaf order (incremental load).

        Supports append workloads on heap tables: the entry is placed at
        its sorted position — after the equal keys with a lower RID — so
        seeks stay correct; leaf page numbers shift accordingly, matching
        how a real B-tree's logical leaf order absorbs inserts.
        """
        columns = self._leaf_columns()
        carried = [row[position] for position in self._positions]
        key = tuple(carried[: self._key_count])
        if self.definition.unique:
            start, stop = self.locate(key, key)
            if start < stop:
                raise IndexError_(f"unique index {self.name}: duplicate key {key!r}")
        # Keys, then page, then slot: the order the leaf level is sorted in.
        values = [*key, rid.page_id, rid.slot, *carried[self._key_count :]]
        position = self._bisect(columns, values[: self._key_count + 2], right=False)
        insert_value = self._vector.insert_value
        self._columns = [
            insert_value(column, position, value)
            for column, value in zip(columns, values)
        ]
        self._size += 1

    # ------------------------------------------------------------------
    # Locating ranges (no I/O)
    # ------------------------------------------------------------------
    def _leaf_columns(self) -> list:
        """The leaf columns (keys..., pages, slots, payloads...)."""
        if self._columns is None:
            raise IndexError_(f"index {self.name} has not been built")
        return self._columns

    def _bisect(self, columns: Sequence, values: Sequence[Any], right: bool) -> int:
        """Lexicographic bisection of ``values`` over sorted ``columns``,
        one column at a time: within the run where the earlier columns
        equal the earlier values, the next column is sorted."""
        bisect_column = self._vector.bisect_column
        lo, hi = 0, self._size
        last = min(len(values), len(columns)) - 1
        for depth in range(last):
            column, value = columns[depth], values[depth]
            lo, hi = (
                bisect_column(column, value, lo, hi, False),
                bisect_column(column, value, lo, hi, True),
            )
        return bisect_column(columns[last], values[last], lo, hi, right)

    def locate(
        self,
        low: Optional[Any] = None,
        high: Optional[Any] = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> tuple[int, int]:
        """Leaf positions ``[start, stop)`` of the keys within the range.

        ``None`` bounds are open; a scalar stands for a single-column key.
        A partial (prefix) key bound on a composite index is a shorter
        tuple and compares against the same prefix of each key, so
        ``(5,)`` inclusive spans every ``(5, *)`` and exclusive none.
        """
        keys = self._leaf_columns()[: self._key_count]
        start, stop = 0, self._size
        if low is not None:
            low = low if isinstance(low, tuple) else (low,)
            start = self._bisect(keys, low, right=not low_inclusive)
        if high is not None:
            high = high if isinstance(high, tuple) else (high,)
            stop = self._bisect(keys, high, right=high_inclusive)
        return start, max(start, stop)

    def locate_equal_many(self, values: Sequence[Any]) -> tuple[list[int], list[int]]:
        """``locate(value, value)`` for each (non-NULL) value, as ``(starts,
        stops)`` — the probes of an INL join's outer batch, one sorted
        search when the key is a single typed column."""
        if self._key_count == 1:
            return self._vector.equal_ranges(self._leaf_columns()[0], values)
        located = [self.locate(value, value) for value in values]
        return [start for start, _ in located], [stop for _, stop in located]

    # ------------------------------------------------------------------
    # Read path, entry at a time (the row drive)
    # ------------------------------------------------------------------
    def seek_range(
        self,
        io: IOContext,
        low: Optional[Any] = None,
        high: Optional[Any] = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> Iterator[tuple[tuple, RID, tuple]]:
        """Yield ``(key, rid, payload)`` for keys within the range, in key
        order, charging ``io`` index-page I/O and per-entry CPU as it goes
        (bounds as in :meth:`locate`)."""
        start, stop = self.locate(low, high, low_inclusive, high_inclusive)
        # Root-to-leaf descent: non-leaf levels are assumed cached, so the
        # traversal costs CPU, charged once per seek.
        io.charge_index_descent(1)
        epp = self.entries_per_page
        entered: Optional[int] = None
        while start < stop:
            leaf = start // epp
            self.buffer_pool.access_sequence(
                ((self.file_id, PageId(leaf)),), io, () if entered is None else (0,)
            )
            entered = leaf
            segment_stop = min(stop, (leaf + 1) * epp)
            for entry in self._entries_between(start, segment_stop):
                io.charge_index_entries(1)
                yield entry
            start = segment_stop

    def seek_equal(self, io: IOContext, key: Any) -> Iterator[tuple[tuple, RID, tuple]]:
        """All entries with exactly this (possibly prefix) key."""
        return self.seek_range(io, low=key, high=key)

    def scan_all(self, io: IOContext) -> Iterator[tuple[tuple, RID, tuple]]:
        """Full leaf-order scan (the access path of a covering-index scan)."""
        return self.seek_range(io)

    def entries(self) -> Iterator[tuple[tuple, RID, tuple]]:
        """Every ``(key, rid, payload)`` in leaf order — read-only, no I/O."""
        self._leaf_columns()
        return self._entries_between(0, self._size)

    def _entries_between(self, start: int, stop: int) -> Iterator[tuple[tuple, RID, tuple]]:
        keys = self._key_count
        slice_values = self._vector.slice_values
        columns = [slice_values(column, start, stop) for column in self._columns]
        payloads = columns[keys + 2 :]
        return zip(
            zip(*columns[:keys]),
            map(RID, columns[keys], columns[keys + 1]),
            zip(*payloads) if payloads else repeat(()),
        )

    # ------------------------------------------------------------------
    # Read path, a chunk of entries at a time (the batch drive)
    # ------------------------------------------------------------------
    def chunk_runs(
        self, ranges: Iterable[tuple[int, int]], chunk_rows: int
    ) -> Iterator[list[LeafRun]]:
        """Cut located seek ranges into chunks of at most ``chunk_rows``
        entries.  Each range is one seek (its first leaf read is random);
        a range cut in two carries the leaf it was on into the next chunk.
        Empty ranges read nothing and are dropped."""
        epp = self.entries_per_page
        chunk: list[LeafRun] = []
        room = chunk_rows
        for start, stop in ranges:
            entered = None
            while start < stop:
                cut = start + room
                if cut > stop:
                    cut = stop
                chunk.append((start, cut, entered))
                room -= cut - start
                if not room:
                    yield chunk
                    chunk, room = [], chunk_rows
                entered = (cut - 1) // epp
                start = cut
        if chunk:
            yield chunk

    def read_runs(
        self,
        io: IOContext,
        runs: Sequence[LeafRun],
        data_file_id: Optional[FileId] = None,
    ) -> tuple[list[int], list[int]]:
        """Batch form of walking ``runs`` entry by entry (and, given the
        table's ``data_file_id``, fetching each entry's row): returns the
        entries' ``(pages, slots)`` and charges the walk's page reads, in
        its order, as one :meth:`BufferPool.access_sequence` stream.

        Each leaf is read as a run enters it — a seek's first leaf
        randomly, continuation leaves (also inside an equal-key run that
        spans leaves) sequentially — followed by the data page of each of
        its entries: the order in which :meth:`seek_range` and a fetch
        per yielded entry make them.  Per-entry index CPU is charged once.
        """
        locators = self._leaf_columns()[self._key_count : self._key_count + 2]
        pages, slots = map(self._vector.column_values, self._gather(runs, locators))
        data_reads = (
            [] if data_file_id is None else list(zip(repeat(data_file_id), pages))
        )
        epp = self.entries_per_page
        file_id = self.file_id
        keys: list[tuple[FileId, PageId]] = []
        sequential: set[int] = set()  # positions in ``keys``
        offset = 0
        for start, stop, entered in runs:
            while start < stop:
                leaf = start // epp
                if leaf != entered:
                    if entered is not None:
                        sequential.add(len(keys))
                    keys.append((file_id, leaf))
                    entered = leaf
                segment_stop = (leaf + 1) * epp
                if segment_stop > stop:
                    segment_stop = stop
                if data_reads:
                    keys += data_reads[offset : offset + segment_stop - start]
                    offset += segment_stop - start
                start = segment_stop
        self.buffer_pool.access_sequence(keys, io, sequential)
        io.charge_index_entries(len(pages))
        return pages, slots

    def _gather(self, runs: Sequence[LeafRun], columns: Sequence) -> tuple:
        """The runs' entries of each column, as column vectors: slices of
        the leaf columns for one run, else one gather over every run."""
        if len(runs) == 1:
            start, stop, _ = runs[0]
            return tuple(column[start:stop] for column in columns)
        positions = [p for start, stop, _ in runs for p in range(start, stop)]
        return self._vector.gather(columns, positions)

    def entry_columns(self, runs: Sequence[LeafRun]) -> tuple:
        """The ``key + payload`` columns of the runs' entries, in order
        (what a covering scan filters and outputs)."""
        columns = self._leaf_columns()
        keys = self._key_count
        return self._gather(runs, columns[:keys] + columns[keys + 2 :])

    def __repr__(self) -> str:
        return (
            f"BTreeIndex({self.name} on {self.definition.table_name}"
            f"({', '.join(self.definition.key_columns)}), "
            f"{self._size} entries, {self.num_leaf_pages} leaf pages)"
        )
