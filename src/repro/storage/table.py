"""The table facade: schema + physical layout + secondary indexes + stats.

:class:`Table` is what the executor and optimizer hold.  It wires together
a :class:`~repro.storage.heap.HeapFile` or
:class:`~repro.storage.clustered.ClusteredFile`, any number of
:class:`~repro.storage.btree.BTreeIndex` secondary indexes, and the
catalog statistics built at load time.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Optional, Sequence

from repro.common.errors import CatalogError, StorageError
from repro.common.types import RID, FileId, PageId
from repro.catalog.schema import IndexDef, TablePartition, TableSchema
from repro.catalog.statistics import TableStatistics, build_statistics
from repro.storage.accounting import IOContext
from repro.storage.btree import BTreeIndex
from repro.storage.buffer import BufferPool
from repro.storage.clustered import ClusteredFile
from repro.storage.heap import DataFile


class Table:
    """One stored table."""

    def __init__(
        self,
        schema: TableSchema,
        data_file: DataFile,
        clustered_index: Optional[IndexDef] = None,
    ) -> None:
        self.schema = schema
        self.data_file = data_file
        self.clustered_index = clustered_index
        self.indexes: dict[str, BTreeIndex] = {}
        self.statistics: Optional[TableStatistics] = None
        #: Set by :func:`repro.shard.partition.partition_database` on the
        #: shard-local copies; ``None`` on an unsharded table.
        self.partition: Optional[TablePartition] = None
        self._loaded = False
        self._stats_dirty = False
        self._stats_version = 0

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self.schema.table_name

    @property
    def num_pages(self) -> int:
        return self.data_file.num_pages

    @property
    def num_rows(self) -> int:
        return self.data_file.num_rows

    @property
    def is_clustered(self) -> bool:
        return isinstance(self.data_file, ClusteredFile)

    @property
    def buffer_pool(self) -> BufferPool:
        return self.data_file.buffer_pool

    def require_statistics(self) -> TableStatistics:
        if self.statistics is None:
            raise CatalogError(f"table {self.name}: statistics were never built")
        return self.statistics

    # ------------------------------------------------------------------
    # Load path
    # ------------------------------------------------------------------
    def bulk_load(self, rows: Iterable[Sequence[Any]]) -> None:
        """Load all rows (validating against the schema) exactly once.

        ``rows`` may be a lazy iterable: it is read once, a bounded slice
        at a time, and stored by column — the rows are never all held.
        """
        if self._loaded:
            raise StorageError(f"table {self.name} was already loaded")
        if isinstance(self.data_file, ClusteredFile):
            self.data_file.bulk_load(self.schema.validate_rows(rows))
        else:
            self.data_file.bulk_append(self.schema.validate_rows(rows))
        self._loaded = True

    def append_rows(self, rows: Iterable[Sequence[Any]]) -> list[RID]:
        """Append rows after the initial load (heap tables only).

        The file's columns are extended once per call, so append in
        batches.  Secondary indexes are maintained incrementally;
        **statistics are not** — they go stale exactly as in a real
        engine, and :attr:`statistics_stale` flags it so callers (and the
        staleness bench) can decide when to rebuild.  Clustered tables
        reject appends: keeping rows physically key-ordered would require
        page splits, which this simulation's contiguous-run clustered
        layout deliberately does not model (see DESIGN.md).
        """
        if not self._loaded:
            raise StorageError(f"table {self.name}: bulk_load before append_rows")
        if isinstance(self.data_file, ClusteredFile):
            raise StorageError(
                f"table {self.name} is clustered; appends would violate the "
                "contiguous key-order layout (heap tables support appends)"
            )
        data_file = self.data_file
        first_row = data_file.num_rows
        data_file.bulk_append(self.schema.validate_rows(rows))
        appended = list(data_file.rids(first_row))
        for rid, row in zip(appended, data_file.rows_between(first_row, data_file.num_rows)):
            for index in self.indexes.values():
                index.insert(rid, row)
        if appended:
            self._stats_dirty = True
        return appended

    @property
    def statistics_stale(self) -> bool:
        """Whether rows were appended since statistics were last built."""
        return self._stats_dirty

    @property
    def statistics_version(self) -> int:
        """Monotone counter bumped by every statistics (re)build.

        Plan-cache entries record the versions of the tables they touch,
        so a rebuild — typically after appends — invalidates every plan
        costed against the old row/page counts and histograms.
        """
        return self._stats_version

    def create_index(self, definition: IndexDef, file_id: FileId) -> BTreeIndex:
        """Build a secondary index over the loaded rows."""
        if not self._loaded:
            raise StorageError(
                f"table {self.name}: load rows before building index "
                f"{definition.name}"
            )
        if definition.name in self.indexes:
            raise CatalogError(
                f"table {self.name}: index {definition.name} already exists"
            )
        if definition.table_name != self.name:
            raise CatalogError(
                f"index {definition.name} is declared on {definition.table_name}, "
                f"not {self.name}"
            )
        index = BTreeIndex(definition, self.schema, file_id, self.buffer_pool)
        index.build(self.data_file.columns(), *self.data_file.locators())
        self.indexes[definition.name] = index
        return index

    def build_table_statistics(self, num_buckets: int = 64) -> TableStatistics:
        """Full-scan statistics: row/page counts and per-column histograms."""
        if not self._loaded:
            raise StorageError(f"table {self.name}: load rows before statistics")
        self.statistics = build_statistics(
            table_name=self.name,
            columns=self.data_file.column_values(),
            column_names=list(self.schema.column_names),
            row_count=self.num_rows,
            page_count=self.num_pages,
            num_buckets=num_buckets,
        )
        self._stats_dirty = False
        self._stats_version += 1
        return self.statistics

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def index(self, name: str) -> BTreeIndex:
        try:
            return self.indexes[name]
        except KeyError:
            raise CatalogError(
                f"table {self.name} has no index {name!r}; "
                f"available: {sorted(self.indexes)}"
            ) from None

    def indexes_on_column(self, column: str) -> list[BTreeIndex]:
        """Indexes whose *leading* key column is ``column``."""
        return [
            idx
            for idx in self.indexes.values()
            if idx.definition.leading_column == column
        ]

    def rids(self) -> Iterator[RID]:
        """Every stored row's RID, in physical order (no I/O)."""
        return self.data_file.rids()

    def fetch(self, io: IOContext, rid: RID) -> tuple[PageId, tuple]:
        """Random-access row fetch (the Fetch operator's storage call)."""
        return self.data_file.fetch(io, rid)

    def scan_rows(self, io: IOContext) -> Iterator[tuple[PageId, int, tuple]]:
        """Full sequential scan in grouped page order (charges ``io``)."""
        return self.data_file.scan_rows(io)

    def clustered_file(self) -> ClusteredFile:
        if not isinstance(self.data_file, ClusteredFile):
            raise StorageError(f"table {self.name} is a heap, not clustered")
        return self.data_file

    def all_page_ids(self) -> list[PageId]:
        """Every page id of the table (no I/O charge; used by oracles)."""
        return [PageId(i) for i in range(self.data_file.num_pages)]

    def rows_on_page(self, page_id: PageId) -> list[tuple]:
        """Rows of one page without I/O accounting (oracle/test helper)."""
        return self.data_file.page(page_id).rows_list()

    def __repr__(self) -> str:
        layout = self.data_file.layout_name
        return (
            f"Table({self.name}: {self.num_rows} rows, {self.num_pages} pages, "
            f"{layout}, indexes={sorted(self.indexes)})"
        )
