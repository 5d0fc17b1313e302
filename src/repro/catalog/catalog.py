"""The database catalog: tables, indexes, files and shared runtime objects.

A :class:`Database` owns the disk-parameter set, the buffer-pool
capacity, file-id allocation and the table registry.  It is the single
entry point for creating and loading tables — examples and the benchmark
harness construct one ``Database`` per experiment.  Timing, I/O counters
and buffer frames are not here: each execution carries its own
:class:`~repro.storage.accounting.IOContext` (see
:meth:`Database.new_io_context`), so no measurement flows through shared
mutable state and a fresh context is always a cold cache.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional, Sequence

from repro.common.errors import CatalogError
from repro.common.types import FileId
from repro.catalog.schema import IndexDef, PartitionSpec, TableSchema
from repro.storage.accounting import IOContext
from repro.storage.buffer import BufferPool
from repro.storage.clustered import ClusteredFile
from repro.storage.disk import DiskParameters
from repro.storage.heap import HeapFile
from repro.storage.table import Table


class Database:
    """A named collection of tables sharing one buffer-pool capacity."""

    def __init__(
        self,
        name: str = "db",
        buffer_pool_pages: int = 65536,
        disk_params: Optional[DiskParameters] = None,
    ) -> None:
        self.name = name
        self.disk_params = disk_params or DiskParameters()
        self.buffer_pool = BufferPool(capacity_pages=buffer_pool_pages)
        self.tables: dict[str, Table] = {}
        #: Both set by :func:`repro.shard.partition.partition_database` on
        #: the shard-local databases it builds; ``None`` on an unsharded
        #: (or coordinator-global) database.
        self.partition_spec: Optional[PartitionSpec] = None
        self.shard_index: Optional[int] = None
        self._next_file_id = 0

    def new_io_context(self) -> IOContext:
        """A fresh accounting context for one execution: zeroed counters
        and cold buffer frames (the pool's capacity), whatever ran before."""
        return IOContext(params=self.disk_params)

    def _allocate_file_id(self) -> FileId:
        file_id = FileId(self._next_file_id)
        self._next_file_id += 1
        return file_id

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------
    def create_table(
        self,
        schema: TableSchema,
        clustered_on: Optional[Sequence[str]] = None,
        fill_factor: float = 1.0,
    ) -> Table:
        """Create an empty table, as a heap or clustered on ``clustered_on``."""
        if schema.table_name in self.tables:
            raise CatalogError(f"table {schema.table_name} already exists")
        file_id = self._allocate_file_id()
        clustered_def: Optional[IndexDef] = None
        if clustered_on:
            key_positions = [schema.position(col) for col in clustered_on]
            data_file = ClusteredFile(
                file_id,
                schema.row_width_bytes,
                self.buffer_pool,
                key_positions=key_positions,
                fill_factor=fill_factor,
            )
            clustered_def = IndexDef(
                name=f"cidx_{schema.table_name}",
                table_name=schema.table_name,
                key_columns=tuple(clustered_on),
                clustered=True,
            )
        else:
            data_file = HeapFile(
                file_id, schema.row_width_bytes, self.buffer_pool, fill_factor
            )
        table = Table(schema, data_file, clustered_index=clustered_def)
        self.tables[schema.table_name] = table
        return table

    def load_table(
        self,
        schema: TableSchema,
        rows: Iterable[Sequence[Any]],
        clustered_on: Optional[Sequence[str]] = None,
        indexes: Sequence[IndexDef] = (),
        build_stats: bool = True,
        fill_factor: float = 1.0,
    ) -> Table:
        """One-shot create + bulk load + index build + statistics.

        ``rows`` may be lazy (a generator, a ``zip`` over columns): it is
        read once, a bounded slice at a time.
        """
        table = self.create_table(schema, clustered_on, fill_factor)
        table.bulk_load(rows)
        for definition in indexes:
            table.create_index(definition, self._allocate_file_id())
        if build_stats:
            table.build_table_statistics()
        return table

    def create_index(self, table_name: str, definition: IndexDef):
        """Add a secondary index to an already-loaded table."""
        return self.table(table_name).create_index(
            definition, self._allocate_file_id()
        )

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def table(self, name: str) -> Table:
        try:
            return self.tables[name]
        except KeyError:
            raise CatalogError(
                f"database {self.name} has no table {name!r}; "
                f"available: {sorted(self.tables)}"
            ) from None

    def statistics_versions(
        self, tables: Sequence[str]
    ) -> tuple[tuple[str, int], ...]:
        """Sorted ``(table, statistics_version)`` vector for ``tables``.

        Part of the plan cache's freshness key: a statistics rebuild on
        any touched table must invalidate cached plans costed against the
        old statistics.
        """
        return tuple(
            (name, self.table(name).statistics_version)
            for name in sorted(set(tables))
        )

    def inventory(self) -> list[dict[str, Any]]:
        """Per-table geometry summary (Table I's columns)."""
        rows = []
        for table in self.tables.values():
            rows.append(
                {
                    "table": table.name,
                    "num_rows": table.num_rows,
                    "num_pages": table.num_pages,
                    "avg_rows_per_page": (
                        table.num_rows / table.num_pages if table.num_pages else 0.0
                    ),
                }
            )
        return rows

    def __repr__(self) -> str:
        return f"Database({self.name}: tables={sorted(self.tables)})"
