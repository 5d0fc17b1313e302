"""Partitioning a database across N shard-local databases.

The coordinator (:mod:`repro.shard.coordinator`) runs one independent
:class:`~repro.engine.Engine` per shard; this module builds the shard
databases it runs them over.  Two strategies, both recorded as
:class:`~repro.catalog.schema.PartitionSpec` /
:class:`~repro.catalog.schema.TablePartition` catalog metadata:

* **range** (default) — each shard receives a *contiguous run of whole
  global pages* in storage order.  Because every shard file is rebuilt
  with the source table's exact ``fill_factor`` (hence the identical
  ``page_capacity``), shard-local page ``p`` of shard ``s`` holds
  precisely the rows of global page ``page_offset(s) + p``.  That 1:1
  page correspondence is what makes per-shard distinct page counts *sum*
  to the single-engine count bit-for-bit — no global page is split
  across shards, so no page can be counted twice (see
  ``docs/paper_mapping.md``).  For a clustered table the runs are
  clustering-key ranges, so shard-concatenation order equals global key
  order.

* **hash** — rows scatter by a seeded deterministic hash
  (:func:`repro.common.hashing.mix64`) of the partitioning column.
  Totals (cardinalities, summed DPC over *shard* pages) remain correct,
  but shard pages no longer correspond to global pages, so per-shard
  page counts are not bit-comparable to an unsharded run.  Offered for
  balance experiments; the serial≡sharded equivalence harness uses
  range.
"""

from __future__ import annotations

import zlib
from typing import Any, Sequence

from repro.catalog.catalog import Database
from repro.catalog.schema import IndexDef, PartitionSpec, TablePartition
from repro.common.errors import ShardError
from repro.common.hashing import mix64
from repro.exec import vector
from repro.storage.table import Table


def hash_to_shard(value: Any, num_shards: int, seed: int = 0) -> int:
    """Deterministically map a partitioning-column value to a shard."""
    if num_shards <= 0:
        raise ShardError(f"num_shards must be positive, got {num_shards}")
    if isinstance(value, bool) or not isinstance(value, int):
        value = zlib.crc32(repr(value).encode("utf-8"))
    return mix64(value, seed=seed) % num_shards


def partition_column(table: Table, spec: PartitionSpec) -> str:
    """The column a table partitions on under ``spec``.

    An explicit ``spec.column`` wins when the table has it; otherwise the
    clustering key's leading column, falling back to the first schema
    column for heaps.
    """
    if spec.column is not None and table.schema.has_column(spec.column):
        return spec.column
    if table.clustered_index is not None:
        return table.clustered_index.key_columns[0]
    return table.schema.column_names[0]


def _range_slices(table: Table, num_shards: int) -> list[tuple[int, int]]:
    """Per-shard ``(first_page, end_page)`` runs of whole global pages.

    Pages distribute as evenly as whole pages allow: the first
    ``num_pages % num_shards`` shards take one extra page.  Shards beyond
    the page count come out empty (their run is zero-length).
    """
    num_pages = table.num_pages
    base, extra = divmod(num_pages, num_shards)
    slices: list[tuple[int, int]] = []
    start = 0
    for shard in range(num_shards):
        length = base + (1 if shard < extra else 0)
        slices.append((start, start + length))
        start += length
    return slices


def _secondary_defs(table: Table) -> list[IndexDef]:
    return [index.definition for index in table.indexes.values()]


def partition_database(
    database: Database, spec: PartitionSpec, seed: int = 0
) -> list[Database]:
    """Split ``database`` into ``spec.num_shards`` shard-local databases.

    Every shard database reproduces the source schema exactly — same
    table and index names, same clustering, same ``fill_factor`` — so a
    plan optimized against the global catalog rebinds on any shard by
    name alone.  Per-shard statistics are rebuilt from the shard's own
    rows (the "per-shard statistics" the catalog layer owns); the global
    database is left untouched and keeps serving the coordinator's
    planning.
    """
    if database.partition_spec is not None:
        raise ShardError(
            f"database {database.name} is already a shard "
            f"(shard_index={database.shard_index})"
        )
    if not database.tables:
        raise ShardError(f"database {database.name} has no tables to partition")
    shards: list[Database] = []
    for shard_index in range(spec.num_shards):
        shard_db = Database(
            name=f"{database.name}/shard{shard_index}",
            buffer_pool_pages=database.buffer_pool.capacity_pages,
            disk_params=database.disk_params,
        )
        shard_db.partition_spec = spec
        shard_db.shard_index = shard_index
        shards.append(shard_db)

    for table in database.tables.values():
        # Read by column: a shard's rows are a lazy ``zip`` over its share
        # of each column, which the loader reads in slices.
        columns = table.data_file.columns()
        clustered_on = (
            table.clustered_index.key_columns
            if table.clustered_index is not None
            else None
        )
        fill_factor = table.data_file.fill_factor
        secondary = _secondary_defs(table)
        if spec.strategy == "range":
            slices = _range_slices(table, spec.num_shards)
            capacity = table.data_file.page_capacity
            shard_columns = [
                [
                    vector.slice_values(column, first * capacity, end * capacity)
                    for column in columns
                ]
                for first, end in slices
            ]
            partitions = [
                TablePartition(
                    spec=spec,
                    shard_index=shard,
                    page_offset=slices[shard][0],
                    row_offset=slices[shard][0] * capacity,
                )
                for shard in range(spec.num_shards)
            ]
        else:
            position = table.schema.position(partition_column(table, spec))
            members: list[list[int]] = [[] for _ in range(spec.num_shards)]
            for row, value in enumerate(vector.column_values(columns[position])):
                members[hash_to_shard(value, spec.num_shards, seed)].append(row)
            shard_columns = [
                [vector.column_values(vector.values_at(column, rows)) for column in columns]
                for rows in members
            ]
            partitions = [
                TablePartition(spec=spec, shard_index=shard)
                for shard in range(spec.num_shards)
            ]
        for shard_db, slice_columns, partition in zip(
            shards, shard_columns, partitions
        ):
            shard_table = shard_db.load_table(
                table.schema,
                zip(*slice_columns),
                clustered_on=clustered_on,
                indexes=secondary,
                build_stats=bool(slice_columns[0]),
                fill_factor=fill_factor,
            )
            shard_table.partition = partition
    return shards


def check_page_alignment(
    database: Database, shards: Sequence[Database]
) -> list[str]:
    """Audit the range layout: shard pages must tile the global pages.

    Returns human-readable violations (empty when the invariant holds).
    Used by tests and the sharded smoke gate — if this ever reports, the
    bit-identical feedback-merge claim is void.
    """
    problems: list[str] = []
    for table in database.tables.values():
        total_pages = 0
        total_rows = 0
        for shard_db in shards:
            shard_table = shard_db.table(table.name)
            if shard_table.data_file.page_capacity != table.data_file.page_capacity:
                problems.append(
                    f"{table.name}: shard {shard_db.shard_index} page capacity "
                    f"{shard_table.data_file.page_capacity} != global "
                    f"{table.data_file.page_capacity}"
                )
            partition = shard_table.partition
            if partition is not None and partition.page_offset is not None:
                if partition.page_offset != total_pages:
                    problems.append(
                        f"{table.name}: shard {shard_db.shard_index} starts at "
                        f"global page {partition.page_offset}, expected {total_pages}"
                    )
            total_pages += shard_table.num_pages
            total_rows += shard_table.num_rows
        if total_pages != table.num_pages:
            problems.append(
                f"{table.name}: shards hold {total_pages} pages, "
                f"global table has {table.num_pages}"
            )
        if total_rows != table.num_rows:
            problems.append(
                f"{table.name}: shards hold {total_rows} rows, "
                f"global table has {table.num_rows}"
            )
    return problems
