"""Table schemas and index definitions.

A :class:`TableSchema` fixes the column order used by row tuples everywhere
in the engine.  :class:`IndexDef` describes one index: the engine supports a
single *clustered* index (which determines the physical row order of the
table, SQL Server style) and any number of non-clustered B-tree indexes,
optionally with included columns (making them covering for some queries).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Iterable, Iterator, Optional, Sequence

from repro.common.errors import SchemaError
from repro.sql.types import SqlType


@dataclass(frozen=True)
class ColumnDef:
    """One column: a name and a SQL type.

    ``width_bytes`` is the simulated storage width used by the page layout
    to decide rows-per-page; defaults approximate fixed-width encodings.
    """

    name: str
    sql_type: SqlType
    width_bytes: int = 0

    def __post_init__(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise SchemaError(f"invalid column name {self.name!r}")
        if self.width_bytes < 0:
            raise SchemaError(f"column {self.name}: negative width {self.width_bytes}")
        if self.width_bytes == 0:
            object.__setattr__(self, "width_bytes", _DEFAULT_WIDTHS[self.sql_type])


_DEFAULT_WIDTHS: dict[SqlType, int] = {
    SqlType.INT: 8,
    SqlType.FLOAT: 8,
    SqlType.STR: 32,
    SqlType.DATE: 4,
}


#: Rows a bulk load holds as Python objects at any one time (the rest of
#: the table is already stored columns, or not yet read).
LOAD_SLICE_ROWS = 1024


class TableSchema:
    """Ordered column definitions for a table.

    Rows are plain tuples in schema order.  The schema provides fast
    name -> position resolution and row validation.
    """

    __slots__ = ("table_name", "columns", "_positions", "row_width_bytes")

    def __init__(self, table_name: str, columns: Sequence[ColumnDef]) -> None:
        if not table_name or not table_name.isidentifier():
            raise SchemaError(f"invalid table name {table_name!r}")
        if not columns:
            raise SchemaError(f"table {table_name}: at least one column required")
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"table {table_name}: duplicate column names in {names}")
        self.table_name = table_name
        self.columns: tuple[ColumnDef, ...] = tuple(columns)
        self._positions = {c.name: i for i, c in enumerate(columns)}
        self.row_width_bytes = sum(c.width_bytes for c in columns)

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    def position(self, column: str) -> int:
        """Position of ``column`` in row tuples; raises on unknown names."""
        try:
            return self._positions[column]
        except KeyError:
            raise SchemaError(
                f"table {self.table_name} has no column {column!r}; "
                f"columns are {list(self._positions)}"
            ) from None

    def column(self, name: str) -> ColumnDef:
        return self.columns[self.position(name)]

    def has_column(self, name: str) -> bool:
        return name in self._positions

    def validate_row(self, row: Sequence[Any]) -> tuple:
        """Type-check a row against the schema; returns the row as a tuple."""
        if len(row) != len(self.columns):
            raise SchemaError(
                f"table {self.table_name}: row has {len(row)} values, "
                f"schema has {len(self.columns)} columns"
            )
        return tuple(
            col.sql_type.validate(value) for col, value in zip(self.columns, row)
        )

    def validate_rows(self, rows: Iterable[Sequence[Any]]) -> Iterator[list[list]]:
        """Type-check many rows (bulk load); yields them by column, a
        slice of at most :data:`LOAD_SLICE_ROWS` rows at a time.

        ``rows`` is read once, lazily.  Each slice is checked a column at
        a time: when every row is a tuple of the right arity and every
        value of a column has exactly the column's Python type, nothing
        needs converting and the slice's transpose is what is yielded.
        Anything else — NULLs, bools, ints to widen in a FLOAT column,
        lists, wrong arity — takes :meth:`validate_row` row by row, so the
        first offender raises the same :class:`SchemaError`.
        """
        rows = iter(rows)
        chunk = list(islice(rows, LOAD_SLICE_ROWS))
        if not chunk:
            yield [[] for _ in self.columns]  # no rows: one batch, of the schema's width
        while chunk:
            by_column = None
            if set(map(type, chunk)) == {tuple} and set(map(len, chunk)) == {
                len(self.columns)
            }:
                by_column = [list(values) for values in zip(*chunk)]
                if not all(
                    set(map(type, values)) == {column.sql_type.python_type}
                    for column, values in zip(self.columns, by_column)
                ):
                    by_column = None
            if by_column is None:
                validated = [self.validate_row(row) for row in chunk]
                by_column = [list(values) for values in zip(*validated)]
            yield by_column
            chunk = list(islice(rows, LOAD_SLICE_ROWS))

    def __len__(self) -> int:
        return len(self.columns)

    def __repr__(self) -> str:
        cols = ", ".join(f"{c.name} {c.sql_type.value}" for c in self.columns)
        return f"TableSchema({self.table_name}: {cols})"


#: Partitioning strategies the catalog understands.  ``range`` carves the
#: table into contiguous runs of whole pages in clustering-key order (the
#: layout under which per-shard page counts sum exactly to the global
#: ones); ``hash`` scatters rows by a deterministic hash of the
#: partitioning column (balanced, but shard pages no longer correspond
#: 1:1 to global pages).
PARTITION_STRATEGIES = ("range", "hash")


@dataclass(frozen=True)
class PartitionSpec:
    """How a database is split across shards.

    ``column`` names the partitioning column; ``None`` defaults to the
    table's clustering key (or its first column for a heap).  One spec
    applies database-wide so every table of a shard lives on the same
    shard boundary discipline.
    """

    num_shards: int
    strategy: str = "range"
    column: Optional[str] = None

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise SchemaError(
                f"partition spec needs >= 1 shard, got {self.num_shards}"
            )
        if self.strategy not in PARTITION_STRATEGIES:
            raise SchemaError(
                f"unknown partition strategy {self.strategy!r}; "
                f"expected one of {PARTITION_STRATEGIES}"
            )


@dataclass(frozen=True)
class TablePartition:
    """One shard's slice of a partitioned table.

    For ``range`` partitioning the slice is a contiguous run of whole
    global pages: ``page_offset`` is the global page id of the shard's
    first local page and ``row_offset`` the global row position of its
    first row, so ``global_page = page_offset + local_page`` maps shard
    accounting back onto the unsharded layout.  Hash partitioning has no
    such correspondence; both offsets are ``None`` there.
    """

    spec: PartitionSpec
    shard_index: int
    page_offset: Optional[int] = None
    row_offset: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0 <= self.shard_index < self.spec.num_shards:
            raise SchemaError(
                f"shard index {self.shard_index} outside "
                f"[0, {self.spec.num_shards})"
            )


@dataclass(frozen=True)
class IndexDef:
    """Metadata for one index.

    ``key_columns`` is the search key (composite keys supported).  For a
    clustered index the table's rows are physically ordered by the key; for
    a non-clustered index the leaf entries carry the row locator (RID for a
    heap, clustering key otherwise).  ``included_columns`` widen the leaf
    entries so more queries are *covered* (answerable from the index alone).
    """

    name: str
    table_name: str
    key_columns: tuple[str, ...]
    clustered: bool = False
    included_columns: tuple[str, ...] = field(default_factory=tuple)
    unique: bool = False

    def __post_init__(self) -> None:
        if not self.key_columns:
            raise SchemaError(f"index {self.name}: key_columns must not be empty")
        overlap = set(self.key_columns) & set(self.included_columns)
        if overlap:
            raise SchemaError(
                f"index {self.name}: columns {sorted(overlap)} are both key and included"
            )

    @property
    def leading_column(self) -> str:
        """First key column — the one a single-column seek predicate targets."""
        return self.key_columns[0]

    def carried_columns(self) -> tuple[str, ...]:
        """All columns physically present in the index leaves."""
        return self.key_columns + self.included_columns

    def covers(self, needed: Iterable[str]) -> bool:
        """Whether the index leaves carry every column in ``needed``."""
        carried = set(self.carried_columns())
        return all(col in carried for col in needed)
