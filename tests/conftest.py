"""Shared fixtures: small, session-scoped databases.

The databases are read-only in every test, so session scope is safe and
keeps the suite fast; tests that need to mutate state build their own.
No clock or buffer state can leak between tests: every execution charges
its own :class:`~repro.storage.accounting.IOContext`, whose buffer frames
start cold.
"""

from __future__ import annotations

import contextlib

import pytest

from repro.catalog import ColumnDef, Database, IndexDef, TableSchema
from repro.exec import vector
from repro.sql.types import SqlType
from repro.workloads import build_synthetic_database


@pytest.fixture(scope="session")
def synthetic_db() -> Database:
    """20k-row synthetic database (t clustered on c1, ix_c2..ix_c5)."""
    return build_synthetic_database(num_rows=20_000, seed=1234)


@pytest.fixture(scope="session")
def join_db() -> Database:
    """Synthetic database with the independently-permuted copy t1."""
    return build_synthetic_database(num_rows=20_000, seed=99, with_copy=True)


def _as_list(values):
    return values if isinstance(values, list) else vector.column_values(values)


@contextlib.contextmanager
def list_columns(*databases: Database):
    """Every column is a plain list inside the block: the stored columns
    of ``databases`` (table files and index leaves, put back after) and
    every column ``make_column`` / ``make_scan_column`` builds.  The list
    kernels that string, NULL-bearing and wide-int columns take then run
    a whole workload."""
    stores = [
        store
        for database in databases
        for table in database.tables.values()
        for store in (table.data_file, *table.indexes.values())
        if store._columns is not None
    ]
    saved = [store._columns for store in stores]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(vector, "make_column", _as_list)
        patch.setattr(vector, "make_scan_column", _as_list)
        for store in stores:
            store._columns = [_as_list(column) for column in store._columns]
        try:
            yield
        finally:
            for store, columns in zip(stores, saved):
                store._columns = columns


@pytest.fixture(params=["numpy", "python"])
def backend(request):
    """The column representation a test runs on: ``numpy``, as loaded
    (arrays for numeric NULL-free columns); ``python``, every column a
    list (:func:`list_columns` over the test's ``*_db`` databases)."""
    if request.param == "numpy":
        yield "numpy"
        return
    databases = [
        request.getfixturevalue(name)
        for name in request.fixturenames
        if name.endswith("_db")
    ]
    with list_columns(*databases):
        yield "python"


def by_column(rows, width: int = 0) -> list[list]:
    """Rows transposed — the shape the storage load path takes (``width``
    says how many empty columns no rows make)."""
    return [list(values) for values in zip(*rows)] or [[] for _ in range(width)]


def make_tiny_table(
    num_rows: int = 500,
    clustered: bool = True,
    seed: int = 0,
    rows_per_page_width: int = 100,
):
    """A small two-column table helper for storage/exec tests.

    Returns ``(database, table, rows)`` where rows are
    ``(k, v, pad)`` with ``k`` the clustering key and ``v = (k * 37) %
    num_rows`` (a fixed permutation, so expected counts are computable).
    """
    database = Database(f"tiny{seed}", buffer_pool_pages=10_000)
    schema = TableSchema(
        "tiny",
        [
            ColumnDef("k", SqlType.INT),
            ColumnDef("v", SqlType.INT),
            ColumnDef("pad", SqlType.STR, width_bytes=rows_per_page_width),
        ],
    )
    rows = [(i, (i * 37) % num_rows, "x") for i in range(num_rows)]
    table = database.load_table(
        schema,
        rows,
        clustered_on=["k"] if clustered else None,
        indexes=[IndexDef("ix_v", "tiny", ("v",))],
    )
    return database, table, rows
