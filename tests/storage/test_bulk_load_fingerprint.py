"""Bulk load got faster; the database it loads did not change.

``Table.bulk_load`` validates a slice of rows at a time, column-wise, and
stores the table by column (pages are windows over the columns); index
leaves are stored by column too.
The fingerprint below covers everything a loaded database consists of —
page contents, RIDs, index entries in leaf order, histograms,
``statistics_version`` — and is compared two ways: against the same load
run through the row-at-a-time reference paths (``validate_row`` /
``append_row`` per row), and against digests recorded at the commit
before the change.
"""

from __future__ import annotations

import datetime
import hashlib

import pytest

from repro.catalog import ColumnDef, Database, IndexDef, TableSchema
from repro.common.errors import SchemaError
from repro.common.types import PageId
from repro.exec import vector
from repro.sql.types import SqlType
from repro.storage.heap import DataFile
from repro.workloads import build_synthetic_database
from repro.workloads.tpch import build_tpch_database

#: sha256 of ``repr(fingerprint(db))`` at the parent commit (327dc04).
PARENT_DIGESTS = {
    "synthetic": "4ba328613a60e55ebec31868b9c10ae2b60fc22ac734cd5049f0eee83aacdf03",
    "tpch": "501ab079f3f0966594982520cc0ff3266cb2d5e08a712861f5158c33786d8949",
}

BUILDERS = {
    "synthetic": lambda: build_synthetic_database(
        num_rows=4_000, seed=2008, with_copy=True
    ),
    # Duplicate clustering keys (ties keep input order), DATE columns,
    # a non-unique secondary index.
    "tpch": lambda: build_tpch_database(num_lineitems=3_000, seed=5),
}


def fingerprint(database: Database) -> tuple:
    tables = []
    for name in sorted(database.tables):
        table = database.table(name)
        data_file = table.data_file
        statistics = table.statistics
        tables.append(
            (
                name,
                table.schema.column_names,
                data_file.layout_name,
                data_file.num_rows,
                [
                    data_file.page(PageId(page)).rows_list()
                    for page in range(data_file.num_pages)
                ],
                [(int(rid.page_id), rid.slot) for rid in table.rids()],
                [
                    (
                        index_name,
                        index.entries_per_page,
                        [
                            (key, int(rid.page_id), rid.slot, payload)
                            for key, rid, payload in index.entries()
                        ],
                    )
                    for index_name, index in sorted(table.indexes.items())
                ],
                None
                if statistics is None
                else (
                    statistics.row_count,
                    statistics.page_count,
                    statistics.avg_rows_per_page,
                    [
                        (column, histogram.null_count, histogram.buckets)
                        for column, histogram in sorted(statistics.histograms.items())
                    ],
                ),
                table.statistics_version,
            )
        )
    return tuple(tables)


def digest(database: Database) -> str:
    return hashlib.sha256(repr(fingerprint(database)).encode()).hexdigest()


@pytest.fixture
def row_at_a_time(monkeypatch):
    """Route bulk load through the per-row reference paths."""
    monkeypatch.setattr(
        TableSchema,
        "validate_rows",
        lambda self, rows: [
            [list(values) for values in zip(*[self.validate_row(row) for row in rows])]
            or [[] for _ in self.columns]
        ],
    )
    append_batches = DataFile.bulk_append  # what ``append_row`` is built on

    monkeypatch.setattr(
        DataFile,
        "bulk_append",
        lambda self, batches: [
            append_batches(self, [[[value] for value in row]])
            for batch in batches
            for row in vector.rows_from_columns(batch, len(batch[0]))
        ],
    )


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_loaded_database_is_what_the_parent_commit_loaded(name):
    assert digest(BUILDERS[name]()) == PARENT_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_bulk_paths_load_what_the_row_paths_load(name, request):
    fast = fingerprint(BUILDERS[name]())
    request.getfixturevalue("row_at_a_time")
    assert fingerprint(BUILDERS[name]()) == fast


def _mixed_table(rows, clustered):
    database = Database("mixed")
    schema = TableSchema(
        "m",
        [
            ColumnDef("k", SqlType.INT),
            ColumnDef("x", SqlType.FLOAT),
            ColumnDef("d", SqlType.DATE),
            ColumnDef("s", SqlType.STR),
        ],
    )
    database.load_table(
        schema,
        rows,
        clustered_on=["k"] if clustered else None,
        indexes=[IndexDef("ix_k", "m", ("k",), included_columns=("s",))],
        build_stats=False,
    )
    return database


@pytest.mark.parametrize("clustered", [False, True])
def test_rows_needing_conversion_take_the_row_path(clustered, request):
    # NULLs, ints to widen in the FLOAT column, a datetime in the DATE
    # column, list rows: the column-wise check accepts none of these, and
    # the per-row path stores what it always stored.
    day = datetime.date(2008, 4, 7)
    rows = [
        (3, 1.5, day, "a"),
        [1, 2, datetime.datetime(2008, 4, 8, 12), None],
        (2, None, day, "c"),
        (1, 4, None, "d"),
    ]
    fast = fingerprint(_mixed_table(rows, clustered))
    stored = [row for page in fast[0][4] for row in page]
    assert all(type(row) is tuple for row in stored)
    assert {type(row[1]) for row in stored} == {float, type(None)}
    request.getfixturevalue("row_at_a_time")
    assert fingerprint(_mixed_table(rows, clustered)) == fast


@pytest.mark.parametrize(
    "bad_row, message",
    [
        ((1, 1.0, None, True), "bool value True is not a valid str"),
        ((1, "x", None, "s"), "is not a valid float"),
        ((1, 1.0, None), "row has 3 values, schema has 4 columns"),
    ],
)
def test_first_offender_raises_the_same_schema_error(bad_row, message):
    good = (0, 0.5, None, "ok")
    with pytest.raises(SchemaError, match=message):
        _mixed_table([good, bad_row, (2, True, None, "later offender")], False)
