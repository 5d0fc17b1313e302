"""The table is its columns; every way of reading rows gives back the rows.

Rows of INT / FLOAT / STR / DATE columns, NULLs included, go in through
``load_table`` and must come back — through pages, scans, gathers, RID
fetches and clustered seeks — as the same tuples of *plain Python* values
(``type(v) is int``, never ``numpy.int64``).
"""

from __future__ import annotations

import datetime

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.catalog import ColumnDef, Database, IndexDef, TableSchema
from repro.common.types import RID, PageId
from repro.exec import vector
from repro.sql.types import SqlType
from repro.storage.accounting import IOContext

SCHEMA = TableSchema(
    "m",
    [
        ColumnDef("k", SqlType.INT),
        ColumnDef("n", SqlType.INT),
        ColumnDef("x", SqlType.FLOAT),
        ColumnDef("s", SqlType.STR, width_bytes=1500),  # ~5 rows a page
        ColumnDef("d", SqlType.DATE),
    ],
)
PLAIN_TYPES = (int, int, float, str, datetime.date)

rows_strategy = st.lists(
    st.tuples(
        st.integers(0, 12),  # the clustering key: duplicates straddle pages
        st.one_of(st.none(), st.integers(-(2**70), 2**70)),
        st.one_of(st.none(), st.floats(allow_nan=False)),
        st.one_of(st.none(), st.text(max_size=3)),
        st.one_of(
            st.none(),
            st.dates(datetime.date(2000, 1, 1), datetime.date(2010, 1, 1)),
        ),
    ),
    max_size=40,
)


def load(rows, clustered):
    database = Database("roundtrip")
    return database.load_table(
        SCHEMA,
        iter(rows),  # lazy: the loader reads it once, in slices
        clustered_on=["k"] if clustered else None,
        indexes=[IndexDef("ix_k", "m", ("k",), included_columns=("s",))],
        build_stats=False,
    )


def assert_plain(rows):
    for row in rows:
        assert type(row) is tuple
        for value, plain in zip(row, PLAIN_TYPES):
            assert value is None or type(value) is plain, (value, type(value))


@settings(max_examples=60, deadline=None)
@given(
    rows=rows_strategy,
    clustered=st.booleans(),
)
# Ints in [2**63, 2**64) beside int64 ones: NumPy would make the column float64.
@example(rows=[(0, 0, None, None, None), (0, 2**63, None, None, None)], clustered=False)
@example(rows=[(0, 0, None, None, None), (0, 2**63 + 1, None, None, None)], clustered=True)
def test_every_read_path_returns_the_loaded_rows(rows, clustered):
    table = load(rows, clustered)
    stored = sorted(rows, key=lambda row: row[0]) if clustered else rows  # stable
    data_file = table.data_file
    capacity = data_file.page_capacity
    assert table.num_rows == len(rows)
    assert table.num_pages == -(-len(rows) // capacity)

    paged = [table.rows_on_page(page_id) for page_id in table.all_page_ids()]
    assert [row for page in paged for row in page] == stored
    assert all(len(page) == capacity for page in paged[:-1])
    assert_plain(stored and paged[0])

    scanned = list(table.scan_rows(IOContext()))
    assert [row for _page, _slot, row in scanned] == stored
    assert [(page, slot) for page, slot, _row in scanned] == [
        divmod(position, capacity) for position in range(len(rows))
    ]
    assert_plain(row for _page, _slot, row in scanned)

    pages, slots = data_file.locators()
    backwards = list(zip(pages, slots))[::-1]
    gathered = (
        vector.rows_from_columns(
            data_file.columns_at(*zip(*backwards)), len(backwards)
        )
        if backwards
        else []
    )
    assert gathered == stored[::-1]
    assert_plain(gathered)

    fetched = [data_file.fetch(IOContext(), RID(*at)) for at in zip(pages, slots)]
    assert [row for _page, row in fetched] == stored
    assert_plain(row for _page, row in fetched)

    chunked = [
        row
        for _first, _count, columns, num_rows, _starts in (
            data_file.scan_column_chunks(IOContext(), 8)
        )
        for row in vector.rows_from_columns(list(columns), num_rows)
    ]
    assert chunked == stored

    # Through the secondary index: key order, ties in physical order.
    entries = list(table.index("ix_k").entries())
    assert [key for key, _rid, _payload in entries] == sorted(
        (row[0],) for row in rows
    )
    assert [
        data_file.fetch(IOContext(), rid)[1][3] for _key, rid, _payload in entries
    ] == [payload[0] for _key, _rid, payload in entries]

    if clustered:
        clustered_file = table.clustered_file()
        low, high = (3,), (9,)
        expected = [row for row in stored if 3 <= row[0] <= 9]
        sought = list(clustered_file.seek_range(IOContext(), low, high))
        assert [row for _page, _slot, row in sought] == expected
        chunked = [
            row
            for _first, _count, columns, num_rows, _starts in (
                clustered_file.seek_range_chunks(IOContext(), 8, low, high)
            )
            for row in vector.rows_from_columns(list(columns), num_rows)
        ]
        assert chunked == expected
        keyed = list(clustered_file.fetch_by_key(IOContext(), (5,)))
        assert [row for _page, row in keyed] == [r for r in stored if r[0] == 5]
        assert_plain(expected)
        assert_plain(chunked)
        assert_plain(row for _page, row in keyed)


def _heap_database(rows, appended=()):
    database = Database("growing")
    schema = TableSchema(
        "h",
        [
            ColumnDef("k", SqlType.INT),
            ColumnDef("v", SqlType.INT),
            ColumnDef("pad", SqlType.STR, width_bytes=900),
        ],
    )
    table = database.load_table(
        schema, rows, indexes=[IndexDef("ix_v", "h", ("v",), included_columns=("k",))]
    )
    for batch in appended:
        table.append_rows(batch)
    return table


def _layout(table):
    data_file = table.data_file
    return (
        [table.rows_on_page(page_id) for page_id in table.all_page_ids()],
        [(int(rid.page_id), rid.slot) for rid in table.rids()],
        [
            (key, int(rid.page_id), rid.slot, payload)
            for key, rid, payload in table.index("ix_v").entries()
        ],
        [
            (first, count, vector.rows_from_columns(list(columns), num_rows), starts)
            for first, count, columns, num_rows, starts in (
                data_file.scan_column_chunks(IOContext(), 20)
            )
        ],
    )


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(st.integers(0, 25), min_size=1, max_size=5),
    # A NULL ``k`` (no index is keyed on it) makes that typed column a list,
    # in whichever batch it arrives.
    null_at=st.one_of(st.none(), st.integers(0, 80)),
)
def test_appends_after_bulk_load_equal_one_bulk_load(sizes, null_at):
    rows = [
        (None if position == null_at else position, (position * 7) % 11, "x")
        for position in range(sum(sizes))
    ]
    cuts = [sum(sizes[:index]) for index in range(len(sizes) + 1)]
    batches = [rows[start:stop] for start, stop in zip(cuts, cuts[1:])]
    grown = _heap_database(batches[0], batches[1:])
    assert _layout(grown) == _layout(_heap_database(rows))
    assert grown.statistics_stale == any(batches[1:])


def test_append_returns_the_rids_the_rows_landed_on():
    table = _heap_database([(i, i, "x") for i in range(10)])
    capacity = table.data_file.page_capacity
    appended = table.append_rows(iter([(10, 3, "y"), (11, 4, None)]))
    assert appended == [RID(PageId(p), s) for p, s in (divmod(10, capacity), divmod(11, capacity))]
    assert [table.fetch(IOContext(), rid)[1] for rid in appended] == [
        (10, 3, "y"),
        (11, 4, None),
    ]


def test_a_failed_load_stores_nothing():
    from repro.common.errors import SchemaError

    database = Database("d")
    schema = TableSchema("h", [ColumnDef("a", SqlType.INT)])
    table = database.create_table(schema)
    with pytest.raises(SchemaError):
        table.bulk_load([(1,), ("two",)])
    assert table.num_rows == 0
    table.bulk_load([(1,), (2,)])  # the table is still loadable
    with pytest.raises(SchemaError):
        table.append_rows([(3,), (None,), ("four",)])
    assert table.rows_on_page(PageId(0)) == [(1,), (2,)]
