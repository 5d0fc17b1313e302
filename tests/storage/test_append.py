"""Tests for post-load appends (heap tables) and index maintenance."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.catalog import ColumnDef, Database, IndexDef, TableSchema
from repro.common.errors import IndexError_, StorageError
from repro.sql.types import SqlType
from repro.storage.accounting import IOContext

from repro.exec import vector

from tests.conftest import make_tiny_table


def make_heap_table(num_rows=200, unique=False):
    database = Database("appendable", buffer_pool_pages=5_000)
    schema = TableSchema(
        "h",
        [
            ColumnDef("k", SqlType.INT),
            ColumnDef("v", SqlType.INT),
            ColumnDef("pad", SqlType.STR, width_bytes=200),
        ],
    )
    rows = [(i, (i * 13) % num_rows, "x") for i in range(num_rows)]
    table = database.load_table(
        schema,
        rows,
        clustered_on=None,  # heap
        indexes=[IndexDef("ix_v", "h", ("v",), unique=unique)],
    )
    return database, table, rows


class TestAppendRows:
    def test_rows_visible_in_scan(self):
        database, table, rows = make_heap_table()
        table.append_rows([(1000, 5, "y"), (1001, 6, "y")])
        assert table.num_rows == 202
        scanned = [r for _p, _s, r in table.scan_rows(IOContext())]
        assert (1000, 5, "y") in scanned

    def test_index_maintained(self):
        database, table, _rows = make_heap_table()
        table.append_rows([(1000, 77, "y")])
        index = table.index("ix_v")
        io = IOContext()
        matches = [rid for _k, rid, _p in index.seek_equal(io, 77)]
        fetched = [table.fetch(io, rid)[1] for rid in matches]
        assert (1000, 77, "y") in fetched

    def test_index_order_preserved(self):
        database, table, _rows = make_heap_table()
        table.append_rows([(1000, 3, "y"), (1001, 150, "y"), (1002, 0, "y")])
        index = table.index("ix_v")
        keys = [key for key, _r, _p in index.scan_all(IOContext())]
        assert keys == sorted(keys)

    def test_seek_correct_after_many_appends(self):
        database, table, rows = make_heap_table()
        extra = [(2000 + i, (i * 7) % 300, "y") for i in range(100)]
        table.append_rows(extra)
        index = table.index("ix_v")
        all_rows = rows + extra
        io = IOContext()
        for probe in (0, 7, 150, 299):
            expected = sorted(r for r in all_rows if r[1] == probe)
            got = sorted(
                table.fetch(io, rid)[1] for _k, rid, _p in index.seek_equal(io, probe)
            )
            assert got == expected

    def test_statistics_staleness_flag(self):
        database, table, _rows = make_heap_table()
        assert not table.statistics_stale
        table.append_rows([(1000, 1, "y")])
        assert table.statistics_stale
        table.build_table_statistics()
        assert not table.statistics_stale

    def test_empty_append_keeps_stats_fresh(self):
        database, table, _rows = make_heap_table()
        table.append_rows([])
        assert not table.statistics_stale

    def test_chunk_scan_sees_rows_appended_after_an_earlier_scan(self):
        # The chunk scan slices the store itself: there is no column cache
        # to go stale, so the next scan simply covers the new rows.
        from repro.exec import CountAggregate, SeqScan, execute
        from repro.sql import Comparison, conjunction_of

        database, table, _rows = make_heap_table()

        def count_scan():
            scan = SeqScan(table, conjunction_of(Comparison("k", ">=", 0)))
            scan.parent_consumes_columns = True
            return execute(CountAggregate(scan, "pad"), database, mode="batch").rows

        assert count_scan() == [(200,)]
        table.append_rows([(1000, 5, "y"), (1001, 6, None)])
        assert table.data_file.num_rows == 202
        assert count_scan() == [(201,)]  # the NULL pad is not counted

    def test_chunk_scan_started_before_an_append_sees_a_consistent_prefix(
        self, backend
    ):
        database, table, rows = make_heap_table()
        data_file = table.data_file
        scan = data_file.scan_column_chunks(IOContext(), 64)
        chunks = [next(scan)]
        # A NULL turns the typed ``k`` column into a list mid-scan.
        table.append_rows([(1000, 5, "y"), (None, 7, None)])
        chunks.extend(scan)
        seen = [
            row
            for _page, _count, columns, num_rows, _starts in chunks
            for row in vector.rows_from_columns(list(columns), num_rows)
        ]
        assert seen == rows
        assert sum(count for _page, count, *_ in chunks) == -(
            -len(rows) // data_file.page_capacity
        )
        assert [r for _p, _s, r in table.scan_rows(IOContext())] == rows + [
            (1000, 5, "y"),
            (None, 7, None),
        ]

    def test_clustered_table_rejects_append(self):
        database, table, _rows = make_tiny_table(num_rows=50)
        with pytest.raises(StorageError):
            table.append_rows([(999, 1, "x")])

    def test_append_before_load_rejected(self):
        database = Database("d")
        schema = TableSchema("h", [ColumnDef("a", SqlType.INT)])
        table = database.create_table(schema)
        with pytest.raises(StorageError):
            table.append_rows([(1,)])

    def test_unique_index_rejects_duplicate_append(self):
        database, table, _rows = make_heap_table(num_rows=50)
        # v values (i*13)%50 are unique for i in 0..49? gcd(13,50)=1 -> yes.
        database2, table2, _ = make_heap_table(num_rows=50, unique=True)
        with pytest.raises(IndexError_):
            table2.append_rows([(999, 13, "y")])  # v=13 already present

    def test_validation_on_append(self):
        database, table, _rows = make_heap_table()
        with pytest.raises(Exception):
            table.append_rows([("bad", 1, "y")])


@settings(max_examples=20, deadline=None)
@given(
    base=st.lists(st.integers(0, 40), min_size=1, max_size=60),
    extra=st.lists(st.integers(0, 40), max_size=40),
)
def test_append_property_index_matches_bruteforce(base, extra):
    database = Database("p", buffer_pool_pages=5_000)
    schema = TableSchema(
        "h", [ColumnDef("k", SqlType.INT), ColumnDef("v", SqlType.INT)]
    )
    rows = [(i, v) for i, v in enumerate(base)]
    table = database.load_table(
        schema, rows, clustered_on=None, indexes=[IndexDef("ix_v", "h", ("v",))]
    )
    extra_rows = [(1000 + i, v) for i, v in enumerate(extra)]
    table.append_rows(extra_rows)
    index = table.index("ix_v")
    io = IOContext()
    got = sorted(table.fetch(io, rid)[1] for _k, rid, _p in index.scan_all(io))
    assert got == sorted(rows + extra_rows)
