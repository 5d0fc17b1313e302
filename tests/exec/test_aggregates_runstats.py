"""Tests for aggregates, Sort and run statistics output."""

import pytest

from repro.exec import (
    CountAggregate,
    GroupByCountAggregate,
    SeqScan,
    Sort,
    execute,
)
from repro.sql import Comparison, Conjunction, conjunction_of

from tests.conftest import make_tiny_table


@pytest.fixture(scope="module")
def tiny():
    return make_tiny_table(num_rows=500, seed=11)


class TestCountAggregate:
    def test_count_star(self, tiny):
        database, table, rows = tiny
        result = execute(CountAggregate(SeqScan(table, Conjunction())), database)
        assert result.scalar() == 500

    def test_count_column_skips_nulls(self):
        from repro.catalog import ColumnDef, Database, TableSchema
        from repro.sql.types import SqlType

        database = Database("n")
        schema = TableSchema("t", [ColumnDef("a", SqlType.INT)])
        database.load_table(schema, [(1,), (None,), (3,)])
        scan = SeqScan(database.table("t"), Conjunction())
        result = execute(CountAggregate(scan, "a"), database)
        assert result.scalar() == 2

    def test_scalar_requires_1x1(self, tiny):
        database, table, _rows = tiny
        result = execute(SeqScan(table, Conjunction()), database)
        with pytest.raises(ValueError):
            result.scalar()

    def test_filtered_count(self, tiny):
        database, table, rows = tiny
        scan = SeqScan(table, conjunction_of(Comparison("v", "<", 100)))
        result = execute(CountAggregate(scan, "pad"), database)
        assert result.scalar() == sum(1 for r in rows if r[1] < 100)


class TestGroupBy:
    def test_groups(self):
        from repro.catalog import ColumnDef, Database, TableSchema
        from repro.sql.types import SqlType

        database = Database("g")
        schema = TableSchema("t", [ColumnDef("g", SqlType.INT)])
        database.load_table(schema, [(1,), (2,), (1,), (1,)])
        scan = SeqScan(database.table("t"), Conjunction())
        result = execute(GroupByCountAggregate(scan, "g"), database)
        assert dict(result.rows) == {1: 3, 2: 1}


class TestSortAndFilter:
    def test_sort_orders(self, tiny):
        database, table, _rows = tiny
        result = execute(Sort(SeqScan(table, Conjunction()), "v"), database)
        values = [r[1] for r in result.rows]
        assert values == sorted(values)

    def test_sort_descending(self, tiny):
        database, table, _rows = tiny
        result = execute(
            Sort(SeqScan(table, Conjunction()), "v", descending=True), database
        )
        values = [r[1] for r in result.rows]
        assert values == sorted(values, reverse=True)


class TestRunStats:
    def test_tree_structure(self, tiny):
        database, table, _rows = tiny
        scan = SeqScan(table, conjunction_of(Comparison("v", "<", 100)))
        count = CountAggregate(scan, "pad")
        result = execute(count, database)
        root = result.runstats.root
        assert root.operator == "CountAggregate"
        assert root.children[0].operator == "SeqScan"
        assert root.children[0].actual_rows == 100

    def test_render_contains_counts(self, tiny):
        database, table, _rows = tiny
        result = execute(SeqScan(table, Conjunction()), database)
        text = result.runstats.render()
        assert "SeqScan" in text and "rows=500" in text
        assert "elapsed=" in text

    def test_to_dict_roundtrip(self, tiny):
        database, table, _rows = tiny
        result = execute(SeqScan(table, Conjunction()), database)
        payload = result.runstats.to_dict()
        assert payload["plan"]["operator"] == "SeqScan"
        assert payload["sequential_reads"] == table.num_pages
        assert payload["page_counts"] == []

    def test_elapsed_positive_and_decomposed(self, tiny):
        database, table, _rows = tiny
        result = execute(SeqScan(table, Conjunction()), database)
        stats = result.runstats
        assert stats.elapsed_ms == pytest.approx(stats.io_ms + stats.cpu_ms)
        assert stats.elapsed_ms > 0

    def test_cold_cache_repeatability(self, tiny):
        """Deterministic simulation: identical runs cost identical time."""
        database, table, _rows = tiny
        first = execute(SeqScan(table, Conjunction()), database).elapsed_ms
        second = execute(SeqScan(table, Conjunction()), database).elapsed_ms
        assert first == second

    def test_warm_cache_cheaper(self, tiny):
        """A context carried into a second run is a warm cache: the second
        scan adds logical reads but no physical read and no I/O time."""
        database, table, _rows = tiny
        io = database.new_io_context()
        cold = execute(SeqScan(table, Conjunction()), database, io=io).runstats
        warm = execute(SeqScan(table, Conjunction()), database, io=io).runstats
        assert cold.io_ms > 0.0
        assert warm.io_ms == cold.io_ms
        assert warm.physical_reads == cold.physical_reads
        assert warm.logical_reads == 2 * cold.logical_reads
