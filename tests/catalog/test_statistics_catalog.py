"""Tests for table statistics and the database catalog."""

import pytest

from repro.catalog import ColumnDef, Database, IndexDef, TableSchema
from repro.catalog.statistics import build_statistics
from repro.common.errors import CatalogError, EstimationError, StorageError
from repro.sql.predicates import Comparison, Conjunction, conjunction_of
from repro.sql.types import SqlType

from tests.conftest import by_column, make_tiny_table


class TestTableStatistics:
    @pytest.fixture(scope="class")
    def stats(self):
        rows = [(i, (i * 7) % 100) for i in range(1000)]
        return build_statistics("t", by_column(rows), ["a", "b"], 1000, page_count=20)

    def test_geometry(self, stats):
        assert stats.row_count == 1000
        assert stats.page_count == 20
        assert stats.avg_rows_per_page == 50.0

    def test_term_selectivity(self, stats):
        sel = stats.estimate_term_selectivity(Comparison("a", "<", 500))
        assert sel == pytest.approx(0.5, rel=0.05)

    def test_conjunction_independence(self, stats):
        conj = conjunction_of(Comparison("a", "<", 500), Comparison("b", "<", 50))
        sel = stats.estimate_selectivity(conj)
        assert sel == pytest.approx(0.25, rel=0.15)

    def test_cardinality(self, stats):
        conj = conjunction_of(Comparison("a", "<", 100))
        assert stats.estimate_cardinality(conj) == pytest.approx(100, rel=0.1)

    def test_empty_conjunction_is_full_table(self, stats):
        assert stats.estimate_cardinality(Conjunction()) == 1000

    def test_missing_histogram_fallbacks(self, stats):
        # No histogram on column "z": magic constants apply.
        assert stats.estimate_term_selectivity(Comparison("z", "=", 1)) == 0.1
        assert stats.estimate_term_selectivity(Comparison("z", "<", 1)) == pytest.approx(1 / 3)

    def test_histogram_for_unknown_column_raises(self, stats):
        with pytest.raises(EstimationError):
            stats.histogram_for("nope")

    def test_estimate_distinct(self, stats):
        assert stats.estimate_distinct("b") == pytest.approx(100, abs=5)

    def test_subset_histogram_columns(self):
        rows = [(i, i) for i in range(100)]
        stats = build_statistics(
            "t", by_column(rows), ["a", "b"], 100, page_count=2, histogram_columns=["a"]
        )
        assert stats.has_histogram("a") and not stats.has_histogram("b")


class TestDatabase:
    def test_load_table_lifecycle(self):
        database, table, rows = make_tiny_table(num_rows=300)
        assert table.num_rows == 300
        assert table.statistics is not None
        assert table.index("ix_v").num_entries == 300

    def test_duplicate_table_rejected(self):
        database = Database("d")
        schema = TableSchema("t", [ColumnDef("a", SqlType.INT)])
        database.create_table(schema)
        with pytest.raises(CatalogError):
            database.create_table(schema)

    def test_unknown_table_rejected(self):
        with pytest.raises(CatalogError):
            Database("d").table("ghost")

    def test_double_load_rejected(self):
        database = Database("d")
        schema = TableSchema("t", [ColumnDef("a", SqlType.INT)])
        table = database.create_table(schema)
        table.bulk_load([(1,)])
        with pytest.raises(StorageError):
            table.bulk_load([(2,)])

    def test_index_before_load_rejected(self):
        database = Database("d")
        schema = TableSchema("t", [ColumnDef("a", SqlType.INT)])
        database.create_table(schema)
        with pytest.raises(StorageError):
            database.create_index("t", IndexDef("ix", "t", ("a",)))

    def test_index_on_wrong_table_rejected(self):
        database, table, _rows = make_tiny_table(num_rows=10)
        with pytest.raises(CatalogError):
            table.create_index(IndexDef("ix2", "other", ("v",)), file_id=99)

    def test_duplicate_index_rejected(self):
        database, table, _rows = make_tiny_table(num_rows=10)
        with pytest.raises(CatalogError):
            database.create_index("tiny", IndexDef("ix_v", "tiny", ("v",)))

    def test_inventory(self):
        database, table, _rows = make_tiny_table(num_rows=300)
        (entry,) = database.inventory()
        assert entry["table"] == "tiny"
        assert entry["num_rows"] == 300
        assert entry["num_pages"] == table.num_pages
        assert entry["avg_rows_per_page"] == pytest.approx(
            300 / table.num_pages
        )

    def test_cold_cache_empties_pool(self):
        """The cold cache is a fresh context: its frames start empty, and
        a page another context holds resident is a physical read."""
        database, table, _rows = make_tiny_table(num_rows=300)
        rid = next(table.rids())
        warm = database.new_io_context()
        table.fetch(warm, rid)
        assert len(warm.frames) == 1
        cold = database.new_io_context()
        assert len(cold.frames) == 0
        table.fetch(cold, rid)
        assert (cold.physical_reads, cold.pool_hits) == (1, 0)

    def test_new_io_context_uses_catalog_params(self):
        database, table, _rows = make_tiny_table(num_rows=300)
        io = database.new_io_context()
        assert io.params is database.disk_params
        assert io.elapsed_ms == 0.0 and not io.frames

    def test_contexts_start_cold_and_independent(self):
        database, table, _rows = make_tiny_table(num_rows=300)
        first = database.new_io_context()
        table.fetch(first, list(table.rids())[5])
        assert first.elapsed_ms > 0
        second = database.new_io_context()
        assert second.elapsed_ms == 0  # fresh context, no global carry-over

    def test_reset_measurements_clears_pool_state(self):
        """A fresh context is cold whatever ran before on the database:
        after a scan and a fetch left another context warm, a fresh
        context's fetch costs exactly what it costs on a new database."""
        database, table, _rows = make_tiny_table(num_rows=300)
        rid = list(table.rids())[5]
        warm = database.new_io_context()
        list(table.scan_rows(warm))
        table.fetch(warm, rid)
        assert warm.pool_hits > 0
        after = database.new_io_context()
        table.fetch(after, rid)
        untouched, new_table, _ = make_tiny_table(num_rows=300)
        control = untouched.new_io_context()
        new_table.fetch(control, rid)
        assert (after.physical_reads, after.pool_hits) == (1, 0)
        assert after.io_ms == control.io_ms
        assert list(after.frames) == list(control.frames)

    def test_file_ids_unique(self):
        database = Database("d")
        s1 = TableSchema("t1", [ColumnDef("a", SqlType.INT)])
        s2 = TableSchema("t2", [ColumnDef("a", SqlType.INT)])
        t1 = database.load_table(s1, [(1,)])
        t2 = database.load_table(s2, [(1,)])
        assert t1.data_file.file_id != t2.data_file.file_id
