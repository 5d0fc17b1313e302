"""Tests for the real-world analogues, the TPC-H generator and the query
workload generators."""

import pytest

from repro.catalog import Database
from repro.common.errors import WorkloadError
from repro.workloads.queries import (
    clustering_probe_predicates,
    join_workload,
    multi_predicate_query,
    single_table_workload,
)
from repro.workloads.realworld import (
    build_real_world_databases,
    default_dataset_specs,
    load_dataset,
)
from repro.workloads.tpch import TPCH_QUERY_COLUMNS, build_tpch_database


@pytest.fixture(scope="module")
def small_worlds():
    return build_real_world_databases(scale=0.1, seed=5, include_tpch=False)


@pytest.fixture(scope="module")
def tpch():
    return build_tpch_database(num_lineitems=4000, seed=5)


class TestDatasetSpecs:
    def test_four_non_tpch_datasets(self):
        specs = default_dataset_specs()
        assert [s.name for s in specs] == [
            "book_retailer",
            "yellow_pages",
            "voter_data",
            "products",
        ]

    def test_scale_multiplies_rows(self):
        full = {s.name: s.num_rows for s in default_dataset_specs(1.0)}
        half = {s.name: s.num_rows for s in default_dataset_specs(0.5)}
        for name in full:
            assert half[name] == pytest.approx(full[name] / 2, rel=0.1) or half[name] == 500

    def test_indexed_columns_nonempty(self):
        for spec in default_dataset_specs():
            assert spec.indexed_columns()

    def test_unknown_column_kind_rejected(self):
        from repro.workloads.realworld import ColumnSpec

        with pytest.raises(WorkloadError):
            ColumnSpec("x", "mystery")


class TestRealWorldGeometry:
    def test_rows_per_page_matches_table1(self, small_worlds):
        expectations = {
            "book_retailer": 27,
            "yellow_pages": 39,
            "voter_data": 46,
            "products": 9,
        }
        for name, expected in expectations.items():
            table = small_worlds[name].table(name)
            actual = table.num_rows / table.num_pages
            assert actual == pytest.approx(expected, abs=1.0), name

    def test_all_indexes_built(self, small_worlds):
        for spec in default_dataset_specs(0.1):
            table = small_worlds[spec.name].table(spec.name)
            assert len(table.indexes) == len(spec.indexed_columns())

    def test_load_dataset_into_custom_db(self):
        database = Database("custom")
        spec = default_dataset_specs(0.05)[1]  # yellow_pages, small
        load_dataset(database, spec, seed=1)
        assert database.table(spec.name).num_rows == spec.num_rows


class TestTpch:
    def test_lineitem_geometry(self, tpch):
        lineitem = tpch.table("lineitem")
        assert lineitem.num_rows == 4000
        assert lineitem.num_rows / lineitem.num_pages == pytest.approx(54, abs=1)

    def test_orders_clustered_by_key_and_date(self, tpch):
        orders = tpch.table("orders")
        previous_key = -1
        for page_id in orders.all_page_ids():
            for row in orders.rows_on_page(page_id):
                assert row[0] > previous_key
                previous_key = row[0]

    def test_lineitem_clustered_on_orderkey(self, tpch):
        lineitem = tpch.table("lineitem")
        keys = [
            row[0]
            for page_id in lineitem.all_page_ids()
            for row in lineitem.rows_on_page(page_id)
        ]
        assert keys == sorted(keys)

    def test_date_columns_span_clustering_spectrum(self, tpch):
        """ship/commit/receipt have increasing scatter -> increasing DPC."""
        from repro.core.dpc import exact_dpc
        from repro.sql import Comparison, conjunction_of

        lineitem = tpch.table("lineitem")
        position = lineitem.schema.position("l_shipdate")
        values = sorted(
            row[position]
            for page_id in lineitem.all_page_ids()
            for row in lineitem.rows_on_page(page_id)
        )
        cut = values[len(values) // 20]  # ~5% by shipdate
        dpcs = [
            exact_dpc(lineitem, conjunction_of(Comparison(col, "<", cut)))
            for col in TPCH_QUERY_COLUMNS
        ]
        assert dpcs[0] < dpcs[1] < dpcs[2]

    def test_quantity_skewed(self, tpch):
        lineitem = tpch.table("lineitem")
        position = lineitem.schema.position("l_quantity")
        values = [
            row[position]
            for page_id in lineitem.all_page_ids()
            for row in lineitem.rows_on_page(page_id)
        ]
        ones = sum(1 for v in values if v == 1)
        assert ones > len(values) * 0.3  # Zipf mass at the head

    def test_validation(self):
        with pytest.raises(WorkloadError):
            build_tpch_database(num_lineitems=0)


class TestWorkloadGenerators:
    def test_single_table_selectivity_targeting(self, synthetic_db):
        workload = single_table_workload(
            synthetic_db, "t", ["c2"], 10, selectivity_range=(0.02, 0.08), seed=3
        )
        assert len(workload) == 10
        for generated in workload:
            assert 0.015 <= generated.selectivity <= 0.085

    def test_exact_cardinalities_are_exact(self, synthetic_db):
        workload = single_table_workload(synthetic_db, "t", ["c5"], 5, seed=4)
        table = synthetic_db.table("t")
        for generated in workload:
            [(_, expr, claimed)] = generated.exact_cardinalities
            position = table.schema.position(generated.column)
            actual = sum(
                1
                for page_id in table.all_page_ids()
                for row in table.rows_on_page(page_id)
                if expr.terms[0].matches(row[position])
            )
            assert claimed == actual

    def test_injections_carry_cardinalities(self, synthetic_db):
        (generated,) = single_table_workload(synthetic_db, "t", ["c2"], 1, seed=5)
        injections = generated.injections()
        table, expr, rows = generated.exact_cardinalities[0]
        assert injections.cardinality(table, expr) == rows

    def test_join_workload_shape(self, join_db):
        workload = join_workload(
            join_db, "t1", "t", ["c2", "c5"], 3, seed=6
        )
        assert len(workload) == 6
        for generated in workload:
            assert generated.query.join_predicate.left_table == "t1"
            assert "t1" in generated.query.predicates

    def test_multi_predicate_query(self, synthetic_db):
        generated = multi_predicate_query(
            synthetic_db, "t", ["c2", "c3", "c4"], per_term_selectivity=0.5, seed=7
        )
        assert len(generated.query.predicate) == 3
        assert len(generated.exact_cardinalities) == 3
        with pytest.raises(WorkloadError):
            multi_predicate_query(synthetic_db, "t", [])

    def test_clustering_probes_range_columns(self, synthetic_db):
        probes = clustering_probe_predicates(synthetic_db, "t", "c5", 4, seed=8)
        assert len(probes) == 4
        for predicate in probes:
            assert predicate.terms[0].op == "<"

    def test_clustering_probes_categorical_equality(self, small_worlds):
        probes = clustering_probe_predicates(
            small_worlds["voter_data"], "voter_data", "birth_year", 4, seed=9
        )
        assert probes
        for predicate in probes:
            assert predicate.terms[0].op == "="

    def test_bad_selectivity_range_rejected(self, synthetic_db):
        with pytest.raises(WorkloadError):
            single_table_workload(
                synthetic_db, "t", ["c2"], 1, selectivity_range=(0.5, 0.1)
            )
