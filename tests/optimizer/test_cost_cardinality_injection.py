"""Tests for the cost model, cardinality estimation and injections."""

import math

import pytest

from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.cost import CostModel, expected_evaluations
from repro.optimizer.injection import (
    InjectionSet,
    access_dpc_key,
    cardinality_key,
    join_dpc_key,
)
from repro.sql import Comparison, Conjunction, JoinEquality, conjunction_of
from repro.storage.disk import DiskParameters


class TestExpectedEvaluations:
    def test_no_terms(self):
        assert expected_evaluations([]) == 0.0

    def test_single_term_always_evaluated(self):
        assert expected_evaluations([0.01]) == 1.0

    def test_short_circuit_weighting(self):
        # term2 evaluated only when term1 passed (p=0.5).
        assert expected_evaluations([0.5, 0.9]) == pytest.approx(1.5)

    def test_three_terms(self):
        assert expected_evaluations([0.5, 0.5, 0.5]) == pytest.approx(1.75)

    def test_clamps_out_of_range(self):
        assert expected_evaluations([2.0, 0.5]) == pytest.approx(2.0)


class TestCostModel:
    @pytest.fixture()
    def model(self):
        return CostModel(DiskParameters())

    def test_scan_cost_components(self, model):
        params = model.params
        cost = model.scan_cost(100, 5000, [0.5])
        expected = (
            100 * params.sequential_read_ms
            + 5000 * params.cpu_row_ms
            + 5000 * params.cpu_predicate_ms
        )
        assert cost == pytest.approx(expected)

    def test_fetch_cost_uses_distinct_pages(self, model):
        cheap = model.fetch_cost(1000, 20, [])
        expensive = model.fetch_cost(1000, 800, [])
        assert expensive > cheap
        assert expensive - cheap == pytest.approx(
            780 * model.params.random_read_ms
        )

    def test_index_seek_cost_monotone_in_dpc(self, model):
        costs = [
            model.index_seek_cost(500, 100, dpc, []) for dpc in (10, 100, 400)
        ]
        assert costs == sorted(costs)

    def test_scan_vs_seek_crossover_shape(self, model):
        """The paper's ~10% rule: with accurate DPC on a fully correlated
        column, the seek wins below the crossover and loses above."""
        pages, rows_per_page = 1000, 73
        rows = pages * rows_per_page
        scan = model.scan_cost(pages, rows, [0.05])
        cheap_seek = model.index_seek_cost(0.02 * rows, 500, 0.02 * pages, [])
        costly_seek = model.index_seek_cost(0.30 * rows, 500, 0.30 * pages, [])
        assert cheap_seek < scan < costly_seek

    def test_inl_vs_hash_crossover_shape(self, model):
        pages, rows_per_page = 1000, 73
        rows = pages * rows_per_page
        def inl(selectivity):
            outer_rows = selectivity * rows
            return model.inl_join_cost(
                outer_cost=model.clustered_range_cost(
                    selectivity * pages, outer_rows, []
                ),
                outer_rows=outer_rows,
                inner_matched_entries=outer_rows,
                inner_leaf_pages=math.ceil(outer_rows / 500),
                inner_distinct_pages=selectivity * pages,
                inner_residual_selectivities=[],
            )
        hash_cost = model.hash_join_cost(
            build_cost=model.clustered_range_cost(0.05 * pages, 0.05 * rows, []),
            probe_cost=model.scan_cost(pages, rows, []),
            build_rows=0.05 * rows,
            probe_rows=rows,
        )
        assert inl(0.01) < hash_cost < inl(0.30)

    def test_sort_cost_superlinear(self, model):
        assert model.sort_cost(1) == 0.0
        assert model.sort_cost(10_000) > 10 * model.sort_cost(1_000) * 0.9

    def test_leaf_cost_zero_entries(self, model):
        assert model.index_leaf_cost(0, 100) == model.params.cpu_index_descent_ms

    def test_negative_inputs_clamped(self, model):
        assert model.sequential_io(-5) == 0.0
        assert model.random_io(-5) == 0.0


class TestInjectionSet:
    def test_cardinality_roundtrip(self):
        injections = InjectionSet()
        expr = conjunction_of(Comparison("a", "<", 1))
        injections.inject_cardinality("t", expr, 42.0)
        assert injections.cardinality("t", expr) == 42.0
        assert injections.cardinality("t", conjunction_of(Comparison("a", "<", 2))) is None

    def test_access_page_count_roundtrip(self):
        injections = InjectionSet()
        expr = conjunction_of(Comparison("a", "<", 1))
        injections.inject_access_page_count("t", expr, 17.0)
        assert injections.access_page_count("t", expr) == 17.0

    def test_join_page_count_symmetric(self):
        injections = InjectionSet()
        predicate = JoinEquality("r1", "a", "r2", "b")
        outer = conjunction_of(Comparison("a", "<", 1))
        injections.inject_join_page_count("r2", predicate, outer, 9.0)
        assert injections.join_page_count("r2", predicate, outer) == 9.0
        assert injections.join_page_count("r2", predicate.reversed(), outer) == 9.0

    def test_join_page_count_is_per_outer_filter(self):
        """A count filed under one outer filter answers no other: not a
        wider one, not a narrower one, not the unfiltered outer."""
        injections = InjectionSet()
        predicate = JoinEquality("r1", "a", "r2", "b")
        narrow = conjunction_of(Comparison("a", "<", 200))
        wide = conjunction_of(Comparison("a", "<", 1600))
        injections.inject_join_page_count("r2", predicate, wide, 90.0)
        assert injections.join_page_count("r2", predicate, narrow) is None
        assert injections.join_page_count("r2", predicate, Conjunction()) is None
        injections.inject_join_page_count("r2", predicate, Conjunction(), 120.0)
        assert injections.join_page_count("r2", predicate, narrow) is None
        assert injections.join_page_count("r2", predicate, wide) == 90.0

    def test_fingerprint_differs_when_only_the_outer_filter_differs(self):
        predicate = JoinEquality("r1", "a", "r2", "b")
        fingerprints = set()
        for cut in (200, 400):
            injections = InjectionSet()
            injections.inject_join_page_count(
                "r2", predicate, conjunction_of(Comparison("a", "<", cut)), 9.0
            )
            fingerprints.add(injections.fingerprint())
        assert len(fingerprints) == 2

    def test_negative_values_rejected(self):
        injections = InjectionSet()
        expr = conjunction_of(Comparison("a", "<", 1))
        with pytest.raises(ValueError):
            injections.inject_cardinality("t", expr, -1)
        with pytest.raises(ValueError):
            injections.inject_access_page_count("t", expr, -1)
        with pytest.raises(ValueError):
            injections.inject_page_count_by_key("k", -1)

    def test_copy_is_independent(self):
        injections = InjectionSet()
        expr = conjunction_of(Comparison("a", "<", 1))
        injections.inject_cardinality("t", expr, 1.0)
        duplicate = injections.copy()
        duplicate.inject_cardinality("t", expr, 2.0)
        assert injections.cardinality("t", expr) == 1.0

    def test_key_formats_stable(self):
        expr = conjunction_of(Comparison("a", "<", 1))
        assert cardinality_key("t", expr) == "CARD(t, a < 1)"
        assert access_dpc_key("t", expr) == "DPC(t, a < 1)"
        join = JoinEquality("s", "x", "t", "y")
        assert join_dpc_key("t", join, Conjunction()) == "DPC(t, s.x = t.y)"
        assert join_dpc_key("t", join, expr) == "DPC(t, s.x = t.y | a < 1)"


class TestCardinalityEstimator:
    def test_injection_overrides_histogram(self, synthetic_db):
        injections = InjectionSet()
        expr = conjunction_of(Comparison("c2", "<", 1000))
        injections.inject_cardinality("t", expr, 123.0)
        estimator = CardinalityEstimator(synthetic_db, injections)
        assert estimator.estimate_selection("t", expr) == 123.0

    def test_histogram_estimate_close(self, synthetic_db):
        estimator = CardinalityEstimator(synthetic_db)
        expr = conjunction_of(Comparison("c2", "<", 1000))
        assert estimator.estimate_selection("t", expr) == pytest.approx(1000, rel=0.1)

    def test_join_estimate_pk_fk_like(self, synthetic_db):
        estimator = CardinalityEstimator(synthetic_db)
        predicate = JoinEquality("t", "c2", "t", "c2")
        # Self-join on a unique column: |σ| x |T| / N = |σ|.
        estimate = estimator.estimate_join(
            predicate, conjunction_of(Comparison("c1", "<", 500)), Conjunction()
        )
        assert estimate == pytest.approx(500, rel=0.15)

    def test_selectivity_bounded(self, synthetic_db):
        estimator = CardinalityEstimator(synthetic_db)
        sel = estimator.estimate_selectivity(
            "t", conjunction_of(Comparison("c2", "<", 10**9))
        )
        assert sel == 1.0

    def test_distinct_values_bounded_by_qualifying(self, synthetic_db):
        estimator = CardinalityEstimator(synthetic_db)
        expr = conjunction_of(Comparison("c2", "<", 100))
        distinct = estimator.estimate_distinct_values("t", "c2", expr)
        assert 1.0 <= distinct <= 110
