"""Tests for the DPC definitions/oracle and the DPSample algorithm."""

import statistics

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import MonitorError
from repro.common.types import PageId
from repro.core.dpc import (
    dpc_bounds,
    exact_dpc,
    exact_join_dpc,
    guarded_ratio,
    satisfies,
)
from repro.core.dpsample import (
    BernoulliPageSampler,
    dpsample,
    dpsample_error_bound,
)
from repro.sql import Comparison, Conjunction, conjunction_of

from tests.conftest import make_tiny_table


@pytest.fixture(scope="module")
def tiny():
    return make_tiny_table(num_rows=1000, seed=3)


class TestOracle:
    def test_satisfies_matches_definition(self, tiny):
        _db, table, rows = tiny
        predicate = conjunction_of(Comparison("v", "<", 40))
        for page_id in table.all_page_ids():
            expected = any(row[1] < 40 for row in table.rows_on_page(page_id))
            assert satisfies(table, page_id, predicate) == expected

    def test_exact_dpc_counts_satisfying_pages(self, tiny):
        _db, table, rows = tiny
        predicate = conjunction_of(Comparison("v", "<", 40))
        expected = sum(
            1
            for page_id in table.all_page_ids()
            if any(row[1] < 40 for row in table.rows_on_page(page_id))
        )
        assert exact_dpc(table, predicate) == expected

    def test_clustered_prefix_is_minimal(self, tiny):
        """k < n on the clustering key touches exactly ceil(n / rows-per-page)."""
        _db, table, _rows = tiny
        capacity = table.data_file.page_capacity
        predicate = conjunction_of(Comparison("k", "<", capacity * 3))
        assert exact_dpc(table, predicate) == 3

    def test_true_predicate_counts_all_pages(self, tiny):
        _db, table, _rows = tiny
        assert exact_dpc(table, Conjunction()) == table.num_pages

    def test_empty_predicate_result(self, tiny):
        _db, table, _rows = tiny
        assert exact_dpc(table, conjunction_of(Comparison("v", "<", -1))) == 0

    def test_bounds_bracket_actual(self, tiny):
        _db, table, rows = tiny
        predicate = conjunction_of(Comparison("v", "<", 100))
        matching = sum(1 for r in rows if r[1] < 100)
        lower, upper = dpc_bounds(
            matching, table.num_rows / table.num_pages, table.num_pages
        )
        actual = exact_dpc(table, predicate)
        assert lower <= actual <= upper

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            dpc_bounds(10, 0, 5)
        with pytest.raises(ValueError):
            dpc_bounds(-1, 10, 5)


class TestGuardedRatio:
    def test_zero_and_empty_estimates_floor_at_one(self):
        assert guarded_ratio(30, 0) == 30.0
        assert guarded_ratio(0, 30) == 30.0
        assert guarded_ratio(0, 0) == 1.0
        assert guarded_ratio(0.25, 0.5) == 1.0
        assert guarded_ratio(30, 0.5) == 30.0

    @settings(max_examples=100, deadline=None)
    @given(
        actual=st.floats(0.0, 1e6, allow_nan=False),
        estimate=st.floats(0.0, 1e6, allow_nan=False),
    )
    def test_symmetric_and_at_least_one(self, actual, estimate):
        ratio = guarded_ratio(actual, estimate)
        assert ratio >= 1.0
        assert ratio == guarded_ratio(estimate, actual)

    def test_over_and_under_estimates_read_the_same(self):
        assert guarded_ratio(10, 40) == guarded_ratio(40, 10) == 4.0


class TestJoinOracle:
    def test_join_dpc_semijoin_semantics(self, join_db):
        from repro.sql.predicates import JoinEquality

        inner = join_db.table("t")
        outer = join_db.table("t1")
        predicate = JoinEquality("t1", "c2", "t", "c2")
        outer_filter = conjunction_of(Comparison("c1", "<", 300))
        dpc = exact_join_dpc(inner, outer, predicate, outer_filter)
        # Manual check: matching inner pages.
        outer_position = outer.schema.position("c2")
        values = {
            row[outer_position]
            for page_id in outer.all_page_ids()
            for row in outer.rows_on_page(page_id)
            if row[0] < 300
        }
        inner_position = inner.schema.position("c2")
        expected = sum(
            1
            for page_id in inner.all_page_ids()
            if any(
                row[inner_position] in values
                for row in inner.rows_on_page(page_id)
            )
        )
        assert dpc == expected

    def test_unfiltered_outer(self, join_db):
        from repro.sql.predicates import JoinEquality

        inner = join_db.table("t")
        outer = join_db.table("t1")
        predicate = JoinEquality("t1", "c2", "t", "c2")
        # Every c2 value joins (permutations are bijections): all pages.
        assert exact_join_dpc(inner, outer, predicate, None) == inner.num_pages


class TestBernoulliSampler:
    def test_fraction_one_selects_everything(self):
        sampler = BernoulliPageSampler(1.0)
        assert all(sampler.sample_page(PageId(i)) for i in range(50))
        assert sampler.pages_sampled == 50

    def test_fraction_validation(self):
        with pytest.raises(MonitorError):
            BernoulliPageSampler(0.0)
        with pytest.raises(MonitorError):
            BernoulliPageSampler(1.5)

    def test_sampling_rate_close_to_fraction(self):
        sampler = BernoulliPageSampler(0.3, seed=5)
        selected = sum(sampler.sample_page(PageId(i)) for i in range(10_000))
        assert selected == pytest.approx(3000, rel=0.1)

    def test_reproducible(self):
        first = [
            BernoulliPageSampler(0.5, seed=9).sample_page(PageId(i))
            for i in range(20)
        ]
        second = [
            BernoulliPageSampler(0.5, seed=9).sample_page(PageId(i))
            for i in range(20)
        ]
        assert first == second


class TestDPSample:
    def pages_of(self, table):
        return [
            (page_id, table.rows_on_page(page_id))
            for page_id in table.all_page_ids()
        ]

    def test_full_fraction_is_exact(self, tiny):
        _db, table, _rows = tiny
        predicate = conjunction_of(Comparison("v", "<", 77))
        estimate = dpsample(
            self.pages_of(table), predicate, table.schema.column_names, fraction=1.0
        )
        assert estimate == exact_dpc(table, predicate)

    def test_unbiased_across_seeds(self, tiny):
        _db, table, _rows = tiny
        predicate = conjunction_of(Comparison("v", "<", 300))
        truth = exact_dpc(table, predicate)
        estimates = [
            dpsample(
                self.pages_of(table),
                predicate,
                table.schema.column_names,
                fraction=0.3,
                seed=seed,
            )
            for seed in range(40)
        ]
        assert statistics.mean(estimates) == pytest.approx(truth, rel=0.12)

    def test_full_evaluation_callback_counts_terms(self, tiny):
        _db, table, _rows = tiny
        predicate = conjunction_of(
            Comparison("v", "<", 300), Comparison("k", "<", 10**9)
        )
        evaluations = []
        dpsample(
            self.pages_of(table),
            predicate,
            table.schema.column_names,
            fraction=1.0,
            on_full_evaluation=evaluations.append,
        )
        assert evaluations and all(e == 2 for e in evaluations)
        assert len(evaluations) == table.num_rows


class TestErrorBound:
    def test_zero_for_full_scan(self):
        assert dpsample_error_bound(100, 1.0) == 0.0

    def test_zero_for_zero_dpc(self):
        assert dpsample_error_bound(0, 0.1) == 0.0

    def test_tighter_with_higher_fraction(self):
        low = dpsample_error_bound(1000, 0.5)
        high = dpsample_error_bound(1000, 0.05)
        assert low < high

    def test_relative_error_shrinks_with_scale(self):
        """The paper's 0.5% max error at 1% sampling needs paper-scale DPCs:
        the bound's relative size falls like 1/sqrt(DPC)."""
        small = dpsample_error_bound(100, 0.01) / 100
        large = dpsample_error_bound(1_000_000, 0.01) / 1_000_000
        assert large < small / 50

    def test_validation(self):
        with pytest.raises(MonitorError):
            dpsample_error_bound(10, 0.0)
        with pytest.raises(MonitorError):
            dpsample_error_bound(10, 0.5, confidence=1.5)
        with pytest.raises(MonitorError):
            dpsample_error_bound(-5, 0.5)


@settings(max_examples=20, deadline=None)
@given(cut=st.integers(0, 1000), fraction=st.sampled_from([0.25, 0.5, 1.0]))
def test_dpsample_within_chernoff_bound(cut, fraction):
    _db, table, _rows = make_tiny_table(num_rows=1000, seed=17)
    predicate = conjunction_of(Comparison("v", "<", cut))
    truth = exact_dpc(table, predicate)
    pages = [
        (page_id, table.rows_on_page(page_id)) for page_id in table.all_page_ids()
    ]
    estimate = dpsample(
        pages, predicate, table.schema.column_names, fraction=fraction, seed=cut
    )
    bound = dpsample_error_bound(truth, fraction, confidence=0.999)
    assert abs(estimate - truth) <= bound + 1e-9
