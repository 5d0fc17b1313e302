"""Tests for the analytical DPC models (Yao / Cardenas / Mackert-Lohman)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import EstimationError
from repro.optimizer.estimators import PageCountEstimator
from repro.optimizer.pagecount_model import (
    cardenas_estimate,
    mackert_lohman_estimate,
    yao_estimate,
)
from repro.sql import Comparison, conjunction_of


class TestCardenas:
    def test_zero_rows(self):
        assert cardenas_estimate(0, 100) == 0.0

    def test_one_row_one_page(self):
        assert cardenas_estimate(1, 100) == pytest.approx(1.0)

    def test_saturates_at_page_count(self):
        assert cardenas_estimate(10**6, 100) == pytest.approx(100, rel=0.01)

    def test_validation(self):
        with pytest.raises(EstimationError):
            cardenas_estimate(1, 0)
        with pytest.raises(EstimationError):
            cardenas_estimate(-1, 10)


class TestYao:
    def test_all_rows_touch_all_pages(self):
        assert yao_estimate(10_000, 10_000, 100) == pytest.approx(100)

    def test_single_row(self):
        assert yao_estimate(1, 10_000, 100) == pytest.approx(1.0)

    def test_monotone_in_rows(self):
        previous = 0.0
        for n in range(0, 5000, 250):
            estimate = yao_estimate(n, 10_000, 100)
            assert estimate >= previous
            previous = estimate

    def test_close_to_cardenas_for_large_tables(self):
        yao = yao_estimate(500, 1_000_000, 10_000)
        cardenas = cardenas_estimate(500, 10_000)
        assert yao == pytest.approx(cardenas, rel=0.02)

    def test_below_min_of_rows_and_pages(self):
        estimate = yao_estimate(300, 10_000, 100)
        assert estimate <= min(300, 100)

    def test_fractional_rows_interpolate(self):
        low = yao_estimate(10, 10_000, 100)
        mid = yao_estimate(10.5, 10_000, 100)
        high = yao_estimate(11, 10_000, 100)
        assert low < mid < high
        assert mid == pytest.approx((low + high) / 2, rel=0.01)

    def test_overestimates_correlated_truth(self):
        """The paper's premise: for rows packed in n/k contiguous pages,
        the uniform model can be off by ~k x."""
        total_rows, total_pages = 100_000, 2_000  # k = 50
        n = 1_000  # correlated truth: 20 pages
        estimate = yao_estimate(n, total_rows, total_pages)
        assert estimate > 15 * (n / 50)


class TestMackertLohman:
    def test_piecewise_small(self):
        assert mackert_lohman_estimate(40, 10_000, 100) == pytest.approx(40)

    def test_piecewise_middle_continuous(self):
        pages = 100
        at_half = mackert_lohman_estimate(pages / 2, 10_000, pages)
        just_above = mackert_lohman_estimate(pages / 2 + 1, 10_000, pages)
        assert just_above == pytest.approx(at_half, rel=0.05)

    def test_piecewise_saturation(self):
        assert mackert_lohman_estimate(10_000, 100_000, 100) == 100.0
        boundary = mackert_lohman_estimate(200, 10_000, 100)
        assert boundary == pytest.approx(100, rel=0.01)

    def test_never_exceeds_pages(self):
        for n in (10, 100, 1000, 10_000):
            assert mackert_lohman_estimate(n, 100_000, 100) <= 100.0


class TestEstimatorFallback:
    def test_default_is_yao(self, synthetic_db):
        """A page count nobody injected is Yao's, on the table's geometry."""
        stats = synthetic_db.table("t").require_statistics()
        predicate = conjunction_of(Comparison("c2", "<", 700))
        pages, source = PageCountEstimator(synthetic_db).access_dpc(
            "t", predicate, 50.0
        )
        assert source == "model"
        assert pages == yao_estimate(50.0, stats.row_count, stats.page_count)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(0, 5_000),
    pages=st.integers(1, 500),
    rows_per_page=st.integers(1, 100),
)
def test_all_models_within_sane_bounds(n, pages, rows_per_page):
    total_rows = pages * rows_per_page
    n = min(n, total_rows)
    for estimate in (
        yao_estimate(n, total_rows, pages),
        cardenas_estimate(n, pages),
        mackert_lohman_estimate(n, total_rows, pages),
    ):
        assert 0.0 <= estimate <= pages + 1e-9
        if n > 0:
            assert estimate > 0.0
