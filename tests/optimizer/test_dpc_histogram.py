"""Tests for the §VI histogram-based DPC alternative."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import EstimationError
from repro.core.dpc import exact_dpc
from repro.optimizer import (
    DPCHistogram,
    InjectionSet,
    Optimizer,
    SingleTableQuery,
)
from repro.optimizer.plans import IndexSeekPlan
from repro.sql import Between, Comparison, Conjunction, conjunction_of

from tests.conftest import make_tiny_table


@pytest.fixture(scope="module")
def histograms(synthetic_db):
    table = synthetic_db.table("t")
    return {
        column: DPCHistogram.build(table, column, num_buckets=32)
        for column in ("c2", "c4", "c5")
    }


class TestConstruction:
    def test_boundary_counts_exact(self, synthetic_db, histograms):
        table = synthetic_db.table("t")
        histogram = histograms["c4"]
        for boundary, prefix in zip(
            histogram.boundaries, histogram.prefix_counts
        ):
            truth = exact_dpc(
                table, conjunction_of(Comparison("c4", "<", boundary))
            )
            assert prefix == truth

    def test_suffix_counts_exact(self, synthetic_db, histograms):
        table = synthetic_db.table("t")
        histogram = histograms["c4"]
        for boundary, suffix in zip(
            histogram.boundaries, histogram.suffix_counts
        ):
            truth = exact_dpc(
                table, conjunction_of(Comparison("c4", ">=", boundary))
            )
            assert suffix == truth

    def test_empty_column_rejected(self):
        from repro.catalog import ColumnDef, Database, TableSchema
        from repro.sql.types import SqlType

        database = Database("e")
        schema = TableSchema(
            "t", [ColumnDef("a", SqlType.INT), ColumnDef("b", SqlType.INT)]
        )
        table = database.load_table(schema, [(1, None)])
        with pytest.raises(EstimationError):
            DPCHistogram.build(table, "b")

    def test_misaligned_arrays_rejected(self):
        with pytest.raises(EstimationError):
            DPCHistogram("t", "c", [0, 1], [0], [0], 10)

    def test_bad_bucket_count(self, synthetic_db):
        with pytest.raises(EstimationError):
            DPCHistogram.build(synthetic_db.table("t"), "c2", num_buckets=0)


class TestEstimates:
    def test_range_estimates_track_truth(self, synthetic_db, histograms):
        table = synthetic_db.table("t")
        for column in ("c2", "c4", "c5"):
            histogram = histograms[column]
            for cut in (500, 3_000, 9_000, 15_000):
                predicate = conjunction_of(Comparison(column, "<", cut))
                truth = exact_dpc(table, predicate)
                estimate = histogram.estimate(predicate)
                assert estimate == pytest.approx(truth, rel=0.2, abs=5), (
                    column,
                    cut,
                )

    def test_greater_than_uses_suffix(self, synthetic_db, histograms):
        table = synthetic_db.table("t")
        predicate = conjunction_of(Comparison("c4", ">=", 15_000))
        truth = exact_dpc(table, predicate)
        assert histograms["c4"].estimate(predicate) == pytest.approx(
            truth, rel=0.2, abs=5
        )

    def test_between_within_inclusion_exclusion_bracket(
        self, synthetic_db, histograms
    ):
        histogram = histograms["c4"]
        predicate = conjunction_of(Between("c4", 5_000, 9_000))
        estimate = histogram.estimate(predicate)
        upper = min(histogram.prefix_dpc(9_000), histogram.suffix_dpc(5_000))
        lower = max(
            0.0,
            histogram.prefix_dpc(9_000)
            + histogram.suffix_dpc(5_000)
            - histogram.total_pages,
        )
        assert lower <= estimate <= upper

    def test_unsupported_shapes_return_none(self, histograms):
        histogram = histograms["c4"]
        assert histogram.estimate(conjunction_of(Comparison("zz", "<", 1))) is None
        assert histogram.estimate(Conjunction()) is None
        two = conjunction_of(Comparison("c4", "<", 1), Comparison("c4", ">", 0))
        assert histogram.estimate(two) is None
        assert histogram.estimate(conjunction_of(Comparison("c4", "!=", 1))) is None

    def test_out_of_domain_values(self, histograms):
        histogram = histograms["c4"]
        assert histogram.prefix_dpc(-100) == 0.0
        assert histogram.suffix_dpc(10**9) == 0.0


def histogram_injections(histograms, predicate) -> InjectionSet:
    """The histogram's estimate, fed to the optimizer as an injection."""
    injections = InjectionSet()
    estimate = histograms[predicate.terms[0].column].estimate(predicate)
    injections.inject_access_page_count("t", predicate, estimate)
    return injections


class TestOptimizerIntegration:
    def test_histogram_source_recorded(self, synthetic_db, histograms):
        predicate = conjunction_of(Comparison("c2", "<", 700))
        query = SingleTableQuery("t", predicate, "padding")
        optimizer = Optimizer(
            synthetic_db, injections=histogram_injections(histograms, predicate)
        )
        seek = next(
            p.child
            for p in optimizer.candidates(query)
            if isinstance(p.child, IndexSeekPlan)
        )
        assert seek.dpc_source == "injected"
        assert seek.estimated_dpc == histograms["c2"].estimate(predicate)
        truth = exact_dpc(synthetic_db.table("t"), predicate)
        assert seek.estimated_dpc == pytest.approx(truth, rel=0.25, abs=5)

    def test_histogram_fixes_correlated_plan_choice(
        self, synthetic_db, histograms
    ):
        """With the histogram's estimate injected the optimizer picks the
        Index Seek on c2 without any execution feedback — the static
        trade-off of §VI."""
        predicate = conjunction_of(Comparison("c2", "<", 700))
        query = SingleTableQuery("t", predicate, "padding")
        plan = Optimizer(
            synthetic_db, injections=histogram_injections(histograms, predicate)
        ).optimize(query)
        assert isinstance(plan.child, IndexSeekPlan)


@settings(max_examples=20, deadline=None)
@given(cut=st.integers(0, 1000))
def test_prefix_estimates_bounded_by_pages(cut):
    _db, table, _rows = make_tiny_table(num_rows=1000, seed=23)
    histogram = DPCHistogram.build(table, "v", num_buckets=8)
    estimate = histogram.prefix_dpc(cut)
    assert 0.0 <= estimate <= table.num_pages
    truth = exact_dpc(table, conjunction_of(Comparison("v", "<", cut)))
    # Interpolation error bounded by one bucket's page span.
    spans = [
        abs(b - a)
        for a, b in zip(histogram.prefix_counts, histogram.prefix_counts[1:])
    ]
    assert abs(estimate - truth) <= max(spans) + 1
