"""Tests for clustering ratio and the sampling-based distinct estimators."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.catalog import ColumnDef, Database, TableSchema
from repro.common.errors import MonitorError
from repro.core.ae_estimator import (
    AEEstimator,
    GEEEstimator,
    estimate_distinct_pages_from_sample,
    frequency_profile,
    reservoir_sample,
)
from repro.core.clustering import clustering_ratio, measure_clustering
from repro.core.dpc import exact_dpc
from repro.sql import Comparison, conjunction_of
from repro.sql.types import SqlType


def make_two_column_table(values):
    """Table clustered on position; second column from ``values``."""
    database = Database("cr", buffer_pool_pages=5000)
    schema = TableSchema(
        "t",
        [
            ColumnDef("pos", SqlType.INT),
            ColumnDef("val", SqlType.INT),
            ColumnDef("pad", SqlType.STR, width_bytes=300),
        ],
    )
    rows = [(i, v, "x") for i, v in enumerate(values)]
    return database.load_table(schema, rows, clustered_on=["pos"])


class TestClusteringRatio:
    def test_formula_and_clamps(self):
        assert clustering_ratio(10, 10, 20) == 0.0
        assert clustering_ratio(20, 10, 20) == 1.0
        assert clustering_ratio(15, 10, 20) == 0.5
        assert clustering_ratio(5, 10, 20) == 0.0  # clamp below
        assert clustering_ratio(25, 10, 20) == 1.0  # clamp above
        assert clustering_ratio(5, 10, 10) == 0.0  # degenerate bracket

    def test_correlated_column_near_zero(self):
        table = make_two_column_table(list(range(2000)))
        m = measure_clustering(table, conjunction_of(Comparison("val", "<", 100)))
        assert m.clustering_ratio < 0.1
        assert m.matching_rows == 100

    def test_scattered_column_near_one(self):
        import random

        values = list(range(2000))
        random.Random(4).shuffle(values)
        table = make_two_column_table(values)
        # Keep n well below the page count so birthday collisions do not
        # drag the upper bound away (UB assumes all-distinct pages).
        m = measure_clustering(table, conjunction_of(Comparison("val", "<", 25)))
        assert m.clustering_ratio > 0.7

    def test_measurement_fields_consistent(self):
        table = make_two_column_table(list(range(500)))
        m = measure_clustering(table, conjunction_of(Comparison("val", "<", 50)))
        assert m.lower_bound <= m.actual_pages <= m.upper_bound
        assert m.selectivity == pytest.approx(0.1)
        assert m.actual_pages == exact_dpc(
            table, conjunction_of(Comparison("val", "<", 50))
        )


class TestReservoirSample:
    def test_small_stream_kept_whole(self):
        assert sorted(reservoir_sample(range(5), 10)) == [0, 1, 2, 3, 4]

    def test_size_respected(self):
        assert len(reservoir_sample(range(1000), 32)) == 32

    def test_validation(self):
        with pytest.raises(MonitorError):
            reservoir_sample(range(5), 0)

    def test_roughly_uniform(self):
        hits = [0] * 10
        for seed in range(300):
            for v in reservoir_sample(range(10), 3, seed=seed):
                hits[v] += 1
        assert min(hits) > 40 and max(hits) < 140  # expectation 90 each


class TestDistinctEstimators:
    def test_frequency_profile(self):
        profile = frequency_profile([1, 1, 2, 3, 3, 3])
        assert profile == {2: 1, 1: 1, 3: 1}

    def test_gee_exact_when_sample_is_stream(self):
        estimator = GEEEstimator()
        sample = [1, 2, 2, 3]
        assert estimator.estimate(sample, len(sample)) == 3

    def test_gee_scales_singletons(self):
        estimator = GEEEstimator()
        # 4 singletons from a stream 4x the sample -> sqrt(4) = 2x blow-up.
        assert estimator.estimate([1, 2, 3, 4], 16) == pytest.approx(8.0)

    def test_ae_between_sample_distinct_and_gee(self):
        sample = [1, 1, 2, 3, 4, 5]  # one repeated value dampens blow-up
        stream_length = 600
        gee = GEEEstimator().estimate(sample, stream_length)
        ae = AEEstimator().estimate(sample, stream_length)
        assert len(set(sample)) <= ae <= gee + 1e-9

    def test_validation(self):
        with pytest.raises(MonitorError):
            GEEEstimator().estimate([1, 2, 3], 2)
        with pytest.raises(MonitorError):
            AEEstimator(rare_cutoff=0)
        assert AEEstimator().estimate([], 0) == 0.0

    def test_end_to_end_page_stream(self):
        # 200 distinct pages, visited 20 times each, estimated from a sample.
        stream = [page for page in range(200) for _ in range(20)]
        estimate = estimate_distinct_pages_from_sample(
            stream, sample_size=400, estimator=AEEstimator(), seed=3
        )
        assert estimate == pytest.approx(200, rel=0.5)

    def test_small_stream_short_circuits_to_exact(self):
        stream = [1, 2, 3]
        assert (
            estimate_distinct_pages_from_sample(stream, 10, GEEEstimator()) == 3.0
        )

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(0, 50), min_size=1, max_size=400))
    def test_estimators_bounded_by_stream_extremes(self, stream):
        sample = reservoir_sample(stream, min(50, len(stream)), seed=1)
        for estimator in (GEEEstimator(), AEEstimator()):
            estimate = estimator.estimate(sample, len(stream))
            assert 0 < estimate <= len(stream) + 1e-9
