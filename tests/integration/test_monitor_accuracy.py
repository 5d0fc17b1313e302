"""Integration: monitored page counts vs. the exact oracle, across every
mechanism and across the correlation spectrum."""

import pytest

from repro.core.dpc import exact_dpc, exact_join_dpc
from repro.core.planner import MonitorConfig, build_executable
from repro.core.requests import AccessPathRequest, JoinMethodRequest
from repro.exec import execute
from repro.optimizer import JoinQuery, Optimizer, PlanHint, SingleTableQuery
from repro.optimizer.pagecount_model import yao_estimate
from repro.sql import Comparison, JoinEquality, conjunction_of


def observe(database, query, requests, hint=None, config=None):
    plan = Optimizer(database, hint=hint).optimize(query)
    build = build_executable(
        plan, database, list(requests), config or MonitorConfig()
    )
    result = execute(build.root, database)
    return {
        o.key: o for o in list(result.runstats.observations) + build.unanswerable
    }


class TestExactMechanisms:
    @pytest.mark.parametrize("column", ["c2", "c3", "c4", "c5"])
    def test_scan_prefix_counting_is_exact(self, synthetic_db, column):
        predicate = conjunction_of(Comparison(column, "<", 1_000))
        query = SingleTableQuery("t", predicate, "padding")
        request = AccessPathRequest("t", predicate)
        observations = observe(
            synthetic_db, query, [request], hint=PlanHint("table_scan")
        )
        truth = exact_dpc(synthetic_db.table("t"), predicate)
        assert observations[request.key()].estimate == truth
        assert observations[request.key()].exact

    def test_dpsample_full_fraction_exact(self, synthetic_db):
        query_predicate = conjunction_of(Comparison("c2", "<", 1_000))
        foreign = conjunction_of(Comparison("c4", "<", 1_000))
        query = SingleTableQuery("t", query_predicate, "padding")
        request = AccessPathRequest("t", foreign)
        observations = observe(
            synthetic_db,
            query,
            [request],
            hint=PlanHint("table_scan"),
            config=MonitorConfig(dpsample_fraction=1.0),
        )
        truth = exact_dpc(synthetic_db.table("t"), foreign)
        assert observations[request.key()].estimate == truth


class TestEstimatingMechanisms:
    def test_linear_counting_close_on_seek_plan(self, synthetic_db):
        predicate = conjunction_of(Comparison("c5", "<", 1_500))
        query = SingleTableQuery("t", predicate, "padding")
        request = AccessPathRequest("t", predicate)
        observations = observe(
            synthetic_db,
            query,
            [request],
            hint=PlanHint("index_seek", index_name="ix_c5"),
        )
        truth = exact_dpc(synthetic_db.table("t"), predicate)
        assert observations[request.key()].estimate == pytest.approx(
            truth, rel=0.15
        )

    def test_dpsample_close_at_half_fraction(self, synthetic_db):
        query_predicate = conjunction_of(Comparison("c2", "<", 4_000))
        foreign = conjunction_of(Comparison("c5", "<", 4_000))
        query = SingleTableQuery("t", query_predicate, "padding")
        request = AccessPathRequest("t", foreign)
        observations = observe(
            synthetic_db,
            query,
            [request],
            hint=PlanHint("table_scan"),
            config=MonitorConfig(dpsample_fraction=0.5),
        )
        truth = exact_dpc(synthetic_db.table("t"), foreign)
        assert observations[request.key()].estimate == pytest.approx(
            truth, rel=0.25
        )

    def test_bitvector_join_count_close(self, join_db):
        query = JoinQuery(
            join_predicate=JoinEquality("t1", "c4", "t", "c4"),
            predicates={"t1": conjunction_of(Comparison("c1", "<", 1_000))},
            count_column="t.padding",
        )
        request = JoinMethodRequest.for_query(query, "t")
        observations = observe(
            join_db,
            query,
            [request],
            hint=PlanHint("hash_join"),
            config=MonitorConfig(dpsample_fraction=1.0),
        )
        truth = exact_join_dpc(
            join_db.table("t"),
            join_db.table("t1"),
            query.join_predicate,
            query.predicates["t1"],
        )
        # Domain-sized identity-mod vector at fraction 1.0: exact.
        assert observations[request.key()].estimate == truth


class TestAnalyticalModelError:
    """The error structure the whole paper is about."""

    def test_yao_overestimates_correlated(self, synthetic_db):
        table = synthetic_db.table("t")
        stats = table.require_statistics()
        predicate = conjunction_of(Comparison("c2", "<", 1_000))
        truth = exact_dpc(table, predicate)
        model = yao_estimate(1_000, stats.row_count, stats.page_count)
        assert model > 15 * truth  # order-of-magnitude overestimate

    def test_yao_accurate_uncorrelated(self, synthetic_db):
        table = synthetic_db.table("t")
        stats = table.require_statistics()
        predicate = conjunction_of(Comparison("c5", "<", 1_000))
        truth = exact_dpc(table, predicate)
        model = yao_estimate(1_000, stats.row_count, stats.page_count)
        assert model == pytest.approx(truth, rel=0.1)

    def test_error_monotone_in_correlation(self, synthetic_db):
        table = synthetic_db.table("t")
        stats = table.require_statistics()
        model = yao_estimate(1_000, stats.row_count, stats.page_count)
        errors = []
        for column in ("c2", "c3", "c4", "c5"):
            predicate = conjunction_of(Comparison(column, "<", 1_000))
            truth = exact_dpc(table, predicate)
            errors.append(model / truth)
        assert errors == sorted(errors, reverse=True)
