"""Tests for the IN-list seek access path (executor + optimizer + monitor)."""

import pytest

from repro.core.dpc import exact_dpc
from repro.core.planner import MonitorConfig, build_executable
from repro.core.requests import AccessPathRequest, Mechanism
from repro.exec import IndexInListSeekFetch, execute
from repro.optimizer import (
    InjectionSet,
    InListSeekPlan,
    Optimizer,
    PlanHint,
    SingleTableQuery,
)
from repro.sql import Comparison, Conjunction, InList, conjunction_of, parse_query

from tests.conftest import make_tiny_table


def in_query(values=(5, 99, 250), residual=None):
    terms = [InList("c2", list(values))]
    if residual is not None:
        terms.append(residual)
    return SingleTableQuery("t", Conjunction(tuple(terms)), "padding")


class TestOperator:
    def test_matches_bruteforce(self):
        database, table, rows = make_tiny_table(num_rows=800, seed=51)
        operator = IndexInListSeekFetch(
            table, "ix_v", values=(3, 77, 400), residual=Conjunction()
        )
        result = execute(operator, database)
        expected = sorted(r for r in rows if r[1] in (3, 77, 400))
        assert sorted(result.rows) == expected

    def test_duplicate_values_deduplicated(self):
        database, table, rows = make_tiny_table(num_rows=300, seed=52)
        operator = IndexInListSeekFetch(
            table, "ix_v", values=(7, 7, 7), residual=Conjunction()
        )
        result = execute(operator, database)
        assert len(result.rows) == sum(1 for r in rows if r[1] == 7)

    def test_residual_applied(self):
        database, table, rows = make_tiny_table(num_rows=800, seed=53)
        operator = IndexInListSeekFetch(
            table,
            "ix_v",
            values=tuple(range(50)),
            residual=conjunction_of(Comparison("k", "<", 300)),
        )
        result = execute(operator, database)
        expected = sorted(r for r in rows if r[1] < 50 and r[0] < 300)
        assert sorted(result.rows) == expected

    def test_missing_values_ignored(self):
        database, table, _rows = make_tiny_table(num_rows=100, seed=54)
        operator = IndexInListSeekFetch(
            table, "ix_v", values=(10**9,), residual=Conjunction()
        )
        assert execute(operator, database).rows == []


class TestOptimizer:
    def test_enumerated_for_in_terms(self, synthetic_db):
        query = in_query()
        candidates = Optimizer(synthetic_db).candidates(query)
        in_plans = [
            p.child for p in candidates if isinstance(p.child, InListSeekPlan)
        ]
        assert len(in_plans) == 1
        assert in_plans[0].index_name == "ix_c2"

    def test_small_in_list_beats_scan(self, synthetic_db):
        """A 3-value IN list touches <= 3 pages: the seek should win even
        under the analytical model (DPC estimate ~= 3 is already small)."""
        plan = Optimizer(synthetic_db).optimize(in_query())
        assert isinstance(plan.child, InListSeekPlan)

    def test_results_match_scan(self, synthetic_db):
        query = in_query(values=(5, 99, 250, 7777))
        seek_plan = Optimizer(synthetic_db, hint=PlanHint("in_list_seek")).optimize(query)
        scan_plan = Optimizer(synthetic_db, hint=PlanHint("table_scan")).optimize(query)
        seek = execute(build_executable(seek_plan, synthetic_db).root, synthetic_db)
        scan = execute(build_executable(scan_plan, synthetic_db).root, synthetic_db)
        assert seek.scalar() == scan.scalar() == 4

    def test_injection_overrides(self, synthetic_db):
        query = in_query()
        injections = InjectionSet()
        injections.inject_access_page_count(
            "t", conjunction_of(query.predicate.terms[0]), 12345.0
        )
        candidates = Optimizer(synthetic_db, injections=injections).candidates(query)
        plan = next(
            p.child for p in candidates if isinstance(p.child, InListSeekPlan)
        )
        assert plan.dpc_source == "injected"

    def test_hint_kind(self, synthetic_db):
        from repro.core.diagnostics import hint_for_plan

        plan = Optimizer(synthetic_db, hint=PlanHint("in_list_seek")).optimize(
            in_query()
        )
        assert hint_for_plan(plan).kind == "in_list_seek"

    def test_parsed_in_query_runs(self, synthetic_db):
        from repro.session import Session

        query = parse_query(
            "SELECT count(padding) FROM t WHERE c2 IN (5, 99, 250)"
        )
        executed = Session(synthetic_db).run(query)
        assert executed.result.scalar() == 3


class TestMonitoring:
    def test_in_term_request_answerable_on_in_seek(self, synthetic_db):
        query = in_query(values=tuple(range(0, 2000, 10)))
        request = AccessPathRequest(
            "t", conjunction_of(query.predicate.terms[0])
        )
        plan = Optimizer(synthetic_db, hint=PlanHint("in_list_seek")).optimize(query)
        build = build_executable(plan, synthetic_db, [request], MonitorConfig())
        result = execute(build.root, synthetic_db)
        (observation,) = result.runstats.observations
        assert observation.answered
        assert observation.mechanism is Mechanism.LINEAR_COUNTING
        truth = exact_dpc(synthetic_db.table("t"), request.expression)
        assert observation.estimate == pytest.approx(truth, rel=0.2, abs=2)

    def test_foreign_request_unanswerable_on_in_seek(self, synthetic_db):
        query = in_query()
        foreign = AccessPathRequest(
            "t", conjunction_of(Comparison("c5", "<", 500))
        )
        plan = Optimizer(synthetic_db, hint=PlanHint("in_list_seek")).optimize(query)
        build = build_executable(plan, synthetic_db, [foreign], MonitorConfig())
        execute(build.root, synthetic_db)
        (observation,) = build.unanswerable
        assert not observation.answered

    def test_in_request_exact_on_scan(self, synthetic_db):
        """On a Table Scan the IN expression is a prefix -> exact count."""
        query = in_query(values=(5, 99, 250))
        request = AccessPathRequest(
            "t", conjunction_of(query.predicate.terms[0])
        )
        plan = Optimizer(synthetic_db, hint=PlanHint("table_scan")).optimize(query)
        build = build_executable(plan, synthetic_db, [request], MonitorConfig())
        result = execute(build.root, synthetic_db)
        (observation,) = result.runstats.observations
        assert observation.exact
        assert observation.estimate == exact_dpc(
            synthetic_db.table("t"), request.expression
        )
