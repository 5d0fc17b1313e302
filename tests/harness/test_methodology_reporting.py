"""Tests for the evaluation methodology and the reporting helpers."""

import pytest

from repro.core.planner import MonitorConfig
from repro.core.requests import AccessPathRequest, IndexLeafRequest, JoinMethodRequest
from repro.engine import Engine
from repro.harness.methodology import (
    EvaluationOutcome,
    default_requests,
    evaluate_query,
)
from repro.harness.reporting import format_table, percent, summarize
from repro.optimizer import JoinQuery, SingleTableQuery
from repro.shard import ShardCoordinator
from repro.sql import Comparison, JoinEquality, conjunction_of
from repro.workloads.queries import GeneratedQuery, single_table_workload, join_workload


class TestDefaultRequests:
    def test_per_indexed_term(self, synthetic_db):
        query = SingleTableQuery(
            "t",
            conjunction_of(Comparison("c2", "<", 100), Comparison("c5", "<", 100)),
            "padding",
        )
        requests = default_requests(synthetic_db, query)
        access = [r for r in requests if isinstance(r, AccessPathRequest)]
        assert len(access) == 3  # c2 term, c5 term, conjunction
        keys = {r.key() for r in access}
        assert "DPC(t, c2 < 100)" in keys
        assert "DPC(t, c2 < 100 AND c5 < 100)" in keys

    def test_clustering_key_term_included(self, synthetic_db):
        query = SingleTableQuery(
            "t", conjunction_of(Comparison("c1", "<", 100)), "padding"
        )
        requests = default_requests(synthetic_db, query)
        assert len(requests) == 1

    def test_unindexed_term_skipped(self, synthetic_db):
        query = SingleTableQuery(
            "t", conjunction_of(Comparison("padding", "=", "x")), "padding"
        )
        assert default_requests(synthetic_db, query) == []

    def test_join_requests_per_accessible_inner(self, join_db):
        query = JoinQuery(
            join_predicate=JoinEquality("t1", "c2", "t", "c2"),
            predicates={"t1": conjunction_of(Comparison("c1", "<", 100))},
            count_column="t.padding",
        )
        requests = default_requests(join_db, query)
        # Only t has an index on c2; t1 does not.  The requests name the
        # filter on the side that drives the join (t1), not the inner's:
        # the inner's data pages, then the leaves of its index.
        assert requests == [
            JoinMethodRequest("t", query.join_predicate, query.predicates["t1"]),
            IndexLeafRequest(
                "t", "ix_c2", query.join_predicate, query.predicates["t1"]
            ),
        ]
        assert [request.key() for request in requests] == [
            "DPC(t, t1.c2 = t.c2 | c1 < 100)",
            "LEAVES(t, ix_c2, t1.c2 = t.c2 | c1 < 100)",
        ]
        assert requests[1] == IndexLeafRequest.for_query(query, "t", "ix_c2")

    def test_join_on_clustering_key_both_sides(self, join_db):
        query = JoinQuery(
            join_predicate=JoinEquality("t1", "c1", "t", "c1"),
            count_column="t.padding",
        )
        requests = default_requests(join_db, query)
        assert {r.inner_table for r in requests} == {"t", "t1"}
        assert {r.key() for r in requests} == {
            "DPC(t, t1.c1 = t.c1)", "DPC(t1, t1.c1 = t.c1)"
        }


class TestEvaluateQuery:
    def test_correlated_column_improves(self, synthetic_db):
        (generated,) = single_table_workload(
            synthetic_db, "t", ["c2"], 1, selectivity_range=(0.02, 0.05), seed=2
        )
        outcome = evaluate_query(Engine(synthetic_db), generated)
        assert outcome.plan_changed
        assert outcome.speedup > 0.2
        assert outcome.time_improved_ms < outcome.time_original_ms

    def test_uncorrelated_column_unchanged(self, synthetic_db):
        (generated,) = single_table_workload(
            synthetic_db, "t", ["c5"], 1, selectivity_range=(0.02, 0.05), seed=2
        )
        outcome = evaluate_query(Engine(synthetic_db), generated)
        assert not outcome.plan_changed
        assert outcome.speedup == 0.0

    def test_overhead_small_and_positive(self, synthetic_db):
        (generated,) = single_table_workload(
            synthetic_db, "t", ["c3"], 1, seed=3
        )
        outcome = evaluate_query(Engine(synthetic_db), generated)
        assert 0.0 <= outcome.overhead < 0.05

    def test_join_query_end_to_end(self, join_db):
        (generated,) = join_workload(
            join_db, "t1", "t", ["c2"], 1, selectivity_range=(0.01, 0.02), seed=4
        )
        outcome = evaluate_query(Engine(join_db), generated)
        assert outcome.observations
        assert outcome.original_plan.access_method() == "HashJoinPlan"
        assert outcome.improved_plan.access_method() == "INLJoinPlan"
        assert outcome.speedup > 0.0

    def test_summary_renders(self, synthetic_db):
        (generated,) = single_table_workload(synthetic_db, "t", ["c2"], 1, seed=5)
        outcome = evaluate_query(Engine(synthetic_db), generated)
        text = outcome.summary()
        assert "speedup=" in text and "overhead=" in text

    def test_speedup_guard_on_zero_time(self):
        from repro.optimizer.plans import SeqScanPlan
        from repro.sql import Conjunction

        plan = SeqScanPlan("t", Conjunction())
        outcome = EvaluationOutcome(
            generated=GeneratedQuery(
                query=SingleTableQuery("t", Conjunction()), column="x", selectivity=0
            ),
            original_plan=plan,
            improved_plan=plan,
            time_original_ms=0.0,
            time_monitored_ms=0.0,
            time_improved_ms=0.0,
        )
        assert outcome.speedup == 0.0 and outcome.overhead == 0.0


#: §V-B on a fixed Fig. 6 / Fig. 8 slice, captured at the last commit
#: whose harness forked per topology (``evaluate_query(database, ...)``
#: serial, ``evaluate_query_sharded(coordinator, ...)`` at 4 shards):
#: ``label -> (repr(T), repr(T_monitored), repr(T'))``.  ``join-c2#0``'s
#: T_monitored then rose by the leaf monitor's charge (its hash join
#: locates the 304 build keys in ``ix_c2``): 41.6074 -> 41.6378 serial,
#: 11.1387 -> 11.1691 at 4 shards; T and T' did not move.
PINNED_TIMES = {
    "serial": {
        "c2#0": ("36.34999999999988", "36.54999999999987", "14.212"),
        "c5#0": ("36.23949999999988", "36.43949999999987", "36.23949999999988"),
        "join-c1#0": ("40.79039999999987", "41.664999999999864", "12.623999999999942"),
        "join-c2#0": ("40.74559999999987", "41.63779999999987", "12.9968"),
    },
    "sharded": {
        "c2#0": ("9.475900000000003", "9.526270000000004", "14.212"),
        "c5#0": ("9.132900000000003", "9.183270000000002", "9.132900000000003"),
        "join-c1#0": ("10.923700000000004", "11.196270000000004", "12.623999999999942"),
        "join-c2#0": ("10.878900000000005", "11.169070000000003", "12.9968"),
    },
}
#: ``label -> (P, P')`` signatures — the same on both topologies.
PINNED_PLANS = {
    "c2#0": (
        "Count(padding) | SeqScan(t | c2 < 860)",
        "Count(padding) | IndexSeek(t.ix_c2 | c2 < 860 residual TRUE)",
    ),
    "c5#0": (
        "Count(padding) | SeqScan(t | c5 < 639)",
        "Count(padding) | SeqScan(t | c5 < 639)",
    ),
    "join-c1#0": (
        "Count(t.padding) | HashJoin(build=t1, probe=t | t1.c1 = t.c1) | "
        "ClusteredRangeScan(t1 | c1 < 336 residual TRUE) | SeqScan(t | TRUE)",
        "Count(t.padding) | INLJoin(inner=t via clustered-key | t1.c1 = t.c1) | "
        "ClusteredRangeScan(t1 | c1 < 336 residual TRUE)",
    ),
    "join-c2#0": (
        "Count(t.padding) | HashJoin(build=t1, probe=t | t1.c2 = t.c2) | "
        "ClusteredRangeScan(t1 | c1 < 304 residual TRUE) | SeqScan(t | TRUE)",
        "Count(t.padding) | INLJoin(inner=t via ix_c2 | t1.c2 = t.c2) | "
        "ClusteredRangeScan(t1 | c1 < 304 residual TRUE)",
    ),
}


@pytest.mark.parametrize("topology", ["serial", "sharded"])
def test_no_figure_moved_on_either_topology(topology, synthetic_db, join_db):
    """One ``evaluate_query`` over ``Engine.execute_plan`` reproduces, bit
    for bit, what the two per-topology walks it replaced measured."""

    def engine_over(database, monitor_config=None):
        if topology == "sharded":
            return ShardCoordinator(
                database, num_shards=4, monitor_config=monitor_config
            )
        return Engine(database, monitor_config=monitor_config)

    fig6 = engine_over(synthetic_db)
    fig8 = engine_over(join_db, MonitorConfig(dpsample_fraction=0.3))
    slices = [
        (fig6, generated)
        for generated in single_table_workload(
            synthetic_db, "t", ["c2", "c5"], 1, selectivity_range=(0.02, 0.05), seed=2
        )
    ] + [
        (fig8, generated)
        for generated in join_workload(
            join_db, "t1", "t", ["c1", "c2"], 1, selectivity_range=(0.01, 0.02), seed=4
        )
    ]
    times, plans = {}, {}
    try:
        for engine, generated in slices:
            outcome = evaluate_query(engine, generated)
            times[generated.label] = (
                repr(outcome.time_original_ms),
                repr(outcome.time_monitored_ms),
                repr(outcome.time_improved_ms),
            )
            plans[generated.label] = (
                outcome.original_plan.signature(),
                outcome.improved_plan.signature(),
            )
    finally:
        fig6.shutdown()
        fig8.shutdown()
    assert times == PINNED_TIMES[topology]
    assert plans == PINNED_PLANS


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["alpha", 1.5], ["b", 22]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        assert "alpha" in lines[2]

    def test_format_table_handles_percent_strings(self):
        text = format_table(["p"], [["12.5%"], ["3.0%"]])
        assert "12.5%" in text

    def test_summarize(self):
        stats = summarize([1.0, 2.0, 3.0])
        assert stats["mean"] == 2.0
        assert stats["min"] == 1.0 and stats["max"] == 3.0
        assert stats["stddev"] == pytest.approx(0.8165, rel=0.01)

    def test_summarize_empty(self):
        assert summarize([])["count"] == 0

    def test_percent(self):
        assert percent(0.125) == "12.5%"
