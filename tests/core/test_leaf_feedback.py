"""Leaf-page feedback for INL joins.

``LEAVES(inner, index, join-pred | outer filter)`` is the number of the
inner index's leaf pages an INL join's probes read.  Two plans measure it
exactly — the INL join from the runs its probes locate, the hash join by
locating its build keys in the probe table's index — and both must equal
:func:`repro.core.dpc.exact_leaf_dpc`.  The count is remembered, served to
the INL costing of the same expression only, refused by the shard merge,
and persisted like every other record.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.catalog import ColumnDef, Database, IndexDef, TableSchema
from repro.common.errors import FeedbackError
from repro.core.dpc import exact_leaf_dpc
from repro.core.feedback import SHARD_LEAF_REASON, FeedbackStore, table_of_key
from repro.core.planner import build_executable
from repro.core.requests import (
    IndexLeafRequest,
    JoinMethodRequest,
    Mechanism,
    PageCountObservation,
)
from repro.engine import Engine, WorkloadItem
from repro.exec import execute
from repro.harness import default_requests
from repro.optimizer import JoinQuery, Optimizer, PlanHint
from repro.optimizer.plans import HashJoinPlan, INLJoinPlan, MergeJoinPlan
from repro.session import Session
from repro.shard import ShardCoordinator
from repro.sql import Comparison, Conjunction, JoinEquality, conjunction_of
from repro.sql.types import SqlType

#: Outer selectivities per join column (``pipeline_join``'s strata).
STRATA = {
    "c2": (0.004, 0.008, 0.012, 0.016, 0.020, 0.025, 0.060, 0.080),
    "c3": (0.010, 0.020, 0.040, 0.080),
    "c4": (0.010, 0.020, 0.040, 0.080),
    "c5": (0.010, 0.020, 0.040, 0.080),
}


def join_query(column: str, cut: int) -> JoinQuery:
    return JoinQuery(
        join_predicate=JoinEquality("t1", column, "t", column),
        predicates={"t1": conjunction_of(Comparison("c1", "<", cut))},
        count_column="t.padding",
    )


def outer_keys(database, column: str, cut: int) -> list:
    t1 = database.table("t1")
    c1, key = t1.schema.position("c1"), t1.schema.position(column)
    return [
        row[key]
        for page_id in t1.all_page_ids()
        for row in t1.rows_on_page(page_id)
        if row[c1] < cut
    ]


def leaf_observation(database, query, hint, mode="batch"):
    plan = Optimizer(database, hint=PlanHint(hint)).optimize(query)
    built = build_executable(plan, database, default_requests(database, query))
    result = execute(built.root, database, mode=mode)
    (observation,) = [
        obs
        for obs in result.runstats.observations
        if isinstance(obs.request, IndexLeafRequest)
    ]
    return observation


# ----------------------------------------------------------------------
# INL side == hash side == oracle
# ----------------------------------------------------------------------
def test_both_joins_measure_the_oracle_count_on_the_strata(join_db):
    for column, targets in STRATA.items():
        index = join_db.table("t").index(f"ix_{column}")
        for target in targets:
            cut = round(target * join_db.table("t1").num_rows)
            query = join_query(column, cut)
            expected = exact_leaf_dpc(index, outer_keys(join_db, column, cut))
            for hint in ("inl_join", "hash_join"):
                observation = leaf_observation(join_db, query, hint)
                assert observation.mechanism is Mechanism.LEAF_BITMAP
                assert observation.exact
                assert observation.estimate == expected, (column, cut, hint)
                assert observation.details == {
                    "leaf_pages": index.num_leaf_pages,
                    "probes": cut,
                }


@settings(max_examples=40, deadline=None)
@given(
    inner_keys=st.lists(st.integers(-3, 40), min_size=1, max_size=120),
    probe_keys=st.lists(st.one_of(st.none(), st.integers(-3, 40)), max_size=40),
    outer_cut=st.integers(0, 40),
)
def test_random_tables_inl_equals_hash_equals_oracle(inner_keys, probe_keys, outer_cut):
    # A wide included column leaves a handful of entries per leaf, so
    # equal-key runs cross leaves and scattered probes skip some.
    database = Database("leaves", buffer_pool_pages=1_000)
    database.load_table(
        TableSchema(
            "t",
            [
                ColumnDef("k", SqlType.INT),
                ColumnDef("pad", SqlType.STR, width_bytes=1_000),
            ],
        ),
        [(key, "x") for key in inner_keys],
        indexes=[IndexDef("ix_k", "t", ("k",), included_columns=("pad",))],
    )
    database.load_table(
        TableSchema("o", [ColumnDef("i", SqlType.INT), ColumnDef("k", SqlType.INT)]),
        list(enumerate(probe_keys)),
        clustered_on=["i"],
    )
    index = database.table("t").index("ix_k")
    assert index.entries_per_page < 10
    query = JoinQuery(
        join_predicate=JoinEquality("o", "k", "t", "k"),
        predicates={"o": conjunction_of(Comparison("i", "<", outer_cut))},
        count_column="t.pad",
    )
    expected = exact_leaf_dpc(index, probe_keys[:outer_cut])

    # The INL join probing ix_k, and the hash join building on the outer.
    plans = [
        plan
        for plan in Optimizer(database).candidates(query)
        if isinstance(plan.children()[0], INLJoinPlan)
        or getattr(plan.children()[0], "build_table", None) == "o"
    ]
    assert [type(plan.children()[0]) for plan in plans] == [HashJoinPlan, INLJoinPlan]

    def observations():
        for plan in plans:
            for mode in ("row", "batch"):
                built = build_executable(
                    plan, database, default_requests(database, query)
                )
                result = execute(built.root, database, mode=mode)
                yield from (
                    obs
                    for obs in result.runstats.observations
                    if obs.key.startswith("LEAVES(")
                )

    measured = list(observations())
    assert len(measured) == 4
    assert {(obs.estimate, obs.exact) for obs in measured} == {(expected, True)}


# ----------------------------------------------------------------------
# What the planner refuses
# ----------------------------------------------------------------------
class TestUnanswerable:
    QUERY = join_query("c3", 400)

    def reasons(self, database, plan, requests):
        built = build_executable(plan, database, requests)
        return {obs.key: obs.reason for obs in built.unanswerable}

    def test_merge_join_says_why(self, join_db):
        plan = Optimizer(join_db, hint=PlanHint("merge_join")).optimize(self.QUERY)
        assert isinstance(plan.children()[0], MergeJoinPlan)
        request = IndexLeafRequest.for_query(self.QUERY, "t", "ix_c3")
        reason = self.reasons(join_db, plan, [request])[request.key()]
        assert "Merge Join reads no index leaves" in reason

    def test_another_outer_filter_is_not_measured(self, join_db):
        plan = Optimizer(join_db, hint=PlanHint("inl_join")).optimize(self.QUERY)
        request = IndexLeafRequest.for_query(join_query("c3", 800), "t", "ix_c3")
        reason = self.reasons(join_db, plan, [request])[request.key()]
        assert "c1 < 400" in reason and "c1 < 800" in reason

    def test_an_inl_join_counts_only_the_index_it_probes(self, join_db):
        plan = Optimizer(join_db, hint=PlanHint("inl_join")).optimize(self.QUERY)
        request = IndexLeafRequest(
            "t", "ix_c4", self.QUERY.join_predicate, self.QUERY.predicates["t1"]
        )
        reason = self.reasons(join_db, plan, [request])[request.key()]
        assert "through ix_c3; it reads no leaves of ix_c4" in reason

    def test_a_hash_join_locates_only_its_build_keys(self, join_db):
        plan = Optimizer(join_db, hint=PlanHint("hash_join")).optimize(self.QUERY)
        assert plan.children()[0].build_table == "t1"
        request = IndexLeafRequest("t1", "ix_c3", self.QUERY.join_predicate)
        reason = self.reasons(join_db, plan, [request])[request.key()]
        assert "builds on t1" in reason


# ----------------------------------------------------------------------
# Remembered, then served to INL costing
# ----------------------------------------------------------------------
def test_remembered_leaves_cost_the_inl_probe(join_db):
    query = join_query("c4", 400)
    engine = Engine(join_db)
    cold = engine.session().optimize(query, hint=PlanHint("inl_join")).children()[0]
    assert cold.leaf_source == "model"
    matched = cold.estimated_rows
    epp = join_db.table("t").index("ix_c4").entries_per_page
    assert cold.estimated_leaf_pages == math.ceil(matched / epp)
    engine.execute(
        WorkloadItem(
            query=query,
            requests=tuple(default_requests(join_db, query)),
            use_feedback=True,
            remember=True,
        )
    )
    key = IndexLeafRequest.for_query(query, "t", "ix_c4").key()
    assert table_of_key(key) == "t"
    record = engine.feedback.record(key)
    expected = exact_leaf_dpc(
        join_db.table("t").index("ix_c4"), outer_keys(join_db, "c4", 400)
    )
    assert record.page_count == expected and record.page_count_exact
    assert record.mechanism == Mechanism.LEAF_BITMAP.value
    warm = engine.session().optimize(
        query, use_feedback=True, hint=PlanHint("inl_join")
    ).children()[0]
    assert (warm.estimated_leaf_pages, warm.leaf_source) == (expected, "injected")
    assert f"leaves≈{expected:g} (injected)" in warm.describe()
    # Each leaf beyond the contiguous guess is one more random read.
    params = join_db.disk_params
    assert warm.estimated_cost_ms - cold.estimated_cost_ms == pytest.approx(
        (expected - cold.estimated_leaf_pages) * params.random_read_ms
        + (warm.estimated_dpc - cold.estimated_dpc) * params.random_read_ms
    )
    # The reversed spelling of the join predicate finds the same count.
    injections = engine.feedback.to_injections()
    outer_filter = query.predicates["t1"]
    for predicate in (query.join_predicate, query.join_predicate.reversed()):
        assert (
            injections.leaf_page_count("t", "ix_c4", predicate, outer_filter)
            == expected
        )
    assert injections.leaf_page_count("t", "ix_c4", query.join_predicate, Conjunction()) is None


def test_four_shards_refuse_to_sum_leaves(join_db):
    query = join_query("c2", 300)
    coordinator = ShardCoordinator(join_db, num_shards=4)
    try:
        outcome = coordinator.execute(
            WorkloadItem(
                query=query,
                requests=tuple(default_requests(join_db, query)),
                use_feedback=True,
                remember=True,
            )
        )
        leaf_key = IndexLeafRequest.for_query(query, "t", "ix_c2").key()
        (leaves,) = [
            obs for obs in outcome.result.runstats.observations if obs.key == leaf_key
        ]
        assert not leaves.answered and leaves.reason == SHARD_LEAF_REASON
        # Each shard did count its own index's leaves; none of it is kept.
        for shard_run in outcome.shard_results:
            (local,) = [
                obs
                for obs in shard_run.result.runstats.observations
                if obs.key == leaf_key
            ]
            assert local.answered and local.exact
        assert coordinator.feedback.keys() == [
            JoinMethodRequest.for_query(query, "t").key()
        ]
    finally:
        coordinator.shutdown(drain=True, timeout=5.0)


# ----------------------------------------------------------------------
# Persistence
# ----------------------------------------------------------------------
PR21_STORE = Path(__file__).parent / "fixtures" / "feedback_store_pr21.json"


@pytest.mark.parametrize(
    "column, hint, cost",
    [
        ("c2", "inl_join", "528.9200000000001"),
        ("c3", "inl_join", "563.9200000000001"),
        ("c3", None, "89.84"),
    ],
)
def test_a_store_without_leaf_records_plans_as_before(join_db, column, hint, cost):
    """The PR 21-era fixture holds no ``LEAVES`` record: the INL costing
    falls back to the contiguous arithmetic, to the bit."""
    store = FeedbackStore.load(PR21_STORE)
    query = JoinQuery(
        join_predicate=JoinEquality("t1", column, "t", column),
        count_column="t.padding",
    )
    plan = Session(join_db, feedback=store).optimize(
        query, use_feedback=True, hint=PlanHint(hint) if hint else None
    )
    assert repr(plan.estimated_cost_ms) == cost
    for candidate in Session(join_db, feedback=store).optimizer(
        use_feedback=True
    ).candidates(query):
        node = candidate.children()[0]
        if isinstance(node, INLJoinPlan) and node.inner_index_name is not None:
            assert node.leaf_source == "model"


def test_a_leaf_record_round_trips():
    request = IndexLeafRequest(
        "t", "ix_c4", JoinEquality("t1", "c4", "t", "c4"),
        conjunction_of(Comparison("c1", "<", 400)),
    )
    store = FeedbackStore()
    store.record_observations(
        [
            PageCountObservation(
                request=request,
                mechanism=Mechanism.LEAF_BITMAP,
                estimate=15.0,
                exact=True,
            )
        ]
    )
    text = store.to_json()
    loaded = FeedbackStore.from_json(text)
    assert loaded.to_json() == text
    assert loaded.keys() == ["LEAVES(t, ix_c4, t1.c4 = t.c4 | c1 < 400)"]
    assert loaded.table_epoch("t") == 1
    record = loaded.record(request.key())
    assert (record.page_count, record.page_count_exact, record.mechanism) == (
        15.0, True, "leaf-bitmap",
    )
    assert (
        loaded.to_injections().leaf_page_count(
            "t", "ix_c4", request.join_predicate, request.outer_filter
        )
        == 15.0
    )
    payload = json.loads(text)
    payload["records"][0]["mechanism"] = "leaf-bitmaps"
    with pytest.raises(FeedbackError, match="mechanism"):
        FeedbackStore.from_json(json.dumps(payload))
