"""Remembered join page counts steer only the statement they measured.

Two gates.  The regret gate replays the ``pipeline_join`` protocol (20
Fig. 8-style statements, one remember pass) and bounds, on the simulated
clock, what the feedback-planned choices cost against the best hinted
alternative.  The aliasing gate remembers statement A and requires
statement B — same join, another outer filter — to be planned exactly as
an empty store plans it, on every deployment that harvests feedback.
"""

from __future__ import annotations

import asyncio
from contextlib import contextmanager
from functools import partial

import pytest

from repro.core.requests import JoinMethodRequest
from repro.engine import Engine, WorkloadItem
from repro.harness.methodology import default_requests
from repro.harness.regret import plan_regret
from repro.optimizer.hints import PlanHint
from repro.optimizer.plans import HashJoinPlan, INLJoinPlan
from repro.service import QueryRequest, QueryService, WorkerPool, WorkerSpec
from repro.shard import ShardCoordinator
from repro.sql.parser import parse_query
from repro.workloads import build_synthetic_database

NUM_ROWS = 20_000
FACTORY_KWARGS = {"num_rows": NUM_ROWS, "seed": 2008, "with_copy": True}

#: Outer selectivities per join column (the benchmark's strata, copied).
STRATA = {
    "c2": (0.004, 0.008, 0.012, 0.016, 0.020, 0.025, 0.060, 0.080),
    "c3": (0.010, 0.020, 0.040, 0.080),
    "c4": (0.010, 0.020, 0.040, 0.080),
    "c5": (0.010, 0.020, 0.040, 0.080),
}


def join_sql(column: str, cut: int) -> str:
    return (
        "SELECT count(t.padding) FROM t1, t "
        f"WHERE t1.c1 < {cut} AND t1.{column} = t.{column}"
    )


@pytest.fixture(scope="module")
def database():
    return build_synthetic_database(**FACTORY_KWARGS)


def test_remembered_join_feedback_leaves_little_regret(database):
    engine = Engine(database)
    statements = [
        (column, round(target * NUM_ROWS))
        for column, targets in STRATA.items()
        for target in targets
    ]
    queries = [parse_query(join_sql(*statement)) for statement in statements]
    requests = [tuple(default_requests(database, query)) for query in queries]
    for query, monitors in zip(queries, requests):
        engine.execute(
            WorkloadItem(
                query=query, requests=monitors, use_feedback=True, remember=True
            )
        )
    # Two records per statement, each under the key of its own filter:
    # the inner's data pages and its index's leaves.
    assert len(engine.feedback) == 2 * len(statements)
    assert sum(key.startswith("LEAVES(") for key in engine.feedback.keys()) == len(
        statements
    )

    regrets = {
        statement: plan_regret(engine, query, monitors)
        for statement, query, monitors in zip(statements, queries, requests)
    }
    chosen_ms = sum(regret.chosen_ms for regret in regrets.values())
    regret_ms = sum(regret.regret_ms for regret in regrets.values())
    # 0.00 %; 1.69 % costing INL leaves as contiguous, 8.48 % under the
    # coarse key.
    assert regret_ms / chosen_ms <= 0.005
    for statement in (("c3", 200), ("c3", 400), ("c4", 200)):
        chosen = regrets[statement].chosen_plan.children()[0]
        assert isinstance(chosen, INLJoinPlan), statement
        assert chosen.dpc_source == "injected"
        assert chosen.leaf_source == "injected"
    # The residual of the contiguous-leaf arithmetic: 15 leaves, not 2.
    assert isinstance(regrets["c4", 400].chosen_plan.children()[0], HashJoinPlan)


# ----------------------------------------------------------------------
# Aliasing, per deployment.  The join is on the clustering key of both
# tables, so range shards are co-partitioned and every topology computes
# the same answer.
# ----------------------------------------------------------------------
STATEMENT_A = join_sql("c1", 200)
STATEMENT_B = join_sql("c1", 1600)


def _remember_in_process(engine, sql):
    query = parse_query(sql)
    engine.execute(
        WorkloadItem(
            query=query,
            requests=tuple(default_requests(engine.database, query)),
            use_feedback=True,
            remember=True,
        )
    )


@contextmanager
def _serial(database):
    engine = Engine(database)
    yield engine, partial(_remember_in_process, engine)


@contextmanager
def _sharded(database):
    coordinator = ShardCoordinator(database, num_shards=2)
    try:
        yield coordinator, partial(_remember_in_process, coordinator)
    finally:
        coordinator.shutdown(drain=True, timeout=5.0)


@contextmanager
def _workers(database):
    engine = Engine(database)
    pool = WorkerPool(
        WorkerSpec("repro.workloads:build_synthetic_database", FACTORY_KWARGS),
        num_workers=2,
        engine=engine,
    )
    service = QueryService(engine, worker_pool=pool)

    def remember(sql):
        response = asyncio.run(
            service.handle(
                QueryRequest(sql=sql, use_feedback=True, remember=True, monitor=True)
            )
        )
        assert response.ok, response.error

    try:
        yield engine, remember
    finally:
        asyncio.run(service.shutdown())
        assert pool.leaked_workers() == []


@pytest.mark.parametrize("topology", [_serial, _sharded, _workers])
def test_remembering_one_filter_does_not_steer_another(database, topology):
    query_a, query_b = parse_query(STATEMENT_A), parse_query(STATEMENT_B)
    own_key = JoinMethodRequest.for_query(query_a, "t").key()
    assert own_key == "DPC(t, t1.c1 = t.c1 | c1 < 200)"

    def plans_of(engine):
        session = engine.session()
        return [
            session.optimize(query_b, use_feedback=True, hint=hint)
            for hint in (None, PlanHint("inl_join", inner_table="t"))
        ]

    expected = plans_of(Engine(database))
    with topology(database) as (engine, remember):
        remember(STATEMENT_A)
        # Every deployment files the count under the same, filtered key...
        assert engine.feedback.keys() == [own_key]
        assert engine.feedback.record(own_key).page_count > 0
        # ...which statement A finds and statement B does not.
        session = engine.session()
        costed_a = session.optimize(
            query_a, use_feedback=True, hint=PlanHint("inl_join", inner_table="t")
        ).children()[0]
        assert costed_a.dpc_source == "injected"
        for plan, reference in zip(plans_of(engine), expected):
            assert plan.render() == reference.render()
        inl = plans_of(engine)[1].children()[0]
        assert isinstance(inl, INLJoinPlan)
        assert inl.dpc_source == "model"
        assert inl.estimated_dpc == expected[1].children()[0].estimated_dpc
