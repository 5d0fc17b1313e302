"""The equivalence check can fail, and its grid sampler covers every pair.

Each negative case runs the one §V-B walk over a three-query workload
with a candidate side whose ``execute_plan`` alters one query's run, and
requires that exactly that query fails.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.planner import MonitorConfig
from repro.engine import Engine
from repro.harness.equivalence import SHARD_INEXACT_RTOL, compare_workload, pairwise
from repro.shard import ShardCoordinator
from repro.workloads import build_synthetic_database, single_table_workload
from repro.workloads.queries import multi_predicate_query


@pytest.fixture(scope="module")
def database():
    return build_synthetic_database(num_rows=4_000, seed=0)


@pytest.fixture(scope="module")
def workload(database):
    """Two one-term statements (an exact count each) and a two-term one
    (a DPSample count of its non-prefix term)."""
    return [
        *single_table_workload(database, "t", ["c2", "c4"], 1, seed=0),
        multi_predicate_query(database, "t", ["c3", "c5"], 0.2, seed=1),
    ]


def altering(wanted, alter):
    """Hand a run's first observation ``wanted`` accepts to ``alter``
    (``None`` drops it); whether there was one."""

    def change(result):
        observations = result.runstats.observations
        for index, observation in enumerate(observations):
            if wanted(observation):
                altered = alter(observation)
                observations[index : index + 1] = [] if altered is None else [altered]
                return True
        return False

    return change


def estimate(change):
    return lambda o: replace(o, estimate=change(o.estimate))


#: ``case -> (sharded candidate, change, index of the failing query,
#: what its mismatch names)``.
CASES = {
    "dropped-observation": (
        False, altering(lambda o: o.answered, lambda o: None), 0, "observations:"
    ),
    "exact-off-by-one-page": (
        False, altering(lambda o: o.exact, estimate(lambda e: e + 1)), 0, "observations[0]:"
    ),
    "rows-out-of-order": (False, lambda result: result.rows.reverse() or True, 0, "rows"),
    "inexact-beyond-tolerance": (
        True,
        altering(
            lambda o: o.answered and not o.exact,
            estimate(lambda e: e * (1 + 2 * SHARD_INEXACT_RTOL)),
        ),
        2,
        "'dpsample'",
    ),
}


@pytest.mark.parametrize("sharded, change, failing, named", CASES.values(), ids=CASES)
def test_walk_reports_the_one_altered_query(
    database, workload, monkeypatch, sharded, change, failing, named
):
    config = MonitorConfig(dpsample_fraction=0.5)
    reference = Engine(database, monitor_config=config)
    candidate = (
        ShardCoordinator(database, num_shards=2, monitor_config=config)
        if sharded
        else Engine(database, monitor_config=config)
    )
    applied = []

    def answering(engine, alter):
        execute_plan = engine.execute_plan

        def run(*args, **kwargs):
            executed = execute_plan(*args, **kwargs)
            # Every plan is a COUNT: a second row lets a candidate return
            # the same rows in another order.
            executed.result.rows.append(("second",))
            if alter(executed.result):
                applied.append(executed.query)
            return executed

        monkeypatch.setattr(engine, "execute_plan", run)

    answering(reference, lambda result: False)
    answering(candidate, lambda result: not applied and change(result))
    try:
        report = compare_workload(
            (reference, "batch" if sharded else "row"), (candidate, "batch"), workload
        )
    finally:
        candidate.shutdown()
    assert len(applied) == 1 and len(report.queries) == 3
    (failure,) = report.failures()
    assert failure.label == workload[failing].label
    assert any(named in mismatch for mismatch in failure.mismatches), failure


@settings(max_examples=60, deadline=None)
@given(sizes=st.lists(st.integers(1, 4), max_size=5), crossed=st.integers(0, 5))
def test_pairwise_covers_every_pair_deterministically(sizes, crossed):
    axes = {f"a{i}": [f"v{i}.{j}" for j in range(n)] for i, n in enumerate(sizes)}
    rows = pairwise(axes, crossed=crossed)
    assert rows == pairwise(axes, crossed=crossed)
    assert all(list(row) == list(axes) for row in rows)
    for a, b in combinations(axes, 2):
        assert {(row[a], row[b]) for row in rows} == set(product(axes[a], axes[b]))
    leading = list(axes)[: max(crossed, 2)]
    assert {tuple(row[name] for name in leading) for row in rows} == set(
        product(*(axes[name] for name in leading))
    )
    assert len(rows) <= len(list(product(*axes.values())))
