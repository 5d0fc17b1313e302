"""Serial ≡ sharded on real workload queries (the tentpole's proof).

Drives the full §V-B pipeline — monitored P, merged feedback, plan
correction, unmonitored P' — through one engine *and* through a
scatter-gather fan-out over shard engines, and requires identical rows,
identical merged observations, and an identical reconstructed feedback
view.  Range partitioning is page-aligned, so with full-fraction
sampling the proof is bit-level; hash partitioning still proves rows and
plan agreement but its page geometry legitimately differs.
"""

from __future__ import annotations

import pytest

from repro.core.planner import MonitorConfig
from repro.core.requests import JoinMethodRequest
from repro.engine.engine import Engine, WorkloadItem
from repro.harness import compare_workload, default_requests
from repro.shard import ShardCoordinator
from repro.workloads import (
    build_synthetic_database,
    join_workload,
    single_table_workload,
)


@pytest.fixture(scope="module")
def equivalence_db():
    return build_synthetic_database(num_rows=8_000, seed=5)


#: Every DPSample observation exact, so the whole proof is bit-level.
EXACT = MonitorConfig(dpsample_fraction=1.0)


def compare_sharded(database, workload, num_shards, exec_mode="batch"):
    """One engine against a range-partitioned coordinator, both in
    ``exec_mode``."""
    coordinator = ShardCoordinator(database, num_shards, monitor_config=EXACT)
    serial = Engine(database, monitor_config=EXACT)
    try:
        return compare_workload((serial, exec_mode), (coordinator, exec_mode), workload)
    finally:
        coordinator.shutdown()


@pytest.fixture(scope="module")
def workload(equivalence_db):
    return single_table_workload(
        equivalence_db,
        "t",
        ["c2", "c4"],
        queries_per_column=2,
        selectivity_range=(0.02, 0.10),
        seed=5,
    )


def test_range_sharded_equivalent(equivalence_db, workload):
    report = compare_sharded(equivalence_db, workload, num_shards=4, exec_mode="row")
    assert report.ok, report.render()
    assert report.title == "row≡row on 4 range shards equivalence"


def test_two_shards_equivalent(equivalence_db, workload):
    report = compare_sharded(equivalence_db, workload, num_shards=2)
    assert report.ok, report.render()


def test_batch_mode_sharded_equivalent(equivalence_db, workload):
    report = compare_sharded(equivalence_db, workload, num_shards=4)
    assert report.ok, report.render()


def test_hash_sharded_rows_equivalent(equivalence_db, workload):
    """Hash scatter: same answers, but page geometry is its own truth.

    Re-hashing rows into shards rebuilds the heap files, so exact DPCs
    measured against the sharded deployment differ from the serial ones
    by design — the bit-level observation proof above is range-only.
    Rows (sorted; hash placement drops the global clustering order) must
    still match exactly.
    """
    from repro.session import Session

    coordinator = ShardCoordinator(
        equivalence_db, num_shards=4, strategy="hash"
    )
    try:
        session = coordinator.session()
        for generated in workload:
            serial = Session(equivalence_db).run(generated.query)
            sharded = coordinator.execute(
                WorkloadItem(query=generated.query), session=session
            )
            assert sharded.result.columns == serial.result.columns
            assert sorted(sharded.result.rows) == sorted(serial.result.rows)
    finally:
        coordinator.shutdown(drain=True, timeout=5.0)


@pytest.mark.parametrize("exec_mode", ["row", "batch"])
def test_filtered_join_equivalent_and_filed_under_its_filter(exec_mode):
    """Fig. 8 joins on the clustering key of both tables (range shards
    are then co-partitioned): same rows, and the merged join observation
    is the serial one — keyed by join predicate *and* outer filter."""
    database = build_synthetic_database(num_rows=8_000, seed=5, with_copy=True)
    workload = join_workload(
        database, "t1", "t", ["c1"], queries_per_column=2,
        selectivity_range=(0.02, 0.10), seed=5,
    )
    report = compare_sharded(database, workload, num_shards=2, exec_mode=exec_mode)
    assert report.ok, report.render()

    serial = Engine(database)
    coordinator = ShardCoordinator(database, num_shards=2)
    try:
        for generated in workload:
            item = WorkloadItem(
                query=generated.query,
                requests=tuple(default_requests(database, generated.query)),
                remember=True,
                exec_mode=exec_mode,
            )
            serial.execute(item)
            coordinator.execute(item)
    finally:
        coordinator.shutdown(drain=True, timeout=5.0)
    expected = sorted(
        JoinMethodRequest.for_query(generated.query, "t").key()
        for generated in workload
    )
    assert serial.feedback.keys() == expected
    assert coordinator.feedback.keys() == expected
    assert all(" | c1 < " in key for key in expected)
