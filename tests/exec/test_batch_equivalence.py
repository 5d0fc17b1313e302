"""Row ≡ batch equivalence on real workload queries.

The batch execution path is a performance optimization only: these tests
drive the full §V-B pipeline (monitored P, feedback, unmonitored P' —
every table and clustered range scan takes the chunk scan)
through :func:`repro.harness.compare_workload`, an engine's row drive
against its batch drive, and require that every observable — rows,
observations, reads, the stats tree, the harvest — is identical.
"""

from __future__ import annotations

import pytest

from repro.core.planner import MonitorConfig
from repro.engine import Engine
from repro.exec.scans import ClusteredRangeScan, _MonitoredScanMixin
from repro.harness import compare_workload
from repro.optimizer import PlanHint, SingleTableQuery
from repro.sql import Comparison, Conjunction, InList, conjunction_of
from repro.storage.btree import BTreeIndex
from repro.storage.heap import DataFile
from repro.workloads import (
    build_synthetic_database,
    join_workload,
    single_table_workload,
)
from repro.workloads.queries import GeneratedQuery, multi_predicate_query


#: Fig. 8's sampling fraction (``run_fig8``'s default monitor config).
FIG8_MONITORS = MonitorConfig(dpsample_fraction=0.3)


def drives(engine):
    """The two sides of row ≡ batch: one engine's row and batch drives."""
    return (engine, "row"), (engine, "batch")


@pytest.fixture(scope="module")
def equivalence_db():
    """8k-row synthetic database with the permuted copy for joins."""
    return build_synthetic_database(num_rows=8_000, seed=0, with_copy=True)


@pytest.fixture
def chunk_scans(monkeypatch):
    """Every ``SeqScan`` and ``ClusteredRangeScan`` the batch drive ran
    while the test runs, in the order their chunk scans started."""
    scans = []
    chunk_drive = _MonitoredScanMixin._scan_chunks

    def counting(self, ctx):
        scans.append(self)
        return chunk_drive(self, ctx)

    monkeypatch.setattr(_MonitoredScanMixin, "_scan_chunks", counting)
    return scans


def test_single_table_workload_row_batch_equivalent(equivalence_db, chunk_scans):
    workload = single_table_workload(
        equivalence_db,
        "t",
        ["c2", "c3", "c4", "c5"],
        queries_per_column=3,
        selectivity_range=(0.01, 0.10),
        seed=0,
    )
    report = compare_workload(*drives(Engine(equivalence_db)), workload)
    assert report.ok, report.render()
    # The proof covers the column-chunk path both ways: the monitored P
    # runs are table scans under the count, and so are several of the
    # unmonitored P' runs.
    assert any(scan.bundle is not None for scan in chunk_scans)
    assert any(scan.bundle is None for scan in chunk_scans)


def test_join_workload_row_batch_equivalent(equivalence_db, chunk_scans):
    workload = join_workload(
        equivalence_db,
        "t",
        "t1",
        ["c2", "c4"],
        queries_per_column=2,
        seed=3,
    )
    report = compare_workload(
        *drives(Engine(equivalence_db, monitor_config=FIG8_MONITORS)), workload
    )
    assert report.ok, report.render()
    # These joins build on the filtered side, so the DPC request (keyed to
    # that side) is unanswerable: their probe scans of t1 hand the join
    # column chunks unmonitored, and the build scans of t row tuples.
    probes = [scan for scan in chunk_scans if scan.parent_consumes_columns]
    builds = [scan for scan in chunk_scans if not scan.parent_consumes_columns]
    assert {scan.table.name for scan in probes} == {"t1"}
    assert all(scan.bundle is None for scan in probes)
    assert {scan.table.name for scan in builds} == {"t"}


def test_fig8_join_workload_row_batch_equivalent(equivalence_db, chunk_scans, backend):
    """Fig. 8's orientation — ``t1.c1 < N AND t1.ci = t.ci``, the request
    on ``t`` — so the monitored P runs probe the bit-vector filter of
    Fig. 5 from the column-chunk scan, on every join column."""
    workload = join_workload(
        equivalence_db,
        "t1",
        "t",
        ["c2", "c3", "c4", "c5"],
        queries_per_column=2,
        seed=3,
    )
    report = compare_workload(
        *drives(Engine(equivalence_db, monitor_config=FIG8_MONITORS)), workload
    )
    assert report.ok, report.render()
    monitored = [
        scan
        for scan in chunk_scans
        if scan.bundle is not None and scan.bundle.bitvector_probes()
    ]
    assert len(monitored) >= len(workload)
    assert {scan.table.name for scan in monitored} == {"t"}
    # The ``t1.c1 < N`` side is a clustered range seek on the same loop.
    assert any(isinstance(scan, ClusteredRangeScan) for scan in chunk_scans)


def _index_plan_workloads(database):
    """``hint kind -> workload`` covering every index plan of §III-A."""
    seeks = single_table_workload(
        database, "t", ["c2", "c3", "c5"], queries_per_column=2,
        selectivity_range=(0.01, 0.10), seed=5,
    )
    in_list = GeneratedQuery(
        SingleTableQuery(
            "t",
            Conjunction((InList("c4", [9, 100, 10, 2_500, 20]), Comparison("c2", "<", 4_000))),
            "padding",
        ),
        column="c4", selectivity=5 / 8_000, label="in-list",
    )
    covered = GeneratedQuery(
        SingleTableQuery("t", conjunction_of(Comparison("c3", "<", 900)), "c3"),
        column="c3", selectivity=900 / 8_000, label="covered",
    )
    return {
        "index_seek": seeks,
        "in_list_seek": [in_list],
        "index_intersection": [
            multi_predicate_query(database, "t", ["c3", "c5"], 0.2, seed=1),
            multi_predicate_query(database, "t", ["c2", "c4", "c5"], 0.3, seed=2),
        ],
        "covering_scan": [covered],
        "inl_join": join_workload(
            database, "t1", "t", ["c2", "c5"], queries_per_column=2, seed=3
        ),
    }


def test_index_plan_workloads_row_batch_equivalent(equivalence_db, backend, monkeypatch):
    """Seek, IN-list, intersection, covering-scan and INL plans, pinned by
    hint, monitored (P) and not (P'): the chunk-at-a-time drive is
    observationally the row loop on both vector backends."""
    chunked: list[str] = []
    chunk_runs, fetch_many = BTreeIndex.chunk_runs, DataFile.fetch_many
    monkeypatch.setattr(
        BTreeIndex,
        "chunk_runs",
        lambda self, ranges, rows: chunked.append(self.name) or chunk_runs(self, ranges, rows),
    )
    monkeypatch.setattr(
        DataFile,
        "fetch_many",
        lambda self, io, pages, slots: chunked.append("intersection")
        or fetch_many(self, io, pages, slots),
    )
    for kind, workload in _index_plan_workloads(equivalence_db).items():
        del chunked[:]
        report = compare_workload(
            *drives(Engine(equivalence_db, monitor_config=FIG8_MONITORS)),
            workload, hint=PlanHint(kind),
        )
        assert report.ok, f"{kind}: {report.render()}"
        # P and P' of every query ran the batch drive of its index plan.
        assert len(chunked) >= 2 * len(workload), kind


def test_single_table_workload_equivalent_python_backend(equivalence_db):
    """The proof must also hold on the pure-Python vector backend (list
    columns / list masks, no NumPy kernels)."""
    from repro.exec import vector

    workload = single_table_workload(
        equivalence_db,
        "t",
        ["c2", "c5"],
        queries_per_column=2,
        selectivity_range=(0.01, 0.10),
        seed=11,
    )
    with vector.use_python_backend():
        report = compare_workload(*drives(Engine(equivalence_db)), workload)
    assert report.ok, report.render()


def test_equivalence_report_renders_per_query(equivalence_db):
    workload = single_table_workload(
        equivalence_db,
        "t",
        ["c2"],
        queries_per_column=1,
        seed=7,
    )
    report = compare_workload(*drives(Engine(equivalence_db)), workload)
    rendered = report.render()
    assert "row≡batch equivalence: 1 queries, 0 mismatched" in rendered
    assert "OK" in rendered
    assert not report.failures()
