"""When a batch-mode scan emits column chunks, and that it changes nothing.

The batch drive's payload is a row list everywhere except one
plan-derived case: a ``SeqScan`` with no monitor bundle whose parent
consumes columns (``CountAggregate`` / ``GroupByCountAggregate``) emits
multi-page column chunks.  These tests pin the selection rule — it is a
property of the plan shape, never of an option — and prove row == batch
for every shape on rows, every ``IOContext`` charge, ``pages_touched``,
``predicate_evaluations`` and the read counters, under both vector
backends.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.planner import build_executable
from repro.exec import (
    CountAggregate,
    GroupByCountAggregate,
    HashJoin,
    SeqScan,
    execute,
)
from repro.harness import default_requests
from repro.harness.equivalence import diff_results
from repro.optimizer import JoinQuery, Optimizer, PlanHint, SingleTableQuery
from repro.sql import Comparison, JoinEquality, conjunction_of
from repro.storage.accounting import IOContext

_CHARGES = (
    "charge_random_read",
    "charge_sequential_read",
    "charge_rows",
    "charge_predicates",
    "charge_hashes",
    "charge_bitvector_probes",
    "charge_index_entries",
    "charge_index_descent",
    "charge_monitor_checks",
)


class TallyIO(IOContext):
    """An IOContext that also totals the integer units of every charge."""

    def __init__(self) -> None:
        super().__init__()
        self.units: Counter = Counter()


def _tallying(name):
    charge = getattr(IOContext, name)

    def tally(self, units: int = 1) -> None:
        self.units[name] += units
        charge(self, units)

    return tally


for _name in _CHARGES:
    setattr(TallyIO, _name, _tallying(_name))


def scan_query(column="c5", bound=4_000, count_column="padding"):
    predicate = conjunction_of(
        Comparison(column, "<", bound), Comparison("c3", ">=", 100)
    )
    return SingleTableQuery("t", predicate, count_column)


def join_query():
    return JoinQuery(
        join_predicate=JoinEquality("t1", "c2", "t", "c2"),
        predicates={"t1": conjunction_of(Comparison("c5", "<", 15_000))},
        count_column="t.padding",
    )


def build(database, query, hint, monitored):
    plan = Optimizer(database, hint=PlanHint(hint)).optimize(query)
    requests = default_requests(database, query) if monitored else []
    return build_executable(plan, database, requests).root


def spy_batches(operator):
    """Record the representation of every batch ``operator`` emits."""
    seen: list[bool] = []
    drive = operator.batches

    def recording(ctx):
        for batch in drive(ctx):
            seen.append(batch.is_columnar)
            yield batch

    operator.batches = recording
    return seen


def scans_of(root):
    out, stack = [], [root]
    while stack:
        operator = stack.pop()
        if isinstance(operator, SeqScan):
            out.append(operator)
        stack.extend(operator.children())
    return out


def assert_row_equals_batch(database, make_root):
    """Row == batch on every observable, including per-kind charge totals."""
    results, tallies = {}, {}
    for mode in ("row", "batch"):
        io = TallyIO()
        results[mode] = execute(make_root(), database, io=io, mode=mode)
        tallies[mode] = io.units
    assert not diff_results(results["row"], results["batch"])
    assert tallies["row"] == tallies["batch"]
    assert tallies["row"]["charge_rows"] > 0


# ----------------------------------------------------------------------
# The selection rule
# ----------------------------------------------------------------------
def test_unmonitored_count_scan_receives_column_chunks(synthetic_db, backend):
    root = build(synthetic_db, scan_query(), "table_scan", monitored=False)
    assert isinstance(root, CountAggregate)
    (scan,) = scans_of(root)
    assert scan.bundle is None and scan.parent_consumes_columns
    seen = spy_batches(scan)
    execute(root, synthetic_db, mode="batch")
    assert seen and all(seen)
    # Multi-page chunks: far fewer exchanges than pages.
    assert len(seen) < scan.stats.pages_touched / 4


def test_monitored_count_scan_receives_row_lists(synthetic_db, backend):
    root = build(synthetic_db, scan_query(), "table_scan", monitored=True)
    (scan,) = scans_of(root)
    assert scan.bundle is not None and scan.parent_consumes_columns
    seen = spy_batches(scan)
    result = execute(root, synthetic_db, mode="batch")
    assert seen and not any(seen)
    assert result.runstats.observations


@pytest.mark.parametrize("monitored", [False, True])
def test_hash_join_over_scans_receives_row_lists(join_db, backend, monitored):
    root = build(join_db, join_query(), "hash_join", monitored=monitored)
    join = root.child
    assert isinstance(join, HashJoin)
    scans = scans_of(root)
    assert len(scans) == 2
    assert not any(scan.parent_consumes_columns for scan in scans)
    seen = [spy_batches(scan) for scan in scans]
    execute(root, join_db, mode="batch")
    assert all(batches and not any(batches) for batches in seen)


def test_group_by_over_unmonitored_scan_receives_column_chunks(
    synthetic_db, backend
):
    # No plan node lowers to GroupByCountAggregate; mark the scan the way
    # the planner marks one under CountAggregate.
    scan = SeqScan(
        synthetic_db.table("t"), conjunction_of(Comparison("c5", "<", 4_000))
    )
    scan.parent_consumes_columns = True
    seen = spy_batches(scan)
    execute(GroupByCountAggregate(scan, "c3"), synthetic_db, mode="batch")
    assert seen and all(seen)


def test_unmarked_scan_keeps_row_lists(synthetic_db, backend):
    scan = SeqScan(
        synthetic_db.table("t"), conjunction_of(Comparison("c5", "<", 4_000))
    )
    seen = spy_batches(scan)
    execute(CountAggregate(scan, "padding"), synthetic_db, mode="batch")
    assert seen and not any(seen)


def test_row_mode_never_takes_the_chunk_path(synthetic_db, backend):
    root = build(synthetic_db, scan_query(), "table_scan", monitored=False)
    (scan,) = scans_of(root)
    seen = spy_batches(scan)
    execute(root, synthetic_db, mode="row")
    assert not seen


# ----------------------------------------------------------------------
# Row == batch for those shapes, down to every charge
# ----------------------------------------------------------------------
@pytest.mark.parametrize("monitored", [False, True])
@pytest.mark.parametrize("column", ["c2", "c5"])
@pytest.mark.parametrize("count_column", ["padding", None])
def test_count_scan_row_equals_batch(
    synthetic_db, backend, monitored, column, count_column
):
    query = scan_query(column, count_column=count_column)
    assert_row_equals_batch(
        synthetic_db,
        lambda: build(synthetic_db, query, "table_scan", monitored),
    )


def test_empty_and_all_pass_count_scans_row_equal_batch(synthetic_db, backend):
    for bound in (0, 10**9):
        query = SingleTableQuery(
            "t", conjunction_of(Comparison("c5", "<", bound)), "padding"
        )
        assert_row_equals_batch(
            synthetic_db,
            lambda: build(synthetic_db, query, "table_scan", False),
        )


@pytest.mark.parametrize("monitored", [False, True])
def test_hash_join_row_equals_batch(join_db, backend, monitored):
    assert_row_equals_batch(
        join_db, lambda: build(join_db, join_query(), "hash_join", monitored)
    )


def test_group_by_row_equals_batch(synthetic_db, backend):
    def make_root():
        scan = SeqScan(
            synthetic_db.table("t"),
            conjunction_of(Comparison("c5", "<", 4_000)),
        )
        scan.parent_consumes_columns = True
        return GroupByCountAggregate(scan, "c3")

    assert_row_equals_batch(synthetic_db, make_root)
