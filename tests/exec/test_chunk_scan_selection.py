"""When a batch-mode scan emits column chunks, and that it changes nothing.

The batch drive's payload is a row list everywhere except one
plan-derived case: a ``SeqScan`` whose parent consumes columns
(``CountAggregate`` / ``GroupByCountAggregate``) emits multi-page column
chunks — monitored or not: its bundle is fed per-page flags reduced from
the chunk-wide masks.  What is genuinely row- or page-ordered stays on
the page loop: bundles with bit-vector entries, runs under the reopt
watchdog or with resume tracking armed, range scans, and scans feeding
joins.  These tests pin the selection rule — it is a property of the plan
and the run, never of an option — and prove row == batch for every shape
on rows, observations, every ``IOContext`` charge, ``pages_touched``,
``predicate_evaluations``, the sampler's draw counts and the read
counters, under both vector backends.
"""

from __future__ import annotations

from collections import Counter

import pytest

from hypothesis import given, settings, strategies as st

from repro.catalog import ColumnDef, Database, TableSchema
from repro.common.cancellation import CancellationToken
from repro.core.bitvector import BitVectorFilter
from repro.core.planner import MonitorConfig, build_executable
from repro.core.requests import AccessPathRequest, JoinMethodRequest
from repro.exec import (
    ClusteredRangeScan,
    CountAggregate,
    GroupByCountAggregate,
    HashJoin,
    SeqScan,
    execute,
    vector,
)
from repro.exec.base import ExecutionContext
from repro.harness import default_requests
from repro.harness.equivalence import diff_results, observation_fingerprint
from repro.optimizer import JoinQuery, Optimizer, PlanHint, SingleTableQuery
from repro.sql import Comparison, Conjunction, JoinEquality, conjunction_of
from repro.sql.types import SqlType
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


def build(database, query, hint, monitored, requests=None, fraction=None):
    plan = Optimizer(database, hint=PlanHint(hint)).optimize(query)
    if requests is None:
        requests = default_requests(database, query) if monitored else []
    config = MonitorConfig(dpsample_fraction=fraction) if fraction else None
    return build_executable(plan, database, requests, config).root


def scan_requests(kind, query=None):
    """Requests that give the scan of :func:`scan_query` an exact-only,
    a DPSample-only or a mixed bundle (the second term is not a prefix)."""
    first, second = (query or scan_query()).predicate.terms
    exact = [
        AccessPathRequest("t", Conjunction((first,))),
        AccessPathRequest("t", Conjunction((first, second))),
    ]
    sampled = [AccessPathRequest("t", Conjunction((second,)))]
    return {"exact": exact, "dpsample": sampled, "mixed": exact + sampled}[kind]


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


def sampler_draws(root):
    """``(pages_seen, pages_sampled)`` of every scan sampler under ``root``."""
    return [
        (scan.bundle.sampler.pages_seen, scan.bundle.sampler.pages_sampled)
        for scan in scans_of(root)
        if scan.bundle is not None and scan.bundle.sampler is not None
    ]


def assert_row_equals_batch(database, make_root):
    """Row == batch on every observable, including per-kind charge totals."""
    results, tallies, draws = {}, {}, {}
    for mode in ("row", "batch"):
        io = TallyIO()
        root = make_root()
        results[mode] = execute(root, database, io=io, mode=mode)
        tallies[mode] = io.units
        draws[mode] = sampler_draws(root)
    assert not diff_results(results["row"], results["batch"])
    assert tallies["row"] == tallies["batch"]
    assert tallies["row"]["charge_rows"] > 0
    assert draws["row"] == draws["batch"]


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


@pytest.mark.parametrize("kind", ["exact", "dpsample", "mixed"])
def test_monitored_count_scan_receives_column_chunks(synthetic_db, backend, kind):
    root = build(
        synthetic_db, scan_query(), "table_scan", True, scan_requests(kind)
    )
    (scan,) = scans_of(root)
    assert scan.bundle is not None and scan.parent_consumes_columns
    assert scan.bundle.needs_sampler == (kind != "exact")
    seen = spy_batches(scan)
    result = execute(root, synthetic_db, mode="batch")
    assert seen and all(seen)
    assert len(seen) < scan.stats.pages_touched / 4
    assert all(obs.answered for obs in result.runstats.observations)


def monitored_count_scan(database):
    root = build(database, scan_query(), "table_scan", True, scan_requests("mixed"))
    (scan,) = scans_of(root)
    return root, scan


def test_bitvector_bundle_keeps_the_page_loop(synthetic_db, backend):
    # Probe charging stops at the first hit in row order: not a page flag.
    root, scan = monitored_count_scan(synthetic_db)
    bits = BitVectorFilter(1024)
    bits.insert(7)
    scan.bundle.add_bitvector_request(
        JoinMethodRequest("t", JoinEquality("t1", "c2", "t", "c2")),
        scan.table.schema.position("c2"),
        bits,
    )
    assert not scan.bundle.supports_page_flags
    seen = spy_batches(scan)
    execute(root, synthetic_db, mode="batch")
    assert seen and not any(seen)


def test_resume_tracking_keeps_the_page_loop(synthetic_db, backend):
    root, scan = monitored_count_scan(synthetic_db)
    scan.resume_tracking = True
    scan.resume_key_position = scan.table.schema.position("c1")
    seen = spy_batches(scan)
    execute(root, synthetic_db, mode="batch")
    assert seen and not any(seen)
    assert scan.resume_key is not None


def test_watchdog_run_keeps_the_page_loop(synthetic_db, backend):
    class CountingWatchdog:
        checkpoints = 0

        def observe(self, io):
            self.checkpoints += 1

    root, scan = monitored_count_scan(synthetic_db)
    watchdog = CountingWatchdog()
    seen = spy_batches(scan)
    execute(
        root,
        synthetic_db,
        mode="batch",
        cancellation=CancellationToken(),
        watchdog=watchdog,
    )
    assert seen and not any(seen)
    # The watchdog polls progress() page by page.
    assert watchdog.checkpoints == scan.stats.pages_touched


def test_clustered_range_scan_receives_row_lists(synthetic_db, backend):
    query = SingleTableQuery(
        "t", conjunction_of(Comparison("c1", "<", 3_000)), "padding"
    )
    root = build(synthetic_db, query, "clustered_range", monitored=True)
    scan = root.child
    assert isinstance(scan, ClusteredRangeScan) and scan.bundle is not None
    seen = spy_batches(scan)
    execute(root, synthetic_db, mode="batch")
    assert seen and not any(seen)


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


@pytest.mark.parametrize("fraction", [0.1, 0.5, 1.0])
@pytest.mark.parametrize("kind", ["exact", "dpsample", "mixed"])
def test_monitored_count_scan_row_equals_batch(synthetic_db, backend, kind, fraction):
    for column in ("c2", "c5"):
        query = scan_query(column)
        assert_row_equals_batch(
            synthetic_db,
            lambda: build(
                synthetic_db,
                query,
                "table_scan",
                True,
                scan_requests(kind, query),
                fraction,
            ),
        )


def test_empty_and_all_pass_count_scans_row_equal_batch(synthetic_db, backend):
    for bound in (0, 10**9):
        query = SingleTableQuery(
            "t", conjunction_of(Comparison("c5", "<", bound)), "padding"
        )
        for monitored in (False, True):
            assert_row_equals_batch(
                synthetic_db,
                lambda: build(synthetic_db, query, "table_scan", monitored),
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


# ----------------------------------------------------------------------
# The same, over random small tables and chunk widths
# ----------------------------------------------------------------------
def drive(database, root, mode, batch_rows):
    """Run ``root`` under an explicit chunk width; every observable."""
    io = TallyIO()
    database.cold_cache()
    ctx = ExecutionContext(database=database, io=io, batch_rows=batch_rows)
    if mode == "row":
        rows = list(root.rows(ctx))
    else:
        rows = [row for batch in root.batches(ctx) for row in batch.rows]
    root.finalize(ctx)
    (scan,) = scans_of(root)
    return (
        rows,
        [observation_fingerprint(obs) for obs in ctx.observations],
        io.units,
        scan.stats.pages_touched,
        scan.stats.predicate_evaluations,
        scan.stats.actual_rows,
        sampler_draws(root),
    )


@settings(max_examples=40, deadline=None)
@given(
    # Sized first: lists left to themselves stay within a page or two.
    values=st.integers(1, 120).flatmap(
        lambda size: st.lists(
            st.tuples(st.integers(0, 9), st.integers(0, 9)),
            min_size=size,
            max_size=size,
        )
    ),
    fill_factor=st.sampled_from([0.4, 0.75, 1.0]),
    bounds=st.tuples(st.integers(-1, 10), st.integers(-1, 10)),
    kind=st.sampled_from(["exact", "dpsample", "mixed"]),
    fraction=st.sampled_from([0.1, 0.5, 1.0]),
    one_page_chunks=st.booleans(),
    python_backend=st.booleans(),
)
def test_random_tables_row_equals_batch(
    values, fill_factor, bounds, kind, fraction, one_page_chunks, python_backend
):
    # 8 rows to a full page: ragged last pages, part-filled pages, chunks
    # (and whole files) that select nothing.
    database = Database("chunks", buffer_pool_pages=1_000)
    schema = TableSchema(
        "t",
        [
            ColumnDef("a", SqlType.INT),
            ColumnDef("b", SqlType.INT),
            ColumnDef("pad", SqlType.STR, width_bytes=1_000),
        ],
    )
    table = database.load_table(
        schema, [(a, b, "x") for a, b in values], fill_factor=fill_factor
    )
    query = SingleTableQuery(
        "t",
        conjunction_of(
            Comparison("a", "<", bounds[0]), Comparison("b", "<", bounds[1])
        ),
        "pad",
    )
    batch_rows = 1 if one_page_chunks else len(values)

    def run(mode):
        root = build(
            database, query, "table_scan", True, scan_requests(kind, query), fraction
        )
        return drive(database, root, mode, batch_rows)

    if python_backend:
        with vector.use_python_backend():
            row, batch = run("row"), run("batch")
    else:
        row, batch = run("row"), run("batch")
    assert row == batch
    assert batch[3] == table.num_pages
