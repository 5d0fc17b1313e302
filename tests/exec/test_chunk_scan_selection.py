"""How the one batch scan loop shapes its chunks, and that it changes nothing.

Every batch-mode ``SeqScan`` and ``ClusteredRangeScan`` runs the chunk
scan, monitored or not: its bundle is fed per-page verdicts reduced from
the chunk-wide masks, a flag per expression entry and a (flag, first-hit
offset) per bit-vector entry.  Two things are derived from the plan and
the run, never from an option.  The output: column chunks when the
parent consumes columns (``CountAggregate`` / ``GroupByCountAggregate``,
and ``HashJoin`` on its probe side, for table and clustered range scans
alike), else row tuples of the surviving rows (hash-join build sides,
INL joins, sorts).  The width: multi-page chunks, or one page per chunk
under the reopt watchdog or with resume tracking armed, so checkpoints,
``progress()`` and the resume boundary stay page-granular.  A merge
join still pulls ``rows()`` through its subtree (its partial filter is
filling while it is probed).  The tests prove row == batch for every
shape on rows, observations, every ``IOContext`` charge,
``pages_touched``, ``predicate_evaluations``, the sampler's draw counts,
the filter's own counters and the read counters, under both vector
backends.
"""

from __future__ import annotations

from functools import partial
from itertools import combinations, product

import pytest

from hypothesis import example, given, settings, strategies as st

from repro.catalog import ColumnDef, Database, TableSchema
from repro.common.types import PageId
from repro.common.cancellation import CancellationToken
from repro.core.bitvector import BitVectorFilter, PartialBitVectorFilter
from repro.core.dpc import exact_leaf_dpc
from repro.core.dpsample import BernoulliPageSampler
from repro.core.monitors import ScanMonitorBundle
from repro.core.planner import MonitorConfig, build_executable
from repro.core.requests import AccessPathRequest, JoinMethodRequest, Mechanism
from repro.exec import (
    ClusteredRangeScan,
    CountAggregate,
    GroupByCountAggregate,
    HashJoin,
    INLJoin,
    MergeJoin,
    SeqScan,
    Sort,
    execute,
    vector,
)
from repro.harness import default_requests
from repro.harness.equivalence import diff_results, drive, drive_both, pairwise
from repro.optimizer import JoinQuery, Optimizer, PlanHint, SingleTableQuery
from repro.sql import Comparison, Conjunction, JoinEquality, conjunction_of
from repro.sql.types import SqlType


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


def fig8_join_query(column="c3", outer_rows=1_500, probe_predicate=None):
    """Fig. 8: ``t1.c1 < N AND t1.ci = t.ci`` — a clustered range scan
    builds, a table scan of ``t`` (optionally filtered) probes."""
    predicates = {"t1": conjunction_of(Comparison("c1", "<", outer_rows))}
    if probe_predicate is not None:
        predicates["t"] = conjunction_of(probe_predicate)
    return JoinQuery(
        join_predicate=JoinEquality("t1", column, "t", column),
        predicates=predicates,
        count_column="t.padding",
    )


def fig8_outer_keys(database, column, outer_rows=1_500):
    """``t1.column`` of the rows :func:`fig8_join_query` drives with."""
    t1 = database.table("t1")
    c1, key = t1.schema.position("c1"), t1.schema.position(column)
    return [
        row[key]
        for page_id in t1.all_page_ids()
        for row in t1.rows_on_page(page_id)
        if row[c1] < outer_rows
    ]


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


def spy_chunk_widths(scan):
    """Record the page count of every chunk ``scan`` reads, and hand back
    the ``resume_key`` each chunk found (read before the chunk is
    processed, so it is the boundary of everything processed so far)."""
    widths: list[int] = []
    keys_before: list = []
    read = scan._read_chunks

    def reading(io, rows_per_chunk):
        for chunk in read(io, rows_per_chunk):
            widths.append(chunk[1])
            keys_before.append(scan.resume_key)
            yield chunk

    scan._read_chunks = reading
    return widths, keys_before


def operators_of(root, kind):
    out, stack = [], [root]
    while stack:
        operator = stack.pop()
        if isinstance(operator, kind):
            out.append(operator)
        stack.extend(operator.children())
    return out


def scans_of(root):
    return operators_of(root, SeqScan)


BACKENDS, FRACTIONS = ("numpy", "python"), (0.1, 0.5, 1.0)

#: ``test -> axes``: a test's ids cross every axis but the last, which
#: :func:`sampled` draws per id.
SAMPLED_GRIDS = {
    "monitored_count_scan": dict(
        backend=BACKENDS,
        kind=("exact", "dpsample", "mixed"),
        fraction=FRACTIONS,
        column=("c2", "c5"),
    ),
    "hash_join": dict(backend=BACKENDS, monitored=(False, True), probe=("table", "range")),
    "monitored_fig8_hash_join": dict(
        backend=BACKENDS,
        column=("c2", "c3", "c5"),
        fraction=FRACTIONS,
        probe_predicate=(None, Comparison("c4", "<", 9_000)),
    ),
}


def grid(name):
    """A sampled grid's :func:`pairwise` rows: the full cross of every
    axis but the last, each with one value of the last."""
    axes = SAMPLED_GRIDS[name]
    return pairwise(axes, crossed=len(axes) - 1)


def sampled(name, **case):
    """The last axis's value the grid gives ``case``, one of a test's ids:
    each id runs one value, and every value meets every other axis's."""
    (row,) = [row for row in grid(name) if all(row[k] == v for k, v in case.items())]
    return list(row.values())[-1]


@pytest.mark.parametrize(
    "name", [pytest.param(name, id=f"{name}-{len(grid(name))}-rows") for name in SAMPLED_GRIDS]
)
def test_sampled_grid_meets_every_pair(name):
    axes, rows = SAMPLED_GRIDS[name], grid(name)
    assert rows == grid(name)
    for a, b in combinations(axes, 2):
        assert {(row[a], row[b]) for row in rows} == set(product(axes[a], axes[b]))


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


def with_bitvector_entry(scan, column="c2", values=(7,)):
    """Hand the scan's bundle a semi-join request on ``column`` whose
    filter holds ``values``."""
    bits = BitVectorFilter(1024)
    for value in values:
        bits.insert(value)
    scan.bundle.add_bitvector_request(
        JoinMethodRequest("t", JoinEquality("t1", column, "t", column)),
        scan.table.schema.position(column),
        bits,
    )
    return bits


def test_bitvector_bundle_takes_the_chunk_scan(synthetic_db, backend):
    # "Probe until the first hit" is a first-hit index per page — a
    # segmented min over the chunk-wide hit mask, as a flag is an any.
    root, scan = monitored_count_scan(synthetic_db)
    bits = with_bitvector_entry(scan)
    seen = spy_batches(scan)
    result = execute(root, synthetic_db, mode="batch")
    assert seen and all(seen)
    assert bits.probes > 0
    assert all(obs.answered for obs in result.runstats.observations)


def test_bitvector_count_scan_row_equals_batch(synthetic_db, backend):
    def make_root():
        root, scan = monitored_count_scan(synthetic_db)
        with_bitvector_entry(scan)
        return root

    row, batch = drive_both(synthetic_db, make_root)
    assert not diff_results(row, batch)
    assert batch.physical["units"]["charge_bitvector_probes"] > 0
    (probes, _inserts, _bits), = batch.physical["filter counters"]
    assert probes > 0


def test_resume_tracking_scans_one_page_chunks(synthetic_db, backend):
    root, scan = monitored_count_scan(synthetic_db)
    key_position = scan.table.schema.position("c1")
    scan.resume_tracking = True
    scan.resume_key_position = key_position
    seen = spy_batches(scan)
    widths, keys_before = spy_chunk_widths(scan)
    execute(root, synthetic_db, mode="batch")
    data_file = scan.table.data_file
    # The oracle's page boundaries: the key of each page's last row.
    boundaries = [
        data_file.page(PageId(page)).rows_list()[-1][key_position]
        for page in range(data_file.num_pages)
    ]
    assert seen and all(seen)
    assert widths == [1] * data_file.num_pages == [1] * scan.stats.pages_touched
    # Every stop between two chunks sees the last fully processed page's
    # boundary, and the run ends on the last page's.
    assert keys_before == [None] + boundaries[:-1]
    assert scan.resume_key == boundaries[-1]


def test_watchdog_run_scans_one_page_chunks(synthetic_db, backend):
    class CountingWatchdog:
        checkpoints = 0

        def observe(self, io):
            self.checkpoints += 1

    root, scan = monitored_count_scan(synthetic_db)
    watchdog = CountingWatchdog()
    seen = spy_batches(scan)
    widths, _keys = spy_chunk_widths(scan)
    execute(
        root,
        synthetic_db,
        mode="batch",
        cancellation=CancellationToken(),
        watchdog=watchdog,
    )
    assert seen and all(seen)
    assert widths == [1] * scan.stats.pages_touched
    # The watchdog polls progress() page by page.
    assert watchdog.checkpoints == scan.stats.pages_touched


def clustered_range_query(bound=3_000):
    return SingleTableQuery(
        "t", conjunction_of(Comparison("c1", "<", bound)), "padding"
    )


def test_clustered_range_scan_takes_the_chunk_scan(synthetic_db, backend):
    root = build(synthetic_db, clustered_range_query(), "clustered_range", True)
    scan = root.child
    assert isinstance(scan, ClusteredRangeScan) and scan.bundle is not None
    seen = spy_batches(scan)
    widths, _keys = spy_chunk_widths(scan)
    execute(root, synthetic_db, mode="batch")
    # Multi-page column chunks: the count reads columns, whichever chunk
    # scan is under it.
    assert scan.parent_consumes_columns
    assert seen and all(seen)
    assert sum(widths) == scan.stats.pages_touched
    assert len(widths) < scan.stats.pages_touched / 4
    make = partial(build, synthetic_db, clustered_range_query(), "clustered_range", True)
    assert not diff_results(*drive_both(synthetic_db, make))


@pytest.mark.parametrize("monitored", [False, True])
def test_hash_join_probe_scan_receives_column_chunks(join_db, backend, monitored):
    root = build(join_db, join_query(), "hash_join", monitored=monitored)
    join = root.child
    assert isinstance(join, HashJoin) and isinstance(join.probe, SeqScan)
    assert join.probe.parent_consumes_columns
    assert (join.probe.bundle is not None) == monitored
    assert (join.bitvector is not None) == monitored
    seen = spy_batches(join.probe)
    joined = spy_batches(join)
    execute(root, join_db, mode="batch")
    assert seen and all(seen)
    assert len(seen) < join.probe.stats.pages_touched / 4
    # Only the rows that join are materialised, as row tuples.
    assert joined and not any(joined)


@pytest.mark.parametrize("monitored", [False, True])
def test_hash_join_over_scans_receives_row_lists(join_db, backend, monitored):
    # What still receives row lists around a hash join: the hash table
    # stores every build row as a tuple, so the build-side scan is not
    # marked, whichever scan it is.  A probe side that is a clustered
    # range scan is a chunk scan like a table scan, and is marked.
    probes = []
    for query in (
        join_query(),
        fig8_join_query(),
        fig8_join_query(probe_predicate=Comparison("c1", "<", 12_000)),
    ):
        root = build(join_db, query, "hash_join", monitored=monitored)
        join = root.child
        assert isinstance(join, HashJoin)
        assert not getattr(join.build, "parent_consumes_columns", False)
        assert join.probe.parent_consumes_columns
        probes.append(join.probe)
        seen = spy_batches(join.build), spy_batches(join.probe)
        execute(root, join_db, mode="batch")
        assert seen[0] and not any(seen[0])
        assert seen[1] and all(seen[1])
    # The last query probes with a range scan.
    assert isinstance(probes[-1], ClusteredRangeScan)
    assert (probes[-1].bundle is not None) == monitored


@pytest.mark.parametrize("hint", ["inl_join", "merge_join"])
def test_scans_under_other_joins_receive_row_lists(join_db, backend, hint):
    # INLJoin streams its outer's row lists; MergeJoin's lookahead is row
    # at a time, so it pulls rows() through its Sorts even in batch mode.
    root = build(join_db, join_query(), hint, monitored=True)
    kinds = {"inl_join": INLJoin, "merge_join": (MergeJoin, Sort)}[hint]
    assert operators_of(root, kinds)
    scans = scans_of(root)
    assert scans and not any(scan.parent_consumes_columns for scan in scans)
    seen = [spy_batches(scan) for scan in scans]
    execute(root, join_db, mode="batch")
    assert all(scan.stats.pages_touched for scan in scans)
    assert not any(is_columnar for batches in seen for is_columnar in batches)
    if hint == "inl_join":
        assert all(seen)


def test_partial_filter_merge_join_receives_row_lists(join_db, backend):
    # Both sides pre-sorted on the clustering key: the filter is still
    # filling while the inner scan probes it, which only the row drive
    # (interleaved with the merge) gets right.
    query = JoinQuery(
        join_predicate=JoinEquality("t1", "c1", "t", "c1"),
        predicates={"t1": conjunction_of(Comparison("c5", "<", 15_000))},
        count_column="t.padding",
    )
    root = build(join_db, query, "merge_join", monitored=True)
    join = root.child
    assert isinstance(join, MergeJoin)
    assert isinstance(join.bitvector, PartialBitVectorFilter)
    assert isinstance(join.inner, SeqScan) and join.inner.bundle is not None
    assert not join.inner.parent_consumes_columns
    seen = spy_batches(join.inner)
    result = execute(root, join_db, mode="batch")
    assert join.inner.stats.pages_touched and not any(seen)
    assert join.bitvector.probes > 0
    assert all(obs.answered for obs in result.runstats.observations)
    assert not diff_results(
        *drive_both(join_db, lambda: build(join_db, query, "merge_join", monitored=True))
    )


def test_hash_join_probe_under_watchdog_or_resume_scans_one_page_chunks(
    join_db, backend
):
    class Watchdog:
        checkpoints = 0

        def observe(self, io):
            self.checkpoints += 1

    for arm in ("watchdog", "resume"):
        root = build(join_db, fig8_join_query(), "hash_join", monitored=True)
        probe = root.child.probe
        assert probe.parent_consumes_columns and probe.bundle is not None
        options = {}
        watchdog = Watchdog()
        if arm == "watchdog":
            options = {"cancellation": CancellationToken(), "watchdog": watchdog}
        else:
            probe.resume_tracking = True
            probe.resume_key_position = probe.table.schema.position("c1")
        seen = spy_batches(probe)
        widths, _keys = spy_chunk_widths(probe)
        execute(root, join_db, mode="batch", **options)
        assert seen and all(seen)
        assert widths == [1] * probe.stats.pages_touched == [1] * probe.table.num_pages
        if arm == "watchdog":
            # Build pages plus probe pages: one checkpoint per scanned page.
            build_pages = root.child.build.stats.pages_touched
            assert watchdog.checkpoints == build_pages + probe.stats.pages_touched
        else:
            assert probe.resume_key is not None


def test_hand_built_hash_join_over_unmarked_scans_keeps_row_lists(
    synthetic_db, backend
):
    # No planner, no mark: a row-backed probe batch takes the row loop.
    table = synthetic_db.table("t")
    build_scan = SeqScan(table, conjunction_of(Comparison("c1", "<", 500)))
    probe_scan = SeqScan(table, conjunction_of(Comparison("c5", "<", 4_000)))
    join = HashJoin(build_scan, probe_scan, "c2", "c2", "b", "p")
    seen = [spy_batches(build_scan), spy_batches(probe_scan)]
    result = execute(join, synthetic_db, mode="batch")
    assert all(batches and not any(batches) for batches in seen)
    assert result.rows == execute(
        HashJoin(
            SeqScan(table, conjunction_of(Comparison("c1", "<", 500))),
            SeqScan(table, conjunction_of(Comparison("c5", "<", 4_000))),
            "c2", "c2", "b", "p",
        ),
        synthetic_db,
        mode="row",
    ).rows


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
    row, batch = drive_both(
        synthetic_db, lambda: build(synthetic_db, query, "table_scan", monitored)
    )
    assert not diff_results(row, batch)
    assert row.physical["units"]["charge_rows"] > 0


@pytest.mark.parametrize("fraction", FRACTIONS)
@pytest.mark.parametrize("kind", ["exact", "dpsample", "mixed"])
def test_monitored_count_scan_row_equals_batch(synthetic_db, backend, kind, fraction):
    column = sampled("monitored_count_scan", backend=backend, kind=kind, fraction=fraction)
    query, requests = scan_query(column), scan_requests(kind, scan_query(column))
    make = partial(build, synthetic_db, query, "table_scan", True, requests, fraction)
    assert not diff_results(*drive_both(synthetic_db, make))


def test_empty_and_all_pass_count_scans_row_equal_batch(synthetic_db, backend):
    for bound in (0, 10**9):
        query = SingleTableQuery(
            "t", conjunction_of(Comparison("c5", "<", bound)), "padding"
        )
        for monitored in (False, True):
            make = partial(build, synthetic_db, query, "table_scan", monitored)
            assert not diff_results(*drive_both(synthetic_db, make))


@pytest.mark.parametrize("monitored", [False, True])
def test_hash_join_row_equals_batch(join_db, backend, monitored):
    # Probed by a table scan or by a clustered range scan: both hand the
    # join column chunks.
    range_probe = fig8_join_query(probe_predicate=Comparison("c1", "<", 12_000))
    probed_by = sampled("hash_join", backend=backend, monitored=monitored)
    query = {"table": join_query(), "range": range_probe}[probed_by]
    assert not diff_results(
        *drive_both(join_db, lambda: build(join_db, query, "hash_join", monitored))
    )
    probe = build(join_db, range_probe, "hash_join", monitored).child.probe
    assert isinstance(probe, ClusteredRangeScan) and probe.parent_consumes_columns


@pytest.mark.parametrize("fraction", FRACTIONS)
@pytest.mark.parametrize("column", ["c2", "c3", "c5"])
def test_monitored_fig8_hash_join_row_equals_batch(join_db, backend, column, fraction):
    # The bit-vector request of Fig. 5 on the probe scan's chunk path, at
    # three sampling fractions, with or without a probe-side residual
    # (the scan then hands the join filtered column vectors).
    probe_predicate = sampled(
        "monitored_fig8_hash_join", backend=backend, column=column, fraction=fraction
    )
    query = fig8_join_query(column, probe_predicate=probe_predicate)
    row, batch = drive_both(
        join_db, lambda: build(join_db, query, "hash_join", True, fraction=fraction)
    )
    assert not diff_results(row, batch)
    observation, leaves = [obs for obs in batch.observations if obs.answered]
    assert observation.mechanism is Mechanism.BITVECTOR_DPSAMPLE
    assert 0 < observation.details["filter_fill_ratio"] < 1
    # The build phase located its keys in the probe table's index: the
    # leaves an INL join driven by the same rows would read, exactly.
    assert leaves.mechanism is Mechanism.LEAF_BITMAP and leaves.exact
    assert leaves.estimate == exact_leaf_dpc(
        join_db.table("t").index(f"ix_{column}"),
        fig8_outer_keys(join_db, column),
    )
    units = batch.physical["units"]
    for kind in (
        "charge_hashes",
        "charge_bitvector_probes",
        "charge_rows",
        "charge_monitor_checks",
    ):
        assert units[kind] > 0, kind
    assert (units["charge_predicates"] > 0) == (probe_predicate is not None)


@pytest.mark.parametrize("bits", [64, 997])
def test_narrow_filter_hash_join_row_equals_batch(join_db, backend, bits):
    # A filter far narrower than the key domain: aliased values flag pages
    # that hold no joining row, in both drives alike.  The planner sizes
    # its filters to the key domain, so this one is attached by hand.
    query = fig8_join_query("c5", outer_rows=40)
    plan = Optimizer(join_db, hint=PlanHint("hash_join")).optimize(query)
    join_request, leaf_request = default_requests(join_db, query)

    def make_root():
        root = build_executable(plan, join_db, [leaf_request]).root
        (join,) = operators_of(root, HashJoin)
        join.bitvector = BitVectorFilter(bits)
        probe = join.probe
        probe.bundle = ScanMonitorBundle(
            "t", len(probe.query_conjunction), BernoulliPageSampler(0.5, seed=5)
        )
        probe.bundle.add_bitvector_request(
            join_request, probe.table.schema.position("c5"), join.bitvector
        )
        return root

    row, batch = drive_both(join_db, make_root)
    assert not diff_results(row, batch)
    observation, leaves = [obs for obs in batch.observations if obs.answered]
    assert observation.details["filter_bits"] == bits
    # The leaf bitmap is exact whatever the filter's width.
    assert leaves.estimate == exact_leaf_dpc(
        join_db.table("t").index("ix_c5"), fig8_outer_keys(join_db, "c5", 40)
    )


def test_group_by_row_equals_batch(synthetic_db, backend):
    def make_root():
        scan = SeqScan(
            synthetic_db.table("t"),
            conjunction_of(Comparison("c5", "<", 4_000)),
        )
        scan.parent_consumes_columns = True
        return GroupByCountAggregate(scan, "c3")

    assert not diff_results(*drive_both(synthetic_db, make_root))


# ----------------------------------------------------------------------
# The same, over random small tables and chunk widths
# ----------------------------------------------------------------------
def pages_touched(observables):
    """``pages_touched`` per operator, in pre-order."""
    return [pages for _operator, _rows, pages, _evals in observables.physical["stats"]]


_KEY_BOUND = st.one_of(st.none(), st.integers(-1, 10))

#: Named clustered ranges over 28 rows keyed ``i // 2``, 7 rows to a page:
#: page 0 holds keys 0..3, page 1 keys 3..6, page 2 starts at key 7.
_NAMED_RANGE_ROWS = [(i // 2, i % 10) for i in range(28)]


def _named_range(key_range, kind="mixed", bitvector=True, fraction=0.5):
    return example(
        values=_NAMED_RANGE_ROWS,
        fill_factor=1.0,
        bounds=(5, 6),
        kind=kind,
        fraction=fraction,
        one_page_chunks=False,
        python_backend=False,
        key_range=key_range,
        bitvector=bitvector,
    )


@settings(max_examples=80, deadline=None)
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
    # None: a table scan; else a clustered range seek on ``a``:
    # (low, high, low_inclusive, high_inclusive), either bound open.
    key_range=st.one_of(
        st.none(), st.tuples(_KEY_BOUND, _KEY_BOUND, st.booleans(), st.booleans())
    ),
    bitvector=st.booleans(),
)
# Ends exactly on a page boundary: page 2 is read but yields no row.
@_named_range((None, 7, True, False))
@_named_range((1, 6, False, True), kind="dpsample")
# Empty inside the file, and inverted: only the page holding ``low``.
@_named_range((5, 5, False, True), kind="exact")
@_named_range((9, 2, True, True), bitvector=False)
# Both bounds exclusive, both inclusive, on both sides of a fence.
@_named_range((3, 7, False, False), fraction=1.0)
@_named_range((3, 7, True, True), fraction=0.1)
# Past the last key: nothing is read.
@_named_range((20, None, True, True))
def test_random_tables_row_equals_batch(
    values,
    fill_factor,
    bounds,
    kind,
    fraction,
    one_page_chunks,
    python_backend,
    key_range,
    bitvector,
):
    # 7 rows to a full page: ragged last pages, part-filled pages, chunks
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
        schema,
        [(a, b, "x") for a, b in values],
        clustered_on=None if key_range is None else ["a"],
        fill_factor=fill_factor,
    )
    query = SingleTableQuery(
        "t",
        conjunction_of(
            Comparison("a", "<", bounds[0]), Comparison("b", "<", bounds[1])
        ),
        "pad",
    )
    batch_rows = 1 if one_page_chunks else len(values)

    def make_root():
        if key_range is None:
            requests = scan_requests(kind, query)
            root = build(database, query, "table_scan", True, requests, fraction)
            scan = root.child
        else:
            root = scan = range_scan(table, key_range, bounds, kind, fraction)
        if bitvector:
            with_bitvector_entry(scan, column="b", values=(0, 3, 7))
            if scan.bundle.sampler is None:  # an exact-only plan has none
                scan.bundle.sampler = BernoulliPageSampler(fraction, seed=3)
        return root

    if python_backend:
        with vector.use_python_backend():
            row, batch = drive_both(database, make_root, batch_rows)
    else:
        row, batch = drive_both(database, make_root, batch_rows)
    assert not diff_results(row, batch)
    if key_range is None:
        assert pages_touched(batch) == [0, table.num_pages]  # [Count, SeqScan]
    else:
        capacity = table.data_file.page_capacity
        stored = table.data_file.rows_between(0, table.num_rows)
        in_range = {
            position // capacity
            for position, row in enumerate(stored)
            if _in_key_range(row[0], *key_range)
        }
        assert pages_touched(batch) == [len(in_range)]


def range_scan(table, key_range, bounds, kind, fraction):
    """A monitored clustered range seek on ``a`` with residual ``b < N``:
    an exact entry on the residual, a DPSample entry on ``a < M`` (a
    term only the monitor conjunction holds), or both."""
    low, high, low_inclusive, high_inclusive = key_range
    residual = conjunction_of(Comparison("b", "<", bounds[1]))
    monitored = Conjunction(residual.terms + (Comparison("a", "<", bounds[0]),))
    bundle = ScanMonitorBundle(
        "t", len(residual), sampler=BernoulliPageSampler(fraction, seed=3)
    )
    if kind in ("exact", "mixed"):
        bundle.add_expression_request(
            AccessPathRequest("t", residual), term_indexes=(0,), exact=True
        )
    if kind in ("dpsample", "mixed"):
        bundle.add_expression_request(
            AccessPathRequest("t", Conjunction(monitored.terms[1:])),
            term_indexes=(1,),
            exact=False,
        )
    return ClusteredRangeScan(
        table,
        None if low is None else (low,),
        None if high is None else (high,),
        residual,
        low_inclusive,
        high_inclusive,
        bundle=bundle,
        monitor_conjunction=monitored,
    )


def _in_key_range(key, low, high, low_inclusive, high_inclusive):
    if low is not None and (key < low if low_inclusive else key <= low):
        return False
    return high is None or (key <= high if high_inclusive else key < high)


# ----------------------------------------------------------------------
# Hash joins over random small inputs: the probe on the chunk path
# ----------------------------------------------------------------------
_JOIN_SCHEMA_COLUMNS = [
    ColumnDef("k", SqlType.INT),
    ColumnDef("s", SqlType.STR),
    ColumnDef("f", SqlType.INT),
    ColumnDef("pad", SqlType.STR, width_bytes=1_000),
]

# NULL keys on either side, duplicates on both, negative ints, a handful
# of strings: small domains so keys collide and repeat.
_JOIN_ROWS = st.tuples(
    st.one_of(st.none(), st.integers(-6, 12)),
    st.one_of(st.none(), st.sampled_from(["a", "b", "c", "d", "e"])),
    st.integers(0, 9),
)


def _sized(rows, largest):
    # Sized first: lists left to themselves stay within a page or two.
    return st.integers(0, largest).flatmap(
        lambda size: st.lists(rows, min_size=size, max_size=size)
    )


@settings(max_examples=60, deadline=None)
@given(
    build_rows=_sized(_JOIN_ROWS, 30),
    probe_rows=_sized(_JOIN_ROWS, 90).filter(bool),
    key=st.sampled_from(["k", "s"]),  # "s" takes the hashed _position branch
    bits=st.sampled_from([3, 8, 1_024]),  # narrower than the key domain
    fraction=st.sampled_from([0.1, 0.5, 1.0]),
    residual=st.one_of(st.none(), st.integers(-1, 10)),
    fill_factor=st.sampled_from([0.45, 1.0]),
    one_page_chunks=st.booleans(),
    python_backend=st.booleans(),
)
def test_random_hash_joins_row_equals_batch(
    build_rows,
    probe_rows,
    key,
    bits,
    fraction,
    residual,
    fill_factor,
    one_page_chunks,
    python_backend,
):
    # 7 rows to a full page, 3 at the lower fill factor: ragged last
    # pages, all-NULL pages, pages and whole files in which nothing joins.
    database = Database("joins", buffer_pool_pages=1_000)
    tables = {
        name: database.load_table(
            TableSchema(name, _JOIN_SCHEMA_COLUMNS),
            [(*row, "x") for row in rows],
            fill_factor=fill_factor,
            build_stats=False,
        )
        for name, rows in (("b", build_rows), ("p", probe_rows))
    }
    probe_predicate = (
        Conjunction(())
        if residual is None
        else conjunction_of(Comparison("f", "<", residual))
    )
    batch_rows = 1 if one_page_chunks else len(probe_rows)

    def run(mode):
        bitvector = BitVectorFilter(bits, seed=1)
        bundle = ScanMonitorBundle(
            "p", len(probe_predicate), sampler=BernoulliPageSampler(fraction, seed=3)
        )
        bundle.add_bitvector_request(
            JoinMethodRequest("p", JoinEquality("b", key, "p", key)),
            tables["p"].schema.position(key),
            bitvector,
        )
        probe = SeqScan(tables["p"], probe_predicate, bundle=bundle)
        probe.parent_consumes_columns = True  # as the planner marks it
        root = HashJoin(
            SeqScan(tables["b"], Conjunction(())),
            probe,
            key,
            key,
            "b",
            "p",
            bitvector=bitvector,
        )
        chunks = spy_batches(probe)
        outcome = drive(database, lambda: root, mode, batch_rows)
        # Chunks that select nothing are not emitted; none is a row list.
        assert all(chunks) and (mode == "batch" or not chunks)
        return outcome

    if python_backend:
        with vector.use_python_backend():
            row, batch = run("row"), run("batch")
    else:
        row, batch = run("row"), run("batch")
    assert not diff_results(row, batch)
    keyed = {"k": 0, "s": 1}[key]
    build_keys = [r[keyed] for r in build_rows if r[keyed] is not None]
    passing = [r for r in probe_rows if residual is None or r[2] < residual]
    assert len(batch.rows) == sum(build_keys.count(r[keyed]) for r in passing)
    assert pages_touched(batch) == [0, tables["b"].num_pages, tables["p"].num_pages]
    assert batch.physical["units"]["charge_hashes"] == 2 * len(build_keys) + sum(
        1 for r in passing if r[keyed] is not None
    )
