"""Index plans a chunk at a time: the batch drive changes nothing.

``IndexSeekFetch``, ``IndexInListSeekFetch``, ``IndexIntersectionFetch``,
``INLJoin`` and ``CoveringIndexScan`` read located leaf ranges in chunks of
``batch_rows`` entries — one buffer-pool access stream, one gather, one
kernel evaluation, one monitor feed per chunk.  These tests prove row ==
batch for each of them on rows (order included), observation
fingerprints, per-kind charge totals, read and eviction counters,
``pages_touched`` / ``actual_rows`` / ``predicate_evaluations``, with a
4-frame buffer pool so the order of the access stream decides what is
evicted, and that a cancelled run stops within one chunk.
"""

from __future__ import annotations

import functools

import pytest

from repro.catalog import ColumnDef, Database, IndexDef, TableSchema
from repro.common.cancellation import CancellationToken
from repro.common.errors import QueryCancelled
from repro.core.dpc import exact_leaf_dpc
from repro.core.monitors import FetchMonitorBundle, LeafPageMonitor
from repro.core.planner import build_executable
from repro.core.requests import (
    AccessPathRequest,
    IndexLeafRequest,
    InstrumentFingerprint,
    Mechanism,
)
from repro.exec import (
    CoveringIndexScan,
    INLJoin,
    IndexInListSeekFetch,
    IndexIntersectionFetch,
    IndexSeekFetch,
    SeekSpec,
    SeqScan,
    vector,
)
from repro.exec.base import ExecutionContext
from repro.harness.equivalence import TallyIO, diff_results, drive, drive_both
from repro.optimizer import Optimizer, PlanHint, SingleTableQuery
from repro.sql import Comparison, Conjunction, InList, JoinEquality, conjunction_of
from repro.sql.types import SqlType
from repro.storage.buffer import BufferPool

NUM_ROWS = 1_500

#: The INL outer's join keys: NULL, non-matching (7, 99) and duplicate
#: (1, 2) keys; 0, 1 and 2 each probe a run of 500 entries.
OUTER_KEYS = [1, None, 7, 2, 1, 99, 0, None, 2]


def make_database(pool_pages: int) -> Database:
    """``f``: a heap with a low-cardinality column ``g`` (equal-key runs of
    500 entries, longer than a leaf), a permutation ``v``, and a nullable
    ``n`` for residuals with NULL truth values; wide rows, so ~100 pages.
    ``c``: the same rows clustered on ``g`` (the INL clustered-key path).
    ``o``: the INL outer — NULL, non-matching and duplicate join keys."""
    database = Database(f"idx{pool_pages}", buffer_pool_pages=pool_pages)
    columns = [
        ColumnDef("k", SqlType.INT),
        ColumnDef("g", SqlType.INT),
        ColumnDef("v", SqlType.INT),
        ColumnDef("n", SqlType.INT),
        ColumnDef("pad", SqlType.STR, width_bytes=500),
    ]
    rows = [
        (k, k % 3, (k * 37) % NUM_ROWS, None if k % 5 == 0 else k % 7, "x")
        for k in range(NUM_ROWS)
    ]
    database.load_table(
        TableSchema("f", columns),
        rows,
        indexes=[
            IndexDef("ix_g", "f", ("g",)),
            IndexDef("ix_v", "f", ("v",)),
            IndexDef("ix_gv", "f", ("g", "v"), included_columns=("n",)),
        ],
    )
    database.load_table(TableSchema("c", columns), rows, clustered_on=["g"])
    outer = list(enumerate(OUTER_KEYS))
    database.load_table(
        TableSchema(
            "o", [ColumnDef("i", SqlType.INT), ColumnDef("j", SqlType.INT)]
        ),
        outer,
    )
    return database


@functools.cache
def database_for(pool_pages: int, backend: str) -> Database:
    """One database per (pool size, vector backend), built under the
    backend it is read under."""
    return make_database(pool_pages)


@pytest.fixture(scope="module", params=[4, 10_000], ids=["pool4", "pool10k"])
def pool(request):
    return request.param


def fetch_bundle(table_name: str, residual: Conjunction) -> FetchMonitorBundle:
    """One request per witness shape: every fetch, the first term, all terms."""
    bundle = FetchMonitorBundle(table_name)
    for width in sorted({0, min(1, len(residual)), len(residual)}):
        bundle.add_request(
            AccessPathRequest(table_name, Conjunction(residual.terms[:width])),
            term_indexes=range(width),
            instrument=InstrumentFingerprint(
                Mechanism.LINEAR_COUNTING, seed=width, bits=256
            ),
        )
    return bundle


#: A residual whose first term is NULL on a fifth of the rows.
RESIDUAL = conjunction_of(Comparison("n", "<", 5), Comparison("k", ">=", 100))


def seek(database, monitored, _full_eval):
    table = database.table("f")
    return IndexSeekFetch(
        table, "ix_v", low=(40,), high=(700,), residual=RESIDUAL,
        low_inclusive=False,
        bundle=fetch_bundle("f", RESIDUAL) if monitored else None,
    )


def long_run_seek(database, monitored, _full_eval):
    """One key's 500 entries: an equal-key run that spans leaves."""
    table = database.table("f")
    assert table.index("ix_g").entries_per_page < NUM_ROWS // 3
    return IndexSeekFetch(
        table, "ix_g", low=(1,), high=(1,), residual=RESIDUAL,
        bundle=fetch_bundle("f", RESIDUAL) if monitored else None,
    )


def in_list(database, monitored, _full_eval):
    return IndexInListSeekFetch(
        database.table("f"), "ix_v",
        values=(9, 1400, 10, 100, 20, 5000, *range(300, 1300, 20)),
        residual=RESIDUAL,
        bundle=fetch_bundle("f", RESIDUAL) if monitored else None,
    )


def intersection(database, monitored, _full_eval):
    return IndexIntersectionFetch(
        database.table("f"),
        [SeekSpec("ix_g", (2,), (2,)), SeekSpec("ix_v", None, (900,), True, False)],
        residual=RESIDUAL,
        bundle=fetch_bundle("f", RESIDUAL) if monitored else None,
    )


def covering(database, monitored, full_eval):
    query = conjunction_of(Comparison("v", "<", 1_000))
    monitor = conjunction_of(Comparison("v", "<", 1_000), Comparison("n", "<", 3))
    return CoveringIndexScan(
        database.table("f"), "ix_gv", query,
        bundle=fetch_bundle("f", monitor) if monitored else None,
        monitor_conjunction=monitor if monitored else None,
        monitor_full_eval=full_eval,
    )


def inl(inner_table, inner_index):
    def make(database, monitored, _full_eval):
        inner = database.table(inner_table)
        leaf_monitor = None
        if monitored and inner_index is not None:
            leaf_monitor = LeafPageMonitor(
                inner.index(inner_index),
                [IndexLeafRequest(inner_table, inner_index, INL_JOIN)],
            )
        return INLJoin(
            SeqScan(database.table("o"), Conjunction()), "j", inner, "g", RESIDUAL,
            inner_index_name=inner_index,
            bundle=fetch_bundle(inner_table, RESIDUAL) if monitored else None,
            leaf_monitor=leaf_monitor,
        )

    return make


INL_JOIN = JoinEquality("o", "j", "f", "g")

#: ``name -> make(database, monitored, full_eval)``.  Only the covering
#: scan has a full-evaluation mode (it reads every entry); the fetch
#: streams evaluate their residual short-circuited, so they and the INL
#: inner take the flag and ignore it.
OPERATORS = {
    "seek": seek,
    "long_run_seek": long_run_seek,
    "in_list": in_list,
    "intersection": intersection,
    "covering": covering,
    "inl_index": inl("f", "ix_g"),
    "inl_clustered": inl("c", None),
}


@functools.cache
def row_and_batch(pool_pages, backend, name, monitored, full_eval, batch_rows):
    """A grid case in both drives: the mismatches, what the grid asserts
    of the row run, and both runs' leaf counts."""
    database = database_for(pool_pages, backend)
    make = functools.partial(OPERATORS[name], database, monitored, full_eval)
    row, batch = drive_both(database, make, batch_rows)
    return {
        "mismatches": diff_results(row, batch),
        "rows": len(row.rows),
        "charged rows": row.physical["units"]["charge_rows"],
        "observations": len(row.observations),
        "evictions": row.physical["evictions"],
        "leaves": [
            [o for o in run.observations if o.mechanism is Mechanism.LEAF_BITMAP]
            for run in (row, batch)
        ],
    }


@pytest.mark.parametrize("batch_rows", [1, 7, 1024])
@pytest.mark.parametrize("monitored, full_eval", [(False, False), (True, False), (True, True)])
@pytest.mark.parametrize("name", sorted(OPERATORS))
def test_row_equals_batch(pool, backend, name, monitored, full_eval, batch_rows):
    # Only the covering scan reads ``full_eval``: every other operator's
    # (monitored, full evaluation) case is its monitored one, drives shared.
    full_eval = full_eval and name == "covering"
    outcome = row_and_batch(pool, backend, name, monitored, full_eval, batch_rows)
    assert not outcome["mismatches"]
    assert outcome["rows"] and outcome["charged rows"] > outcome["rows"]
    assert bool(outcome["observations"]) == monitored
    if pool == 4:
        assert outcome["evictions"] > 0  # the stream's order decided them


@pytest.mark.parametrize("batch_rows", [1, 7, 1024])
def test_inl_leaf_count_is_the_oracle_count(pool, backend, batch_rows):
    """Probes of 0, 1 and 2 are runs of 500 entries, each over several
    leaves and together the whole index; NULL and 7/99 probes read none.
    Read off the grid's monitored INL case, in both drives."""
    index = database_for(pool, backend).table("f").index("ix_g")
    expected = exact_leaf_dpc(index, OUTER_KEYS)
    assert expected == index.num_leaf_pages == 5
    outcome = row_and_batch(pool, backend, "inl_index", True, False, batch_rows)
    for leaves in outcome["leaves"]:
        (leaf_count,) = leaves
        assert leaf_count.estimate == expected and leaf_count.exact
        assert leaf_count.details["probes"] == sum(key is not None for key in OUTER_KEYS)


@pytest.mark.parametrize("name", sorted(OPERATORS))
def test_cancellation_lands_within_one_chunk(name):
    """With ``batch_rows`` = 7, a token firing at the N-th checkpoint stops
    the run before an (N+1)-th chunk's rows are charged."""
    database = database_for(10_000, vector.backend_name())
    complete = drive(
        database, lambda: OPERATORS[name](database, True, False), "batch", 7
    ).physical["units"]
    for checks in (1, 3, 6):
        token = CancellationToken(cancel_after_checks=checks)
        root = OPERATORS[name](database, True, False)
        database.cold_cache()
        io = TallyIO()
        ctx = ExecutionContext(database=database, io=io, batch_rows=7, cancellation=token)
        with pytest.raises(QueryCancelled):
            for _batch in root.batches(ctx):
                pass
        assert token.checks == checks
        assert io.units["charge_rows"] <= checks * 7 + _outer_rows(name)
        assert io.units["charge_rows"] < complete["charge_rows"]


def _outer_rows(name: str) -> int:
    """Rows the INL's outer scan may charge on top of the inner chunks."""
    return len(OUTER_KEYS) if name.startswith("inl") else 0


def test_in_list_probes_leaves_in_key_order(monkeypatch):
    """Values are probed ascending — by value, not by ``repr`` — so the leaf
    pages an IN-list seek touches never go backwards, in either drive."""
    database = database_for(10_000, vector.backend_name())
    index = database.table("f").index("ix_v")
    values = (5, 1_000, 400, 30, 1_499, 9, 10)
    assert sorted(values, key=repr) != sorted(values)
    touched: list[int] = []
    access, access_sequence = BufferPool.access, BufferPool.access_sequence

    def spy_access(self, file_id, page_id, io, sequential=False):
        if file_id == index.file_id:
            touched.append(int(page_id))
        return access(self, file_id, page_id, io, sequential)

    def spy_sequence(self, keys, io, sequential=()):
        touched.extend(int(page) for file_id, page in keys if file_id == index.file_id)
        return access_sequence(self, keys, io, sequential)

    monkeypatch.setattr(BufferPool, "access", spy_access)
    monkeypatch.setattr(BufferPool, "access_sequence", spy_sequence)
    def make_root():
        operator = IndexInListSeekFetch(
            database.table("f"), "ix_v", values=values, residual=RESIDUAL,
            bundle=fetch_bundle("f", RESIDUAL),
        )
        assert operator.values == tuple(sorted(values))
        return operator

    results = []
    for mode in ("row", "batch"):
        del touched[:]
        results.append(drive(database, make_root, mode, 1024))
        assert len(set(touched)) > 1 and touched == sorted(touched)
    assert not diff_results(*results)
    # Values that do not compare fall back to a deterministic repr order.
    mixed = IndexInListSeekFetch(
        database.table("f"), "ix_v", values=(3, "a", None), residual=Conjunction()
    )
    assert mixed.values == ("a", 3, None)  # "'a'" < "3" < "None"


#: Planner-built index plans whose one request is *not* a prefix of the
#: fetch residual — the seek term plus the residual's last term (the shape
#: of ``tests/integration/test_session.py``'s non-prefix request test).  The
#: covering scan evaluates every term on every entry to answer it; a fetch
#: refuses it.  ``(predicate, count column, requested term positions)``.
FULL_EVALUATION_PLANS = {
    "index_seek": (
        conjunction_of(
            Comparison("c2", "<", 800),
            Comparison("c4", "<", 15_000),
            Comparison("c5", "<", 15_000),
        ),
        "padding",
        (0, 2),
    ),
    "in_list_seek": (
        conjunction_of(
            InList("c2", range(0, 4_000, 7)),
            Comparison("c4", "<", 15_000),
            Comparison("c5", "<", 15_000),
        ),
        "padding",
        (0, 2),
    ),
    "index_intersection": (
        conjunction_of(
            Comparison("c2", "<", 3_000),
            Comparison("c3", "<", 3_000),
            Comparison("c4", "<", 15_000),
            Comparison("c5", "<", 15_000),
        ),
        "padding",
        (0, 1, 3),
    ),
    # The index carries ``c3`` alone: a request for the second term.
    "covering_scan": (
        conjunction_of(Comparison("c3", ">=", 2_000), Comparison("c3", "<", 9_000)),
        "c3",
        (1,),
    ),
}


@pytest.mark.parametrize("hint", sorted(FULL_EVALUATION_PLANS))
def test_full_evaluation_fetch_witness_row_equals_batch(synthetic_db, backend, hint):
    """A covering scan evaluated in full witnesses a request on the entries
    where its own terms are TRUE, whatever the unrequested earlier terms
    say: the AND of the raw term masks, not the short-circuited ``alive``
    mask.  Row == batch on rows, observation fingerprints and charges, and
    the counter saw more entries than the rows passing the whole
    predicate — the ones ``alive`` would have dropped.  A fetch evaluates
    its residual short-circuited, so on an index plan the same request
    comes back unanswerable (§II-B) and nothing is attached."""
    predicate, count_column, requested = FULL_EVALUATION_PLANS[hint]
    query = SingleTableQuery("t", predicate, count_column)
    request = AccessPathRequest(
        "t", Conjunction(tuple(predicate.terms[i] for i in requested))
    )
    plan = Optimizer(synthetic_db, hint=PlanHint(hint)).optimize(query)
    if hint != "covering_scan":
        executable = build_executable(plan, synthetic_db, [request])
        (refusal,) = executable.unanswerable
        assert "not a prefix of the fetch residual" in refusal.reason
        assert "§II-B" in refusal.reason
        assert executable.root.child.bundle is None
        return
    executable = build_executable(plan, synthetic_db, [request])
    assert executable.root.child.monitor_full_eval and not executable.unanswerable
    row, batch = drive_both(
        synthetic_db, lambda: build_executable(plan, synthetic_db, [request]).root
    )
    assert not diff_results(row, batch)
    ((count,),), (observation,) = batch.rows, batch.observations
    assert observation.details["observations"] > count
