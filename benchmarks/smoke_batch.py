"""CI smoke gate: batch execution must actually be faster, and the
plan-derived column-chunk scan must be live.

Runs the Fig. 6 single-table methodology at reduced scale under both
execution modes — the row-at-a-time iterator and page-at-a-time batch
mode — and gates on seven families of bounds:

* **wall-clock speedup**: batch mode must finish the identical
  (monitored) workload at least :data:`SPEEDUP_BOUND` times faster than
  row mode.  It reads 2.7-3.8x against the row oracle, which evaluates
  each row's terms in a loop of its own and folds its monitors per
  page.  With the batch drive falling back to the row iterator (every
  operator on the ``Operator.batches`` adapter, or only the table and
  range scans) it read 0.86-1.10x;
* **monitoring overhead**: the *simulated* monitoring overhead
  ``(T_monitored - T) / T`` under batch mode must respect the paper's
  2% bound, exactly as ``smoke_overhead.py`` checks for row mode —
  batching may not change what the monitors charge;
* **chunk-scan fast path**: an *unmonitored* ``SELECT count(padding)
  FROM t WHERE c5 < N`` full scan in batch mode must run at least
  :data:`CHUNK_SCAN_BOUND` times faster than row mode.  The column-chunk
  scan reads 10.9-15.5x here and row-list batches (the planner no longer
  marking the scan under the count) 4.0-4.6x, so the bound sits between
  the two: it fails if the fast path silently reverts to row lists;
* **wall monitoring overhead**: the same scan in batch mode with monitors
  (one exact request and one non-prefix, DPSample request) may take at
  most :data:`MONITORED_SCAN_BOUND` times its unmonitored wall time.
  The monitored scan rides the same chunk scan and measures ~1.45x; on
  the page loop it measured ~4x, so the gate fails if a monitor bundle
  ever throws the scan off the chunk path again.  Both sides take ~1-2
  ms, so one noisy phase of the runner can swing a median: the probe is
  repeated up to :data:`MONITORED_SCAN_ATTEMPTS` times and the best
  attempt counts (a scan back on the page loop fails every attempt);
* **hash-join probe**: a monitored Fig. 8 hash join (``t1.c1 < N AND
  t1.c3 = t.c3`` with the default bit-vector request) in batch mode must
  run at least :data:`HASH_JOIN_BOUND` times faster than row mode.  The
  probe-side scan emits column chunks, the join tests the key column
  against the build keys and materialises only the rows that join, and
  the bit-vector entry is fed per-page verdicts: 6.2-7.6x.  With the
  probe-side scan emitting row lists (20 000 probe tuples through Python
  per join) it measured 2.7-3.3x, and back on the page loop 0.8-1.0x, so
  the bound sits between the two; best of :data:`HASH_JOIN_ATTEMPTS`
  attempts, like the gate above;
* **index plans**: a monitored hinted Index Seek (``c5 < 1000``) and a
  monitored hinted INL join (``t1.c1 < 400 AND t1.c2 = t.c2``) in batch
  mode must each run at least :data:`INDEX_PLAN_BOUND` times faster than
  row mode.  The batch drive reads located leaf ranges a chunk at a time
  (one access stream, one gather, one kernel pass, one linear-counter
  feed per chunk): 5.3-6.6x and 5.0-9.5x.  Fed by a generator per
  fetched row (both operators on the row adapter) they measured
  0.9-1.1x, so the gate fails if either operator falls back to a per-row
  fetch chain; best of :data:`INDEX_PLAN_ATTEMPTS`;
* **database footprint**: ``tracemalloc`` over
  ``build_synthetic_database(20 000 rows, with_copy=True)`` must read at
  most :data:`FOOTPRINT_BOUND_MIB` MiB.  The table stored as its column
  vectors (pages are windows over them) reads 3.9 here (4.8 in a process
  that has run nothing else yet); a tuple per row under columnar index
  leaves read 11.6; one ``(key, RID, payload)`` triple per entry plus a
  ``RID`` per row read 21.8.

Wall-clock is measured with :class:`repro.harness.timing.Stopwatch`,
the only sanctioned host-clock reader (codelint R005).  Exit status 0/1
so CI can gate on it.

Run directly (``PYTHONPATH=src python benchmarks/smoke_batch.py``) or
via pytest (the ``test_*`` wrapper below).
"""

from __future__ import annotations

import math
import statistics
import sys
import tracemalloc
from typing import Callable

from repro.core.requests import AccessPathRequest
from repro.exec.executor import EXEC_MODES
from repro.harness.figures import run_fig6_fig7
from repro.harness.methodology import default_requests
from repro.harness.timing import Stopwatch
from repro.optimizer import JoinQuery, PlanHint, SingleTableQuery
from repro.session import Session
from repro.sql import Comparison, JoinEquality, conjunction_of
from repro.workloads import build_synthetic_database

#: Batch mode must beat row mode by at least this wall-clock factor.
SPEEDUP_BOUND = 1.5

#: The paper's bound on acceptable (simulated) monitoring overhead.
OVERHEAD_BOUND = 0.02

#: An unmonitored count scan in batch mode must beat row mode by at least
#: this factor — above what row-list batches reach (4.0-4.6x), below the
#: column-chunk scan (10.9-15.5x).
CHUNK_SCAN_BOUND = 7.0

#: A monitored count scan in batch mode may take at most this many times
#: the unmonitored one's wall time (chunk scan ~1.45x, page loop ~4x).
MONITORED_SCAN_BOUND = 1.6
MONITORED_SCAN_ATTEMPTS = 3

#: A monitored Fig. 8 hash join in batch mode must beat row mode by at
#: least this factor (probe on the chunk scan 6.2-7.6x, emitting row
#: lists 2.7-3.3x).
HASH_JOIN_BOUND = 4.5
HASH_JOIN_ATTEMPTS = 3
#: ``t1.c1 < N``: the build side's rows (5 % of the table).
HASH_JOIN_OUTER_ROWS = 1_000

#: Monitored hinted index plans in batch mode must beat row mode by at
#: least this factor (chunk-at-a-time drive 5.0-9.5x, per-row fetch chain
#: 0.9-1.1x).
INDEX_PLAN_BOUND = 3.5
INDEX_PLAN_ATTEMPTS = 3
#: ``c5 < N``: rows the Index Seek fetches (5 % of the table, scattered).
INDEX_SEEK_ROWS = 1_000
#: ``t1.c1 < N``: outer rows of the INL join, each one index probe.
INL_OUTER_ROWS = 400

#: ``tracemalloc`` ceiling for the 2 x 20 000-row synthetic database: the
#: 3.9-4.8 MiB readings + ~30 % (a tuple per row read 11.6 MiB, entry
#: tuples + RID objects 21.8 MiB).
FOOTPRINT_BOUND_MIB = 6.0

#: Reduced Fig. 6 scale — big enough for the per-row interpreter cost to
#: dominate, small enough for a CI smoke job.
NUM_ROWS = 20_000
QUERIES_PER_COLUMN = 3
SEED = 0

#: Full-table-scan throughput probe scale.
SCAN_ROWS = 20_000
SCAN_REPEATS = 7

#: All execution modes, row first (it is the reference the others must match).
MODES = EXEC_MODES


def _timed_run(exec_mode: str):
    watch = Stopwatch()
    result = run_fig6_fig7(
        num_rows=NUM_ROWS,
        queries_per_column=QUERIES_PER_COLUMN,
        seed=SEED,
        exec_mode=exec_mode,
    )
    return result, watch.elapsed_seconds


def _interleaved_medians(
    runs: dict[str, Callable[[], object]], expected_rows: list[tuple] | None = None
) -> dict[str, float]:
    """Median wall seconds of each variant of one statement.

    The variants alternate per repetition (so drift hits all alike)
    after one untimed pass each, which also pays the one-off file-column
    materialization the chunk scan caches.  Every run must return
    ``expected_rows`` (by default: whatever the first run returned).
    """
    samples: dict[str, list[float]] = {name: [] for name in runs}
    for repetition in range(SCAN_REPEATS + 1):
        for name, run in runs.items():
            watch = Stopwatch()
            executed = run()
            elapsed = watch.elapsed_seconds
            if expected_rows is None:
                expected_rows = executed.result.rows
            if executed.result.rows != expected_rows:
                raise AssertionError(f"{name} run returned {executed.result.rows}")
            if repetition:
                samples[name].append(elapsed)
    return {name: statistics.median(samples[name]) for name in runs}


def _count_scan(database, num_rows: int):
    """Session, query and once-optimized plan of the probe scan (the probes
    run the plan through the planner each time: execution, not optimization)."""
    query = SingleTableQuery(
        "t", conjunction_of(Comparison("c5", "<", num_rows)), "padding"
    )
    session = Session(database)
    return session, query, session.optimize(query, hint=PlanHint("table_scan"))


def scan_seconds(database, num_rows: int = SCAN_ROWS) -> dict[str, float]:
    """Median wall seconds of one unmonitored full count scan, per mode."""
    session, query, plan = _count_scan(database, num_rows)
    return _interleaved_medians(
        {
            mode: lambda mode=mode: session.run_plan(query, plan, exec_mode=mode)
            for mode in MODES
        },
        [(num_rows,)],
    )


def monitored_scan_seconds(database, num_rows: int = SCAN_ROWS) -> dict[str, float]:
    """Median wall seconds of the same scan in batch mode, ``monitored``
    (the scan's own predicate, counted exactly, plus a non-prefix
    predicate DPSample has to evaluate on sampled pages) and
    ``unmonitored``."""
    session, query, plan = _count_scan(database, num_rows)
    requests = [
        AccessPathRequest("t", query.predicate),
        AccessPathRequest(
            "t", conjunction_of(Comparison("c3", "<", num_rows // 2))
        ),
    ]
    return _interleaved_medians(
        {
            "monitored": lambda: session.run_plan(
                query, plan, requests=requests, exec_mode="batch"
            ),
            "unmonitored": lambda: session.run_plan(query, plan, exec_mode="batch"),
        },
        [(num_rows,)],
    )


def hash_join_seconds(
    database, outer_rows: int = HASH_JOIN_OUTER_ROWS
) -> dict[str, float]:
    """Median wall seconds of one Fig. 8 hash join (``t1.c1 < N AND t1.c3
    = t.c3``): ``row`` and ``batch`` with the default bit-vector request
    attached, ``batch_unmonitored`` without."""
    query = JoinQuery(
        join_predicate=JoinEquality("t1", "c3", "t", "c3"),
        predicates={"t1": conjunction_of(Comparison("c1", "<", outer_rows))},
        count_column="t.padding",
    )
    session = Session(database)
    plan = session.optimize(query, hint=PlanHint("hash_join"))
    requests = default_requests(database, query)
    return _interleaved_medians(
        {
            "row": lambda: session.run_plan(
                query, plan, requests=requests, exec_mode="row"
            ),
            "batch": lambda: session.run_plan(
                query, plan, requests=requests, exec_mode="batch"
            ),
            "batch_unmonitored": lambda: session.run_plan(
                query, plan, exec_mode="batch"
            ),
        }
    )


def _mode_seconds(database, query, hint: str, monitored: bool) -> dict[str, float]:
    """Median wall seconds of one hinted statement per mode."""
    session = Session(database)
    plan = session.optimize(query, hint=PlanHint(hint))
    requests = default_requests(database, query) if monitored else ()
    return _interleaved_medians(
        {
            mode: lambda mode=mode: session.run_plan(
                query, plan, requests=requests, exec_mode=mode
            )
            for mode in MODES
        }
    )


def index_seek_seconds(database, monitored: bool = True) -> dict[str, float]:
    """Index Seek + Fetch on ``c5 < INDEX_SEEK_ROWS``, row and batch."""
    query = SingleTableQuery(
        "t", conjunction_of(Comparison("c5", "<", INDEX_SEEK_ROWS)), "padding"
    )
    return _mode_seconds(database, query, "index_seek", monitored)


def inl_join_seconds(database, monitored: bool = True) -> dict[str, float]:
    """INL join ``t1.c1 < INL_OUTER_ROWS AND t1.c2 = t.c2`` (the inner
    fetched through ``t``'s index on ``c2``), row and batch."""
    query = JoinQuery(
        join_predicate=JoinEquality("t1", "c2", "t", "c2"),
        predicates={"t1": conjunction_of(Comparison("c1", "<", INL_OUTER_ROWS))},
        count_column="t.padding",
    )
    return _mode_seconds(database, query, "inl_join", monitored)


def database_footprint_mib() -> float:
    """``tracemalloc`` current of the 2 x 20 000-row synthetic database."""
    tracemalloc.start()
    try:
        database = build_synthetic_database(
            num_rows=SCAN_ROWS, seed=SEED, with_copy=True
        )
        current, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del database
    return current / 2**20


def run_smoke() -> list[str]:
    """Run fig6 in both modes; returns a list of bound violations."""
    violations: list[str] = []
    results: dict[str, object] = {}
    seconds: dict[str, float] = {}
    for mode in MODES:
        results[mode], seconds[mode] = _timed_run(mode)

    for mode in MODES[1:]:
        speedup = (
            seconds["row"] / seconds[mode] if seconds[mode] > 0 else float("inf")
        )
        worst_overhead = max(results[mode].overheads())
        print(
            f"fig6 x{QUERIES_PER_COLUMN * 4} queries: row {seconds['row']:.2f}s, "
            f"{mode} {seconds[mode]:.2f}s -> {speedup:.2f}x "
            f"(bound {SPEEDUP_BOUND:.1f}x)"
        )
        print(
            f"{mode}-mode max monitoring overhead {worst_overhead:.3%} "
            f"(bound {OVERHEAD_BOUND:.0%})"
        )
        if speedup < SPEEDUP_BOUND:
            violations.append(
                f"{mode} mode only {speedup:.2f}x faster than row mode "
                f"(bound {SPEEDUP_BOUND:.1f}x)"
            )
        if worst_overhead > OVERHEAD_BOUND:
            violations.append(
                f"{mode}-mode max monitoring overhead {worst_overhead:.3%} "
                f"exceeds the paper's {OVERHEAD_BOUND:.0%} bound"
            )
        # The simulated results must agree between modes.  Every integer
        # counter is bit-identical (the equivalence harness proves that
        # per-observation); simulated *times* are floats whose
        # accumulation order differs between modes, so compare with a
        # tight tolerance.
        for name, row_series, mode_series in (
            ("speedup", results["row"].speedups(), results[mode].speedups()),
            ("overhead", results["row"].overheads(), results[mode].overheads()),
        ):
            agree = len(row_series) == len(mode_series) and all(
                math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)
                for a, b in zip(row_series, mode_series)
            )
            if not agree:
                violations.append(
                    f"row and {mode} modes report different {name} series"
                )

    database = build_synthetic_database(num_rows=SCAN_ROWS, seed=SEED)
    scan = scan_seconds(database)
    scan_speedup = scan["row"] / scan["batch"] if scan["batch"] > 0 else float("inf")
    print(
        f"unmonitored count scan: row {scan['row'] * 1e3:.2f}ms, "
        f"batch {scan['batch'] * 1e3:.2f}ms -> {scan_speedup:.1f}x "
        f"(bound {CHUNK_SCAN_BOUND:.0f}x)"
    )
    if scan_speedup < CHUNK_SCAN_BOUND:
        violations.append(
            f"unmonitored batch count scan only {scan_speedup:.1f}x faster "
            f"than row mode (bound {CHUNK_SCAN_BOUND:.0f}x): is the "
            "column-chunk fast path still selected?"
        )

    wall_ratio = float("inf")
    for _ in range(MONITORED_SCAN_ATTEMPTS):
        monitored = monitored_scan_seconds(database)
        ratio = monitored["monitored"] / monitored["unmonitored"]
        print(
            f"batch count scan: monitored {monitored['monitored'] * 1e3:.2f}ms, "
            f"unmonitored {monitored['unmonitored'] * 1e3:.2f}ms -> "
            f"{ratio:.2f}x (bound {MONITORED_SCAN_BOUND:.1f}x)"
        )
        wall_ratio = min(wall_ratio, ratio)
        if wall_ratio <= MONITORED_SCAN_BOUND:
            break
    if wall_ratio > MONITORED_SCAN_BOUND:
        violations.append(
            f"monitored batch count scan takes {wall_ratio:.2f}x the "
            f"unmonitored one (bound {MONITORED_SCAN_BOUND:.1f}x): did the "
            "monitor bundle push the scan off the chunk path?"
        )

    join_database = build_synthetic_database(
        num_rows=SCAN_ROWS, seed=SEED, with_copy=True
    )
    join_speedup = 0.0
    for _ in range(HASH_JOIN_ATTEMPTS):
        join = hash_join_seconds(join_database)
        speedup = join["row"] / join["batch"]
        print(
            f"monitored Fig. 8 hash join: row {join['row'] * 1e3:.2f}ms, "
            f"batch {join['batch'] * 1e3:.2f}ms -> {speedup:.1f}x "
            f"(bound {HASH_JOIN_BOUND:.1f}x); batch unmonitored "
            f"{join['batch_unmonitored'] * 1e3:.2f}ms"
        )
        join_speedup = max(join_speedup, speedup)
        if join_speedup >= HASH_JOIN_BOUND:
            break
    if join_speedup < HASH_JOIN_BOUND:
        violations.append(
            f"monitored batch hash join only {join_speedup:.1f}x faster than "
            f"row mode (bound {HASH_JOIN_BOUND:.1f}x): is the probe-side scan "
            "still on the chunk path?"
        )
    for label, probe, question in (
        (
            f"monitored Index Seek c5 < {INDEX_SEEK_ROWS}",
            index_seek_seconds,
            "is the seek still fetching a chunk at a time?",
        ),
        (
            f"monitored INL join t1.c1 < {INL_OUTER_ROWS} on c2",
            inl_join_seconds,
            "is the inner still probed by one sorted search per outer batch?",
        ),
    ):
        best = 0.0
        for _ in range(INDEX_PLAN_ATTEMPTS):
            seconds = probe(join_database)
            speedup = seconds["row"] / seconds["batch"]
            print(
                f"{label}: row {seconds['row'] * 1e3:.2f}ms, batch "
                f"{seconds['batch'] * 1e3:.2f}ms -> {speedup:.1f}x "
                f"(bound {INDEX_PLAN_BOUND:.1f}x)"
            )
            best = max(best, speedup)
            if best >= INDEX_PLAN_BOUND:
                break
        if best < INDEX_PLAN_BOUND:
            violations.append(
                f"{label} in batch mode only {best:.1f}x faster than row mode "
                f"(bound {INDEX_PLAN_BOUND:.1f}x): {question}"
            )

    footprint = database_footprint_mib()
    print(
        f"database footprint (tracemalloc, 2 x {SCAN_ROWS} rows): "
        f"{footprint:.1f} MiB (bound {FOOTPRINT_BOUND_MIB:.0f} MiB)"
    )
    if footprint > FOOTPRINT_BOUND_MIB:
        violations.append(
            f"synthetic database holds {footprint:.1f} MiB (bound "
            f"{FOOTPRINT_BOUND_MIB:.0f} MiB): is the table still stored by "
            "column, and are index leaves?"
        )
    return violations


def test_batch_mode_speedup_and_overhead():
    assert run_smoke() == []


def main() -> int:
    violations = run_smoke()
    for violation in violations:
        print(f"FAIL: {violation}", file=sys.stderr)
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
