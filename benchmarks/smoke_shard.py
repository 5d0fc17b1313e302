"""CI smoke gate: sharded execution is equivalent *and* actually scales.

Two gates over a 4-shard range-partitioned deployment:

* **serial ≡ sharded equivalence** — the reduced Fig. 6 workload runs
  through :func:`repro.harness.equivalence.compare_sharded_workload`
  (at ``dpsample_fraction=1.0``, so every DPC observation is exact and
  the proof is bit-level): result rows, merged observation
  fingerprints, merged feedback records and the re-optimized plan P'
  must all be identical to the single-engine run.  Zero diffs gates.
* **aggregate scan throughput** — the Fig. 6 scan-bound queries
  (high-selectivity predicates the optimizer answers with a SeqScan)
  must complete at least :data:`SCAN_SPEEDUP_BOUND` times faster in
  *simulated merged time* at :data:`SHARDS` shards than serially.  The
  merged time is the fan-out's makespan (the slowest shard), which
  is the deployment model's wall-clock: page-aligned range partitioning
  splits a scan's pages ~evenly, so 4 shards should approach 4x and
  must clear 3x.

Host wall-clock for the whole smoke is printed but NOT gated: the
coordinator runs the shards one after another on the caller's thread
(threads were measured 2x slower for these CPU-bound executions under
the GIL and deleted), so host time is the *sum* over shards.  The
makespan is computed — a ``max()`` over the shards' own simulated
clocks — and is the deployment's time model.  Exit status 0/1 so CI can
gate on it.

Run directly (``PYTHONPATH=src python benchmarks/smoke_shard.py``) or
via pytest (the ``test_*`` wrapper below).
"""

from __future__ import annotations

import sys

from repro.engine import Engine
from repro.harness.equivalence import compare_sharded_workload
from repro.harness.timing import Stopwatch
from repro.lifecycle.plan import build_optimizer
from repro.optimizer import SingleTableQuery
from repro.shard import ShardCoordinator
from repro.sql import Comparison, conjunction_of
from repro.workloads import build_synthetic_database
from repro.workloads.queries import single_table_workload

#: Shard count for both gates (the ROADMAP's reference deployment).
SHARDS = 4

#: Aggregate scan-throughput bound: simulated merged makespan at
#: :data:`SHARDS` shards vs the serial run (full-scale target ~4x at 4
#: shards; the gate leaves headroom for merge cost and page-remainder
#: imbalance).
SCAN_SPEEDUP_BOUND = 3.0

#: Reduced Fig. 6 equivalence scale — every plan shape (SeqScan,
#: IndexSeek, the P -> P' transition) at CI-smoke cost.
EQ_ROWS = 12_000
EQ_QUERIES_PER_COLUMN = 2
SEED = 0

#: Scan-throughput probe scale.
SCAN_ROWS = 20_000

#: High-selectivity cuts the optimizer answers with a SeqScan — the
#: "scan throughput" the gate aggregates.  (Selective predicates become
#: IndexSeeks, whose makespan is skew-bound, not scan-bound.)
SCAN_PREDICATES = (
    ("c5", ">=", 0),
    ("c4", ">=", 0),
    ("c5", "<", 9_000),
)


def equivalence_violations() -> list[str]:
    """Gate 1: zero serial≡sharded diffs on the reduced Fig. 6 workload."""
    database = build_synthetic_database(num_rows=EQ_ROWS, seed=SEED)
    workload = single_table_workload(
        database,
        "t",
        ["c2", "c3", "c4", "c5"],
        queries_per_column=EQ_QUERIES_PER_COLUMN,
        selectivity_range=(0.01, 0.10),
        seed=SEED,
    )
    report = compare_sharded_workload(database, workload, num_shards=SHARDS)
    print(report.render())
    return [
        f"{entry.label}: {mismatch}"
        for entry in report.failures()
        for mismatch in entry.mismatches
    ]


def scan_speedup() -> tuple[float, float, float]:
    """Gate 2 numbers: ``(serial_ms, sharded_ms, speedup)`` aggregated
    over the scan-bound queries (simulated time, cold cache)."""
    database = build_synthetic_database(num_rows=SCAN_ROWS, seed=SEED)
    optimizer = build_optimizer(database)
    queries = [
        SingleTableQuery(
            "t", conjunction_of(Comparison(column, op, value)), "padding"
        )
        for column, op, value in SCAN_PREDICATES
    ]
    plans = [optimizer.optimize(query) for query in queries]
    non_scans = [
        plan.render() for plan in plans if "SeqScan" not in plan.signature()
    ]
    if non_scans:
        raise AssertionError(
            f"scan probe predicates must plan as SeqScans, got {non_scans}"
        )

    # One door on both topologies: Engine.execute_plan (cold, isolated).
    def total_ms(engine: Engine) -> float:
        return sum(
            engine.execute_plan(query, plan).elapsed_ms
            for query, plan in zip(queries, plans)
        )

    serial_ms = total_ms(Engine(database))
    coordinator = ShardCoordinator(database, num_shards=SHARDS)
    try:
        sharded_ms = total_ms(coordinator)
    finally:
        coordinator.shutdown()
    speedup = serial_ms / sharded_ms if sharded_ms > 0 else float("inf")
    return serial_ms, sharded_ms, speedup


def run_smoke() -> list[str]:
    """Run both gates; returns a list of bound violations."""
    watch = Stopwatch()
    violations = equivalence_violations()

    serial_ms, sharded_ms, speedup = scan_speedup()
    print(
        f"aggregate scan throughput x{len(SCAN_PREDICATES)} queries: "
        f"serial {serial_ms:.2f}ms, {SHARDS}-shard makespan "
        f"{sharded_ms:.2f}ms -> {speedup:.2f}x "
        f"(bound {SCAN_SPEEDUP_BOUND:.1f}x)"
    )
    if speedup < SCAN_SPEEDUP_BOUND:
        violations.append(
            f"{SHARDS}-shard aggregate scan throughput only {speedup:.2f}x "
            f"the serial run (bound {SCAN_SPEEDUP_BOUND:.1f}x)"
        )
    print(f"smoke wall-clock {watch.elapsed_seconds:.2f}s (not gated)")
    return violations


def test_sharded_equivalence_and_scan_speedup():
    assert run_smoke() == []


def main() -> int:
    violations = run_smoke()
    for violation in violations:
        print(f"FAIL: {violation}", file=sys.stderr)
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
