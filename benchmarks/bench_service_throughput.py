"""Service-layer throughput benchmark: the closed loop at several widths.

Replays the Fig. 6-style workload through the in-process transport at a
sweep of client counts, cold and warm, in each execution mode side by
side (``batch`` is what the service runs when a request names no mode,
``row`` is the reference oracle), and prints per-width latency digests
(p50/p95/p99), queue-wait digests and QPS — the serving-layer
view of the paper's claim: shared feedback plus the shared plan cache
make the *tail* of a live workload faster as the service warms up.

With ``--workers N`` the same sweep runs over the multi-process worker
tier: one :class:`~repro.service.workers.WorkerPool` is spawned up front
(workers rebuild the seeded database once) and re-bound to each width's
fresh engine, so the spawn cost is paid once per bench, not per width.
The coordinator keeps the one authoritative feedback store either way,
which is why the cold-run equivalence diff is asserted identically in
both modes.

Each cold width also asserts the service-level response diff against a
fresh serial replay (``diff_against_serial``, the serial≡concurrent
proof), so a throughput number is never reported for a run that changed
what the feedback loop observes.

CI runs the in-process sweep as a gate: it raises on any leaked
admission slot or serial diff; the QPS and latency numbers are printed,
not gated.  Run directly::

    PYTHONPATH=src python benchmarks/bench_service_throughput.py [--workers N]
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from typing import Optional

from repro.engine import Engine, WorkloadItem
from repro.exec.executor import EXEC_MODES
from repro.harness.loadgen import (
    DEFAULT_WORKLOAD_SQL,
    LoadSpec,
    diff_against_serial,
    run_closed_loop,
    workload_items,
)
from repro.harness.reporting import format_table
from repro.service import QueryService, WorkerPool, WorkerSpec
from repro.workloads import build_synthetic_database

#: Closed-loop widths to sweep.
CONCURRENCIES = (1, 4, 16, 64)

#: Admission ceiling shared by every width (queue takes the rest).
MAX_IN_FLIGHT = 8

#: Replays of the workload per run.
PASSES = 8

NUM_ROWS = 20_000
SEED = 1234


def _build_pool(workers: int) -> Optional[WorkerPool]:
    """The bench's worker tier (``None`` for the in-process baseline)."""
    if workers <= 0:
        return None
    spec = WorkerSpec(
        "repro.workloads:build_synthetic_database",
        {"num_rows": NUM_ROWS, "seed": SEED},
    )
    # The placeholder engine is replaced per width via rebind_engine.
    database = build_synthetic_database(num_rows=NUM_ROWS, seed=SEED)
    return WorkerPool(spec, num_workers=workers, engine=Engine(database))


async def _one_width(
    database,
    concurrency: int,
    warm: bool,
    workers: int,
    pool: Optional[WorkerPool],
    exec_mode: str,
) -> dict:
    engine = Engine(database)
    if warm:
        for item in workload_items(database, DEFAULT_WORKLOAD_SQL):
            engine.execute(
                WorkloadItem(
                    query=item.query,
                    requests=item.requests,
                    remember=True,
                    exec_mode=exec_mode,
                )
            )
    if pool is not None:
        pool.rebind_engine(engine)
    # With a pool the admission width matches the worker count: admitted
    # queries block on an idle worker anyway, so a wider window would
    # only queue inside the pool instead of at admission.
    max_in_flight = max(MAX_IN_FLIGHT, workers)
    service = QueryService(
        engine,
        max_in_flight=max_in_flight,
        max_queue_depth=max(concurrency, max_in_flight),
        worker_pool=pool,
    )
    report = await run_closed_loop(
        service,
        LoadSpec(
            concurrency=concurrency,
            passes=PASSES,
            exec_mode=exec_mode,
            use_feedback=warm,
        ),
    )
    # The pool outlives each width (spawn cost is paid once per bench):
    # detach it before shutdown so only the service-side state drains.
    service.worker_pool = None
    await service.shutdown()
    if report.leaked is not None:
        raise RuntimeError(f"admission slot leak: {report.leaked}")
    if not warm:
        diffs = diff_against_serial(database, report)
        if diffs:
            raise RuntimeError(
                f"service responses diverged from serial replay: {diffs[:3]}"
            )
    latency = report.latency()
    queue_wait = report.queue_wait()
    return {
        "exec_mode": exec_mode,
        "concurrency": concurrency,
        "mode": "warm" if warm else "cold",
        "workers": workers,
        "max_in_flight": max_in_flight,
        "qps": round(report.qps, 1),
        "p50_ms": round(latency["p50"], 3),
        "p95_ms": round(latency["p95"], 3),
        "p99_ms": round(latency["p99"], 3),
        "mean_ms": round(latency["mean"], 3),
        "queue_wait_p99_ms": round(queue_wait["p99"], 3),
        "requests": report.total_requests,
    }


def run_bench(workers: int = 0) -> dict:
    database = build_synthetic_database(num_rows=NUM_ROWS, seed=SEED)

    pool = _build_pool(workers)
    try:
        sweeps = [
            asyncio.run(
                _one_width(
                    database, concurrency, warm, workers, pool, exec_mode
                )
            )
            for exec_mode in EXEC_MODES
            for concurrency in CONCURRENCIES
            for warm in (False, True)
        ]
    finally:
        if pool is not None:
            pool.shutdown()
    return {
        "benchmark": "service closed-loop throughput (Fig. 6 workload)",
        "num_rows": NUM_ROWS,
        "seed": SEED,
        "max_in_flight": MAX_IN_FLIGHT,
        "passes": PASSES,
        "workers": workers,
        "sweeps": sweeps,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker processes (0 = in-process execution)",
    )
    args = parser.parse_args()
    result = run_bench(workers=args.workers)
    rows = [
        [
            s["exec_mode"],
            s["concurrency"],
            s["mode"],
            s["workers"],
            s["qps"],
            s["p50_ms"],
            s["p95_ms"],
            s["p99_ms"],
            s["queue_wait_p99_ms"],
        ]
        for s in result["sweeps"]
    ]
    print(
        format_table(
            ["exec", "clients", "mode", "workers", "qps", "p50", "p95",
             "p99", "queue p99"],
            rows,
        )
    )
    by_key = {
        (s["exec_mode"], s["concurrency"], s["mode"]): s
        for s in result["sweeps"]
    }
    for exec_mode in EXEC_MODES:
        for concurrency in CONCURRENCIES:
            cold = by_key[exec_mode, concurrency, "cold"]
            warm = by_key[exec_mode, concurrency, "warm"]
            print(
                f"{exec_mode} clients={concurrency}: warm/cold mean "
                f"{warm['mean_ms']:.1f}/{cold['mean_ms']:.1f} ms "
                f"({cold['mean_ms'] / warm['mean_ms']:.2f}x), "
                f"qps {warm['qps']:.1f} vs {cold['qps']:.1f}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
