"""CI smoke gate: the multi-process worker tier under closed-loop load.

Drives a :class:`~repro.service.workers.WorkerPool` of ``WORKERS``
processes behind the admission controller at two closed-loop widths and
holds the tier to its acceptance bar:

* **zero equivalence diffs** — with execution fanned out to worker
  processes (each rebuilding the seeded database from the
  ``WorkerSpec``), every cold response's rows, physical reads and
  page-count observations are still bit-identical to a fresh serial
  replay: the process boundary changed *where* queries run, not what
  the feedback loop observes;
* **zero leaked admission slots** — every admitted request reaches
  exactly one terminal counter and nothing stays in flight after drain,
  exactly as in the single-process smoke;
* **zero worker churn** — a healthy load run respawns nobody
  (``worker_restarts == 0``) and shutdown reaps every worker process
  (no leaked PIDs);
* **throughput does not collapse with concurrency** — warm closed-loop
  QPS at 64 clients stays at or above QPS at 16 clients (modulo
  ``QPS_NOISE_RATIO`` for shared runners): the tier's reason to exist
  is pushing the concurrency cliff out past the in-process ceiling;
* **throughput is the batch drive's** — warm QPS at 64 clients clears
  ``WARM_QPS_FLOOR``.  The ratio gate alone would pass a tier twenty
  times slower at both widths (it did, for as long as the load ran the
  row oracle by default: 73-93 QPS against ~630 now).

The first three gates are deterministic and fail the smoke on the spot.
The QPS gates are wall-clock measurements, so a noisy shared CI runner
can violate them without anything being wrong; they get up to
``TIMING_ATTEMPTS`` full re-measurements and only fail when every
attempt violates.  (Absolute speedup over the in-process tier is *not*
gated here: it scales with ``min(WORKERS, cpu_count)`` and this gate
must pass on a 1-CPU runner.  The trajectory artifact records the
absolute numbers; see ``bench_service_throughput.py --workers``.)

Exit status 0/1 so CI can gate on it.  Run directly
(``PYTHONPATH=src python benchmarks/smoke_workers.py``) or via pytest
(the ``test_*`` wrapper below).
"""

from __future__ import annotations

import asyncio
import sys

from repro.engine import Engine, WorkloadItem
from repro.harness.loadgen import (
    DEFAULT_WORKLOAD_SQL,
    LoadSpec,
    diff_against_serial,
    run_closed_loop,
    workload_items,
)
from repro.service import QueryService, WorkerPool, WorkerSpec
from repro.workloads import build_synthetic_database

#: Worker processes behind the admission controller.
WORKERS = 4

#: Closed-loop widths; the QPS gate compares the warm runs at the two.
LOW_CONCURRENCY = 16
HIGH_CONCURRENCY = 64

#: Admission ceiling (queue takes the rest); matches the worker count's
#: useful parallelism plus headroom for queue-side bookkeeping.
MAX_IN_FLIGHT = 8

#: Full replays of the workload per load run (pass 0 is cold).
PASSES = 20

NUM_ROWS = 20_000
SEED = 1234

#: Warm QPS at 64 clients must stay >= this fraction of QPS at 16: the
#: gate is "no collapse", and the ratio absorbs shared-runner noise.
QPS_NOISE_RATIO = 0.9

#: Absolute floor on warm QPS at 64 clients.  Reads ~630 on a 2-vCPU box
#: (one in-process client reads 350-470, so a 1-CPU runner still clears
#: it); the same load served by the row oracle reads 73-93.
WARM_QPS_FLOOR = 150.0

#: Full re-measurements granted to the QPS gates before they count as a
#: failure; the deterministic gates are hard on every attempt.
TIMING_ATTEMPTS = 3


def _build_pool(database) -> WorkerPool:
    spec = WorkerSpec(
        "repro.workloads:build_synthetic_database",
        {"num_rows": NUM_ROWS, "seed": SEED},
    )
    return WorkerPool(spec, num_workers=WORKERS, engine=Engine(database))


async def _run_load(database, pool: WorkerPool, concurrency: int, warm: bool):
    """One closed-loop run over the worker tier."""
    engine = Engine(database)
    if warm:
        for item in workload_items(database, DEFAULT_WORKLOAD_SQL):
            engine.execute(
                WorkloadItem(
                    query=item.query, requests=item.requests, remember=True
                )
            )
    pool.rebind_engine(engine)
    service = QueryService(
        engine,
        max_in_flight=MAX_IN_FLIGHT,
        max_queue_depth=max(concurrency, MAX_IN_FLIGHT),
        worker_pool=pool,
    )
    report = await run_closed_loop(
        service,
        LoadSpec(concurrency=concurrency, passes=PASSES, use_feedback=warm),
    )
    admission = service.admission.snapshot()
    workers = pool.snapshot()
    # The pool is shared across runs; detach it so only the service-side
    # state (engine and waiter threads, engine) drains here.
    service.worker_pool = None
    await service.shutdown()
    return report, admission, workers


def _deterministic_violations(database, runs) -> list[str]:
    """The hard gates: equivalence, slot conservation, worker churn."""
    violations: list[str] = []
    for label, (report, admission, workers) in runs.items():
        statuses = report.status_counts()
        if set(statuses) != {"ok"}:
            violations.append(f"{label} run had non-ok responses: {statuses}")
        if report.leaked is not None:
            violations.append(f"{label} run leaked a slot: {report.leaked}")
        if admission["in_flight"] != 0 or admission["queue_depth"] != 0:
            violations.append(
                f"{label} run left admission state dirty: {admission}"
            )
        if admission["total_rejected"] != 0:
            violations.append(
                f"{label} run rejected {admission['total_rejected']} "
                "request(s); the queue is sized to admit the whole loop"
            )
        restarts = report.telemetry["counters"]["worker_restarts"]
        if restarts != 0 or workers["restarts"] != 0:
            violations.append(
                f"{label} run respawned {max(restarts, workers['restarts'])} "
                "worker(s); a healthy load run has zero churn"
            )
        if workers["busy"] != 0:
            violations.append(
                f"{label} run left {workers['busy']} worker(s) busy "
                "after drain"
            )
    # Zero equivalence diffs (cold runs: deterministic, feedback-free).
    for label, (report, _, _) in runs.items():
        if not label.startswith("cold"):
            continue
        diffs = diff_against_serial(database, report)
        for diff in diffs[:5]:
            violations.append(f"{label} equivalence diff: {diff}")
        if len(diffs) > 5:
            violations.append(
                f"... and {len(diffs) - 5} more {label} equivalence diffs"
            )
    return violations


def _timing_violations(runs) -> list[str]:
    """The wall-clock gates: warm QPS at 64 clients neither collapses
    relative to 16 clients nor falls below the absolute floor."""
    low_qps = runs[f"warm@{LOW_CONCURRENCY}"][0].qps
    high_qps = runs[f"warm@{HIGH_CONCURRENCY}"][0].qps
    print(
        f"warm qps: {low_qps:.1f} @ {LOW_CONCURRENCY} clients, "
        f"{high_qps:.1f} @ {HIGH_CONCURRENCY} clients "
        f"(floors {QPS_NOISE_RATIO:.2f}x and {WARM_QPS_FLOOR:.0f} qps)"
    )
    violations = []
    if high_qps < QPS_NOISE_RATIO * low_qps:
        violations.append(
            f"warm qps collapsed with concurrency: {high_qps:.1f} @ "
            f"{HIGH_CONCURRENCY} clients < {QPS_NOISE_RATIO:.2f}x "
            f"{low_qps:.1f} @ {LOW_CONCURRENCY} clients"
        )
    if high_qps < WARM_QPS_FLOOR:
        violations.append(
            f"warm qps {high_qps:.1f} @ {HIGH_CONCURRENCY} clients is "
            f"below the {WARM_QPS_FLOOR:.0f} qps floor"
        )
    return violations


def run_smoke() -> list[str]:
    """Run the worker-tier smoke; returns a list of violations."""
    database = build_synthetic_database(num_rows=NUM_ROWS, seed=SEED)
    pool = _build_pool(database)
    try:
        timing: list[str] = []
        for attempt in range(1, TIMING_ATTEMPTS + 1):
            runs = {}
            for concurrency in (LOW_CONCURRENCY, HIGH_CONCURRENCY):
                runs[f"cold@{concurrency}"] = asyncio.run(
                    _run_load(database, pool, concurrency, warm=False)
                )
                runs[f"warm@{concurrency}"] = asyncio.run(
                    _run_load(database, pool, concurrency, warm=True)
                )
            print(f"--- attempt {attempt}/{TIMING_ATTEMPTS} ---")
            for label, (report, _, _) in runs.items():
                print(f"--- {label} ({WORKERS} workers) ---")
                print(report.render())
            deterministic = _deterministic_violations(database, runs)
            if deterministic:
                return deterministic
            timing = _timing_violations(runs)
            if not timing:
                break
            if attempt < TIMING_ATTEMPTS:
                print("timing gate(s) violated; re-measuring (noisy runner?):")
                for violation in timing:
                    print(f"  ~ {violation}")
        if timing:
            return timing
    finally:
        pool.shutdown()
    leaked = pool.leaked_workers()
    if leaked:
        return [f"shutdown leaked worker process(es): pids {leaked}"]
    return []


def test_smoke_workers() -> None:
    violations = run_smoke()
    assert not violations, "\n".join(violations)


def main() -> int:
    violations = run_smoke()
    if violations:
        print("\nFAIL:")
        for violation in violations:
            print(f"  - {violation}")
        return 1
    print("\nsmoke_workers: all gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
