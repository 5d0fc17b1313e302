"""CI smoke gate: the query service under a 64-client closed loop.

Drives the in-process transport (no sockets — this gates the service
logic, not the kernel's TCP stack) with 64 concurrent closed-loop
clients replaying the Fig. 6-style monitored range workload, and holds
the service to its acceptance bar:

* **zero equivalence diffs** — every response's rows, physical-read
  count, simulated elapsed time and page-count observation fingerprints
  are bit-identical to a fresh serial replay of the same SQL (the
  repository's serial≡concurrent proof);
* **zero leaked admission slots** — every admitted request reaches
  exactly one terminal counter and nothing stays in flight after drain;
* **the oracle still serves** — one one-client pass names
  ``exec_mode="row"`` explicitly, so the reference drive is exercised end
  to end through the service, diffed against its own serial replay; its
  median is also the machine-speed yardstick for the next gate;
* **bounded execution tail** — p99 of per-query *execution* wall-clock
  under the 64-client load (which runs the default, batch, drive) stays
  under ``8x`` the row oracle's serial median.  The yardstick is the
  oracle rather than the batch drive's own serial median so that the
  bound is one a slow service fails: served at oracle speed the same
  load reads ~14-21x (the pre-batch-default smoke), the batch drive
  reads ~0.7-2.4x.  (Total service time under a closed 64-client load is
  Little's-law-bound near ``clients x per-query cost`` no matter the
  policy; what admission control actually guarantees is the execution
  tail, by capping in-flight concurrency.  Queue wait is reported
  separately.)
* **warm beats cold** — a service whose engine was pre-warmed (feedback
  harvested, plan cache populated) serves the same load with lower
  aggregate latency than a cold one: the paper's loop, observed at the
  service boundary.

The first three gates are deterministic and fail the smoke on the spot.
The last two are wall-clock measurements, so a noisy shared CI runner
can violate them without anything being wrong; those gates get up to
``TIMING_ATTEMPTS`` full re-measurements and only fail when every
attempt violates.

Exit status 0/1 so CI can gate on it.  Run directly
(``PYTHONPATH=src python benchmarks/smoke_service.py``) or via pytest
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
from repro.service import QueryService
from repro.workloads import build_synthetic_database

#: Closed-loop clients (each holds exactly one request in flight).
CONCURRENCY = 64

#: Admission: requests running on, or waiting for, the engine thread.
MAX_IN_FLIGHT = 8

#: Admission: waiters the service will park before rejecting.  64 clients
#: minus 8 in flight leaves at most 56 waiting, so nothing is rejected.
MAX_QUEUE_DEPTH = 64

#: Full replays of the workload per load run (pass 0 is cold).
PASSES = 20

#: Execution-tail bound: p99 of batch-drive execution wall-clock under
#: load vs. the *row oracle's* serial median.  Reads 0.7-2.4x (8 in
#: flight contending for one GIL); 8x keeps the ~2.4x headroom the old
#: 50x-of-own-median bound had over its ~21x reading, and a service as
#: slow as that one (14-21x on this yardstick) fails it.
P99_BOUND = 8.0

#: Full re-measurements granted to the wall-clock gates (p99 bound,
#: warm-beats-cold) before they count as failures; deterministic gates
#: (equivalence, slot conservation) are hard on every attempt.
TIMING_ATTEMPTS = 3


async def _oracle_pass(database):
    """A one-client, one-pass cold replay on the row oracle, by name."""
    service = QueryService(Engine(database), max_in_flight=1, max_queue_depth=1)
    report = await run_closed_loop(
        service, LoadSpec(concurrency=1, passes=1, exec_mode="row")
    )
    await service.shutdown()
    bad = [r for r in report.responses if not r.ok]
    if bad:
        raise RuntimeError(
            f"oracle replay failed: {bad[0].error_code} {bad[0].error}"
        )
    return report


async def _run_load(database, warm: bool):
    """One 64-client closed-loop run; ``warm`` pre-harvests feedback."""
    engine = Engine(database)
    if warm:
        for item in workload_items(database, DEFAULT_WORKLOAD_SQL):
            engine.execute(
                WorkloadItem(
                    query=item.query, requests=item.requests, remember=True
                )
            )
    service = QueryService(
        engine,
        max_in_flight=MAX_IN_FLIGHT,
        max_queue_depth=MAX_QUEUE_DEPTH,
    )
    report = await run_closed_loop(
        service,
        LoadSpec(
            concurrency=CONCURRENCY, passes=PASSES, use_feedback=warm
        ),
    )
    snapshot = service.admission.snapshot()
    await service.shutdown()
    return report, snapshot


def _deterministic_violations(
    database, oracle_report, cold_report, warm_report,
    cold_admission, warm_admission,
) -> list[str]:
    """The hard gates: equivalence and slot conservation, no wall clock."""
    violations: list[str] = []

    # Every request must succeed: the queue is sized so the closed loop
    # never overloads, and no deadline is set.
    for label, report in (("cold", cold_report), ("warm", warm_report)):
        statuses = report.status_counts()
        if set(statuses) != {"ok"}:
            violations.append(f"{label} run had non-ok responses: {statuses}")

    # Zero equivalence diffs (cold runs: deterministic, feedback-free),
    # for the loaded batch run and for the oracle pass alike.
    for label, report in (("cold", cold_report), ("oracle", oracle_report)):
        diffs = diff_against_serial(database, report)
        for diff in diffs[:5]:
            violations.append(f"{label} equivalence diff: {diff}")
        if len(diffs) > 5:
            violations.append(
                f"... and {len(diffs) - 5} more {label} equivalence diffs"
            )

    # Zero leaked admission slots.
    for label, report, admission in (
        ("cold", cold_report, cold_admission),
        ("warm", warm_report, warm_admission),
    ):
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
    return violations


def _timing_violations(
    oracle_median, cold_report, warm_report
) -> list[str]:
    """The wall-clock gates: execution tail bound and warm-beats-cold."""
    violations: list[str] = []

    # Bounded execution tail: p99 of execution wall-clock vs the oracle.
    bound_ms = P99_BOUND * oracle_median
    for label, report in (("cold", cold_report), ("warm", warm_report)):
        execution_p99 = report.telemetry["histograms"]["execution_ms"]["p99"]
        print(
            f"{label} execution p99: {execution_p99:.3f} ms "
            f"(bound {bound_ms:.3f} = {P99_BOUND:.0f}x oracle serial median)"
        )
        if execution_p99 >= bound_ms:
            violations.append(
                f"{label} execution p99 {execution_p99:.3f} ms exceeds "
                f"{P99_BOUND:.0f}x oracle serial median ({bound_ms:.3f} ms)"
            )

    # Warm beats cold on aggregate latency.
    cold_mean = cold_report.latency()["mean"]
    warm_mean = warm_report.latency()["mean"]
    print(
        f"aggregate mean latency: cold {cold_mean:.3f} ms, "
        f"warm {warm_mean:.3f} ms"
    )
    if warm_mean >= cold_mean:
        violations.append(
            f"warm service mean latency {warm_mean:.3f} ms is not below "
            f"cold {cold_mean:.3f} ms — warming bought nothing"
        )
    return violations


def run_smoke() -> list[str]:
    """Run the service smoke; returns a list of violations."""
    database = build_synthetic_database(num_rows=20_000, seed=1234)

    timing: list[str] = []
    for attempt in range(1, TIMING_ATTEMPTS + 1):
        oracle_report = asyncio.run(_oracle_pass(database))
        oracle_median = oracle_report.latency()["p50"]
        cold_report, cold_admission = asyncio.run(
            _run_load(database, warm=False)
        )
        warm_report, warm_admission = asyncio.run(
            _run_load(database, warm=True)
        )

        print(f"--- attempt {attempt}/{TIMING_ATTEMPTS} ---")
        print(f"oracle (exec_mode=row) serial median: {oracle_median:.3f} ms")
        print("--- cold service ---")
        print(cold_report.render())
        print("--- warm service (feedback harvested, use_feedback=on) ---")
        print(warm_report.render())

        deterministic = _deterministic_violations(
            database, oracle_report, cold_report, warm_report,
            cold_admission, warm_admission,
        )
        if deterministic:
            return deterministic
        timing = _timing_violations(oracle_median, cold_report, warm_report)
        if not timing:
            return []
        if attempt < TIMING_ATTEMPTS:
            print("timing gate(s) violated; re-measuring (noisy runner?):")
            for violation in timing:
                print(f"  ~ {violation}")
    return timing


def test_smoke_service() -> None:
    violations = run_smoke()
    assert not violations, "\n".join(violations)


def main() -> int:
    violations = run_smoke()
    if violations:
        print("\nFAIL:")
        for violation in violations:
            print(f"  - {violation}")
        return 1
    print("\nsmoke_service: all gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
