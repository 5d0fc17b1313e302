"""Closed-loop load generator for the query service.

Drives a :class:`~repro.service.service.QueryService` the way a fleet of
clients would: ``concurrency`` workers, each holding exactly one request
in flight and issuing the next only after the previous response lands
(a *closed* system — offered load adapts to service latency instead of
piling onto the queue).  The workload is a list of SQL texts replayed
for ``passes`` rounds, so the first round exercises the cold path
(optimizer runs, plan-cache misses) and later rounds the warm path
(cache hits, optionally feedback-informed plans).

What comes back is a :class:`LoadReport`: per-request latency digests
(p50/p95/p99 via :func:`repro.harness.reporting.latency_summary`),
throughput, cold-vs-warm pass digests, the service telemetry snapshot,
and the raw responses in request order so callers can diff them against
a serial replay (:func:`diff_against_serial`).  That diff is the
repository's serial ≡ concurrent proof, made where the concurrency runs:
the service's admission queue and engine thread (and, with a worker
pool, its worker processes) against one engine replaying the same SQL one query at a
time, compared on rows, physical reads, simulated ``elapsed_ms`` and
every observation's
:meth:`~repro.core.requests.PageCountObservation.fingerprint`.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from repro.catalog.catalog import Database
from repro.core.requests import PageCountObservation
from repro.engine import Engine, WorkloadItem
from repro.exec.executor import DEFAULT_EXEC_MODE, EXEC_MODES
from repro.harness.methodology import default_requests
from repro.harness.reporting import format_table, latency_summary, reopt_summary
from repro.harness.timing import Stopwatch
from repro.service.client import TCPClient
from repro.service.protocol import QueryRequest, QueryResponse
from repro.service.service import QueryService
from repro.service.telemetry import leaked_slots_from
from repro.sql import parse_query

#: The Fig. 6-style monitored range workload the service benchmarks replay
#: (same cuts as the plan-cache smoke, phrased as SQL for the wire).
DEFAULT_WORKLOAD_SQL = (
    "SELECT count(padding) FROM t WHERE c2 < 300",
    "SELECT count(padding) FROM t WHERE c2 < 900",
    "SELECT count(padding) FROM t WHERE c3 < 250",
    "SELECT count(padding) FROM t WHERE c4 < 5000",
    "SELECT count(padding) FROM t WHERE c5 < 9000",
)


@dataclass(frozen=True)
class LoadSpec:
    """One closed-loop run: what to replay and how hard."""

    sqls: tuple[str, ...] = DEFAULT_WORKLOAD_SQL
    concurrency: int = 8
    #: Full replays of ``sqls``; pass 0 is the cold pass.
    passes: int = 3
    exec_mode: str = DEFAULT_EXEC_MODE
    use_feedback: bool = False
    monitor: bool = True
    #: Run every request under the mid-query re-optimization watchdog
    #: (needs ``monitor=True`` to have counters to project from).
    reopt: bool = False
    deadline_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.sqls:
            raise ValueError("LoadSpec needs at least one SQL text")
        if self.concurrency <= 0:
            raise ValueError(
                f"concurrency must be positive, got {self.concurrency}"
            )
        if self.passes <= 0:
            raise ValueError(f"passes must be positive, got {self.passes}")
        # Fail fast at spec time rather than per-request inside the loop.
        if self.exec_mode not in EXEC_MODES:
            raise ValueError(
                f"exec_mode must be one of {'|'.join(EXEC_MODES)}, "
                f"got {self.exec_mode!r}"
            )
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ValueError(
                f"deadline_ms must be positive, got {self.deadline_ms}"
            )

    def requests(self) -> list[QueryRequest]:
        """The expanded request list, request_id ``p<pass>-q<index>``."""
        return [
            QueryRequest(
                sql=sql,
                request_id=f"p{p}-q{index}",
                exec_mode=self.exec_mode,
                use_feedback=self.use_feedback,
                monitor=self.monitor,
                reopt=self.reopt,
                deadline_ms=self.deadline_ms,
            )
            for p in range(self.passes)
            for index, sql in enumerate(self.sqls)
        ]


@dataclass
class LoadReport:
    """Everything a closed-loop run observed."""

    spec: LoadSpec
    wall_seconds: float
    #: Responses in request order (pass-major), errors included.
    responses: list[QueryResponse] = field(default_factory=list)
    telemetry: dict[str, Any] = field(default_factory=dict)
    leaked: Optional[str] = None

    @property
    def total_requests(self) -> int:
        return len(self.responses)

    @property
    def ok_count(self) -> int:
        return sum(1 for r in self.responses if r.ok)

    @property
    def qps(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.ok_count / self.wall_seconds

    def status_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for response in self.responses:
            key = "ok" if response.ok else response.error_code
            counts[key] = counts.get(key, 0) + 1
        return counts

    def _pass_responses(self, p: int) -> list[QueryResponse]:
        size = len(self.spec.sqls)
        return self.responses[p * size : (p + 1) * size]

    def latency(self) -> dict[str, float]:
        """service_ms digest over every successful request."""
        return latency_summary(
            [r.service_ms for r in self.responses if r.ok]
        )

    def pass_latency(self, p: int) -> dict[str, float]:
        return latency_summary(
            [r.service_ms for r in self._pass_responses(p) if r.ok]
        )

    def cold_latency(self) -> dict[str, float]:
        return self.pass_latency(0)

    def warm_latency(self) -> dict[str, float]:
        """Digest over every post-warmup (non-first) pass."""
        warm = [
            r
            for p in range(1, self.spec.passes)
            for r in self._pass_responses(p)
            if r.ok
        ]
        return latency_summary([r.service_ms for r in warm])

    def queue_wait(self) -> dict[str, float]:
        return latency_summary(
            [r.queue_wait_ms for r in self.responses if r.ok]
        )

    def render(self) -> str:
        digests = [
            ("all passes", self.latency()),
            ("cold pass", self.cold_latency()),
        ]
        if self.spec.passes > 1:
            digests.append(("warm passes", self.warm_latency()))
        digests.append(("queue wait", self.queue_wait()))
        rows = [
            [label, d["count"], d["mean"], d["p50"], d["p95"], d["p99"], d["max"]]
            for label, d in digests
        ]
        status = " ".join(
            f"{k}={v}" for k, v in sorted(self.status_counts().items())
        )
        lines = [
            f"closed loop: {self.spec.concurrency} client(s), "
            f"{self.total_requests} request(s) in {self.wall_seconds:.3f}s "
            f"({self.qps:.1f} qps)",
            f"statuses: {status}",
        ]
        reopt_line = reopt_summary(self.telemetry.get("counters", {}))
        if reopt_line:
            lines.append(reopt_line)
        lines.append(
            format_table(
                ["latency (ms)", "count", "mean", "p50", "p95", "p99", "max"],
                rows,
            )
        )
        return "\n".join(lines)


async def _drive_workers(worker, count: int) -> None:
    """Run ``count`` copies of ``worker()`` to completion.

    TaskGroup semantics on the 3.10 floor (``asyncio.TaskGroup`` is
    3.11+): if any worker raises, the rest are cancelled and the first
    error propagates.
    """
    tasks = [asyncio.ensure_future(worker()) for _ in range(count)]
    try:
        await asyncio.gather(*tasks)
    finally:
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)


async def run_closed_loop(
    service: QueryService, spec: LoadSpec
) -> LoadReport:
    """Replay ``spec`` against the service with a closed worker pool."""
    requests = spec.requests()
    responses: list[Optional[QueryResponse]] = [None] * len(requests)
    next_index = 0

    async def worker() -> None:
        nonlocal next_index
        while True:
            index = next_index  # single-threaded event loop: no races
            if index >= len(requests):
                return
            next_index = index + 1
            responses[index] = await service.handle(requests[index])

    watch = Stopwatch()
    await _drive_workers(worker, min(spec.concurrency, len(requests)))
    wall_seconds = watch.elapsed_seconds

    missing = [i for i, r in enumerate(responses) if r is None]
    if missing:
        raise RuntimeError(
            f"closed loop lost {len(missing)} response(s) (indices "
            f"{missing[:5]}...) — a worker died without answering"
        )
    return LoadReport(
        spec=spec,
        wall_seconds=wall_seconds,
        responses=[r for r in responses if r is not None],
        telemetry=service.telemetry.snapshot(),
        leaked=service.telemetry.leaked_slots(),
    )


async def run_closed_loop_tcp(
    host: str, port: int, spec: LoadSpec
) -> LoadReport:
    """The same closed loop over real sockets, one connection per client.

    Each worker opens its own NDJSON connection (a connection is a serial
    channel — the server answers in order).  The telemetry snapshot and
    slot audit come from the server's ``stats`` endpoint, so the report
    shape matches :func:`run_closed_loop`.  Note the snapshot covers the
    *server's* lifetime, not just this run.
    """
    requests = spec.requests()
    responses: list[Optional[QueryResponse]] = [None] * len(requests)
    next_index = 0

    async def worker() -> None:
        nonlocal next_index
        async with TCPClient(host, port) as client:
            while True:
                index = next_index
                if index >= len(requests):
                    return
                next_index = index + 1
                responses[index] = await client.query(requests[index])

    watch = Stopwatch()
    await _drive_workers(worker, min(spec.concurrency, len(requests)))
    wall_seconds = watch.elapsed_seconds

    async with TCPClient(host, port) as client:
        stats = await client.stats()
    telemetry = stats.get("telemetry", {})
    return LoadReport(
        spec=spec,
        wall_seconds=wall_seconds,
        responses=[r for r in responses if r is not None],
        telemetry=telemetry,
        leaked=leaked_slots_from(telemetry) if telemetry else None,
    )


# ----------------------------------------------------------------------
# Serial-reference equivalence: serial ≡ concurrent, proven through the
# service.
# ----------------------------------------------------------------------
def workload_items(
    database: Database,
    sqls: Sequence[str],
    exec_mode: str = DEFAULT_EXEC_MODE,
    use_feedback: bool = False,
    monitor: bool = True,
) -> list[WorkloadItem]:
    """The engine-level mirror of a service workload (same monitoring)."""
    items = []
    for sql in sqls:
        query = parse_query(sql)
        items.append(
            WorkloadItem(
                query=query,
                requests=(
                    tuple(default_requests(database, query))
                    if monitor
                    else ()
                ),
                use_feedback=use_feedback,
                exec_mode=exec_mode,
            )
        )
    return items


def diff_against_serial(
    database: Database, report: LoadReport, rows_only: bool = False
) -> list[str]:
    """Diff every service response against a fresh serial replay.

    A brand-new engine replays the workload one query at a time; each
    successful service response (every pass, every client) must carry the
    same rows, physical-read count, simulated ``elapsed_ms`` and
    page-count observations (every field of
    :meth:`~repro.core.requests.PageCountObservation.fingerprint`, so a
    count served from feedback where the replay measured it is a diff) as
    the serial reference for its SQL.  Returns human-readable mismatch
    descriptions — empty means the service changed nothing about what the
    paper's feedback loop observes.

    ``rows_only`` restricts the diff to result rows — the right setting
    when the service ran over a :class:`~repro.shard.ShardCoordinator`:
    N shard B-trees have their own heights, so per-shard physical reads
    legitimately differ from one global file's, and sampled (inexact)
    observations merge statistically rather than bit-identically.  The
    bit-level sharded observation/feedback proof lives in
    :func:`repro.harness.equivalence.compare_sharded_workload`.

    The serial reference always replays with reopt *disabled*.  A
    response whose lifecycle shows a reopt trip is diffed on rows only —
    the switched run's read counts and truncated monitor counters
    legitimately differ, but the answer must not.  Untripped reopt
    responses still face the full bit-level diff, except ``elapsed_ms``:
    an armed watchdog that never fires changes nothing observable but
    the simulated cost of its own checks (the quiet overhead
    ``smoke_reopt.py`` bounds).
    """
    spec = report.spec
    reference_engine = Engine(database)
    items = workload_items(
        database,
        spec.sqls,
        exec_mode=spec.exec_mode,
        use_feedback=spec.use_feedback,
        monitor=spec.monitor,
    )
    reference = reference_engine.run_serial(items)
    diffs: list[str] = []
    size = len(spec.sqls)
    for index, response in enumerate(report.responses):
        if not response.ok:
            continue
        ref = reference[index % size]
        ref_rows = [list(row) for row in ref.result.rows]
        if response.rows != ref_rows:
            diffs.append(
                f"{response.request_id}: rows {response.rows} != serial "
                f"{ref_rows}"
            )
        if rows_only:
            continue
        if response.runstats is None:
            diffs.append(f"{response.request_id}: ok response lost runstats")
            continue
        reopt_episode = (
            (response.runstats.get("lifecycle") or {}).get("reopt") or {}
        )
        if reopt_episode.get("tripped"):
            continue
        runstats, ref_stats = response.runstats, ref.result.runstats
        service_reads = runstats["random_reads"] + runstats["sequential_reads"]
        if service_reads != ref_stats.physical_reads:
            diffs.append(
                f"{response.request_id}: physical reads {service_reads} != "
                f"serial {ref_stats.physical_reads}"
            )
        # Exact on purpose: one plan over cold private frames makes the
        # same charges in the same order, so the simulated time is
        # bit-identical; a tolerance would hide a skipped or doubled charge.
        if (
            not spec.reopt
            and runstats["elapsed_ms"] != ref_stats.elapsed_ms  # lint: disable=R003
        ):
            diffs.append(
                f"{response.request_id}: elapsed_ms {runstats['elapsed_ms']!r} "
                f"!= serial {ref_stats.elapsed_ms!r}"
            )
        served = [
            PageCountObservation.from_wire(entry).fingerprint()
            for entry in runstats["page_counts"]
        ]
        measured = [obs.fingerprint() for obs in ref.observations]
        if served != measured:
            diffs.append(
                f"{response.request_id}: page-count observations {served} "
                f"!= serial {measured}"
            )
    return diffs
