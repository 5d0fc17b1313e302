"""The four benchmark workloads: statement generators, drivers and oracles.

All four run over one database,
``build_synthetic_database(num_rows=20_000, seed=DATA_SEED, with_copy=True)``,
in exec mode ``"batch"`` (today's fastest monitored drive), and all are
**closed loop**: each client sends its next request only after the
previous reply.  The ``--seed`` picks statement literals and the op order;
the program under test only ever receives the generated SQL.

The data itself is pinned.  Seek and join plans, and the pages they read,
depend on where the noisy permutations happen to put rows: ten data seeds
moved ``sim_ms_per_op`` by 15-18 % on the service workloads (its bound is
0.5 %, and the driver takes its spread across seeds).  For the same reason
the seed only moves literals where a row more or less costs simulated
CPU but (almost) never a page: scan cuts, and cuts on the correlated
columns c1/c2.  Literals on the scattered columns c3/c4 are fixed.

Each workload computes its expected answers at set-up with a serial
``exec_mode="row"`` run on a separate :class:`Engine`, asserts its shape
(plan mix, plan-cache behaviour, epoch behaviour) instead of assuming it,
and counts any mismatching, erroring or non-``ok`` op as failed.
"""

from __future__ import annotations

import asyncio
import math
import statistics
import sys
import traceback
from dataclasses import replace
from time import perf_counter
from typing import Any, Optional, Sequence

from repro.common.rng import make_random
from repro.engine import Engine, WorkloadItem
from repro.harness.methodology import default_requests
from repro.optimizer.hints import PlanHint
from repro.service import (
    InProcessClient,
    QueryRequest,
    QueryServer,
    QueryService,
    TCPClient,
)
from repro.sql import parse_query
from repro.workloads import build_synthetic_database

NUM_ROWS = 20_000
DATA_SEED = 2008
EXEC_MODE = "batch"

#: Operators that read every row of the pages they touch; every other
#: leaf operator visits exactly the rows it returns.
_SCAN_SUFFIX = "Scan"


class ShapeError(RuntimeError):
    """A workload's asserted shape does not hold on this checkout."""


class Counters:
    """Exact per-trial sums read off ``RunStats`` (the storage layer's view).

    Summed with ``math.fsum`` at the end: concurrent clients complete in a
    different order every trial, and the sums must not depend on it.
    """

    FIELDS = (
        "sim_ms", "io_ms", "cpu_ms", "physical_reads", "logical_reads",
        "observations", "rows_visited",
    )

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = {name: [] for name in self.FIELDS}

    def add(self, **amounts: float) -> None:
        for name, amount in amounts.items():
            self.samples[name].append(amount)

    def add_runstats(self, runstats: Any) -> None:
        self.add(
            sim_ms=runstats.elapsed_ms, io_ms=runstats.io_ms,
            cpu_ms=runstats.cpu_ms, physical_reads=runstats.physical_reads,
            logical_reads=runstats.logical_reads,
            observations=len(runstats.observations),
        )

    def add_wire(self, runstats: dict[str, Any]) -> None:
        self.add(
            sim_ms=runstats["elapsed_ms"], io_ms=runstats["io_ms"],
            cpu_ms=runstats["cpu_ms"],
            physical_reads=runstats["random_reads"] + runstats["sequential_reads"],
            logical_reads=runstats["logical_reads"],
            observations=len(runstats["page_counts"]),
        )

    def to_dict(self) -> dict[str, float]:
        return {name: math.fsum(values) for name, values in self.samples.items()}


def rows_visited(plan: dict[str, Any], rows_per_page: float) -> float:
    """Table rows the leaf operators of a ``RunStats`` plan dict visited."""
    children = plan.get("children")
    if children:
        return sum(rows_visited(child, rows_per_page) for child in children)
    if plan["operator"].endswith(_SCAN_SUFFIX):
        return plan.get("pages_touched", 0) * rows_per_page
    return plan["actual_rows"]


def observation_signature(observations: Sequence[Any]) -> list[tuple]:
    """``repro.harness.loadgen.observation_signature`` over live objects."""
    return [
        (obs.key, obs.mechanism.value, obs.answered, obs.estimate, obs.exact)
        for obs in observations
    ]


def build_sequence(seed: int, name: str, statements: int, ops: int) -> list[int]:
    """Seeded op order: whole shuffled passes over the statements."""
    rng = make_random(seed, "perf-sequence", name)
    sequence: list[int] = []
    while len(sequence) < ops:
        one_pass = list(range(statements))
        rng.shuffle(one_pass)
        sequence.extend(one_pass)
    return sequence[:ops]


def _cut(rng: Any, low: float, high: float) -> int:
    """A literal ``v`` so that ``ci < v`` selects a share in [low, high]."""
    return max(1, round(rng.uniform(low, high) * NUM_ROWS))


def _row_jitter(rng: Any, column: str) -> int:
    """0..2 extra rows on the correlated columns, none on scattered ones."""
    return rng.randint(0, 2) if column in ("c1", "c2") else 0


class Workload:
    """Set-up, one fixed op sequence, and a trial runner."""

    name = ""
    ops_per_trial = 0
    #: Closed-loop clients of the end-to-end run.
    clients = 1
    transport = "in-process call"
    #: Plan with the engine's remembered feedback folded in.
    use_feedback = False

    def __init__(self, seed: int, quick: bool = False) -> None:
        self.ops = max(8, self.ops_per_trial // 20) if quick else self.ops_per_trial
        self.database = build_synthetic_database(
            num_rows=NUM_ROWS, seed=DATA_SEED, with_copy=True
        )
        table = self.database.table("t")
        self.rows_per_page = table.num_rows / table.num_pages
        self.engine = Engine(self.database)
        self.sqls = self.statements(make_random(seed, "perf-statements", self.name))
        self.queries = [parse_query(sql) for sql in self.sqls]
        self.requests = [
            tuple(default_requests(self.database, query)) for query in self.queries
        ]
        self.sequence = build_sequence(seed, self.name, len(self.sqls), self.ops)
        self.shape: dict[str, Any] = {}
        self._first_failure_shown = False

    # -- what a subclass provides --------------------------------------
    def statements(self, rng: Any) -> list[str]:
        raise NotImplementedError

    def prepare(self) -> None:
        """Reference answers, warm state, shape assertions."""
        raise NotImplementedError

    def run_trial(
        self,
        ops: Optional[int] = None,
        clients: Optional[int] = None,
        windows: Optional[list[tuple[float, float]]] = None,
        visit_rows: bool = False,
    ) -> dict[str, Any]:
        """Run the first ``ops`` ops of the sequence once.

        ``windows`` (traced trials) receives each op's client-observed
        ``(start, end)``; ``visit_rows`` also walks each plan's operator
        stats for ``exec.rows_per_s``.
        """
        raise NotImplementedError

    def monitored_plans(self) -> list[tuple[Any, Any, tuple]]:
        """``(query, steady-state plan, monitor requests)`` per statement."""
        session = self.engine.session()
        return [
            (query, session.optimize(query, use_feedback=self.use_feedback), requests)
            for query, requests in zip(self.queries, self.requests)
        ]

    def finish(self) -> list[str]:
        """Tear down; returns problems (leaked slots, unclean stop)."""
        return []

    # -- shared helpers -------------------------------------------------
    def report_failure(self, slot: int, what: str) -> None:
        if not self._first_failure_shown:
            self._first_failure_shown = True
            print(
                f"{self.name}: op slot {slot} failed: {what}", file=sys.stderr
            )

    def cache_and_epoch(self) -> tuple[dict[str, Any], int]:
        return self.engine.plan_cache.stats.snapshot(), self.engine.feedback.epoch

    def trial_result(
        self,
        wall_s: float,
        latency_ms: list[Optional[float]],
        counters: Counters,
        before: tuple[dict[str, Any], int],
        **extra: Any,
    ) -> dict[str, Any]:
        cache_before, epoch_before = before
        cache_after, epoch_after = self.cache_and_epoch()
        return {
            "wall_s": wall_s,
            "attempted": len(latency_ms),
            "failed": sum(1 for value in latency_ms if value is None),
            "latency_ms": latency_ms,
            "counters": counters.to_dict(),
            "plan_cache": {
                key: cache_after[key] - cache_before[key]
                for key in ("hits", "misses", "invalidations")
            },
            "epoch_bumps": epoch_after - epoch_before,
            **extra,
        }


# ----------------------------------------------------------------------
# In-process pipeline workloads: Engine.execute(WorkloadItem(...))
# ----------------------------------------------------------------------
class PipelineWorkload(Workload):
    remember_warm_pass = False

    def prepare(self) -> None:
        self.items = [
            WorkloadItem(
                query=query, requests=requests,
                use_feedback=self.use_feedback, exec_mode=EXEC_MODE,
            )
            for query, requests in zip(self.queries, self.requests)
        ]
        # The reference replays the same protocol serially in row mode, so
        # with feedback it reaches the same store state and the same plans.
        reference = Engine(self.database)
        row_items = [replace(item, exec_mode="row") for item in self.items]
        if self.remember_warm_pass:
            for engine, items in ((reference, row_items), (self.engine, self.items)):
                for item in items:
                    engine.execute(replace(item, remember=True))
        self.expected = []
        for item in row_items:
            executed = reference.execute(item)
            self.expected.append(
                (executed.result.rows, observation_signature(executed.observations))
            )
        self.plans = [self.engine.execute(item).plan for item in self.items]
        self.check_shape()

    def check_shape(self) -> None:
        raise NotImplementedError

    def run_trial(self, ops=None, clients=None, windows=None, visit_rows=False):
        sequence = self.sequence[: ops or self.ops]
        engine, items, expected = self.engine, self.items, self.expected
        counters = Counters()
        latency_ms: list[Optional[float]] = [None] * len(sequence)
        before = self.cache_and_epoch()
        begin = perf_counter()
        for slot, index in enumerate(sequence):
            start = perf_counter()
            try:
                executed = engine.execute(items[index])
            except Exception:  # noqa: BLE001 - a failed op, not a failed run
                self.report_failure(slot, traceback.format_exc())
                executed = None
            end = perf_counter()
            if windows is not None:
                windows.append((start, end))
            if executed is None:
                continue
            rows, signature = expected[index]
            result = executed.result
            if (
                result.rows != rows
                or observation_signature(result.runstats.observations) != signature
            ):
                self.report_failure(slot, f"result mismatch on {self.sqls[index]}")
                continue
            latency_ms[slot] = (end - start) * 1000.0
            counters.add_runstats(result.runstats)
            if visit_rows:
                counters.add(rows_visited=rows_visited(
                    result.runstats.root.to_dict(), self.rows_per_page
                ))
        wall_s = perf_counter() - begin
        return self.trial_result(wall_s, latency_ms, counters, before)


class PipelineScan(PipelineWorkload):
    """Monitored Fig. 6/7 range scans plus Fig. 9 conjunctions.

    Why: scan drive, predicate kernels, scan monitors and IOContext
    charging are ~96 % of the op, everything else ~4 %.
    """

    name = "pipeline_scan"
    ops_per_trial = 800  # 20 passes over 40 statements

    def statements(self, rng):
        sqls = []
        # 32 single-term range predicates, 8 per column, one per stratum of
        # the 1-10 % selectivity range: every seed gets the same mix.
        for column in ("c2", "c3", "c4", "c5"):
            for stratum in range(8):
                low = 0.01 + 0.09 * stratum / 8
                value = _cut(rng, low, low + 0.09 / 8)
                sqls.append(f"SELECT count(padding) FROM t WHERE {column} < {value}")
        # 8 conjunctions at 50 % per term: the heavy class (DPSample on the
        # non-prefix terms) that puts latency_p95_ms on real work.  Their
        # literals are fixed: p95 sits inside this class, and how far a
        # conjunction short-circuits moves its cost by more than the noise.
        for columns in (
            ("c2", "c3"), ("c3", "c4"), ("c4", "c5"), ("c5", "c2"),
            ("c2", "c3", "c4"), ("c3", "c4", "c5"), ("c4", "c5", "c2"),
            ("c5", "c2", "c3"),
        ):
            terms = " AND ".join(f"{column} < {NUM_ROWS // 2}" for column in columns)
            sqls.append(f"SELECT count(padding) FROM t WHERE {terms}")
        return sqls

    def check_shape(self) -> None:
        methods = [plan.access_method() for plan in self.plans]
        scans = sum(1 for method in methods if method.startswith("SeqScan"))
        self.shape = {"statements": len(methods), "seq_scan_plans": scans}
        if scans != len(methods):
            raise ShapeError(f"{self.name}: expected only SeqScan plans: {methods}")


class PipelineJoin(PipelineWorkload):
    """Fig. 8 ``t1 JOIN t`` statements planned with remembered feedback.

    Why: the same exec layer used differently - exec/joins.py, seek+fetch,
    bit-vector-filter and linear-counting monitors - so a scan gain that
    costs the join path shows here.
    """

    name = "pipeline_join"
    ops_per_trial = 800  # 40 passes over 20 statements
    use_feedback = True
    remember_warm_pass = True

    #: Outer selectivities per join column, remembered in this order.  A
    #: join's page-count feedback is keyed by the join predicate alone, so
    #: after the warm pass every statement on a column is costed with the
    #: DPC its *last* (largest) statement observed: c3..c5 then always hash,
    #: and c2 (correlated, few pages either way) runs INL below ~3.5 %.
    #: The strata stay clear of that crossover so the mix (6 INL, 14 hash)
    #: does not flip with the seed.
    STRATA = {
        "c2": (0.004, 0.008, 0.012, 0.016, 0.020, 0.025, 0.060, 0.080),
        "c3": (0.010, 0.020, 0.040, 0.080),
        "c4": (0.010, 0.020, 0.040, 0.080),
        "c5": (0.010, 0.020, 0.040, 0.080),
    }

    def statements(self, rng):
        return [
            "SELECT count(t.padding) FROM t1, t "
            f"WHERE t1.c1 < {_cut(rng, 0.995 * target, 1.005 * target)} "
            f"AND t1.{column} = t.{column}"
            for column, targets in self.STRATA.items()
            for target in targets
        ]

    def check_shape(self) -> None:
        kinds = [type(plan.children()[0]).__name__ for plan in self.plans]
        inl = kinds.count("INLJoinPlan") / len(kinds)
        hashed = kinds.count("HashJoinPlan") / len(kinds)
        self.shape = {
            "statements": len(kinds), "inl_join_share": inl,
            "hash_join_share": hashed,
        }
        if inl < 0.25 or hashed < 0.25:
            raise ShapeError(
                f"{self.name}: need >= 25 % INLJoin and >= 25 % HashJoin "
                f"plans, got {kinds}"
            )


# ----------------------------------------------------------------------
# Service workloads: QueryService behind a client
# ----------------------------------------------------------------------
class ServiceWorkload(Workload):
    remember = False
    max_in_flight = 1

    def prepare(self) -> None:
        reference = Engine(self.database)
        self.expected = [
            [
                list(row)
                for row in reference.execute(
                    WorkloadItem(query=query, requests=requests, exec_mode="row")
                ).result.rows
            ]
            for query, requests in zip(self.queries, self.requests)
        ]
        self.warm_engine()
        self.slot_requests = [
            QueryRequest(
                sql=self.sqls[index], request_id=str(slot), exec_mode=EXEC_MODE,
                use_feedback=True, remember=self.remember, monitor=True,
            )
            for slot, index in enumerate(self.sequence)
        ]
        self.loop = asyncio.new_event_loop()
        self.service = QueryService(
            self.engine, max_in_flight=self.max_in_flight, max_queue_depth=8
        )
        self.connections: list[Any] = []
        self.loop.run_until_complete(self.connect())
        self.check_shape()

    def warm_engine(self) -> None:
        """Engine state the timed requests should find (default: cold)."""

    async def connect(self) -> None:
        raise NotImplementedError

    async def disconnect(self) -> None:
        raise NotImplementedError

    def check_shape(self) -> None:
        raise NotImplementedError

    def run_trial(self, ops=None, clients=None, windows=None, visit_rows=False):
        count = ops or self.ops
        clients = clients or self.clients
        counters = Counters()
        latency_ms: list[Optional[float]] = [None] * count
        queue_wait_ms: list[float] = []
        cache_events: list[str] = []
        transport_ms = 0.0
        rejected_before = self.service.telemetry.counter("rejected")

        async def client_loop(connection: Any, slots: range) -> None:
            nonlocal transport_ms
            for slot in slots:
                request = self.slot_requests[slot]
                start = perf_counter()
                try:
                    response = await connection.query(request)
                except Exception:  # noqa: BLE001 - a failed op, not a failed run
                    self.report_failure(slot, traceback.format_exc())
                    response = None
                end = perf_counter()
                if windows is not None:
                    windows.append((start, end))
                if response is None:
                    continue
                if not response.ok:
                    self.report_failure(
                        slot, f"{response.error_code}: {response.error}"
                    )
                    continue
                if response.rows != self.expected[self.sequence[slot]]:
                    self.report_failure(slot, f"rows mismatch on {request.sql}")
                    continue
                elapsed_ms = (end - start) * 1000.0
                latency_ms[slot] = elapsed_ms
                runstats = response.runstats
                counters.add_wire(runstats)
                queue_wait_ms.append(response.queue_wait_ms)
                transport_ms += elapsed_ms - response.service_ms
                cache_events.append(runstats["lifecycle"]["cache_event"])
                if visit_rows:
                    counters.add(rows_visited=rows_visited(
                        runstats["plan"], self.rows_per_page
                    ))

        async def drive() -> float:
            begin = perf_counter()
            # Static partition: slot i always belongs to client i % clients,
            # so a slot is the same request from the same client every trial.
            await asyncio.gather(*(
                client_loop(self.connections[k], range(k, count, clients))
                for k in range(clients)
            ))
            return perf_counter() - begin

        before = self.cache_and_epoch()
        wall_s = self.loop.run_until_complete(drive())
        return self.trial_result(
            wall_s, latency_ms, counters, before,
            queue_wait_ms=queue_wait_ms,
            transport_ms=transport_ms,
            cache_hits_seen=cache_events.count("hit"),
            rejected=self.service.telemetry.counter("rejected") - rejected_before,
        )

    def finish(self) -> list[str]:
        problems = []
        try:
            self.loop.run_until_complete(self.disconnect())
        except Exception:  # noqa: BLE001 - reported as a problem below
            problems.append(f"unclean stop: {traceback.format_exc()}")
        finally:
            self.loop.close()
        leaked = self.service.telemetry.leaked_slots()
        if leaked is not None:
            problems.append(f"leaked admission slot: {leaked}")
        if not self.engine.closed:
            problems.append("engine still open after service shutdown")
        return problems


class SvcPointWarm(ServiceWorkload):
    """Tiny plan-cache-hit seeks over TCP from 2 closed-loop clients.

    Why: exec is only ~15 % of the op; protocol decode/encode, SQL parse,
    canonicalize + cache lookup, build_executable, admission, the executor
    hop, RunStats.to_dict and TCP framing are the rest - the per-request
    path, under the only contention a 2-vCPU box allows.
    """

    name = "svc_point_warm"
    ops_per_trial = 8000  # 500 passes over 16 statements
    clients = 2
    max_in_flight = 2
    transport = "TCP loopback"
    use_feedback = True

    def statements(self, rng):
        return [
            "SELECT count(padding) FROM t "
            f"WHERE {column} < {value + _row_jitter(rng, column)}"
            for column in ("c1", "c2", "c3", "c4")
            for value in (5, 10, 20, 40)
        ]

    def warm_engine(self) -> None:
        for query, requests in zip(self.queries, self.requests):
            self.engine.execute(WorkloadItem(
                query=query, requests=requests, remember=True, exec_mode=EXEC_MODE,
            ))

    async def connect(self) -> None:
        self.server = QueryServer(self.service)
        host, port = await self.server.start()
        for _ in range(self.clients):
            self.connections.append(await TCPClient(host, port).connect())

    async def disconnect(self) -> None:
        for connection in self.connections:
            await connection.close()
        await self.server.stop()

    def check_shape(self) -> None:
        self.run_trial(ops=len(self.sqls), clients=1)  # fills the plan cache
        trial = self.run_trial(ops=min(self.ops, 10 * len(self.sqls)))
        self.shape = {
            "requests_checked": trial["attempted"],
            "plan_cache_hits": trial["cache_hits_seen"],
            "epoch_bumps": trial["epoch_bumps"],
        }
        if trial["failed"] or trial["cache_hits_seen"] != trial["attempted"]:
            raise ShapeError(
                f"{self.name}: every warm request must be a plan-cache hit: "
                f"{self.shape}"
            )
        if trial["epoch_bumps"]:
            raise ShapeError(f"{self.name}: read-only workload bumped the epoch")


class SvcFeedbackChurn(ServiceWorkload):
    """One in-process client whose every request remembers its feedback.

    Why: each harvest bumps the epoch and invalidates the plan cache, so
    the next request re-optimizes, re-lints and re-snapshots injections -
    the write side of the lifecycle / plan-cache / feedback layers that
    svc_point_warm only reads.  One writer keeps the epoch evolution, and
    with it sim_ms_per_op, exact.
    """

    name = "svc_feedback_churn"
    ops_per_trial = 6000  # 125 passes over 48 statements
    remember = True
    use_feedback = True

    def statements(self, rng):
        cuts = {
            column: [20 * step + _row_jitter(rng, column) for step in range(1, 9)]
            for column in ("c2", "c3", "c4")
        }
        seeks = [
            f"SELECT count(padding) FROM t WHERE {column} < {value}"
            for column, values in cuts.items()
            for value in values
        ]
        joins = [
            "SELECT count(t.padding) FROM t1, t "
            f"WHERE t1.c1 < {value} AND t1.{column} = t.{column}"
            for column, values in cuts.items()
            for value in values
        ]
        return seeks + joins

    async def connect(self) -> None:
        self.connections.append(InProcessClient(self.service))

    async def disconnect(self) -> None:
        await self.service.shutdown()

    def check_shape(self) -> None:
        trial = self.run_trial(ops=min(self.ops, 2 * len(self.sqls)))
        self.shape = {
            "requests_checked": trial["attempted"],
            "epoch_bumps": trial["epoch_bumps"],
            "plan_cache_hits": trial["cache_hits_seen"],
        }
        if trial["failed"] or trial["epoch_bumps"] != trial["attempted"]:
            raise ShapeError(
                f"{self.name}: every request must bump the feedback epoch: "
                f"{self.shape}"
            )


WORKLOAD_CLASSES = {
    cls.name: cls
    for cls in (PipelineScan, PipelineJoin, SvcPointWarm, SvcFeedbackChurn)
}


# ----------------------------------------------------------------------
# Fixed side measurements of the traced run (no hooks involved)
# ----------------------------------------------------------------------
def monitor_overhead(workload: Workload) -> dict[str, float]:
    """Monitored vs ``requests=()`` execution of the same plans.

    Per statement the two variants alternate and each keeps its median
    wall; the simulated clock is exact, so one sample of it suffices.
    Both overheads use the unmonitored run as their base.
    """
    engine = workload.engine
    wall = {True: 0.0, False: 0.0}
    sim = {True: 0.0, False: 0.0}
    for query, plan, requests in workload.monitored_plans():
        samples: dict[bool, list[float]] = {True: [], False: []}
        repetitions = 5
        done = 0
        while done < repetitions:
            for monitored in (True, False):
                start = perf_counter()
                executed = engine.execute_plan(
                    query, plan, requests if monitored else (), exec_mode=EXEC_MODE
                )
                samples[monitored].append(perf_counter() - start)
                if done == 0:
                    sim[monitored] += executed.result.runstats.elapsed_ms
            done += 1
            if done == 1:  # cheap statements get more repetitions
                repetitions = max(5, min(40, int(0.02 / samples[False][0])))
        for monitored in (True, False):
            wall[monitored] += statistics.median(samples[monitored])
    return {
        "core.monitors.wall_overhead_pct": 100.0 * (wall[True] - wall[False])
        / wall[False],
        "core.monitors.sim_overhead_pct": 100.0 * (sim[True] - sim[False])
        / sim[False],
    }


def scan_rates(workload: Workload) -> dict[str, float]:
    """Rows/s of one fixed unmonitored full scan of ``t`` in each exec mode."""
    engine = Engine(workload.database)
    query = parse_query(f"SELECT count(padding) FROM t WHERE c5 < {NUM_ROWS}")
    plan = engine.session().optimize(query, hint=PlanHint("table_scan"))
    rates = {}
    for mode in ("row", "batch", "columnar"):
        samples = []
        for _ in range(10):
            start = perf_counter()
            executed = engine.execute_plan(query, plan, (), exec_mode=mode)
            samples.append(perf_counter() - start)
            if executed.result.rows != [(NUM_ROWS,)]:
                raise ShapeError(f"full scan in {mode} mode returned a wrong count")
        rates[f"exec.scan_rows_per_s.{mode}"] = NUM_ROWS / statistics.median(samples)
    return rates
