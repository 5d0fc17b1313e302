"""The staged query lifecycle: canonicalize → … → execute → harvest.

The paper's exploitation story (§II-C, §V) is a *standing loop*:
monitored executions keep correcting DPC estimates for future queries.
Run at engine scale, that loop has a fixed per-query shape, which this
module makes explicit.  Every query moves through seven named stages:

==============  ========================================================
canonicalize    compute the query's stable cache identity and the set of
                tables it touches
plan-cache      consult the shared :class:`~repro.lifecycle.PlanCache`
                (``hit`` / ``miss`` / ``bypassed``)
optimize        cost-based optimization (skipped on a cache hit)
lint            plan-invariant linting, rules P001–P006 (skipped on a
                hit: the cached plan was linted before publication)
monitor-plan    attach page-count monitors to the chosen plan (a plan
                costed from the feedback store is served the counts
                its own instruments already measured)
execute         run the operator tree under the execution's IOContext
harvest         optionally fold the run's observations back into the
                feedback store (bumping its epoch)
==============  ========================================================

Each stage leaves a :class:`StageRecord` in the run's
:class:`LifecycleTrace`, which is surfaced through
``RunStats.render()``/``to_dict()`` — the observability contract the
repeated-query benchmarks and the CI plan-cache smoke assert against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence, Union

from repro.common.cancellation import CancellationToken
from repro.core.planner import build_executable
from repro.core.requests import PageCountRequest
from repro.exec.base import ExecutionWatchdog
from repro.exec.executor import DEFAULT_EXEC_MODE, QueryResult, execute
from repro.lifecycle.plan import (
    build_optimizer,
    cache_key,
    canonicalize,
    freshness_vector,
)
from repro.optimizer.hints import PlanHint
from repro.optimizer.optimizer import Query
from repro.optimizer.plans import PlanNode
from repro.storage.accounting import IOContext

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (session -> runner)
    from repro.core.feedback import FeedbackStore
    from repro.session import Session

#: Canonical stage order (every trace lists all seven, in this order).
STAGES: tuple[str, ...] = (
    "canonicalize",
    "plan-cache",
    "optimize",
    "lint",
    "monitor-plan",
    "execute",
    "harvest",
)


class StageRecord:
    """One lifecycle stage's outcome.

    ``detail`` may be given as a zero-argument callable; it is formatted
    on the first read, so the warm path never pays for details nobody
    looks at.  The callable must close over values only (never over state
    that changes after the stage ended).
    """

    __slots__ = ("stage", "status", "_detail")

    def __init__(
        self, stage: str, status: str, detail: Union[str, Callable[[], str]] = ""
    ) -> None:
        self.stage = stage
        #: "ok" | "hit" | "miss" | "bypassed" | "skipped"
        self.status = status
        self._detail = detail

    @property
    def detail(self) -> str:
        if not isinstance(self._detail, str):
            self._detail = self._detail()
        return self._detail

    def __repr__(self) -> str:
        return (
            f"StageRecord(stage={self.stage!r}, status={self.status!r}, "
            f"detail={self.detail!r})"
        )

    def render(self) -> str:
        return f"{self.stage}:{self.status}" + (
            f" ({self.detail})" if self.detail else ""
        )


@dataclass
class LifecycleTrace:
    """The observable record of one query's trip through the stages."""

    records: list[StageRecord] = field(default_factory=list)
    #: Plan-cache outcome: "hit", "miss", or "bypassed".
    cache_event: str = "bypassed"

    def record(
        self, stage: str, status: str, detail: Union[str, Callable[[], str]] = ""
    ) -> None:
        self.records.append(StageRecord(stage, status, detail))

    def stage(self, name: str) -> Optional[StageRecord]:
        for entry in self.records:
            if entry.stage == name:
                return entry
        return None

    @property
    def optimized(self) -> bool:
        """Whether this run actually ran the optimizer (cache miss path)."""
        stage = self.stage("optimize")
        return stage is not None and stage.status == "ok"

    def render(self) -> str:
        return " → ".join(f"{r.stage}:{r.status}" for r in self.records)

    def to_dict(self) -> dict[str, Any]:
        return {
            "cache_event": self.cache_event,
            "stages": [
                {"stage": r.stage, "status": r.status, "detail": r.detail}
                for r in self.records
            ],
        }


@dataclass
class ExecutedQuery:
    """A plan, the result of running it, and the lifecycle that chose it."""

    query: Query
    plan: PlanNode
    result: QueryResult
    trace: Optional[LifecycleTrace] = None

    @property
    def elapsed_ms(self) -> float:
        return self.result.elapsed_ms

    @property
    def observations(self):
        return self.result.runstats.observations

    def summary(self) -> str:
        return (
            f"{self.query.describe()}\n"
            f"plan: {self.plan.describe()}\n"
            f"{self.result.runstats.render()}"
        )


class QueryLifecycle:
    """Drives one session's queries through the staged lifecycle.

    Stateless besides the session reference: the interesting state — the
    shared plan cache, the epoch-versioned feedback store — lives on the
    session/engine, so lifecycles are free to construct per call.
    """

    def __init__(self, session: "Session") -> None:
        self.session = session

    # ------------------------------------------------------------------
    # Planning stages: canonicalize → plan-cache → optimize → lint
    # ------------------------------------------------------------------
    def plan(
        self,
        query: Query,
        use_feedback: bool = False,
        hint: Optional[PlanHint] = None,
        trace: Optional[LifecycleTrace] = None,
    ) -> tuple[PlanNode, LifecycleTrace]:
        """Resolve a plan for ``query``, through the cache when possible."""
        session = self.session
        trace = trace if trace is not None else LifecycleTrace()

        canonical = canonicalize(query)
        trace.record(
            "canonicalize",
            "ok",
            lambda: f"key={canonical.key!r} tables={list(canonical.tables)}",
        )

        cache = session.plan_cache
        if cache is None:
            trace.record("plan-cache", "bypassed", "no cache configured")
            trace.cache_event = "bypassed"
            plan_node = self._optimize_and_lint(
                query, use_feedback, hint, trace.records
            )
            return plan_node, trace

        # Freshness first, the store's lowering (on a miss only) second: a
        # write landing in between tags the new plan older than the data
        # it was built from, so the next lookup invalidates it.  A stale
        # plan is never served, and a hit never touches the store.
        freshness = freshness_vector(
            session.database, session.feedback, canonical.tables, use_feedback
        )
        key = cache_key(canonical, session.injections, hint, use_feedback)
        built: list[StageRecord] = []

        def builder() -> PlanNode:
            return self._optimize_and_lint(query, use_feedback, hint, built)

        plan_node, event = cache.get_or_build(key, freshness, builder)
        trace.cache_event = event
        trace.record("plan-cache", event, lambda: f"epochs={list(freshness)}")
        if built:
            trace.records.extend(built)
        else:
            trace.record("optimize", "skipped", f"plan-cache {event}")
            trace.record("lint", "skipped", "linted when first cached")
        return plan_node, trace

    def _optimize_and_lint(
        self,
        query: Query,
        use_feedback: bool,
        hint: Optional[PlanHint],
        records: list[StageRecord],
    ) -> PlanNode:
        session = self.session
        # The session's own set is passed as it is: the optimizer and the
        # linter only look entries up.
        injections = (
            session.feedback.snapshot_injections(session.injections.copy())
            if use_feedback
            else session.injections
        )
        optimizer = build_optimizer(
            session.database, injections=injections, hint=hint
        )
        plan_node = optimizer.optimize(query)
        records.append(
            StageRecord("optimize", "ok", plan_node.describe())
        )
        before = len(session.lint_findings)
        session.lint(plan_node, optimizer.injections)
        found = len(session.lint_findings) - before
        records.append(StageRecord("lint", "ok", f"{found} finding(s)"))
        return plan_node

    # ------------------------------------------------------------------
    # Execution stages: monitor-plan → execute → harvest
    # ------------------------------------------------------------------
    def run(
        self,
        query: Query,
        requests: Sequence[PageCountRequest] = (),
        use_feedback: bool = False,
        hint: Optional[PlanHint] = None,
        io: Optional[IOContext] = None,
        remember: bool = False,
        exec_mode: str = DEFAULT_EXEC_MODE,
        cancellation: Optional[CancellationToken] = None,
    ) -> ExecutedQuery:
        """The full lifecycle: plan (cached or fresh), execute, harvest."""
        plan_node, trace = self.plan(query, use_feedback=use_feedback, hint=hint)
        return self.run_plan(
            query,
            plan_node,
            requests=requests,
            io=io,
            remember=remember,
            trace=trace,
            exec_mode=exec_mode,
            cancellation=cancellation,
            feedback=self.session.feedback if use_feedback else None,
        )

    def run_plan(
        self,
        query: Query,
        plan_node: PlanNode,
        requests: Sequence[PageCountRequest] = (),
        io: Optional[IOContext] = None,
        remember: bool = False,
        trace: Optional[LifecycleTrace] = None,
        exec_mode: str = DEFAULT_EXEC_MODE,
        cancellation: Optional[CancellationToken] = None,
        watchdog: Optional[ExecutionWatchdog] = None,
        feedback: Optional["FeedbackStore"] = None,
    ) -> ExecutedQuery:
        """Execute a specific plan with monitors (stages 5–7 only).

        ``io`` is the execution's accounting context and buffer frames
        (default: a fresh one, a cold cache); pass a context a previous
        run charged to continue it warm.  ``exec_mode``
        selects row-at-a-time or chunk-at-a-time drive (see
        :func:`repro.exec.executor.execute`).  ``cancellation`` threads a
        cooperative-cancellation token into the execute stage; a
        cancelled run raises :class:`~repro.common.errors.QueryCancelled`
        out of this method *before* the harvest stage, so a partial run
        can never bump the feedback store's epoch.  ``watchdog`` is the
        reopt regret watchdog: it is attached to the built operator tree
        (so it sees exactly the monitor bundles the run feeds) and then
        observes every execution checkpoint.  ``feedback`` is the store
        the plan was costed from, if it was: requests its records already
        answer with the instrument this run would attach are served from
        it rather than monitored (:func:`~repro.core.planner.build_executable`).
        """
        session = self.session
        trace = trace if trace is not None else LifecycleTrace()
        build = build_executable(
            plan_node,
            session.database,
            list(requests),
            session.monitor_config,
            feedback=feedback,
        )
        # Formatted here, not on first read: a deferred detail would keep
        # the whole operator tree alive for as long as the trace is.
        summary = build.summary()
        attach = getattr(watchdog, "attach", None)
        if attach is not None:
            summary += f", watchdog on {attach(build.root)} scan(s)"
        trace.record("monitor-plan", "ok", summary)
        result = execute(
            build.root,
            session.database,
            io=io,
            mode=exec_mode,
            cancellation=cancellation,
            watchdog=watchdog,
        )
        result.runstats.observations.extend(build.served)
        result.runstats.observations.extend(build.unanswerable)
        num_rows = len(result.rows)
        physical_reads = result.runstats.physical_reads
        trace.record(
            "execute",
            "ok",
            lambda: f"mode={exec_mode} rows={num_rows} "
            f"physical_reads={physical_reads}",
        )
        executed = ExecutedQuery(
            query=query, plan=plan_node, result=result, trace=trace
        )
        if remember:
            stored = session.remember(executed)
            trace.record("harvest", "ok", f"{stored} observation(s) remembered")
        else:
            trace.record("harvest", "skipped", "remember not requested")
        # What the run reports is fixed here; only its formatting waits
        # for a reader (RunStats.lifecycle resolves the callable once).
        reported = LifecycleTrace(list(trace.records), trace.cache_event)
        counters = (
            session.plan_cache.stats.snapshot()
            if session.plan_cache is not None
            else None
        )

        def lifecycle() -> dict[str, Any]:
            payload = reported.to_dict()
            if counters is not None:
                payload["plan_cache"] = counters
            return payload

        result.runstats.lifecycle = lifecycle
        return executed
