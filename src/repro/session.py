"""High-level session API: optimize, execute, monitor, feed back.

:class:`Session` is the front door most users (and all examples) go
through.  It ties together a :class:`~repro.catalog.Database`, the
optimizer, the monitor planner and a :class:`~repro.core.FeedbackStore`,
exposing the paper's full loop in three calls:

>>> session = Session(database)
>>> run = session.run(query, requests=[...])        # monitor current plan
>>> session.remember(run)                            # harvest feedback
>>> improved = session.run(query, use_feedback=True) # re-optimized plan

Every ``run``/``optimize`` goes through the staged **query lifecycle**
(:mod:`repro.lifecycle`): canonicalize → plan-cache → optimize → lint →
monitor-plan → execute → harvest.  A standalone session has no plan
cache by default (every optimize is fresh, as before); sessions handed
out by an :class:`~repro.engine.Engine` share the engine's
:class:`~repro.lifecycle.PlanCache`, so repeated queries skip the
optimize and lint stages entirely while feedback epochs guarantee a
cached plan is never stale.  The last run's stage-by-stage record is in
:attr:`Session.last_trace` (and in ``RunStats.render()``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.analysis.findings import Finding
from repro.analysis.planlint import lint_plan
from repro.catalog.catalog import Database
from repro.common.cancellation import CancellationToken
from repro.core.feedback import FeedbackStore
from repro.core.planner import MonitorConfig
from repro.core.requests import PageCountRequest
from repro.exec.executor import DEFAULT_EXEC_MODE
from repro.lifecycle.plan import build_optimizer
from repro.lifecycle.plancache import PlanCache
from repro.lifecycle.runner import ExecutedQuery, LifecycleTrace, QueryLifecycle
from repro.optimizer.hints import PlanHint
from repro.optimizer.injection import InjectionSet
from repro.optimizer.optimizer import Optimizer, Query
from repro.optimizer.plans import PlanNode
from repro.storage.accounting import IOContext

__all__ = ["ExecutedQuery", "Session"]


@dataclass
class Session:
    """One user's connection to the simulated engine."""

    database: Database
    feedback: FeedbackStore = field(default_factory=FeedbackStore)
    injections: InjectionSet = field(default_factory=InjectionSet)
    monitor_config: MonitorConfig = field(default_factory=MonitorConfig)
    #: Every optimized plan is linted (repro.analysis.planlint, P001-P006)
    #: before it reaches the monitor planner.  Findings accumulate in
    #: :attr:`lint_findings`.
    lint_findings: list[Finding] = field(default_factory=list)
    #: Shared plan cache (an Engine wires its own in).  ``None`` means
    #: every optimize is fresh — the plan-cache stage reports "bypassed".
    plan_cache: Optional[PlanCache] = None
    #: Stage-by-stage record of the most recent optimize()/run() call.
    last_trace: Optional[LifecycleTrace] = None

    # ------------------------------------------------------------------
    def lifecycle(self) -> QueryLifecycle:
        """The staged lifecycle bound to this session (cheap to build)."""
        return QueryLifecycle(self)

    def optimizer(
        self,
        use_feedback: bool = False,
        hint: Optional[PlanHint] = None,
        extra_injections: Optional[InjectionSet] = None,
    ) -> Optimizer:
        """A raw optimizer over this session's injections (no caching).

        Prefer :meth:`optimize`/:meth:`run`, which go through the staged
        lifecycle; this accessor exists for explain-style tooling.
        """
        injections = (
            extra_injections if extra_injections is not None else self.injections
        ).copy()
        if use_feedback:
            injections = self.feedback.to_injections(injections)
        return build_optimizer(self.database, injections=injections, hint=hint)

    def optimize(
        self,
        query: Query,
        use_feedback: bool = False,
        hint: Optional[PlanHint] = None,
    ) -> PlanNode:
        """Resolve a plan through the lifecycle's planning stages
        (canonicalize → plan-cache → optimize → lint)."""
        plan, trace = self.lifecycle().plan(
            query, use_feedback=use_feedback, hint=hint
        )
        self.last_trace = trace
        return plan

    def lint(self, plan: PlanNode, injections: InjectionSet) -> None:
        """Lint a plan (lifecycle lint stage) into :attr:`lint_findings`."""
        self.lint_findings.extend(
            lint_plan(plan, self.database, injections=injections)
        )

    # ------------------------------------------------------------------
    def run_plan(
        self,
        query: Query,
        plan: PlanNode,
        requests: Sequence[PageCountRequest] = (),
        io: Optional[IOContext] = None,
        exec_mode: str = DEFAULT_EXEC_MODE,
        cancellation: Optional[CancellationToken] = None,
    ) -> ExecutedQuery:
        """Execute a specific plan, with monitors for ``requests``.

        ``io`` is the execution's accounting context and buffer frames
        (default: a fresh one, a cold cache); pass a context a previous
        run charged to continue it warm.  ``exec_mode``
        picks the chunk-at-a-time batch drive (default) or the row-at-a-time
        reference oracle.  ``cancellation`` opts into cooperative
        cancellation (the executor raises
        :class:`~repro.common.errors.QueryCancelled` at the next page/batch
        boundary after the token is cancelled).
        """
        executed = self.lifecycle().run_plan(
            query,
            plan,
            requests=requests,
            io=io,
            exec_mode=exec_mode,
            cancellation=cancellation,
        )
        self.last_trace = executed.trace
        return executed

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
        reopt: bool = False,
    ) -> ExecutedQuery:
        """The full lifecycle: plan (cached or fresh), execute, and — with
        ``remember=True`` — harvest feedback in the same call.

        With ``reopt=True`` a call that carries page-count requests goes
        through the mid-query re-optimization episode
        (:func:`repro.reopt.run_with_reopt`) instead: the regret watchdog
        observes the monitored scans and may stop, replan, and switch
        plans mid-flight, the episode's outcome landing in
        ``runstats.lifecycle["reopt"]``, with ``cancellation`` governing
        every leg.  Requestless runs have no streaming counters to
        project from, so they stay on the plain path either way; the
        default ``False`` is the exact pre-reopt path.
        """
        if reopt and requests:
            from repro.reopt.episode import run_with_reopt

            return run_with_reopt(
                self,
                query,
                requests=requests,
                use_feedback=use_feedback,
                hint=hint,
                io=io,
                exec_mode=exec_mode,
                cancellation=cancellation,
                remember=remember,
            ).executed
        executed = self.lifecycle().run(
            query,
            requests=requests,
            use_feedback=use_feedback,
            hint=hint,
            io=io,
            remember=remember,
            exec_mode=exec_mode,
            cancellation=cancellation,
        )
        self.last_trace = executed.trace
        return executed

    # ------------------------------------------------------------------
    def remember(self, executed: ExecutedQuery) -> int:
        """Harvest an executed query's page-count feedback; returns the
        number of observations stored (the store serializes the batch,
        so sessions sharing one may call this concurrently)."""
        return self.feedback.record_run(executed.result.runstats)
