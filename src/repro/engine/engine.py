"""One :class:`Engine` per database: sessions, executions, one feedback store.

The paper's feedback loop (monitor -> remember -> re-optimize) is a
multi-query workflow: execution feedback is collected continuously
across a live workload, not one cold-cache run at a time.  The
per-execution accounting refactor makes that possible — every run
charges its own :class:`~repro.storage.accounting.IOContext` — and this
module packages it:

* :class:`Engine` owns the shared, immutable-after-load
  :class:`~repro.catalog.Database`, one
  :class:`~repro.core.FeedbackStore` and one
  :class:`~repro.lifecycle.PlanCache`, and hands out
  :class:`~repro.session.Session` objects that all read and write them.

* :meth:`Engine.execute` runs one item under a fresh context (its own
  cold buffer frames), so its ``RunStats`` are bit-identical to a serial
  cold-cache run.  The query service queues its clients'
  requests onto one engine thread (and its worker processes);
  ``repro.harness.loadgen.diff_against_serial`` proves a closed loop of
  clients serial-equivalent on rows, reads, simulated time and
  observation fingerprints.

An engine runs **one execution at a time**, so its feedback store and
plan cache hold no locks: they are read and written only on
the thread running that execution (the service's engine thread, or the
caller's).  A second :meth:`~Engine.execute` / :meth:`~Engine.execute_plan`
entered meanwhile raises :class:`~repro.common.errors.EngineError`.
Only :meth:`~Engine.shutdown` may come from another thread.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.catalog.catalog import Database
from repro.common.cancellation import CancellationToken
from repro.common.errors import EngineError
from repro.core.feedback import FeedbackStore
from repro.core.planner import MonitorConfig
from repro.core.requests import PageCountObservation, PageCountRequest
from repro.exec.executor import DEFAULT_EXEC_MODE
from repro.lifecycle.plancache import PlanCache
from repro.optimizer.hints import PlanHint
from repro.optimizer.injection import InjectionSet
from repro.optimizer.optimizer import Query
from repro.optimizer.plans import PlanNode
from repro.session import ExecutedQuery, Session


@dataclass(frozen=True)
class WorkloadItem:
    """One query of a (possibly concurrent) workload."""

    query: Query
    requests: tuple[PageCountRequest, ...] = ()
    use_feedback: bool = False
    hint: Optional[PlanHint] = None
    #: Harvest the run's observations into the engine's feedback store.
    #: Off by default: remembering changes what later
    #: optimizations see, which a pure measurement workload rarely wants.
    remember: bool = False
    #: Drive style for the execution: ``"row"`` or ``"batch"`` (results
    #: are mode-invariant; see :func:`repro.exec.executor.execute`).
    exec_mode: str = DEFAULT_EXEC_MODE
    #: Run under the mid-query re-optimization watchdog
    #: (``Session.run(reopt=True)``).  Off by default: the plain path is
    #: bit-identical to pre-reopt behaviour.
    reopt: bool = False


class Engine:
    """Owns one database and runs one execution at a time."""

    def __init__(
        self,
        database: Database,
        monitor_config: Optional[MonitorConfig] = None,
    ) -> None:
        self.database = database
        self.feedback = FeedbackStore()
        self.monitor_config = (
            monitor_config if monitor_config is not None else MonitorConfig()
        )
        #: Shared by every session this engine hands out: repeated
        #: queries skip the optimize+lint stages while feedback epochs
        #: and statistics versions keep entries provably fresh.
        self.plan_cache = PlanCache()
        #: Lifecycle state: ``shutdown()`` flips ``_closed`` and then (with
        #: ``drain=True``) waits on ``_state`` until ``_active`` (0 or 1)
        #: reaches zero.  ``_state`` guards both, for a shutdown from
        #: another thread.
        self._state = threading.Condition()
        self._closed = False
        self._active = 0

    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """Whether :meth:`shutdown` has been called."""
        with self._state:
            return self._closed

    @property
    def active_executions(self) -> int:
        """Executions currently inside :meth:`execute` (drain watches this)."""
        with self._state:
            return self._active

    def shutdown(self, drain: bool = True, timeout: Optional[float] = None) -> bool:
        """End the engine's lifecycle: no new sessions or executions.

        With ``drain=True`` (the default) the call blocks until every
        in-flight :meth:`execute` finishes — the service layer's graceful
        stop.  ``drain=False`` only flips the flag; in-flight executions
        still complete (cooperative cancellation is the caller's job) but
        the engine stops admitting work immediately.  Idempotent.

        Returns ``True`` when the engine is fully drained on return,
        ``False`` when a ``timeout`` expired (or ``drain=False``) while
        executions were still in flight.
        """
        with self._state:
            self._closed = True
            if not drain:
                return self._active == 0
            return self._state.wait_for(
                lambda: self._active == 0, timeout=timeout
            )

    def _begin_execution(self) -> None:
        with self._state:
            if self._closed:
                raise EngineError(
                    "engine is shut down; execute() rejected "
                    f"({self._active} execution(s) still draining)"
                )
            if self._active:
                raise EngineError(
                    "engine already has an execution in flight; an Engine "
                    "runs one execution at a time (the query service "
                    "queues requests onto its one engine thread)"
                )
            self._active += 1

    def _end_execution(self) -> None:
        with self._state:
            self._active -= 1
            # Only a draining shutdown() ever waits, and it closes first.
            if self._closed:
                self._state.notify_all()

    # ------------------------------------------------------------------
    def session(self, injections: Optional[InjectionSet] = None) -> Session:
        """A new session sharing this engine's database, feedback store
        and plan cache.

        Sessions are cheap; like the state they share, they are used on
        the thread running the engine's executions.  Raises
        :class:`~repro.common.errors.EngineError` once the engine is shut
        down — an engine that stopped serving must not hand out new
        connections.
        """
        with self._state:
            if self._closed:
                raise EngineError(
                    "engine is shut down; session() rejected"
                )
        return Session(
            database=self.database,
            feedback=self.feedback,
            injections=(
                injections.copy() if injections is not None else InjectionSet()
            ),
            monitor_config=self.monitor_config,
            plan_cache=self.plan_cache,
        )

    def execute(
        self,
        item: WorkloadItem,
        session: Optional[Session] = None,
        cancellation: Optional[CancellationToken] = None,
    ) -> ExecutedQuery:
        """Run one workload item under a fresh accounting context.

        The context starts with cold buffer frames of its own, so the
        result is independent of every execution before it.
        :meth:`shutdown` with ``drain=True`` waits for it; a call after
        shutdown or during another execution raises
        :class:`~repro.common.errors.EngineError`.
        """
        session = session if session is not None else self.session()
        self._begin_execution()
        try:
            return session.run(
                item.query,
                requests=item.requests,
                use_feedback=item.use_feedback,
                hint=item.hint,
                io=self.database.new_io_context(),
                remember=item.remember,
                exec_mode=item.exec_mode,
                cancellation=cancellation,
                reopt=item.reopt,
            )
        finally:
            self._end_execution()

    def execute_plan(
        self,
        query: Query,
        plan: PlanNode,
        requests: Sequence[PageCountRequest] = (),
        exec_mode: str = DEFAULT_EXEC_MODE,
        session: Optional[Session] = None,
        cancellation: Optional[CancellationToken] = None,
    ) -> ExecutedQuery:
        """Run an already-optimized plan under lifecycle accounting.

        "Run this plan, cold, with these requests" — the
        one door the §V-B harness (P, then P'), the regret oracle and the
        scatter-gather fan-out all use; a
        :class:`~repro.shard.coordinator.ShardCoordinator` overrides it
        to fan out, and its shard engines run the plan here without
        re-optimizing (their local statistics would re-derive a different
        plan and break shard↔shard comparability).  Like
        :meth:`execute`, the run is registered with the engine lifecycle
        and charges a fresh accounting context.  Feedback is **not**
        harvested here.
        """
        session = session if session is not None else self.session()
        self._begin_execution()
        try:
            return session.run_plan(
                query,
                plan,
                requests=list(requests),
                io=self.database.new_io_context(),
                exec_mode=exec_mode,
                cancellation=cancellation,
            )
        finally:
            self._end_execution()

    # ------------------------------------------------------------------
    def run_serial(self, items: Sequence[WorkloadItem]) -> list[ExecutedQuery]:
        """Execute the workload one item at a time, in order."""
        session = self.session()
        return [self.execute(item, session=session) for item in items]

    # ------------------------------------------------------------------
    def harvest_observations(
        self, observations: Sequence[PageCountObservation]
    ) -> int:
        """Apply one harvested observation batch to the engine's store.

        The coordinator-side entry point for feedback that was collected
        *elsewhere* — by a worker process, travelling back over the
        marshalling protocol, or by a shard fan-out, merged per key: the
        whole batch lands in one :meth:`FeedbackStore.record_observations`
        call on the engine's thread, advancing the epoch exactly once.  A
        batch with zero answerable
        observations is a complete no-op (no epoch bump), so derived
        caches stay valid.  Returns how many observations were stored.
        """
        return self.feedback.record_observations(observations)

    # ------------------------------------------------------------------
    def report(self) -> str:
        """Engine-level health report: plan-cache counters and the shared
        feedback store's epoch — the numbers the repeated-query benchmark
        and the CI plan-cache smoke read off."""
        return (
            f"feedback: {len(self.feedback)} record(s), "
            f"epoch={self.feedback.epoch}\n{self.plan_cache.stats.render()}"
        )
