"""The re-optimization episode: run, trip, harvest, replan, switch.

:func:`run_with_reopt` wraps one query's lifecycle in the mid-query
re-optimization state machine::

    execute ──(no trip)──────────────────────────────▶ done
       │
       └─(ReoptRequested at a checkpoint)─▶ harvest partial actuals
                                               │ (epoch-free ingest)
                                               ▼
                                            replan (cache bypassed,
                                               partial bounds injected)
                                               │
                               ┌───────────────┴──────────────┐
                               ▼                              ▼
                            resume                         restart
                    (replay boundary legal:          (new plan, from the
                     count the unscanned              top, same warm
                     suffix and add the               IOContext)
                     consumed prefix's rows)

    Every transition is a StageRecord in the session's lifecycle trace:
    reopt-trip → reopt-harvest → reopt-replan → reopt-resume|reopt-restart.

The second leg always runs watchdog-free, so an episode performs at most
one trip and terminates by construction.  Both legs run under the
caller's cancellation token, so a deadline covers the whole episode,
switched leg included.  Both legs share one IOContext:
the switched run inherits the warm buffer frames the cancelled prefix
paid for (exactly what a real mid-query switch would see), and the final
``RunStats.elapsed_ms`` is the episode's total —
``T_partial + T_replan + T_new`` — which is what the A/B harness
compares against the unswitched plan's full cost.

The replan deliberately bypasses the plan cache: a plan optimized from
partial lower bounds must never be published under a cache key that
outlives them (partial ingests do not bump feedback epochs, so cached
plans' freshness vectors still describe the last *complete* harvest).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from repro.common.cancellation import CancellationToken
from repro.common.errors import ReoptRequested
from repro.core.requests import PageCountRequest
from repro.exec.executor import DEFAULT_EXEC_MODE, QueryResult
from repro.lifecycle.plan import build_optimizer
from repro.lifecycle.runner import ExecutedQuery
from repro.optimizer.hints import PlanHint
from repro.optimizer.optimizer import Query, SingleTableQuery
from repro.optimizer.plans import CountPlan, PlanNode, SeqScanPlan
from repro.reopt.harvest import harvest_partials
from repro.reopt.watchdog import RegretWatchdog, WatchTarget
from repro.sql.predicates import Comparison, Conjunction
from repro.storage.accounting import IOContext

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (session -> reopt)
    from repro.session import Session

#: Simulated cost of the mid-flight re-optimization itself, charged to
#: the episode's IOContext so ``T_switch`` honestly includes ``T_replan``.
REPLAN_COST_MS = 0.5


@dataclass
class ReoptEpisode:
    """What one reopt-wrapped execution did, for telemetry and reports."""

    executed: ExecutedQuery
    tripped: bool = False
    #: The replan chose a different plan than the one that tripped.
    switched: bool = False
    #: The episode replayed the unscanned suffix instead of restarting.
    resumed: bool = False
    #: Tripped, replanned — and re-chose the same plan (wasted work).
    false_trip: bool = False
    trip_detail: str = ""
    partials_recorded: int = 0
    original_plan: Optional[PlanNode] = None
    final_plan: Optional[PlanNode] = None

    def to_dict(self) -> dict:
        return {
            "tripped": self.tripped,
            "switched": self.switched,
            "resumed": self.resumed,
            "false_trip": self.false_trip,
            "trip_detail": self.trip_detail,
            "partials_recorded": self.partials_recorded,
        }


def _resume_remainder(
    query: Query,
    plan: PlanNode,
    watchdog: RegretWatchdog,
    exec_mode: str,
) -> Optional[tuple[WatchTarget, SingleTableQuery]]:
    """The replayable-suffix query, when the consumed prefix is replayable.

    Resume is legal only for the shape whose partial work is a pure
    prefix count: ``COUNT(*)`` over a full scan of a table clustered on
    a unique single-column key, stopped at a page boundary by the
    batch drive.  Then the scan's emitted-row counter *is* the
    count over ``key <= resume_key``, and the remainder is the original
    predicate AND ``key > resume_key`` — no row can be missed or counted
    twice.  ``COUNT(column)`` shapes are excluded (the scan counter
    counts matching rows, not non-null values of the column), as is the
    row drive (it records no replay boundary).
    """
    if exec_mode == "row":
        return None
    if not isinstance(query, SingleTableQuery) or query.count_column is not None:
        return None
    if not isinstance(plan, CountPlan) or not isinstance(plan.child, SeqScanPlan):
        return None
    if plan.child.table != query.table:
        return None
    target = watchdog.resume_target()
    if target is None or target.table_name != query.table:
        return None
    key_column = target.resume_key_column
    resume_key = target.operator.resume_key  # type: ignore[attr-defined]
    assert key_column is not None
    remainder = SingleTableQuery(
        table=query.table,
        predicate=Conjunction(
            query.predicate.terms + (Comparison(key_column, ">", resume_key),)
        ),
        count_column=None,
    )
    return target, remainder


def run_with_reopt(
    session: "Session",
    query: Query,
    requests: Sequence[PageCountRequest] = (),
    use_feedback: bool = False,
    hint: Optional[PlanHint] = None,
    io: Optional[IOContext] = None,
    exec_mode: str = DEFAULT_EXEC_MODE,
    cancellation: Optional[CancellationToken] = None,
    remember: bool = False,
) -> ReoptEpisode:
    """Run ``query`` under the regret watchdog; switch plans on a trip.

    ``cancellation`` may carry the caller's deadline token.  It governs
    every leg: each checkpoint consults it before the watchdog, so a
    deadline landing on the trip boundary surfaces as a plain
    :class:`~repro.common.errors.QueryCancelled`, and the switched leg
    (resume or restart) stops at its next checkpoint once the token is
    cancelled.  A caller cancel propagates exactly as it would without
    the watchdog; it is never re-typed as a trip.  The switched leg runs
    watchdog-free, which bounds an episode at one trip.
    """
    lifecycle = session.lifecycle()
    plan_node, trace = lifecycle.plan(query, use_feedback=use_feedback, hint=hint)
    session.last_trace = trace

    # Baselines are the estimates the chosen plan was built from: the
    # lowering a plan-cache miss optimizes from (plus any epoch-free
    # partial bounds written since the plan was cached).
    baseline_injections = session.injections.copy()
    if use_feedback:
        session.feedback.snapshot_injections(baseline_injections)

    watchdog = RegretWatchdog(session.database, injections=baseline_injections)
    if io is None:
        io = session.database.new_io_context()

    try:
        executed = lifecycle.run_plan(
            query,
            plan_node,
            requests=requests,
            io=io,
            remember=remember,
            trace=trace,
            exec_mode=exec_mode,
            cancellation=cancellation,
            watchdog=watchdog,
            feedback=session.feedback if use_feedback else None,
        )
        episode = ReoptEpisode(
            executed=executed,
            original_plan=plan_node,
            final_plan=plan_node,
        )
        executed.result.runstats.lifecycle["reopt"] = episode.to_dict()
        return episode
    except ReoptRequested:
        pass  # fall through to the switch path below

    trace.record("execute", "cancelled", watchdog.trip_detail)
    trace.record("reopt-trip", "ok", watchdog.trip_detail)

    partials = harvest_partials(watchdog)
    stored = session.feedback.record_partial_observations(partials)
    trace.record(
        "reopt-harvest",
        "ok",
        f"{stored} partial lower bound(s), epoch untouched",
    )

    # Replan with the partial bounds injected, bypassing the plan cache:
    # lower-bound plans must never be published for other queries.
    io.cpu_ms += REPLAN_COST_MS
    replan_injections = session.feedback.to_injections(session.injections.copy())
    optimizer = build_optimizer(
        session.database, injections=replan_injections, hint=hint
    )
    new_plan = optimizer.optimize(query)
    switched = new_plan.signature() != plan_node.signature()
    trace.record(
        "reopt-replan",
        "ok",
        f"cache=bypassed switched={switched} plan={new_plan.describe()}",
    )

    episode = ReoptEpisode(
        executed=None,  # type: ignore[arg-type]  # set below
        tripped=True,
        switched=switched,
        false_trip=not switched,
        trip_detail=watchdog.trip_detail,
        partials_recorded=stored,
        original_plan=plan_node,
    )

    resumable = _resume_remainder(query, plan_node, watchdog, exec_mode)
    if resumable is not None:
        target, remainder_query = resumable
        prefix_rows = target.operator.stats.actual_rows
        remainder_plan = optimizer.optimize(remainder_query)
        trace.record(
            "reopt-resume",
            "ok",
            f"prefix: {target.pages_seen} page(s), {prefix_rows} row(s); "
            f"remainder plan: {remainder_plan.describe()}",
        )
        executed = lifecycle.run_plan(
            remainder_query,
            remainder_plan,
            requests=(),
            io=io,
            remember=False,
            trace=trace,
            exec_mode=exec_mode,
            cancellation=cancellation,
        )
        total = prefix_rows + int(executed.result.scalar())
        executed = ExecutedQuery(
            query=query,
            plan=remainder_plan,
            result=QueryResult(
                rows=[(total,)],
                runstats=executed.result.runstats,
                columns=executed.result.columns,
            ),
            trace=trace,
        )
        episode.resumed = True
        episode.final_plan = remainder_plan
    else:
        trace.record(
            "reopt-restart",
            "ok",
            f"from the top under {new_plan.describe()}",
        )
        # The replan was costed from the store; its partial lower bounds
        # are never served.
        executed = lifecycle.run_plan(
            query,
            new_plan,
            requests=requests,
            io=io,
            remember=remember,
            trace=trace,
            exec_mode=exec_mode,
            cancellation=cancellation,
            feedback=session.feedback,
        )
        episode.final_plan = new_plan

    episode.executed = executed
    executed.result.runstats.lifecycle["reopt"] = episode.to_dict()
    session.last_trace = trace
    return episode
