"""Plan regret on the simulated clock: the engine as its own oracle.

The simulated clock is bit-reproducible, so "how much did this plan
choice cost?" has an exact answer: run the plan the optimizer chose with
the feedback it has, run each alternative a :class:`PlanHint` can force,
and compare.  First brick of the DPC-error -> plan-regret map (ROADMAP).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.requests import PageCountRequest
from repro.engine import Engine
from repro.optimizer.hints import PlanHint
from repro.optimizer.optimizer import Query
from repro.optimizer.plans import PlanNode

JOIN_ALTERNATIVES = (PlanHint("hash_join"), PlanHint("inl_join"))


@dataclass(frozen=True)
class PlanRegret:
    """Simulated time of the chosen plan and of each hinted alternative."""

    chosen_plan: PlanNode
    chosen_ms: float
    #: ``hint.kind -> (plan, simulated ms)`` for every alternative run.
    alternatives: dict[str, tuple[PlanNode, float]]

    @property
    def best_ms(self) -> float:
        return min([self.chosen_ms, *(ms for _, ms in self.alternatives.values())])

    @property
    def regret_ms(self) -> float:
        """Time the choice cost over the best plan on offer (>= 0)."""
        return self.chosen_ms - self.best_ms


def plan_regret(
    engine: Engine,
    query: Query,
    requests: Sequence[PageCountRequest] = (),
    alternatives: Sequence[PlanHint] = JOIN_ALTERNATIVES,
) -> PlanRegret:
    """Execute ``query``'s feedback-planned choice and each alternative.

    Every plan is costed from the engine's current feedback and run under
    the same monitors on a fresh, cold context; nothing is remembered,
    so the store - and with it the choice - is the same after the call.
    """
    session = engine.session()

    def timed(hint: Optional[PlanHint]) -> tuple[PlanNode, float]:
        plan = session.optimize(query, use_feedback=True, hint=hint)
        return plan, engine.execute_plan(query, plan, requests).elapsed_ms

    chosen_plan, chosen_ms = timed(None)
    return PlanRegret(
        chosen_plan=chosen_plan,
        chosen_ms=chosen_ms,
        alternatives={hint.kind: timed(hint) for hint in alternatives},
    )
