"""Per-operator runtime statistics — our "statistics xml" mode.

SQL Server's ``statistics xml`` mode returns the executed plan annotated
with actual row counts per operator; the paper's prototype extends it with
estimated and actual distinct page counts per requested expression (§II-C,
§V-A).  :class:`RunStats` is our equivalent: a tree of
:class:`OperatorStats` plus the list of page-count observations, renderable
as an indented text report (:meth:`RunStats.render`) or a nested dict
(:meth:`RunStats.to_dict`) for programmatic consumers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Union

from repro.core.requests import PageCountObservation


@dataclass
class OperatorStats:
    """Counters for one operator in the executed plan."""

    operator: str
    detail: str = ""
    estimated_rows: Optional[float] = None
    actual_rows: int = 0
    pages_touched: int = 0
    predicate_evaluations: int = 0
    children: list["OperatorStats"] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        node: dict[str, Any] = {
            "operator": self.operator,
            "actual_rows": self.actual_rows,
        }
        if self.detail:
            node["detail"] = self.detail
        if self.estimated_rows is not None:
            node["estimated_rows"] = self.estimated_rows
        if self.pages_touched:
            node["pages_touched"] = self.pages_touched
        if self.predicate_evaluations:
            node["predicate_evaluations"] = self.predicate_evaluations
        if self.children:
            node["children"] = [child.to_dict() for child in self.children]
        return node

    def render(self, indent: int = 0) -> str:
        parts = [f"{self.operator}"]
        if self.detail:
            parts.append(f"({self.detail})")
        if self.estimated_rows is not None:
            parts.append(f"est_rows={self.estimated_rows:.1f}")
        parts.append(f"rows={self.actual_rows}")
        if self.pages_touched:
            parts.append(f"pages={self.pages_touched}")
        line = "  " * indent + " ".join(parts)
        lines = [line]
        for child in self.children:
            lines.append(child.render(indent + 1))
        return "\n".join(lines)


@dataclass
class RunStats:
    """Execution feedback for one query run."""

    root: OperatorStats
    #: How the plan was driven (the executor always sets it): ``"batch"``
    #: (chunk-at-a-time RowBatch exchange with compiled predicate kernels)
    #: or ``"row"`` (the Volcano iterator, the reference oracle).
    execution_mode: str
    elapsed_ms: float = 0.0
    io_ms: float = 0.0
    cpu_ms: float = 0.0
    random_reads: int = 0
    sequential_reads: int = 0
    #: Buffer-pool accesses this execution made (hits + physical reads),
    #: attributed to the run's own IOContext — not a global-pool delta.
    logical_reads: int = 0
    pool_hits: int = 0
    observations: list[PageCountObservation] = field(default_factory=list)
    _lifecycle: Union[None, dict[str, Any], Callable[[], dict[str, Any]]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def lifecycle(self) -> Optional[dict[str, Any]]:
        """Lifecycle observability, set by the staged query lifecycle: the
        per-stage trace (``stages``), the plan-cache outcome for this run
        (``cache_event``: hit/miss/bypassed) and, when a shared
        cache is configured, its cumulative counters (``plan_cache``).

        Plain data, so the exec layer needs no lifecycle import.  The
        lifecycle may assign a zero-argument callable instead of the dict;
        it is called on the first read and its result kept, so a run
        nobody inspects never formats its stage details.
        """
        if callable(self._lifecycle):
            self._lifecycle = self._lifecycle()
        return self._lifecycle

    @lifecycle.setter
    def lifecycle(
        self, value: Union[None, dict[str, Any], Callable[[], dict[str, Any]]]
    ) -> None:
        self._lifecycle = value

    @property
    def physical_reads(self) -> int:
        return self.random_reads + self.sequential_reads

    @property
    def warm_ratio(self) -> float:
        """Fraction of this run's logical reads served from its buffer
        frames; 0.0 when the run made no logical reads (see
        :attr:`~repro.storage.accounting.IOContext.warm_ratio`)."""
        if self.logical_reads == 0:
            return 0.0
        return self.pool_hits / self.logical_reads

    def observation_for(self, key: str) -> Optional[PageCountObservation]:
        """Look up an observation by its request key."""
        for observation in self.observations:
            if observation.key == key:
                return observation
        return None

    def to_dict(self) -> dict[str, Any]:
        return {
            "plan": self.root.to_dict(),
            "elapsed_ms": self.elapsed_ms,
            "io_ms": self.io_ms,
            "cpu_ms": self.cpu_ms,
            "random_reads": self.random_reads,
            "sequential_reads": self.sequential_reads,
            "logical_reads": self.logical_reads,
            "pool_hits": self.pool_hits,
            "warm_ratio": self.warm_ratio,
            "execution_mode": self.execution_mode,
            "page_counts": [obs.to_wire() for obs in self.observations],
            **({"lifecycle": self.lifecycle} if self.lifecycle else {}),
        }

    def _lifecycle_lines(self) -> list[str]:
        if not self.lifecycle:
            return []
        stages = self.lifecycle.get("stages", [])
        lines = [
            "lifecycle: "
            + " → ".join(f"{s['stage']}:{s['status']}" for s in stages)
        ]
        counters = self.lifecycle.get("plan_cache")
        if counters:
            lines.append(
                f"plan-cache[{self.lifecycle.get('cache_event', '?')}]: "
                f"hits={counters['hits']} misses={counters['misses']} "
                f"invalidations={counters['invalidations']} "
                f"builds={counters['builds']} "
                f"hit-rate={counters['hit_rate']:.1%}"
            )
        return lines

    def render(self) -> str:
        lines = [
            f"elapsed={self.elapsed_ms:.3f}ms (io={self.io_ms:.3f}, cpu={self.cpu_ms:.3f}) "
            f"reads: random={self.random_reads} sequential={self.sequential_reads} "
            f"logical={self.logical_reads} warm={self.warm_ratio:.1%} "
            f"mode={self.execution_mode}",
            *self._lifecycle_lines(),
            self.root.render(),
        ]
        if self.observations:
            lines.append("distinct page counts:")
            for obs in self.observations:
                if obs.answered:
                    qualifier = "exact" if obs.exact else "est"
                    lines.append(
                        f"  {obs.key} = {obs.estimate:.1f} "
                        f"[{qualifier}, {obs.mechanism.value}]"
                    )
                else:
                    lines.append(f"  {obs.key}: not available — {obs.reason}")
        return "\n".join(lines)
