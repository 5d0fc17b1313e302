"""Physical plan nodes produced by the optimizer.

Plan nodes are declarative: they say *what* to run (access method, join
method, bounds, residual predicates) plus the optimizer's estimates —
including the **estimated distinct page count** each access path was
costed with, which is what the diagnostics report compares against the
monitored actuals (the paper's "estimated and actual distinct page count"
output, §V-A).  :mod:`repro.core.planner` turns plan nodes into executable
operators and attaches monitors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.sql.predicates import AtomicPredicate, Conjunction, JoinEquality


@dataclass
class PlanNode:
    """Base class for plan nodes (estimates filled in by the optimizer)."""

    estimated_rows: float = field(default=0.0, init=False)
    estimated_cost_ms: float = field(default=0.0, init=False)

    def children(self) -> list["PlanNode"]:
        return []

    def describe(self) -> str:
        return type(self).__name__

    def render(self, indent: int = 0) -> str:
        line = (
            "  " * indent
            + f"{self.describe()}  [rows≈{self.estimated_rows:.1f}, "
            + f"cost≈{self.estimated_cost_ms:.2f}ms]"
        )
        return "\n".join([line] + [c.render(indent + 1) for c in self.children()])

    def access_method(self) -> str:
        """Short name used by the harness to detect plan changes."""
        return type(self).__name__

    def shape_key(self) -> str:
        """This node's identity *excluding* estimates (see signature())."""
        return self.describe()

    def signature(self) -> str:
        """Recursive structural identity: equal signatures mean the same
        physical plan shape (estimates and DPC annotations excluded)."""
        parts = [self.shape_key()]
        parts.extend(child.signature() for child in self.children())
        return " | ".join(parts)

    def tables(self) -> tuple[str, ...]:
        """Sorted, de-duplicated names of every table this plan touches.

        Collected from the per-node table attributes over the whole tree;
        the plan cache keys freshness (feedback epochs, statistics
        versions) on exactly this set.
        """
        names: set[str] = set()
        for _, node in self.walk():
            for attribute in (
                "table",
                "outer_table",
                "inner_table",
                "build_table",
                "probe_table",
            ):
                value = getattr(node, attribute, None)
                if value is not None:
                    names.add(value)
        return tuple(sorted(names))

    def walk(self, path: str = "") -> Iterator[tuple[str, "PlanNode"]]:
        """Preorder traversal yielding ``(path, node)`` pairs.

        ``path`` is a ``/``-separated chain of node class names rooted at
        this node (e.g. ``CountPlan/INLJoinPlan/IndexSeekPlan``), which is
        what the plan linter reports as a finding's location.  ``None``
        children (a malformed tree) are skipped here and reported by the
        structural lint rule instead.
        """
        here = f"{path}/{type(self).__name__}" if path else type(self).__name__
        yield here, self
        for child in self.children():
            if child is not None:
                yield from child.walk(here)


@dataclass
class SeqScanPlan(PlanNode):
    """Full table scan (heap scan or clustered index scan) with residual."""

    table: str
    predicate: Conjunction

    def describe(self) -> str:
        return f"SeqScan({self.table} | {self.predicate.key()})"


@dataclass
class ClusteredRangeScanPlan(PlanNode):
    """Range seek on the clustering key plus residual predicate."""

    table: str
    range_term: AtomicPredicate
    low: Optional[tuple]
    high: Optional[tuple]
    low_inclusive: bool
    high_inclusive: bool
    residual: Conjunction

    def describe(self) -> str:
        return (
            f"ClusteredRangeScan({self.table} | {self.range_term.key()} "
            f"residual {self.residual.key()})"
        )


@dataclass
class IndexSeekPlan(PlanNode):
    """Non-clustered index seek + fetch, with residual predicate.

    ``estimated_dpc`` is the page count the fetch was costed with (either
    the analytical model's output or an injected feedback value —
    ``dpc_source`` records which).
    """

    table: str
    index_name: str
    seek_term: AtomicPredicate
    low: Optional[tuple]
    high: Optional[tuple]
    low_inclusive: bool
    high_inclusive: bool
    residual: Conjunction
    estimated_dpc: float = 0.0
    dpc_source: str = "model"

    def describe(self) -> str:
        return (
            f"IndexSeek({self.table}.{self.index_name} | {self.seek_term.key()} "
            f"residual {self.residual.key()} | dpc≈{self.estimated_dpc:.1f} "
            f"({self.dpc_source}))"
        )

    def shape_key(self) -> str:
        return (
            f"IndexSeek({self.table}.{self.index_name} | {self.seek_term.key()} "
            f"residual {self.residual.key()})"
        )


@dataclass
class InListSeekPlan(PlanNode):
    """IN-list index seek + fetch (one equality probe per value)."""

    table: str
    index_name: str
    in_term: AtomicPredicate  # an InList predicate
    residual: Conjunction
    estimated_dpc: float = 0.0
    dpc_source: str = "model"

    def describe(self) -> str:
        return (
            f"InListSeek({self.table}.{self.index_name} | {self.in_term.key()} "
            f"residual {self.residual.key()} | dpc≈{self.estimated_dpc:.1f} "
            f"({self.dpc_source}))"
        )

    def shape_key(self) -> str:
        return (
            f"InListSeek({self.table}.{self.index_name} | {self.in_term.key()} "
            f"residual {self.residual.key()})"
        )


@dataclass
class IndexIntersectionLeg:
    """One index-range leg of an intersection plan."""

    index_name: str
    seek_term: AtomicPredicate
    low: Optional[tuple]
    high: Optional[tuple]
    low_inclusive: bool = True
    high_inclusive: bool = True


@dataclass
class IndexIntersectionPlan(PlanNode):
    """Intersect RID sets from two or more index seeks, then fetch."""

    table: str
    legs: list[IndexIntersectionLeg]
    residual: Conjunction
    estimated_dpc: float = 0.0
    dpc_source: str = "model"

    def describe(self) -> str:
        legs = " & ".join(
            f"{leg.index_name}[{leg.seek_term.key()}]" for leg in self.legs
        )
        return (
            f"IndexIntersection({self.table} | {legs} residual "
            f"{self.residual.key()} | dpc≈{self.estimated_dpc:.1f})"
        )

    def shape_key(self) -> str:
        legs = " & ".join(
            f"{leg.index_name}[{leg.seek_term.key()}]" for leg in self.legs
        )
        return f"IndexIntersection({self.table} | {legs} residual {self.residual.key()})"


@dataclass
class CoveringScanPlan(PlanNode):
    """Full scan of a covering index's leaves (no table access)."""

    table: str
    index_name: str
    predicate: Conjunction

    def describe(self) -> str:
        return (
            f"CoveringScan({self.table}.{self.index_name} | "
            f"{self.predicate.key()})"
        )


@dataclass
class INLJoinPlan(PlanNode):
    """Index Nested Loops join: outer plan drives inner index fetches."""

    outer: PlanNode
    outer_table: str
    inner_table: str
    join_predicate: JoinEquality
    inner_residual: Conjunction
    inner_index_name: Optional[str]  # None -> inner clustered on join column
    #: Selection on the outer: with the join predicate, the expression
    #: ``estimated_dpc`` was looked up (and is remembered) under.
    outer_filter: Conjunction = field(default_factory=Conjunction)
    estimated_dpc: float = 0.0
    dpc_source: str = "model"
    #: Leaf pages of the inner index the probes were costed to read, and
    #: where that count came from (``"model"``: contiguous probe keys;
    #: ``"injected"``: a remembered ``LEAVES(...)`` count).
    estimated_leaf_pages: float = 0.0
    leaf_source: str = "model"

    def children(self) -> list[PlanNode]:
        return [self.outer]

    def describe(self) -> str:
        access = self.inner_index_name or "clustered-key"
        return (
            f"INLJoin(inner={self.inner_table} via {access} | "
            f"{self.join_predicate.key()} | dpc≈{self.estimated_dpc:.1f} "
            f"({self.dpc_source}) | leaves≈{self.estimated_leaf_pages:g} "
            f"({self.leaf_source}))"
        )

    def shape_key(self) -> str:
        access = self.inner_index_name or "clustered-key"
        return (
            f"INLJoin(inner={self.inner_table} via {access} | "
            f"{self.join_predicate.key()})"
        )


@dataclass
class HashJoinPlan(PlanNode):
    """Hash join; the build side is listed first."""

    build: PlanNode
    probe: PlanNode
    build_table: str
    probe_table: str
    join_predicate: JoinEquality
    #: Selection on the build side: the outer row set a bit-vector count
    #: of the probe table's join pages is taken under.
    build_filter: Conjunction = field(default_factory=Conjunction)

    def children(self) -> list[PlanNode]:
        return [self.build, self.probe]

    def describe(self) -> str:
        return (
            f"HashJoin(build={self.build_table}, probe={self.probe_table} | "
            f"{self.join_predicate.key()})"
        )


@dataclass
class MergeJoinPlan(PlanNode):
    """Merge join; either side may be topped by an implicit sort."""

    outer: PlanNode
    inner: PlanNode
    outer_table: str
    inner_table: str
    join_predicate: JoinEquality
    sort_outer: bool
    sort_inner: bool
    #: Selection on the outer side (see ``HashJoinPlan.build_filter``).
    outer_filter: Conjunction = field(default_factory=Conjunction)

    def children(self) -> list[PlanNode]:
        return [self.outer, self.inner]

    def describe(self) -> str:
        sorts = []
        if self.sort_outer:
            sorts.append("sort-outer")
        if self.sort_inner:
            sorts.append("sort-inner")
        suffix = f" ({', '.join(sorts)})" if sorts else ""
        return (
            f"MergeJoin({self.outer_table} ⋈ {self.inner_table} | "
            f"{self.join_predicate.key()}){suffix}"
        )


@dataclass
class CountPlan(PlanNode):
    """Ungrouped COUNT(column) on top of the child plan."""

    child: PlanNode
    column: Optional[str]

    def children(self) -> list[PlanNode]:
        return [self.child]

    def describe(self) -> str:
        return f"Count({self.column or '*'})"

    def access_method(self) -> str:
        return self.child.access_method()
