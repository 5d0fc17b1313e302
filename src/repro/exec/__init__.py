"""Execution engine: Volcano-style operators with SE/RE separation."""

from repro.exec.aggregates import CountAggregate, GroupByCountAggregate
from repro.exec.base import ExecutionContext, Operator
from repro.exec.executor import QueryResult, execute
from repro.exec.joins import HashJoin, INLJoin, MergeJoin
from repro.exec.runstats import OperatorStats, RunStats
from repro.exec.scans import ClusteredRangeScan, CoveringIndexScan, SeqScan
from repro.exec.seeks import (
    IndexInListSeekFetch,
    IndexIntersectionFetch,
    IndexSeekFetch,
    SeekSpec,
)
from repro.exec.sorts import Sort

__all__ = [
    "ClusteredRangeScan",
    "CountAggregate",
    "CoveringIndexScan",
    "ExecutionContext",
    "GroupByCountAggregate",
    "HashJoin",
    "INLJoin",
    "IndexInListSeekFetch",
    "IndexIntersectionFetch",
    "IndexSeekFetch",
    "MergeJoin",
    "Operator",
    "OperatorStats",
    "QueryResult",
    "RunStats",
    "SeekSpec",
    "SeqScan",
    "Sort",
    "execute",
]
