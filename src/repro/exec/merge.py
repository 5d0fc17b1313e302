"""Gather-side merge operators for scatter-gather execution.

The :class:`~repro.shard.coordinator.ShardCoordinator` executes one plan
on every shard and recombines the per-shard result streams here.  Three
merge shapes cover the plan algebra:

* :class:`GatherConcat` — shard-order concatenation.  Correct whenever
  per-shard stream order equals global storage order, which under
  page-aligned **range** partitioning holds for every page-order
  producer (SeqScan, ClusteredRangeScan, IndexIntersection's RID-sorted
  fetch): shard ``s``'s pages all precede shard ``s+1``'s globally.
* :class:`GatherMerge` — k-way ordered merge for key-ordered streams
  (IndexSeek, InListSeek, CoveringScan).  Ties between shards break by
  shard index, which *is* global locator order under range partitioning
  (lower shards hold lower global pages), so the merged stream is
  bit-identical to the single-engine emission order.
* :class:`GatherReaggregate` — re-aggregation of partial aggregates:
  per-shard ``COUNT`` partials sum; grouped counts merge per key and
  re-emit in the ``repr``-sorted group order
  :class:`~repro.exec.aggregates.GroupByCountAggregate` uses.

All gather operators are **free**: every row they pass through was
already charged (rows, pages, predicate evaluations) on its shard's own
:class:`~repro.storage.accounting.IOContext` during the fanned-out
execution, so re-charging here would double-count the work.  They exist
to order/append/sum already-paid-for rows.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterator, Optional, Sequence

from repro.catalog.catalog import Database
from repro.common.errors import ExecutionError
from repro.exec.base import ExecutionContext, Operator
from repro.exec.batch import RowBatch, chunk_rows
from repro.exec.runstats import OperatorStats
from repro.exec.seeks import probe_order
from repro.optimizer.plans import (
    CountPlan,
    CoveringScanPlan,
    IndexSeekPlan,
    InListSeekPlan,
    PlanNode,
)

#: ``key(row) -> comparable`` extractor for ordered merges.
SortKey = Callable[[tuple], tuple]


class ShardStream(Operator):
    """Leaf operator replaying one shard's already-materialized rows.

    Charges nothing: the rows were produced — and fully accounted — by
    the shard engine's own execution.  ``collect_stats`` grafts the
    shard's executed plan statistics underneath, so a merged
    ``RunStats.render()`` shows the whole scatter-gather tree.
    """

    engine_layer = "RE"

    def __init__(
        self,
        shard_index: int,
        rows: Sequence[tuple],
        columns: Sequence[str],
        shard_root_stats: Optional[OperatorStats] = None,
    ) -> None:
        super().__init__()
        self.shard_index = shard_index
        self._rows = list(rows)
        self._columns = tuple(columns)
        self._shard_root_stats = shard_root_stats
        self.stats.detail = f"shard {shard_index}"

    @property
    def output_columns(self) -> tuple[str, ...]:
        return self._columns

    def rows(self, ctx: ExecutionContext) -> Iterator[tuple]:
        for row in self._rows:
            self.stats.actual_rows += 1
            yield row

    def batches(self, ctx: ExecutionContext) -> Iterator[RowBatch]:
        return chunk_rows(self.rows(ctx), ctx.batch_rows)

    def collect_stats(self) -> OperatorStats:
        collected = super().collect_stats()
        if self._shard_root_stats is not None:
            collected.children = [self._shard_root_stats]
        return collected


class _GatherBase(Operator):
    """Common shape: N shard streams in, one merged stream out."""

    engine_layer = "RE"

    def __init__(self, streams: Sequence[ShardStream]) -> None:
        super().__init__()
        if not streams:
            raise ExecutionError("gather operators need >= 1 shard stream")
        self.streams = list(streams)

    @property
    def output_columns(self) -> tuple[str, ...]:
        return self.streams[0].output_columns

    def children(self) -> list[Operator]:
        return list(self.streams)

    def batches(self, ctx: ExecutionContext) -> Iterator[RowBatch]:
        return chunk_rows(self.rows(ctx), ctx.batch_rows)

    def finalize(self, ctx: ExecutionContext) -> None:
        for stream in self.streams:
            stream.finalize(ctx)


class GatherConcat(_GatherBase):
    """Concatenate shard streams in shard order (page-order producers)."""

    def rows(self, ctx: ExecutionContext) -> Iterator[tuple]:
        for stream in self.streams:
            for row in stream.rows(ctx):
                self.stats.actual_rows += 1
                yield row


class GatherMerge(_GatherBase):
    """K-way ordered merge of key-sorted shard streams.

    Each shard stream must already be sorted by ``sort_key``; rows with
    equal keys emit in shard-index order, preserving within-shard order —
    exactly the single-engine ``(key, locator)`` order when shards hold
    ascending global page ranges.
    """

    def __init__(
        self, streams: Sequence[ShardStream], sort_key: SortKey
    ) -> None:
        super().__init__(streams)
        self.sort_key = sort_key

    def rows(self, ctx: ExecutionContext) -> Iterator[tuple]:
        key = self.sort_key
        iterators = [stream.rows(ctx) for stream in self.streams]
        heap: list[tuple[tuple, int, int, tuple]] = []
        positions = [0] * len(iterators)
        for shard, iterator in enumerate(iterators):
            first = next(iterator, None)
            if first is not None:
                heapq.heappush(heap, (key(first), shard, positions[shard], first))
        while heap:
            _, shard, _, row = heapq.heappop(heap)
            self.stats.actual_rows += 1
            yield row
            positions[shard] += 1
            nxt = next(iterators[shard], None)
            if nxt is not None:
                heapq.heappush(heap, (key(nxt), shard, positions[shard], nxt))


class GatherReaggregate(_GatherBase):
    """Re-aggregate per-shard partial aggregates into the global answer.

    Handles the two aggregate shapes the engine produces: a single-row
    ``COUNT`` partial per shard (summed), and grouped ``(key, count)``
    partials (summed per key, re-emitted in ``repr``-sorted key order,
    matching :class:`~repro.exec.aggregates.GroupByCountAggregate`).
    """

    def __init__(
        self, streams: Sequence[ShardStream], grouped: bool = False
    ) -> None:
        super().__init__(streams)
        self.grouped = grouped
        self.stats.detail = "grouped" if grouped else "scalar count"

    def rows(self, ctx: ExecutionContext) -> Iterator[tuple]:
        if not self.grouped:
            total = 0
            for stream in self.streams:
                for row in stream.rows(ctx):
                    total += row[0]
            self.stats.actual_rows = 1
            yield (total,)
            return
        groups: dict = {}
        for stream in self.streams:
            for group_key, count in stream.rows(ctx):
                groups[group_key] = groups.get(group_key, 0) + count
        for group_key in sorted(groups, key=repr):
            self.stats.actual_rows += 1
            yield group_key, groups[group_key]


def _column_position(columns: Sequence[str], column: str) -> int:
    try:
        return list(columns).index(column)
    except ValueError:
        raise ExecutionError(
            f"merge key column {column!r} not in shard output {tuple(columns)}"
        ) from None


def gather_for_plan(
    plan: PlanNode, streams: Sequence[ShardStream], database: Database
) -> Operator:
    """Pick the merge operator that reproduces single-engine output order.

    ``database`` is the coordinator's *global* catalog — needed to
    resolve index key columns for covering scans.  The mapping:

    ======================  =========================================
    plan root               merge
    ======================  =========================================
    ``CountPlan``           :class:`GatherReaggregate` (scalar/grouped)
    ``IndexSeekPlan``       :class:`GatherMerge` on the seek column
    ``InListSeekPlan``      :class:`GatherMerge` on the probe value's
                            rank in :func:`~repro.exec.seeks.probe_order`
    ``CoveringScanPlan``    :class:`GatherMerge` on the index key
    anything else           :class:`GatherConcat` (page order)
    ======================  =========================================
    """
    if not streams:
        raise ExecutionError("gather_for_plan needs >= 1 shard stream")
    columns = streams[0].output_columns
    if isinstance(plan, CountPlan):
        return GatherReaggregate(streams, grouped=len(columns) > 1)
    if isinstance(plan, IndexSeekPlan):
        position = _column_position(columns, plan.seek_term.column)
        return GatherMerge(streams, lambda row: (row[position],))
    if isinstance(plan, InListSeekPlan):
        position = _column_position(columns, plan.in_term.column)
        rank = {
            value: order
            for order, value in enumerate(probe_order(plan.in_term.values))
        }
        return GatherMerge(streams, lambda row: (rank[row[position]],))
    if isinstance(plan, CoveringScanPlan):
        index_def = database.table(plan.table).indexes[plan.index_name].definition
        key_positions = [
            _column_position(columns, column)
            for column in index_def.key_columns
        ]
        return GatherMerge(
            streams, lambda row: tuple(row[pos] for pos in key_positions)
        )
    return GatherConcat(streams)
