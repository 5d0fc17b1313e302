"""The blocking Sort operator."""

from __future__ import annotations

import math
from typing import Iterator

from repro.exec.base import ExecutionContext, Operator
from repro.exec.batch import RowBatch
from repro.exec.joins import _position_of


class Sort(Operator):
    """Blocking in-memory sort on one column.

    The first row is yielded only after the child is fully consumed — the
    blocking property §IV relies on for Merge-Join bit-vector filtering
    ("the first GetNext() call to the Sort operator is blocking").
    CPU cost is charged as ``n·log2(n)`` comparison steps.
    """

    engine_layer = "RE"

    def __init__(self, child: Operator, sort_column: str, descending: bool = False):
        super().__init__()
        self.child = child
        self.sort_column = sort_column
        self.descending = descending
        self.stats.detail = f"by {sort_column}{' desc' if descending else ''}"

    @property
    def output_columns(self) -> tuple[str, ...]:
        return self.child.output_columns

    def children(self) -> list[Operator]:
        return [self.child]

    def rows(self, ctx: ExecutionContext) -> Iterator[tuple]:
        position = _position_of(self.child.output_columns, self.sort_column)
        materialized = list(self.child.rows(ctx))
        n = len(materialized)
        if n > 1:
            ctx.io.charge_predicates(int(n * math.log2(n)))
        materialized.sort(key=lambda row: row[position], reverse=self.descending)
        for row in materialized:
            self.stats.actual_rows += 1
            yield row

    def batches(self, ctx: ExecutionContext) -> Iterator[RowBatch]:
        position = _position_of(self.child.output_columns, self.sort_column)
        materialized = [
            row for batch in self.child.batches(ctx) for row in batch.rows
        ]
        n = len(materialized)
        if n > 1:
            ctx.io.charge_predicates(int(n * math.log2(n)))
        materialized.sort(key=lambda row: row[position], reverse=self.descending)
        self.stats.actual_rows += n
        chunk_size = ctx.batch_rows
        for start in range(0, n, chunk_size):
            yield RowBatch(materialized[start : start + chunk_size])

    def finalize(self, ctx: ExecutionContext) -> None:
        self.child.finalize(ctx)
