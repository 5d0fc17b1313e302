"""Index plans: Index Seek and Index Intersection, with their Fetch step.

These are the *index plans* of §III-A.  The Fetch step requests rows by
locator, so the storage engine resolves each locator to a page — the page
id stream the :class:`~repro.core.monitors.FetchMonitorBundle` feeds into
linear counters (Fig. 3).  Grouped page access does **not** hold here
(Fig. 2), which is exactly why probabilistic counting is used instead of
the per-page flag counters of scan plans.

The residual predicate (terms not implied by the seek range) is evaluated
on the fetched row inside the storage engine, in plan order with
short-circuiting; monitored expressions must be prefixes of that order
(the planner enforces this — see §II-B's Index Seek discussion).
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

from repro.core.monitors import FetchMonitorBundle
from repro.exec.base import ExecutionContext, Operator
from repro.exec.batch import RowBatch
from repro.sql.evaluator import BoundConjunction
from repro.sql.predicates import Conjunction
from repro.storage.table import Table


class _FetchResidualMixin:
    """Shared batch drive for operators that fetch rows then filter them."""

    table: Table
    residual: Conjunction
    bundle: Optional[FetchMonitorBundle]
    monitor_full_eval: bool

    def _fetch_batches(
        self, ctx: ExecutionContext, fetch_iter: Iterator[tuple[Any, tuple]]
    ) -> Iterator[RowBatch]:
        """Chunk a ``(page_id, row)`` fetch stream through compiled kernels.

        Accounting and monitor feeds are totals-identical to the row loop:
        one ``charge_rows(n)`` per chunk, the residual evaluated with the
        same short-circuit setting, and the fetch bundle observing the
        same (page id, truth) pairs.
        """
        io = ctx.io
        compiled = BoundConjunction(
            self.residual, self.table.schema.column_names
        ).compile()
        short_circuit = not self.monitor_full_eval
        bundle = self.bundle
        stats = self.stats
        chunk_size = ctx.batch_rows
        pages_seen: set[int] = set()
        rows_buf: list[tuple] = []
        page_ids: list[Any] = []

        def flush() -> list[tuple]:
            io.charge_rows(len(rows_buf))
            outcome = compiled.evaluate_batch(rows_buf, short_circuit=short_circuit)
            io.charge_predicates(outcome.evaluations)
            stats.predicate_evaluations += outcome.evaluations
            if bundle is not None:
                bundle.observe_fetch_batch(page_ids, outcome, io)
            out = [row for row, ok in zip(rows_buf, outcome.passed) if ok]
            stats.actual_rows += len(out)
            return out

        for page_id, row in fetch_iter:
            pages_seen.add(int(page_id))
            rows_buf.append(row)
            page_ids.append(page_id)
            if len(rows_buf) >= chunk_size:
                ctx.checkpoint()
                out = flush()
                if out:
                    yield RowBatch(out)
                rows_buf, page_ids = [], []
        if rows_buf:
            out = flush()
            if out:
                yield RowBatch(out)
        stats.pages_touched = len(pages_seen)


class IndexSeekFetch(_FetchResidualMixin, Operator):
    """Non-clustered index range seek followed by row fetches."""

    engine_layer = "SE"

    def __init__(
        self,
        table: Table,
        index_name: str,
        low: Optional[tuple],
        high: Optional[tuple],
        residual: Conjunction,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
        bundle: Optional[FetchMonitorBundle] = None,
        monitor_full_eval: bool = False,
    ) -> None:
        super().__init__()
        self.table = table
        self.index = table.index(index_name)
        self.low = low
        self.high = high
        self.low_inclusive = low_inclusive
        self.high_inclusive = high_inclusive
        self.residual = residual
        self.bundle = bundle
        self.monitor_full_eval = monitor_full_eval
        self.stats.detail = (
            f"{table.name}.{index_name} seek "
            f"{'[' if low_inclusive else '('}{low}, {high}"
            f"{']' if high_inclusive else ')'} residual [{residual.key()}]"
        )

    @property
    def output_columns(self) -> tuple[str, ...]:
        return self.table.schema.column_names

    def rows(self, ctx: ExecutionContext) -> Iterator[tuple]:
        bound = BoundConjunction(self.residual, self.table.schema.column_names)
        io = ctx.io
        pages_seen: set[int] = set()
        for _key, rid, _payload in self.index.seek_range(
            io, self.low, self.high, self.low_inclusive, self.high_inclusive
        ):
            page_id, row = self.table.fetch(io, rid)
            if int(page_id) not in pages_seen:  # new data page fetched
                ctx.checkpoint()
            pages_seen.add(int(page_id))
            io.charge_rows(1)
            outcome = bound.evaluate(
                row, short_circuit=not self.monitor_full_eval
            )
            io.charge_predicates(outcome.evaluations)
            self.stats.predicate_evaluations += outcome.evaluations
            if self.bundle is not None:
                self.bundle.observe_fetch(page_id, outcome, io)
            if outcome.passed:
                self.stats.actual_rows += 1
                yield row
        self.stats.pages_touched = len(pages_seen)

    def batches(self, ctx: ExecutionContext) -> Iterator[RowBatch]:
        io = ctx.io
        fetches = (
            self.table.fetch(io, rid)
            for _key, rid, _payload in self.index.seek_range(
                io, self.low, self.high, self.low_inclusive, self.high_inclusive
            )
        )
        yield from self._fetch_batches(ctx, fetches)

    def finalize(self, ctx: ExecutionContext) -> None:
        if self.bundle is not None:
            ctx.observations.extend(self.bundle.finish())


class IndexInListSeekFetch(_FetchResidualMixin, Operator):
    """IN-list seek: one equality probe per value, then fetch.

    The disjunctive equivalent of an Index Seek for ``col IN (v1..vk)``:
    values are probed in sorted order (so leaf access stays monotone) and
    every fetched row is guaranteed to satisfy the IN term, making the
    term *guaranteed* for monitoring purposes, exactly like a seek range.
    """

    engine_layer = "SE"

    def __init__(
        self,
        table: Table,
        index_name: str,
        values: tuple,
        residual: Conjunction,
        bundle: Optional[FetchMonitorBundle] = None,
        monitor_full_eval: bool = False,
    ) -> None:
        super().__init__()
        self.table = table
        self.index = table.index(index_name)
        self.values = tuple(sorted(set(values), key=repr))
        self.residual = residual
        self.bundle = bundle
        self.monitor_full_eval = monitor_full_eval
        self.stats.detail = (
            f"{table.name}.{index_name} IN ({len(self.values)} values) "
            f"residual [{residual.key()}]"
        )

    @property
    def output_columns(self) -> tuple[str, ...]:
        return self.table.schema.column_names

    def rows(self, ctx: ExecutionContext) -> Iterator[tuple]:
        bound = BoundConjunction(self.residual, self.table.schema.column_names)
        io = ctx.io
        pages_seen: set[int] = set()
        for value in self.values:
            for _key, rid, _payload in self.index.seek_equal(io, value):
                page_id, row = self.table.fetch(io, rid)
                if int(page_id) not in pages_seen:
                    # First touch of a page is the cancellation boundary,
                    # matching the one-checkpoint-per-page contract.
                    ctx.checkpoint()
                pages_seen.add(int(page_id))
                io.charge_rows(1)
                outcome = bound.evaluate(
                    row, short_circuit=not self.monitor_full_eval
                )
                io.charge_predicates(outcome.evaluations)
                self.stats.predicate_evaluations += outcome.evaluations
                if self.bundle is not None:
                    self.bundle.observe_fetch(page_id, outcome, io)
                if outcome.passed:
                    self.stats.actual_rows += 1
                    yield row
        self.stats.pages_touched = len(pages_seen)

    def batches(self, ctx: ExecutionContext) -> Iterator[RowBatch]:
        io = ctx.io

        def fetches() -> Iterator[tuple[Any, tuple]]:
            for value in self.values:
                for _key, rid, _payload in self.index.seek_equal(io, value):
                    yield self.table.fetch(io, rid)

        yield from self._fetch_batches(ctx, fetches())

    def finalize(self, ctx: ExecutionContext) -> None:
        if self.bundle is not None:
            ctx.observations.extend(self.bundle.finish())


class SeekSpec:
    """One index-range leg of an intersection plan."""

    __slots__ = ("index_name", "low", "high", "low_inclusive", "high_inclusive")

    def __init__(
        self,
        index_name: str,
        low: Optional[tuple],
        high: Optional[tuple],
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> None:
        self.index_name = index_name
        self.low = low
        self.high = high
        self.low_inclusive = low_inclusive
        self.high_inclusive = high_inclusive

    def __repr__(self) -> str:
        return f"SeekSpec({self.index_name}: {self.low}..{self.high})"


class IndexIntersectionFetch(_FetchResidualMixin, Operator):
    """Intersect the RID sets of two or more index seeks, then fetch.

    RIDs are fetched in (page, slot) order after the intersection — the
    standard engine behaviour, which also makes the fetch stream mildly
    page-clustered; the linear counters are order-insensitive either way.
    """

    engine_layer = "SE"

    def __init__(
        self,
        table: Table,
        seeks: list[SeekSpec],
        residual: Conjunction,
        bundle: Optional[FetchMonitorBundle] = None,
        monitor_full_eval: bool = False,
    ) -> None:
        super().__init__()
        if len(seeks) < 2:
            raise ValueError("index intersection needs at least two seeks")
        self.table = table
        self.seeks = seeks
        self.residual = residual
        self.bundle = bundle
        self.monitor_full_eval = monitor_full_eval
        self.stats.detail = (
            f"{table.name} intersect "
            + " & ".join(s.index_name for s in seeks)
            + f" residual [{residual.key()}]"
        )

    @property
    def output_columns(self) -> tuple[str, ...]:
        return self.table.schema.column_names

    def _intersect_rids(self, io) -> list:
        """Run the seek legs, charge the RID hashing, return sorted RIDs."""
        rid_sets = []
        for spec in self.seeks:
            index = self.table.index(spec.index_name)
            rids = {
                rid
                for _key, rid, _payload in index.seek_range(
                    io, spec.low, spec.high, spec.low_inclusive, spec.high_inclusive
                )
            }
            rid_sets.append(rids)
        intersection = set.intersection(*rid_sets)
        # Hashing RIDs during the intersection is CPU work.
        io.charge_hashes(sum(len(s) for s in rid_sets))
        return sorted(intersection, key=lambda r: (r.page_id, r.slot))

    def rows(self, ctx: ExecutionContext) -> Iterator[tuple]:
        io = ctx.io
        sorted_rids = self._intersect_rids(io)
        bound = BoundConjunction(self.residual, self.table.schema.column_names)
        pages_seen: set[int] = set()
        for rid in sorted_rids:
            page_id, row = self.table.fetch(io, rid)
            if int(page_id) not in pages_seen:
                # First touch of a page is the cancellation boundary,
                # matching the one-checkpoint-per-page contract.
                ctx.checkpoint()
            pages_seen.add(int(page_id))
            io.charge_rows(1)
            outcome = bound.evaluate(row, short_circuit=not self.monitor_full_eval)
            io.charge_predicates(outcome.evaluations)
            self.stats.predicate_evaluations += outcome.evaluations
            if self.bundle is not None:
                self.bundle.observe_fetch(page_id, outcome, io)
            if outcome.passed:
                self.stats.actual_rows += 1
                yield row
        self.stats.pages_touched = len(pages_seen)

    def batches(self, ctx: ExecutionContext) -> Iterator[RowBatch]:
        io = ctx.io
        fetches = (
            self.table.fetch(io, rid) for rid in self._intersect_rids(io)
        )
        yield from self._fetch_batches(ctx, fetches)

    def finalize(self, ctx: ExecutionContext) -> None:
        if self.bundle is not None:
            ctx.observations.extend(self.bundle.finish())
