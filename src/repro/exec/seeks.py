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

from typing import Any, Iterable, Iterator, Optional, Sequence

from repro.core.monitors import FetchMonitorBundle
from repro.exec import vector
from repro.exec.base import ExecutionContext, Operator
from repro.exec.batch import RowBatch
from repro.sql.evaluator import BoundConjunction
from repro.sql.predicates import Conjunction
from repro.storage.accounting import IOContext
from repro.storage.btree import BTreeIndex
from repro.storage.table import Table


def evaluate_fetched(
    operator: Operator,
    bound: BoundConjunction,
    io: IOContext,
    page_ids: Sequence[int],
    columns: Sequence,
    num_terms: Optional[int] = None,
    full_evaluation: bool = False,
):
    """Run one chunk of rows ``operator`` fetched, as column vectors,
    through its residual (``bound``) and its fetch bundle: the mask of
    the rows that pass.

    Accounting and monitor feeds are totals-identical to the row loop:
    one ``charge_rows(n)`` per chunk; the first ``num_terms`` residual
    terms (all by default) evaluated short-circuited, or every term on
    every row under ``full_evaluation``; and each bundle entry fed one
    witness flag per fetch, read off the masks the way the scan reads its
    page flags (:meth:`~repro.sql.evaluator.VectorOutcome.witness`).
    """
    num_rows = len(page_ids)
    io.charge_rows(num_rows)
    outcome = bound.evaluate_columns(
        columns,
        num_rows,
        num_terms,
        vector.ones_mask(num_rows) if full_evaluation else None,
    )
    io.charge_predicates(outcome.evaluations)
    operator.stats.predicate_evaluations += outcome.evaluations
    bundle = operator.bundle
    if bundle is not None:
        flags_per_entry = []
        for terms in bundle.witness_terms():
            witness = outcome.witness(terms, full_evaluation)
            flags_per_entry.append(
                [False] * num_rows if witness is None else vector.mask_values(witness)
            )
        bundle.observe_fetches(page_ids, flags_per_entry, io)
    return outcome.passed


class _FetchResidualMixin:
    """Shared drives for operators that fetch rows then filter them.

    The row drive (:meth:`_fetch_rows`) fetches one RID at a time.  The
    batch drive's unit of work is a chunk of at most ``ctx.batch_rows``
    locators, not a row: the chunk's page reads are charged as one access
    stream in the row drive's order, its columns gathered in one pass,
    the residual evaluated by the column kernels and the fetch bundle fed
    the chunk's page ids — with one cancellation checkpoint per chunk.
    Row tuples are built for the surviving rows only.
    """

    table: Table
    residual: Conjunction
    bundle: Optional[FetchMonitorBundle]

    def _fetch_rows(
        self, ctx: ExecutionContext, rids: Iterable[Any]
    ) -> Iterator[tuple]:
        """The row drive: fetch each RID, evaluate the residual on the row
        and feed the fetch bundle, yielding the rows that pass.

        ``rids`` is consumed lazily, so a seek's leaf reads stay
        interleaved with its fetches.  The first touch of each data page
        is the cancellation boundary (one checkpoint per page).
        """
        bound = BoundConjunction(self.residual, self.table.schema.column_names)
        io = ctx.io
        pages_seen: set[int] = set()
        for rid in rids:
            page_id, row = self.table.fetch(io, rid)
            if int(page_id) not in pages_seen:
                ctx.checkpoint()
            pages_seen.add(int(page_id))
            io.charge_rows(1)
            outcome = bound.evaluate(row)
            io.charge_predicates(outcome.evaluations)
            self.stats.predicate_evaluations += outcome.evaluations
            if self.bundle is not None:
                self.bundle.observe_fetch(page_id, outcome, io)
            if outcome.passed:
                self.stats.actual_rows += 1
                yield row
        self.stats.pages_touched = len(pages_seen)

    def _filter_chunks(
        self, ctx: ExecutionContext, fetched: Iterable[tuple[Sequence[int], tuple]]
    ) -> Iterator[RowBatch]:
        """Filter ``(page_ids, columns)`` chunks of fetched rows into batches."""
        bound = BoundConjunction(self.residual, self.table.schema.column_names)
        pages_seen: set[int] = set()
        for page_ids, columns in fetched:
            pages_seen.update(page_ids)
            passed = evaluate_fetched(self, bound, ctx.io, page_ids, columns)
            out = vector.rows_where(columns, passed)
            self.stats.actual_rows += len(out)
            if out:
                yield RowBatch(out)
        self.stats.pages_touched = len(pages_seen)

    def _seek_batches(
        self, ctx: ExecutionContext, index: BTreeIndex, ranges: list[tuple[int, int]]
    ) -> Iterator[RowBatch]:
        """Batch drive over located seek ranges, one index descent each."""
        io = ctx.io
        io.charge_index_descent(len(ranges))
        data_file = self.table.data_file

        def fetched() -> Iterator[tuple[list[int], tuple]]:
            for runs in index.chunk_runs(ranges, ctx.batch_rows):
                ctx.checkpoint()
                pages, slots = index.read_runs(io, runs, data_file.file_id)
                yield pages, data_file.columns_at(pages, slots)

        return self._filter_chunks(ctx, fetched())

    def finalize(self, ctx: ExecutionContext) -> None:
        if self.bundle is not None:
            ctx.observations.extend(self.bundle.finish())


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
        self.stats.detail = (
            f"{table.name}.{index_name} seek "
            f"{'[' if low_inclusive else '('}{low}, {high}"
            f"{']' if high_inclusive else ')'} residual [{residual.key()}]"
        )

    @property
    def output_columns(self) -> tuple[str, ...]:
        return self.table.schema.column_names

    def rows(self, ctx: ExecutionContext) -> Iterator[tuple]:
        yield from self._fetch_rows(
            ctx,
            (
                rid
                for _key, rid, _payload in self.index.seek_range(
                    ctx.io, self.low, self.high, self.low_inclusive, self.high_inclusive
                )
            ),
        )

    def batches(self, ctx: ExecutionContext) -> Iterator[RowBatch]:
        located = self.index.locate(
            self.low, self.high, self.low_inclusive, self.high_inclusive
        )
        return self._seek_batches(ctx, self.index, [located])


def probe_order(values: Iterable[Any]) -> tuple:
    """Distinct IN-list values in the order their probes run: ascending,
    so leaf access stays monotone.  The schema gives a column one type, so
    the values compare; a hand-built mixed list falls back to ``repr``."""
    distinct = set(values)
    try:
        return tuple(sorted(distinct))
    except TypeError:
        return tuple(sorted(distinct, key=repr))


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
    ) -> None:
        super().__init__()
        self.table = table
        self.index = table.index(index_name)
        self.values = probe_order(values)
        self.residual = residual
        self.bundle = bundle
        self.stats.detail = (
            f"{table.name}.{index_name} IN ({len(self.values)} values) "
            f"residual [{residual.key()}]"
        )

    @property
    def output_columns(self) -> tuple[str, ...]:
        return self.table.schema.column_names

    def rows(self, ctx: ExecutionContext) -> Iterator[tuple]:
        yield from self._fetch_rows(
            ctx,
            (
                rid
                for value in self.values
                for _key, rid, _payload in self.index.seek_equal(ctx.io, value)
            ),
        )

    def batches(self, ctx: ExecutionContext) -> Iterator[RowBatch]:
        located = [self.index.locate(value, value) for value in self.values]
        return self._seek_batches(ctx, self.index, located)


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
    ) -> None:
        super().__init__()
        if len(seeks) < 2:
            raise ValueError("index intersection needs at least two seeks")
        self.table = table
        self.seeks = seeks
        self.residual = residual
        self.bundle = bundle
        self.stats.detail = (
            f"{table.name} intersect "
            + " & ".join(s.index_name for s in seeks)
            + f" residual [{residual.key()}]"
        )

    @property
    def output_columns(self) -> tuple[str, ...]:
        return self.table.schema.column_names

    def _intersect(self, io) -> list:
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
        yield from self._fetch_rows(ctx, self._intersect(ctx.io))

    def batches(self, ctx: ExecutionContext) -> Iterator[RowBatch]:
        io = ctx.io
        leg_locators = []
        for spec in self.seeks:
            ctx.checkpoint()
            index = self.table.index(spec.index_name)
            start, stop = index.locate(
                spec.low, spec.high, spec.low_inclusive, spec.high_inclusive
            )
            io.charge_index_descent(1)
            leg_locators.append(set(zip(*index.read_runs(io, [(start, stop, None)]))))
        # Hashing RIDs during the intersection is CPU work.
        io.charge_hashes(sum(map(len, leg_locators)))
        ordered = sorted(set.intersection(*leg_locators))  # (page, slot) order
        data_file = self.table.data_file

        def fetched() -> Iterator[tuple[tuple[int, ...], tuple]]:
            for offset in range(0, len(ordered), ctx.batch_rows):
                ctx.checkpoint()
                pages, slots = zip(*ordered[offset : offset + ctx.batch_rows])
                yield pages, data_file.fetch_many(io, pages, slots)

        return self._filter_chunks(ctx, fetched())
