"""Scan operators: heap/clustered full scans, clustered range seeks and
covering index scans.

These are the *scan plans* of §III-B.  They run inside the storage engine,
see page ids, enjoy grouped page access, and host the
:class:`~repro.core.monitors.ScanMonitorBundle` that implements exact
counting and DPSample.  The scan evaluates:

* the query's own residual terms with normal short-circuiting on every
  row (this decides output and feeds exact prefix counters), and
* the full monitor conjunction with short-circuiting **off**, but only on
  pages the Bernoulli sampler selected and only when some request needs
  terms the plan would otherwise skip (Fig. 4, step 4).

All predicate-term evaluations — normal and monitoring-induced — are
charged to the execution's own IOContext, which is how the overhead
measurements of Figs. 7 and 9 arise.
"""

from __future__ import annotations

from itertools import groupby
from operator import itemgetter
from typing import Any, Iterator, Optional

from repro.common.types import PageId
from repro.core.monitors import FetchMonitorBundle, ScanMonitorBundle
from repro.exec import vector
from repro.exec.base import ExecutionContext, Operator
from repro.exec.batch import RowBatch
from repro.exec.seeks import evaluate_fetched
from repro.sql.evaluator import BoundConjunction, VectorOutcome
from repro.sql.predicates import Conjunction
from repro.storage.accounting import IOContext
from repro.storage.table import Table


class _MonitoredScanMixin:
    """Shared drive logic for operators with grouped page access: the row
    oracle's page/row loop (:meth:`_scan_pages`) and the batch drive's
    chunk loop (:meth:`_scan_chunks`)."""

    table: Table
    query_conjunction: Conjunction
    monitor_conjunction: Conjunction
    bundle: Optional[ScanMonitorBundle]

    #: Whether the operator consuming this scan reads column vectors:
    #: ``CountAggregate`` / ``GroupByCountAggregate``, and ``HashJoin`` on
    #: its *probe* side (it tests the key column against the build keys
    #: and materialises only the rows that join).  Derived from the plan
    #: shape by :func:`repro.core.planner.build_executable`, for table and
    #: clustered range scans alike; it picks the representation
    #: :meth:`_scan_chunks` emits.  Scans feeding a hash join's build
    #: side, an ``INLJoin`` or a ``Sort`` leave it off and emit row tuples
    #: of the surviving rows.
    parent_consumes_columns = False

    #: Resume tracking (armed by the reopt watchdog, off by default): the
    #: batch drive scans one page per chunk and records the clustering-key
    #: value of the last row of each *fully processed* page.  A trip
    #: raises at the checkpoint that precedes the next page, and the
    #: downstream consumer has synchronously drained every yielded batch,
    #: so after a mid-query stop ``resume_key`` is an exact replay
    #: boundary: every row with key <= resume_key was scanned, none beyond
    #: it were.  The row drive does not track, which is why resume is a
    #: batch-only path.
    resume_tracking = False
    resume_key_position: Optional[int] = None
    resume_key: Any = None

    def _bind(self) -> BoundConjunction:
        return BoundConjunction(
            self.monitor_conjunction, self.table.schema.column_names
        )

    def _scan_pages(
        self, ctx: ExecutionContext, page_iter: Iterator[tuple[Any, Any]]
    ) -> Iterator[tuple]:
        """The row oracle: the page/row loop over ``(page_id, rows)`` pairs.

        Each row is evaluated term by term through the scalar
        :meth:`~repro.sql.predicates.AtomicPredicate.matches`,
        short-circuited, except on a DPSample-selected page when some
        request is non-prefix: there every term is evaluated (Fig. 4,
        step 4).  Row, predicate-evaluation and monitor-check counts add
        up in locals and are charged before each ``yield`` and at page
        end, so a consumer that stops mid-page is charged exactly the rows
        it pulled.  The monitors get the batch drive's per-page feed, one
        page at a time: a coin from :meth:`ScanMonitorBundle.sample_pages`,
        then :meth:`ScanMonitorBundle.observe_pages` with one flag per
        expression entry and one ``(flag, probes, lookups)`` triple per
        bit-vector entry.  A bit-vector entry probes each row of a sampled
        page as it is read, until the page's first hit; its probes are
        charged when the page is folded.
        """
        tests = self._bind().term_tests()
        num_terms = len(tests)
        num_query_terms = len(self.query_conjunction)
        # A row failing query term *i* evaluated ``i + 1`` terms.
        query_tests = tuple(
            (position, matches, index + 1)
            for index, (position, matches) in enumerate(tests[:num_query_terms])
        )
        io = ctx.io
        stats = self.stats
        bundle = self.bundle
        full_evaluation = False
        if bundle is not None:
            witnesses = bundle.page_flag_witnesses()
            # An exact entry's page is flagged when some row passed every
            # query term up to the entry's last one — short-circuited
            # truth, as the batch drive reads it off its ``alive`` masks.
            needs = [max(terms, default=-1) + 1 for terms, _exact in witnesses]
            sampled_terms = [
                (entry, terms)
                for entry, (terms, exact) in enumerate(witnesses)
                if not exact
            ]
            probers = bundle.bitvector_probes()
            full_evaluation = bundle.evaluates_sampled_pages_in_full

        def charge(rows: int, evaluations: int, checks: bool) -> None:
            if rows:
                io.charge_rows(rows)
                if checks:
                    io.charge_monitor_checks(rows)
            if evaluations:
                io.charge_predicates(evaluations)
                stats.predicate_evaluations += evaluations

        monitored = bundle is not None
        for page_id, rows in page_iter:
            ctx.checkpoint()
            stats.pages_touched += 1
            sampled = probing = False
            if monitored:
                (sampled,) = bundle.sample_pages(page_id, 1)
                verdicts = [[False, 0, 0] for _ in probers]
                probing = sampled and bool(probers)
                witnessed = [False] * len(witnesses)
            # One more than the most leading query terms a row of the page
            # passed; 0 before its first row.
            deepest = 0
            read = charged = evaluations = 0
            if sampled and full_evaluation:
                for read, row in enumerate(rows, 1):
                    if probing:
                        probing = _probe_row(row, probers, verdicts)
                    truth = [matches(row[position]) for position, matches in tests]
                    evaluations += num_terms
                    for entry, terms in sampled_terms:
                        if not witnessed[entry] and all(
                            [truth[index] for index in terms]
                        ):
                            witnessed[entry] = True
                    prefix = truth[:num_query_terms]
                    if False in prefix:
                        deepest = max(deepest, prefix.index(False) + 1)
                        continue
                    deepest = num_query_terms + 1
                    charge(read - charged, evaluations, monitored)
                    charged, evaluations = read, 0
                    stats.actual_rows += 1
                    yield row
            else:
                for read, row in enumerate(rows, 1):
                    if probing:
                        probing = _probe_row(row, probers, verdicts)
                    for position, matches, evaluated in query_tests:
                        if not matches(row[position]):
                            evaluations += evaluated
                            if evaluated > deepest:
                                deepest = evaluated
                            break
                    else:
                        evaluations += num_query_terms
                        deepest = num_query_terms + 1
                        charge(read - charged, evaluations, monitored)
                        charged, evaluations = read, 0
                        stats.actual_rows += 1
                        yield row
            charge(read - charged, evaluations, False)
            if monitored:
                bundle.observe_pages(
                    [
                        [seen or (exact and deepest > need)]
                        for (_terms, exact), need, seen in zip(
                            witnesses, needs, witnessed
                        )
                    ],
                    [sampled],
                    read - charged,
                    io,
                    [([hit], [probes], [lookups]) for hit, probes, lookups in verdicts],
                )

    def batches(self, ctx: ExecutionContext) -> Iterator[RowBatch]:
        yield from self._scan_chunks(ctx)

    def _read_chunks(
        self, io: IOContext, rows_per_chunk: int
    ) -> Iterator[tuple[PageId, int, Any, int, list[int]]]:
        """The scanned rows as :meth:`~repro.storage.heap.DataFile.scan_column_chunks`
        tuples, charging ``io`` for every page read."""
        raise NotImplementedError

    def _scan_chunks(self, ctx: ExecutionContext) -> Iterator[RowBatch]:
        """The batch drive: column chunks of the scanned rows, monitored or not.

        Consumes ``(first_page_id, page_count, columns_view, num_rows,
        page_starts)`` tuples from :meth:`_read_chunks`, evaluating one
        whole-vector kernel per term per chunk.  Two things are derived,
        neither is an option:

        * the chunk width — ``ctx.batch_rows`` rows, wide enough to
          amortize NumPy dispatch, which 73-row pages cannot; or one page
          when a watchdog observes the run or resume tracking is armed, so
          the checkpoint, ``progress()`` and ``resume_key`` stay
          page-granular;
        * the output — the surviving rows as column vectors when
          :attr:`parent_consumes_columns`, else as row tuples, built for
          the survivors only.

        Monitors stay page-granular in what they *count*, not in how wide
        the kernel is: per chunk the bundle flips its per-page coins in
        page order, each entry's witness mask is reduced to one flag per
        page (``vector.segment_any`` — exactly the per-page flags of
        Fig. 4), each bit-vector entry's filter-hit mask to a flag and a
        first-hit offset per page (``vector.probe_pages``, Fig. 5), and the
        bundle folds those lists; no row mask crosses into
        :mod:`repro.core.monitors`.  Rows of sampled pages are
        evaluated (and charged) in full when some request is non-prefix,
        every other row short-circuited, so each simulated charge is the
        row drive's.
        """
        bound = self._bind()
        num_query_terms = len(self.query_conjunction)
        io = ctx.io
        stats = self.stats
        bundle = self.bundle
        witnesses = bundle.page_flag_witnesses() if bundle is not None else ()
        probes = bundle.bitvector_probes() if bundle is not None else ()
        full_evaluation = (
            bundle is not None and bundle.evaluates_sampled_pages_in_full
        )
        emit_columns = self.parent_consumes_columns
        key_position = self.resume_key_position if self.resume_tracking else None
        one_page = ctx.watchdog is not None or self.resume_tracking
        for first_page_id, page_count, columns, num_rows, page_starts in (
            self._read_chunks(io, 1 if one_page else ctx.batch_rows)
        ):
            ctx.checkpoint()
            stats.pages_touched += page_count
            io.charge_rows(num_rows)
            if key_position is not None:
                self.resume_key = vector.row_at(
                    (columns[key_position],), num_rows - 1
                )[0]
            full_rows = None
            if bundle is not None:
                sampled = bundle.sample_pages(first_page_id, page_count)
                if full_evaluation and True in sampled:
                    full_rows = vector.segment_expand(sampled, page_starts, num_rows)
            outcome = bound.evaluate_columns(
                columns, num_rows, num_query_terms, full_rows
            )
            passed = outcome.passed
            io.charge_predicates(outcome.evaluations)
            stats.predicate_evaluations += outcome.evaluations
            if bundle is not None:
                bundle.observe_pages(
                    [
                        _page_flags(outcome, terms, exact, page_starts)
                        for terms, exact in witnesses
                    ],
                    sampled,
                    num_rows,
                    io,
                    [
                        vector.probe_pages(
                            columns[position], bitvector, page_starts, sampled
                        )
                        for position, bitvector in probes
                    ],
                )
            selected = vector.mask_count(passed)
            stats.actual_rows += selected
            if not selected:
                continue
            if selected < num_rows:
                columns = tuple(vector.take(column, passed) for column in columns)
            if emit_columns:
                yield RowBatch.from_columns(columns, num_rows=selected)
            else:
                yield RowBatch(vector.rows_from_columns(columns, selected))

    def finalize(self, ctx: ExecutionContext) -> None:
        if self.bundle is not None:
            ctx.observations.extend(self.bundle.finish())


class SeqScan(_MonitoredScanMixin, Operator):
    """Full scan of a heap or clustered table (the paper's "Table Scan")."""

    engine_layer = "SE"

    def __init__(
        self,
        table: Table,
        query_conjunction: Conjunction,
        bundle: Optional[ScanMonitorBundle] = None,
        monitor_conjunction: Optional[Conjunction] = None,
    ) -> None:
        super().__init__()
        self.table = table
        self.query_conjunction = query_conjunction
        self.monitor_conjunction = (
            monitor_conjunction if monitor_conjunction is not None else query_conjunction
        )
        self.bundle = bundle
        self.stats.detail = f"{table.name} [{query_conjunction.key()}]"

    @property
    def output_columns(self) -> tuple[str, ...]:
        return self.table.schema.column_names

    def rows(self, ctx: ExecutionContext) -> Iterator[tuple]:
        def pages():
            for page_id, page in self.table.data_file.scan_pages(ctx.io):
                yield page_id, page.rows()

        yield from self._scan_pages(ctx, pages())

    def _read_chunks(
        self, io: IOContext, rows_per_chunk: int
    ) -> Iterator[tuple[PageId, int, Any, int, list[int]]]:
        return self.table.data_file.scan_column_chunks(io, rows_per_chunk)


def _probe_row(
    row: tuple, probers: list[tuple[int, Any]], verdicts: list[list]
) -> bool:
    """Probe one row of a sampled page into each bit-vector entry that has
    not hit on the page yet, updating its ``[hit, probes, lookups]``
    verdict (a NULL is probed but never reaches the filter, whose own
    counter is left to the fold); whether some entry still probes."""
    probing = False
    for (position, bitvector), verdict in zip(probers, verdicts):
        if verdict[0]:
            continue
        verdict[1] += 1
        value = row[position]
        if value is not None:
            verdict[2] += 1
            if not bitvector.first_hit((value,)):
                verdict[0] = True
                continue
        probing = True
    return probing


def _page_flags(
    outcome: VectorOutcome,
    term_indexes: tuple[int, ...],
    exact: bool,
    page_starts: list[int],
) -> list[bool]:
    """One monitor entry's per-page flags for a chunk.

    A page is flagged when some row of it witnesses the entry
    (:meth:`~repro.sql.evaluator.VectorOutcome.witness`): exact entries
    read short-circuited truth, sampled entries full truth, which exists
    only when the chunk holds a sampled page — without one they have
    nothing to count.
    """
    witness = outcome.witness(term_indexes, full_truth=not exact)
    if witness is None:
        return [False] * len(page_starts)
    return vector.segment_any(witness, page_starts)


class ClusteredRangeScan(_MonitoredScanMixin, Operator):
    """Range seek on the clustering key, plus residual predicate.

    Visits only the contiguous page run covering the key range; grouped
    page access holds within the run, so scan monitoring applies to any
    request that *includes* the range predicate (the planner enforces
    this — pages outside the run cannot satisfy such requests).
    """

    engine_layer = "SE"

    def __init__(
        self,
        table: Table,
        low: Optional[tuple],
        high: Optional[tuple],
        query_conjunction: Conjunction,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
        bundle: Optional[ScanMonitorBundle] = None,
        monitor_conjunction: Optional[Conjunction] = None,
    ) -> None:
        super().__init__()
        self.table = table
        self.low = low
        self.high = high
        self.low_inclusive = low_inclusive
        self.high_inclusive = high_inclusive
        self.query_conjunction = query_conjunction
        self.monitor_conjunction = (
            monitor_conjunction if monitor_conjunction is not None else query_conjunction
        )
        self.bundle = bundle
        self.stats.detail = (
            f"{table.name} key in "
            f"{'[' if low_inclusive else '('}{low}, {high}"
            f"{']' if high_inclusive else ')'} [{query_conjunction.key()}]"
        )

    @property
    def output_columns(self) -> tuple[str, ...]:
        return self.table.schema.column_names

    def rows(self, ctx: ExecutionContext) -> Iterator[tuple]:
        located = self.table.clustered_file().seek_range(
            ctx.io, self.low, self.high, self.low_inclusive, self.high_inclusive
        )
        pages = (
            (page_id, [row for _page_id, _slot, row in entries])
            for page_id, entries in groupby(located, key=itemgetter(0))
        )
        yield from self._scan_pages(ctx, pages)

    def _read_chunks(
        self, io: IOContext, rows_per_chunk: int
    ) -> Iterator[tuple[PageId, int, Any, int, list[int]]]:
        return self.table.clustered_file().seek_range_chunks(
            io,
            rows_per_chunk,
            self.low,
            self.high,
            self.low_inclusive,
            self.high_inclusive,
        )


class CoveringIndexScan(Operator):
    """Full leaf scan of a covering index.

    Outputs the index's carried columns.  Table page ids are *not* scanned
    here, but each leaf entry carries the row's locator, so DPC requests
    over carried columns are monitored with a
    :class:`~repro.core.monitors.FetchMonitorBundle` (linear counting over
    locator page ids) — grouped access holds for *index* pages, not for
    the table pages the request is about, hence the fetch-style mechanism.
    This refines the paper's blanket statement that covering-index scans
    behave like scan plans; the counts are identical, only the counter
    memory differs (documented in DESIGN.md).
    """

    engine_layer = "SE"

    def __init__(
        self,
        table: Table,
        index_name: str,
        query_conjunction: Conjunction,
        bundle: Optional[FetchMonitorBundle] = None,
        monitor_conjunction: Optional[Conjunction] = None,
        monitor_full_eval: bool = False,
    ) -> None:
        super().__init__()
        self.table = table
        self.index = table.index(index_name)
        self.query_conjunction = query_conjunction
        self.monitor_conjunction = (
            monitor_conjunction if monitor_conjunction is not None else query_conjunction
        )
        self.bundle = bundle
        self.monitor_full_eval = monitor_full_eval
        self.stats.detail = (
            f"{table.name}.{index_name} (covering) [{query_conjunction.key()}]"
        )

    @property
    def output_columns(self) -> tuple[str, ...]:
        return self.index.definition.carried_columns()

    def rows(self, ctx: ExecutionContext) -> Iterator[tuple]:
        columns = self.output_columns
        bound = BoundConjunction(self.monitor_conjunction, columns)
        num_query_terms = len(self.query_conjunction)
        io = ctx.io
        # Per-context counters make this an exact attribution even with
        # other executions in flight (the old code diffed global pool stats).
        leaf_pages_before = io.logical_reads
        entries_seen = 0
        for key, rid, payload in self.index.scan_all(io):
            entries_seen += 1
            if not entries_seen % 256:  # ~ a few leaf pages of entries
                ctx.checkpoint()
            entry_row = key + payload
            io.charge_rows(1)
            if self.monitor_full_eval and self.bundle is not None:
                outcome = bound.evaluate(entry_row, short_circuit=False)
                passed = all(outcome.truth[:num_query_terms])
            else:
                outcome = bound.evaluate_prefix(
                    entry_row, num_query_terms, short_circuit=True
                )
                passed = outcome.passed
            io.charge_predicates(outcome.evaluations)
            self.stats.predicate_evaluations += outcome.evaluations
            if self.bundle is not None:
                self.bundle.observe_fetch(rid.page_id, outcome, io)
            if passed:
                self.stats.actual_rows += 1
                yield entry_row
        self.stats.pages_touched = io.logical_reads - leaf_pages_before

    def batches(self, ctx: ExecutionContext) -> Iterator[RowBatch]:
        bound = BoundConjunction(self.monitor_conjunction, self.output_columns)
        num_query_terms = len(self.query_conjunction)
        io = ctx.io
        stats = self.stats
        full_evaluation = self.monitor_full_eval and self.bundle is not None
        leaf_pages_before = io.logical_reads
        index = self.index
        io.charge_index_descent(1)
        for runs in index.chunk_runs([index.locate()], ctx.batch_rows):
            ctx.checkpoint()
            page_ids, _slots = index.read_runs(io, runs)
            columns = index.entry_columns(runs)
            passed = evaluate_fetched(
                self, bound, io, page_ids, columns, num_query_terms, full_evaluation
            )
            out = vector.rows_where(columns, passed)
            stats.actual_rows += len(out)
            if out:
                yield RowBatch(out)
        stats.pages_touched = io.logical_reads - leaf_pages_before

    def finalize(self, ctx: ExecutionContext) -> None:
        if self.bundle is not None:
            ctx.observations.extend(self.bundle.finish())
