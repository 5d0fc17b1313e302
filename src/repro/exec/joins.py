"""Join operators: Index Nested Loops, Hash Join and Merge Join (§IV).

The monitoring story differs per method, mirroring the paper:

* **INL Join** — the inner side is fetched through an index, so the inner
  fetch stream carries page ids; a
  :class:`~repro.core.monitors.FetchMonitorBundle` with a linear counter
  observes it directly (like an Index Seek).  A
  :class:`~repro.core.monitors.LeafPageMonitor` counts the index leaves
  the probes land on, from the runs they located.

* **Hash Join** — the join predicate is evaluated in the relational
  engine, where page ids are invisible.  When monitoring is requested the
  planner hands the operator a :class:`~repro.core.bitvector.BitVectorFilter`;
  the build phase inserts every build-side join value (the SE→RE callback
  of §V-A), and the probe-side *scan* probes the filter on sampled pages
  as a derived semi-join predicate (Fig. 5).  The same build phase can
  locate its keys in the probe table's index for a
  :class:`~repro.core.monitors.LeafPageMonitor`: the leaves an INL join
  driven by the build side would read.  In batch mode the probe is
  a column consumer: a probe-side table scan hands it multi-page column
  chunks, it tests each chunk's key column against the build keys in one
  pass and builds row tuples only for the positions that join (the build
  side, whose every row goes into the hash table, stays row lists).

* **Merge Join** — same bit-vector idea; with a blocking Sort on the outer
  the vector is complete before the inner is pulled ("blocking" mode), and
  with pre-sorted inputs a :class:`~repro.core.bitvector.PartialBitVectorFilter`
  fills incrementally as the outer advances ("partial" mode), sound
  because a merge join never advances the inner past the outer's current
  key.
"""

from __future__ import annotations

from itertools import compress
from typing import Any, Iterator, Optional, Sequence

from repro.common.errors import ExecutionError
from repro.core.bitvector import BitVectorFilter, PartialBitVectorFilter
from repro.core.monitors import FetchMonitorBundle, LeafPageMonitor
from repro.exec import vector
from repro.exec.base import ExecutionContext, Operator
from repro.exec.batch import RowBatch
from repro.exec.seeks import evaluate_fetched
from repro.sql.evaluator import BoundConjunction
from repro.sql.predicates import Conjunction
from repro.storage.table import Table


def _position_of(columns: tuple[str, ...], name: str) -> int:
    """Resolve ``name`` in an output-column list, accepting a bare column
    name when the list is qualified (``t.c``) and unambiguous."""
    if name in columns:
        return columns.index(name)
    suffix_matches = [i for i, c in enumerate(columns) if c.endswith(f".{name}")]
    if len(suffix_matches) == 1:
        return suffix_matches[0]
    raise ExecutionError(
        f"column {name!r} not found (or ambiguous) in {list(columns)}"
    )


class INLJoin(Operator):
    """Index Nested Loops join: stream the outer, seek the inner's index.

    ``inner_index_name=None`` means the inner table's *clustered* key is
    the join column, so fetches go straight to the clustered file.

    :meth:`batches` probes an inner *index* one outer batch at a time:
    one sorted search locates every outer key's run of leaf entries
    (:meth:`BTreeIndex.locate_equal_many`), the runs' page reads are
    charged as one stream in outer-row order (:meth:`BTreeIndex.read_runs`),
    their columns gathered in one pass, and the residual (on the column
    kernels) and the fetch bundle see a chunk of at most ``batch_rows``
    fetches at a time; joined rows are built for the survivors only.  Rows
    and every charge are those of :meth:`rows`, one seek per outer row.
    """

    engine_layer = "RE"  # the loop is RE; the inner fetch runs in SE

    def __init__(
        self,
        outer: Operator,
        outer_join_column: str,
        inner_table: Table,
        inner_join_column: str,
        inner_residual: Conjunction,
        inner_index_name: Optional[str] = None,
        outer_label: str = "outer",
        bundle: Optional[FetchMonitorBundle] = None,
        leaf_monitor: Optional[LeafPageMonitor] = None,
    ) -> None:
        super().__init__()
        self.outer = outer
        self.outer_join_column = outer_join_column
        self.inner_table = inner_table
        self.inner_join_column = inner_join_column
        self.inner_residual = inner_residual
        self.inner_index_name = inner_index_name
        self.outer_label = outer_label
        self.bundle = bundle
        self.leaf_monitor = leaf_monitor
        access = inner_index_name or "clustered-key"
        self.stats.detail = (
            f"inner={inner_table.name} via {access} on {inner_join_column}"
        )

    @property
    def output_columns(self) -> tuple[str, ...]:
        outer_cols = tuple(
            c if "." in c else f"{self.outer_label}.{c}"
            for c in self.outer.output_columns
        )
        inner_cols = tuple(
            f"{self.inner_table.name}.{c}"
            for c in self.inner_table.schema.column_names
        )
        return outer_cols + inner_cols

    def children(self) -> list[Operator]:
        return [self.outer]

    def rows(self, ctx: ExecutionContext) -> Iterator[tuple]:
        io = ctx.io
        outer_pos = _position_of(self.outer.output_columns, self.outer_join_column)
        bound = BoundConjunction(
            self.inner_residual, self.inner_table.schema.column_names
        )
        use_clustered = self.inner_index_name is None
        if use_clustered:
            clustered = self.inner_table.clustered_file()
        else:
            index = self.inner_table.index(self.inner_index_name)
        leaf_monitor = self.leaf_monitor
        for outer_row in self.outer.rows(ctx):
            ctx.checkpoint()
            value = outer_row[outer_pos]
            if value is None:
                continue
            if use_clustered:
                fetches = clustered.fetch_by_key(io, (value,))
            else:
                if leaf_monitor is not None:
                    leaf_monitor.observe_probes(*index.locate_equal_many([value]), io)
                fetches = (
                    self.inner_table.fetch(io, rid)
                    for _key, rid, _payload in index.seek_equal(io, value)
                )
            for page_id, inner_row in fetches:
                io.charge_rows(1)
                outcome = bound.evaluate(inner_row, short_circuit=True)
                io.charge_predicates(outcome.evaluations)
                self.stats.predicate_evaluations += outcome.evaluations
                if self.bundle is not None:
                    self.bundle.observe_fetch(page_id, outcome, io)
                if outcome.passed:
                    self.stats.actual_rows += 1
                    yield outer_row + inner_row

    def batches(self, ctx: ExecutionContext) -> Iterator[RowBatch]:
        io = ctx.io
        outer_pos = _position_of(self.outer.output_columns, self.outer_join_column)
        bound = BoundConjunction(
            self.inner_residual, self.inner_table.schema.column_names
        )
        fetch = (
            self._fetch_by_clustered_key
            if self.inner_index_name is None
            else self._fetch_by_index
        )
        for outer_batch in self.outer.batches(ctx):
            outer_rows = [
                row for row in outer_batch.rows if row[outer_pos] is not None
            ]
            keys = [row[outer_pos] for row in outer_rows]
            for matched, page_ids, columns in fetch(ctx, outer_rows, keys):
                ctx.checkpoint()
                passed = evaluate_fetched(self, bound, io, page_ids, columns)
                inner_rows = vector.rows_where(columns, passed)
                if len(inner_rows) < len(matched):
                    matched = compress(matched, vector.mask_values(passed))
                out = [
                    outer_row + inner_row
                    for outer_row, inner_row in zip(matched, inner_rows)
                ]
                self.stats.actual_rows += len(out)
                if out:
                    yield RowBatch(out)

    def _fetch_by_index(
        self, ctx: ExecutionContext, outer_rows: list[tuple], keys: list
    ) -> Iterator[tuple[list[tuple], list[int], tuple]]:
        """The inner fetches of one outer batch, through the inner index:
        chunks of ``(outer row per fetch, page ids, inner columns)``.

        One sorted search locates every probe key's run of leaf entries;
        each probe is a seek of its own (a descent, a random read of its
        first leaf), and the runs are read in outer-row order — the page
        reads of :meth:`rows`, in the same order.
        """
        index = self.inner_table.index(self.inner_index_name)
        starts, stops = index.locate_equal_many(keys)
        ctx.io.charge_index_descent(len(keys))
        if self.leaf_monitor is not None:
            self.leaf_monitor.observe_probes(starts, stops, ctx.io)
        matched = [
            outer_row
            for outer_row, start, stop in zip(outer_rows, starts, stops)
            for _ in range(stop - start)
        ]
        data_file = self.inner_table.data_file
        offset = 0
        for runs in index.chunk_runs(zip(starts, stops), ctx.batch_rows):
            page_ids, slots = index.read_runs(ctx.io, runs, data_file.file_id)
            columns = data_file.columns_at(page_ids, slots)
            yield matched[offset : offset + len(page_ids)], page_ids, columns
            offset += len(page_ids)

    def _fetch_by_clustered_key(
        self, ctx: ExecutionContext, outer_rows: list[tuple], keys: list
    ) -> Iterator[tuple[list[tuple], list[int], tuple]]:
        """The same chunks when the inner's clustered key is the join
        column: one :meth:`ClusteredFile.fetch_by_key` per outer row, each
        chunk's rows transposed into columns."""
        clustered = self.inner_table.clustered_file()
        width = len(self.inner_table.schema.column_names)
        matched: list[tuple] = []
        page_ids: list[int] = []
        inner_rows: list[tuple] = []
        for outer_row, key in zip(outer_rows, keys):
            for page_id, inner_row in clustered.fetch_by_key(ctx.io, (key,)):
                matched.append(outer_row)
                page_ids.append(page_id)
                inner_rows.append(inner_row)
                if len(inner_rows) >= ctx.batch_rows:
                    yield matched, page_ids, vector.columns_from_rows(inner_rows, width)
                    matched, page_ids, inner_rows = [], [], []
        if inner_rows:
            yield matched, page_ids, vector.columns_from_rows(inner_rows, width)

    def finalize(self, ctx: ExecutionContext) -> None:
        self.outer.finalize(ctx)
        if self.bundle is not None:
            ctx.observations.extend(self.bundle.finish())
        if self.leaf_monitor is not None:
            ctx.observations.extend(self.leaf_monitor.finish())


class HashJoin(Operator):
    """Classic build/probe in-memory hash join (equality predicate).

    :meth:`batches` probes a batch the way it is stored.  A column-backed
    probe batch (a table scan the planner marked, see
    :attr:`repro.exec.scans.SeqScan.parent_consumes_columns`) costs one
    :class:`~repro.exec.vector.KeyLookup` membership test of its key
    column and a gather of the matching rows; a row-backed one (any other
    probe child) takes the per-row loop.  Either way the output is the
    row loop's: ``build_row + probe_row`` in probe order, then build
    insertion order.
    """

    engine_layer = "RE"

    def __init__(
        self,
        build: Operator,
        probe: Operator,
        build_join_column: str,
        probe_join_column: str,
        build_label: str = "build",
        probe_label: str = "probe",
        bitvector: Optional[BitVectorFilter] = None,
        leaf_monitors: Sequence[LeafPageMonitor] = (),
    ) -> None:
        super().__init__()
        self.build = build
        self.probe = probe
        self.build_join_column = build_join_column
        self.probe_join_column = probe_join_column
        self.build_label = build_label
        self.probe_label = probe_label
        self.bitvector = bitvector
        self.leaf_monitors = tuple(leaf_monitors)
        self.stats.detail = f"{build_join_column} = {probe_join_column}"

    @property
    def output_columns(self) -> tuple[str, ...]:
        build_cols = tuple(
            c if "." in c else f"{self.build_label}.{c}"
            for c in self.build.output_columns
        )
        probe_cols = tuple(
            c if "." in c else f"{self.probe_label}.{c}"
            for c in self.probe.output_columns
        )
        return build_cols + probe_cols

    def children(self) -> list[Operator]:
        return [self.build, self.probe]

    def rows(self, ctx: ExecutionContext) -> Iterator[tuple]:
        io = ctx.io
        build_pos = _position_of(self.build.output_columns, self.build_join_column)
        probe_pos = _position_of(self.probe.output_columns, self.probe_join_column)

        # Build phase (blocking): also fills the monitoring bit vector —
        # this is the SE→RE callback moment of Fig. 5.  Its hashes are
        # charged once, when the build side is drained (or stops).
        hash_table: dict[Any, list[tuple]] = {}
        keys: list[Any] = []
        try:
            for build_row in self.build.rows(ctx):
                value = build_row[build_pos]
                if value is None:
                    continue
                keys.append(value)
                hash_table.setdefault(value, []).append(build_row)
                if self.bitvector is not None:
                    self.bitvector.insert(value)
        finally:
            if keys:
                io.charge_hashes(len(keys) * (2 if self.bitvector is not None else 1))
        for leaf_monitor in self.leaf_monitors:
            leaf_monitor.observe_keys(keys, io)

        # Probe phase: streams; the probe child's scan bundle (if any)
        # consults the now-complete bit vector on sampled pages.  Hashes
        # add up and are charged before each yield and at the end.
        hashes = 0
        for probe_row in self.probe.rows(ctx):
            value = probe_row[probe_pos]
            if value is None:
                continue
            hashes += 1
            matches = hash_table.get(value)
            if not matches:
                continue
            io.charge_hashes(hashes)
            hashes = 0
            for build_row in matches:
                self.stats.actual_rows += 1
                yield build_row + probe_row
        if hashes:
            io.charge_hashes(hashes)

    def batches(self, ctx: ExecutionContext) -> Iterator[RowBatch]:
        io = ctx.io
        build_pos = _position_of(self.build.output_columns, self.build_join_column)
        probe_pos = _position_of(self.probe.output_columns, self.probe_join_column)
        bitvector = self.bitvector
        stats = self.stats
        chunk_size = ctx.batch_rows

        hash_table: dict[Any, list[tuple]] = {}
        setdefault = hash_table.setdefault
        for build_batch in self.build.batches(ctx):
            build_rows = build_batch.rows
            keys = [build_row[build_pos] for build_row in build_rows]
            if None in keys:  # NULL never joins
                build_rows = [row for row in build_rows if row[build_pos] is not None]
                keys = [row[build_pos] for row in build_rows]
            for key, build_row in zip(keys, build_rows):
                setdefault(key, []).append(build_row)
            hashes = len(keys)
            if bitvector is not None:
                hashes *= 2
                bitvector.insert_all(keys)
            if hashes:
                io.charge_hashes(hashes)
            for leaf_monitor in self.leaf_monitors:
                leaf_monitor.observe_keys(keys, io)

        get = hash_table.get
        lookup: Optional[vector.KeyLookup] = None
        out: list[tuple] = []
        for probe_batch in self.probe.batches(ctx):
            if probe_batch.is_columnar:
                # A column batch is probed the way it is stored: one
                # membership test of the key column, and row tuples only
                # for the positions that join.
                if lookup is None:
                    lookup = vector.KeyLookup(hash_table)
                key_column = probe_batch.column(probe_pos)
                hashes = vector.count_notnull(key_column)
                matched = lookup.matching_indexes(key_column)
                if matched:
                    for probe_row in vector.rows_at(probe_batch.columns, matched):
                        for build_row in hash_table[probe_row[probe_pos]]:
                            out.append(build_row + probe_row)
                    if len(out) >= chunk_size:
                        stats.actual_rows += len(out)
                        yield RowBatch(out)
                        out = []
                if hashes:
                    io.charge_hashes(hashes)
                continue
            hashes = 0
            for probe_row in probe_batch.rows:
                value = probe_row[probe_pos]
                if value is None:
                    continue
                hashes += 1
                matches = get(value)
                if not matches:
                    continue
                for build_row in matches:
                    out.append(build_row + probe_row)
                if len(out) >= chunk_size:
                    stats.actual_rows += len(out)
                    yield RowBatch(out)
                    out = []
            if hashes:
                io.charge_hashes(hashes)
        if out:
            stats.actual_rows += len(out)
            yield RowBatch(out)

    def finalize(self, ctx: ExecutionContext) -> None:
        self.build.finalize(ctx)
        self.probe.finalize(ctx)
        for leaf_monitor in self.leaf_monitors:
            ctx.observations.extend(leaf_monitor.finish())


class MergeJoin(Operator):
    """Merge join over inputs sorted on the join columns.

    ``bitvector_mode`` selects the §IV Merge-Join monitoring variant:
    ``"blocking"`` fills the filter completely before the inner side is
    pulled (correct when the outer child is a blocking Sort — we enforce
    it by materialising the outer); ``"partial"`` inserts outer values as
    they are consumed and requires a :class:`PartialBitVectorFilter`.

    Merge join keeps the default row-adapter :meth:`batches` — its
    single-row lookahead (group gathering at key boundaries) is inherently
    row-at-a-time, and its inputs in this repro are always Sorts or
    pre-sorted streams, never the hot scan path.
    """

    engine_layer = "RE"

    def __init__(
        self,
        outer: Operator,
        inner: Operator,
        outer_join_column: str,
        inner_join_column: str,
        outer_label: str = "outer",
        inner_label: str = "inner",
        bitvector: Optional[BitVectorFilter] = None,
        bitvector_mode: Optional[str] = None,
    ) -> None:
        super().__init__()
        if bitvector_mode not in (None, "blocking", "partial"):
            raise ExecutionError(f"unknown bitvector_mode {bitvector_mode!r}")
        if bitvector_mode == "partial" and not isinstance(
            bitvector, PartialBitVectorFilter
        ):
            raise ExecutionError("partial mode requires a PartialBitVectorFilter")
        if bitvector_mode is not None and bitvector is None:
            raise ExecutionError("bitvector_mode set but no bitvector supplied")
        self.outer = outer
        self.inner = inner
        self.outer_join_column = outer_join_column
        self.inner_join_column = inner_join_column
        self.outer_label = outer_label
        self.inner_label = inner_label
        self.bitvector = bitvector
        self.bitvector_mode = bitvector_mode
        self.stats.detail = f"{outer_join_column} = {inner_join_column}"

    @property
    def output_columns(self) -> tuple[str, ...]:
        outer_cols = tuple(
            c if "." in c else f"{self.outer_label}.{c}"
            for c in self.outer.output_columns
        )
        inner_cols = tuple(
            c if "." in c else f"{self.inner_label}.{c}"
            for c in self.inner.output_columns
        )
        return outer_cols + inner_cols

    def children(self) -> list[Operator]:
        return [self.outer, self.inner]

    def rows(self, ctx: ExecutionContext) -> Iterator[tuple]:
        io = ctx.io
        outer_pos = _position_of(self.outer.output_columns, self.outer_join_column)
        inner_pos = _position_of(self.inner.output_columns, self.inner_join_column)

        if self.bitvector_mode == "blocking":
            # Materialise the outer (it is blocking anyway when fed by a
            # Sort) and complete the bit vector before touching the inner.
            outer_rows = list(self.outer.rows(ctx))
            for position, row in enumerate(outer_rows):
                if not position % 256:
                    # The materialised pass charges hashes without pulling
                    # from a (checkpointing) child, so it needs its own
                    # cancellation boundary.
                    ctx.checkpoint()
                value = row[outer_pos]
                if value is not None:
                    io.charge_hashes(1)
                    self.bitvector.insert(value)
            outer_iter: Iterator[tuple] = iter(outer_rows)
        else:
            outer_iter = self.outer.rows(ctx)
        inner_iter = self.inner.rows(ctx)

        def next_outer() -> Optional[tuple]:
            for row in outer_iter:
                io.charge_rows(1)
                if self.bitvector_mode == "partial":
                    value = row[outer_pos]
                    if value is not None:
                        io.charge_hashes(1)
                        self.bitvector.insert(value)
                return row
            return None

        def next_inner() -> Optional[tuple]:
            for row in inner_iter:
                io.charge_rows(1)
                return row
            return None

        outer_row = next_outer()
        inner_row = next_inner()
        while outer_row is not None and inner_row is not None:
            outer_key = outer_row[outer_pos]
            inner_key = inner_row[inner_pos]
            if outer_key is None or (inner_key is not None and outer_key < inner_key):
                outer_row = next_outer()
                continue
            if inner_key is None or inner_key < outer_key:
                inner_row = next_inner()
                continue
            # Equal keys: gather both groups and emit the cross product.
            key = outer_key
            outer_group = [outer_row]
            outer_row = next_outer()
            while outer_row is not None and outer_row[outer_pos] == key:
                outer_group.append(outer_row)
                outer_row = next_outer()
            inner_group = [inner_row]
            inner_row = next_inner()
            while inner_row is not None and inner_row[inner_pos] == key:
                inner_group.append(inner_row)
                inner_row = next_inner()
            for o_row in outer_group:
                for i_row in inner_group:
                    self.stats.actual_rows += 1
                    yield o_row + i_row
        # Drain the inner so its scan monitors see every page: a merge
        # join would normally stop early, but monitoring semantics (and the
        # paper's DPSample-on-scan) require the scan to complete.  Draining
        # costs sequential I/O the plain plan also pays unless the outer's
        # key range ends early; we keep it simple and drain only when a
        # bit-vector monitor is attached.
        if self.bitvector is not None:
            while inner_row is not None:
                inner_row = next_inner()

    def finalize(self, ctx: ExecutionContext) -> None:
        self.outer.finalize(ctx)
        self.inner.finalize(ctx)
