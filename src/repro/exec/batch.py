"""Row batches: the unit of exchange in chunk-at-a-time execution.

The Volcano row iterator (:meth:`~repro.exec.base.Operator.rows`) costs a
Python generator hop per row; at repro scale the simulator — not the
simulated I/O — dominates wall-clock.  Batch mode replaces the per-row
exchange with :class:`RowBatch` objects of about
:data:`DEFAULT_BATCH_ROWS` rows.  A table or clustered range scan emits
one batch of survivors per multi-page chunk (one page per chunk under a
watchdog or resume tracking); the monitors stay page-granular because
the scan reduces its chunk-wide masks to per-page verdicts, not because
batches align with pages.

A batch carries one of two physical representations behind one logical
interface:

* **row-backed** — a list of row tuples: what every operator emits, with
  one exception;
* **column-backed** — a tuple of column vectors (one per output column,
  see :mod:`repro.exec.vector`) plus a row count.  Only the chunk
  scan (:meth:`repro.exec.scans.SeqScan.batches`,
  :class:`~repro.exec.scans.ClusteredRangeScan`) builds these,
  straight from the file-level column cache with zero copying on
  all-pass chunks, and only when its parent consumes columns:
  ``CountAggregate``/``GroupByCountAggregate``, which read one column,
  and ``HashJoin`` on its probe side, which reads the key column and
  gathers row tuples for the matching positions only — so a column
  batch is never transposed back into rows wholesale on a production
  path.

Either way the logical content is the same ordered run of rows the row
iterator would have yielded, which is what makes row ≡ batch
equivalence checkable row-for-row.  ``batch.rows`` is the ``to_rows()``
shim: a consumer that reads it off a column-backed batch (only the
executor's root drain, when a chunk scan is driven standalone) gets
Python row tuples materialized from the columns, cached.  All per-term
truth bookkeeping lives in the evaluator's outcome masks
(:class:`~repro.sql.evaluator.VectorOutcome`), so batches themselves
carry no selection vectors — operators emit batches of *surviving* rows
only.

Column vectors held by a batch are read-only by contract: all-pass
chunks hand out views of the file's cached columns without copying.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

from repro.exec import vector

#: Rows per batch: a scan's chunk width and a relational-engine chunk.
DEFAULT_BATCH_ROWS = 1024


class RowBatch:
    """An ordered run of output rows from one operator.

    Construct row-backed batches positionally (``RowBatch(rows)``) and
    column-backed batches via :meth:`from_columns`.
    """

    __slots__ = ("_rows", "_columns", "_num_rows")

    def __init__(
        self,
        rows: Optional[list[tuple]] = None,
        *,
        columns: Optional[tuple] = None,
        num_rows: Optional[int] = None,
    ) -> None:
        if rows is None and columns is None:
            rows = []
        self._rows = rows
        self._columns = columns
        if num_rows is not None:
            self._num_rows = num_rows
        elif rows is not None:
            self._num_rows = len(rows)
        else:
            assert columns is not None
            self._num_rows = (
                vector.column_length(columns[0]) if columns else 0
            )

    @classmethod
    def from_columns(
        cls,
        columns: Sequence,
        num_rows: Optional[int] = None,
    ) -> "RowBatch":
        """Build a column-backed batch from column vectors."""
        return cls(columns=tuple(columns), num_rows=num_rows)

    @property
    def is_columnar(self) -> bool:
        """True when the batch holds column vectors (rows not materialized)."""
        return self._columns is not None

    @property
    def rows(self) -> list[tuple]:
        """Row tuples, materializing from columns on first access (the shim)."""
        if self._rows is None:
            self._rows = self.to_rows()
        return self._rows

    @property
    def columns(self) -> tuple:
        """Column vectors, transposing from rows on first access."""
        if self._columns is None:
            width = len(self._rows[0]) if self._rows else 0
            self._columns = vector.columns_from_rows(self._rows, width)
        return self._columns

    def column(self, position: int):
        """One column vector by output-column position."""
        return self.columns[position]

    def to_rows(self) -> list[tuple]:
        """Materialize row tuples of Python scalars (no caching)."""
        if self._rows is not None:
            return self._rows
        assert self._columns is not None
        return vector.rows_from_columns(self._columns, self._num_rows)

    def __len__(self) -> int:
        return self._num_rows

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def __repr__(self) -> str:
        kind = "columns" if self.is_columnar else "rows"
        return f"RowBatch({self._num_rows} {kind})"


def chunk_rows(
    rows: Iterable[tuple], batch_rows: int = DEFAULT_BATCH_ROWS
) -> Iterator[RowBatch]:
    """Adapt a row stream into fixed-size :class:`RowBatch` chunks.

    The default :meth:`~repro.exec.base.Operator.batches` uses this so
    every operator is batch-drivable even before it gains a native batch
    implementation (the rows themselves still flow through the operator's
    row loop, so all accounting is unchanged).
    """
    chunk: list[tuple] = []
    append = chunk.append
    for row in rows:
        append(row)
        if len(chunk) >= batch_rows:
            yield RowBatch(chunk)
            chunk = []
            append = chunk.append
    if chunk:
        yield RowBatch(chunk)
