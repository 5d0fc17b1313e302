"""Column vectors: NumPy arrays where the data allows, lists elsewhere.

This is the single seam between the chunk scan (the batch drive's one
column-vector path, monitored or not) and NumPy, which is a dependency.
Everything above it (predicates, the compiled vector kernel, the chunk
scan, the two column-consuming aggregates) manipulates *columns* and
*masks* as opaque values through the functions here.

Representation contract:

* A **column** is either a 1-D ``numpy.ndarray`` of a primitive dtype
  (bool/int/uint/float/str) or a plain Python list.  Columns holding SQL
  NULL (``None``) or mixed/object values always stay lists — NumPy's
  object arrays would silently change comparison semantics, and typed
  arrays cannot represent NULL at all.  This gives the NULL invariant
  for free: an ndarray column *never* contains NULL.
* A **mask** is either a 1-D bool ndarray or a list of bools, aligned
  with a column.  Functions accept mixed representations (one term of a
  conjunction may have fallen back to the Python path).
* Columns and masks are treated as immutable by every consumer; page
  column caches and zero-copy batch hand-offs rely on this.

Values extracted from columns (``column_values``/``rows_from_columns``)
are always *Python* scalars — NumPy scalar types must never leak into
row tuples, IO counters or observation details, where ``repr`` is part
of the equivalence fingerprint.

The per-row loops in this module are the sanctioned list-column path
(codelint R011 exempts this file).
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from functools import reduce
from typing import TYPE_CHECKING, Any, Callable, Iterator, Optional, Sequence, Union

if TYPE_CHECKING:
    from repro.core.bitvector import BitVectorFilter

import numpy as _np

#: Dtype kinds a column array may have.  Anything else (object, datetime,
#: void...) falls back to a list column.
_PRIMITIVE_KINDS = "biufUS"

Column = Union[_np.ndarray, list]
Mask = Union[_np.ndarray, list]

_OPS: dict[str, Callable[[Any, Any], Any]] = {
    "<": operator.lt,
    "<=": operator.le,
    "=": operator.eq,
    ">=": operator.ge,
    ">": operator.gt,
    "!=": operator.ne,
}


def _is_array(value: Any) -> bool:
    return isinstance(value, _np.ndarray)


def make_column(values: Sequence) -> Column:
    """Build a column from scalar values (one table column of one page).

    Returns a typed ndarray when the values are homogeneous primitives;
    NULL-bearing or object-valued columns stay Python lists so comparison
    semantics are untouched.
    """
    arr = _np.asarray(values)
    if (
        arr.ndim != 1
        or arr.dtype.kind not in _PRIMITIVE_KINDS
        or _rounds_ints(arr, values)
    ):
        return values if isinstance(values, list) else list(values)
    return arr


def make_scan_column(values: Column) -> Column:
    """Build a *stored* column (a table's, an index leaf's) from one
    column's values (a stored column is returned as it is).

    Unlike :func:`make_column`, only numeric NULL-free columns become
    ndarrays: converting a long string column (``numpy.asarray`` on tens
    of thousands of Python strs) costs more than every comparison it
    could ever accelerate, so strings stay lists and take the Python
    kernels.  The caller passes an owned list; it is returned as-is on
    the fallback paths.
    """
    if _is_array(values):
        return values
    first = next((value for value in values if value is not None), None)
    if isinstance(first, bool) or not isinstance(first, (int, float)):
        return values
    arr = _np.asarray(values)
    if arr.ndim != 1 or arr.dtype.kind not in "iuf":
        return values  # NULL-bearing or mixed: object dtype, stay a list
    if _rounds_ints(arr, values):
        return values
    return arr


def _rounds_ints(arr: Any, values: Sequence) -> bool:
    """Whether ``numpy.asarray`` turned an int beyond int64 into a float.

    NumPy stores ints in ``[2**63, 2**64)`` (and any int beside a float)
    as float64, which rounds the large ones; such a column must stay a
    list.  Only a float array holding a magnitude of at least ``2**63``
    is checked value by value.
    """
    if arr.dtype.kind != "f" or not (_np.abs(arr) >= 2.0**63).any():
        return False
    return any(
        type(value) is int and not -(2**63) <= value < 2**63 for value in values
    )


class SlicedColumns:
    """Zero-copy view of a contiguous row range of file-level columns.

    Behaves like the tuple-of-columns the chunk scan consumes
    (``len`` is the column count, ``[i]``/iteration yield per-column
    vectors), but materializes each column slice on access — ndarray
    slices are views, so handing a 73-row page or a 1024-row chunk out
    of a file-wide array allocates nothing.
    """

    __slots__ = ("_source", "_start", "_stop")

    def __init__(self, source: Sequence, start: int, stop: int) -> None:
        self._source = source
        self._start = start
        self._stop = stop

    def __len__(self) -> int:
        return len(self._source)

    def __bool__(self) -> bool:
        return len(self._source) > 0

    def __getitem__(self, position: int) -> Column:
        return self._source[position][self._start : self._stop]

    def __iter__(self) -> Iterator[Column]:
        start, stop = self._start, self._stop
        for column in self._source:
            yield column[start:stop]


def columns_from_rows(rows: Sequence[tuple], num_columns: int) -> tuple:
    """Transpose row tuples into a tuple of columns."""
    if not rows:
        return tuple(make_column([]) for _ in range(num_columns))
    return tuple(make_column(list(col)) for col in zip(*rows))


def rows_from_columns(columns: Sequence[Column], num_rows: int) -> list[tuple]:
    """Transpose columns back into row tuples of Python scalars."""
    if not columns:
        return [() for _ in range(num_rows)]
    return list(zip(*(column_values(column) for column in columns)))


def column_length(column: Column) -> int:
    return len(column)


def column_values(column: Column) -> list:
    """The column as a list of Python scalars (ndarray ``tolist`` path)."""
    if _is_array(column):
        return column.tolist()
    return column


def take(column: Column, mask: Mask) -> Column:
    """Rows of ``column`` where ``mask`` is true, preserving order."""
    if _is_array(column):
        if _is_array(mask):
            return column[mask]
        return column[_np.asarray(mask, dtype=bool)]
    if _is_array(mask):
        mask = mask.tolist()
    return [value for value, keep in zip(column, mask) if keep]


def count_notnull(column: Column) -> int:
    """Number of non-NULL values (O(1) for typed arrays — no NULLs)."""
    if _is_array(column):
        return len(column)
    return sum(1 for value in column if value is not None)


def values_at(column: Column, indexes: Sequence[int]) -> Column:
    """The column's values at the listed positions, in that order (a gather)."""
    if _is_array(column):
        return column[indexes]
    return [column[index] for index in indexes]


def gather(columns: Sequence[Column], indexes: Sequence[int]) -> tuple:
    """Each column's values at the listed positions, in that order: a
    gather per column, the position list made an index array once."""
    gathered = []
    array_indexes = None
    for column in columns:
        if _is_array(column):
            if array_indexes is None:
                array_indexes = _np.asarray(indexes, dtype=_np.intp)
            gathered.append(column[array_indexes])
        else:
            gathered.append([column[index] for index in indexes])
    return tuple(gathered)


def rows_at(columns: Sequence[Column], indexes: list[int]) -> list[tuple]:
    """Row tuples (Python scalars) of the listed row positions only.

    What a consumer that needs a few rows of a column batch calls instead
    of transposing all of it (:func:`rows_from_columns`).
    """
    return list(zip(*map(column_values, gather(columns, indexes))))


def rows_where(columns: Sequence[Column], mask: Mask) -> list[tuple]:
    """Row tuples (Python scalars) of the rows ``mask`` sets, in order:
    a filter's survivors, built without transposing the rest."""
    selected = mask_count(mask)
    if not selected:
        return []
    if selected < len(mask):
        columns = [take(column, mask) for column in columns]
    return rows_from_columns(columns, selected)


def row_at(columns: Sequence[Column], index: int) -> tuple:
    """One row tuple (Python scalars): :func:`rows_at` for a single
    position, without the one-element gathers."""
    return tuple(
        [
            column[index] if type(column) is list else column.item(index)
            for column in columns
        ]
    )


# --- stored columns (the table itself, B-tree leaves) -----------------------

def concat_columns(parts: Sequence[Column]) -> Column:
    """Stored columns (:func:`make_scan_column`'s) joined end to end into
    one: an array when every non-empty part is an array of one dtype, else
    a list."""
    parts = [part for part in parts if len(part)]
    if len(parts) == 1:
        return parts[0]
    if parts and all(_is_array(part) for part in parts):
        if len({part.dtype for part in parts}) == 1:
            return _np.concatenate(parts)
    joined: list = []
    for part in parts:
        joined.extend(column_values(part))
    return joined


# --- sorted columns (B-tree leaves) ----------------------------------------
#
# An index leaf level is a set of parallel columns sorted lexicographically
# on its key columns.  A typed array is searched with ``searchsorted`` when
# the probe is a plain value of the array's own type; any other probe (a
# float against an int column, an int beyond int64, a bool) and every list
# column take Python's ``bisect``, whose comparisons are the row loop's.

#: The Python type whose values a typed array of each dtype kind holds
#: uncast (``bool`` is not ``int`` here, and an unsigned array has none).
_PLAIN_TYPE = {"i": int, "f": float}


def slice_values(column: Column, start: int, stop: int) -> list:
    """``column[start:stop]`` as a list of Python scalars."""
    part = column[start:stop]
    return part if type(part) is list else part.tolist()


def sort_order(columns: Sequence[Column]) -> Sequence[int]:
    """Stable lexicographic argsort: ties keep their input order."""
    if all(_is_array(column) for column in columns):
        return _np.lexsort(tuple(reversed(columns)))
    if len(columns) == 1:
        keys = column_values(columns[0])
    else:
        keys = list(zip(*map(column_values, columns)))
    return sorted(range(len(keys)), key=keys.__getitem__)


def first_adjacent_duplicate(columns: Sequence[Column]) -> int:
    """First position whose row equals the row before it, or ``-1``."""
    if all(_is_array(column) for column in columns):
        same = reduce(operator.and_, (column[1:] == column[:-1] for column in columns))
        hits = same.nonzero()[0]
        return int(hits[0]) + 1 if len(hits) else -1
    keys = list(zip(*map(column_values, columns)))
    return next((i for i in range(1, len(keys)) if keys[i] == keys[i - 1]), -1)


def bisect_column(column: Column, value: Any, lo: int, hi: int, right: bool) -> int:
    """``bisect_right`` (or ``_left``) of ``value`` in the sorted ``column[lo:hi]``."""
    if type(column) is not list and type(value) is _PLAIN_TYPE.get(column.dtype.kind):
        return lo + int(column[lo:hi].searchsorted(value, "right" if right else "left"))
    return (bisect_right if right else bisect_left)(column, value, lo, hi)


def equal_ranges(column: Column, values: Sequence) -> tuple[list[int], list[int]]:
    """``[start, stop)`` of each value's run in a sorted column: one sorted
    search of all the values when they are plain values of its type."""
    if _is_array(column):
        probes = _np.asarray(values)
        if probes.dtype == column.dtype:
            return (
                column.searchsorted(probes, "left").tolist(),
                column.searchsorted(probes, "right").tolist(),
            )
    size = len(column)
    return (
        [bisect_column(column, value, 0, size, False) for value in values],
        [bisect_column(column, value, 0, size, True) for value in values],
    )


def insert_value(column: Column, position: int, value: Any) -> Column:
    """The column with ``value`` inserted before ``position`` (a list is
    changed in place; an array that cannot hold the value becomes a list)."""
    if _is_array(column):
        if type(value) is _PLAIN_TYPE.get(column.dtype.kind):
            try:
                return _np.insert(column, position, value)
            except OverflowError:  # an int beyond the array's width
                pass
        column = column.tolist()
    column.insert(position, value)
    return column


# --- predicate kernels ---------------------------------------------------

def _array_compare(column: Any, op: str, bound: Any) -> Optional[Any]:
    """``column <op> bound`` on an array, as the row loop compares each
    value; None when NumPy cannot compare them.

    NumPy compares an integer array with a float by casting the ints to
    float64, so past 2**53 a value reads as its rounded neighbour; Python
    compares exactly.  A finite float bound is therefore rewritten into
    the integer threshold that splits the ints the same way (``< b`` is
    ``< ceil(b)``, ``<= b`` is ``<= floor(b)``, ``= b`` needs an integral
    ``b``); an infinite or NaN bound splits no ints, so every row reads
    what one int does.
    """
    fn = _OPS[op]
    if isinstance(bound, float) and column.dtype.kind in "iu":
        if not math.isfinite(bound) or (op in ("=", "!=") and not bound.is_integer()):
            return _np.full(len(column), fn(0, bound))
        bound = math.ceil(bound) if op in ("<", ">=") else math.floor(bound)
    try:
        result = fn(column, bound)
    except TypeError:
        return None
    return result if _is_array(result) else None


def compare_mask(column: Column, op: str, bound: Any) -> Mask:
    """``column <op> bound`` as a mask; NULL never matches."""
    if _is_array(column):
        result = _array_compare(column, op, bound)
        if result is not None:
            return result
        column = column.tolist()
    fn = _OPS[op]
    return [value is not None and fn(value, bound) for value in column]


def between_mask(column: Column, low: Any, high: Any) -> Mask:
    """``low <= column <= high`` as a mask; NULL never matches."""
    if _is_array(column):
        above = _array_compare(column, ">=", low)
        below = None if above is None else _array_compare(column, "<=", high)
        if below is not None:
            return above & below
        column = column.tolist()
    return [value is not None and low <= value <= high for value in column]


def isin_mask(column: Column, value_set: frozenset) -> Mask:
    """``column IN value_set`` as a mask; NULL never matches.

    A typed array is tested in one ``numpy.isin`` only when every value
    of the set is a plain value of its type (:func:`bisect_column`'s
    rule): ``isin`` casts a mixed set to one dtype, so ``[37, 'a']``
    would become strings and never match an int.
    """
    if _is_array(column):
        plain = _PLAIN_TYPE.get(column.dtype.kind)
        if all(type(value) is plain for value in value_set):
            return _np.isin(column, list(value_set))
        column = column.tolist()
    return [value is not None and value in value_set for value in column]


# --- join-key membership ---------------------------------------------------

#: Widest key span (max - min) a :class:`KeyLookup` covers with a byte
#: table; sparser key sets are tested value by value.
_LOOKUP_TABLE_SPAN = 1 << 20

#: Keys at or beyond this magnitude are left to the value-by-value test,
#: which keeps int64 offset arithmetic on the rest free of false hits.
_KEY_MAGNITUDE = 1 << 62


class KeyLookup:
    """Membership of whole key columns in a hash join's build-side keys.

    ``table`` is the join's hash table (any container whose ``in`` is
    the row loop's ``hash_table.get``; NULL is never a key).  A list
    column is tested value by value against it.  An int64 column is
    tested in one pass when the keys are all plain ints spanning at most
    ``_LOOKUP_TABLE_SPAN``: through a byte table over the span (~6 us per
    1 024 rows; ``numpy.isin`` measured ~190 us).
    """

    __slots__ = ("_table", "_flags", "_base")

    def __init__(self, table: Any) -> None:
        self._table = table
        self._flags = None
        self._base = 0
        if not table:
            return
        if set(map(type, table)) != {int}:
            return
        try:
            keys = _np.fromiter(table, dtype=_np.int64, count=len(table))
        except OverflowError:
            return
        low, high = int(keys.min()), int(keys.max())
        if max(-low, high) >= _KEY_MAGNITUDE:
            return
        if high - low > _LOOKUP_TABLE_SPAN:
            return
        # One False slot either side, so clipping an out-of-span value
        # lands on a miss.
        self._base = low - 1
        self._flags = _np.zeros(high - low + 3, dtype=bool)
        self._flags[keys - self._base] = True

    def matching_indexes(self, column: Column) -> list[int]:
        """Ascending positions of the column's values that are keys."""
        if self._flags is not None and _is_array(column) and column.dtype == _np.int64:
            # A subtraction that wraps around int64 lands at least 2**62
            # away from the table (see _KEY_MAGNITUDE), so it clips to a
            # miss like any other out-of-span value.
            hits = self._flags.take(column - self._base, mode="clip")
            return hits.nonzero()[0].tolist()
        table = self._table
        if not table:
            return []
        return [
            index
            for index, value in enumerate(column_values(column))
            if value is not None and value in table
        ]


# --- mask algebra --------------------------------------------------------

def ones_mask(num_rows: int) -> Mask:
    return _np.ones(num_rows, dtype=bool)


def mask_and(left: Mask, right: Mask) -> Mask:
    if _is_array(left):
        if not _is_array(right):
            right = _np.asarray(right, dtype=bool)
        return left & right
    if _is_array(right):
        return _np.asarray(left, dtype=bool) & right
    return [a and b for a, b in zip(left, right)]


def mask_count(mask: Mask) -> int:
    if _is_array(mask):
        return int(_np.count_nonzero(mask))
    return sum(mask)


def mask_values(mask: Mask) -> list[bool]:
    if _is_array(mask):
        return mask.tolist()
    return mask


# --- page segments of a chunk ---------------------------------------------
#
# A chunk covers several whole pages; ``starts`` lists each page's first
# row within the chunk (ascending, ``starts[0] == 0``), the last page
# running to the end of the chunk.  Pages are never empty.

def segment_any(mask: Mask, starts: Sequence[int]) -> list[bool]:
    """One flag per page: whether any of the page's rows is set in ``mask``.

    This is what turns a chunk-wide witness mask into the per-page flags
    of Fig. 4 — the monitors count pages, however wide the kernel was.
    """
    if _is_array(mask):
        return _np.logical_or.reduceat(mask, starts).tolist()
    stops = [*starts[1:], len(mask)]
    return [True in mask[start:stop] for start, stop in zip(starts, stops)]


def probe_pages(
    column: Column,
    bitvector: "BitVectorFilter",
    starts: Sequence[int],
    sampled: Sequence[bool],
) -> tuple[list[bool], list[int], list[int]]:
    """Per page ``(hit, probes, lookups)`` of a bit-vector prober (Fig. 5).

    The prober reads each *sampled* page's join values in row order until
    the filter first answers "may join": ``hit`` says whether it did,
    ``probes`` how many rows were read (the first hit's offset plus one,
    or the whole page), ``lookups`` how many of those carried a value — a
    NULL is read but never reaches the filter.  Unsampled pages are not
    read: ``(False, 0, 0)``.  The filter's counters are left alone.

    "Until the first hit" is a segmented ``min`` the way a page flag is a
    segmented ``any``: an integer array is placed chunk-wide by the
    filter's own :meth:`BitVectorFilter.int_positions` and tested against a
    zero-copy view of its bits, each page's first hit found by bisection;
    any other column is walked page by page through
    :meth:`BitVectorFilter.first_hit`.
    """
    num_pages = len(starts)
    flags = [False] * num_pages
    probes = [0] * num_pages
    lookups = [0] * num_pages
    if True not in sampled:
        return flags, probes, lookups
    pages = [
        (page, start, stop)
        for page, (start, stop) in enumerate(zip(starts, [*starts[1:], len(column)]))
        if sampled[page]
    ]
    if _is_array(column) and column.dtype.kind in "iu":
        bits = _np.frombuffer(bitvector.bits, dtype=_np.uint8)
        byte_indexes, bit_masks = bitvector.int_positions(column)
        hit_rows = (bits[byte_indexes] & bit_masks).nonzero()[0].tolist()
        for page, start, stop in pages:
            slot = bisect_left(hit_rows, start)
            hit = slot < len(hit_rows) and hit_rows[slot] < stop
            flags[page] = hit
            probes[page] = hit_rows[slot] - start + 1 if hit else stop - start
        return flags, probes, list(probes)
    values = column_values(column)
    for page, start, stop in pages:
        rows = values[start:stop]
        first = bitvector.first_hit(rows)
        hit = first < len(rows)
        flags[page] = hit
        probes[page] = first + 1 if hit else len(rows)
        lookups[page] = probes[page] - rows[: probes[page]].count(None)
    return flags, probes, lookups


def int_column(values: Sequence) -> Optional[Column]:
    """``values`` as one integer array, or ``None`` when any value is not
    a plain ``int`` that fits one.

    A ``bool`` is an integer to NumPy but not to the bit vector, which
    hashes it, so a batch holding one is refused.
    """
    column = make_column(values)
    if not _is_array(column) or column.dtype.kind not in "iu":
        return None
    return None if bool in map(type, values) else column


def set_bits(bits: bytearray, byte_indexes: Any, bit_masks: Any) -> None:
    """OR ``bit_masks[i]`` into ``bits[byte_indexes[i]]`` for every ``i``
    (the arrays :meth:`BitVectorFilter.int_positions` returns), in place."""
    _np.bitwise_or.at(
        _np.frombuffer(bits, dtype=_np.uint8), byte_indexes, bit_masks.astype(_np.uint8)
    )


def segment_expand(flags: Sequence[bool], starts: Sequence[int], num_rows: int) -> Mask:
    """The row mask in which every row carries its page's flag."""
    stops = [*starts[1:], num_rows]
    lengths = [stop - start for start, stop in zip(starts, stops)]
    return _np.repeat(_np.asarray(flags, dtype=bool), lengths)
