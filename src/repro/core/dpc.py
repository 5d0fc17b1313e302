"""Distinct page count: definitions and the exact oracle.

Section II-A of the paper defines, for a table ``T``, a page ``PID`` and a
predicate expression ``p``:

* ``Satisfies(T, PID, p)`` — true iff some tuple of ``T`` on page ``PID``
  satisfies ``p`` (``p`` may include selection and join predicates), and
* ``DPC(T, p)`` — the number of PIDs for which ``Satisfies`` holds.

This module provides those definitions *as ground truth*: the oracle scans
the table's pages directly, without I/O accounting, and computes the exact
DPC.  The execution-feedback monitors elsewhere in :mod:`repro.core` are
judged against this oracle in tests and in the accuracy ablations; the
oracle is also what the harness uses to quantify the analytical model's
estimation error.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from repro.common.types import PageId
from repro.sql.evaluator import BoundConjunction
from repro.sql.predicates import Conjunction, JoinEquality
from repro.storage.btree import BTreeIndex
from repro.storage.table import Table


def satisfies(table: Table, page_id: PageId, predicate: Conjunction) -> bool:
    """Exact ``Satisfies(T, PID, p)`` for a selection predicate."""
    bound = BoundConjunction(predicate, table.schema.column_names)
    return any(bound.passes(row) for row in table.rows_on_page(page_id))


def exact_dpc(table: Table, predicate: Conjunction) -> int:
    """Exact ``DPC(T, p)`` for a selection predicate, by full inspection."""
    bound = BoundConjunction(predicate, table.schema.column_names)
    count = 0
    for page_id in table.all_page_ids():
        if any(bound.passes(row) for row in table.rows_on_page(page_id)):
            count += 1
    return count


def exact_join_dpc(
    inner: Table,
    outer: Table,
    join_predicate: JoinEquality,
    outer_predicate: Optional[Conjunction] = None,
) -> int:
    """Exact ``DPC(inner, join-pred)`` for an equality join.

    ``Satisfies(inner, PID, join-pred)`` holds iff some row on the page has
    a join-column value matched by a *qualifying* outer row (the outer's
    own selection predicates restrict which rows drive the INL join, per
    Example 2); selection predicates on the inner are excluded because an
    INL join evaluates them after the fetch (Section IV).
    """
    outer_column = join_predicate.column_for(outer.name)
    inner_column = join_predicate.column_for(inner.name)
    outer_position = outer.schema.position(outer_column)
    inner_position = inner.schema.position(inner_column)

    if outer_predicate is None or not len(outer_predicate):
        outer_rows: Iterable[tuple] = (
            row
            for page_id in outer.all_page_ids()
            for row in outer.rows_on_page(page_id)
        )
    else:
        bound = BoundConjunction(outer_predicate, outer.schema.column_names)
        outer_rows = (
            row
            for page_id in outer.all_page_ids()
            for row in outer.rows_on_page(page_id)
            if bound.passes(row)
        )
    outer_values = {row[outer_position] for row in outer_rows}
    outer_values.discard(None)

    count = 0
    for page_id in inner.all_page_ids():
        for row in inner.rows_on_page(page_id):
            if row[inner_position] in outer_values:
                count += 1
                break
    return count


def exact_leaf_dpc(index: BTreeIndex, outer_keys: Iterable[Any]) -> int:
    """Exact ``LEAVES(index, join-pred | outer filter)`` for probe keys.

    The distinct leaf pages an INL join reads when it probes ``index``
    once per key of ``outer_keys`` (the qualifying outer rows' join
    values): each key's run of equal entries spans the leaves from its
    first entry's to its last's; a key with no entry reads none, and a
    NULL never probes.
    """
    epp = index.entries_per_page
    leaves: set[int] = set()
    for key in set(outer_keys) - {None}:
        start, stop = index.locate(key, key)
        if start < stop:
            leaves.update(range(start // epp, (stop - 1) // epp + 1))
    return len(leaves)


def dpc_bounds(row_count: int, rows_per_page: float, total_pages: int) -> tuple[float, int]:
    """The LB/UB bracket of Section V-B.

    For ``n`` qualifying rows, ``k`` rows per page and ``P`` total pages:
    ``LB = n / k`` (rows maximally co-located) and ``UB = min(n, P)``
    (each row on its own page).  Any actual DPC satisfies LB <= DPC <= UB.
    """
    if rows_per_page <= 0:
        raise ValueError(f"rows_per_page must be positive, got {rows_per_page}")
    if row_count < 0 or total_pages < 0:
        raise ValueError("row_count and total_pages must be non-negative")
    lower = row_count / rows_per_page
    upper = min(row_count, total_pages)
    return lower, upper
