"""RowBatch representation edge cases and the vector kernels.

Covers the column-backed batch contract directly: empty batches, the
final partial page of a chunk scan, all-rows-filtered batches,
row↔column round-trips, and the list columns that NULLs, strings and
mixed values keep.  "Columnar scan" below means the batch drive's
unmonitored chunk scan (``SeqScan.parent_consumes_columns``), not an
execution mode.
"""

from __future__ import annotations

from repro.exec import vector
from repro.exec.batch import DEFAULT_BATCH_ROWS, RowBatch
from repro.exec.executor import execute
from repro.exec.scans import SeqScan
from repro.sql.evaluator import BoundConjunction
from repro.sql.predicates import Between, Comparison, InList, conjunction_of

from tests.conftest import make_tiny_table


# ---------------------------------------------------------------------------
# Construction and round-trips
# ---------------------------------------------------------------------------


def test_empty_row_batch():
    batch = RowBatch([])
    assert len(batch) == 0
    assert not batch.is_columnar
    assert batch.to_rows() == []
    assert list(batch) == []


def test_empty_columnar_batch(backend):
    batch = RowBatch.from_columns((), num_rows=0)
    assert len(batch) == 0
    assert batch.is_columnar
    assert batch.to_rows() == []


def test_from_columns_round_trip(backend):
    rows = [(1, "a", 1.5), (2, "b", 2.5), (3, None, 3.5)]
    columns = vector.columns_from_rows(rows, 3)
    batch = RowBatch.from_columns(columns)
    assert batch.is_columnar
    assert len(batch) == 3
    assert batch.to_rows() == rows
    # The rows shim caches: second access is the same materialization.
    assert batch.rows is batch.rows


def test_round_trip_values_are_python_scalars(backend):
    rows = [(1, 2.5), (3, 4.5)]
    columns = vector.columns_from_rows(rows, 2)
    back = vector.rows_from_columns(columns, 2)
    for row in back:
        for value in row:
            assert type(value) in (int, float, str, bool, type(None))
    assert back == rows


def test_row_backed_batch_exposes_columns(backend):
    rows = [(1, "x"), (2, "y")]
    batch = RowBatch(rows)
    assert not batch.is_columnar
    assert vector.column_values(batch.column(0)) == [1, 2]
    assert vector.column_values(batch.column(1)) == ["x", "y"]


def test_null_bearing_column_stays_list(backend):
    columns = vector.columns_from_rows([(1, None), (2, 5)], 2)
    assert isinstance(columns[1], list)
    assert vector.count_notnull(columns[1]) == 1


def test_zero_width_rows_from_columns():
    assert vector.rows_from_columns((), 3) == [(), (), ()]


def test_default_batch_rows_constant():
    assert DEFAULT_BATCH_ROWS == 1024


# ---------------------------------------------------------------------------
# Kernels: masks and filtering
# ---------------------------------------------------------------------------


def test_all_rows_filtered_batch(backend):
    rows = [(i,) for i in range(10)]
    columns = vector.columns_from_rows(rows, 1)
    mask = vector.compare_mask(columns[0], ">", 100)
    assert vector.mask_count(mask) == 0
    filtered = vector.take(columns[0], mask)
    assert vector.column_length(filtered) == 0
    empty = RowBatch.from_columns((filtered,), num_rows=0)
    assert empty.to_rows() == []


def test_null_collapses_to_false_in_kernels(backend):
    column = vector.make_column([1, None, 3])
    mask = vector.compare_mask(column, ">=", 0)
    assert vector.mask_values(mask) == [True, False, True]
    mask = vector.between_mask(column, 0, 10)
    assert vector.mask_values(mask) == [True, False, True]
    mask = vector.isin_mask(column, {1, 3, None})
    assert vector.mask_values(mask) == [True, False, True]
    # A stored string column stays a list: the list kernels, Python's order.
    column = vector.make_scan_column(["b", None, "c", "d"])
    assert isinstance(column, list)
    mask = vector.between_mask(column, "b", "c")
    assert vector.mask_values(mask) == [True, False, True, False]
    mask = vector.isin_mask(column, frozenset({"d", "b"}))
    assert vector.mask_values(mask) == [True, False, False, True]


def test_mask_and_mixes_representations(backend):
    np_ish = vector.make_column([1, 2, 3, 4])
    mask_a = vector.compare_mask(np_ish, ">", 1)  # an array mask
    mask_b = [True, True, False, True]  # plain list mask
    combined = vector.mask_and(mask_a, mask_b)
    assert vector.mask_values(combined) == [False, True, False, True]
    combined = vector.mask_and(mask_b, mask_a)
    assert vector.mask_values(combined) == [False, True, False, True]


def test_segment_any_flags_pages_with_a_set_row(backend):
    mask = vector.compare_mask(vector.make_column([0, 0, 1, 0, 0, 0, 1, 1]), ">", 0)
    # Pages of 3, 3 and a final partial page of 2 rows.
    assert vector.segment_any(mask, [0, 3, 6]) == [True, False, True]
    assert vector.segment_any(mask, [0, 2, 6]) == [False, True, True]
    # A one-page chunk, and the list representation of the same mask.
    assert vector.segment_any(mask, [0]) == [True]
    assert vector.segment_any(vector.mask_values(mask), [0, 3, 6]) == [
        True, False, True,
    ]
    nothing = vector.compare_mask(vector.make_column([0, 0, 0]), ">", 0)
    assert vector.segment_any(nothing, [0, 1]) == [False, False]
    flags = vector.segment_any(mask, [0, 3, 6])
    assert all(type(flag) is bool for flag in flags)


def test_segment_expand_spreads_page_flags_over_rows(backend):
    rows = vector.segment_expand([True, False, True], [0, 3, 6], 8)
    assert vector.mask_values(rows) == [
        True, True, True, False, False, False, True, True,
    ]
    assert vector.mask_values(vector.segment_expand([False], [0], 2)) == [
        False, False,
    ]
    flags = [True, False, True]
    assert vector.segment_any(vector.segment_expand(flags, [0, 3, 6], 8), [0, 3, 6]) == flags


# ---------------------------------------------------------------------------
# Hash-join probe helpers: key membership, gathering the matches, page probes
# ---------------------------------------------------------------------------


def _lookup_matches(keys, values):
    column = vector.make_scan_column(list(values))
    return vector.KeyLookup(dict.fromkeys(keys)).matching_indexes(column)


def test_key_lookup_matches_like_the_hash_table(backend):
    # Probe order, duplicates on the probe side, negative keys.
    assert _lookup_matches([5, -3, 9], [9, 1, -3, 9, 5, 0]) == [0, 2, 3, 4]
    # An empty build side, and a chunk in which nothing matches.
    assert _lookup_matches([], [1, 2, 3]) == []
    assert _lookup_matches([7], [1, 2, 3]) == []
    # NULL probe values never match (the column stays a list).
    assert _lookup_matches([1, 2], [None, 2, None, 1]) == [1, 3]
    # Keys at the ends of a span wider than the byte table: value by value.
    wide = [0, 3, 1 << 40]
    assert _lookup_matches(wide, [1 << 40, 2, 0, (1 << 40) + 1, -1]) == [0, 2]
    # Out-of-span probe values next to the table's edges are misses.
    assert _lookup_matches([10, 12], [9, 10, 11, 12, 13]) == [1, 3]
    # Keys int64 cannot hold, int64's own extremes, and mixed key types
    # take the value-by-value test.
    huge = 1 << 70
    assert _lookup_matches([huge, 1], [1, 2, 3]) == [0]
    extremes = [-(1 << 63), (1 << 63) - 1]
    assert _lookup_matches(extremes, [0, -(1 << 63), (1 << 63) - 1]) == [1, 2]
    assert _lookup_matches(["a", 2], [2, 3]) == [0]
    # String and float columns; 1.0 finds the int key 1 as a dict would.
    assert _lookup_matches(["b", "d"], ["a", "b", "c", "d"]) == [1, 3]
    assert _lookup_matches([1, 4], [1.0, 2.5, 4.0]) == [0, 2]


def test_rows_at_gathers_only_the_listed_rows(backend):
    rows = [(i, float(i) / 2, f"s{i}", None if i % 2 else i) for i in range(10)]
    columns = vector.columns_from_rows(rows, 4)
    assert vector.rows_at(columns, [7, 0, 3]) == [rows[7], rows[0], rows[3]]
    assert vector.rows_at(columns, []) == []
    (row,) = vector.rows_at(columns, [4])
    assert [type(value) for value in row] == [int, float, str, int]
    # A zero-copy view of file-level columns gathers within the view.
    view = vector.SlicedColumns(columns, 2, 6)
    assert vector.rows_at(view, [0, 3]) == [rows[2], rows[5]]


def _probe(values, inserted, starts, sampled, bits=64):
    from repro.core.bitvector import BitVectorFilter

    bitvector = BitVectorFilter(bits)
    bitvector.insert_all(inserted)
    verdict = vector.probe_pages(
        vector.make_scan_column(list(values)), bitvector, starts, sampled
    )
    assert bitvector.probes == 0  # the bundle accounts for probes
    assert all(type(flag) is bool for flag in verdict[0])
    assert all(type(n) is int for counts in verdict[1:] for n in counts)
    return verdict


def test_probe_pages_stops_at_each_sampled_pages_first_hit(backend):
    # Pages of 3, 3 and a ragged 2: hit on the first row, on the last row
    # of the page, and not at all.
    values = [5, 0, 5, 0, 0, 5, 0, 0]
    assert _probe(values, [5], [0, 3, 6], [True, True, True]) == (
        [True, True, False], [1, 3, 2], [1, 3, 2],
    )
    # Unsampled pages are not read, whatever they hold.
    assert _probe(values, [5], [0, 3, 6], [False, True, False]) == (
        [False, True, False], [0, 3, 0], [0, 3, 0],
    )
    assert _probe(values, [5], [0, 3, 6], [False] * 3) == (
        [False] * 3, [0] * 3, [0] * 3,
    )
    # A filter narrower than the key domain: 69 aliases 5 (identity mod 64).
    assert _probe([1, 69, 2], [5], [0], [True]) == ([True], [2], [2])
    # Negative ints are placed as Python places them.
    assert _probe([-59, 1], [5], [0], [True]) == ([True], [1], [1])


def test_probe_pages_reads_nulls_without_looking_them_up(backend):
    # NULLs before the hit are probed (charged) but never reach the filter;
    # an all-NULL page is read to its end and hits nothing.
    values = [None, 7, None, None, None, None, 1, None]
    assert _probe(values, [7], [0, 3, 6], [True, True, True]) == (
        [True, False, False], [2, 3, 2], [1, 0, 1],
    )


def test_probe_pages_hashes_non_integer_values(backend):
    for values, inserted in (
        (["a", "b", "c", "d"], ["c"]),
        ([0.5, 1.5, 2.5, 3.5], [2.5]),
    ):
        assert _probe(values, inserted, [0, 2], [True, True], bits=1 << 16) == (
            [False, True], [2, 1], [2, 1],
        )


def test_evaluate_columns_full_rows_match_the_row_loop(backend):
    """Rows of sampled pages get the whole conjunction, un-short-circuited;
    the rest the short-circuited prefix — truth and charges as per row."""
    rows = [(i, (i * 37) % 50, i % 7) for i in range(60)]
    bound = BoundConjunction(
        conjunction_of(
            Comparison("k", "<", 40), Comparison("v", ">=", 10), Comparison("w", "<", 3)
        ),
        ("k", "v", "w"),
    )
    starts = [0, 20, 40]
    full = vector.segment_expand([False, True, False], starts, len(rows))
    outcome = bound.evaluate_columns(
        vector.columns_from_rows(rows, 3), len(rows), 2, full
    )
    per_row = [
        bound.evaluate(row, short_circuit=False)
        if 20 <= index < 40
        else bound.evaluate_prefix(row, 2)
        for index, row in enumerate(rows)
    ]
    assert outcome.evaluations == sum(o.evaluations for o in per_row)
    assert vector.mask_values(outcome.passed) == [
        all(o.truth[:2]) for o in per_row
    ]
    for term in range(2):
        assert vector.mask_values(outcome.alive[term]) == [
            all(value is True for value in o.truth[: term + 1]) for o in per_row
        ]
    for term in range(3):
        assert vector.mask_values(outcome.raw[term])[20:40] == [
            o.truth[term] for o in per_row[20:40]
        ]


def test_evaluate_columns_matches_the_row_evaluator(backend):
    narrow = [(i, (i * 37) % 50) for i in range(200)]
    # Ints float64 cannot hold against float bounds: NumPy would compare
    # each as its rounded neighbour, Python compares exactly.
    big = 2**53
    wide_rows = [(big + 1, 5), (big, -7), (big - 1, 2**63 - 1), (5, -(2**63))]
    for rows, conjunction in (
        (narrow, conjunction_of(Comparison("k", "<", 120), Comparison("v", ">=", 10))),
        # An IN list mixing types against an int column: NumPy would cast
        # the set to strings and match nothing.
        (narrow, conjunction_of(InList("v", (37, "a")))),
        (wide_rows, conjunction_of(Comparison("k", "<=", float(big)))),
        (wide_rows, conjunction_of(Comparison("k", ">", float(big)))),
        (wide_rows, conjunction_of(Comparison("k", "<", big - 0.5))),
        (wide_rows, conjunction_of(Comparison("k", "=", float(big)))),
        (wide_rows, conjunction_of(Comparison("k", "!=", 4.5))),
        (wide_rows, conjunction_of(Comparison("v", "<", float("inf")))),
        (wide_rows, conjunction_of(Comparison("v", ">=", float("nan")))),
        (wide_rows, conjunction_of(Between("k", 4.5, float(big)))),
    ):
        columns = vector.columns_from_rows(rows, 2)
        bound = BoundConjunction(conjunction, ("k", "v"))
        per_row = [bound.evaluate(row) for row in rows]
        outcome = bound.evaluate_columns(columns, len(rows))
        assert vector.mask_values(outcome.passed) == [o.passed for o in per_row]
        assert outcome.evaluations == sum(o.evaluations for o in per_row)
        assert outcome.num_rows == len(rows)


# ---------------------------------------------------------------------------
# Final partial page through a real scan
# ---------------------------------------------------------------------------


def chunk_scan(table, conjunction) -> SeqScan:
    """An unmonitored scan marked the way the planner marks one under a
    column-consuming aggregate, so ``batches()`` emits column chunks."""
    scan = SeqScan(table, conjunction)
    scan.parent_consumes_columns = True
    return scan


def test_columnar_scan_final_partial_page(backend):
    database, table, rows = make_tiny_table(num_rows=500)
    per_page = table.data_file.page_capacity
    assert len(rows) % per_page != 0, "need a final partial page"
    result = execute(
        chunk_scan(table, conjunction_of(Comparison("k", ">=", 0))),
        database,
        mode="batch",
    )
    assert len(result.rows) == len(rows)
    assert result.rows[-1] == rows[-1]


def test_columnar_scan_matches_row_scan(backend):
    database, table, rows = make_tiny_table(num_rows=500)
    conj = conjunction_of(Comparison("v", "<", 100), Comparison("k", ">=", 37))
    expected = execute(SeqScan(table, conj), database, mode="row")
    actual = execute(chunk_scan(table, conj), database, mode="batch")
    assert actual.rows == expected.rows
    assert actual.runstats.logical_reads == expected.runstats.logical_reads
    assert (
        actual.runstats.root.predicate_evaluations
        == expected.runstats.root.predicate_evaluations
    )
