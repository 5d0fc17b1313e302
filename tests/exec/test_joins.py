"""Tests for join operators: all three methods must agree with a
reference nested-loop join."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.catalog import ColumnDef, Database, IndexDef, TableSchema
from repro.common.errors import ExecutionError
from repro.core.bitvector import BitVectorFilter, PartialBitVectorFilter
from repro.exec import (
    HashJoin,
    INLJoin,
    MergeJoin,
    SeqScan,
    Sort,
    execute,
)
from repro.sql import Comparison, Conjunction, conjunction_of
from repro.sql.types import SqlType


def build_pair(left_rows, right_rows, right_clustered_on_join=False):
    """Two tables: left(a, b) heap-ish clustered on a; right(x, y) with an
    index on the join column y (or clustered on it)."""
    database = Database("j", buffer_pool_pages=10_000)
    left_schema = TableSchema(
        "left_t", [ColumnDef("a", SqlType.INT), ColumnDef("b", SqlType.INT)]
    )
    right_schema = TableSchema(
        "right_t", [ColumnDef("x", SqlType.INT), ColumnDef("y", SqlType.INT)]
    )
    database.load_table(left_schema, left_rows, clustered_on=["a"])
    database.load_table(
        right_schema,
        right_rows,
        clustered_on=["y"] if right_clustered_on_join else ["x"],
        indexes=[] if right_clustered_on_join else [IndexDef("ix_y", "right_t", ("y",))],
    )
    return database


def reference_join(left_rows, right_rows):
    return sorted(
        l + r for l in left_rows for r in right_rows if l[1] == r[1] and l[1] is not None
    )


LEFT = [(i, i % 7) for i in range(50)]
RIGHT = [(i, i % 11) for i in range(40)]


class TestHashJoin:
    def test_matches_reference(self):
        database = build_pair(LEFT, RIGHT)
        join = HashJoin(
            SeqScan(database.table("left_t"), Conjunction()),
            SeqScan(database.table("right_t"), Conjunction()),
            build_join_column="b",
            probe_join_column="y",
            build_label="left_t",
            probe_label="right_t",
        )
        result = execute(join, database)
        assert sorted(result.rows) == reference_join(LEFT, RIGHT)

    def test_output_columns_qualified(self):
        database = build_pair(LEFT, RIGHT)
        join = HashJoin(
            SeqScan(database.table("left_t"), Conjunction()),
            SeqScan(database.table("right_t"), Conjunction()),
            "b",
            "y",
            build_label="left_t",
            probe_label="right_t",
        )
        assert join.output_columns == ("left_t.a", "left_t.b", "right_t.x", "right_t.y")

    def test_bitvector_filled_during_build(self):
        database = build_pair(LEFT, RIGHT)
        bitvector = BitVectorFilter(128)
        join = HashJoin(
            SeqScan(database.table("left_t"), Conjunction()),
            SeqScan(database.table("right_t"), Conjunction()),
            "b",
            "y",
            bitvector=bitvector,
        )
        execute(join, database)
        assert bitvector.inserts == len(LEFT)
        for value in range(7):
            assert bitvector.may_contain(value)

    def test_empty_build_side(self):
        database = build_pair([], RIGHT)
        join = HashJoin(
            SeqScan(database.table("left_t"), Conjunction()),
            SeqScan(database.table("right_t"), Conjunction()),
            "b",
            "y",
        )
        assert execute(join, database).rows == []


class TestINLJoin:
    def test_matches_reference_via_index(self):
        database = build_pair(LEFT, RIGHT)
        join = INLJoin(
            outer=SeqScan(database.table("left_t"), Conjunction()),
            outer_join_column="b",
            inner_table=database.table("right_t"),
            inner_join_column="y",
            inner_residual=Conjunction(),
            inner_index_name="ix_y",
            outer_label="left_t",
        )
        result = execute(join, database)
        assert sorted(result.rows) == reference_join(LEFT, RIGHT)

    def test_matches_reference_via_clustered_key(self):
        database = build_pair(LEFT, RIGHT, right_clustered_on_join=True)
        join = INLJoin(
            outer=SeqScan(database.table("left_t"), Conjunction()),
            outer_join_column="b",
            inner_table=database.table("right_t"),
            inner_join_column="y",
            inner_residual=Conjunction(),
            inner_index_name=None,
            outer_label="left_t",
        )
        result = execute(join, database)
        assert sorted(result.rows) == reference_join(LEFT, RIGHT)

    def test_inner_residual(self):
        database = build_pair(LEFT, RIGHT)
        join = INLJoin(
            outer=SeqScan(database.table("left_t"), Conjunction()),
            outer_join_column="b",
            inner_table=database.table("right_t"),
            inner_join_column="y",
            inner_residual=conjunction_of(Comparison("x", "<", 20)),
            inner_index_name="ix_y",
        )
        result = execute(join, database)
        expected = sorted(
            l + r for l in LEFT for r in RIGHT if l[1] == r[1] and r[0] < 20
        )
        assert sorted(result.rows) == expected

    def test_outer_filter_drives_fetches(self):
        database = build_pair(LEFT, RIGHT)
        join = INLJoin(
            outer=SeqScan(
                database.table("left_t"), conjunction_of(Comparison("a", "<", 10))
            ),
            outer_join_column="b",
            inner_table=database.table("right_t"),
            inner_join_column="y",
            inner_residual=Conjunction(),
            inner_index_name="ix_y",
        )
        result = execute(join, database)
        expected = sorted(
            l + r for l in LEFT if l[0] < 10 for r in RIGHT if l[1] == r[1]
        )
        assert sorted(result.rows) == expected


class TestMergeJoin:
    def test_with_sorts_matches_reference(self):
        database = build_pair(LEFT, RIGHT)
        join = MergeJoin(
            outer=Sort(SeqScan(database.table("left_t"), Conjunction()), "b"),
            inner=Sort(SeqScan(database.table("right_t"), Conjunction()), "y"),
            outer_join_column="b",
            inner_join_column="y",
            outer_label="left_t",
            inner_label="right_t",
        )
        result = execute(join, database)
        assert sorted(result.rows) == reference_join(LEFT, RIGHT)

    def test_many_to_many_cross_product(self):
        left = [(0, 5), (1, 5), (2, 5)]
        right = [(0, 5), (1, 5)]
        database = build_pair(left, right)
        join = MergeJoin(
            outer=Sort(SeqScan(database.table("left_t"), Conjunction()), "b"),
            inner=Sort(SeqScan(database.table("right_t"), Conjunction()), "y"),
            outer_join_column="b",
            inner_join_column="y",
        )
        result = execute(join, database)
        assert len(result.rows) == 6

    def test_blocking_bitvector_mode(self):
        database = build_pair(LEFT, RIGHT)
        bitvector = BitVectorFilter(128)
        join = MergeJoin(
            outer=Sort(SeqScan(database.table("left_t"), Conjunction()), "b"),
            inner=Sort(SeqScan(database.table("right_t"), Conjunction()), "y"),
            outer_join_column="b",
            inner_join_column="y",
            bitvector=bitvector,
            bitvector_mode="blocking",
        )
        result = execute(join, database)
        assert sorted(result.rows) == reference_join(LEFT, RIGHT)
        assert bitvector.inserts == len(LEFT)

    def test_partial_bitvector_mode(self):
        # Both inputs pre-sorted on the join column (clustered order).
        left = sorted(LEFT, key=lambda r: r[1])
        right = sorted(RIGHT, key=lambda r: r[1])
        database = build_pair(left, right)
        bitvector = PartialBitVectorFilter(128)
        join = MergeJoin(
            outer=Sort(SeqScan(database.table("left_t"), Conjunction()), "b"),
            inner=Sort(SeqScan(database.table("right_t"), Conjunction()), "y"),
            outer_join_column="b",
            inner_join_column="y",
            bitvector=bitvector,
            bitvector_mode="partial",
        )
        result = execute(join, database)
        assert sorted(result.rows) == reference_join(left, right)
        assert bitvector.inserts >= 1

    def test_mode_validation(self):
        database = build_pair(LEFT, RIGHT)
        scan_l = SeqScan(database.table("left_t"), Conjunction())
        scan_r = SeqScan(database.table("right_t"), Conjunction())
        with pytest.raises(ExecutionError):
            MergeJoin(scan_l, scan_r, "b", "y", bitvector_mode="bogus")
        with pytest.raises(ExecutionError):
            MergeJoin(scan_l, scan_r, "b", "y", bitvector_mode="blocking")
        with pytest.raises(ExecutionError):
            MergeJoin(
                scan_l, scan_r, "b", "y",
                bitvector=BitVectorFilter(16), bitvector_mode="partial",
            )


@settings(max_examples=20, deadline=None)
@given(
    left=st.lists(st.integers(0, 8), min_size=0, max_size=30),
    right=st.lists(st.integers(0, 8), min_size=0, max_size=30),
)
def test_all_join_methods_agree(left, right):
    left_rows = [(i, v) for i, v in enumerate(left)]
    right_rows = [(i, v) for i, v in enumerate(right)]
    database = build_pair(left_rows, right_rows)
    expected = reference_join(left_rows, right_rows)

    hash_join = HashJoin(
        SeqScan(database.table("left_t"), Conjunction()),
        SeqScan(database.table("right_t"), Conjunction()),
        "b",
        "y",
    )
    assert sorted(execute(hash_join, database).rows) == expected

    inl = INLJoin(
        outer=SeqScan(database.table("left_t"), Conjunction()),
        outer_join_column="b",
        inner_table=database.table("right_t"),
        inner_join_column="y",
        inner_residual=Conjunction(),
        inner_index_name="ix_y",
    )
    assert sorted(execute(inl, database).rows) == expected

    merge = MergeJoin(
        outer=Sort(SeqScan(database.table("left_t"), Conjunction()), "b"),
        inner=Sort(SeqScan(database.table("right_t"), Conjunction()), "y"),
        outer_join_column="b",
        inner_join_column="y",
    )
    assert sorted(execute(merge, database).rows) == expected
