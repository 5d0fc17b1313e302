"""Tests for non-clustered B-tree indexes."""

import datetime

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.catalog.schema import ColumnDef, IndexDef, TableSchema
from repro.common.errors import IndexError_
from repro.common.types import FileId
from repro.sql.types import SqlType
from repro.storage.accounting import IOContext
from repro.storage.btree import BTreeIndex
from repro.storage.buffer import BufferPool

from tests.conftest import by_column


def make_index(
    rows,
    key_columns=("v",),
    included=(),
    unique=False,
) -> BTreeIndex:
    schema = TableSchema(
        "t",
        [
            ColumnDef("k", SqlType.INT),
            ColumnDef("v", SqlType.INT),
            ColumnDef("w", SqlType.INT),
        ],
    )
    definition = IndexDef(
        "ix", "t", tuple(key_columns), included_columns=tuple(included), unique=unique
    )
    pool = BufferPool(capacity_pages=1000)
    index = BTreeIndex(definition, schema, FileId(9), pool)
    rows = list(rows)
    index.build(
        by_column(rows, len(schema)),
        [i // 10 for i in range(len(rows))],
        [i % 10 for i in range(len(rows))],
    )
    return index


class TestBuild:
    def test_entries_sorted_by_key(self):
        index = make_index([(i, (i * 7) % 100, 0) for i in range(100)])
        keys = [key for key, _rid, _payload in index.scan_all(IOContext())]
        assert keys == sorted(keys)

    def test_double_build_rejected(self):
        index = make_index([(0, 1, 2)])
        with pytest.raises(IndexError_):
            index.build([], [], [])

    def test_unique_violation_detected(self):
        with pytest.raises(IndexError_):
            make_index([(0, 5, 0), (1, 5, 0)], unique=True)

    def test_unique_accepts_distinct(self):
        index = make_index([(0, 1, 0), (1, 2, 0)], unique=True)
        assert index.num_entries == 2

    def test_leaf_page_count(self):
        index = make_index([(i, i, 0) for i in range(1000)])
        expected = -(-1000 // index.entries_per_page)
        assert index.num_leaf_pages == expected

    def test_seek_before_build_rejected(self):
        schema = TableSchema("t", [ColumnDef("v", SqlType.INT)])
        index = BTreeIndex(
            IndexDef("ix", "t", ("v",)),
            schema,
            FileId(0),
            BufferPool(),
        )
        with pytest.raises(IndexError_):
            list(index.seek_range(IOContext()))


class TestSeek:
    @pytest.fixture(scope="class")
    def index(self):
        return make_index([(i, (i * 37) % 500, i) for i in range(500)])

    def test_seek_equal(self, index):
        hits = list(index.seek_equal(IOContext(), 37))
        assert len(hits) == 1
        assert hits[0][0] == (37,)

    def test_seek_equal_scalar_and_tuple_agree(self, index):
        assert list(index.seek_equal(IOContext(), 37)) == list(
            index.seek_equal(IOContext(), (37,))
        )

    def test_range_bounds(self, index):
        hits = [
            key[0]
            for key, _r, _p in index.seek_range(IOContext(), low=(10,), high=(20,))
        ]
        assert hits == list(range(10, 21))

    def test_exclusive_bounds(self, index):
        hits = [
            key[0]
            for key, _r, _p in index.seek_range(
                IOContext(),
                low=(10,),
                high=(20,),
                low_inclusive=False,
                high_inclusive=False,
            )
        ]
        assert hits == list(range(11, 20))

    def test_open_ranges(self, index):
        assert len(list(index.seek_range(IOContext()))) == 500
        assert len(list(index.seek_range(IOContext(), low=(495,)))) == 5

    def test_missing_key(self, index):
        assert list(index.seek_equal(IOContext(), 99999)) == []

    def test_charges_descent_and_entries(self):
        index = make_index([(i, i, 0) for i in range(100)])
        io = IOContext()
        list(index.seek_range(io, low=(0,), high=(9,)))
        assert io.cpu_ms >= io.params.cpu_index_descent_ms

    def test_leaf_io_first_random_then_sequential(self):
        index = make_index([(i, i, 0) for i in range(2000)])
        io = IOContext()
        list(index.scan_all(io))
        assert io.random_reads == 1
        assert io.sequential_reads == index.num_leaf_pages - 1


class TestPayloadsAndCompositeKeys:
    def test_included_columns_carried(self):
        index = make_index([(i, i, i * 2) for i in range(10)], included=("w",))
        for key, _rid, payload in index.scan_all(IOContext()):
            assert payload == (key[0] * 2,)

    def test_composite_key_ordering(self):
        index = make_index(
            [(i, i % 3, i) for i in range(30)], key_columns=("v", "w")
        )
        keys = [key for key, _r, _p in index.scan_all(IOContext())]
        assert keys == sorted(keys)

    def test_composite_prefix_seek(self):
        index = make_index(
            [(i, i % 3, i) for i in range(30)], key_columns=("v", "w")
        )
        hits = list(index.seek_equal(IOContext(), (1,)))  # prefix of composite key
        assert len(hits) == 10
        assert all(key[0] == 1 for key, _r, _p in hits)

    def test_duplicate_keys_in_rid_order(self):
        index = make_index([(i, 7, 0) for i in range(25)])
        rids = [rid for _k, rid, _p in index.seek_equal(IOContext(), 7)]
        assert rids == sorted(rids, key=lambda r: (r.page_id, r.slot))


@settings(max_examples=25, deadline=None)
@given(
    values=st.lists(st.integers(0, 60), min_size=1, max_size=150),
    low=st.integers(-5, 65),
    span=st.integers(0, 40),
)
def test_seek_range_matches_bruteforce(values, low, span):
    rows = [(i, v, 0) for i, v in enumerate(values)]
    index = make_index(rows)
    high = low + span
    got = sorted(
        key[0]
        for key, _r, _p in index.seek_range(IOContext(), low=(low,), high=(high,))
    )
    expected = sorted(v for v in values if low <= v <= high)
    assert got == expected


# ----------------------------------------------------------------------
# The columnar leaf level: locating ranges
# ----------------------------------------------------------------------
_EPOCH = datetime.date(2008, 4, 7)

#: Key-value generators per column type: few distinct values, so
#: duplicates, runs and absent keys are all common.
KEY_TYPES = {
    SqlType.INT: st.integers(-3, 6),
    SqlType.FLOAT: st.integers(-3, 6).map(lambda i: i / 2),
    SqlType.STR: st.sampled_from(["", "a", "ab", "b", "ba", "c"]),
    SqlType.DATE: st.integers(0, 6).map(lambda d: _EPOCH + datetime.timedelta(d)),
}


@st.composite
def located_cases(draw):
    """Rows of a one- or two-column key, plus a range whose bounds are
    open, full-width or a one-column prefix, inclusive or not."""
    types = draw(st.lists(st.sampled_from(sorted(KEY_TYPES, key=str)), min_size=1, max_size=2))
    key = st.tuples(*(KEY_TYPES[sql_type] for sql_type in types))
    keys = draw(st.lists(key, max_size=60))
    bound = st.one_of(
        st.none(), key, key.map(lambda full: full[:1])
    )
    probes = draw(st.lists(KEY_TYPES[types[0]], max_size=6))  # present and absent
    return (
        types, keys, probes,
        draw(bound), draw(bound), draw(st.booleans()), draw(st.booleans()),
    )


def typed_index(types, keys, unique=False):
    names = [f"c{position}" for position in range(len(types))]
    schema = TableSchema(
        "t", [ColumnDef(name, sql_type) for name, sql_type in zip(names, types)]
    )
    index = BTreeIndex(
        IndexDef("ix", "t", tuple(names), unique=unique), schema, FileId(9), BufferPool()
    )
    index.build(
        by_column(keys, len(types)),
        [i // 7 for i in range(len(keys))],
        [i % 7 for i in range(len(keys))],
    )
    return index


def within(key, low, high, low_inclusive, high_inclusive):
    """The linear filter: a bound compares against the same-width prefix."""
    if low is not None:
        head = key[: len(low)]
        if head < low or (head == low and not low_inclusive):
            return False
    if high is not None:
        head = key[: len(high)]
        if head > high or (head == high and not high_inclusive):
            return False
    return True


@settings(max_examples=400, deadline=None)
@given(case=located_cases())
def test_locate_is_a_linear_filter_over_sorted_entries(case):
    types, keys, probes, *bounds = case
    _check_located(typed_index(types, keys), keys, probes, *bounds)


def _check_located(index, keys, probes, low, high, low_inclusive, high_inclusive):
    entries = sorted(
        ((key, i // 7, i % 7) for i, key in enumerate(keys)),
    )
    assert [
        (key, int(rid.page_id), rid.slot) for key, rid, _payload in index.entries()
    ] == entries
    start, stop = index.locate(low, high, low_inclusive, high_inclusive)
    expected = [
        entry for entry in entries
        if within(entry[0], low, high, low_inclusive, high_inclusive)
    ]
    assert 0 <= start <= stop <= len(entries)
    assert entries[start:stop] == expected
    # The row oracle walks exactly the located range.
    assert [
        (key, int(rid.page_id), rid.slot)
        for key, rid, _payload in index.seek_range(
            IOContext(), low, high, low_inclusive, high_inclusive
        )
    ] == expected
    starts, stops = index.locate_equal_many(probes)
    assert list(zip(starts, stops)) == [index.locate(p, p) for p in probes]
    for probe, start, stop in zip(probes, starts, stops):
        assert [key for key, _, _ in entries[start:stop]] == [
            key for key, _, _ in entries if key[0] == probe
        ]


def test_exclusive_prefix_bound_excludes_the_whole_run():
    index = typed_index(
        [SqlType.INT, SqlType.INT], [(k, w) for k in range(4) for w in range(3)]
    )
    hits = [key for key, _r, _p in index.seek_range(IOContext(), low=(1,), low_inclusive=False)]
    assert hits[0] == (2, 0)


@pytest.mark.parametrize(
    "probe", [2.5, 2**70, -(2**70), True, 2.0], ids=repr
)
def test_keys_that_are_not_plain_column_values_still_compare(backend, probe):
    """A float, an int beyond int64 or a bool against an INT column takes
    the generic bisection: Python's comparisons, not a cast."""
    keys = [(value,) for value in (0, 1, 1, 2, 3, 5)]
    index = typed_index([SqlType.INT], keys)
    start, stop = index.locate(probe, probe)
    assert [key for (key,) in keys[start:stop]] == [v for (v,) in keys if v == probe]
    assert index.locate(None, probe)[1] == sum(v <= probe for (v,) in keys)


@settings(max_examples=60, deadline=None)
@given(
    loaded=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=40),
    appended=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=25),
)
# Keys no int64 array holds, inserted into one: the leaf becomes a list.
@example(loaded=[(1, 2), (3, 4)], appended=[(2**64, 1), (-(2**70), 0)])
def test_index_built_by_insert_equals_one_bulk_built(loaded, appended):
    from repro.catalog import Database

    def load(rows):
        database = Database("d", buffer_pool_pages=100)
        schema = TableSchema(
            "h",
            [ColumnDef("a", SqlType.INT), ColumnDef("b", SqlType.INT),
             ColumnDef("pad", SqlType.STR, width_bytes=900)],
        )
        return database.load_table(
            schema, [(a, b, "x") for a, b in rows],
            indexes=[
                IndexDef("ix_a", "h", ("a",), included_columns=("b",)),
                IndexDef("ix_ab", "h", ("a", "b")),
            ],
        )

    grown = load(loaded)
    grown.append_rows([(a, b, "x") for a, b in appended])
    bulk = load(loaded + appended)
    for name in ("ix_a", "ix_ab"):
        assert list(grown.index(name).entries()) == list(bulk.index(name).entries())
        assert grown.index(name).num_entries == len(loaded) + len(appended)
