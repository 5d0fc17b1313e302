"""Tests for bit-vector filters (paper Fig. 5 / §IV)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import MonitorError
from repro.core.bitvector import BitVectorFilter, PartialBitVectorFilter
from repro.exec import vector


class TestExactness:
    def test_no_false_negatives_ever(self):
        bitvector = BitVectorFilter(64)
        for value in range(0, 200, 3):
            bitvector.insert(value)
        for value in range(0, 200, 3):
            assert bitvector.may_contain(value)

    def test_no_false_positives_with_domain_sized_vector(self):
        """§IV: bits >= distinct values of a dense int domain -> exact."""
        domain = 1000
        bitvector = BitVectorFilter(domain)
        inserted = set(range(0, domain, 7))
        for value in inserted:
            bitvector.insert(value)
        for value in range(domain):
            assert bitvector.may_contain(value) == (value in inserted)

    def test_undersized_vector_only_overestimates(self):
        """Collisions produce false positives, never false negatives —
        page counts can only be OVER-estimated (§IV)."""
        bitvector = BitVectorFilter(100)  # half the domain
        inserted = set(range(0, 50))
        for value in inserted:
            bitvector.insert(value)
        false_positives = [
            v for v in range(200) if v not in inserted and bitvector.may_contain(v)
        ]
        # Identity-mod aliasing: exactly the values v with v % 100 in [0, 50).
        assert false_positives == [v for v in range(100, 150)]

    def test_integer_identity_mod_placement(self):
        bitvector = BitVectorFilter(128)
        bitvector.insert(5)
        assert bitvector.may_contain(5 + 128)  # structured alias
        assert not bitvector.may_contain(6)


class TestAccounting:
    def test_counters(self):
        bitvector = BitVectorFilter(64)
        bitvector.insert_all([1, 2, 2])
        bitvector.may_contain(1)
        bitvector.may_contain(3)
        assert bitvector.inserts == 3
        assert bitvector.probes == 2
        assert bitvector.bits_set == 2
        assert bitvector.fill_ratio == pytest.approx(2 / 64)

    def test_size_validation(self):
        with pytest.raises(MonitorError):
            BitVectorFilter(0)

    def test_non_integer_values_supported(self):
        bitvector = BitVectorFilter(1024)
        bitvector.insert("CA")
        assert bitvector.may_contain("CA")
        import datetime

        bitvector.insert(datetime.date(2007, 6, 1))
        assert bitvector.may_contain(datetime.date(2007, 6, 1))


_KEYS = st.one_of(
    st.integers(-50, 50), st.booleans(), st.text("ab", max_size=2), st.floats(0, 4)
)


class TestBatchForms:
    """``insert_all`` / ``first_hit``: the same filter, a batch at a time."""

    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(_KEYS, max_size=40), bits=st.integers(1, 64))
    def test_insert_all_equals_insert_per_value(self, values, bits):
        one_by_one, batched = BitVectorFilter(bits, seed=5), BitVectorFilter(bits, seed=5)
        for value in values:
            one_by_one.insert(value)
        batched.insert_all(values)
        assert bytes(batched.bits) == bytes(one_by_one.bits)
        assert (batched.inserts, batched.bits_set) == (
            one_by_one.inserts,
            one_by_one.bits_set,
        )

    @settings(max_examples=80, deadline=None)
    @given(
        batches=st.lists(
            st.lists(
                st.one_of(st.integers(-300, 300), st.integers(-(2**63), 2**64 - 1)),
                max_size=60,
            ),
            max_size=3,
        ),
        bits=st.integers(1, 200),
    )
    def test_integer_batches_equal_insert_per_value(self, batches, bits):
        """An integer build batch is placed array-wide when it fits int64
        or one value at a time when it does not: either way, batch after
        batch onto bits already set, the bytes, ``inserts`` and
        ``bits_set`` are those of one ``insert`` per value."""
        one_by_one, batched = BitVectorFilter(bits), BitVectorFilter(bits)
        for batch in batches:
            if batch and -(2**63) <= min(batch) and max(batch) < 2**63:
                assert vector.int_column(batch) is not None  # array-wide
            for value in batch:
                one_by_one.insert(value)
            batched.insert_all(batch)
            assert bytes(batched.bits) == bytes(one_by_one.bits)
            assert (batched.inserts, batched.bits_set) == (
                one_by_one.inserts,
                one_by_one.bits_set,
            )

    def test_a_batch_holding_a_bool_is_placed_per_value(self):
        """``True`` is hashed, not placed at bit 1, even beside integers."""
        one_by_one, batched = BitVectorFilter(64), BitVectorFilter(64)
        assert vector.int_column([3, True]) is None
        for value in (3, True):
            one_by_one.insert(value)
        batched.insert_all([3, True])
        assert bytes(batched.bits) == bytes(one_by_one.bits)

    def test_partial_filter_insert_all_tracks_high_key(self):
        partial = PartialBitVectorFilter(64)
        partial.insert_all([3, 9, 5])
        assert partial.high_key == 9 and partial.inserts == 3

    @settings(max_examples=60, deadline=None)
    @given(
        inserted=st.lists(_KEYS, max_size=10),
        probed=st.lists(st.one_of(st.none(), _KEYS), max_size=20),
        bits=st.integers(1, 64),
    )
    def test_first_hit_is_the_first_accepted_probe(self, inserted, probed, bits):
        bitvector = BitVectorFilter(bits, seed=5)
        bitvector.insert_all(inserted)
        first = bitvector.first_hit(probed)
        assert bitvector.probes == 0  # the caller accounts for probes
        expected = next(
            (
                index
                for index, value in enumerate(probed)
                if value is not None and bitvector.may_contain(value)
            ),
            len(probed),
        )
        assert first == expected

    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(st.integers(-(2**62), 2**62), min_size=1, max_size=20),
        bits=st.integers(1, 100),
    )
    def test_int_positions_is_position_of_each_int(self, values, bits):
        np = pytest.importorskip("numpy")
        bitvector = BitVectorFilter(bits)
        byte_indexes, bit_masks = bitvector.int_positions(np.asarray(values))
        assert list(zip(byte_indexes.tolist(), bit_masks.tolist())) == [
            bitvector._position(value) for value in values
        ]

    def test_bits_is_a_live_view(self):
        bitvector = BitVectorFilter(16)
        view = bitvector.bits
        bitvector.insert(9)
        assert view[1] == 0b10 and len(view) == 2


class TestPartial:
    def test_tracks_high_key(self):
        partial = PartialBitVectorFilter(64)
        partial.insert(3)
        partial.insert(9)
        partial.insert(5)
        assert partial.high_key == 9

    def test_probe_before_fill_is_negative(self):
        partial = PartialBitVectorFilter(64)
        assert not partial.may_contain(5)
        partial.insert(5)
        assert partial.may_contain(5)


@settings(max_examples=40, deadline=None)
@given(
    inserted=st.sets(st.integers(0, 500), max_size=80),
    probes=st.lists(st.integers(0, 500), max_size=80),
    bits=st.integers(501, 2000),
)
def test_domain_sized_filter_is_exact_semijoin(inserted, probes, bits):
    bitvector = BitVectorFilter(bits)
    for value in inserted:
        bitvector.insert(value)
    for probe in probes:
        assert bitvector.may_contain(probe) == (probe in inserted)
