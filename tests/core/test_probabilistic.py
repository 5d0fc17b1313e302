"""Tests for the linear-counting estimator (paper Fig. 3)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import MonitorError
from repro.core.probabilistic import LinearCounter, recommended_bitmap_bits


class TestBasics:
    def test_empty_stream_estimates_zero(self):
        assert LinearCounter(64).estimate() == 0.0

    def test_single_value(self):
        counter = LinearCounter(64)
        counter.observe(42)
        assert counter.estimate() == pytest.approx(1.0, abs=0.6)

    def test_duplicates_do_not_grow_estimate(self):
        counter = LinearCounter(256)
        for _ in range(1000):
            counter.observe(7)
        assert counter.bits_set == 1
        assert counter.estimate() == pytest.approx(1.0, abs=0.6)
        assert counter.observations == 1000

    def test_bitmap_size_validation(self):
        with pytest.raises(MonitorError):
            LinearCounter(0)

    def test_estimate_is_mle_form(self):
        import math

        counter = LinearCounter(100)
        for value in range(30):
            counter.observe(value)
        zero = counter.num_zero_bits
        assert counter.estimate() == pytest.approx(-100 * math.log(zero / 100))


class TestAccuracy:
    @pytest.mark.parametrize("distinct", [10, 100, 500])
    def test_relative_error_with_adequate_bitmap(self, distinct):
        counter = LinearCounter(recommended_bitmap_bits(distinct))
        for value in range(distinct):
            counter.observe(value * 977)  # arbitrary spread-out ids
        assert counter.estimate() == pytest.approx(distinct, rel=0.15)

    def test_sub_bit_per_page_accuracy(self):
        """The paper's claim: far fewer bits than distinct pages still works."""
        distinct = 4000
        counter = LinearCounter(2000)  # 0.5 bits per distinct value
        for value in range(distinct):
            counter.observe(value)
        assert counter.estimate() == pytest.approx(distinct, rel=0.2)

    def test_saturation_clamps(self):
        counter = LinearCounter(16)
        for value in range(10_000):
            counter.observe(value)
        assert counter.saturated
        estimate = counter.estimate()
        assert estimate > 16  # beyond bitmap size
        assert estimate < 10_000  # clamped lower bound, not infinity


class TestMerge:
    def test_union_semantics(self):
        a, b = LinearCounter(512), LinearCounter(512)
        for value in range(100):
            a.observe(value)
        for value in range(50, 150):
            b.observe(value)
        a.merge(b)
        assert a.estimate() == pytest.approx(150, rel=0.2)

    def test_size_mismatch_rejected(self):
        with pytest.raises(MonitorError):
            LinearCounter(64).merge(LinearCounter(128))

    def test_seed_mismatch_rejected(self):
        with pytest.raises(MonitorError):
            LinearCounter(64, seed=1).merge(LinearCounter(64, seed=2))

    def test_merge_tracks_bits_exactly(self):
        a, b = LinearCounter(128), LinearCounter(128)
        for value in range(40):
            (a if value % 2 else b).observe(value)
        union = LinearCounter(128)
        for value in range(40):
            union.observe(value)
        a.merge(b)
        assert a.bits_set == union.bits_set


class TestRecommendedBits:
    def test_scaling(self):
        assert recommended_bitmap_bits(1000, load_factor=0.5) == 2000

    def test_floor(self):
        assert recommended_bitmap_bits(0) == 64

    def test_validation(self):
        with pytest.raises(MonitorError):
            recommended_bitmap_bits(-1)
        with pytest.raises(MonitorError):
            recommended_bitmap_bits(10, load_factor=1.5)


@settings(max_examples=30, deadline=None)
@given(values=st.lists(st.integers(0, 10_000), max_size=500))
def test_estimate_close_to_true_distinct(values):
    counter = LinearCounter(4096)
    for value in values:
        counter.observe(value)
    truth = len(set(values))
    assert counter.estimate() == pytest.approx(truth, rel=0.25, abs=3.0)


@settings(max_examples=60, deadline=None)
@given(
    chunks=st.lists(st.lists(st.integers(0, 300), max_size=80), max_size=6),
    num_bits=st.sampled_from([1, 8, 64, 257]),
    seed=st.integers(0, 3),
)
def test_observe_many_is_observe_per_value(chunks, num_bits, seed):
    """A chunk hashes each distinct value once; the counter cannot tell."""
    one_by_one, chunked = LinearCounter(num_bits, seed), LinearCounter(num_bits, seed)
    for chunk in chunks:
        for value in chunk:
            one_by_one.observe(value)
        chunked.observe_many(chunk)
    assert chunked.observations == one_by_one.observations == sum(map(len, chunks))
    assert chunked.bits_set == one_by_one.bits_set
    assert chunked.estimate() == one_by_one.estimate()
    # Same bitmap: the union of the two sets no bit either lacks.
    union = LinearCounter(num_bits, seed)
    union.merge(chunked)
    union.merge(one_by_one)
    assert union.bits_set == chunked.bits_set


def test_observe_many_hashes_each_distinct_value_once(monkeypatch):
    from repro.core import probabilistic

    hashed = []
    hash_to_bucket = probabilistic.hash_to_bucket
    monkeypatch.setattr(
        probabilistic,
        "hash_to_bucket",
        lambda value, *rest: hashed.append(value) or hash_to_bucket(value, *rest),
    )
    counter = LinearCounter(64)
    counter.observe_many([7, 7, 9, 7, 9, 3])
    assert sorted(hashed) == [3, 7, 9]
    assert counter.observations == 6
