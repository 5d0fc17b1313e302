"""A fan-out's feedback: merge per-shard observations, harvest them once.

The coordinator's harvest is ``merge_page_count_observations`` ->
``FeedbackStore.record_observations``; these cases pin the merge rules
and the single-store contract they land through.
"""

from __future__ import annotations

import pytest

from repro.core.feedback import FeedbackStore, merge_page_count_observations
from repro.core.requests import AccessPathRequest, Mechanism, PageCountObservation
from repro.sql import Comparison, conjunction_of

NUM_SHARDS = 4


def _request(column: str = "c2", value: int = 100) -> AccessPathRequest:
    return AccessPathRequest("t", conjunction_of(Comparison(column, "<", value)))


def _observation(
    value: int, estimate: float, exact: bool = True
) -> PageCountObservation:
    return PageCountObservation(
        request=_request(value=value),
        mechanism=Mechanism.EXACT_SCAN_COUNT if exact else Mechanism.DPSAMPLE,
        estimate=estimate,
        exact=exact,
    )


def _unanswerable() -> PageCountObservation:
    return PageCountObservation.unanswerable(_request(), "no monitor attached")


def _harvest(
    store: FeedbackStore, per_shard: list[list[PageCountObservation]]
) -> int:
    """One fan-out's harvest, as ``ShardCoordinator.execute`` performs it."""
    return store.record_observations(merge_page_count_observations(per_shard))


class TestAtomicHarvest:
    def test_one_epoch_bump_per_batch(self):
        store = FeedbackStore()
        batch = [[_observation(100, float(i))] for i in range(NUM_SHARDS)]
        assert _harvest(store, batch) == 1  # one key, whatever the fan-out
        assert store.epoch == 1
        assert store.table_epoch("t") == 1

    def test_zero_answerable_harvest_is_a_noop(self):
        store = FeedbackStore()
        stored = _harvest(store, [[_unanswerable()]] * NUM_SHARDS)
        assert stored == 0
        assert store.epoch == 0
        assert store.table_epoch("t") == 0
        assert len(store.to_injections()) == 0


class TestMergedView:
    def test_all_shards_exact_sums_exactly(self):
        store = FeedbackStore()
        _harvest(
            store, [[_observation(100, float(i + 1))] for i in range(NUM_SHARDS)]
        )
        record = store.record(_request().key())
        assert record.page_count == 1.0 + 2.0 + 3.0 + 4.0
        assert record.page_count_exact

    def test_partial_coverage_never_claims_exactness(self):
        """A key only one shard answered: the run's partial sum is stored
        but never called exact."""
        store = FeedbackStore()
        _harvest(
            store,
            [[_observation(100, 5.0)]]
            + [[_unanswerable()] for _ in range(NUM_SHARDS - 1)],
        )
        record = store.record(_request().key())
        assert record.page_count == 5.0
        assert not record.page_count_exact
        # The partial sum still lowers (a conservative undercount beats
        # the analytical model's blind guess)...
        assert (
            store.to_injections().access_page_count("t", _request().expression)
            == 5.0
        )
        # ...and the next run every shard answers replaces it with that
        # run's exact sum — other runs' per-shard counts are never mixed in.
        _harvest(
            store,
            [[_observation(100, 5.0)]]
            + [[_observation(100, 1.0)] for _ in range(NUM_SHARDS - 1)],
        )
        completed = store.record(_request().key())
        assert completed.page_count == 8.0
        assert completed.page_count_exact

    def test_any_inexact_shard_downgrades_the_merge(self):
        store = FeedbackStore()
        batch = [[_observation(100, 2.0)] for _ in range(NUM_SHARDS - 1)]
        batch.append([_observation(100, 2.5, exact=False)])
        _harvest(store, batch)
        record = store.record(_request().key())
        assert record.page_count == pytest.approx(8.5)
        assert not record.page_count_exact


class TestObservationMerging:
    def test_unanswered_everywhere_stays_unanswerable(self):
        merged = merge_page_count_observations(
            [[_unanswerable()] for _ in range(NUM_SHARDS)]
        )
        assert len(merged) == 1
        assert not merged[0].answered

    def test_partial_answers_merge_inexactly(self):
        groups = [[_observation(100, 3.0)]] + [
            [_unanswerable()] for _ in range(NUM_SHARDS - 1)
        ]
        merged = merge_page_count_observations(groups)
        assert merged[0].answered
        assert merged[0].estimate == 3.0
        assert not merged[0].exact
