"""Epoch versioning and lowering of the FeedbackStore."""

from __future__ import annotations

import asyncio

from repro.core.feedback import (
    FeedbackStore,
    partial_page_count_observation,
    table_of_key,
)
from repro.core.requests import (
    AccessPathRequest,
    Mechanism,
    PageCountObservation,
)
from repro.engine import Engine
from repro.optimizer import InjectionSet
from repro.service import QueryRequest, QueryService
from repro.sql import Comparison, conjunction_of


def observation(table: str, column: str, estimate: float, answered: bool = True):
    return PageCountObservation(
        request=AccessPathRequest(
            table, conjunction_of(Comparison(column, "<", 9))
        ),
        mechanism=Mechanism.EXACT_SCAN_COUNT,
        estimate=estimate if answered else None,
        exact=True,
        answered=answered,
        reason="" if answered else "not monitored",
    )


class TestTableOfKey:
    def test_dpc_and_card_keys(self):
        assert table_of_key("DPC(t, a < 9)") == "t"
        assert table_of_key("CARD(orders, total > 5)") == "orders"

    def test_unparseable_key(self):
        assert table_of_key("garbage") is None


class TestEpochs:
    def test_fresh_store_is_epoch_zero(self):
        store = FeedbackStore()
        assert store.epoch == 0
        assert store.table_epoch("t") == 0

    def test_write_bumps_global_and_table_epoch(self):
        store = FeedbackStore()
        store.record_observations([observation("t", "a", 12.0)])
        assert store.epoch == 1
        assert store.table_epoch("t") == 1
        assert store.table_epoch("unrelated") == 0

    def test_each_batch_is_one_epoch(self):
        store = FeedbackStore()
        store.record_observations(
            [observation("t", "a", 12.0), observation("t", "b", 7.0)]
        )
        assert store.epoch == 1
        store.record_observations([observation("t", "a", 13.0)])
        assert store.epoch == 2

    def test_concurrent_harvests_race_the_epoch_atomically(self, synthetic_db):
        """8 ``remember`` requests through a 4-wide service, half of them
        unmonitored: epoch == number of non-empty batches, and the store
        holds every stored observation exactly as its run measured it."""
        engine = Engine(synthetic_db)
        requests = [
            QueryRequest(
                sql=f"SELECT count(padding) FROM t WHERE c2 < {300 + 400 * i}",
                request_id=f"h{i}",
                remember=True,
                monitor=i % 2 == 0,
            )
            for i in range(8)
        ]

        async def closed_loop():
            service = QueryService(engine, max_in_flight=4)
            try:
                return await asyncio.gather(
                    *(service.handle(request) for request in requests)
                )
            finally:
                await service.shutdown()

        responses = asyncio.run(closed_loop())
        assert all(response.ok for response in responses)
        stored = [
            PageCountObservation.from_wire(entry)
            for response in responses
            for entry in response.runstats["page_counts"]
        ]
        batches = sum(1 for r in responses if r.runstats["page_counts"])
        assert batches == 4 and all(obs.answered for obs in stored)
        store = engine.feedback
        assert store.epoch == batches
        assert store.table_epoch("t") == batches
        assert len(store) == len(stored)
        measured = {obs.key: obs.estimate for obs in stored}
        injections = store.to_injections()
        for i in range(0, 8, 2):
            predicate = conjunction_of(Comparison("c2", "<", 300 + 400 * i))
            key = AccessPathRequest("t", predicate).key()
            assert store.record(key).page_count == measured[key]
            assert injections.access_page_count("t", predicate) == measured[key]

    def test_cardinality_write_bumps_epoch(self):
        store = FeedbackStore()
        store.record_cardinality("CARD(t, a < 9)", 500.0)
        assert store.epoch == 1
        assert store.table_epoch("t") == 1

    def test_zero_answerable_observations_are_a_noop(self):
        """A harvest that stores nothing must not bump the epoch (derived
        caches stay valid) nor the recency sequence."""
        store = FeedbackStore()
        store.record_observations([observation("t", "a", 12.0)])
        sequence_before = store._sequence
        stored = store.record_observations(
            [observation("t", "b", 0.0, answered=False)]
        )
        assert stored == 0
        assert store.epoch == 1
        assert store._sequence == sequence_before

    def test_table_epochs_vector_is_sorted(self):
        store = FeedbackStore()
        store.record_observations([observation("u", "a", 3.0)])
        store.record_observations([observation("t", "a", 5.0)])
        assert store.table_epochs(["u", "t"]) == (("t", 2), ("u", 1))

    def test_loaded_store_epochs_reflect_history(self):
        store = FeedbackStore()
        store.record_observations([observation("t", "a", 12.0)])
        store.record_observations([observation("u", "a", 3.0)])
        clone = FeedbackStore.from_json(store.to_json())
        assert clone.epoch == 2
        assert clone.table_epoch("t") == 1
        assert clone.table_epoch("u") == 2


class TestMemoizedLowering:
    def test_write_forces_rebuild(self):
        store = FeedbackStore()
        store.record_observations([observation("t", "a", 12.0)])
        store.to_injections()
        store.record_observations([observation("t", "b", 5.0)])
        lowered = store.to_injections()
        assert len(lowered) == 2

    def test_returned_copy_is_independent(self):
        store = FeedbackStore()
        store.record_observations([observation("t", "a", 12.0)])
        lowered = store.to_injections()
        lowered.inject_page_count_by_key("DPC(t, poison)", 1.0)
        assert len(store.to_injections()) == 1

    def test_snapshot_lowers_onto_the_base(self):
        store = FeedbackStore()
        store.record_observations([observation("t", "a", 12.0)])
        base = InjectionSet()
        assert store.snapshot_injections(base) is base
        assert len(base) == 1


def partial(table: str, column: str, satisfied: float, pages_seen: int = 10):
    """A lower-bound observation as the reopt harvest would build it."""
    return partial_page_count_observation(
        request=AccessPathRequest(
            table, conjunction_of(Comparison(column, "<", 9))
        ),
        mechanism=Mechanism.EXACT_SCAN_COUNT,
        satisfied_pages=satisfied,
        pages_seen=pages_seen,
        total_pages=100,
    )


class TestPartialObservations:
    """The reopt-harvest ingest path: epoch-free, bound-monotone, and
    displaced outright by the first complete observation."""

    def test_partial_write_never_bumps_any_epoch(self):
        store = FeedbackStore()
        stored = store.record_partial_observations([partial("t", "a", 5.0)])
        assert stored == 1
        assert store.epoch == 0
        assert store.table_epoch("t") == 0
        assert store.partial_writes == 1

    def test_partial_after_complete_keeps_epoch_history(self):
        # A reopt-cancelled run mid-workload must not look like a store
        # version change to cached plans' freshness vectors.
        store = FeedbackStore()
        store.record_observations([observation("t", "a", 12.0)])
        store.record_partial_observations([partial("t", "b", 5.0)])
        assert store.epoch == 1
        assert store.table_epoch("t") == 1

    def test_partial_still_reaches_lowering(self):
        # Epoch-free does not mean invisible: the replan sees the bounds.
        store = FeedbackStore()
        store.record_observations([observation("t", "a", 12.0)])
        store.to_injections()
        store.record_partial_observations([partial("t", "b", 5.0)])
        lowered = store.to_injections()
        assert len(lowered) == 2
        assert store.epoch == 1

    def test_complete_observation_replaces_partial_without_summing(self):
        store = FeedbackStore()
        store.record_partial_observations([partial("t", "a", 5.0)])
        store.record_observations([observation("t", "a", 12.0)])
        record = store._records["DPC(t, a < 9)"]
        assert record.page_count == 12.0  # replaced, not 17.0
        assert record.page_count_exact
        assert not record.partial

    def test_partial_never_displaces_a_complete_record(self):
        store = FeedbackStore()
        store.record_observations([observation("t", "a", 12.0)])
        store.record_partial_observations([partial("t", "a", 20.0)])
        record = store._records["DPC(t, a < 9)"]
        assert record.page_count == 12.0
        assert record.page_count_exact
        assert not record.partial

    def test_partials_reconcile_by_keeping_the_larger_bound(self):
        store = FeedbackStore()
        store.record_partial_observations([partial("t", "a", 5.0)])
        store.record_partial_observations([partial("t", "a", 3.0)])
        record = store._records["DPC(t, a < 9)"]
        assert record.page_count == 5.0  # a shorter scan never lowers it
        store.record_partial_observations([partial("t", "a", 8.0)])
        assert record.page_count == 8.0
        assert record.partial and not record.page_count_exact

    def test_unanswerable_partials_are_a_noop(self):
        store = FeedbackStore()
        stored = store.record_partial_observations([])
        assert stored == 0
        assert store.partial_writes == 0
