"""Observation wire form: the worker↔coordinator feedback boundary.

The contract: a harvested observation batch that is written with
``PageCountObservation.to_wire`` on the worker side, shipped as JSON-able
scalars and rebuilt with ``from_wire`` coordinator-side
leaves the authoritative store **bit-identical** to an in-process
harvest of the same run — same keys, same estimates, same exactness,
same mechanism strings, same table-epoch tagging, with the epoch
advancing exactly once per batch and zero-answerable batches a no-op.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.common.errors import WorkerError
from repro.core.feedback import FeedbackStore
from repro.core.requests import (
    JoinMethodRequest,
    Mechanism,
    PageCountObservation,
)
from repro.engine import Engine
from repro.harness.loadgen import workload_items
from repro.service import WorkerSpec
from repro.sql.predicates import JoinEquality
from repro.workloads import build_synthetic_database

SCAN_SQL = "SELECT count(padding) FROM t WHERE c2 < 300"
JOIN_SQL = (
    "SELECT count(t.padding) FROM t, t1 WHERE t1.c1 < 100 AND t1.c2 = t.c2"
)
FACTORY_KWARGS = {"num_rows": 2000, "seed": 7, "with_copy": True}


@pytest.fixture(scope="module")
def database():
    return build_synthetic_database(**FACTORY_KWARGS)


def harvested(database, sql):
    """Execute one monitored query and return its observations."""
    engine = Engine(database)
    item = workload_items(database, [sql])[0]
    return engine.execute(item).observations


def to_wire(observations):
    return [obs.to_wire() for obs in observations]


def from_wire(entries):
    return [PageCountObservation.from_wire(entry) for entry in entries]


class TestRoundTrip:
    def test_store_bit_identical_to_in_process_harvest(self, database):
        observations = harvested(database, SCAN_SQL)
        assert observations, "monitored scan produced no observations"

        in_process = FeedbackStore()
        in_process.record_observations(observations)

        # The wire trip: flatten, force through real JSON (what the
        # pickle over the pipe must be equivalent to), reconstitute.
        wire = json.loads(json.dumps(to_wire(observations)))
        round_tripped = FeedbackStore()
        round_tripped.record_observations(from_wire(wire))

        assert round_tripped.to_json() == in_process.to_json()

    def test_fingerprint_survives_the_wire(self, database):
        """Every field an equivalence diff compares comes back, the
        instrument and a served count's ``remembered`` flag included."""
        observations = harvested(database, JOIN_SQL)
        served = [replace(obs, remembered=True) for obs in observations]
        assert any(obs.instrument is not None for obs in observations)
        for obs in observations + served:
            back = PageCountObservation.from_wire(
                json.loads(json.dumps(obs.to_wire()))
            )
            assert back.fingerprint() == obs.fingerprint()

    def test_table_epoch_tagging_survives_the_wire(self, database):
        observations = harvested(database, SCAN_SQL)
        store = FeedbackStore()
        wire = to_wire(observations)
        store.record_observations(from_wire(wire))
        assert store.table_epoch("t") == store.epoch
        assert store.epoch == 1

    def test_epoch_bumps_exactly_once_per_batch(self, database):
        observations = harvested(database, SCAN_SQL)
        store = FeedbackStore()
        stored = store.record_observations(
            from_wire(to_wire(observations))
        )
        assert stored == len(
            [o for o in observations if o.answered and o.estimate is not None]
        )
        assert store.epoch == 1  # one batch, one bump — not one per obs

    def test_zero_answerable_batch_is_a_noop(self):
        unanswerable = PageCountObservation.unanswerable(
            JoinMethodRequest(
                inner_table="t1",
                join_predicate=JoinEquality("t", "c2", "t1", "c2"),
            ),
            reason="plan never fetched inner pages",
        )
        wire = to_wire([unanswerable])
        # The unanswerable observation itself survives the trip...
        [back] = from_wire(wire)
        assert back.answered is False
        assert back.reason == "plan never fetched inner pages"
        assert back.key == unanswerable.key
        # ...but applying it changes nothing: no records, no epoch bump.
        store = FeedbackStore()
        assert store.record_observations([back]) == 0
        assert store.epoch == 0
        assert len(store) == 0

    def test_join_observation_table_falls_back_to_inner(self, database):
        observations = harvested(database, JOIN_SQL)
        join_entries = [
            entry
            for entry in to_wire(observations)
            if "=" in entry["key"]
        ]
        assert join_entries, "join workload produced no join observations"
        for entry in join_entries:
            assert entry["table"] in ("t", "t1")
            [back] = from_wire([entry])
            assert back.key == entry["key"]
            assert back.mechanism is Mechanism(entry["mechanism"])
        # The key string carries the outer filter across the wire as it is:
        # the parent files a worker's count under the expression it measured.
        assert [e["key"] for e in join_entries] == [
            "DPC(t, t1.c2 = t.c2 | c1 < 100)",
            "LEAVES(t, ix_c2, t1.c2 = t.c2 | c1 < 100)",
        ]
        store = FeedbackStore()
        store.record_observations(
            from_wire(to_wire(observations))
        )
        local = FeedbackStore()
        local.record_observations(observations)
        assert store.to_json() == local.to_json()


class TestWireHygiene:
    def test_payload_is_plain_scalars(self, database):
        for entry in to_wire(harvested(database, SCAN_SQL)):
            for key, value in entry.items():
                assert isinstance(key, str)
                assert value is None or isinstance(
                    value, (str, int, float, bool)
                ), f"{key} leaked a live object: {type(value).__name__}"

    def test_malformed_entry_raises_typed_error(self):
        with pytest.raises(ValueError, match="malformed wire observation"):
            from_wire([{"table": "t"}])  # no key
        with pytest.raises(ValueError, match="malformed wire observation"):
            from_wire(
                [
                    {
                        "key": "DPC(t, x < 1)",
                        "table": "t",
                        "mechanism": "no-such-mechanism",
                        "estimate": 1.0,
                        "exact": True,
                        "answered": True,
                        "reason": "",
                    }
                ]
            )


class TestWorkerSpec:
    def test_rebuilds_bit_identical_database(self, database):
        spec = WorkerSpec(
            "repro.workloads:build_synthetic_database", dict(FACTORY_KWARGS)
        )
        rebuilt = spec.build_database()
        reference = harvested(database, SCAN_SQL)
        again = harvested(rebuilt, SCAN_SQL)
        assert [
            (o.key, o.mechanism, o.estimate, o.exact) for o in reference
        ] == [(o.key, o.mechanism, o.estimate, o.exact) for o in again]

    def test_unresolvable_factory_raises(self):
        with pytest.raises(WorkerError):
            WorkerSpec("repro.workloads:no_such_factory").resolve_factory()
        with pytest.raises(WorkerError):
            WorkerSpec("no.such.module:thing").resolve_factory()
