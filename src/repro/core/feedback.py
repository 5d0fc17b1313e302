"""LEO-style feedback store for page counts (§II-C), epoch-versioned.

The paper proposes augmenting a feedback infrastructure like LEO [17] to
capture ``(expression, cardinality, distinct page count)`` triples from
executed plans so that *future* queries with the same (or contained)
expressions benefit.  :class:`FeedbackStore` implements that store:

* :meth:`record_run` harvests a finished query's run statistics —
  answered page-count observations and, when available, actual
  cardinalities — into keyed records;
* :meth:`to_injections` lowers the store into an
  :class:`~repro.optimizer.injection.InjectionSet` the optimizer consumes;
* repeated observations of the same expression are reconciled by recency
  (newest wins), with exact observations preferred over estimates taken in
  the same run.

The store is **epoch-versioned**: every successful write bumps a global
:attr:`epoch` and tags the tables the written expressions refer to with
that epoch (:meth:`table_epoch`).  Consumers that cache anything derived
from the store — most importantly the
:class:`~repro.lifecycle.PlanCache` — key their entries on the epochs of
the tables a plan touches, so a remembered page count can never silently
serve a plan built from superseded feedback.

The store has no lock: an :class:`~repro.engine.Engine` runs one
execution at a time, and the query service touches its engine's store
only on its one engine thread (worker replies' harvests included).
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Mapping, Optional, Sequence, Union

from repro.common.errors import FeedbackError
from repro.core.requests import (
    IndexLeafRequest,
    InstrumentFingerprint,
    Mechanism,
    PageCountObservation,
    PageCountRequest,
)
from repro.exec.runstats import RunStats
from repro.optimizer.injection import InjectionSet

#: Feedback keys are ``MECH(table, ...)`` — ``DPC(t, a < 9)``,
#: ``CARD(t, a < 9)``, ``LEAVES(t, ix_a, t1.a = t.a)`` — so the owning
#: table is the first argument.
_KEY_TABLE_RE = re.compile(r"^[A-Za-z_]+\(\s*([^,()]+?)\s*[,)]")


def table_of_key(key: str) -> Optional[str]:
    """The table a feedback key refers to, or ``None`` if unparseable.

    Every key family the engine produces — ``DPC(table, expression)``,
    ``CARD(table, expression)`` and ``LEAVES(table, index, expression)``
    — names the table first.
    """
    match = _KEY_TABLE_RE.match(key)
    return match.group(1) if match else None


#: Why a sharded execution reports no leaf count.
SHARD_LEAF_REASON = (
    "each shard rebuilds its own secondary indexes, so per-shard leaf pages "
    "are not the global index's leaves and do not sum to its count"
)


def unsummable(observation: PageCountObservation) -> Optional[PageCountObservation]:
    """The unanswerable observation a fan-out reports in place of a leaf
    count, or ``None`` when per-shard counts of the key do sum."""
    if isinstance(observation.request, IndexLeafRequest):
        return PageCountObservation.unanswerable(observation.request, SHARD_LEAF_REASON)
    return None


def merge_page_count_observations(
    per_shard: Sequence[Sequence[PageCountObservation]],
) -> list[PageCountObservation]:
    """Combine per-shard observations of one execution into global ones.

    Each shard monitors only its own disjoint slice of every table, so
    the global distinct page count for a key is the **sum** of the
    shards' counts — no page can be charged twice because no page exists
    on two shards.  Merging rules, per key:

    * ``estimate`` sums the answering shards' estimates;
    * ``exact`` holds only when *every* shard answered exactly — a key
      some shard could not answer yields a partial sum, and partial
      coverage never claims exactness;
    * ``mechanism``/``request`` come from the first answering shard (the
      plan is identical on every shard, so mechanisms agree);
    * a key no shard answered stays a single unanswerable observation;
    * a leaf key (:class:`~repro.core.requests.IndexLeafRequest`) is
      never summed: it comes back unanswerable, :data:`SHARD_LEAF_REASON`.

    Key order follows first appearance across shards in shard order, so
    merged fingerprints are deterministic.
    """
    num_shards = len(per_shard)
    grouped: dict[str, list[PageCountObservation]] = {}
    for shard_observations in per_shard:
        for observation in shard_observations:
            grouped.setdefault(observation.key, []).append(observation)
    merged: list[PageCountObservation] = []
    for key, group in grouped.items():
        refused = unsummable(group[0])
        if refused is not None:
            merged.append(refused)
            continue
        answered = [
            obs for obs in group if obs.answered and obs.estimate is not None
        ]
        if not answered:
            merged.append(
                PageCountObservation.unanswerable(
                    group[0].request, group[0].reason
                )
            )
            continue
        first = answered[0]
        merged.append(
            PageCountObservation(
                request=first.request,
                mechanism=first.mechanism,
                estimate=sum(obs.estimate for obs in answered),  # type: ignore[misc]
                exact=(
                    len(answered) == num_shards
                    and all(obs.exact for obs in answered)
                ),
                answered=True,
                details={
                    "shards": num_shards,
                    "shards_answered": len(answered),
                    "per_shard_estimates": tuple(
                        obs.estimate for obs in answered
                    ),
                },
            )
        )
    return merged


def partial_page_count_observation(
    request: PageCountRequest,
    mechanism: Mechanism,
    satisfied_pages: float,
    pages_seen: int,
    total_pages: int,
) -> PageCountObservation:
    """An observation harvested from a *cancelled* (reopt-stopped) run.

    A stopped scan's counters cover only the pages it reached, so the
    value is a **lower bound** on the true DPC: ``exact`` is always
    False whatever the mechanism would have claimed at completion, and
    the details mark the observation partial with its page coverage so
    diagnostics can tell it from a finished sampled estimate.  Only the
    reopt subsystem may construct these (codelint rule R015): everything
    else harvests finished runs through :meth:`FeedbackStore.record_run`.
    """
    if satisfied_pages < 0:
        raise FeedbackError(
            f"partial page count must be >= 0, got {satisfied_pages}"
        )
    return PageCountObservation(
        request=request,
        mechanism=mechanism,
        estimate=float(satisfied_pages),
        exact=False,
        details={
            "partial": True,
            "pages_seen": pages_seen,
            "total_pages": total_pages,
        },
    )


def _sequence_field(entry: Mapping[str, Any], label: str) -> int:
    """A persisted ``sequence``: a non-negative int (absent = 0)."""
    value = entry.get("sequence", 0)
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise FeedbackError(
            f"{label}: 'sequence' must be a non-negative integer, "
            f"got {value!r}"
        )
    return value


def _count_field(
    entry: Mapping[str, Any], name: str, label: str
) -> Optional[float]:
    """A persisted page count / cardinality: None or a finite number >= 0."""
    value = entry.get(name)
    if value is None:
        return None
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not math.isfinite(value)
        or value < 0
    ):
        raise FeedbackError(
            f"{label}: {name!r} must be null or a finite number >= 0, "
            f"got {value!r}"
        )
    return float(value)


def _flag_field(entry: Mapping[str, Any], name: str, label: str) -> bool:
    """A persisted flag: a JSON boolean (absent = false), never coerced."""
    value = entry.get(name, False)
    if not isinstance(value, bool):
        raise FeedbackError(
            f"{label}: {name!r} must be a boolean, got {value!r}"
        )
    return value


#: What a persisted ``mechanism`` may name ("" = a cardinality-only record).
_MECHANISMS = frozenset({""} | {mechanism.value for mechanism in Mechanism})


def _mechanism_field(entry: Mapping[str, Any], label: str) -> str:
    """A persisted mechanism: ``""`` or a :class:`Mechanism` value."""
    value = entry.get("mechanism", "")
    if not isinstance(value, str) or value not in _MECHANISMS:
        raise FeedbackError(
            f"{label}: 'mechanism' must be one of {sorted(_MECHANISMS)}, "
            f"got {value!r}"
        )
    return value


def _instrument_field(
    entry: Mapping[str, Any], label: str
) -> Optional[InstrumentFingerprint]:
    """A persisted instrument fingerprint: absent (a store written before
    fingerprints existed) or a complete, well-typed object."""
    value = entry.get("instrument")
    if value is None:
        return None
    try:
        return InstrumentFingerprint.from_json(value)
    except ValueError as exc:
        raise FeedbackError(f"{label}: {exc}") from exc


@dataclass
class FeedbackRecord:
    """One remembered fact about an expression."""

    key: str
    page_count: Optional[float] = None
    page_count_exact: bool = False
    cardinality: Optional[float] = None
    mechanism: str = ""
    sequence: int = 0
    #: True while the page count is a lower bound harvested from a
    #: reopt-cancelled run; cleared when a complete observation lands.
    partial: bool = False
    #: The instrument that measured ``page_count`` (None when unknown: a
    #: shard merge's sum, a partial bound, a store written before
    #: fingerprints existed).  Only a record with one is ever served.
    instrument: Optional[InstrumentFingerprint] = None

    def merge_observation(
        self, observation: PageCountObservation, sequence: int
    ) -> None:
        """Fold a new observation in; newer beats older, exact beats
        estimated within the same run, and a complete observation always
        replaces a partial lower bound (replace, never add — the partial
        pages are a subset of the complete count, so summing would
        double-count them)."""
        if observation.estimate is None:
            return
        newer = sequence > self.sequence
        same_run_upgrade = (
            sequence == self.sequence
            and observation.exact
            and not self.page_count_exact
        )
        if self.page_count is None or self.partial or newer or same_run_upgrade:
            self.page_count = observation.estimate
            self.page_count_exact = observation.exact
            self.mechanism = observation.mechanism.value
            self.sequence = sequence
            self.partial = False
            self.instrument = observation.instrument

    def merge_partial_observation(
        self, observation: PageCountObservation
    ) -> None:
        """Fold in a lower bound from a reopt-cancelled run.

        A partial count never displaces a complete record (the finished
        run saw strictly more), never claims exactness, and two partials
        reconcile by keeping the larger lower bound — recency would let a
        shorter partial scan *lower* an established bound.
        """
        if observation.estimate is None:
            return
        if self.page_count is not None and not self.partial:
            return
        if self.page_count is None or observation.estimate > self.page_count:
            self.page_count = observation.estimate
            self.page_count_exact = False
            self.mechanism = observation.mechanism.value
            self.partial = True
            self.instrument = None


def _record_json(record: FeedbackRecord) -> dict[str, Any]:
    """A record's persisted form; ``instrument`` only when known, so a
    store written before fingerprints existed round-trips unchanged."""
    entry: dict[str, Any] = {
        "key": record.key,
        "page_count": record.page_count,
        "page_count_exact": record.page_count_exact,
        "cardinality": record.cardinality,
        "mechanism": record.mechanism,
        "sequence": record.sequence,
        "partial": record.partial,
    }
    if record.instrument is not None:
        entry["instrument"] = record.instrument.to_json()
    return entry


class FeedbackStore:
    """Accumulates execution feedback across query runs."""

    def __init__(self) -> None:
        self._records: dict[str, FeedbackRecord] = {}
        self._sequence = 0
        #: Global version: bumped once per successful write batch.
        self._epoch = 0
        #: table -> epoch of the last write touching that table.
        self._table_epochs: dict[str, int] = {}
        #: Partial (reopt-harvest) write batches.  Deliberately separate
        #: from the epoch: a cancelled run's lower bounds must not make
        #: cached plans look stale.
        self._partial_sequence = 0

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, key: str) -> bool:
        return key in self._records

    def record(self, key: str) -> Optional[FeedbackRecord]:
        return self._records.get(key)

    def remembered(
        self, request: PageCountRequest, instrument: InstrumentFingerprint
    ) -> Optional[PageCountObservation]:
        """``request``'s record as a served observation, if ``instrument``
        measured its complete page count — a count that instrument would
        reproduce bit for bit, so a run may serve it instead of measuring
        — else None."""
        record = self._records.get(request.key())
        if (
            record is None
            or record.instrument != instrument
            or record.partial
            or record.page_count is None
        ):
            return None
        return PageCountObservation(
            request=request,
            mechanism=instrument.mechanism,
            estimate=record.page_count,
            exact=record.page_count_exact,
            instrument=instrument,
            remembered=True,
        )

    # ------------------------------------------------------------------
    # Epochs (freshness tags consumed by the plan cache)
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """Global store version; changes iff the store's contents change."""
        return self._epoch

    def table_epoch(self, table: str) -> int:
        """Epoch of the last write that touched ``table`` (0 = never)."""
        return self._table_epochs.get(table, 0)

    def table_epochs(self, tables: Iterable[str]) -> tuple[tuple[str, int], ...]:
        """Sorted ``(table, epoch)`` freshness vector for a table set."""
        return tuple(
            (table, self._table_epochs.get(table, 0))
            for table in sorted(set(tables))
        )

    def _bump(self, tables: Iterable[str]) -> None:
        """Advance the global epoch and re-tag ``tables``."""
        self._epoch += 1
        for table in tables:
            if table is not None:
                self._table_epochs[table] = self._epoch

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def record_observations(
        self, observations: Iterable[PageCountObservation]
    ) -> int:
        """Store answered observations; returns how many were stored.

        A call that carries zero answerable observations is a no-op: it
        bumps neither the sequence counter nor the epoch, so derived
        caches stay valid.
        """
        storable = [
            observation
            for observation in observations
            if observation.answered and observation.estimate is not None
        ]
        if not storable:
            return 0
        self._sequence += 1
        for observation in storable:
            record = self._records.setdefault(
                observation.key, FeedbackRecord(key=observation.key)
            )
            record.merge_observation(observation, self._sequence)
        self._bump(obs.table for obs in storable)
        return len(storable)

    def record_partial_observations(
        self, observations: Iterable[PageCountObservation]
    ) -> int:
        """Store lower bounds harvested from a reopt-cancelled run.

        Unlike :meth:`record_observations` this **never bumps the epoch**
        or the per-table freshness tags: the run did not complete, so
        treating its harvest as a store version change would invalidate
        cached plans (and re-trigger re-optimizations) on the strength of
        counts that are only lower bounds.  Partial records still reach
        :meth:`to_injections` (the reopt replan optimizes from them) and
        are replaced outright by the first complete observation of the
        same key.  Only the reopt episode runner calls this (codelint
        rule R015).
        """
        storable = [
            observation
            for observation in observations
            if observation.answered and observation.estimate is not None
        ]
        if not storable:
            return 0
        self._partial_sequence += 1
        for observation in storable:
            record = self._records.setdefault(
                observation.key, FeedbackRecord(key=observation.key)
            )
            record.merge_partial_observation(observation)
        return len(storable)

    @property
    def partial_writes(self) -> int:
        """How many partial (reopt-harvest) write batches have landed."""
        return self._partial_sequence

    def record_run(self, runstats: RunStats) -> int:
        """Harvest one executed query's feedback."""
        return self.record_observations(runstats.observations)

    def record_cardinality(self, key: str, rows: float) -> None:
        """Store an observed actual cardinality for an expression key."""
        if rows < 0:
            raise FeedbackError(f"cardinality must be >= 0, got {rows}")
        self._sequence += 1
        record = self._records.setdefault(key, FeedbackRecord(key=key))
        record.cardinality = rows
        record.sequence = self._sequence
        self._bump([table_of_key(key)] if table_of_key(key) else [])

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_injections(self, base: Optional[InjectionSet] = None) -> InjectionSet:
        """Lower the store into optimizer injections.

        Page-count records become page-count injections under their
        original keys (the key format is shared with the optimizer's
        lookup, so round-tripping is lossless).  With a ``base`` set, the
        store's entries are merged *into* ``base`` (mutating and
        returning it); on key conflicts the feedback record wins.
        """
        lowered = base if base is not None else InjectionSet()
        for record in self._records.values():
            if record.page_count is not None:
                lowered.inject_page_count_by_key(record.key, record.page_count)
        return lowered

    def snapshot_injections(
        self, base: Optional[InjectionSet] = None
    ) -> InjectionSet:
        """The lowering a plan-cache miss optimizes from.

        The lifecycle reads the freshness vector *before* calling this,
        so a write landing in between tags the new plan older than the
        data it was built from: the next lookup invalidates it, and a
        stale plan is never served.
        """
        return self.to_injections(base)

    def keys(self) -> list[str]:
        return sorted(self._records)

    # ------------------------------------------------------------------
    # Persistence (the DBA-tool use case: feedback outlives the session)
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        """Serialise the store to a JSON string."""
        payload = {
            "version": 1,
            "sequence": self._sequence,
            "records": [_record_json(record) for record in self._records.values()],
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FeedbackStore":
        """Reconstruct a store serialised by :meth:`to_json`."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FeedbackError(f"invalid feedback JSON: {exc}") from exc
        if not isinstance(payload, dict) or payload.get("version") != 1:
            version = (
                payload.get("version") if isinstance(payload, dict) else None
            )
            raise FeedbackError(
                f"unsupported feedback payload version: {version!r}"
            )
        records = payload.get("records", [])
        if not isinstance(records, list):
            raise FeedbackError(
                f"feedback payload 'records' must be a list, "
                f"got {type(records).__name__}"
            )
        store = cls()
        store._sequence = _sequence_field(payload, "feedback payload")
        for entry in records:
            if not isinstance(entry, dict) or "key" not in entry:
                raise FeedbackError(
                    f"malformed feedback record (missing 'key'): {entry!r}"
                )
            key = entry["key"]
            if not isinstance(key, str):
                raise FeedbackError(
                    f"feedback record key must be a string, got {key!r}"
                )
            label = f"feedback record {key!r}"
            if key in store._records:
                raise FeedbackError(f"{label} appears more than once")
            record = FeedbackRecord(
                key=key,
                page_count=_count_field(entry, "page_count", label),
                page_count_exact=_flag_field(entry, "page_count_exact", label),
                cardinality=_count_field(entry, "cardinality", label),
                mechanism=_mechanism_field(entry, label),
                sequence=_sequence_field(entry, label),
                partial=_flag_field(entry, "partial", label),
                instrument=_instrument_field(entry, label),
            )
            if (
                record.instrument is not None
                and record.instrument.mechanism.value != record.mechanism
            ):
                raise FeedbackError(
                    f"{label}: instrument mechanism "
                    f"{record.instrument.mechanism.value!r} does not match "
                    f"{record.mechanism!r}"
                )
            # A record from the store's future would outrank every later
            # harvest of its key (merge_observation: newer sequence wins).
            if record.sequence > store._sequence:
                raise FeedbackError(
                    f"{label}: sequence {record.sequence} exceeds the "
                    f"store's {store._sequence}"
                )
            store._records[key] = record
        # Epochs are process-local freshness tokens, not persisted state:
        # a loaded store starts at one epoch per historical write batch
        # (= the sequence), with each table tagged by its newest record.
        store._epoch = store._sequence
        for record in store._records.values():
            table = table_of_key(record.key)
            if table is not None:
                store._table_epochs[table] = max(
                    store._table_epochs.get(table, 0), record.sequence
                )
        return store

    def save(self, path: Union[str, Path]) -> None:
        """Write the store to ``path`` (a str or Path)."""
        Path(path).write_text(self.to_json(), encoding="utf-8")

    @classmethod
    def load(cls, path: Union[str, Path]) -> "FeedbackStore":
        """Read a store previously written by :meth:`save`."""
        return cls.from_json(Path(path).read_text(encoding="utf-8"))

    def __repr__(self) -> str:
        return (
            f"FeedbackStore({len(self._records)} expressions, "
            f"epoch {self._epoch})"
        )
