"""Page-count requests and observations.

A *request* names an expression whose ``DPC`` the user (DBA, tuning tool or
the feedback infrastructure) wants measured during the next execution of a
query — the input interface of the paper's prototype ("we take as input a
set of expressions for which distinct page counts are needed", §V-A).

An *observation* is the output: the measured count, the mechanism that
produced it, whether it is exact, and bookkeeping the harness and the
diagnostics report consume.  Requests the current plan cannot answer (the
plan never sees the relevant pages — e.g. asking for ``DPC(T, State='CA')``
while running an Index Seek on ``Shipdate``, §II-B) come back with
``answered=False`` and a reason, never a silently wrong number.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Any, Mapping, NamedTuple, Optional, cast

from repro.sql.predicates import Conjunction, JoinEquality

if TYPE_CHECKING:
    from repro.optimizer.optimizer import JoinQuery


@dataclass(frozen=True)
class AccessPathRequest:
    """Request for ``DPC(table, expression)`` — access-method costing (§III)."""

    table: str
    expression: Conjunction

    def key(self) -> str:
        return self._key

    @cached_property
    def _key(self) -> str:
        # Requests are immutable and reused run after run; the key is
        # looked up at every attach site and harvest.
        return f"DPC({self.table}, {self.expression.key()})"


def _canonical_filter(outer_filter: Conjunction) -> Conjunction:
    """An outer filter with its terms sorted by ``key()``: a DPC is a
    property of the outer row *set*, so two spellings of one filter are
    one request with one key."""
    terms = outer_filter.terms
    if len(terms) > 1:
        return Conjunction(sorted(terms, key=lambda term: term.key()))
    return outer_filter


def _join_expression(join_predicate: JoinEquality, outer_filter: Conjunction) -> str:
    expression = join_predicate.key()
    if outer_filter.terms:
        expression = f"{expression} | {outer_filter.key()}"
    return expression


@dataclass(frozen=True)
class JoinMethodRequest:
    """Request for ``DPC(inner_table, join_predicate | outer_filter)`` (§IV).

    An INL join fetches the inner pages matched by the rows its *outer*
    side produces, so the count belongs to the join predicate **and** the
    selection on the outer (Example 2; ``exact_join_dpc``'s
    ``outer_predicate``): a count measured under ``c1 < 1600`` says
    nothing about ``c1 < 200``.  ``outer_filter`` is that selection, an
    empty conjunction meaning an unfiltered outer.  A DPC is a property
    of the outer row *set*, so the terms are held sorted by ``key()`` and
    two spellings of one filter are one request with one key.

    Selection predicates on the inner are deliberately absent: an INL join
    evaluates them after the fetch, so they do not reduce fetched pages.
    """

    inner_table: str
    join_predicate: JoinEquality
    outer_filter: Conjunction = Conjunction()

    def __post_init__(self) -> None:
        object.__setattr__(self, "outer_filter", _canonical_filter(self.outer_filter))

    @classmethod
    def for_query(cls, query: "JoinQuery", inner_table: str) -> "JoinMethodRequest":
        """The request ``query`` answers when ``inner_table`` is the inner."""
        outer_table = query.join_predicate.other_table(inner_table)
        return cls(
            inner_table,
            query.join_predicate,
            query.predicates.get(outer_table, Conjunction()),
        )

    def key(self) -> str:
        return self._key

    @cached_property
    def _key(self) -> str:
        expression = _join_expression(self.join_predicate, self.outer_filter)
        return f"DPC({self.inner_table}, {expression})"


@dataclass(frozen=True)
class IndexLeafRequest:
    """Request for ``LEAVES(inner_table, index, join_predicate | outer_filter)``.

    The distinct *leaf* pages of the inner's index that an INL join's
    probes read: the §III-A page-count question one level up the index.
    The cost model's fallback assumes the probed keys are contiguous in
    the index (``ceil(matches / entries per leaf)``); probes arriving in
    outer order scatter over far more leaves when the join column is not
    correlated with the outer's order.  Keyed like
    :class:`JoinMethodRequest` — the same outer row set — plus the index,
    whose leaves are counted.
    """

    inner_table: str
    index_name: str
    join_predicate: JoinEquality
    outer_filter: Conjunction = Conjunction()

    def __post_init__(self) -> None:
        object.__setattr__(self, "outer_filter", _canonical_filter(self.outer_filter))

    @classmethod
    def for_query(
        cls, query: "JoinQuery", inner_table: str, index_name: str
    ) -> "IndexLeafRequest":
        """The leaf request ``query`` answers when ``inner_table`` is the
        inner, probed through ``index_name``."""
        join = JoinMethodRequest.for_query(query, inner_table)
        return cls(inner_table, index_name, join.join_predicate, join.outer_filter)

    def key(self) -> str:
        return self._key

    @cached_property
    def _key(self) -> str:
        expression = _join_expression(self.join_predicate, self.outer_filter)
        return f"LEAVES({self.inner_table}, {self.index_name}, {expression})"


PageCountRequest = AccessPathRequest | JoinMethodRequest | IndexLeafRequest


class Mechanism(enum.Enum):
    """Which monitoring mechanism produced an observation."""

    EXACT_SCAN_COUNT = "exact-scan-count"  # grouped page access, prefix expr
    DPSAMPLE = "dpsample"  # Bernoulli page sampling (Fig. 4)
    LINEAR_COUNTING = "linear-counting"  # fetch-stream bitmap (Fig. 3)
    BITVECTOR_DPSAMPLE = "bitvector+dpsample"  # hash/merge join (Fig. 5)
    LEAF_BITMAP = "leaf-bitmap"  # one flag per index leaf (INL probe / hash build)
    NOT_AVAILABLE = "not-available"


class InstrumentFingerprint(NamedTuple):
    """Everything a monitor's count depends on besides the key itself.

    Every sampler is seeded from its scan's identity and every hash from
    the config seed, so one instrument on unchanged data reproduces its
    count bit for bit.  The fingerprint names that instrument:

    * ``mechanism`` — the :class:`Mechanism`;
    * ``fraction`` / ``seed`` — the DPSample fraction and sampler seed of
      a sampled count; an unsampled hashing counter keeps its hash seed
      in ``seed``;
    * ``bits`` — the linear-counting bitmap or bit-vector filter width;
    * ``scope`` — what fixes the sampled page sequence beyond the seed:
      the clustered range a scan seeks, and the join operator and filter
      mode feeding a bit vector;
    * ``table_rows`` — ``(table, row count)`` of every table the key
      reads, sorted: a table that grew is a different instrument.

    A named tuple: one is built and compared per attach site per run.
    """

    mechanism: Mechanism
    fraction: Optional[float] = None
    seed: Optional[int] = None
    bits: Optional[int] = None
    scope: str = ""
    table_rows: tuple[tuple[str, int], ...] = ()

    def to_json(self) -> dict[str, Any]:
        return {
            "mechanism": self.mechanism.value,
            "fraction": self.fraction,
            "seed": self.seed,
            "bits": self.bits,
            "scope": self.scope,
            "table_rows": [list(pair) for pair in self.table_rows],
        }

    @staticmethod
    def from_json(value: Any) -> "InstrumentFingerprint":
        """Rebuild a :meth:`to_json` object; ValueError if malformed."""
        if not isinstance(value, dict) or set(value) != _INSTRUMENT_FIELDS:
            raise ValueError(
                f"an instrument is an object with fields "
                f"{sorted(_INSTRUMENT_FIELDS)}, got {value!r}"
            )
        fraction, rows = value["fraction"], value["table_rows"]
        valid = (
            value["mechanism"] in _MEASURING
            and (
                fraction is None
                or (
                    isinstance(fraction, (int, float))
                    and not isinstance(fraction, bool)
                    and 0.0 < fraction <= 1.0
                )
            )
            and (value["seed"] is None or _is_int(value["seed"]))
            and (value["bits"] is None or (_is_int(value["bits"]) and value["bits"] > 0))
            and isinstance(value["scope"], str)
            and isinstance(rows, list)
            and all(
                isinstance(pair, list)
                and len(pair) == 2
                and isinstance(pair[0], str)
                and _is_int(pair[1])
                and pair[1] >= 0
                for pair in rows
            )
        )
        if not valid:
            raise ValueError(f"malformed instrument {value!r}")
        return InstrumentFingerprint(
            mechanism=Mechanism(value["mechanism"]),
            fraction=None if fraction is None else float(fraction),
            seed=value["seed"],
            bits=value["bits"],
            scope=value["scope"],
            table_rows=tuple((table, count) for table, count in rows),
        )


_INSTRUMENT_FIELDS = frozenset(
    {"mechanism", "fraction", "seed", "bits", "scope", "table_rows"}
)
#: The mechanisms that measure (an unanswerable observation has none).
_MEASURING = frozenset(
    mechanism.value for mechanism in Mechanism if mechanism is not Mechanism.NOT_AVAILABLE
)


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)



@dataclass
class PageCountObservation:
    """One measured (or unanswerable) page count."""

    request: PageCountRequest
    mechanism: Mechanism
    estimate: Optional[float] = None
    exact: bool = False
    answered: bool = True
    reason: str = ""
    details: dict[str, Any] = field(default_factory=dict)
    #: The instrument that measured the count (None: unknown provenance,
    #: e.g. a shard merge's sum — a record without one is never served).
    instrument: Optional[InstrumentFingerprint] = None
    #: Served from a feedback record this very instrument produced,
    #: instead of measured by a monitor attached to this run.
    remembered: bool = False

    @property
    def key(self) -> str:
        return self.request.key()

    @property
    def table(self) -> str:
        """The table whose pages the count is of (access path or join inner)."""
        table = getattr(self.request, "table", None)
        if table is not None:
            return str(table)
        return str(self.request.inner_table)  # type: ignore[union-attr]

    def fingerprint(self) -> tuple:
        """Everything an equivalence diff compares of one observation."""
        return (
            self.key,
            self.mechanism.value,
            self.answered,
            self.reason,
            self.estimate,
            self.exact,
            self.instrument,
            self.remembered,
        )

    def to_wire(self) -> dict[str, Any]:
        """The observation as plain scalars (the instrument as a JSON
        string, or None): a ``RunStats.to_dict()`` page count, and so what
        a worker process sends its coordinator.

        ``details`` stay behind; :meth:`from_wire` rebuilds everything a
        feedback store files.
        """
        return {
            "key": self.key,
            "table": self.table,
            "mechanism": self.mechanism.value,
            "estimate": self.estimate,
            "exact": self.exact,
            "answered": self.answered,
            "reason": self.reason,
            "instrument": (
                json.dumps(self.instrument.to_json(), sort_keys=True)
                if self.instrument is not None
                else None
            ),
            "remembered": self.remembered,
        }

    @classmethod
    def from_wire(cls, entry: Mapping[str, Any]) -> "PageCountObservation":
        """Rebuild a :meth:`to_wire` entry; ValueError if malformed.

        :meth:`~repro.core.feedback.FeedbackStore.record_observations`
        files the result exactly as it files the live observation: same
        key, estimate, exactness, mechanism, instrument and table epoch.
        An entry without an instrument files a record no run is served
        from.
        """
        try:
            instrument = entry.get("instrument")
            return cls(
                request=cast(
                    PageCountRequest,
                    _WireRequest(
                        table=str(entry["table"]), wire_key=str(entry["key"])
                    ),
                ),
                mechanism=Mechanism(entry["mechanism"]),
                estimate=entry["estimate"],
                exact=bool(entry["exact"]),
                answered=bool(entry["answered"]),
                reason=str(entry.get("reason", "")),
                instrument=(
                    InstrumentFingerprint.from_json(json.loads(instrument))
                    if instrument is not None
                    else None
                ),
                remembered=bool(entry.get("remembered", False)),
            )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ValueError(
                f"malformed wire observation {entry!r}: {exc}"
            ) from exc

    @classmethod
    def unanswerable(
        cls, request: PageCountRequest, reason: str
    ) -> "PageCountObservation":
        return cls(
            request=request,
            mechanism=Mechanism.NOT_AVAILABLE,
            estimate=None,
            exact=False,
            answered=False,
            reason=reason,
        )

    def __repr__(self) -> str:
        if not self.answered:
            return f"PageCountObservation({self.key}: unanswerable — {self.reason})"
        qualifier = "exact" if self.exact else "estimated"
        if self.remembered:
            qualifier += ", remembered"
        return (
            f"PageCountObservation({self.key} = {self.estimate:.1f} "
            f"[{qualifier}, {self.mechanism.value}])"
        )


@dataclass(frozen=True)
class _WireRequest:
    """The request of an observation rebuilt by
    :meth:`PageCountObservation.from_wire`: a feedback store needs only
    its ``key()`` and its ``table`` (for epoch tagging); the expression
    objects stay with the process that measured the count."""

    table: str
    wire_key: str

    def key(self) -> str:
        return self.wire_key
