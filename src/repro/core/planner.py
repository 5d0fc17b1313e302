"""The monitor planner: instrument the *current* plan for page counting.

Given a physical plan (whatever the optimizer chose) and a set of
page-count requests, decide — per request — which operator can observe it
and with which mechanism, following the answerability rules of §II-B/§IV:

========================  =====================================================
current operator          answerable requests
========================  =====================================================
full scan                 any expression over the table's columns; *prefix*
                          expressions exactly (free), others via DPSample
clustered range seek      expressions that include the range predicate
                          (pages outside the range are provably excluded)
covering index scan       expressions over carried columns, via linear
                          counting on locator page ids
index seek / intersection expressions containing the seek term(s) whose
                          remaining terms are a prefix of the fetch residual,
                          via linear counting (Fig. 3)
INL join (inner side)     the join predicate itself (and nothing else: the
                          fetch stream only covers join-matched rows)
hash join (probe scan)    the join predicate, via bit-vector filter built on
                          the build side + DPSample on the probe scan (Fig. 5)
merge join (inner scan)   the join predicate, via full ("blocking") or
                          partial bit-vector filter (§IV)
========================  =====================================================

A join counts the inner pages matched by the rows its outer (build) side
produces, so all three answer a join request only when it names the
selection that side runs under (``JoinMethodRequest.outer_filter``).

The leaves of the inner's index (``IndexLeafRequest``) are counted exactly
by an INL join probing that index and by a hash join whose build phase
locates its keys in the probe table's index; a merge join touches no
index and answers none.

Requests nothing can observe come back as explicit *unanswerable*
observations — a diagnostic, never a fabricated number.

Each attach site names its instrument once
(:class:`~repro.core.requests.InstrumentFingerprint`, from
:meth:`_Instrumentation.instrument`) and builds its monitor from that
fingerprint: the counter width, sampler fraction and seed are read off it.
A build handed the feedback store its plan was costed from attaches no
monitor that would only reproduce a remembered count:
:meth:`_Instrumentation.attach` serves a complete record the same
instrument measured as a pre-resolved observation, and claims the rest.

The same walk also builds the executable operators, so instrumentation can
never disagree with the plan that actually runs ("none of our mechanisms
requires changes to the plan itself", §V-A).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Any, Optional

from repro.catalog.catalog import Database
from repro.common.errors import MonitorError
from repro.common.rng import derive_seed
from repro.core.bitvector import BitVectorFilter, PartialBitVectorFilter
from repro.core.dpsample import BernoulliPageSampler
from repro.core.monitors import FetchMonitorBundle, LeafPageMonitor, ScanMonitorBundle
from repro.core.requests import (
    AccessPathRequest,
    IndexLeafRequest,
    InstrumentFingerprint,
    JoinMethodRequest,
    Mechanism,
    PageCountObservation,
    PageCountRequest,
)
from repro.exec.aggregates import CountAggregate
from repro.exec.base import Operator
from repro.exec.joins import HashJoin, INLJoin, MergeJoin
from repro.exec.scans import ClusteredRangeScan, CoveringIndexScan, SeqScan
from repro.exec.seeks import (
    IndexInListSeekFetch,
    IndexIntersectionFetch,
    IndexSeekFetch,
    SeekSpec,
)
from repro.exec.sorts import Sort
from repro.optimizer.plans import (
    ClusteredRangeScanPlan,
    InListSeekPlan,
    CountPlan,
    CoveringScanPlan,
    HashJoinPlan,
    IndexIntersectionPlan,
    IndexSeekPlan,
    INLJoinPlan,
    MergeJoinPlan,
    PlanNode,
    SeqScanPlan,
)
from repro.sql.predicates import AtomicPredicate, Conjunction, JoinEquality

if TYPE_CHECKING:
    from repro.core.feedback import FeedbackStore


@dataclass
class MonitorConfig:
    """Knobs of the monitoring mechanisms."""

    #: Bernoulli page-sampling fraction for DPSample (paper: 1% at 1.45M
    #: pages; we default higher because repro-scale tables are small and
    #: the absolute sampled-page counts would otherwise be tiny).
    dpsample_fraction: float = 0.2
    #: Root of every sampler seed and of the counters' hash seed.
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.dpsample_fraction <= 1.0:
            raise MonitorError(
                f"dpsample_fraction must be in (0, 1], got {self.dpsample_fraction}"
            )


@dataclass
class BuildResult:
    """An executable operator tree plus pre-resolved observations."""

    root: Operator
    unanswerable: list[PageCountObservation] = field(default_factory=list)
    #: How many page-count requests the build received (answerable or not).
    num_requests: int = 0
    #: Answered from feedback records their own instrument measured; no
    #: monitor is attached for these.
    served: list[PageCountObservation] = field(default_factory=list)

    def summary(self) -> str:
        """One-line account of the monitor-planning outcome, used as the
        lifecycle's ``monitor-plan`` stage detail."""
        answerable = self.num_requests - len(self.unanswerable)
        summary = (
            f"{self.num_requests} request(s): {answerable} answerable, "
            f"{len(self.unanswerable)} unanswerable"
        )
        if self.served:
            summary += f", {len(self.served)} served from feedback"
        return summary


class _Instrumentation:
    """One plan-walk's worth of state."""

    def __init__(
        self,
        database: Database,
        requests: list[PageCountRequest],
        config: MonitorConfig,
        feedback: Optional["FeedbackStore"] = None,
    ) -> None:
        self.database = database
        self.config = config
        self.feedback = feedback
        self.pending: dict[int, PageCountRequest] = dict(enumerate(requests))
        self.claimed: set[int] = set()
        self.failures: dict[int, str] = {}
        self.served: list[PageCountObservation] = []
        #: id(scan operator) -> the sampler seed its access requests
        #: chose, served or not, so a join's bit vector samples the same
        #: pages a live run samples.
        self.scan_seeds: dict[int, int] = {}

    # ------------------------------------------------------------------
    def access_requests_for(self, table: str) -> list[tuple[int, AccessPathRequest]]:
        return [
            (rid, request)
            for rid, request in self.pending.items()
            if rid not in self.claimed
            and isinstance(request, AccessPathRequest)
            and request.table == table
        ]

    def join_requests_for(
        self,
        inner_table: str,
        join_predicate: JoinEquality,
        kind: type = JoinMethodRequest,
    ) -> list[tuple[int, Any]]:
        """Unclaimed requests of ``kind`` (join pages, or the inner index's
        leaves) for this inner and join predicate, under any filter."""
        return [
            (rid, request)
            for rid, request in self.pending.items()
            if rid not in self.claimed
            and isinstance(request, kind)
            and request.inner_table == inner_table
            and (
                request.join_predicate == join_predicate
                or request.join_predicate == join_predicate.reversed()
            )
        ]

    def join_requests_under(
        self,
        inner_table: str,
        join_predicate: JoinEquality,
        outer_filter: Conjunction,
        kind: type = JoinMethodRequest,
    ) -> list[tuple[int, Any]]:
        """The ``kind`` requests a join over ``outer_filter``'s rows measures.

        A request for the same inner and predicate under *another* outer
        filter counts a different row set: it is failed with both filters
        named, never answered with this join's count.
        """
        candidates = self.join_requests_for(inner_table, join_predicate, kind)
        if not candidates:
            return []
        measured = JoinMethodRequest(inner_table, join_predicate, outer_filter)
        matches = []
        for rid, request in candidates:
            if request.outer_filter == measured.outer_filter:
                matches.append((rid, request))
            else:
                self.fail(
                    rid,
                    "the current plan drives this join with the outer rows "
                    f"matching {measured.outer_filter.key()}; the request "
                    f"asks for the count under {request.outer_filter.key()}, "
                    "which this execution does not measure",
                )
        return matches

    def refuse(
        self, table: str, join_predicate: JoinEquality, kind: type, reason: str
    ) -> None:
        """Fail every ``kind`` request whose inner is ``table``: the join
        reads that side in a way that cannot measure it."""
        for rid, _request in self.join_requests_for(table, join_predicate, kind):
            self.fail(rid, reason)

    def fail(self, request_id: int, reason: str) -> None:
        """Record why an operator could not answer a request.

        Only the *last* recorded reason per request is kept; a later
        operator may still claim it.
        """
        self.failures[request_id] = reason

    def instrument(
        self,
        mechanism: Mechanism,
        tables: tuple[str, ...],
        sampled_with: Optional[int] = None,
        scope: str = "",
    ) -> InstrumentFingerprint:
        """The monitor about to be attached, named: ``tables`` are the
        tables its key reads (the counted one first; both sides of a
        join), ``sampled_with`` the seed of the DPSample sampler it counts
        on.  The monitor is built from the result, so what is served and
        what would be measured cannot disagree.

        Widths are per mechanism.  A linear-counting bitmap has one bit
        per page of the counted table (min 256); the paper needs "much
        less than one bit per page".  A bit-vector filter covers the
        larger of the two tables' row counts (min 1024): integer join
        keys use identity-mod placement, so covering the join-key domain
        (which either side may define — a small driver table can still
        carry keys from the big table's id space) makes the vector
        collision-free at ~1 bit per row — the "modest size (less than 1%
        of the table size)" of §IV.
        """
        rows = {name: self.database.table(name).num_rows for name in tables}
        bits: Optional[int] = None
        if mechanism is Mechanism.LINEAR_COUNTING:
            bits = max(256, self.database.table(tables[0]).num_pages)
        elif mechanism is Mechanism.BITVECTOR_DPSAMPLE:
            bits = max(1024, *rows.values())
        sampled = sampled_with is not None
        return InstrumentFingerprint(
            mechanism,
            self.config.dpsample_fraction if sampled else None,
            # A sampled count is fixed by its sampler's seed, an unsampled
            # bitmap (linear counting) by the hash seed.
            sampled_with if sampled else (self.config.seed if bits else None),
            bits,
            scope,
            tuple(sorted(rows.items())),
        )

    def attach(
        self, matches: list[tuple], instrument: InstrumentFingerprint
    ) -> list[tuple]:
        """Claim every ``(request id, request, ...)`` item of ``matches``.

        An item whose complete record ``instrument`` measured is served
        from it — attaching the instrument would reproduce the record bit
        for bit; the rest are returned unchanged, for the caller to attach
        ``instrument`` to.
        """
        live = []
        for item in matches:
            observation = (
                None
                if self.feedback is None
                else self.feedback.remembered(item[1], instrument)
            )
            if observation is None:
                live.append(item)
            else:
                self.served.append(observation)
            self.claimed.add(item[0])
        return live

    def sampler_seed(self, *context: object) -> int:
        """Per-scan sampler seed.

        Derived from the config seed *and* the scan's identity (table +
        predicate), so different queries draw independent page samples —
        a fixed global seed would reuse one unlucky sample across a whole
        workload and bias every estimate the same way — while re-running
        the same query stays exactly reproducible.
        """
        return _sampler_seed(self.config.seed, context)

    def leftovers(self) -> list[PageCountObservation]:
        observations = []
        for rid, request in self.pending.items():
            if rid in self.claimed:
                continue
            reason = self.failures.get(
                rid, "no operator in the current plan can observe this expression"
            )
            observations.append(PageCountObservation.unanswerable(request, reason))
        return observations


@lru_cache(maxsize=4096)
def _sampler_seed(root_seed: int, context: tuple[object, ...]) -> int:
    """``derive_seed`` hashes every name; a repeated statement's scans
    ask for the same seeds on every run."""
    return derive_seed(root_seed, "dpsample", *context)


def build_executable(
    plan: PlanNode,
    database: Database,
    requests: list[PageCountRequest] | tuple = (),
    config: Optional[MonitorConfig] = None,
    feedback: Optional["FeedbackStore"] = None,
) -> BuildResult:
    """Build operators for ``plan``, attaching monitors for ``requests``.

    ``feedback`` is the store the plan was costed from, if it was: a
    request whose complete record the attach site's own instrument
    measured is served from it (``BuildResult.served``) instead.
    """
    config = config if config is not None else MonitorConfig()
    state = _Instrumentation(database, list(requests), config, feedback)
    root = _build(plan, state)
    return BuildResult(
        root=root,
        unanswerable=state.leftovers(),
        num_requests=len(requests),
        served=state.served,
    )


# ----------------------------------------------------------------------
# Scan instrumentation helpers
# ----------------------------------------------------------------------
def _range_scope(terms: tuple[AtomicPredicate, ...]) -> str:
    """The clustered range a scan seeks ("" for a full scan): with the
    seed, it fixes the page sequence the scan's sampler draws over."""
    return " AND ".join(term.key() for term in terms)


def _sampler(instrument: InstrumentFingerprint) -> BernoulliPageSampler:
    """The DPSample page sampler a sampled ``instrument`` counts on."""
    return BernoulliPageSampler(instrument.fraction, seed=instrument.seed)


def _extend_terms(
    monitor_terms: list[AtomicPredicate], terms: tuple[AtomicPredicate, ...]
) -> tuple[int, ...]:
    """Append the ``terms`` the monitor conjunction lacks (after the query
    terms, monitoring only); their positions in it."""
    for term in terms:
        if term not in monitor_terms:
            monitor_terms.append(term)
    return tuple(monitor_terms.index(term) for term in terms)


def _plan_scan_monitoring(
    state: _Instrumentation,
    table_name: str,
    query_conjunction: Conjunction,
    guaranteed_terms: tuple[AtomicPredicate, ...],
) -> tuple[Optional[ScanMonitorBundle], Conjunction, Optional[int]]:
    """Decide scan-side monitoring for a (range-)scan of ``table_name``.

    Returns the bundle (or None), the monitor conjunction the scan must
    evaluate (query terms first, appended monitoring-only terms after),
    and the seed of the sampler the scan's sampled requests draw with —
    chosen whether or not they were served, so a join's bit vector on
    this scan samples the pages a live run samples.
    """
    table = state.database.table(table_name)
    candidates = state.access_requests_for(table_name)
    guaranteed = set(guaranteed_terms)
    accepted: list[tuple[int, AccessPathRequest, tuple[AtomicPredicate, ...], bool]] = []

    for rid, request in candidates:
        bad_columns = [
            c for c in request.expression.columns() if not table.schema.has_column(c)
        ]
        if bad_columns:
            state.fail(rid, f"unknown columns {bad_columns} on table {table_name}")
            continue
        if guaranteed and not guaranteed <= set(request.expression.terms):
            state.fail(
                rid,
                "the scan only visits pages in its seek range; the requested "
                "expression does not include the range predicate "
                f"{[t.key() for t in guaranteed_terms]}",
            )
            continue
        effective = tuple(t for t in request.expression.terms if t not in guaranteed)
        exact = Conjunction(effective).is_prefix_of(query_conjunction)
        accepted.append((rid, request, effective, exact))

    if not accepted:
        return None, query_conjunction, None

    seed = (
        state.sampler_seed(table_name, query_conjunction.key())
        if any(not exact for _, _, _, exact in accepted)
        else None
    )
    instruments = {True: state.instrument(Mechanism.EXACT_SCAN_COUNT, (table_name,))}
    if seed is not None:
        instruments[False] = state.instrument(
            Mechanism.DPSAMPLE,
            (table_name,),
            sampled_with=seed,
            scope=_range_scope(guaranteed_terms),
        )
    # One item at a time: the two instruments' requests keep their order.
    live = [item for item in accepted if state.attach([item], instruments[item[3]])]
    if not live:
        return None, query_conjunction, seed
    bundle = ScanMonitorBundle(
        table_name=table_name,
        query_term_count=len(query_conjunction),
        sampler=_sampler(instruments[False]) if seed is not None else None,
    )
    monitor_terms = list(query_conjunction.terms)
    for _rid, request, effective, exact in live:
        bundle.add_expression_request(
            request, _extend_terms(monitor_terms, effective), exact, instruments[exact]
        )
    return bundle, Conjunction(tuple(monitor_terms)), seed


# ----------------------------------------------------------------------
# Fetch instrumentation helpers
# ----------------------------------------------------------------------
def _fetch_bundle(
    table_name: str,
    instrument: InstrumentFingerprint,
    entries: list[tuple[PageCountRequest, tuple[int, ...]]],
) -> Optional[FetchMonitorBundle]:
    """One linear counter built from ``instrument`` per ``(request, term
    indexes)`` entry, over ``table_name``'s fetch stream; None if none."""
    if not entries:
        return None
    bundle = FetchMonitorBundle(table_name)
    for request, term_indexes in entries:
        bundle.add_request(request, term_indexes, instrument)
    return bundle


def _plan_fetch_monitoring(
    state: _Instrumentation,
    table_name: str,
    guaranteed_terms: tuple[AtomicPredicate, ...],
    residual: Conjunction,
    plan_label: str,
) -> Optional[FetchMonitorBundle]:
    """Decide fetch-side monitoring (index seek / intersection plans).

    The fetch evaluates its residual short-circuited, so only a request
    whose remaining terms are a prefix of it is witnessed on every row.
    """
    candidates = state.access_requests_for(table_name)
    guaranteed = set(guaranteed_terms)
    accepted: list[tuple[int, AccessPathRequest, tuple[int, ...]]] = []

    for rid, request in candidates:
        if not guaranteed <= set(request.expression.terms):
            state.fail(
                rid,
                f"the {plan_label} only fetches rows matching its seek "
                f"predicate(s) {[t.key() for t in guaranteed_terms]}; the "
                "requested expression does not include them (§II-B)",
            )
            continue
        effective = tuple(
            t for t in request.expression.terms if t not in guaranteed
        )
        missing = [t.key() for t in effective if t not in set(residual.terms)]
        if missing:
            state.fail(
                rid,
                f"the {plan_label}'s fetch does not evaluate terms {missing}",
            )
            continue
        if not Conjunction(effective).is_prefix_of(residual):
            state.fail(
                rid,
                "requested terms are not a prefix of the fetch residual, "
                "which is evaluated short-circuited; not obtainable from "
                "this plan (§II-B)",
            )
            continue
        term_indexes = tuple(residual.terms.index(t) for t in effective)
        accepted.append((rid, request, term_indexes))

    if not accepted:
        return None
    instrument = state.instrument(Mechanism.LINEAR_COUNTING, (table_name,))
    live = state.attach(accepted, instrument)
    return _fetch_bundle(
        table_name, instrument, [(request, indexes) for _rid, request, indexes in live]
    )


# ----------------------------------------------------------------------
# Leaf instrumentation helper
# ----------------------------------------------------------------------
def _plan_leaf_monitoring(
    state: _Instrumentation,
    inner_table: str,
    join_predicate: JoinEquality,
    outer_filter: Conjunction,
    readable: set[Optional[str]],
    refusal: str,
) -> list[LeafPageMonitor]:
    """One leaf monitor per index in ``readable`` that a leaf request for
    ``inner_table`` under ``outer_filter`` names; a request naming another
    index is failed with ``refusal`` (``{index}`` filled in).
    """
    matches = []
    for rid, request in state.join_requests_under(
        inner_table, join_predicate, outer_filter, IndexLeafRequest
    ):
        if request.index_name in readable:
            matches.append((rid, request))
        else:
            state.fail(rid, refusal.format(index=request.index_name))
    if not matches:
        return []
    instrument = state.instrument(
        Mechanism.LEAF_BITMAP, (inner_table, join_predicate.other_table(inner_table))
    )
    grouped: dict[str, list[IndexLeafRequest]] = {}
    for _rid, request in state.attach(matches, instrument):
        grouped.setdefault(request.index_name, []).append(request)
    table = state.database.table(inner_table)
    return [
        LeafPageMonitor(table.index(index_name), group, instrument)
        for index_name, group in grouped.items()
    ]


# ----------------------------------------------------------------------
# The plan walk
# ----------------------------------------------------------------------
def _build(plan: PlanNode, state: _Instrumentation) -> Operator:
    if isinstance(plan, CountPlan):
        child = _build(plan.child, state)
        if isinstance(child, (SeqScan, ClusteredRangeScan)):
            # The aggregate reads column vectors, so the chunk scan under
            # it emits its chunks as columns.
            child.parent_consumes_columns = True
        operator: Operator = CountAggregate(child, plan.column)
    elif isinstance(plan, SeqScanPlan):
        bundle, monitor_conjunction, seed = _plan_scan_monitoring(
            state, plan.table, plan.predicate, guaranteed_terms=()
        )
        operator = SeqScan(
            state.database.table(plan.table),
            plan.predicate,
            bundle=bundle,
            monitor_conjunction=monitor_conjunction,
        )
        if seed is not None:
            state.scan_seeds[id(operator)] = seed
    elif isinstance(plan, ClusteredRangeScanPlan):
        bundle, monitor_conjunction, seed = _plan_scan_monitoring(
            state, plan.table, plan.residual, guaranteed_terms=(plan.range_term,)
        )
        operator = ClusteredRangeScan(
            state.database.table(plan.table),
            low=plan.low,
            high=plan.high,
            query_conjunction=plan.residual,
            low_inclusive=plan.low_inclusive,
            high_inclusive=plan.high_inclusive,
            bundle=bundle,
            monitor_conjunction=monitor_conjunction,
        )
        if seed is not None:
            state.scan_seeds[id(operator)] = seed
    elif isinstance(plan, CoveringScanPlan):
        operator = _build_covering(plan, state)
    elif isinstance(plan, IndexSeekPlan):
        bundle = _plan_fetch_monitoring(
            state,
            plan.table,
            guaranteed_terms=(plan.seek_term,),
            residual=plan.residual,
            plan_label="Index Seek plan",
        )
        operator = IndexSeekFetch(
            state.database.table(plan.table),
            plan.index_name,
            low=plan.low,
            high=plan.high,
            residual=plan.residual,
            low_inclusive=plan.low_inclusive,
            high_inclusive=plan.high_inclusive,
            bundle=bundle,
        )
    elif isinstance(plan, InListSeekPlan):
        bundle = _plan_fetch_monitoring(
            state,
            plan.table,
            guaranteed_terms=(plan.in_term,),
            residual=plan.residual,
            plan_label="IN-list Seek plan",
        )
        operator = IndexInListSeekFetch(
            state.database.table(plan.table),
            plan.index_name,
            values=plan.in_term.values,
            residual=plan.residual,
            bundle=bundle,
        )
    elif isinstance(plan, IndexIntersectionPlan):
        guaranteed = tuple(leg.seek_term for leg in plan.legs)
        bundle = _plan_fetch_monitoring(
            state,
            plan.table,
            guaranteed_terms=guaranteed,
            residual=plan.residual,
            plan_label="Index Intersection plan",
        )
        operator = IndexIntersectionFetch(
            state.database.table(plan.table),
            seeks=[
                SeekSpec(
                    leg.index_name,
                    leg.low,
                    leg.high,
                    leg.low_inclusive,
                    leg.high_inclusive,
                )
                for leg in plan.legs
            ],
            residual=plan.residual,
            bundle=bundle,
        )
    elif isinstance(plan, INLJoinPlan):
        operator = _build_inl(plan, state)
    elif isinstance(plan, HashJoinPlan):
        operator = _build_hash(plan, state)
    elif isinstance(plan, MergeJoinPlan):
        operator = _build_merge(plan, state)
    else:
        raise MonitorError(f"unknown plan node type {type(plan).__name__}")

    operator.estimated_rows = plan.estimated_rows
    return operator


def _build_covering(plan: CoveringScanPlan, state: _Instrumentation) -> Operator:
    table = state.database.table(plan.table)
    index = table.index(plan.index_name)
    carried = set(index.definition.carried_columns())
    accepted = []
    for rid, request in state.access_requests_for(plan.table):
        outside = [c for c in request.expression.columns() if c not in carried]
        if outside:
            state.fail(
                rid,
                f"covering index {plan.index_name} does not carry columns {outside}",
            )
        else:
            accepted.append((rid, request))

    instrument = state.instrument(Mechanism.LINEAR_COUNTING, (plan.table,))
    live = [request for _rid, request in state.attach(accepted, instrument)]
    monitor_terms = list(plan.predicate.terms)
    entries = [
        (request, _extend_terms(monitor_terms, request.expression.terms))
        for request in live
    ]
    return CoveringIndexScan(
        table,
        plan.index_name,
        plan.predicate,
        bundle=_fetch_bundle(plan.table, instrument, entries),
        monitor_conjunction=Conjunction(tuple(monitor_terms)),
        # The scan reads every entry, so a non-prefix request is answered
        # by evaluating the whole conjunction on each.
        monitor_full_eval=any(
            not request.expression.is_prefix_of(plan.predicate) for request in live
        ),
    )


def _build_inl(plan: INLJoinPlan, state: _Instrumentation) -> Operator:
    # Claim join-method requests *before* walking the outer subtree, so
    # access requests inside the outer still resolve independently.
    matches = state.join_requests_under(
        plan.inner_table, plan.join_predicate, plan.outer_filter
    )
    bundle = None
    if matches:
        instrument = state.instrument(
            Mechanism.LINEAR_COUNTING, (plan.inner_table, plan.outer_table)
        )
        # Every fetched inner row satisfies the join predicate by
        # construction: no residual terms needed (term_indexes empty).
        bundle = _fetch_bundle(
            plan.inner_table,
            instrument,
            [(request, ()) for _rid, request in state.attach(matches, instrument)],
        )
    leaf_monitors = _plan_leaf_monitoring(
        state,
        plan.inner_table,
        plan.join_predicate,
        plan.outer_filter,
        {plan.inner_index_name},
        f"the current INL join reaches {plan.inner_table} through "
        f"{plan.inner_index_name or 'its clustered key'}; it reads no leaves "
        "of {index}",
    )
    outer_operator = _build(plan.outer, state)
    outer_column = plan.join_predicate.column_for(plan.outer_table)
    inner_column = plan.join_predicate.column_for(plan.inner_table)
    return INLJoin(
        outer=outer_operator,
        outer_join_column=outer_column,
        inner_table=state.database.table(plan.inner_table),
        inner_join_column=inner_column,
        inner_residual=plan.inner_residual,
        inner_index_name=plan.inner_index_name,
        outer_label=plan.outer_table,
        bundle=bundle,
        leaf_monitor=leaf_monitors[0] if leaf_monitors else None,
    )


def _scan_query_conjunction(plan: PlanNode) -> Optional[Conjunction]:
    """The scan-side conjunction of a scan-shaped plan node, else None."""
    if isinstance(plan, SeqScanPlan):
        return plan.predicate
    if isinstance(plan, ClusteredRangeScanPlan):
        return plan.residual
    return None


def _attach_bitvector(
    state: _Instrumentation,
    matches: list[tuple[int, JoinMethodRequest]],
    scan: PlanNode,
    scan_operator: Operator,
    join_predicate: JoinEquality,
    filter_class: type[BitVectorFilter],
    join: str,
) -> Optional[BitVectorFilter]:
    """Answer the join requests in ``matches`` on the sampled pages of
    ``scan`` (a scan-shaped plan node, built as ``scan_operator``), through
    one ``filter_class`` bit vector the ``join`` fills from its other side
    (Fig. 5, §IV).  Returns the filter for the join to fill, or None when
    every request was served."""
    table_name = scan.table
    query_term_count = len(_scan_query_conjunction(scan))
    # The seed the scan's sampled access requests chose, served or not,
    # else one derived from the scan's identity.
    seed = state.scan_seeds.get(id(scan_operator))
    if seed is None:
        seed = state.sampler_seed(
            table_name, query_term_count, scan_operator.stats.detail
        )
    scope = join
    if isinstance(scan, ClusteredRangeScanPlan):
        scope = f"{join} | {_range_scope((scan.range_term,))}"
    instrument = state.instrument(
        Mechanism.BITVECTOR_DPSAMPLE,
        (table_name, join_predicate.other_table(table_name)),
        sampled_with=seed,
        scope=scope,
    )
    live = state.attach(matches, instrument)
    if not live:
        return None
    # Hashed with the config seed, like every other monitor hash.
    bitvector = filter_class(instrument.bits, seed=state.config.seed)
    schema = state.database.table(table_name).schema
    column_position = schema.position(join_predicate.column_for(table_name))
    bundle: Optional[ScanMonitorBundle] = getattr(scan_operator, "bundle", None)
    if bundle is None:
        bundle = ScanMonitorBundle(table_name, query_term_count, _sampler(instrument))
        scan_operator.bundle = bundle
    elif bundle.sampler is None:
        bundle.sampler = _sampler(instrument)
    for _rid, request in live:
        bundle.add_bitvector_request(request, column_position, bitvector, instrument)
    return bitvector


def _build_hash(plan: HashJoinPlan, state: _Instrumentation) -> Operator:
    matches = state.join_requests_under(
        plan.probe_table, plan.join_predicate, plan.build_filter
    )
    state.refuse(
        plan.build_table,
        plan.join_predicate,
        JoinMethodRequest,
        f"the current Hash Join builds on {plan.build_table}; a bit "
        "vector for that side cannot exist before its scan, so its "
        "join DPC is not obtainable from this plan",
    )
    state.refuse(
        plan.build_table,
        plan.join_predicate,
        IndexLeafRequest,
        f"the current Hash Join builds on {plan.build_table}; only its build "
        f"keys are located, in {plan.probe_table}'s index",
    )
    probe_column = plan.join_predicate.column_for(plan.probe_table)
    probe_table = state.database.table(plan.probe_table)
    leaf_monitors = _plan_leaf_monitoring(
        state,
        plan.probe_table,
        plan.join_predicate,
        plan.build_filter,
        {index.name for index in probe_table.indexes_on_column(probe_column)},
        f"{plan.probe_table} has no index {{index}} on {probe_column} to "
        "locate the build keys in",
    )
    if matches and _scan_query_conjunction(plan.probe) is None:
        for rid, _request in matches:
            state.fail(
                rid,
                "the probe side of the current Hash Join is not a scan; "
                "bit-vector DPSample monitoring needs a probe-side scan",
            )
        matches = []
    build_operator = _build(plan.build, state)
    probe_operator = _build(plan.probe, state)
    if isinstance(probe_operator, (SeqScan, ClusteredRangeScan)):
        # The probe reads the key column and materialises only the rows
        # that join, so the chunk scan emits its chunks as columns; the filter
        # it probes is complete before the first one is pulled.  (The
        # build side wants every row as a tuple and receives row tuples.)
        probe_operator.parent_consumes_columns = True
    bitvector = None
    if matches:
        bitvector = _attach_bitvector(
            state,
            matches,
            plan.probe,
            probe_operator,
            plan.join_predicate,
            BitVectorFilter,
            "hash join",
        )
    return HashJoin(
        build=build_operator,
        probe=probe_operator,
        build_join_column=plan.join_predicate.column_for(plan.build_table),
        probe_join_column=probe_column,
        build_label=plan.build_table,
        probe_label=plan.probe_table,
        bitvector=bitvector,
        leaf_monitors=leaf_monitors,
    )


def _build_merge(plan: MergeJoinPlan, state: _Instrumentation) -> Operator:
    matches = state.join_requests_under(
        plan.inner_table, plan.join_predicate, plan.outer_filter
    )
    state.refuse(
        plan.outer_table,
        plan.join_predicate,
        JoinMethodRequest,
        f"the current Merge Join consumes {plan.outer_table} as its "
        "outer; its join DPC is not obtainable from this plan",
    )
    for table in (plan.outer_table, plan.inner_table):
        state.refuse(
            table,
            plan.join_predicate,
            IndexLeafRequest,
            "a Merge Join reads no index leaves and locates no join keys; "
            "leaf counts are measured under INL and Hash joins",
        )
    if matches and (_scan_query_conjunction(plan.inner) is None or plan.sort_inner):
        for rid, _request in matches:
            state.fail(
                rid,
                "bit-vector monitoring of a Merge Join needs the inner side "
                "to be an unsorted scan (a Sort on the inner breaks the "
                "page-id visibility of the scan)",
            )
        matches = []

    outer_operator = _build(plan.outer, state)
    inner_operator = _build(plan.inner, state)

    bitvector = None
    # A sorted outer blocks: the full vector exists before the inner is
    # read; otherwise the vector fills as the merge advances.
    mode = "blocking" if plan.sort_outer else "partial"
    if matches:
        bitvector = _attach_bitvector(
            state,
            matches,
            plan.inner,
            inner_operator,
            plan.join_predicate,
            BitVectorFilter if plan.sort_outer else PartialBitVectorFilter,
            f"merge join, {mode}",
        )

    outer_column = plan.join_predicate.column_for(plan.outer_table)
    inner_column = plan.join_predicate.column_for(plan.inner_table)
    if plan.sort_outer:
        outer_operator = Sort(outer_operator, outer_column)
    if plan.sort_inner:
        inner_operator = Sort(inner_operator, inner_column)
    return MergeJoin(
        outer=outer_operator,
        inner=inner_operator,
        outer_join_column=outer_column,
        inner_join_column=inner_column,
        outer_label=plan.outer_table,
        inner_label=plan.inner_table,
        bitvector=bitvector,
        bitvector_mode=mode if bitvector is not None else None,
    )
