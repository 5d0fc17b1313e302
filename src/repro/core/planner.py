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

A build handed the feedback store its plan was costed from attaches no
monitor that would only reproduce a remembered count: each site names the
instrument it would attach (:class:`~repro.core.requests.InstrumentFingerprint`),
and a complete record that instrument measured is served as a
pre-resolved observation instead (:meth:`_Instrumentation.serve`).

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
from repro.core.bitvector import (
    BitVectorFilter,
    PartialBitVectorFilter,
    recommended_bitvector_bits,
)
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
    """Knobs of the monitoring mechanisms (paper defaults in comments)."""

    #: Bernoulli page-sampling fraction for DPSample (paper: 1% at 1.45M
    #: pages; we default higher because repro-scale tables are small and
    #: the absolute sampled-page counts would otherwise be tiny).
    dpsample_fraction: float = 0.2
    #: Linear-counting bitmap size; ``None`` -> one bit per table page
    #: (min 256).  The paper needs "much less than one bit per page"; the
    #: ablation bench sweeps this.
    linear_counter_bits: Optional[int] = None
    #: Bit-vector filter width; ``None`` -> the build table's row count
    #: (identity-mod placement over a dense key domain is then exact).
    bitvector_bits: Optional[int] = None
    #: Allow turning short-circuiting off on a whole fetch stream so
    #: non-prefix expressions become answerable on index plans.  Off by
    #: default: the paper does not do this (§II-B reports such requests as
    #: not obtainable).
    allow_fetch_full_evaluation: bool = False
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

    def claim(self, request_id: int) -> None:
        self.claimed.add(request_id)

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
        bits: Optional[int] = None,
        scope: str = "",
    ) -> InstrumentFingerprint:
        """The fingerprint of a monitor about to be attached: ``tables``
        are the tables its key reads (both sides of a join),
        ``sampled_with`` the seed of the DPSample sampler it counts on."""
        sampled = sampled_with is not None
        return InstrumentFingerprint(
            mechanism,
            self.config.dpsample_fraction if sampled else None,
            # A sampled count is fixed by its sampler's seed, an unsampled
            # bitmap (linear counting) by the hash seed.
            sampled_with if sampled else (self.config.seed if bits else None),
            bits,
            scope,
            tuple(sorted({(name, self.database.table(name).num_rows) for name in tables})),
        )

    def serve(
        self, request_id: int, request: PageCountRequest, instrument: InstrumentFingerprint
    ) -> bool:
        """Claim a request with its remembered count when ``instrument``
        measured that count: attaching it would reproduce the record bit
        for bit.  Returns whether the request was served."""
        if self.feedback is None:
            return False
        observation = self.feedback.remembered(request, instrument)
        if observation is None:
            return False
        self.served.append(observation)
        self.claim(request_id)
        return True

    def sampler(self, seed: int) -> BernoulliPageSampler:
        """A DPSample page sampler at the configured fraction."""
        return BernoulliPageSampler(self.config.dpsample_fraction, seed=seed)

    def sampler_seed(self, *context: object) -> int:
        """Per-scan sampler seed.

        Derived from the config seed *and* the scan's identity (table +
        predicate), so different queries draw independent page samples —
        a fixed global seed would reuse one unlucky sample across a whole
        workload and bias every estimate the same way — while re-running
        the same query stays exactly reproducible.
        """
        return _sampler_seed(self.config.seed, context)

    def linear_bits(self, table_name: str) -> int:
        if self.config.linear_counter_bits is not None:
            return self.config.linear_counter_bits
        pages = self.database.table(table_name).num_pages
        return max(256, pages)

    def bitvector_bits(self, build_table: str, probe_table: str) -> int:
        """Width of a join bit-vector filter.

        Defaults to the larger of the two tables' row counts: integer
        join keys use identity-mod placement, so covering the join-key
        domain (which either side may define — a small driver table can
        still carry keys from the big table's id space) makes the vector
        collision-free at ~1 bit per row — the "modest size (less than 1%
        of the table size)" of §IV.
        """
        if self.config.bitvector_bits is not None:
            return self.config.bitvector_bits
        rows = max(
            self.database.table(build_table).num_rows,
            self.database.table(probe_table).num_rows,
        )
        return max(1024, rows)

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
    monitor_terms = list(query_conjunction.terms)
    existing = set(monitor_terms)
    live: list[tuple[int, AccessPathRequest, tuple[int, ...], bool]] = []
    for rid, request, effective, exact in accepted:
        if state.serve(rid, request, instruments[exact]):
            continue
        for term in effective:
            if term not in existing:
                monitor_terms.append(term)
                existing.add(term)
        live.append((rid, request, tuple(monitor_terms.index(t) for t in effective), exact))

    if not live:
        return None, query_conjunction, seed
    bundle = ScanMonitorBundle(
        table_name=table_name,
        query_term_count=len(query_conjunction),
        sampler=state.sampler(seed) if seed is not None else None,
    )
    for rid, request, term_indexes, exact in live:
        bundle.add_expression_request(request, term_indexes, exact, instruments[exact])
        state.claim(rid)
    return bundle, Conjunction(tuple(monitor_terms)), seed


def _join_seed(
    state: _Instrumentation,
    scan_operator: Operator,
    table_name: str,
    query_term_count: int,
) -> int:
    """The seed of the sampler a join's bit-vector requests on this scan
    draw with: the one the scan's sampled access requests chose, else one
    derived from the scan's identity."""
    seed = state.scan_seeds.get(id(scan_operator))
    if seed is None:
        seed = state.sampler_seed(
            table_name, query_term_count, scan_operator.stats.detail
        )
    return seed


def _ensure_scan_bundle(
    state: _Instrumentation,
    scan_operator: Operator,
    table_name: str,
    query_term_count: int,
    seed: int,
) -> ScanMonitorBundle:
    """Get (or create) the scan's bundle so a join can add a bit-vector
    request; creates a sampler seeded ``seed`` if the bundle lacks one."""
    bundle: Optional[ScanMonitorBundle] = getattr(scan_operator, "bundle", None)
    if bundle is None:
        bundle = ScanMonitorBundle(
            table_name=table_name,
            query_term_count=query_term_count,
            sampler=state.sampler(seed),
        )
        scan_operator.bundle = bundle
    elif bundle.sampler is None:
        bundle.sampler = state.sampler(seed)
    return bundle


# ----------------------------------------------------------------------
# Fetch instrumentation helpers
# ----------------------------------------------------------------------
def _plan_fetch_monitoring(
    state: _Instrumentation,
    table_name: str,
    guaranteed_terms: tuple[AtomicPredicate, ...],
    residual: Conjunction,
    plan_label: str,
) -> tuple[Optional[FetchMonitorBundle], bool]:
    """Decide fetch-side monitoring (index seek / intersection plans).

    Returns the bundle (or None) and whether the fetch must evaluate its
    residual without short-circuiting.
    """
    candidates = state.access_requests_for(table_name)
    guaranteed = set(guaranteed_terms)
    accepted: list[tuple[int, AccessPathRequest, tuple[int, ...], bool]] = []

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
        is_prefix = Conjunction(effective).is_prefix_of(residual)
        if not is_prefix and not state.config.allow_fetch_full_evaluation:
            state.fail(
                rid,
                "requested terms are not a prefix of the fetch residual; "
                "enable allow_fetch_full_evaluation to monitor it anyway",
            )
            continue
        term_indexes = tuple(residual.terms.index(t) for t in effective)
        accepted.append((rid, request, term_indexes, is_prefix))

    if not accepted:
        return None, False
    bits = state.linear_bits(table_name)
    instrument = _linear_counting(state, bits, table_name)
    live = [item for item in accepted if not state.serve(item[0], item[1], instrument)]
    if not live:
        return None, False

    bundle = FetchMonitorBundle(table_name)
    needs_full = False
    for rid, request, term_indexes, is_prefix in live:
        bundle.add_request(
            request,
            term_indexes,
            num_bits=bits,
            seed=state.config.seed,
            instrument=instrument,
        )
        state.claim(rid)
        if not is_prefix:
            needs_full = True
    return bundle, needs_full


def _linear_counting(
    state: _Instrumentation, bits: int, *tables: str
) -> InstrumentFingerprint:
    """A fetch stream's linear counter: its width (and hash seed)."""
    return state.instrument(Mechanism.LINEAR_COUNTING, tables, bits=bits)


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
    grouped: dict[str, list[IndexLeafRequest]] = {}
    requests = state.join_requests_under(
        inner_table, join_predicate, outer_filter, IndexLeafRequest
    )
    if not requests:
        return []
    instrument = state.instrument(
        Mechanism.LEAF_BITMAP, (inner_table, join_predicate.other_table(inner_table))
    )
    for rid, request in requests:
        if request.index_name not in readable:
            state.fail(rid, refusal.format(index=request.index_name))
        elif not state.serve(rid, request, instrument):
            grouped.setdefault(request.index_name, []).append(request)
            state.claim(rid)
    table = state.database.table(inner_table)
    return [
        LeafPageMonitor(table.index(index_name), group, instrument)
        for index_name, group in grouped.items()
    ]


def _fail_leaf_requests(
    state: _Instrumentation, table: str, join_predicate: JoinEquality, reason: str
) -> None:
    for rid, _request in state.join_requests_for(table, join_predicate, IndexLeafRequest):
        state.fail(rid, reason)


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
        bundle, needs_full = _plan_fetch_monitoring(
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
            monitor_full_eval=needs_full,
        )
    elif isinstance(plan, InListSeekPlan):
        bundle, needs_full = _plan_fetch_monitoring(
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
            monitor_full_eval=needs_full,
        )
    elif isinstance(plan, IndexIntersectionPlan):
        guaranteed = tuple(leg.seek_term for leg in plan.legs)
        bundle, needs_full = _plan_fetch_monitoring(
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
            monitor_full_eval=needs_full,
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
    candidates = state.access_requests_for(plan.table)

    bits = state.linear_bits(plan.table)
    instrument = _linear_counting(state, bits, plan.table)
    monitor_terms = list(plan.predicate.terms)
    existing = set(monitor_terms)
    live: list[tuple[int, AccessPathRequest, tuple[int, ...], bool]] = []
    for rid, request in candidates:
        outside = [c for c in request.expression.columns() if c not in carried]
        if outside:
            state.fail(
                rid,
                f"covering index {plan.index_name} does not carry columns {outside}",
            )
            continue
        if state.serve(rid, request, instrument):
            continue
        for term in request.expression.terms:
            if term not in existing:
                monitor_terms.append(term)
                existing.add(term)
        term_indexes = tuple(
            monitor_terms.index(t) for t in request.expression.terms
        )
        is_prefix = request.expression.is_prefix_of(plan.predicate)
        live.append((rid, request, term_indexes, is_prefix))

    bundle = None
    needs_full = False
    if live:
        bundle = FetchMonitorBundle(plan.table)
        for rid, request, term_indexes, is_prefix in live:
            bundle.add_request(
                request,
                term_indexes,
                num_bits=bits,
                seed=state.config.seed,
                instrument=instrument,
            )
            state.claim(rid)
            if not is_prefix:
                needs_full = True
    return CoveringIndexScan(
        table,
        plan.index_name,
        plan.predicate,
        bundle=bundle,
        monitor_conjunction=Conjunction(tuple(monitor_terms)),
        monitor_full_eval=needs_full,
    )


def _build_inl(plan: INLJoinPlan, state: _Instrumentation) -> Operator:
    # Claim join-method requests *before* walking the outer subtree, so
    # access requests inside the outer still resolve independently.
    matches = state.join_requests_under(
        plan.inner_table, plan.join_predicate, plan.outer_filter
    )
    bundle = None
    if matches:
        bits = state.linear_bits(plan.inner_table)
        instrument = _linear_counting(state, bits, plan.inner_table, plan.outer_table)
        matches = [
            (rid, request)
            for rid, request in matches
            if not state.serve(rid, request, instrument)
        ]
    if matches:
        bundle = FetchMonitorBundle(plan.inner_table)
        for rid, request in matches:
            # Every fetched inner row satisfies the join predicate by
            # construction: no residual terms needed (term_indexes empty).
            bundle.add_request(
                request, (), num_bits=bits, seed=state.config.seed, instrument=instrument
            )
            state.claim(rid)
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


def _join_scope(join: str, scan: PlanNode) -> str:
    """A bit vector's scope: the join (and filter mode) that fills it and
    the clustered range of the scan it samples, if any."""
    if isinstance(scan, ClusteredRangeScanPlan):
        return f"{join} | {_range_scope((scan.range_term,))}"
    return join


def _scan_query_conjunction(plan: PlanNode) -> Optional[Conjunction]:
    """The scan-side conjunction of a scan-shaped plan node, else None."""
    if isinstance(plan, SeqScanPlan):
        return plan.predicate
    if isinstance(plan, ClusteredRangeScanPlan):
        return plan.residual
    return None


def _build_hash(plan: HashJoinPlan, state: _Instrumentation) -> Operator:
    matches = state.join_requests_under(
        plan.probe_table, plan.join_predicate, plan.build_filter
    )
    build_side_requests = state.join_requests_for(
        plan.build_table, plan.join_predicate
    )
    for rid, _request in build_side_requests:
        state.fail(
            rid,
            f"the current Hash Join builds on {plan.build_table}; a bit "
            "vector for that side cannot exist before its scan, so its "
            "join DPC is not obtainable from this plan",
        )
    _fail_leaf_requests(
        state,
        plan.build_table,
        plan.join_predicate,
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

    probe_conjunction = _scan_query_conjunction(plan.probe)
    bitvector: Optional[BitVectorFilter] = None
    if matches and probe_conjunction is None:
        for rid, _request in matches:
            state.fail(
                rid,
                "the probe side of the current Hash Join is not a scan; "
                "bit-vector DPSample monitoring needs a probe-side scan",
            )
    build_operator = _build(plan.build, state)
    probe_operator = _build(plan.probe, state)
    if isinstance(probe_operator, (SeqScan, ClusteredRangeScan)):
        # The probe reads the key column and materialises only the rows
        # that join, so the chunk scan emits its chunks as columns; the filter
        # it probes is complete before the first one is pulled.  (The
        # build side wants every row as a tuple and receives row tuples.)
        probe_operator.parent_consumes_columns = True
    if matches and probe_conjunction is not None:
        seed = _join_seed(
            state, probe_operator, plan.probe_table, len(probe_conjunction)
        )
        bits = state.bitvector_bits(plan.build_table, plan.probe_table)
        instrument = state.instrument(
            Mechanism.BITVECTOR_DPSAMPLE,
            (plan.probe_table, plan.build_table),
            sampled_with=seed,
            bits=bits,
            scope=_join_scope("hash join", plan.probe),
        )
        live = [
            (rid, request)
            for rid, request in matches
            if not state.serve(rid, request, instrument)
        ]
        if live:
            bitvector = BitVectorFilter(bits, seed=state.config.seed)
            column_position = probe_table.schema.position(probe_column)
            bundle = _ensure_scan_bundle(
                state, probe_operator, plan.probe_table, len(probe_conjunction), seed
            )
            for rid, request in live:
                bundle.add_bitvector_request(
                    request, column_position, bitvector, instrument
                )
                state.claim(rid)
    return HashJoin(
        build=build_operator,
        probe=probe_operator,
        build_join_column=plan.join_predicate.column_for(plan.build_table),
        probe_join_column=plan.join_predicate.column_for(plan.probe_table),
        build_label=plan.build_table,
        probe_label=plan.probe_table,
        bitvector=bitvector,
        leaf_monitors=leaf_monitors,
    )


def _build_merge(plan: MergeJoinPlan, state: _Instrumentation) -> Operator:
    matches = state.join_requests_under(
        plan.inner_table, plan.join_predicate, plan.outer_filter
    )
    outer_side_requests = state.join_requests_for(
        plan.outer_table, plan.join_predicate
    )
    for rid, _request in outer_side_requests:
        state.fail(
            rid,
            f"the current Merge Join consumes {plan.outer_table} as its "
            "outer; its join DPC is not obtainable from this plan",
        )
    for table in (plan.outer_table, plan.inner_table):
        _fail_leaf_requests(
            state,
            table,
            plan.join_predicate,
            "a Merge Join reads no index leaves and locates no join keys; "
            "leaf counts are measured under INL and Hash joins",
        )
    inner_conjunction = _scan_query_conjunction(plan.inner)
    if matches and (inner_conjunction is None or plan.sort_inner):
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

    bitvector: Optional[BitVectorFilter] = None
    mode: Optional[str] = None
    if matches:
        # A sorted outer blocks: the full vector exists before the inner
        # is read; otherwise the vector fills as the merge advances.
        filter_mode = "blocking" if plan.sort_outer else "partial"
        bits = state.bitvector_bits(plan.outer_table, plan.inner_table)
        seed = _join_seed(
            state, inner_operator, plan.inner_table, len(inner_conjunction)
        )
        instrument = state.instrument(
            Mechanism.BITVECTOR_DPSAMPLE,
            (plan.inner_table, plan.outer_table),
            sampled_with=seed,
            bits=bits,
            scope=_join_scope(f"merge join, {filter_mode}", plan.inner),
        )
        live = [
            (rid, request)
            for rid, request in matches
            if not state.serve(rid, request, instrument)
        ]
        if live:
            mode = filter_mode
            bitvector = (
                BitVectorFilter(bits, seed=state.config.seed)
                if plan.sort_outer
                else PartialBitVectorFilter(bits, seed=state.config.seed)
            )
            inner_table = state.database.table(plan.inner_table)
            inner_column = plan.join_predicate.column_for(plan.inner_table)
            column_position = inner_table.schema.position(inner_column)
            bundle = _ensure_scan_bundle(
                state, inner_operator, plan.inner_table, len(inner_conjunction), seed
            )
            for rid, request in live:
                bundle.add_bitvector_request(
                    request, column_position, bitvector, instrument
                )
                state.claim(rid)

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
        bitvector_mode=mode,
    )
