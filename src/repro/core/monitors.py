"""Monitor bundles: the objects plan operators drive during execution.

The prototype described in §V-A instruments the *current* plan: each
storage-engine operator that sees page ids gets a small bundle of counters,
selected per requested expression by the monitor planner
(:mod:`repro.core.planner`).  Two bundle shapes cover every case in the
paper:

* :class:`ScanMonitorBundle` — attached to a scan operator (heap scan,
  clustered scan/range seek, covering index scan).  Exploits grouped page
  access: per-request page flags folded into either an exact counter
  (request is a prefix of the evaluated term order — no short-circuit
  changes needed) or a DPSample estimate (non-prefix requests, evaluated
  fully but only on Bernoulli-sampled pages).  Bit-vector semi-join
  requests (Fig. 5) ride the same per-page machinery, probing the filter
  on sampled pages only.

* :class:`FetchMonitorBundle` — attached to a Fetch stream (Index Seek,
  Index Intersection, or the inner of an INL join).  No grouped access, so
  each answerable request gets a :class:`~repro.core.probabilistic.LinearCounter`
  over the fetched page ids (Fig. 3).

A third, smaller counter covers the index side of an INL join:
:class:`LeafPageMonitor` counts the distinct leaf pages of the inner's
index the join's probes land on, exactly, in a bitmap of one flag per
leaf.  The INL join feeds it the runs its probes already located; a hash
join, which never probes, locates its build keys in the probe table's
index during the build phase (the SE→RE moment of Fig. 5).

Bundles charge the executing query's
:class:`~repro.storage.accounting.IOContext` for every hash and bit-vector
probe they perform (the operator passes its context into the observe
calls); the *extra predicate evaluations* caused by short-circuit
suppression are charged by the scan operator itself (it performs them), so
the measured monitoring overhead decomposes exactly as in Figs. 7 and 9.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import and_
from typing import Any, Optional, Sequence

from repro.common.errors import MonitorError
from repro.common.types import PageId
from repro.core.bitvector import BitVectorFilter
from repro.core.dpsample import BernoulliPageSampler
from repro.core.probabilistic import LinearCounter
from repro.core.requests import (
    InstrumentFingerprint,
    Mechanism,
    PageCountObservation,
    PageCountRequest,
)
from repro.sql.evaluator import TermOutcome
from repro.storage.accounting import IOContext
from repro.storage.btree import BTreeIndex


#: One bit-vector entry's per-page verdicts for a chunk: ``(flags, probes,
#: lookups)``, each one value per page (see
#: :meth:`ScanMonitorBundle.observe_pages`).
ProbeVerdicts = tuple[Sequence[bool], Sequence[int], Sequence[int]]


@dataclass(frozen=True)
class MonitorProgress:
    """Mid-run view of one request's streaming counter.

    The reopt watchdog (``repro.reopt.watchdog``) polls these at
    checkpoint boundaries to project the final DPC before the scan
    finishes, and the partial-harvest path turns them into
    partial observations after a :class:`~repro.common.errors.ReoptRequested`
    stop.  ``satisfied_pages`` is already scaled by the sampling fraction
    for sampled mechanisms; ``would_be_exact`` says whether the mechanism
    *at completion* would have produced an exact count — a mid-run value
    itself is never exact, only a lower bound.
    """

    request: PageCountRequest
    mechanism: Mechanism
    satisfied_pages: float
    would_be_exact: bool


@dataclass
class _ScanExpressionEntry:
    """One expression request being counted during a scan."""

    request: PageCountRequest
    #: positions (in the scan's *monitor conjunction* term order) of the
    #: request terms the scan must witness; terms guaranteed true by the
    #: scan's seek range are excluded.
    term_indexes: tuple[int, ...]
    #: exact mode: decidable on every page from normal short-circuited
    #: evaluation (request terms are a prefix of the query's term order).
    exact: bool
    satisfied_pages: int = 0
    instrument: Optional[InstrumentFingerprint] = None


@dataclass
class _BitVectorEntry:
    """A semi-join request probing a bit-vector filter during a scan."""

    request: PageCountRequest
    column_position: int
    filter: BitVectorFilter
    satisfied_pages: int = 0
    instrument: Optional[InstrumentFingerprint] = None


class ScanMonitorBundle:
    """Counters attached to one scan operator.

    Every counter here is page-granular: a request counts *pages* holding
    at least one witness row, and the Bernoulli sampler flips one coin
    per page, in page order.  How the scan produces a page's verdict is
    its own business, so there is one feed, a chunk of pages at a time
    (one page in the row oracle, a chunk in the batch drive):
    :meth:`sample_pages` for the chunk's coin flips, then
    :meth:`observe_pages` with one verdict per page per entry — a flag
    for an expression entry, and for a bit-vector entry the flag plus
    how many rows the prober got through (probing stops at a page's
    first hit, so that is the first hit's offset plus one, or the page's
    row count) and how many of those carried a value.
    :attr:`evaluates_sampled_pages_in_full` tells the scan whether rows
    of sampled pages need short-circuiting off (Fig. 4 step 4).  The scan
    reduces its rows to those verdicts itself; no row, truth vector or
    row mask crosses this seam.

    :meth:`finish` yields the observations.
    """

    def __init__(
        self,
        table_name: str,
        query_term_count: int,
        sampler: Optional[BernoulliPageSampler] = None,
    ) -> None:
        self.table_name = table_name
        self.query_term_count = query_term_count
        self.sampler = sampler
        self._expression_entries: list[_ScanExpressionEntry] = []
        self._bitvector_entries: list[_BitVectorEntry] = []
        self._any_nonprefix = False
        #: pages :meth:`sample_pages` decided and :meth:`observe_pages`
        #: has yet to be told about.
        self._pages_pending = 0

    # ------------------------------------------------------------------
    # Planner-side construction
    # ------------------------------------------------------------------
    def add_expression_request(
        self,
        request: PageCountRequest,
        term_indexes: Sequence[int],
        exact: bool,
        instrument: Optional[InstrumentFingerprint] = None,
    ) -> None:
        entry = _ScanExpressionEntry(
            request=request,
            term_indexes=tuple(term_indexes),
            exact=exact,
            instrument=instrument,
        )
        self._expression_entries.append(entry)
        if not exact:
            self._any_nonprefix = True

    def add_bitvector_request(
        self,
        request: PageCountRequest,
        column_position: int,
        filter: BitVectorFilter,
        instrument: Optional[InstrumentFingerprint] = None,
    ) -> None:
        self._bitvector_entries.append(
            _BitVectorEntry(
                request=request,
                column_position=column_position,
                filter=filter,
                instrument=instrument,
            )
        )

    @property
    def has_requests(self) -> bool:
        return bool(self._expression_entries or self._bitvector_entries)

    @property
    def needs_sampler(self) -> bool:
        """Whether any request can only be answered on sampled pages."""
        return self._any_nonprefix or bool(self._bitvector_entries)

    # ------------------------------------------------------------------
    # Scan-side protocol
    # ------------------------------------------------------------------
    @property
    def evaluates_sampled_pages_in_full(self) -> bool:
        """Whether rows of sampled pages need short-circuiting off."""
        return self._any_nonprefix

    def page_flag_witnesses(self) -> list[tuple[tuple[int, ...], bool]]:
        """``(term_indexes, exact)`` per expression entry, in the order
        :meth:`observe_pages` takes its flag lists.

        A page's flag says whether some row of it has every listed term
        TRUE — short-circuited truth for exact entries (their terms are a
        prefix of the query's), full truth for sampled ones.
        """
        return [
            (entry.term_indexes, entry.exact) for entry in self._expression_entries
        ]

    def bitvector_probes(self) -> list[tuple[int, BitVectorFilter]]:
        """``(column_position, filter)`` per bit-vector entry, in the order
        :meth:`observe_pages` takes its probe verdicts."""
        return [
            (entry.column_position, entry.filter) for entry in self._bitvector_entries
        ]

    def sample_pages(self, first_page_id: PageId, page_count: int) -> list[bool]:
        """The Bernoulli decisions for ``page_count`` consecutive pages.

        One :meth:`~repro.core.dpsample.BernoulliPageSampler.sample_page`
        draw per page, in page order, whatever the chunk width: the row
        oracle asks for one page at a time, the batch drive for a chunk.
        """
        if self._pages_pending:
            raise MonitorError("sample_pages called with a chunk still open")
        self._pages_pending = page_count
        if not self.needs_sampler:
            return [False] * page_count
        if self.sampler is None:
            raise MonitorError(
                f"scan of {self.table_name} has sampled requests but no sampler"
            )
        sample_page = self.sampler.sample_page
        return [
            sample_page(page_id)
            for page_id in range(first_page_id, first_page_id + page_count)
        ]

    def observe_pages(
        self,
        flags_per_entry: Sequence[Sequence[bool]],
        sampled_pages: Sequence[bool],
        num_rows: int,
        io: IOContext,
        probes_per_entry: Sequence[ProbeVerdicts] = (),
    ) -> None:
        """Fold one chunk's per-page verdicts into the counters.

        ``flags_per_entry[k][p]`` is entry *k*'s flag for the chunk's
        page *p* (entries as in :meth:`page_flag_witnesses`);
        ``sampled_pages`` is what :meth:`sample_pages` returned.  Exact
        entries count every flagged page, sampled entries the flagged
        pages of the sample.  The per-row monitor check of §III-B ("a
        single comparison for each row") is charged for ``num_rows``
        rows: the chunk's, less any its scan already charged.

        ``probes_per_entry[k]`` is bit-vector entry *k*'s ``(flags,
        probes, lookups)`` (entries as in :meth:`bitvector_probes`): per
        page, whether some row hit the filter, how many rows were probed
        before probing stopped, and how many of those carried a value
        (a NULL is probed and charged but never reaches the filter).
        Only sampled pages are probed, so only theirs are folded: flagged
        ones are counted, their probes charged, their lookups added to
        the filter's own ``probes`` counter — the totals a prober reaches
        one :meth:`~repro.core.bitvector.BitVectorFilter.may_contain` at
        a time.
        """
        page_count = len(sampled_pages)
        if not self._pages_pending or page_count != self._pages_pending:
            raise MonitorError("observe_pages called without matching sample_pages")
        entries = self._expression_entries
        if len(flags_per_entry) != len(entries):
            raise MonitorError(
                f"observe_pages got {len(flags_per_entry)} flag lists for "
                f"{len(entries)} entries"
            )
        if len(probes_per_entry) != len(self._bitvector_entries):
            raise MonitorError(
                f"observe_pages got {len(probes_per_entry)} probe verdicts for "
                f"{len(self._bitvector_entries)} bit-vector entries"
            )
        for verdicts in probes_per_entry:
            if [len(per_page) for per_page in verdicts] != [page_count] * 3:
                raise MonitorError(
                    "observe_pages needs (flags, probes, lookups) for each of "
                    f"the {page_count} pages per bit-vector entry"
                )
        self._pages_pending = 0
        if num_rows:
            io.charge_monitor_checks(num_rows)
        for entry, flags in zip(entries, flags_per_entry):
            if len(flags) != page_count:
                raise MonitorError(
                    f"observe_pages got {len(flags)} flags for {page_count} pages"
                )
            if entry.exact:
                entry.satisfied_pages += sum(flags)
            else:
                entry.satisfied_pages += sum(map(and_, flags, sampled_pages))
        for bv_entry, (flags, probes, lookups) in zip(
            self._bitvector_entries, probes_per_entry
        ):
            bv_entry.satisfied_pages += sum(map(and_, flags, sampled_pages))
            probed = sum(compress(probes, sampled_pages))
            if probed:
                io.charge_bitvector_probes(probed)
            bv_entry.filter.probes += sum(compress(lookups, sampled_pages))

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def progress(self) -> list[MonitorProgress]:
        """Streaming counter values so far, safe to read mid-page.

        The current page's un-folded flag is deliberately excluded: the
        returned counts cover only completed pages, so they are honest
        lower bounds whatever program point the caller polls from.
        """
        fraction = self.sampler.fraction if self.sampler is not None else 1.0
        snapshot: list[MonitorProgress] = []
        for entry in self._expression_entries:
            if entry.exact:
                snapshot.append(
                    MonitorProgress(
                        request=entry.request,
                        mechanism=Mechanism.EXACT_SCAN_COUNT,
                        satisfied_pages=float(entry.satisfied_pages),
                        would_be_exact=True,
                    )
                )
            else:
                snapshot.append(
                    MonitorProgress(
                        request=entry.request,
                        mechanism=Mechanism.DPSAMPLE,
                        satisfied_pages=entry.satisfied_pages / fraction,
                        would_be_exact=fraction >= 1.0,
                    )
                )
        for bv_entry in self._bitvector_entries:
            snapshot.append(
                MonitorProgress(
                    request=bv_entry.request,
                    mechanism=Mechanism.BITVECTOR_DPSAMPLE,
                    satisfied_pages=bv_entry.satisfied_pages / fraction,
                    would_be_exact=False,
                )
            )
        return snapshot

    def finish(self) -> list[PageCountObservation]:
        observations: list[PageCountObservation] = []
        fraction = self.sampler.fraction if self.sampler is not None else 1.0
        for entry in self._expression_entries:
            if entry.exact:
                observations.append(
                    PageCountObservation(
                        request=entry.request,
                        mechanism=Mechanism.EXACT_SCAN_COUNT,
                        estimate=float(entry.satisfied_pages),
                        exact=True,
                        details={"satisfied_pages": entry.satisfied_pages},
                        instrument=entry.instrument,
                    )
                )
            else:
                observations.append(
                    PageCountObservation(
                        request=entry.request,
                        mechanism=Mechanism.DPSAMPLE,
                        estimate=entry.satisfied_pages / fraction,
                        exact=fraction >= 1.0,
                        details={
                            "satisfied_sampled_pages": entry.satisfied_pages,
                            "fraction": fraction,
                            "pages_sampled": (
                                self.sampler.pages_sampled if self.sampler else 0
                            ),
                        },
                        instrument=entry.instrument,
                    )
                )
        for bv_entry in self._bitvector_entries:
            observations.append(
                PageCountObservation(
                    request=bv_entry.request,
                    mechanism=Mechanism.BITVECTOR_DPSAMPLE,
                    estimate=bv_entry.satisfied_pages / fraction,
                    exact=False,  # collisions can overestimate
                    details={
                        "satisfied_sampled_pages": bv_entry.satisfied_pages,
                        "fraction": fraction,
                        "filter_bits": bv_entry.filter.num_bits,
                        "filter_fill_ratio": bv_entry.filter.fill_ratio,
                    },
                    instrument=bv_entry.instrument,
                )
            )
        return observations


@dataclass
class _FetchEntry:
    """One expression request counted over a fetch stream."""

    request: PageCountRequest
    #: positions (in the fetch residual's term order) that must be TRUE for
    #: the fetched row to witness the request; guaranteed terms excluded.
    term_indexes: tuple[int, ...]
    counter: LinearCounter
    instrument: InstrumentFingerprint

    def observe(self, page_id: PageId, truth: tuple, io: IOContext) -> None:
        for index in self.term_indexes:
            if truth[index] is not True:
                return
        io.charge_hashes(1)
        self.counter.observe(int(page_id))


class FetchMonitorBundle:
    """Linear counters attached to a Fetch stream (Fig. 3).

    The row oracle calls :meth:`observe_fetch` for every row it fetches,
    passing the page id and the residual-term outcome it computed anyway;
    the batch drive calls :meth:`observe_fetches` once per chunk of
    fetches, with one witness flag per fetch per entry.
    """

    def __init__(self, table_name: str) -> None:
        self.table_name = table_name
        self._entries: list[_FetchEntry] = []

    def add_request(
        self,
        request: PageCountRequest,
        term_indexes: Sequence[int],
        instrument: InstrumentFingerprint,
    ) -> None:
        """Count ``request`` on a linear counter built from ``instrument``
        (its bitmap width and hash seed)."""
        self._entries.append(
            _FetchEntry(
                request=request,
                term_indexes=tuple(term_indexes),
                counter=LinearCounter(instrument.bits, seed=instrument.seed),
                instrument=instrument,
            )
        )

    @property
    def has_requests(self) -> bool:
        return bool(self._entries)

    def observe_fetch(
        self, page_id: PageId, outcome: Optional[TermOutcome], io: IOContext
    ) -> None:
        truth: tuple = outcome.truth if outcome is not None else ()
        for entry in self._entries:
            entry.observe(page_id, truth, io)

    def witness_terms(self) -> list[tuple[int, ...]]:
        """Each entry's residual term positions, in the order
        :meth:`observe_fetches` takes its flag lists.  A fetched row
        witnesses an entry when every listed term came out TRUE on it."""
        return [entry.term_indexes for entry in self._entries]

    def observe_fetches(
        self,
        page_ids: Sequence[PageId],
        flags_per_entry: Sequence[Sequence[bool]],
        io: IOContext,
    ) -> None:
        """Batch form of :meth:`observe_fetch` for one chunk of fetches.

        ``flags_per_entry[k][i]`` says whether fetch *i*, of page
        ``page_ids[i]``, witnesses entry *k* (entries as in
        :meth:`witness_terms`); the operator reads those flags off its
        chunk-wide residual masks, so no truth vector crosses this seam.
        The counters end up bit-identical to per-row observation: the
        linear counter is order-insensitive and idempotent per id, so each
        entry hashes a chunk's *distinct* witnessed page ids once
        (:meth:`~repro.core.probabilistic.LinearCounter.observe_many`),
        while ``charge_hashes`` and ``observations`` still count every
        witnessing fetch — the paper's one hash per row (Fig. 3).
        """
        if len(flags_per_entry) != len(self._entries):
            raise MonitorError(
                f"observe_fetches got {len(flags_per_entry)} flag lists for "
                f"{len(self._entries)} entries"
            )
        for entry, flags in zip(self._entries, flags_per_entry):
            if len(flags) != len(page_ids):
                raise MonitorError(
                    f"observe_fetches got {len(flags)} flags for "
                    f"{len(page_ids)} fetches"
                )
            witnessed = list(compress(page_ids, flags))
            if witnessed:
                io.charge_hashes(len(witnessed))
                entry.counter.observe_many(witnessed)

    def progress(self) -> list[MonitorProgress]:
        """Streaming counter estimates so far (honest lower bounds)."""
        return [
            MonitorProgress(
                request=entry.request,
                mechanism=Mechanism.LINEAR_COUNTING,
                satisfied_pages=entry.counter.estimate(),
                would_be_exact=False,
            )
            for entry in self._entries
        ]

    def finish(self) -> list[PageCountObservation]:
        observations = []
        for entry in self._entries:
            observations.append(
                PageCountObservation(
                    request=entry.request,
                    mechanism=Mechanism.LINEAR_COUNTING,
                    estimate=entry.counter.estimate(),
                    exact=False,
                    details={
                        "bitmap_bits": entry.counter.num_bits,
                        "bits_set": entry.counter.bits_set,
                        "observations": entry.counter.observations,
                        "saturated": entry.counter.saturated,
                    },
                    instrument=entry.instrument,
                )
            )
        return observations


class LeafPageMonitor:
    """Exact distinct-leaf count of one index under a join's probes.

    One flag per leaf page of ``index`` (a byte each: setting one is a
    store, where a packed bit costs a read-modify-write per probe).  A
    probe's run of equal entries
    ``[start, stop)`` reads the leaves from ``start``'s to ``stop - 1``'s
    — the leaves :meth:`~repro.storage.btree.BTreeIndex.seek_range`
    enters — and an empty run reads none.  Every request handed in names
    the same (index, join predicate, outer filter), so they share the
    bitmap and each gets the count.
    """

    def __init__(
        self,
        index: BTreeIndex,
        requests: Sequence[PageCountRequest],
        instrument: Optional[InstrumentFingerprint] = None,
    ) -> None:
        self.index = index
        self.requests = list(requests)
        self.instrument = instrument
        self._leaves = bytearray(index.num_leaf_pages)
        self.probes = 0

    def observe_runs(self, starts: Sequence[int], stops: Sequence[int]) -> None:
        """Flag the leaves each ``[start, stop)`` run reads."""
        epp = self.index.entries_per_page
        leaves = self._leaves
        for start, stop in zip(starts, stops):
            if start < stop:
                first, last = start // epp, (stop - 1) // epp
                if first == last:
                    leaves[first] = 1
                else:
                    leaves[first : last + 1] = b"\x01" * (last + 1 - first)
        self.probes += len(starts)

    def observe_probes(
        self, starts: Sequence[int], stops: Sequence[int], io: IOContext
    ) -> None:
        """An INL join's probes, located already: one monitor check each."""
        if starts:
            io.charge_monitor_checks(len(starts))
            self.observe_runs(starts, stops)

    def observe_keys(self, keys: Sequence[Any], io: IOContext) -> None:
        """A hash join's build keys (NULLs removed): each is located in the
        index, charged as one bit-vector probe."""
        if keys:
            io.charge_bitvector_probes(len(keys))
            self.observe_runs(*self.index.locate_equal_many(keys))

    def finish(self) -> list[PageCountObservation]:
        leaves = self._leaves.count(1)
        return [
            PageCountObservation(
                request=request,
                mechanism=Mechanism.LEAF_BITMAP,
                estimate=float(leaves),
                exact=True,
                details={
                    "leaf_pages": self.index.num_leaf_pages,
                    "probes": self.probes,
                },
                instrument=self.instrument,
            )
            for request in self.requests
        ]
