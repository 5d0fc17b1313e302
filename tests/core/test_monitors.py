"""Tests for the scan/fetch monitor bundles (protocol + counting)."""

import pytest

from repro.catalog import ColumnDef, Database, TableSchema
from repro.common.errors import MonitorError
from repro.common.types import PageId
from repro.core.bitvector import BitVectorFilter
from repro.core.dpsample import BernoulliPageSampler
from repro.core.monitors import FetchMonitorBundle, ScanMonitorBundle
from repro.core.requests import AccessPathRequest, InstrumentFingerprint, Mechanism
from repro.exec import SeqScan, execute
from repro.harness.equivalence import TallyIO
from repro.sql import Comparison, Conjunction, conjunction_of
from repro.sql.evaluator import TermOutcome
from repro.sql.types import SqlType
from repro.storage.accounting import IOContext

from tests.conftest import make_tiny_table


def outcome(*truth) -> TermOutcome:
    evaluated = sum(1 for t in truth if t is not None)
    passed = all(t is True for t in truth if t is not None) and False not in truth
    return TermOutcome(passed=passed, truth=tuple(truth), evaluations=evaluated)


def request(expr="a < 1"):
    return AccessPathRequest("t", conjunction_of(Comparison("a", "<", 1)))


def linear_counting(bits: int) -> InstrumentFingerprint:
    """A fetch counter's fingerprint: it fixes the bitmap width and hash seed."""
    return InstrumentFingerprint(Mechanism.LINEAR_COUNTING, seed=0, bits=bits)


def fold_page(bundle, page, flags, num_rows, io, probes=()):
    """One page through the per-page feed, the way the row oracle folds it:
    its coin, then one verdict per entry."""
    sampled = bundle.sample_pages(PageId(page), 1)
    bundle.observe_pages([[flag] for flag in flags], sampled, num_rows, io, probes)
    return sampled[0]


def join_table(join_values, rows_per_page_width=100):
    """A heap table ``(k, j, pad)`` whose join column ``j`` holds
    ``join_values`` in load order (64 rows per page)."""
    database = Database("bv", buffer_pool_pages=1_000)
    schema = TableSchema(
        "bv",
        [
            ColumnDef("k", SqlType.INT),
            ColumnDef("j", SqlType.INT),
            ColumnDef("pad", SqlType.STR, width_bytes=rows_per_page_width),
        ],
    )
    rows = [(k, value, "x") for k, value in enumerate(join_values)]
    return database, database.load_table(schema, rows)


def run_probe_scan(join_values, build_values):
    """The row oracle's scan of :func:`join_table` with one bit-vector
    request at DPSample fraction 1.0: ``(observation, filter, io)``."""
    database, table = join_table(join_values)
    bitvector = BitVectorFilter(100)
    for value in build_values:
        bitvector.insert(value)
    bundle = ScanMonitorBundle("bv", 0, sampler=BernoulliPageSampler(1.0))
    bundle.add_bitvector_request(request(), 1, bitvector)
    io = TallyIO()
    result = execute(
        SeqScan(table, Conjunction(), bundle=bundle), database, io=io, mode="row"
    )
    (observation,) = result.runstats.observations
    return observation, bitvector, io


class TestScanBundleProtocol:
    def make(self, sampler=None):
        return ScanMonitorBundle("t", query_term_count=1, sampler=sampler)

    def test_double_start_page_rejected(self):
        # A second sample_pages before observe_pages folded the first.
        bundle = self.make()
        bundle.add_expression_request(request(), (0,), exact=True)
        bundle.sample_pages(PageId(0), 1)
        with pytest.raises(MonitorError):
            bundle.sample_pages(PageId(1), 1)

    def test_observe_outside_page_rejected(self):
        bundle = self.make()
        bundle.add_expression_request(request(), (0,), exact=True)
        with pytest.raises(MonitorError):
            bundle.observe_pages([[True]], [False], 1, IOContext())

    def test_end_outside_page_rejected(self):
        # A page is folded once: a second observe_pages has no page open.
        bundle = self.make()
        bundle.add_expression_request(request(), (0,), exact=True)
        fold_page(bundle, 0, [True], 1, IOContext())
        with pytest.raises(MonitorError):
            bundle.observe_pages([[True]], [False], 1, IOContext())

    def test_sampler_required_for_nonprefix(self):
        bundle = self.make(sampler=None)
        bundle.add_expression_request(request(), (0,), exact=False)
        with pytest.raises(MonitorError):
            bundle.sample_pages(PageId(0), 1)


class TestExactCounting:
    def test_counts_pages_with_any_satisfying_row(self):
        io = IOContext()
        bundle = ScanMonitorBundle("t", 1)
        bundle.add_expression_request(request(), (0,), exact=True)
        # Page 0: one satisfying row among three; page 1: none of one.
        fold_page(bundle, 0, [True], 3, io)
        fold_page(bundle, 1, [False], 1, io)
        (observation,) = bundle.finish()
        assert observation.mechanism is Mechanism.EXACT_SCAN_COUNT
        assert observation.exact
        assert observation.estimate == 1.0

    def test_multiple_requests_independent(self):
        io = IOContext()
        bundle = ScanMonitorBundle("t", 2)
        first = AccessPathRequest("t", conjunction_of(Comparison("a", "<", 1)))
        second = AccessPathRequest("t", conjunction_of(Comparison("b", "<", 1)))
        bundle.add_expression_request(first, (0,), exact=True)
        bundle.add_expression_request(second, (1,), exact=True)
        fold_page(bundle, 0, [True, False], 1, io)
        observations = {o.key: o.estimate for o in bundle.finish()}
        assert observations[first.key()] == 1.0
        assert observations[second.key()] == 0.0

    def test_monitor_check_charged_per_row(self):
        io = IOContext()
        bundle = ScanMonitorBundle("t", 1)
        bundle.add_expression_request(request(), (0,), exact=True)
        fold_page(bundle, 0, [True], 10, io)
        assert io.cpu_ms == pytest.approx(10 * io.params.cpu_monitor_check_ms)


class TestSampledCounting:
    def test_estimate_scales_by_fraction(self):
        sampler = BernoulliPageSampler(1.0)  # sample everything: exact path
        bundle = ScanMonitorBundle("t", 0, sampler=sampler)
        bundle.add_expression_request(request(), (0,), exact=False)
        io = IOContext()
        for page in range(4):
            fold_page(bundle, page, [page % 2 == 0], 1, io)
        (observation,) = bundle.finish()
        assert observation.mechanism is Mechanism.DPSAMPLE
        assert observation.estimate == 2.0
        assert observation.exact  # fraction 1.0

    def test_needs_full_evaluation_only_on_sampled_pages(self):
        # The row oracle evaluates ``v < 0`` (false on every row, so the
        # short-circuit stops there) and, on sampled pages only, the
        # monitoring term ``k >= 0`` as well.
        database, table, rows = make_tiny_table(num_rows=64 * 100, seed=5)
        query = conjunction_of(Comparison("v", "<", 0))
        monitor = conjunction_of(Comparison("v", "<", 0), Comparison("k", ">=", 0))
        sampler = BernoulliPageSampler(0.5, seed=3)
        bundle = ScanMonitorBundle("tiny", 1, sampler=sampler)
        bundle.add_expression_request(request(), (1,), exact=False)
        assert bundle.evaluates_sampled_pages_in_full
        scan = SeqScan(table, query, bundle=bundle, monitor_conjunction=monitor)
        execute(scan, database, mode="row")
        assert table.num_pages == 100 and sampler.pages_seen == 100
        assert 20 < sampler.pages_sampled < 80  # only sampled pages
        assert scan.stats.predicate_evaluations == len(rows) + 64 * sampler.pages_sampled


class TestPageFlagFeed:
    """Coins per page in page order, flags per page in, whatever the chunk."""

    def mixed_bundle(self, fraction=0.5, seed=3):
        bundle = ScanMonitorBundle(
            "t", 1, sampler=BernoulliPageSampler(fraction, seed=seed)
        )
        bundle.add_expression_request(request(), (0,), exact=True)
        bundle.add_expression_request(request(), (1,), exact=False)
        return bundle

    def test_same_coins_and_counts_as_the_page_feed(self):
        flags = [page % 3 != 0 for page in range(40)]
        io_pages, io_chunks = IOContext(), IOContext()
        by_page = self.mixed_bundle()
        for page, flag in enumerate(flags):
            fold_page(by_page, page, [flag, flag], 2, io_pages)
        by_chunk = self.mixed_bundle()
        for first in range(0, 40, 16):  # chunks of 16, 16 and 8 pages
            chunk = flags[first : first + 16]
            sampled = by_chunk.sample_pages(PageId(first), len(chunk))
            by_chunk.observe_pages([chunk, chunk], sampled, 2 * len(chunk), io_chunks)
        assert by_chunk.sampler.pages_seen == by_page.sampler.pages_seen == 40
        assert by_chunk.sampler.pages_sampled == by_page.sampler.pages_sampled
        assert [
            (o.key, o.mechanism, o.estimate, o.exact, o.details)
            for o in by_chunk.finish()
        ] == [
            (o.key, o.mechanism, o.estimate, o.exact, o.details)
            for o in by_page.finish()
        ]
        assert io_chunks.cpu_ms == pytest.approx(io_pages.cpu_ms)
        assert by_chunk.progress() == by_page.progress()

    def test_exact_only_bundle_draws_no_coins(self):
        bundle = ScanMonitorBundle("t", 1)
        bundle.add_expression_request(request(), (0,), exact=True)
        assert bundle.sample_pages(PageId(0), 3) == [False, False, False]
        bundle.observe_pages([[True, False, True]], [False] * 3, 30, IOContext())
        (observation,) = bundle.finish()
        assert observation.estimate == 2.0 and observation.exact

    def test_sampler_required_for_nonprefix(self):
        bundle = ScanMonitorBundle("t", 1)
        bundle.add_expression_request(request(), (0,), exact=False)
        with pytest.raises(MonitorError):
            bundle.sample_pages(PageId(0), 2)

    def test_observe_without_sample_rejected(self):
        bundle = self.mixed_bundle()
        with pytest.raises(MonitorError):
            bundle.observe_pages([[True], [True]], [True], 1, IOContext())

    def test_page_count_mismatch_rejected(self):
        bundle = self.mixed_bundle()
        sampled = bundle.sample_pages(PageId(0), 2)
        with pytest.raises(MonitorError):
            bundle.observe_pages([[True], [True]], sampled[:1], 1, IOContext())
        with pytest.raises(MonitorError):
            bundle.observe_pages([[True, True], [True]], sampled, 1, IOContext())
        with pytest.raises(MonitorError):
            bundle.observe_pages([[True, True]], sampled, 1, IOContext())

    def test_feeds_do_not_interleave(self):
        # An open chunk refuses a one-page sample, an open page a chunk.
        bundle = self.mixed_bundle()
        bundle.sample_pages(PageId(0), 2)
        with pytest.raises(MonitorError):
            bundle.sample_pages(PageId(2), 1)
        other = self.mixed_bundle()
        other.sample_pages(PageId(0), 1)
        with pytest.raises(MonitorError):
            other.sample_pages(PageId(1), 2)

    def test_bitvector_entries_need_verdicts(self):
        # Bit-vector entries ride the page feed like every other entry,
        # but a chunk that leaves their verdicts out is a protocol error.
        bundle = self.mixed_bundle()
        bitvector = BitVectorFilter(64)
        bundle.add_bitvector_request(request(), 0, bitvector)
        assert bundle.bitvector_probes() == [(0, bitvector)]
        sampled = bundle.sample_pages(PageId(0), 1)
        with pytest.raises(MonitorError):
            bundle.observe_pages([[True], [True]], sampled, 1, IOContext())


class TestBitVectorPageVerdicts:
    """Bit-vector entries on the page feed: ``(flags, probes, lookups)``."""

    ROWS_PER_PAGE = 4

    def bundle(self, fraction=0.5, seed=3):
        bundle = ScanMonitorBundle(
            "t", 0, sampler=BernoulliPageSampler(fraction, seed=seed)
        )
        bitvector = BitVectorFilter(100)
        bitvector.insert_all([1, 2, 3])
        bundle.add_bitvector_request(request(), 0, bitvector)
        return bundle, bitvector

    def pages(self):
        """40 pages of 4 join values: hits early, late, never; NULLs probed."""
        pages = []
        for page in range(40):
            kind = page % 4
            if kind == 0:
                pages.append([9, 1, 9, 2])  # first hit on the second row
            elif kind == 1:
                pages.append([9, 9, 9, 3])  # first hit on the last row
            elif kind == 2:
                pages.append([None, 9, None, 9])  # no hit, two NULLs
            else:
                pages.append([None, None, None, None])  # all NULL
        return pages

    def verdict(self, values, bitvector):
        first = bitvector.first_hit(values)
        hit = first < len(values)
        probes = first + 1 if hit else len(values)
        return hit, probes, probes - values[:probes].count(None)

    def test_same_counts_charges_and_filter_probes_as_the_page_feed(self):
        # The reference probes one row at a time, as Fig. 5 describes:
        # every row of a sampled page until the first hit, one charge
        # each, and a filter lookup for each non-NULL value.
        pages = self.pages()
        io_rows, io_chunks = IOContext(), IOContext()
        sampler = BernoulliPageSampler(0.5, seed=3)
        _bundle, row_filter = self.bundle()
        satisfied = 0
        for page, values in enumerate(pages):
            if not sampler.sample_page(PageId(page)):
                continue
            for value in values:
                io_rows.charge_bitvector_probes(1)
                if value is not None and row_filter.may_contain(value):
                    satisfied += 1
                    break
        by_chunk, chunk_filter = self.bundle()
        for first in range(0, 40, 16):
            chunk = pages[first : first + 16]
            sampled = by_chunk.sample_pages(PageId(first), len(chunk))
            verdicts = [self.verdict(values, chunk_filter) for values in chunk]
            by_chunk.observe_pages(
                [],
                sampled,
                0,
                io_chunks,
                [tuple(map(list, zip(*verdicts)))],
            )
        assert 0 < by_chunk.sampler.pages_sampled < 40
        assert by_chunk.sampler.pages_sampled == sampler.pages_sampled
        (observation,) = by_chunk.finish()
        assert observation.details["satisfied_sampled_pages"] == satisfied > 0
        assert observation.estimate == satisfied / 0.5
        assert chunk_filter.probes == row_filter.probes > 0
        assert io_chunks.cpu_ms == pytest.approx(io_rows.cpu_ms)
        (progress,) = by_chunk.progress()
        assert progress.satisfied_pages == satisfied / 0.5

    def test_unsampled_pages_are_neither_counted_nor_charged(self):
        bundle, bitvector = self.bundle(fraction=0.5)
        io = IOContext()
        sampled = bundle.sample_pages(PageId(0), 8)
        assert True in sampled and False in sampled
        probes = [3 if keep else 1000 for keep in sampled]
        bundle.observe_pages([], sampled, 0, io, [([True] * 8, probes, probes)])
        kept = sum(sampled)
        (observation,) = bundle.finish()
        assert observation.details["satisfied_sampled_pages"] == kept
        assert bitvector.probes == 3 * kept
        assert io.cpu_ms == pytest.approx(
            3 * kept * io.params.cpu_bitvector_probe_ms
        )

    @pytest.mark.parametrize(
        "verdicts",
        [
            [],  # the entry's verdicts left out
            [([True, True], [1, 1], [1, 1])] * 2,  # one entry, two verdicts
            [([True], [1, 1], [1, 1])],  # flags for one page of two
            [([True, True], [1], [1, 1])],  # probes for one page of two
            [([True, True], [1, 1], [1])],  # lookups for one page of two
            [([True, True], [1, 1])],  # no lookups at all
        ],
    )
    def test_verdict_mismatches_rejected(self, verdicts):
        bundle, _bitvector = self.bundle()
        sampled = bundle.sample_pages(PageId(0), 2)
        with pytest.raises(MonitorError):
            bundle.observe_pages([], sampled, 8, IOContext(), verdicts)

    def test_verdicts_without_a_bitvector_entry_rejected(self):
        bundle = ScanMonitorBundle("t", 1)
        bundle.add_expression_request(request(), (0,), exact=True)
        sampled = bundle.sample_pages(PageId(0), 1)
        with pytest.raises(MonitorError):
            bundle.observe_pages(
                [[True]], sampled, 1, IOContext(), [([True], [1], [1])]
            )


class TestBitVectorEntries:
    """The row oracle's prober, through a real scan at fraction 1.0."""

    def test_semijoin_page_counting(self):
        # Page 0 holds a row with join value 5 -> counted; page 1 does not.
        observation, _bitvector, _io = run_probe_scan([6] * 63 + [5] + [6] * 64, [5])
        assert observation.mechanism is Mechanism.BITVECTOR_DPSAMPLE
        assert observation.estimate == 1.0

    def test_null_join_values_skipped(self):
        observation, bitvector, io = run_probe_scan([None] * 10, [0])
        assert observation.estimate == 0.0
        # Every NULL is probed and charged, none reaches the filter.
        assert io.units["charge_bitvector_probes"] == 10
        assert bitvector.probes == 0

    def test_probe_stops_after_page_satisfied(self):
        _observation, bitvector, io = run_probe_scan([1] * 10, [1])
        assert bitvector.probes == 1  # first row satisfied the page
        assert io.units["charge_bitvector_probes"] == 1


class TestFetchBundle:
    def test_counts_distinct_fetch_pages(self):
        io = IOContext()
        bundle = FetchMonitorBundle("t")
        req = request()
        bundle.add_request(req, (), linear_counting(512))
        for page in [0, 1, 0, 2, 1, 0]:
            bundle.observe_fetch(PageId(page), None, io)
        (observation,) = bundle.finish()
        assert observation.mechanism is Mechanism.LINEAR_COUNTING
        assert observation.estimate == pytest.approx(3.0, abs=1.0)
        assert observation.details["observations"] == 6
        assert observation.details["bitmap_bits"] == 512
        assert observation.instrument == linear_counting(512)

    def test_residual_terms_gate_observation(self):
        io = IOContext()
        bundle = FetchMonitorBundle("t")
        bundle.add_request(request(), (0,), linear_counting(512))
        bundle.observe_fetch(PageId(0), outcome(True), io)
        bundle.observe_fetch(PageId(1), outcome(False), io)
        bundle.observe_fetch(PageId(2), outcome(None), io)  # skipped term: no count
        (observation,) = bundle.finish()
        assert observation.estimate == pytest.approx(1.0, abs=0.6)

    def test_hash_charged_per_counted_fetch(self):
        io = IOContext()
        bundle = FetchMonitorBundle("t")
        bundle.add_request(request(), (), linear_counting(512))
        for page in range(5):
            bundle.observe_fetch(PageId(page), None, io)
        assert io.cpu_ms == pytest.approx(5 * io.params.cpu_hash_ms)

    def test_has_requests(self):
        bundle = FetchMonitorBundle("t")
        assert not bundle.has_requests
        bundle.add_request(request(), (), linear_counting(64))
        assert bundle.has_requests
