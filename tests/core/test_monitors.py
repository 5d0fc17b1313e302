"""Tests for the scan/fetch monitor bundles (protocol + counting)."""

import pytest

from repro.common.errors import MonitorError
from repro.common.types import PageId
from repro.core.bitvector import BitVectorFilter
from repro.core.dpsample import BernoulliPageSampler
from repro.core.monitors import FetchMonitorBundle, ScanMonitorBundle
from repro.core.requests import AccessPathRequest, InstrumentFingerprint, Mechanism
from repro.sql import Comparison, conjunction_of
from repro.sql.evaluator import TermOutcome
from repro.storage.accounting import IOContext


def outcome(*truth) -> TermOutcome:
    evaluated = sum(1 for t in truth if t is not None)
    passed = all(t is True for t in truth if t is not None) and False not in truth
    return TermOutcome(passed=passed, truth=tuple(truth), evaluations=evaluated)


def request(expr="a < 1"):
    return AccessPathRequest("t", conjunction_of(Comparison("a", "<", 1)))


def linear_counting(bits: int) -> InstrumentFingerprint:
    """A fetch counter's fingerprint: it fixes the bitmap width and hash seed."""
    return InstrumentFingerprint(Mechanism.LINEAR_COUNTING, seed=0, bits=bits)


class TestScanBundleProtocol:
    def make(self, sampler=None):
        return ScanMonitorBundle("t", query_term_count=1, sampler=sampler)

    def test_double_start_page_rejected(self):
        bundle = self.make()
        bundle.add_expression_request(request(), (0,), exact=True)
        bundle.start_page(PageId(0))
        with pytest.raises(MonitorError):
            bundle.start_page(PageId(1))

    def test_observe_outside_page_rejected(self):
        bundle = self.make()
        with pytest.raises(MonitorError):
            bundle.observe_row(outcome(True), (1,), IOContext())

    def test_end_outside_page_rejected(self):
        bundle = self.make()
        with pytest.raises(MonitorError):
            bundle.end_page()

    def test_sampler_required_for_nonprefix(self):
        bundle = self.make(sampler=None)
        bundle.add_expression_request(request(), (0,), exact=False)
        with pytest.raises(MonitorError):
            bundle.start_page(PageId(0))


class TestExactCounting:
    def test_counts_pages_with_any_satisfying_row(self):
        io = IOContext()
        bundle = ScanMonitorBundle("t", 1)
        bundle.add_expression_request(request(), (0,), exact=True)
        # Page 0: one satisfying row among several.
        bundle.start_page(PageId(0))
        bundle.observe_row(outcome(False), (9,), io)
        bundle.observe_row(outcome(True), (0,), io)
        bundle.observe_row(outcome(False), (9,), io)
        bundle.end_page()
        # Page 1: no satisfying rows.
        bundle.start_page(PageId(1))
        bundle.observe_row(outcome(False), (9,), io)
        bundle.end_page()
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
        bundle.start_page(PageId(0))
        bundle.observe_row(outcome(True, False), (), io)
        bundle.end_page()
        observations = {o.key: o.estimate for o in bundle.finish()}
        assert observations[first.key()] == 1.0
        assert observations[second.key()] == 0.0

    def test_monitor_check_charged_per_row(self):
        io = IOContext()
        bundle = ScanMonitorBundle("t", 1)
        bundle.add_expression_request(request(), (0,), exact=True)
        bundle.start_page(PageId(0))
        for _ in range(10):
            bundle.observe_row(outcome(True), (), io)
        bundle.end_page()
        assert io.cpu_ms == pytest.approx(10 * io.params.cpu_monitor_check_ms)


class TestSampledCounting:
    def test_estimate_scales_by_fraction(self):
        sampler = BernoulliPageSampler(1.0)  # sample everything: exact path
        bundle = ScanMonitorBundle("t", 0, sampler=sampler)
        bundle.add_expression_request(request(), (0,), exact=False)
        io = IOContext()
        for page in range(4):
            bundle.start_page(PageId(page))
            bundle.observe_row(outcome(page % 2 == 0), (), io)
            bundle.end_page()
        (observation,) = bundle.finish()
        assert observation.mechanism is Mechanism.DPSAMPLE
        assert observation.estimate == 2.0
        assert observation.exact  # fraction 1.0

    def test_needs_full_evaluation_only_on_sampled_pages(self):
        sampler = BernoulliPageSampler(0.5, seed=3)
        bundle = ScanMonitorBundle("t", 0, sampler=sampler)
        bundle.add_expression_request(request(), (0,), exact=False)
        flags = []
        for page in range(100):
            bundle.start_page(PageId(page))
            flags.append(bundle.needs_full_evaluation())
            bundle.end_page()
        assert 20 < sum(flags) < 80  # only sampled pages


class TestPageFlagFeed:
    """The chunk feed: coins per page in page order, flags per page in."""

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
            by_page.start_page(PageId(page))
            full = by_page.needs_full_evaluation()
            by_page.observe_row(outcome(flag, flag if full else None), (), io_pages)
            by_page.observe_row(outcome(False, False if full else None), (), io_pages)
            by_page.end_page()
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
        bundle = self.mixed_bundle()
        bundle.sample_pages(PageId(0), 2)
        with pytest.raises(MonitorError):
            bundle.start_page(PageId(2))
        with pytest.raises(MonitorError):
            bundle.sample_pages(PageId(2), 2)
        other = self.mixed_bundle()
        other.start_page(PageId(0))
        with pytest.raises(MonitorError):
            other.sample_pages(PageId(1), 1)

    def test_bitvector_entries_need_verdicts(self):
        # Bit-vector entries ride the chunk feed like every other entry,
        # but a chunk that leaves their verdicts out is a protocol error.
        bundle = self.mixed_bundle()
        bitvector = BitVectorFilter(64)
        bundle.add_bitvector_request(request(), 0, bitvector)
        assert bundle.bitvector_probes() == [(0, bitvector)]
        sampled = bundle.sample_pages(PageId(0), 1)
        with pytest.raises(MonitorError):
            bundle.observe_pages([[True], [True]], sampled, 1, IOContext())


class TestBitVectorPageVerdicts:
    """Bit-vector entries on the chunk feed: ``(flags, probes, lookups)``."""

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
        pages = self.pages()
        io_pages, io_chunks = IOContext(), IOContext()
        by_page, page_filter = self.bundle()
        for page, values in enumerate(pages):
            by_page.start_page(PageId(page))
            for value in values:
                by_page.observe_row(outcome(), (value,), io_pages)
            by_page.end_page()
        by_chunk, chunk_filter = self.bundle()
        for first in range(0, 40, 16):
            chunk = pages[first : first + 16]
            sampled = by_chunk.sample_pages(PageId(first), len(chunk))
            verdicts = [self.verdict(values, chunk_filter) for values in chunk]
            by_chunk.observe_pages(
                [],
                sampled,
                self.ROWS_PER_PAGE * len(chunk),
                io_chunks,
                [tuple(map(list, zip(*verdicts)))],
            )
        assert 0 < by_chunk.sampler.pages_sampled < 40
        assert by_chunk.sampler.pages_sampled == by_page.sampler.pages_sampled
        assert [
            (o.key, o.mechanism, o.estimate, o.exact, o.details)
            for o in by_chunk.finish()
        ] == [
            (o.key, o.mechanism, o.estimate, o.exact, o.details)
            for o in by_page.finish()
        ]
        assert chunk_filter.probes == page_filter.probes > 0
        assert io_chunks.cpu_ms == pytest.approx(io_pages.cpu_ms)
        assert by_chunk.progress() == by_page.progress()

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
    def test_semijoin_page_counting(self):
        io = IOContext()
        sampler = BernoulliPageSampler(1.0)
        bundle = ScanMonitorBundle("t", 0, sampler=sampler)
        bitvector = BitVectorFilter(100)
        bitvector.insert(5)
        req = request()
        bundle.add_bitvector_request(req, column_position=0, filter=bitvector)
        # Page 0 contains a row with join value 5 -> counted.
        bundle.start_page(PageId(0))
        bundle.observe_row(outcome(), (5,), io)
        bundle.end_page()
        # Page 1 contains no matching join value.
        bundle.start_page(PageId(1))
        bundle.observe_row(outcome(), (6,), io)
        bundle.end_page()
        (observation,) = bundle.finish()
        assert observation.mechanism is Mechanism.BITVECTOR_DPSAMPLE
        assert observation.estimate == 1.0

    def test_null_join_values_skipped(self):
        sampler = BernoulliPageSampler(1.0)
        bundle = ScanMonitorBundle("t", 0, sampler=sampler)
        bitvector = BitVectorFilter(100)
        bitvector.insert(0)
        bundle.add_bitvector_request(request(), 0, bitvector)
        bundle.start_page(PageId(0))
        bundle.observe_row(outcome(), (None,), IOContext())
        bundle.end_page()
        (observation,) = bundle.finish()
        assert observation.estimate == 0.0

    def test_probe_stops_after_page_satisfied(self):
        io = IOContext()
        sampler = BernoulliPageSampler(1.0)
        bundle = ScanMonitorBundle("t", 0, sampler=sampler)
        bitvector = BitVectorFilter(100)
        bitvector.insert(1)
        bundle.add_bitvector_request(request(), 0, bitvector)
        bundle.start_page(PageId(0))
        for _ in range(10):
            bundle.observe_row(outcome(), (1,), io)
        bundle.end_page()
        assert bitvector.probes == 1  # first row satisfied the page


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
