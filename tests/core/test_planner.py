"""Tests for the monitor planner: which operator answers which request,
with which mechanism (the §II-B/§IV answerability rules)."""

import dataclasses

import pytest

from repro.core.dpc import exact_dpc, exact_join_dpc
from repro.core.planner import MonitorConfig, build_executable
from repro.core.requests import AccessPathRequest, JoinMethodRequest, Mechanism
from repro.exec import execute
from repro.optimizer import Optimizer, PlanHint, SingleTableQuery, JoinQuery
from repro.common.errors import MonitorError
from repro.sql import Comparison, JoinEquality, conjunction_of


def run_with_requests(
    database, query, requests, hint=None, config=None, mode="batch"
):
    plan = Optimizer(database, hint=hint).optimize(query)
    build = build_executable(plan, database, requests, config or MonitorConfig())
    result = execute(build.root, database, mode=mode)
    return plan, list(result.runstats.observations) + build.unanswerable


class TestConfig:
    def test_fraction_validation(self):
        with pytest.raises(MonitorError):
            MonitorConfig(dpsample_fraction=0.0)

    def test_defaults(self):
        config = MonitorConfig()
        assert 0 < config.dpsample_fraction <= 1.0
        assert config.seed == 0
        # The widths come from the tables, never from a knob.
        assert [f.name for f in dataclasses.fields(MonitorConfig)] == [
            "dpsample_fraction",
            "seed",
        ]


class TestScanInstrumentation:
    def test_prefix_request_exact(self, synthetic_db):
        predicate = conjunction_of(Comparison("c2", "<", 500))
        query = SingleTableQuery("t", predicate, "padding")
        _plan, observations = run_with_requests(
            synthetic_db,
            query,
            [AccessPathRequest("t", predicate)],
            hint=PlanHint("table_scan"),
        )
        (observation,) = observations
        assert observation.mechanism is Mechanism.EXACT_SCAN_COUNT
        assert observation.estimate == exact_dpc(
            synthetic_db.table("t"), predicate
        )

    def test_foreign_term_uses_dpsample(self, synthetic_db):
        query_predicate = conjunction_of(Comparison("c2", "<", 500))
        request_predicate = conjunction_of(Comparison("c5", "<", 500))
        query = SingleTableQuery("t", query_predicate, "padding")
        _plan, observations = run_with_requests(
            synthetic_db,
            query,
            [AccessPathRequest("t", request_predicate)],
            hint=PlanHint("table_scan"),
            config=MonitorConfig(dpsample_fraction=1.0),
        )
        (observation,) = observations
        assert observation.mechanism is Mechanism.DPSAMPLE
        # fraction 1.0 -> exact value even through the sampling path
        assert observation.estimate == exact_dpc(
            synthetic_db.table("t"), request_predicate
        )

    def test_unknown_column_fails_cleanly(self, synthetic_db):
        query = SingleTableQuery(
            "t", conjunction_of(Comparison("c2", "<", 500)), "padding"
        )
        bad = AccessPathRequest("t", conjunction_of(Comparison("zz", "<", 1)))
        _plan, observations = run_with_requests(
            synthetic_db, query, [bad], hint=PlanHint("table_scan")
        )
        (observation,) = observations
        assert not observation.answered
        assert "zz" in observation.reason

    def test_request_for_other_table_unanswerable(self, synthetic_db):
        query = SingleTableQuery(
            "t", conjunction_of(Comparison("c2", "<", 500)), "padding"
        )
        other = AccessPathRequest("ghost", conjunction_of(Comparison("c2", "<", 1)))
        _plan, observations = run_with_requests(
            synthetic_db, query, [other], hint=PlanHint("table_scan")
        )
        (observation,) = observations
        assert not observation.answered


class TestRangeScanInstrumentation:
    def test_request_must_include_range_term(self, synthetic_db):
        range_term = Comparison("c1", "<", 2000)
        query = SingleTableQuery(
            "t",
            conjunction_of(range_term, Comparison("c5", "<", 10_000)),
            "padding",
        )
        include = AccessPathRequest(
            "t", conjunction_of(range_term, Comparison("c5", "<", 10_000))
        )
        exclude = AccessPathRequest("t", conjunction_of(Comparison("c5", "<", 10_000)))
        _plan, observations = run_with_requests(
            synthetic_db,
            query,
            [include, exclude],
            hint=PlanHint("clustered_range"),
            config=MonitorConfig(dpsample_fraction=1.0),
        )
        by_key = {o.key: o for o in observations}
        good = by_key[include.key()]
        assert good.answered
        assert good.estimate == exact_dpc(
            synthetic_db.table("t"), include.expression
        )
        bad = by_key[exclude.key()]
        assert not bad.answered
        assert "range" in bad.reason


class TestIndexSeekInstrumentation:
    def test_full_plan_predicate_answerable(self, synthetic_db):
        seek_term = Comparison("c2", "<", 800)
        residual_term = Comparison("c5", "<", 15_000)
        predicate = conjunction_of(seek_term, residual_term)
        query = SingleTableQuery("t", predicate, "padding")
        request = AccessPathRequest("t", predicate)
        _plan, observations = run_with_requests(
            synthetic_db,
            query,
            [request],
            hint=PlanHint("index_seek", index_name="ix_c2"),
        )
        (observation,) = observations
        assert observation.answered
        assert observation.mechanism is Mechanism.LINEAR_COUNTING
        truth = exact_dpc(synthetic_db.table("t"), predicate)
        assert observation.estimate == pytest.approx(truth, rel=0.3, abs=2)

    def test_seek_term_alone_answerable(self, synthetic_db):
        seek_term = Comparison("c2", "<", 800)
        query = SingleTableQuery("t", conjunction_of(seek_term), "padding")
        request = AccessPathRequest("t", conjunction_of(seek_term))
        _plan, observations = run_with_requests(
            synthetic_db, query, [request],
            hint=PlanHint("index_seek", index_name="ix_c2"),
        )
        (observation,) = observations
        assert observation.answered

    def test_non_seek_expression_unanswerable(self, synthetic_db):
        """§II-B: from an Index Seek on shipdate you cannot get
        DPC(T, state='CA') — the plan never sees those pages."""
        seek_term = Comparison("c2", "<", 800)
        other = conjunction_of(Comparison("c5", "<", 500))
        query = SingleTableQuery("t", conjunction_of(seek_term), "padding")
        _plan, observations = run_with_requests(
            synthetic_db,
            query,
            [AccessPathRequest("t", other)],
            hint=PlanHint("index_seek", index_name="ix_c2"),
        )
        (observation,) = observations
        assert not observation.answered
        assert "seek" in observation.reason


class TestJoinInstrumentation:
    def make_join_query(self, column="c2", cut=1000):
        return JoinQuery(
            join_predicate=JoinEquality("t1", column, "t", column),
            predicates={"t1": conjunction_of(Comparison("c1", "<", cut))},
            count_column="t.padding",
        )

    def test_hash_join_probe_side_bitvector(self, join_db):
        query = self.make_join_query()
        request = JoinMethodRequest.for_query(query, "t")
        _plan, observations = run_with_requests(
            join_db, query, [request], hint=PlanHint("hash_join"),
            config=MonitorConfig(dpsample_fraction=1.0),
        )
        (observation,) = observations
        assert observation.answered
        assert observation.mechanism is Mechanism.BITVECTOR_DPSAMPLE
        truth = exact_join_dpc(
            join_db.table("t"),
            join_db.table("t1"),
            query.join_predicate,
            query.predicates["t1"],
        )
        # fraction 1.0 and domain-sized bit vector: exact.
        assert observation.estimate == truth

    def test_hash_join_build_side_unanswerable(self, join_db):
        query = self.make_join_query()
        request = JoinMethodRequest.for_query(query, "t1")
        _plan, observations = run_with_requests(
            join_db, query, [request], hint=PlanHint("hash_join")
        )
        (observation,) = observations
        assert not observation.answered
        assert "build" in observation.reason.lower() or "outer" in observation.reason.lower()

    def test_inl_join_linear_counting(self, join_db):
        query = self.make_join_query()
        request = JoinMethodRequest.for_query(query, "t")
        _plan, observations = run_with_requests(
            join_db, query, [request],
            hint=PlanHint("inl_join", inner_table="t"),
        )
        (observation,) = observations
        assert observation.answered
        assert observation.mechanism is Mechanism.LINEAR_COUNTING
        truth = exact_join_dpc(
            join_db.table("t"),
            join_db.table("t1"),
            query.join_predicate,
            query.predicates["t1"],
        )
        assert observation.estimate == pytest.approx(truth, rel=0.3, abs=3)

    def test_merge_join_sorted_inner_refused(self, join_db):
        """A Sort above the inner scan hides page ids from the bit-vector
        mechanism; the planner must refuse rather than mis-count."""
        query = self.make_join_query()
        request = JoinMethodRequest.for_query(query, "t")
        _plan, observations = run_with_requests(
            join_db, query, [request], hint=PlanHint("merge_join"),
            config=MonitorConfig(dpsample_fraction=1.0),
        )
        (observation,) = observations
        assert not observation.answered
        assert "Sort" in observation.reason or "sort" in observation.reason

    def test_merge_join_blocking_bitvector(self, join_db):
        """Outer needs a Sort (blocking: full vector before the inner is
        read); inner is clustered on its join column, so its scan keeps
        page-id visibility."""
        query = JoinQuery(
            join_predicate=JoinEquality("t1", "c2", "t", "c1"),
            predicates={"t1": conjunction_of(Comparison("c1", "<", 1000))},
            count_column="t.padding",
        )
        request = JoinMethodRequest.for_query(query, "t")
        plan, observations = run_with_requests(
            join_db, query, [request], hint=PlanHint("merge_join"),
            config=MonitorConfig(dpsample_fraction=1.0),
        )
        (observation,) = observations
        assert observation.answered
        assert observation.mechanism is Mechanism.BITVECTOR_DPSAMPLE
        truth = exact_join_dpc(
            join_db.table("t"),
            join_db.table("t1"),
            query.join_predicate,
            query.predicates["t1"],
        )
        assert observation.estimate == truth

    def test_merge_join_partial_bitvector(self, join_db):
        """Both sides clustered on the join column: no sorts, so the
        partial-filter variant of §IV applies."""
        query = JoinQuery(
            join_predicate=JoinEquality("t1", "c1", "t", "c1"),
            predicates={"t1": conjunction_of(Comparison("c1", "<", 1000))},
            count_column="t.padding",
        )
        request = JoinMethodRequest.for_query(query, "t")
        plan, observations = run_with_requests(
            join_db, query, [request], hint=PlanHint("merge_join"),
            config=MonitorConfig(dpsample_fraction=1.0),
        )
        (observation,) = observations
        assert observation.answered
        assert observation.mechanism is Mechanism.BITVECTOR_DPSAMPLE
        truth = exact_join_dpc(
            join_db.table("t"),
            join_db.table("t1"),
            query.join_predicate,
            query.predicates["t1"],
        )
        assert observation.estimate == truth

    def test_reversed_join_predicate_matches(self, join_db):
        query = self.make_join_query()
        request = JoinMethodRequest(
            "t", query.join_predicate.reversed(), query.predicates["t1"]
        )
        _plan, observations = run_with_requests(
            join_db, query, [request], hint=PlanHint("hash_join"),
            config=MonitorConfig(dpsample_fraction=1.0),
        )
        (observation,) = observations
        assert observation.answered


class TestJoinRequestOuterFilter:
    """A join monitor counts the inner pages the *filtered* outer drives:
    it answers the request filed under that filter and no other."""

    #: (hint, join columns (outer, inner), expected mechanism) for linear
    #: counting under INL and bit-vector + DPSample under hash and merge.
    MECHANISMS = [
        pytest.param(
            PlanHint("inl_join", inner_table="t"), ("c2", "c2"),
            Mechanism.LINEAR_COUNTING, id="inl",
        ),
        pytest.param(
            PlanHint("hash_join"), ("c2", "c2"),
            Mechanism.BITVECTOR_DPSAMPLE, id="hash",
        ),
        pytest.param(
            PlanHint("merge_join"), ("c2", "c1"),
            Mechanism.BITVECTOR_DPSAMPLE, id="merge",
        ),
    ]

    @pytest.mark.parametrize("mode", ["row", "batch"])
    @pytest.mark.parametrize("hint, columns, mechanism", MECHANISMS)
    def test_only_the_measured_filter_is_answered(
        self, join_db, hint, columns, mechanism, mode
    ):
        measured = conjunction_of(Comparison("c1", "<", 1000))
        query = JoinQuery(
            join_predicate=JoinEquality("t1", columns[0], "t", columns[1]),
            predicates={"t1": measured},
            count_column="t.padding",
        )
        matching = JoinMethodRequest.for_query(query, "t")
        others = [
            JoinMethodRequest("t", query.join_predicate),
            JoinMethodRequest(
                "t", query.join_predicate, conjunction_of(Comparison("c1", "<", 200))
            ),
        ]
        _plan, observations = run_with_requests(
            join_db, query, [others[0], matching, others[1]], hint=hint,
            config=MonitorConfig(dpsample_fraction=1.0), mode=mode,
        )
        by_key = {}
        for observation in observations:
            by_key.setdefault(observation.key, []).append(observation)
        assert len(observations) == 3 and len(by_key) == 3
        (answer,) = by_key[matching.key()]  # claimed exactly once
        assert answer.answered and answer.mechanism is mechanism
        for other in others:
            (refused,) = by_key[other.key()]
            assert not refused.answered and refused.estimate is None
            assert measured.key() in refused.reason
            assert other.outer_filter.key() in refused.reason

    def test_two_spellings_of_one_filter_are_one_request(self, join_db):
        first = Comparison("c1", "<", 1000)
        second = Comparison("c3", ">=", 0)
        query = JoinQuery(
            join_predicate=JoinEquality("t1", "c2", "t", "c2"),
            predicates={"t1": conjunction_of(first, second)},
            count_column="t.padding",
        )
        request = JoinMethodRequest(
            "t", query.join_predicate, conjunction_of(second, first)
        )
        assert request == JoinMethodRequest.for_query(query, "t")
        assert request.key() == "DPC(t, t1.c2 = t.c2 | c1 < 1000 AND c3 >= 0)"
        _plan, (observation,) = run_with_requests(
            join_db, query, [request], hint=PlanHint("hash_join")
        )
        assert observation.answered and observation.key == request.key()
