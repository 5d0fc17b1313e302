"""Canonicalize stage: stable cache identities and touched-table sets."""

from __future__ import annotations

from repro.lifecycle.plan import (
    cache_key,
    canonicalize,
    hint_fingerprint,
)
from repro.optimizer import InjectionSet, JoinQuery, PlanHint, SingleTableQuery
from repro.sql import Comparison, JoinEquality, conjunction_of


def single(column: str = "c2", cut: int = 300) -> SingleTableQuery:
    return SingleTableQuery(
        "t", conjunction_of(Comparison(column, "<", cut)), "padding"
    )


class TestCanonicalize:
    def test_single_table_key_and_tables(self):
        canonical = canonicalize(single())
        assert canonical.tables == ("t",)
        assert "c2 < 300" in canonical.key

    def test_same_query_same_key(self):
        assert canonicalize(single()).key == canonicalize(single()).key

    def test_different_cut_different_key(self):
        assert canonicalize(single(cut=300)).key != canonicalize(single(cut=301)).key

    def test_join_key_is_predicate_order_insensitive(self):
        """The predicates dict's insertion order never reaches the join
        enumerator, so it must not split one logical query across cache
        entries."""
        join = JoinEquality("t", "c1", "t1", "c1")
        pred_t = conjunction_of(Comparison("c2", "<", 500))
        pred_t1 = conjunction_of(Comparison("c3", "<", 400))
        forward = JoinQuery(join, {"t": pred_t, "t1": pred_t1}, "t.padding")
        backward = JoinQuery(join, {"t1": pred_t1, "t": pred_t}, "t.padding")
        assert canonicalize(forward).key == canonicalize(backward).key
        assert canonicalize(forward).tables == ("t", "t1")

    def test_single_table_conjunct_order_is_preserved(self):
        """Conjunct order flows into residual-predicate order, so two
        spellings are distinct optimization problems (bit-identical plans
        require it)."""
        first = SingleTableQuery(
            "t",
            conjunction_of(
                Comparison("c2", "<", 300), Comparison("c3", "<", 400)
            ),
            "padding",
        )
        second = SingleTableQuery(
            "t",
            conjunction_of(
                Comparison("c3", "<", 400), Comparison("c2", "<", 300)
            ),
            "padding",
        )
        assert canonicalize(first).key != canonicalize(second).key


class TestCacheKey:
    def test_mode_separates_feedback_from_plain(self):
        canonical = canonicalize(single())
        injections = InjectionSet()
        plain = cache_key(canonical, injections, None, use_feedback=False)
        feedback = cache_key(canonical, injections, None, use_feedback=True)
        assert plain != feedback
        assert plain.mode == "plain" and feedback.mode == "feedback"

    def test_injections_change_the_key(self):
        """The session's base set is the only injection input to the key;
        the feedback store is versioned per table by the freshness vector
        (``tests/lifecycle/test_staleness.py``)."""
        canonical = canonicalize(single())
        empty = InjectionSet()
        loaded = InjectionSet()
        loaded.inject_access_page_count(
            "t", conjunction_of(Comparison("c2", "<", 300)), 42.0
        )
        assert cache_key(canonical, empty, None, False) != cache_key(
            canonical, loaded, None, False
        )

    def test_hint_changes_the_key(self):
        canonical = canonicalize(single())
        injections = InjectionSet()
        bare = cache_key(canonical, injections, None, False)
        hinted = cache_key(
            canonical, injections, PlanHint(kind="table_scan"), False
        )
        assert bare != hinted

    def test_hint_fingerprint_none_is_empty(self):
        assert hint_fingerprint(None) == ""
        assert hint_fingerprint(PlanHint(kind="table_scan")) != ""


class TestInjectionFingerprint:
    def test_order_insensitive(self):
        first, second = InjectionSet(), InjectionSet()
        first.inject_page_count_by_key("DPC(t, a < 1)", 5.0)
        first.inject_page_count_by_key("DPC(t, b < 2)", 9.0)
        second.inject_page_count_by_key("DPC(t, b < 2)", 9.0)
        second.inject_page_count_by_key("DPC(t, a < 1)", 5.0)
        assert first.fingerprint() == second.fingerprint()

    def test_value_sensitive(self):
        first, second = InjectionSet(), InjectionSet()
        first.inject_page_count_by_key("DPC(t, a < 1)", 5.0)
        second.inject_page_count_by_key("DPC(t, a < 1)", 6.0)
        assert first.fingerprint() != second.fingerprint()
