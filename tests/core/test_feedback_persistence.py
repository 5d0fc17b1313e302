"""Tests for feedback-store persistence and the CLI entry points."""

import json
from pathlib import Path

import pytest

from repro.common.errors import FeedbackError
from repro.core.feedback import FeedbackStore, table_of_key
from repro.optimizer import InjectionSet, JoinQuery, PlanHint
from repro.core.requests import (
    AccessPathRequest,
    JoinMethodRequest,
    Mechanism,
    PageCountObservation,
)
from repro.session import Session
from repro.sql import Comparison, Conjunction, InList, JoinEquality, conjunction_of


def observation(column, estimate, exact=True):
    return PageCountObservation(
        request=AccessPathRequest("t", conjunction_of(Comparison(column, "<", 9))),
        mechanism=Mechanism.EXACT_SCAN_COUNT if exact else Mechanism.DPSAMPLE,
        estimate=estimate,
        exact=exact,
    )


class TestPersistence:
    def make_store(self):
        store = FeedbackStore()
        store.record_observations(
            [observation("a", 12.0), observation("b", 7.5, exact=False)]
        )
        store.record_cardinality("CARD(t, a < 9)", 500.0)
        return store

    def test_json_roundtrip(self):
        store = self.make_store()
        clone = FeedbackStore.from_json(store.to_json())
        assert clone.keys() == store.keys()
        for key in store.keys():
            original, copied = store.record(key), clone.record(key)
            assert copied.page_count == original.page_count
            assert copied.page_count_exact == original.page_count_exact
            assert copied.cardinality == original.cardinality

    def test_file_roundtrip(self, tmp_path):
        store = self.make_store()
        path = tmp_path / "feedback.json"
        store.save(path)
        loaded = FeedbackStore.load(path)
        assert loaded.keys() == store.keys()

    def test_roundtrip_preserves_injections(self):
        store = self.make_store()
        clone = FeedbackStore.from_json(store.to_json())
        key = observation("a", 0).key
        assert (
            clone.to_injections()._page_counts[key]
            == store.to_injections()._page_counts[key]
        )

    def test_recency_survives_roundtrip(self):
        store = self.make_store()
        clone = FeedbackStore.from_json(store.to_json())
        # New feedback recorded after loading still beats the old record.
        clone.record_observations([observation("a", 99.0)])
        assert clone.record(observation("a", 0).key).page_count == 99.0

    def test_bad_json_rejected(self):
        with pytest.raises(FeedbackError):
            FeedbackStore.from_json("not json at all")

    def test_wrong_version_rejected(self):
        with pytest.raises(FeedbackError):
            FeedbackStore.from_json('{"version": 99}')

    def test_non_dict_payload_rejected(self):
        with pytest.raises(FeedbackError):
            FeedbackStore.from_json('[1, 2, 3]')

    def test_records_must_be_a_list(self):
        with pytest.raises(FeedbackError, match="must be a list"):
            FeedbackStore.from_json('{"version": 1, "records": {"key": "x"}}')

    def test_record_missing_key_rejected(self):
        with pytest.raises(FeedbackError, match="missing 'key'"):
            FeedbackStore.from_json(
                '{"version": 1, "records": [{"page_count": 4.0}]}'
            )

    def test_non_dict_record_rejected(self):
        with pytest.raises(FeedbackError, match="missing 'key'"):
            FeedbackStore.from_json('{"version": 1, "records": ["DPC(t, a)"]}')

    @pytest.mark.parametrize(
        "payload, match",
        [
            ('{"version": 1, "sequence": "x"}', "sequence"),
            ('{"version": 1, "sequence": -1}', "sequence"),
            ('{"version": 1, "sequence": 1.5}', "sequence"),
            ('{"version": 1, "records": [{"key": 7}]}', "key must be a string"),
            (
                '{"version": 1, "records": [{"key": "DPC(t, a)", '
                '"sequence": "x"}]}',
                r"DPC\(t, a\).*sequence",
            ),
            (
                '{"version": 1, "records": [{"key": "DPC(t, a)", '
                '"page_count": "many"}]}',
                r"DPC\(t, a\).*page_count",
            ),
            (
                '{"version": 1, "records": [{"key": "DPC(t, a)", '
                '"page_count": -5}]}',
                r"DPC\(t, a\).*page_count",
            ),
            (
                '{"version": 1, "records": [{"key": "DPC(t, a)", '
                '"page_count": NaN}]}',
                r"DPC\(t, a\).*page_count",
            ),
            (
                '{"version": 1, "records": [{"key": "DPC(t, a)", '
                '"page_count": true}]}',
                r"DPC\(t, a\).*page_count",
            ),
            (
                '{"version": 1, "records": [{"key": "CARD(t, a)", '
                '"cardinality": Infinity}]}',
                r"CARD\(t, a\).*cardinality",
            ),
            (
                '{"version": 1, "sequence": 2, "records": '
                '[{"key": "DPC(t, a)", "page_count": 4.0, "sequence": 3}]}',
                r"DPC\(t, a\).*exceeds",
            ),
            (
                '{"version": 1, "sequence": 2, "records": ['
                '{"key": "DPC(t, a)", "page_count": 4.0, "sequence": 1}, '
                '{"key": "DPC(t, a)", "page_count": 9.0, "sequence": 2}]}',
                r"DPC\(t, a\).*more than once",
            ),
            (
                '{"version": 1, "records": [{"key": "DPC(t, a)", '
                '"page_count": 4.0, "page_count_exact": "false"}]}',
                r"DPC\(t, a\).*page_count_exact",
            ),
            (
                '{"version": 1, "records": [{"key": "DPC(t, a)", '
                '"page_count": 4.0, "partial": "no"}]}',
                r"DPC\(t, a\).*partial",
            ),
            (
                '{"version": 1, "records": [{"key": "DPC(t, a)", '
                '"page_count": 4.0, "mechanism": 7}]}',
                r"DPC\(t, a\).*mechanism",
            ),
        ],
    )
    def test_corrupt_field_rejected_at_load(self, payload, match):
        """Nothing malformed survives to ``to_injections()`` or to
        ``merge_observation``'s recency comparison."""
        with pytest.raises(FeedbackError, match=match):
            FeedbackStore.from_json(payload)

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "feedback.json"
        path.write_text('{"version": 1, "records": [{}]}', encoding="utf-8")
        with pytest.raises(FeedbackError):
            FeedbackStore.load(path)


class TestJoinKeysNameTheOuterFilter:
    """The join key is ``DPC(inner, join-pred | outer filter)``; a store
    saved before the filter joined the key loads as it is, and its
    ``DPC(t, t1.c3 = t.c3)`` entries mean what they say: unfiltered outer."""

    FIXTURE = Path(__file__).parent / "fixtures" / "feedback_store_pr21.json"
    JOIN = JoinEquality("t1", "c3", "t", "c3")

    def test_pre_filter_store_loads_unchanged(self):
        text = self.FIXTURE.read_text(encoding="utf-8")
        store = FeedbackStore.from_json(text)
        assert json.loads(store.to_json()) == json.loads(text)
        assert store.keys() == [
            "DPC(t, c2 < 800)", "DPC(t, t1.c2 = t.c2)", "DPC(t, t1.c3 = t.c3)",
        ]
        assert store.table_epoch("t") == 3

    def test_old_join_entries_stop_steering_filtered_statements(self, join_db):
        store = FeedbackStore.load(self.FIXTURE)
        injections = store.to_injections()
        assert injections.join_page_count("t", self.JOIN, Conjunction()) == 45.0
        narrow = conjunction_of(Comparison("c1", "<", 200))
        assert injections.join_page_count("t", self.JOIN, narrow) is None
        query = JoinQuery(
            join_predicate=self.JOIN,
            predicates={"t1": narrow},
            count_column="t.padding",
        )
        with_store = Session(join_db, feedback=store).optimize(
            query, use_feedback=True, hint=PlanHint("inl_join")
        )
        without = Session(join_db).optimize(
            query, use_feedback=True, hint=PlanHint("inl_join")
        )
        assert with_store.render() == without.render()
        assert with_store.children()[0].dpc_source == "model"

    @pytest.mark.parametrize(
        "outer_filter",
        [
            Conjunction(),
            conjunction_of(Comparison("c1", "<", 200)),
            conjunction_of(InList("c1", (1, 2, 3)), Comparison("c4", ">=", 7)),
        ],
        ids=["unfiltered", "range", "in-list-with-commas-and-parentheses"],
    )
    def test_table_of_key_is_the_inner_table(self, outer_filter):
        request = JoinMethodRequest("t", self.JOIN, outer_filter)
        assert table_of_key(request.key()) == "t"
        store = FeedbackStore()
        store.record_observations(
            [
                PageCountObservation(
                    request=request, mechanism=Mechanism.LINEAR_COUNTING,
                    estimate=4.0,
                )
            ]
        )
        assert FeedbackStore.from_json(store.to_json()).table_epoch("t") == 1

    def test_two_spellings_of_one_filter_share_one_record(self):
        a, b = Comparison("c1", "<", 200), Comparison("c4", ">=", 7)
        store = FeedbackStore()
        for terms, estimate in (((a, b), 4.0), ((b, a), 6.0)):
            store.record_observations(
                [
                    PageCountObservation(
                        request=JoinMethodRequest("t", self.JOIN, Conjunction(terms)),
                        mechanism=Mechanism.LINEAR_COUNTING,
                        estimate=estimate,
                    )
                ]
            )
        assert store.keys() == ["DPC(t, t1.c3 = t.c3 | c1 < 200 AND c4 >= 7)"]
        injections = store.to_injections()
        assert injections.join_page_count("t", self.JOIN, Conjunction((b, a))) == 6.0


class TestLoweringOntoBase:
    def test_to_injections_layers_onto_non_empty_base(self):
        store = FeedbackStore()
        store.record_observations([observation("a", 12.0)])
        feedback_key = observation("a", 0).key

        base = InjectionSet()
        base.inject_page_count_by_key("DPC(t, base_only)", 3.0)
        base.inject_page_count_by_key(feedback_key, 999.0)

        merged = store.to_injections(base)
        # Mutates and returns the base set...
        assert merged is base
        # ...keeping base-only entries and letting feedback win conflicts.
        assert merged._page_counts["DPC(t, base_only)"] == 3.0
        assert merged._page_counts[feedback_key] == 12.0

    def test_base_mutation_does_not_poison_the_memo(self):
        store = FeedbackStore()
        store.record_observations([observation("a", 12.0)])
        base = InjectionSet()
        base.inject_page_count_by_key("DPC(t, base_only)", 3.0)
        store.to_injections(base)
        # A later bare lowering must not contain the base's entries.
        assert "DPC(t, base_only)" not in store.to_injections()._page_counts


class TestCli:
    def test_inventory_command(self, capsys):
        from repro.__main__ import main

        assert main(["inventory", "--scale", "0.05"]) == 0
        output = capsys.readouterr().out
        assert "TABLE I" in output and "synthetic" in output

    def test_explain_command(self, capsys):
        from repro.__main__ import main

        code = main(
            [
                "explain",
                "SELECT count(padding) FROM t WHERE c2 < 300",
                "--rows",
                "5000",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "SeqScan" in output and "IndexSeek" in output

    def test_figures_unknown_name(self, capsys):
        from repro.__main__ import main

        assert main(["figures", "fig99"]) == 2

    @pytest.mark.parametrize("command", ["serve", "loadgen"])
    def test_reopt_with_shards_is_refused_up_front(self, command):
        from repro.__main__ import main

        with pytest.raises(SystemExit, match="--reopt and --shards"):
            main([command, "--reopt", "--shards", "4"])

    def test_diagnose_command_with_feedback(self, capsys, tmp_path):
        from repro.__main__ import main

        path = tmp_path / "fb.json"
        code = main(
            [
                "diagnose",
                "SELECT count(padding) FROM t WHERE c2 < 300",
                "--rows",
                "8000",
                "--feedback",
                str(path),
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "distinct page counts" in output
        assert path.exists()
        assert len(FeedbackStore.load(path)) >= 1
