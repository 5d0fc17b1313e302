"""Rendering/serialisation coverage: every human-facing output path."""

from repro.core.requests import (
    AccessPathRequest,
    Mechanism,
    PageCountObservation,
)
from repro.exec.runstats import OperatorStats, RunStats
from repro.optimizer import Optimizer, PlanHint, SingleTableQuery
from repro.sql import Comparison, conjunction_of


class TestPlanRendering:
    def test_render_tree_indents_children(self, synthetic_db):
        query = SingleTableQuery(
            "t", conjunction_of(Comparison("c2", "<", 500)), "padding"
        )
        plan = Optimizer(synthetic_db).optimize(query)
        text = plan.render()
        lines = text.splitlines()
        assert lines[0].startswith("Count")
        assert lines[1].startswith("  ")  # child indented
        assert "cost≈" in lines[0]

    def test_signature_ignores_estimates(self, synthetic_db):
        from repro.optimizer import InjectionSet

        predicate = conjunction_of(Comparison("c2", "<", 500))
        query = SingleTableQuery("t", predicate, "padding")
        seek_hint = PlanHint("index_seek")
        plain = Optimizer(synthetic_db, hint=seek_hint).optimize(query)
        injections = InjectionSet()
        injections.inject_access_page_count("t", predicate, 3.0)
        injected = Optimizer(
            synthetic_db, injections=injections, hint=seek_hint
        ).optimize(query)
        assert plain.signature() == injected.signature()
        assert plain.describe() == injected.describe()  # CountPlan level
        assert plain.child.describe() != injected.child.describe()  # dpc differs

    def test_access_method_passthrough(self, synthetic_db):
        query = SingleTableQuery(
            "t", conjunction_of(Comparison("c2", "<", 500)), "padding"
        )
        plan = Optimizer(synthetic_db).optimize(query)
        assert plan.access_method() == plan.child.access_method()


class TestRunStatsRendering:
    def make_runstats(self, answered=True):
        root = OperatorStats(operator="SeqScan", detail="t", actual_rows=10)
        request = AccessPathRequest("t", conjunction_of(Comparison("a", "<", 1)))
        if answered:
            observation = PageCountObservation(
                request=request,
                mechanism=Mechanism.DPSAMPLE,
                estimate=12.5,
                exact=False,
            )
        else:
            observation = PageCountObservation.unanswerable(request, "nope")
        return RunStats(
            root=root,
            execution_mode="batch",
            elapsed_ms=3.5,
            io_ms=3.0,
            cpu_ms=0.5,
            random_reads=2,
            sequential_reads=5,
            observations=[observation],
        )

    def test_render_answered(self):
        text = self.make_runstats().render()
        assert "DPC(t, a < 1) = 12.5" in text
        assert "[est, dpsample]" in text

    def test_render_unanswerable(self):
        text = self.make_runstats(answered=False).render()
        assert "not available — nope" in text

    def test_to_dict_includes_page_counts(self):
        payload = self.make_runstats().to_dict()
        (entry,) = payload["page_counts"]
        assert entry["key"] == "DPC(t, a < 1)"
        assert entry["mechanism"] == "dpsample"

    def test_observation_for_missing_key(self):
        assert self.make_runstats().observation_for("nothing") is None

    def test_operator_stats_dict_trims_empty_fields(self):
        stats = OperatorStats(operator="X", actual_rows=1)
        payload = stats.to_dict()
        assert "pages_touched" not in payload
        assert "children" not in payload


class TestObservationRepr:
    def test_answered_repr(self):
        observation = PageCountObservation(
            request=AccessPathRequest("t", conjunction_of(Comparison("a", "<", 1))),
            mechanism=Mechanism.EXACT_SCAN_COUNT,
            estimate=4.0,
            exact=True,
        )
        assert "exact" in repr(observation)

    def test_unanswerable_repr(self):
        observation = PageCountObservation.unanswerable(
            AccessPathRequest("t", conjunction_of(Comparison("a", "<", 1))),
            "because",
        )
        assert "because" in repr(observation)


class TestExplainAndDiagnosticsText:
    def test_explain_orders_by_cost(self, synthetic_db):
        query = SingleTableQuery(
            "t", conjunction_of(Comparison("c2", "<", 500)), "padding"
        )
        text = Optimizer(synthetic_db).explain(query)
        first = text.index("#1")
        second = text.index("#2")
        assert first < second

    def test_diagnostic_report_render(self, synthetic_db):
        from repro.core.diagnostics import diagnose

        predicate = conjunction_of(Comparison("c2", "<", 500))
        query = SingleTableQuery("t", predicate, "padding")
        optimizer = Optimizer(synthetic_db)
        plan = optimizer.optimize(query)
        observation = PageCountObservation(
            request=AccessPathRequest("t", predicate),
            mechanism=Mechanism.EXACT_SCAN_COUNT,
            estimate=8.0,
            exact=True,
        )
        report = diagnose(
            query.describe(), plan, [observation], optimizer=optimizer, query=query
        )
        text = report.render()
        assert "<<<" in text  # flagged line marker
        assert "est" in text and "actual" in text
