"""Evaluation harness: the paper's methodology and per-figure drivers."""

from repro.harness.equivalence import (
    EquivalenceReport,
    QueryEquivalence,
    compare_query,
    compare_sharded_query,
    compare_sharded_workload,
    compare_workload,
)
from repro.harness.figures import (
    ClusteringFigureResult,
    JoinFigureResult,
    PageSamplingResult,
    RealWorldFigureResult,
    SingleTableFiguresResult,
    TableOneResult,
    run_fig10,
    run_fig11,
    run_fig6_fig7,
    run_fig8,
    run_fig9,
    run_table1,
)
from repro.harness.methodology import (
    EvaluationOutcome,
    default_requests,
    evaluate_query,
    evaluate_workload,
)
from repro.harness.reopt_ab import (
    ReoptABOutcome,
    ReoptABReport,
    evaluate_reopt_query,
    evaluate_reopt_workload,
    run_reopt_ab,
)
from repro.harness.reporting import format_table, percent, summarize

__all__ = [
    "ClusteringFigureResult",
    "EquivalenceReport",
    "EvaluationOutcome",
    "QueryEquivalence",
    "compare_query",
    "compare_sharded_query",
    "compare_sharded_workload",
    "compare_workload",
    "JoinFigureResult",
    "PageSamplingResult",
    "RealWorldFigureResult",
    "ReoptABOutcome",
    "ReoptABReport",
    "SingleTableFiguresResult",
    "TableOneResult",
    "default_requests",
    "evaluate_query",
    "evaluate_reopt_query",
    "evaluate_reopt_workload",
    "run_reopt_ab",
    "evaluate_workload",
    "format_table",
    "percent",
    "run_fig10",
    "run_fig11",
    "run_fig6_fig7",
    "run_fig8",
    "run_fig9",
    "run_table1",
    "summarize",
]
