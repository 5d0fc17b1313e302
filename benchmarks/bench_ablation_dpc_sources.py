"""Ablation — analytical model vs. DPC histogram vs. execution feedback.

§VI of the paper raises histograms of page counts as an alternative to
execution feedback and defers the comparison to future work.  This bench
runs it: for the Fig. 6 workload, how good are the plans chosen with

1. the stock analytical (Yao) model,
2. a per-column :class:`~repro.optimizer.DPCHistogram` built by an
   offline full scan (§VI alternative, non-additivity handled), its
   estimates injected as access page counts, and
3. page counts measured by execution feedback (the paper's approach)?

The histogram closes most of the gap on *single-column range* predicates
— at the cost of an offline scan per column, staleness under updates, and
no answer at all for join predicates or multi-term expressions, which is
the paper's structural argument for feedback.
"""

from benchmarks.conftest import run_once
from repro.core.planner import build_executable
from repro.engine import Engine
from repro.exec import execute
from repro.harness.methodology import evaluate_query
from repro.harness.reporting import format_table, percent
from repro.optimizer import DPCHistogram, Optimizer
from repro.sql import Conjunction
from repro.workloads import build_synthetic_database, single_table_workload


def test_ablation_dpc_sources(benchmark):
    def sweep():
        database = build_synthetic_database(num_rows=60_000, seed=37)
        engine = Engine(database)
        table = database.table("t")
        histograms = {
            column: DPCHistogram.build(table, column, num_buckets=32)
            for column in ("c2", "c3", "c4", "c5")
        }
        workload = single_table_workload(
            database,
            "t",
            ["c2", "c3", "c4", "c5"],
            queries_per_column=6,
            seed=37,
        )
        rows = []
        totals = {"model": 0.0, "dpc-histogram": 0.0, "feedback": 0.0}
        for generated in workload:
            injections = generated.injections()
            # (1) analytical model and (3) feedback, via the methodology.
            outcome = evaluate_query(engine, generated)
            model_time = outcome.time_original_ms
            feedback_time = outcome.time_improved_ms
            # (2) the histogram's estimate per single-term expression,
            # injected, no feedback.
            for term in generated.query.predicate.terms:
                expression = Conjunction((term,))
                estimate = histograms[term.column].estimate(expression)
                if estimate is not None:
                    injections.inject_access_page_count("t", expression, estimate)
            histogram_plan = Optimizer(database, injections=injections).optimize(
                generated.query
            )
            build = build_executable(histogram_plan, database)
            histogram_time = execute(build.root, database).elapsed_ms
            totals["model"] += model_time
            totals["dpc-histogram"] += histogram_time
            totals["feedback"] += feedback_time
            rows.append(
                [
                    generated.label,
                    percent(generated.selectivity),
                    f"{model_time:.1f}",
                    f"{histogram_time:.1f}",
                    f"{feedback_time:.1f}",
                ]
            )
        return rows, totals

    rows, totals = run_once(benchmark, sweep)
    print()
    print("ABLATION — workload time (simulated ms) by DPC source")
    print(
        format_table(
            ["query", "sel", "analytical", "DPC histogram", "feedback"], rows
        )
    )
    print(
        f"totals: analytical {totals['model']:.0f}ms, "
        f"histogram {totals['dpc-histogram']:.0f}ms, "
        f"feedback {totals['feedback']:.0f}ms"
    )
    # Both informed sources beat the analytical model substantially...
    assert totals["dpc-histogram"] < 0.8 * totals["model"]
    assert totals["feedback"] < 0.8 * totals["model"]
    # ...and the offline histogram is competitive with feedback on this
    # single-column range workload (its home turf).
    assert totals["dpc-histogram"] < 1.15 * totals["feedback"]
