"""Ablation — analytical model vs. clustering scalar vs. execution feedback.

§VI of the paper raises histograms of page counts as an alternative to
execution feedback and defers the comparison to future work.  This bench
runs it: for the Fig. 6 workload, how good are the plans chosen with

1. the stock analytical (Yao) model,
2. one clustering scalar per column (the §VI alternative to feedback:
   :func:`~repro.core.clustering.fit_scatter` over one exact offline
   prefix count at 5 % of the rows), its
   :func:`~repro.core.clustering.predict_dpc` at each statement's exact
   cardinality injected as the access page count, and
3. page counts measured by execution feedback (the paper's approach)?

The scalar closes the gap on *single-column range* predicates — at the
cost of an offline count per column, staleness under updates, and no
answer at all for join predicates or multi-term expressions, which is
the paper's structural argument for feedback.
"""

from benchmarks.conftest import run_once
from repro.core.clustering import fit_scatter, predict_dpc
from repro.core.dpc import exact_dpc
from repro.core.planner import build_executable
from repro.engine import Engine
from repro.exec import execute
from repro.harness.methodology import evaluate_query
from repro.harness.reporting import format_table, percent
from repro.optimizer import Optimizer
from repro.sql import Comparison, Conjunction
from repro.workloads import build_synthetic_database, single_table_workload


def test_ablation_dpc_sources(benchmark):
    def sweep():
        database = build_synthetic_database(num_rows=60_000, seed=37)
        engine = Engine(database)
        table = database.table("t")
        rows_per_page = table.num_rows / table.num_pages
        prefix_rows = int(0.05 * table.num_rows)
        scatter = {}
        for column in ("c2", "c3", "c4", "c5"):
            # The columns permute 0..N-1, so ``c < cut`` holds ``cut`` rows.
            prefix = Conjunction((Comparison(column, "<", prefix_rows),))
            sample = (prefix_rows, exact_dpc(table, prefix))
            scatter[column] = fit_scatter([sample], rows_per_page, table.num_pages)
        workload = single_table_workload(
            database,
            "t",
            ["c2", "c3", "c4", "c5"],
            queries_per_column=6,
            seed=37,
        )
        rows = []
        totals = {"model": 0.0, "scalar": 0.0, "feedback": 0.0}
        for generated in workload:
            injections = generated.injections()
            # (1) analytical model and (3) feedback, via the methodology.
            outcome = evaluate_query(engine, generated)
            model_time = outcome.time_original_ms
            feedback_time = outcome.time_improved_ms
            # (2) the scalar's prediction at the exact cardinality,
            # injected, no feedback.
            for _table, expression, exact_rows in generated.exact_cardinalities:
                estimate = predict_dpc(
                    scatter[generated.column],
                    exact_rows,
                    rows_per_page,
                    table.num_pages,
                )
                injections.inject_access_page_count("t", expression, estimate)
            scalar_plan = Optimizer(database, injections=injections).optimize(
                generated.query
            )
            build = build_executable(scalar_plan, database)
            scalar_time = execute(build.root, database).elapsed_ms
            totals["model"] += model_time
            totals["scalar"] += scalar_time
            totals["feedback"] += feedback_time
            rows.append(
                [
                    generated.label,
                    percent(generated.selectivity),
                    f"{model_time:.1f}",
                    f"{scalar_time:.1f}",
                    f"{feedback_time:.1f}",
                ]
            )
        return rows, totals

    rows, totals = run_once(benchmark, sweep)
    print()
    print("ABLATION — workload time (simulated ms) by DPC source")
    print(
        format_table(
            ["query", "sel", "analytical", "clustering scalar", "feedback"], rows
        )
    )
    print(
        f"totals: analytical {totals['model']:.0f}ms, "
        f"scalar {totals['scalar']:.0f}ms, "
        f"feedback {totals['feedback']:.0f}ms"
    )
    # Both informed sources beat the analytical model substantially...
    assert totals["scalar"] < 0.8 * totals["model"]
    assert totals["feedback"] < 0.8 * totals["model"]
    # ...and the offline scalar is competitive with feedback on this
    # single-column range workload (its home turf).
    assert totals["scalar"] < 1.15 * totals["feedback"]
