"""Ablation — feedback convergence over a query stream (§II-C).

The paper argues that page counts gathered once can be "reused for
similar queries" through a LEO-style store.  This bench streams a
workload of recurring query templates through a :class:`Session` that
monitors every execution and remembers the observations, and tracks the
workload's running cost.  The learning curve should drop as the store
covers the templates: early executions pay the misestimated plan, later
ones get the corrected plan for free (no re-monitoring needed).

One clustering scalar fitted to the same stream's records then answers
*unseen* ranges on the learned column — the generalisation step the
paper sketches for "histograms on page counts", with one number per
column instead of per-bucket state.
"""

from benchmarks.conftest import run_once
from repro.core.clustering import fit_scatter, predict_dpc
from repro.core.dpc import exact_dpc
from repro.core.requests import AccessPathRequest
from repro.harness.reporting import format_table
from repro.optimizer import SingleTableQuery
from repro.session import Session
from repro.sql import Comparison, conjunction_of
from repro.workloads import build_synthetic_database


def test_ablation_feedback_convergence(benchmark):
    def sweep():
        database = build_synthetic_database(num_rows=60_000, seed=41)
        session = Session(database)
        # Six recurring templates on the correlated columns, visited in
        # three rounds (18 executions).
        cuts = [400, 900, 1_500, 2_400, 3_600, 5_000]
        templates = [
            SingleTableQuery(
                "t", conjunction_of(Comparison("c2", "<", cut)), "padding"
            )
            for cut in cuts
        ]
        rounds = []
        for round_index in range(3):
            round_time = 0.0
            for query in templates:
                request = AccessPathRequest("t", query.predicate)
                executed = session.run(
                    query, requests=[request], use_feedback=True
                )
                session.remember(executed)
                round_time += executed.elapsed_ms
            rounds.append(round_time)

        # Generalisation: fit the scalar to the store's records and probe
        # unseen ranges.  c2 permutes 0..N-1, so ``c2 < cut`` holds ``cut``
        # rows.
        table = database.table("t")
        rows_per_page = table.num_rows / table.num_pages
        samples = []
        for key in session.feedback.keys():
            # keys look like "DPC(t, c2 < 400)"
            cut = int(key.rsplit("<", 1)[1].rstrip(") "))
            samples.append((cut, session.feedback.record(key).page_count))
        scatter = fit_scatter(samples, rows_per_page, table.num_pages)
        unseen = []
        for cut in (700, 2_000, 4_200):
            predicate = conjunction_of(Comparison("c2", "<", cut))
            predicted = predict_dpc(scatter, cut, rows_per_page, table.num_pages)
            truth = exact_dpc(table, predicate)
            unseen.append([f"c2 < {cut}", f"{predicted:.0f}", truth])
        return rounds, unseen

    rounds, unseen = run_once(benchmark, sweep)
    print()
    print("ABLATION — feedback convergence over a recurring workload")
    print(
        format_table(
            ["round", "workload time (simulated ms)"],
            [[i + 1, f"{t:.1f}"] for i, t in enumerate(rounds)],
        )
    )
    print("\nclustering scalar on unseen ranges:")
    print(format_table(["unseen predicate", "predicted", "true DPC"], unseen))

    # Round 1 pays the misestimated plans at least once; rounds 2+ run the
    # corrected plans throughout and converge.
    assert rounds[1] < rounds[0] * 0.8
    assert abs(rounds[2] - rounds[1]) < 0.05 * rounds[1]
    # Generalisation is in the right ballpark (fitted feedback).
    for _label, predicted, truth in unseen:
        assert float(predicted) <= 3 * truth + 10
