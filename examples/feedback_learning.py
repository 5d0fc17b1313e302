"""Feedback reuse: learning page counts across queries (LEO-style, §II-C).

The paper proposes storing ``(expression, cardinality, distinct page
count)`` feedback so *future* queries benefit, and sketches generalising
it with **histograms of page counts**.  This example shows both:

1. a :class:`~repro.core.FeedbackStore` fills up as a workload runs with
   monitoring on, and later queries with the *same* expressions get better
   plans without re-monitoring;
2. one clustering scalar per column
   (:func:`~repro.core.clustering.fit_scatter`, fitted to the monitored
   page counts) generalises feedback to *unseen* range predicates on the
   same column.

Run:  python examples/feedback_learning.py
"""

from repro import AccessPathRequest, Comparison, Session, SingleTableQuery, conjunction_of
from repro.core.clustering import fit_scatter, predict_dpc
from repro.core.dpc import exact_dpc
from repro.workloads import build_synthetic_database


def main() -> None:
    database = build_synthetic_database(num_rows=50_000, seed=9)
    table = database.table("t")
    session = Session(database)
    print(f"{table}\n")

    # ------------------------------------------------------------------
    # Part 1: the feedback store turns one monitored run into better
    # plans for every later occurrence of the expression.
    # ------------------------------------------------------------------
    predicate = conjunction_of(Comparison("c2", "<", 2_000))
    query = SingleTableQuery("t", predicate, count_column="padding")

    monitored = session.run(query, requests=[AccessPathRequest("t", predicate)])
    stored = session.remember(monitored)
    print(f"monitored run: plan={monitored.plan.access_method()}, "
          f"time={monitored.elapsed_ms:.1f}ms, stored {stored} observation(s)")
    print(f"feedback store: {session.feedback}")

    relearned = session.run(query, use_feedback=True)
    speedup = (monitored.elapsed_ms - relearned.elapsed_ms) / monitored.elapsed_ms
    print(f"later run (feedback on): plan={relearned.plan.access_method()}, "
          f"time={relearned.elapsed_ms:.1f}ms  -> SpeedUp {speedup:.0%}\n")

    # ------------------------------------------------------------------
    # Part 2: one clustering scalar — generalising to nearby ranges.
    # ------------------------------------------------------------------
    print("--- clustering scalar on t.c4 ---")
    rows_per_page = table.num_rows / table.num_pages

    # Fit to a few monitored ranges (c4 permutes 0..N-1, so c4 < cut
    # holds cut rows)...
    training_cuts = [5_000, 15_000, 28_000, 40_000, 50_000]
    samples = []
    for cut in training_cuts:
        trained = conjunction_of(Comparison("c4", "<", cut))
        run = session.run(
            SingleTableQuery("t", trained, count_column="padding"),
            requests=[AccessPathRequest("t", trained)],
        )
        samples.append((cut, run.observations[0].estimate))
    scatter = fit_scatter(samples, rows_per_page, table.num_pages)
    print(f"fitted to {len(training_cuts)} ranges; scatter z = {scatter:.4f}")

    # ...then predict unseen ranges and compare against ground truth.
    print(f"{'unseen predicate':<18} {'scalar':>10} {'true DPC':>9}")
    for cut in (2_500, 10_000, 22_000, 35_000, 45_000):
        unseen = conjunction_of(Comparison("c4", "<", cut))
        predicted = predict_dpc(scatter, cut, rows_per_page, table.num_pages)
        truth = exact_dpc(table, unseen)
        assert predicted <= 3 * truth + 10, (cut, predicted, truth)
        print(f"c4 < {cut:<12} {predicted:>10.0f} {truth:>9}")
    print("\n(scalar estimates come purely from feedback — no data access)")


if __name__ == "__main__":
    main()
