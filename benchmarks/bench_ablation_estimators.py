"""Ablation — probabilistic counting vs. sampling-based distinct estimation.

§III-A chooses linear counting over "distinct value estimators based on
sampling (e.g., [4])" for its accuracy guarantees, and defers "a thorough
empirical evaluation of probabilistic counting vs. distinct value
estimation using sampling" to future work.  This bench carries that
comparison out on real Index-Seek fetch streams across the correlation
spectrum: linear counting (observes every row, one hash each) vs. GEE and
AE over a reservoir sample of the same stream.
"""

from benchmarks.conftest import run_once
from repro.core.ae_estimator import AEEstimator, GEEEstimator, reservoir_sample
from repro.core.probabilistic import LinearCounter
from repro.harness.reporting import format_table
from repro.workloads import build_synthetic_database


def test_ablation_probabilistic_vs_sampling(benchmark):
    def sweep():
        database = build_synthetic_database(num_rows=100_000, seed=29)
        table = database.table("t")
        rows = []
        for column in ("c2", "c3", "c4", "c5"):
            index = table.index(f"ix_{column}")
            stream = [
                int(rid.page_id)
                for _k, rid, _p in index.seek_range(
                    database.new_io_context(), low=None, high=(8_000,)
                )
            ]
            truth = len(set(stream))
            counter = LinearCounter(table.num_pages)  # 1 bit/page
            for page in stream:
                counter.observe(page)
            sample = reservoir_sample(stream, 800, seed=3)  # 10% sample
            gee = GEEEstimator().estimate(sample, len(stream))
            ae = AEEstimator().estimate(sample, len(stream))
            rows.append(
                [
                    column,
                    truth,
                    f"{counter.estimate():.0f}",
                    f"{abs(counter.estimate() - truth) / truth:.1%}",
                    f"{gee:.0f}",
                    f"{abs(gee - truth) / truth:.1%}",
                    f"{ae:.0f}",
                    f"{abs(ae - truth) / truth:.1%}",
                ]
            )
        return rows

    rows = run_once(benchmark, sweep)
    print()
    print(
        "ABLATION — linear counting vs. sampling estimators on fetch streams "
        "(8k-row seeks, 10% reservoir)"
    )
    print(
        format_table(
            [
                "column",
                "true DPC",
                "linear",
                "err",
                "GEE",
                "err",
                "AE",
                "err",
            ],
            rows,
        )
    )
    # The paper's position: probabilistic counting is the safer choice.
    linear_errors = [float(r[3].rstrip("%")) for r in rows]
    gee_errors = [float(r[5].rstrip("%")) for r in rows]
    assert max(linear_errors) < 15.0
    # Sampling estimators are erratic on at least part of the spectrum.
    assert max(gee_errors) > max(linear_errors)
