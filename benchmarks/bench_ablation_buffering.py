"""Ablation — buffering effects on the access-method decision (§II-A).

The paper measures with a cold cache "which ensures that effects due to
buffering are eliminated", and notes that optimizers "either consider the
buffer to be cold or compute the fraction cached as a function of the
number of distinct pages fetched" — accurate DPCs help either way.  This
bench quantifies what the cold-cache methodology removes: the same
seek-vs-scan pair measured cold and warm.  Each plan runs twice on one
:class:`~repro.storage.accounting.IOContext`: a fresh context is a cold
cache, and the second run finds the first run's pages resident.  The
context's counters carry on across both runs, so the warm run's cost is
what the second run added.

Warm, physical I/O vanishes and the relative economics shift sharply:
the index seek — whose cold cost is dominated by random page reads — wins
by a much larger factor than it does cold.  A buffer-aware optimizer
would therefore rank plans differently than a cold-cache one, which is
exactly why the paper separates buffering (pursued in [14], Ramamurthy &
DeWitt) from page-count estimation and measures cold: DPC is the right
parameter for the I/O-dominated regime.
"""

from benchmarks.conftest import run_once
from repro.core.planner import build_executable
from repro.exec import execute
from repro.harness.reporting import format_table
from repro.optimizer import Optimizer, PlanHint, SingleTableQuery
from repro.sql import Comparison, conjunction_of
from repro.workloads import build_synthetic_database


def test_ablation_buffering_effects(benchmark):
    def sweep():
        database = build_synthetic_database(num_rows=60_000, seed=43)
        predicate = conjunction_of(Comparison("c4", "<", 2_500))
        query = SingleTableQuery("t", predicate, "padding")
        plans = {
            "table scan": Optimizer(
                database, hint=PlanHint("table_scan")
            ).optimize(query),
            "index seek": Optimizer(
                database, hint=PlanHint("index_seek")
            ).optimize(query),
        }
        rows = []
        timings = {}
        for label, plan in plans.items():
            io = database.new_io_context()
            cold = execute(build_executable(plan, database).root, database, io=io)
            both = execute(build_executable(plan, database).root, database, io=io)
            cold_ms, cold_io = cold.runstats.elapsed_ms, cold.runstats.io_ms
            warm_ms = both.runstats.elapsed_ms - cold_ms
            warm_io = both.runstats.io_ms - cold_io
            timings[label] = (cold_ms, cold_io, warm_ms, warm_io)
            rows.append(
                [label, *(f"{ms:.1f}" for ms in (cold_ms, cold_io, warm_ms, warm_io))]
            )
        return rows, timings

    rows, timings = run_once(benchmark, sweep)
    print()
    print("ABLATION — cold vs. warm cache (c4 < 2500, 60k-row table)")
    print(
        format_table(
            ["plan", "cold total", "cold io", "warm total", "warm io"], rows
        )
    )
    scan_cold, scan_cold_io, scan_warm, scan_warm_io = timings["table scan"]
    seek_cold, seek_cold_io, seek_warm, seek_warm_io = timings["index seek"]
    # Warm runs do no physical I/O at all (table fits in the pool).
    assert scan_warm_io == 0.0 and seek_warm_io == 0.0
    # Cold, I/O dominates both plans and drives the decision the paper
    # studies.
    assert scan_cold_io > 0.4 * scan_cold
    assert seek_cold_io > 0.8 * seek_cold
    # Warm, the seek's advantage is far larger than cold — the ranking
    # regime changes, which is why buffering is measured out.
    cold_ratio = seek_cold / scan_cold
    warm_ratio = seek_warm / scan_warm
    assert warm_ratio < 0.5 * cold_ratio
