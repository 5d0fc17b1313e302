"""Quickstart: detect and fix a page-count estimation error.

Builds the paper's synthetic table T(C1..C5, padding) — C2 is fully
correlated with the physical clustering, C5 is not — and walks through the
whole loop on one query:

1. optimize a query with the stock (analytical) page-count model;
2. execute the chosen plan with page-count monitoring attached;
3. compare the optimizer's estimated DPC with the monitored actual;
4. inject the actual, re-optimize, and measure the speedup.

Run:  python examples/quickstart.py [--exec-mode {row,batch}] [--shards N]

The default drive is the page-at-a-time batch engine (compiled predicate
kernels; count scans read multi-page column chunks); ``--exec-mode row``
drives the same plans through the row-at-a-time reference oracle — every
printed number is identical, the walk just takes longer.  ``--shards 4``
runs the same loop over
a scatter-gather deployment: the table range-partitions across 4 shard
engines, the monitored DPC actual arrives as the *sum* of disjoint
per-shard page counts (still exact — same printed value), and the
feedback harvest merges atomically through the shard coordinator.
"""

import argparse

from repro import (
    AccessPathRequest,
    Comparison,
    Session,
    SingleTableQuery,
    conjunction_of,
)
from repro.core.dpc import exact_dpc
from repro.exec.executor import DEFAULT_EXEC_MODE, EXEC_MODES
from repro.optimizer import Optimizer
from repro.workloads import build_synthetic_database


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--exec-mode",
        choices=EXEC_MODES,
        default=DEFAULT_EXEC_MODE,
        help="page-at-a-time batches (default) or the row-at-a-time "
        "reference oracle",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help="run the loop over an N-shard scatter-gather deployment",
    )
    args = parser.parse_args()

    print("Building synthetic database (50k rows, correlation spectrum C2..C5)...")
    database = build_synthetic_database(num_rows=50_000, seed=42)
    table = database.table("t")
    print(f"  {table}\n")

    # A 3% selectivity predicate on C2 — the column whose values are fully
    # correlated with the table's clustering key C1.
    predicate = conjunction_of(Comparison("c2", "<", 1_500))
    query = SingleTableQuery(table="t", predicate=predicate, count_column="padding")

    coordinator = None
    if args.shards > 1:
        from repro.shard import ShardCoordinator

        print(f"Partitioning across {args.shards} range shards...\n")
        coordinator = ShardCoordinator(database, num_shards=args.shards)
        session = coordinator.session()
    else:
        session = Session(database)

    def run(requests=(), use_feedback=False, remember=False):
        """One execution — direct, or scatter-gathered when sharded."""
        if coordinator is None:
            return session.run(
                query,
                requests=list(requests),
                use_feedback=use_feedback,
                exec_mode=args.exec_mode,
            )
        from repro.engine import WorkloadItem

        return coordinator.execute(
            WorkloadItem(
                query=query,
                requests=tuple(requests),
                exec_mode=args.exec_mode,
                use_feedback=use_feedback,
                remember=remember,
            ),
            session=session,
        )

    print(f"Query: {query.describe()}")
    print(f"True DPC(t, {predicate.key()}) = {exact_dpc(table, predicate)} "
          f"of {table.num_pages} pages\n")

    # --- 1+2: optimize with the analytical model, run with monitoring ----
    # (the sharded run harvests its merged feedback right here, atomically)
    request = AccessPathRequest("t", predicate)
    first = run(requests=[request], remember=True)
    print("--- first execution (analytical page counts) ---")
    print(first.plan.render())
    print(first.result.runstats.render())
    print()

    # --- 3: estimate vs actual --------------------------------------------
    observation = first.result.runstats.observation_for(request.key())
    candidates = Optimizer(database, injections=session.injections).candidates(query)
    seek = next(p for p in candidates if "IndexSeek" in p.signature())
    print("--- diagnosis ---")
    print(f"optimizer's analytical DPC estimate: {seek.child.estimated_dpc:.0f} pages")
    print(f"monitored actual DPC:                {observation.estimate:.0f} pages")
    factor = seek.child.estimated_dpc / max(1.0, observation.estimate)
    print(f"overestimation factor:               {factor:.0f}x")
    print("(the analytical model assumes C2 is uncorrelated with the clustering)\n")

    # --- 4: feed back and re-optimize --------------------------------------
    if coordinator is None:
        session.remember(first)
    second = run(use_feedback=True)
    print("--- second execution (page counts from execution feedback) ---")
    print(second.plan.render())
    speedup = (first.elapsed_ms - second.elapsed_ms) / first.elapsed_ms
    print(f"time: {first.elapsed_ms:.2f}ms -> {second.elapsed_ms:.2f}ms "
          f"(SpeedUp {speedup:.0%})")
    assert second.result.rows == first.result.rows, "plans must agree on results"
    print(f"both plans return count = {second.result.scalar()}")


if __name__ == "__main__":
    main()
