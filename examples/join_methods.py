"""Join-method choice: Hash Join vs. Index Nested Loops (§IV, Fig. 8).

The cost of an INL join hinges on ``DPC(inner, join-pred)`` — how many
distinct inner pages the fetches touch.  This example reproduces the
paper's join experiment on one query:

1. the optimizer, using the analytical page-count model, picks a Hash
   Join (it assumes the join scatters over the whole inner table);
2. the Hash Join is executed with a **bit-vector filter** built during the
   build phase; the probe-side scan uses it as a derived semi-join
   predicate and DPSamples the true join page count (Fig. 5);
3. the measured DPC is injected; the optimizer flips to INL and the query
   gets faster — and the INL run's own linear-counting monitor confirms
   the page count from the other direction (Fig. 3).

Run:  python examples/join_methods.py
"""

from repro import JoinEquality, JoinMethodRequest, JoinQuery, Session, conjunction_of
from repro.core.dpc import exact_join_dpc
from repro.sql import Comparison
from repro.workloads import build_synthetic_database


def main() -> None:
    print("Building synthetic T and its independently-permuted copy T1...")
    database = build_synthetic_database(num_rows=50_000, seed=21, with_copy=True)
    print(f"  {database.table('t')}")
    print(f"  {database.table('t1')}\n")

    # T1.C1 < val (2% of the outer) joined on the correlated column C2.
    outer_predicate = conjunction_of(Comparison("c1", "<", 1_000))
    join_predicate = JoinEquality("t1", "c2", "t", "c2")
    query = JoinQuery(
        join_predicate=join_predicate,
        predicates={"t1": outer_predicate},
        count_column="t.padding",
    )
    session = Session(database)
    print(f"Query: {query.describe()}")
    truth = exact_join_dpc(
        database.table("t"), database.table("t1"), join_predicate, outer_predicate
    )
    print(f"True DPC(t, join-pred | outer filter) = {truth} of {database.table('t').num_pages} pages\n")

    # --- 1+2: hash join runs; bit-vector monitoring measures the join DPC
    # The count belongs to the outer rows that drive the join, so the
    # request names the filter on T1 as well as the join predicate.
    request = JoinMethodRequest.for_query(query, "t")
    first = session.run(query, requests=[request])
    print("--- first execution ---")
    print(first.plan.render())
    observation = first.result.runstats.observation_for(request.key())
    print(f"monitored: {observation}")
    print(f"time: {first.elapsed_ms:.2f}ms\n")

    # --- 3: feed back, re-optimize, run again -----------------------------
    session.remember(first)
    second = session.run(query, requests=[request], use_feedback=True)
    print("--- second execution (join DPC from feedback) ---")
    print(second.plan.render())
    confirmation = second.result.runstats.observation_for(request.key())
    print(f"monitored on the INL side: {confirmation}")
    speedup = (first.elapsed_ms - second.elapsed_ms) / first.elapsed_ms
    print(
        f"time: {first.elapsed_ms:.2f}ms -> {second.elapsed_ms:.2f}ms "
        f"(SpeedUp {speedup:.0%})"
    )
    assert first.result.rows == second.result.rows
    assert speedup > 0, "the remembered join DPC should have paid off"
    print(f"both plans return count = {second.result.scalar()}")


if __name__ == "__main__":
    main()
