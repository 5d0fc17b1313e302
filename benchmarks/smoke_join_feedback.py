"""CI smoke gate: remembered join page counts are served under the
expression they measured.

A join's ``DPC(inner, join-pred | outer filter)`` belongs to the outer
rows that drove it, and so does ``LEAVES(inner, index, join-pred | outer
filter)``, the leaf pages of the inner's index its probes read.  This
script replays the ``pipeline_join`` protocol —
20 Fig. 8-style ``t1 JOIN t`` statements, four join columns, outer
selectivities 0.4-8 %, one remember pass — and then uses the engine as
its own oracle (:func:`repro.harness.regret.plan_regret`): every
statement's feedback-planned choice and both hinted alternatives run on
the simulated clock.  Gates, all deterministic:

* **regret** — simulated time lost to plan choices, over the 20
  statements, at most ``REGRET_BOUND`` of the workload (0.00 % here;
  1.69 % when INL probes were costed as contiguous in the index, and
  8.48 % when the key dropped the outer filter and every statement on a
  join column was costed with the column's last-remembered count);
* **no aliased lookup** — every INL candidate costed from feedback was
  looked up under its own statement's key, and carries that record's
  count;
* **the three flips** — ``c3 < 200``, ``c3 < 400`` and ``c4 < 200`` (1-2 %
  outer selectivity, right under the hash/INL crossover) run an INL join;
* **the leaf flip** — ``c4 < 400`` runs a hash join: its probes scatter
  over 15 of ``ix_c4``'s leaves, not the 2 contiguous ones the fallback
  arithmetic assumes;
* **nothing re-measured** — a second feedback-planned run of the 20
  statements is served every leaf key from the store (the remember pass
  counted them with the same exact leaf bitmap), and its hash joins build
  no bit vector (their join counts come from the same sampled filter).

Exit status 0/1.  Run directly
(``PYTHONPATH=src python benchmarks/smoke_join_feedback.py``) or via
pytest (the ``test_*`` wrapper below).
"""

from __future__ import annotations

import sys

from repro.core.dpc import exact_join_dpc, exact_leaf_dpc
from repro.core.planner import build_executable
from repro.core.requests import IndexLeafRequest, JoinMethodRequest
from repro.engine import Engine, WorkloadItem
from repro.exec.joins import HashJoin
from repro.harness.methodology import default_requests
from repro.harness.regret import plan_regret
from repro.harness.reporting import format_table
from repro.optimizer.plans import INLJoinPlan
from repro.sql.parser import parse_query
from repro.workloads import build_synthetic_database

NUM_ROWS = 20_000
DATA_SEED = 2008

#: Outer selectivities per join column (``benchmarks/perf``'s
#: ``PipelineJoin.STRATA``, without its per-seed jitter).
STRATA = {
    "c2": (0.004, 0.008, 0.012, 0.016, 0.020, 0.025, 0.060, 0.080),
    "c3": (0.010, 0.020, 0.040, 0.080),
    "c4": (0.010, 0.020, 0.040, 0.080),
    "c5": (0.010, 0.020, 0.040, 0.080),
}

#: Maximum share of the workload's simulated time lost to plan choices.
REGRET_BOUND = 0.005

#: ``(join column, outer cut)`` statements that must run an INL join.
MUST_BE_INL = (("c3", 200), ("c3", 400), ("c4", 200))

#: ``(join column, outer cut)`` statements that must run a hash join.
MUST_BE_HASH = (("c4", 400),)


def _join_kind(plan) -> str:
    return type(plan.children()[0]).__name__.removesuffix("JoinPlan")


def _hash_joins(operator) -> list:
    found = [operator] if isinstance(operator, HashJoin) else []
    for child in operator.children():
        found.extend(_hash_joins(child))
    return found


def _outer_keys(database, column: str, cut: int) -> list:
    """``t1.column`` of the outer rows ``t1.c1 < cut`` selects."""
    t1 = database.table("t1")
    c1, key = t1.schema.position("c1"), t1.schema.position(column)
    return [
        row[key]
        for page_id in t1.all_page_ids()
        for row in t1.rows_on_page(page_id)
        if row[c1] < cut
    ]


def statements() -> list[tuple[str, int]]:
    """``(join column, t1.c1 cut)`` of the 20 statements."""
    return [
        (column, round(target * NUM_ROWS))
        for column, targets in STRATA.items()
        for target in targets
    ]


def remembered_engine() -> tuple[Engine, list, list]:
    """An engine after one feedback-planned remember pass over the 20
    statements, with the statements' queries and monitor requests."""
    database = build_synthetic_database(
        num_rows=NUM_ROWS, seed=DATA_SEED, with_copy=True
    )
    engine = Engine(database)
    queries = [
        parse_query(
            "SELECT count(t.padding) FROM t1, t "
            f"WHERE t1.c1 < {cut} AND t1.{column} = t.{column}"
        )
        for column, cut in statements()
    ]
    requests = [tuple(default_requests(database, query)) for query in queries]
    for query, monitors in zip(queries, requests):
        engine.execute(
            WorkloadItem(
                query=query, requests=monitors, use_feedback=True, remember=True
            )
        )
    return engine, queries, requests


def measure() -> dict:
    """Remember the 20 statements once, then time every choice."""
    engine, queries, requests = remembered_engine()
    database = engine.database
    # The cold plans are the optimizer's choices without feedback.
    cold = [Engine(database).session().optimize(query) for query in queries]

    rows, aliased = [], []
    chosen_ms = best_ms = 0.0
    kinds = {}
    #: second run: [served, total] leaf keys, [without, total] bit vectors
    leaves_served, bare_hash_joins = [0, 0], [0, 0]
    for (column, cut), query, monitors, cold_plan in zip(
        statements(), queries, requests, cold
    ):
        second = engine.execute(
            WorkloadItem(query=query, requests=monitors, use_feedback=True)
        )
        for obs in second.observations:
            if isinstance(obs.request, IndexLeafRequest):
                leaves_served[0] += obs.remembered
                leaves_served[1] += 1
        build = build_executable(
            second.plan,
            database,
            monitors,
            engine.monitor_config,
            feedback=engine.feedback,
        )
        for join in _hash_joins(build.root):
            bare_hash_joins[0] += join.bitvector is None
            bare_hash_joins[1] += 1
        regret = plan_regret(engine, query, monitors)
        chosen_ms += regret.chosen_ms
        best_ms += regret.best_ms
        kinds[column, cut] = _join_kind(regret.chosen_plan)
        own = JoinMethodRequest.for_query(query, "t")
        remembered = engine.feedback.record(own.key())
        index = database.table("t").index(f"ix_{column}")
        leaves = engine.feedback.record(
            IndexLeafRequest.for_query(query, "t", index.name).key()
        )
        candidates = engine.session().optimizer(use_feedback=True).candidates(query)
        for node in (candidate.children()[0] for candidate in candidates):
            if not (isinstance(node, INLJoinPlan) and node.dpc_source == "injected"):
                continue
            looked_up = JoinMethodRequest(
                node.inner_table, node.join_predicate, node.outer_filter
            )
            record = engine.feedback.record(looked_up.key())
            if (
                looked_up != JoinMethodRequest.for_query(query, node.inner_table)
                or record is None
                or record.page_count != node.estimated_dpc
            ):
                aliased.append(f"{column} < {cut}: {looked_up.key()}")
        hash_plan, hash_ms = regret.alternatives["hash_join"]
        inl_plan, inl_ms = regret.alternatives["inl_join"]
        rows.append(
            [
                f"{column} < {cut}",
                _join_kind(cold_plan),
                kinds[column, cut],
                hash_plan.estimated_cost_ms,
                hash_ms,
                inl_plan.estimated_cost_ms,
                inl_ms,
                remembered.page_count if remembered is not None else "-",
                exact_join_dpc(
                    database.table("t"),
                    database.table("t1"),
                    query.join_predicate,
                    own.outer_filter,
                ),
                leaves.page_count if leaves is not None else "-",
                exact_leaf_dpc(index, _outer_keys(database, column, cut)),
                regret.regret_ms,
            ]
        )
    return {
        "rows": rows,
        "kinds": kinds,
        "aliased": aliased,
        "leaves_served": leaves_served,
        "bare_hash_joins": bare_hash_joins,
        "chosen_ms": chosen_ms,
        "best_ms": best_ms,
        "regret": (chosen_ms - best_ms) / chosen_ms,
        "records": len(engine.feedback),
    }


def run_smoke() -> list[str]:
    """Print the per-statement table; returns a list of gate violations."""
    measured = measure()
    print(
        format_table(
            [
                "join col, t1.c1 cut", "cold", "remembered",
                "hash est ms", "hash sim ms", "INL est ms", "INL sim ms",
                "DPC remembered", "DPC exact",
                "leaves remembered", "leaves exact", "regret ms",
            ],
            measured["rows"],
        )
    )
    inl = sum(1 for kind in measured["kinds"].values() if kind == "INL")
    print(
        f"\n{inl} INL / {len(measured['kinds']) - inl} hash; "
        f"{measured['chosen_ms'] / len(measured['kinds']):.4f} ms per statement "
        f"chosen, {measured['best_ms'] / len(measured['kinds']):.4f} ms best; "
        f"regret {measured['regret']:.2%} (bound {REGRET_BOUND:.1%}); "
        f"{measured['records']} feedback records\n"
        "second feedback-planned run: {}/{} leaf keys served, {}/{} hash "
        "joins without a bit vector".format(
            *measured["leaves_served"], *measured["bare_hash_joins"]
        )
    )
    violations = []
    if measured["regret"] > REGRET_BOUND:
        violations.append(
            f"simulated regret {measured['regret']:.2%} exceeds "
            f"{REGRET_BOUND:.1%}"
        )
    violations.extend(
        f"aliased feedback lookup on {entry}" for entry in measured["aliased"]
    )
    for (done, total), what in (
        (measured["leaves_served"], "leaf keys served"),
        (measured["bare_hash_joins"], "hash joins without a bit vector"),
    ):
        if not total or done != total:
            violations.append(f"second run: {done}/{total} {what}")
    for statements, kind in ((MUST_BE_INL, "INL"), (MUST_BE_HASH, "Hash")):
        for statement in statements:
            if measured["kinds"][statement] != kind:
                violations.append(
                    f"{statement[0]} < {statement[1]} runs a "
                    f"{measured['kinds'][statement]} join, expected {kind}"
                )
    return violations


def test_join_feedback_is_served_under_its_own_key():
    assert run_smoke() == []


def main() -> int:
    violations = run_smoke()
    for violation in violations:
        print(f"FAIL: {violation}", file=sys.stderr)
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
