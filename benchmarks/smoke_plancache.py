"""CI smoke gate: the shared plan cache serves repeated queries correctly.

Replays a Fig. 6-style monitored single-table workload through one
:class:`~repro.engine.Engine` several times and checks the plan-cache
acceptance bar end to end:

* the **second** execution of every query is a cache hit whose plan
  renders bit-identically to a fresh, cache-bypassing optimization at the
  same feedback epoch;
* a cache hit changes *nothing* observable about the execution — rows,
  physical reads and simulated elapsed time equal the cold first run, so
  the monitoring overhead bound is untouched by caching;
* after the warmup pass, the cache serves at least 90% of lookups from
  memory.

A second leg keys plans on remembered feedback: ``use_feedback``
statements on both tables of the join database, each lookup preceded by
a ``remember=True`` harvest that writes a new expression on ``t``.  A
harvest moves only ``t``'s feedback epoch, so

* ``t1`` statements keep hitting after the warmup pass (>= 90%);
* every hit plan renders equal to a cache-bypassing optimization at the
  same store state;
* live entries never exceed the distinct (statement, mode) pairs looked
  up — a superseded plan is invalidated in place, never left behind.

Exit status 0/1 so CI can gate on it.  Run directly
(``PYTHONPATH=src python benchmarks/smoke_plancache.py``) or via pytest
(the ``test_*`` wrapper below).
"""

from __future__ import annotations

import sys

from repro.core.requests import AccessPathRequest
from repro.engine import Engine, WorkloadItem
from repro.optimizer import Query, SingleTableQuery
from repro.session import ExecutedQuery
from repro.sql import Comparison, conjunction_of
from repro.workloads import build_synthetic_database

#: Post-warmup lookups that must be served from the cache.
HIT_RATE_BOUND = 0.90

#: Repeat passes over the workload after the warmup pass.
REPEATS = 5


def build_workload() -> list[WorkloadItem]:
    """Fig. 6-style monitored range queries over the synthetic table."""
    items = []
    for column, cut in [
        ("c2", 300),
        ("c2", 900),
        ("c3", 250),
        ("c4", 5_000),
        ("c5", 9_000),
    ]:
        query = SingleTableQuery(
            "t", conjunction_of(Comparison(column, "<", cut)), "padding"
        )
        items.append(
            WorkloadItem(
                query=query,
                requests=(AccessPathRequest("t", query.predicate),),
            )
        )
    return items


def run_plain_leg() -> list[str]:
    """Run the repeated workload; returns a list of violations."""
    violations: list[str] = []
    database = build_synthetic_database(num_rows=20_000, seed=1234)
    engine = Engine(database)
    items = build_workload()

    first = engine.run_serial(items)
    warm = engine.plan_cache.stats.snapshot()
    passes = [engine.run_serial(items) for _ in range(REPEATS)]

    for index, item in enumerate(items):
        cold = first[index]
        hot = passes[0][index]
        if hot.trace.cache_event != "hit":
            violations.append(
                f"item {index}: second execution was "
                f"{hot.trace.cache_event!r}, expected a cache hit"
            )
        bypass = engine.session()
        bypass.plan_cache = None
        fresh = bypass.optimize(item.query)
        if hot.plan.render() != fresh.render():
            violations.append(
                f"item {index}: cache-hit plan differs from a fresh "
                f"cache-bypassing optimization"
            )
        if (cold.result.rows, cold.result.runstats.physical_reads) != (
            hot.result.rows,
            hot.result.runstats.physical_reads,
        ):
            violations.append(
                f"item {index}: cache hit changed rows/reads "
                f"({cold.result.rows}/{cold.result.runstats.physical_reads} "
                f"-> {hot.result.rows}/{hot.result.runstats.physical_reads})"
            )
        if cold.result.runstats.elapsed_ms != hot.result.runstats.elapsed_ms:
            violations.append(
                f"item {index}: cache hit changed simulated elapsed time — "
                f"the monitoring overhead bound no longer transfers"
            )

    stats = engine.plan_cache.stats
    post_hits = stats.hits - warm["hits"]
    post_lookups = stats.lookups - (warm["hits"] + warm["misses"])
    hit_rate = post_hits / post_lookups if post_lookups else 0.0
    print(
        f"plan-cache smoke: {len(items)} queries x {1 + REPEATS} passes, "
        f"post-warmup hit rate {hit_rate:.1%} (bound {HIT_RATE_BOUND:.0%})"
    )
    print(engine.report())
    if hit_rate < HIT_RATE_BOUND:
        violations.append(
            f"post-warmup hit rate {hit_rate:.1%} below {HIT_RATE_BOUND:.0%}"
        )
    return violations


def feedback_statements() -> list[SingleTableQuery]:
    """The feedback leg's statements: the same three ranges on each table."""
    return [
        SingleTableQuery(
            table, conjunction_of(Comparison(column, "<", cut)), "padding"
        )
        for table in ("t", "t1")
        for column, cut in (("c2", 300), ("c3", 250), ("c5", 9_000))
    ]


def run_feedback_leg() -> list[str]:
    """Feedback lookups on ``t`` and ``t1`` between harvests on ``t``."""
    violations: list[str] = []
    database = build_synthetic_database(num_rows=20_000, seed=1234, with_copy=True)
    engine = Engine(database)
    bypass = engine.session()
    bypass.plan_cache = None
    pairs: set[tuple[str, bool]] = set()
    lookups = {"t": [0, 0], "t1": [0, 0]}  # table -> [post-warmup, hits]

    def execute(query: Query, **options) -> ExecutedQuery:
        item = WorkloadItem(query=query, **options)
        pairs.add((query.canonical_key(), item.use_feedback))
        return engine.execute(item)

    harvests = 0
    for number in range(1 + REPEATS):
        for query in feedback_statements():
            # A new expression on t every time, so the store always grows.
            harvests += 1
            harvest = SingleTableQuery(
                "t",
                conjunction_of(Comparison("c4", "<", 1_000 + 10 * harvests)),
                "padding",
            )
            execute(
                harvest,
                requests=(AccessPathRequest("t", harvest.predicate),),
                remember=True,
            )
            executed = execute(query, use_feedback=True)
            hit = executed.trace.cache_event == "hit"
            if number > 0:
                lookups[query.table][0] += 1
                lookups[query.table][1] += hit
            if hit:
                fresh = bypass.optimize(query, use_feedback=True)
                if executed.plan.render() != fresh.render():
                    violations.append(
                        f"feedback leg: {query.describe()} hit a plan that "
                        f"differs from a cache-bypassing optimization"
                    )

    rates = {table: hits / total for table, (total, hits) in lookups.items()}
    live = len(engine.plan_cache)
    print(
        f"plan-cache smoke (feedback): {harvests} harvests on t, post-warmup "
        f"hit rate t1 {rates['t1']:.1%} (bound {HIT_RATE_BOUND:.0%}), "
        f"t {rates['t']:.1%}; {live} live entries for {len(pairs)} "
        f"(statement, mode) pairs"
    )
    print(engine.plan_cache.stats.render())
    if rates["t1"] < HIT_RATE_BOUND:
        violations.append(
            f"feedback leg: t1 post-warmup hit rate {rates['t1']:.1%} below "
            f"{HIT_RATE_BOUND:.0%}"
        )
    if live > len(pairs):
        violations.append(
            f"feedback leg: {live} live entries for {len(pairs)} "
            f"(statement, mode) pairs"
        )
    return violations


def run_smoke() -> list[str]:
    """Both legs; returns a list of violations."""
    return run_plain_leg() + run_feedback_leg()


def test_plan_cache_smoke():
    assert run_smoke() == []


def main() -> int:
    violations = run_smoke()
    for violation in violations:
        print(f"FAIL: {violation}", file=sys.stderr)
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
