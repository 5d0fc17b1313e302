"""A/B harness for mid-query re-optimization (the reopt value story).

The question the watchdog exists to answer: once the optimizer has
committed to a misestimated plan, is *switching mid-flight* cheaper than
riding the bad plan to completion?  For each generated query this
harness measures both arms under identical conditions (cold cache,
accurate injected cardinalities per §V-B — so the only error in play is
the page-count error the paper diagnoses):

A (ride it out)
    The optimizer's plan, monitored, run to completion → ``T_bad``.
B (switch)
    The same plan under the regret watchdog
    (:func:`repro.reopt.run_with_reopt`) → ``T_switch`` =
    ``T_partial + T_replan + T_new`` on a trip, or the plain monitored
    time (plus the watchdog's per-checkpoint charge) when the plan was
    never worth abandoning.

On the Fig. 6 correlated columns the analytic page-count model grossly
overestimates DPC, the optimizer settles for a sequential scan, and the
watchdog's projection exposes the regret a few percent into the scan —
``win = T_bad / T_switch`` lands well above 1.  On the uncorrelated
column the projection tracks the estimate, nothing trips, and the B arm
must cost within a rounding error of the A arm (the overhead gate in
``benchmarks/smoke_reopt.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.catalog.catalog import Database
from repro.exec.executor import DEFAULT_EXEC_MODE
from repro.harness.methodology import default_requests
from repro.harness.reporting import format_table
from repro.reopt.episode import run_with_reopt
from repro.session import Session
from repro.workloads.queries import GeneratedQuery, single_table_workload


@dataclass
class ReoptABOutcome:
    """Both arms of one query's ride-vs-switch comparison."""

    generated: GeneratedQuery
    tripped: bool
    switched: bool
    resumed: bool
    false_trip: bool
    trip_detail: str
    time_bad_ms: float
    time_switch_ms: float
    #: The two arms returned identical result rows (correctness gate:
    #: a mid-query switch must never change the answer).
    rows_match: bool

    @property
    def win(self) -> float:
        """``T_bad / T_switch`` — above 1 when switching paid off."""
        if self.time_switch_ms <= 0:
            return 0.0
        return self.time_bad_ms / self.time_switch_ms

    @property
    def overhead(self) -> float:
        """``(T_switch - T_bad) / T_bad`` — the watchdog's cost on the
        runs where it (correctly) never fired."""
        if self.time_bad_ms <= 0:
            return 0.0
        return (self.time_switch_ms - self.time_bad_ms) / self.time_bad_ms

    def summary(self) -> str:
        verdict = (
            "resumed" if self.resumed
            else "switched" if self.switched
            else "false-trip" if self.false_trip
            else "rode"
        )
        return (
            f"{self.generated.label:<16} "
            f"sel={self.generated.selectivity:6.3%} {verdict:<10} "
            f"T_bad={self.time_bad_ms:9.2f}ms "
            f"T_switch={self.time_switch_ms:9.2f}ms win={self.win:5.2f}x"
        )


@dataclass
class ReoptABReport:
    """Aggregate view of one workload's A/B run."""

    outcomes: list[ReoptABOutcome] = field(default_factory=list)

    @property
    def trips(self) -> int:
        return sum(1 for o in self.outcomes if o.tripped)

    @property
    def wins(self) -> int:
        return sum(1 for o in self.outcomes if o.switched)

    @property
    def false_trips(self) -> int:
        return sum(1 for o in self.outcomes if o.false_trip)

    @property
    def rows_all_match(self) -> bool:
        return all(o.rows_match for o in self.outcomes)

    def mean_win(self) -> float:
        """Mean ``T_bad / T_switch`` over the tripped queries (1.0 when
        nothing tripped — no switches, no claimed win)."""
        tripped = [o.win for o in self.outcomes if o.tripped]
        if not tripped:
            return 1.0
        return sum(tripped) / len(tripped)

    def max_overhead(self) -> float:
        """Worst watchdog overhead across the *untripped* queries."""
        quiet = [o.overhead for o in self.outcomes if not o.tripped]
        return max(quiet, default=0.0)

    def render(self) -> str:
        rows = [
            [
                o.generated.label,
                f"{o.generated.selectivity:.3%}",
                "yes" if o.tripped else "no",
                "yes" if o.switched else "no",
                "yes" if o.resumed else "no",
                f"{o.time_bad_ms:.2f}",
                f"{o.time_switch_ms:.2f}",
                f"{o.win:.2f}x",
            ]
            for o in self.outcomes
        ]
        table = format_table(
            [
                "query", "sel", "trip", "switch", "resume",
                "T_bad ms", "T_switch ms", "win",
            ],
            rows,
        )
        footer = (
            f"{len(self.outcomes)} query(ies): {self.trips} trip(s), "
            f"{self.wins} win(s), {self.false_trips} false trip(s); "
            f"mean win {self.mean_win():.2f}x, "
            f"max quiet overhead {self.max_overhead():.2%}, "
            f"rows {'match' if self.rows_all_match else 'MISMATCH'}"
        )
        return f"{table}\n{footer}"


def evaluate_reopt_query(
    database: Database,
    generated: GeneratedQuery,
    exec_mode: str = DEFAULT_EXEC_MODE,
) -> ReoptABOutcome:
    """Run one query's ride-vs-switch A/B.

    Each arm gets its own :class:`Session` (private feedback store, no
    plan cache) seeded with the query's exact cardinalities, so the two
    executions are independent cold-cache runs differing only in the
    watchdog.  ``exec_mode`` defaults to the batch drive, which
    scans one page per chunk under a watchdog — the checkpoint cadence
    the watchdog projects on (and the page boundaries that make the
    resume path legal).
    """
    requests = tuple(default_requests(database, generated.query))

    ride = Session(database=database, injections=generated.injections())
    plain = ride.run(
        generated.query, requests=requests, exec_mode=exec_mode
    )

    switch = Session(database=database, injections=generated.injections())
    episode = run_with_reopt(
        switch,
        generated.query,
        requests=requests,
        exec_mode=exec_mode,
    )

    return ReoptABOutcome(
        generated=generated,
        tripped=episode.tripped,
        switched=episode.switched,
        resumed=episode.resumed,
        false_trip=episode.false_trip,
        trip_detail=episode.trip_detail,
        time_bad_ms=plain.result.runstats.elapsed_ms,
        time_switch_ms=episode.executed.result.runstats.elapsed_ms,
        rows_match=plain.result.rows == episode.executed.result.rows,
    )


def run_reopt_ab(
    num_rows: int = 20_000,
    queries_per_column: int = 3,
    seed: int = 3,
    exec_mode: str = DEFAULT_EXEC_MODE,
    selectivity_range: tuple[float, float] = (0.01, 0.05),
) -> ReoptABReport:
    """The standalone Fig. 6-style A/B driver (``figures reopt``).

    Covers both regimes: the correlated columns (c2 exactly tracks the
    clustering order, c3 nearly) where the analytic model's DPC is a
    gross overestimate and switching should win, and the uncorrelated c5
    where the estimate is right and the watchdog must stay quiet.  The
    selectivity range sits below the optimizer's scan/seek crossover so
    a trip's replan reliably lands on a different plan.
    """
    from repro.workloads.synthetic import build_synthetic_database

    database = build_synthetic_database(num_rows=num_rows, seed=seed)
    workload = single_table_workload(
        database,
        "t",
        columns=("c2", "c3", "c5"),
        queries_per_column=queries_per_column,
        selectivity_range=selectivity_range,
        seed=seed,
    )
    return evaluate_reopt_workload(database, workload, exec_mode=exec_mode)


def evaluate_reopt_workload(
    database: Database,
    workload: Sequence[GeneratedQuery],
    exec_mode: str = DEFAULT_EXEC_MODE,
) -> ReoptABReport:
    """The full A/B over a workload (Fig. 6 columns, both regimes)."""
    return ReoptABReport(
        [
            evaluate_reopt_query(database, generated, exec_mode=exec_mode)
            for generated in workload
        ]
    )
