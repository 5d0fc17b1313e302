"""Row ≡ batch equivalence harness.

The batch execution path (chunk-at-a-time :class:`~repro.exec.batch.RowBatch`
exchange + compiled predicate kernels, with every table and clustered
range scan reading column chunks, :mod:`repro.exec.vector`) is a pure
performance optimization: it must be observationally identical to the
Volcano row iterator.  This module proves it per query, by running the
same physical plan under every mode of
:data:`~repro.exec.executor.EXEC_MODES` and diffing everything the
paper's machinery depends on:

* result rows (values *and* order) and output columns,
* every :class:`~repro.core.requests.PageCountObservation` — its
  ``fingerprint()`` (key, mechanism, answered/reason, estimate,
  exactness, instrument, remembered) and the mechanism details
  (sampled-page counts, linear-counter bit patterns, ...),
* read counts (logical / random / sequential / pool hits),
* per-operator plan statistics (actual rows, pages touched, predicate
  evaluation counts — the Fig. 7/9 overhead currency),

then absorbs the monitored run's observations, re-optimizes, and checks
the improved plan's unmonitored run the same way — i.e. the *entire*
§V-B methodology pipeline is mode-invariant; table-scan plans exercise
the chunk scan monitored (P) and unmonitored (P'), Fig. 8 hash joins
its bit-vector feed (a probe-side scan of the requested table), and
hinted index plans the chunk-at-a-time seek → fetch → linear-count drive.  Row
mode is the reference: every other mode is diffed against it.  Simulated ``cpu_ms`` is
deliberately excluded: batched charging accumulates the same totals in
fewer float additions, so the float may differ in the last ulp while
every integer counter is identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.catalog.catalog import Database
from repro.core.feedback import FeedbackStore, unsummable
from repro.core.planner import MonitorConfig
from repro.core.requests import PageCountObservation, PageCountRequest
from repro.engine import Engine
from repro.exec.executor import DEFAULT_EXEC_MODE, EXEC_MODES, QueryResult
from repro.exec.runstats import OperatorStats
from repro.harness.methodology import default_requests
from repro.lifecycle.plan import build_optimizer
from repro.optimizer.hints import PlanHint
from repro.optimizer.injection import InjectionSet
from repro.optimizer.plans import PlanNode
from repro.workloads.queries import GeneratedQuery


def observation_fingerprint(observation: PageCountObservation) -> tuple:
    """:meth:`~repro.core.requests.PageCountObservation.fingerprint` plus
    the mechanism ``details`` (sampled-page counts, counter bit patterns),
    which two drives of one plan must also agree on."""
    return (
        *observation.fingerprint(),
        tuple(sorted((k, repr(v)) for k, v in observation.details.items())),
    )


def _diff_plan_stats(
    row_stats: OperatorStats,
    batch_stats: OperatorStats,
    path: str,
    out: list[str],
    mode: str,
) -> None:
    """Recursively compare the per-operator counters of the two runs."""
    label = f"{path}/{row_stats.operator}"
    if row_stats.operator != batch_stats.operator:
        out.append(
            f"{label}: operator mismatch ({batch_stats.operator} in {mode} mode)"
        )
        return
    for attribute in ("actual_rows", "pages_touched", "predicate_evaluations"):
        row_value = getattr(row_stats, attribute)
        batch_value = getattr(batch_stats, attribute)
        if row_value != batch_value:
            out.append(
                f"{label}: {attribute} row={row_value} {mode}={batch_value}"
            )
    if len(row_stats.children) != len(batch_stats.children):
        out.append(
            f"{label}: child count row={len(row_stats.children)} "
            f"{mode}={len(batch_stats.children)}"
        )
        return
    for index, (row_child, batch_child) in enumerate(
        zip(row_stats.children, batch_stats.children)
    ):
        _diff_plan_stats(row_child, batch_child, f"{label}[{index}]", out, mode)


def diff_results(
    row_result: QueryResult,
    batch_result: QueryResult,
    mode: str,
    context: str = "",
) -> list[str]:
    """Every observable difference between a row-mode run and a run in
    ``mode``."""
    prefix = f"{context}: " if context else ""
    mismatches: list[str] = []
    if row_result.columns != batch_result.columns:
        mismatches.append(
            f"{prefix}columns row={row_result.columns} {mode}={batch_result.columns}"
        )
    if row_result.rows != batch_result.rows:
        mismatches.append(
            f"{prefix}result rows differ "
            f"(row={len(row_result.rows)} rows, {mode}={len(batch_result.rows)} rows"
            + (
                ""
                if len(row_result.rows) != len(batch_result.rows)
                else ", same length but different content/order"
            )
            + ")"
        )
    row_stats, batch_stats = row_result.runstats, batch_result.runstats
    for attribute in (
        "logical_reads",
        "random_reads",
        "sequential_reads",
        "pool_hits",
    ):
        row_value = getattr(row_stats, attribute)
        batch_value = getattr(batch_stats, attribute)
        if row_value != batch_value:
            mismatches.append(
                f"{prefix}{attribute} row={row_value} {mode}={batch_value}"
            )
    row_obs = [observation_fingerprint(o) for o in row_stats.observations]
    batch_obs = [observation_fingerprint(o) for o in batch_stats.observations]
    if row_obs != batch_obs:
        mismatches.append(
            f"{prefix}observations differ: row={row_obs} {mode}={batch_obs}"
        )
    plan_mismatches: list[str] = []
    _diff_plan_stats(row_stats.root, batch_stats.root, "", plan_mismatches, mode)
    mismatches.extend(prefix + m for m in plan_mismatches)
    return mismatches


@dataclass
class QueryEquivalence:
    """One query's row-vs-batch comparison."""

    label: str
    mismatches: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches


@dataclass
class EquivalenceReport:
    """Workload-level equivalence verdict (mode- or deployment-level)."""

    queries: list[QueryEquivalence] = field(default_factory=list)
    title: str = "row≡batch equivalence"

    @property
    def ok(self) -> bool:
        return all(q.ok for q in self.queries)

    def failures(self) -> list[QueryEquivalence]:
        return [q for q in self.queries if not q.ok]

    def render(self) -> str:
        lines = [
            f"{self.title}: {len(self.queries)} queries, "
            f"{len(self.failures())} mismatched"
        ]
        for entry in self.queries:
            if entry.ok:
                lines.append(f"  {entry.label}: OK")
            else:
                lines.append(f"  {entry.label}: MISMATCH")
                lines.extend(f"    {m}" for m in entry.mismatches)
        return "\n".join(lines)


def compare_query(
    engine: Engine,
    generated: GeneratedQuery,
    requests: Optional[Sequence[PageCountRequest]] = None,
    base_injections: Optional[InjectionSet] = None,
    hint: Optional[PlanHint] = None,
) -> QueryEquivalence:
    """Run one generated query through §V-B in every mode and diff.

    Covers the monitored run of the accurate-cardinality plan P *and* the
    unmonitored run of the feedback-improved plan P' (built from the
    row-mode observations; the diff has already proven the other modes
    produced the same ones).  Every run is one
    :meth:`~repro.engine.Engine.execute_plan` — cold, isolated, monitor
    state rebuilt (bundles are stateful).  ``hint`` pins both plans to
    one physical shape, which is how the index plans (seek, IN-list,
    intersection, covering scan, INL) are proven on workloads whose
    cheapest plan is a scan.
    """
    database = engine.database
    injections = generated.injections(base_injections)
    query = generated.query
    request_list = (
        list(requests)
        if requests is not None
        else default_requests(database, query)
    )
    entry = QueryEquivalence(label=generated.label)

    def diff_modes(plan: PlanNode, plan_requests, context: str) -> QueryResult:
        """Run ``plan`` in every mode, diff against row; the row result."""
        results = {
            mode: engine.execute_plan(
                query, plan, requests=plan_requests, exec_mode=mode
            ).result
            for mode in EXEC_MODES
        }
        for mode in EXEC_MODES[1:]:
            entry.mismatches.extend(
                diff_results(results["row"], results[mode], mode, context)
            )
        return results["row"]

    plan = build_optimizer(
        database, injections=injections, hint=hint
    ).optimize(query)
    monitored = diff_modes(plan, request_list, "monitored P")

    corrected = injections.copy()
    corrected.absorb_observations(monitored.runstats.observations)
    improved_plan = build_optimizer(
        database, injections=corrected, hint=hint
    ).optimize(query)
    diff_modes(improved_plan, (), "unmonitored P'")
    return entry


def compare_workload(
    engine: Engine,
    workload: Sequence[GeneratedQuery],
    base_injections: Optional[InjectionSet] = None,
    hint: Optional[PlanHint] = None,
) -> EquivalenceReport:
    """Prove row≡batch for every query of a workload."""
    return EquivalenceReport(
        queries=[
            compare_query(
                engine,
                generated,
                base_injections=base_injections,
                hint=hint,
            )
            for generated in workload
        ]
    )


# ----------------------------------------------------------------------
# Serial ≡ sharded
# ----------------------------------------------------------------------
#: Relative tolerance for merged *inexact* estimates (DPSAMPLE at a
#: fraction < 1, LINEAR_COUNTING).  Sampling every k-th page of N shard
#: files is not the same page set as every k-th page of one global file,
#: and ``-m·ln(V/m)`` is not additive, so inexact mechanisms are only
#: required to agree statistically.  Exact mechanisms must match to the
#: bit — run the sharded harness at ``dpsample_fraction=1.0`` for a
#: fully bit-exact proof.
SHARD_INEXACT_RTOL = 0.10


def _diff_sharded_observations(
    serial: Sequence[PageCountObservation],
    merged: Sequence[PageCountObservation],
    context: str,
    out: list[str],
) -> None:
    """Diff serial observations against the coordinator's merged ones.

    The mechanism ``details`` are deliberately excluded from the merged
    fingerprint: a merged observation's details describe the *fan-out*
    (per-shard estimates, shard counts), not a single file's sampled
    pages.  Everything the optimizer consumes — key, mechanism,
    answered/reason, exactness, and the estimate itself — must agree.
    """
    serial_keys = [obs.key for obs in serial]
    merged_keys = [obs.key for obs in merged]
    if serial_keys != merged_keys:
        out.append(
            f"{context}: observation keys serial={serial_keys} "
            f"sharded={merged_keys}"
        )
        return
    for serial_obs, merged_obs in zip(serial, merged):
        label = f"{context}: {serial_obs.key}"
        if serial_obs.answered != merged_obs.answered:
            out.append(
                f"{label}: answered serial={serial_obs.answered} "
                f"sharded={merged_obs.answered}"
            )
            continue
        if not serial_obs.answered:
            if serial_obs.reason != merged_obs.reason:
                out.append(
                    f"{label}: unanswerable reason serial="
                    f"{serial_obs.reason!r} sharded={merged_obs.reason!r}"
                )
            continue
        if serial_obs.mechanism != merged_obs.mechanism:
            out.append(
                f"{label}: mechanism serial={serial_obs.mechanism.value} "
                f"sharded={merged_obs.mechanism.value}"
            )
        if serial_obs.exact and not merged_obs.exact:
            out.append(
                f"{label}: serial observation exact but merged is not "
                f"(partial shard coverage?)"
            )
        if serial_obs.exact and merged_obs.exact:
            if serial_obs.estimate != merged_obs.estimate:
                out.append(
                    f"{label}: exact estimate serial={serial_obs.estimate} "
                    f"sharded={merged_obs.estimate}"
                )
        elif not _within_rtol(
            serial_obs.estimate, merged_obs.estimate, SHARD_INEXACT_RTOL
        ):
            out.append(
                f"{label}: inexact estimate serial={serial_obs.estimate} "
                f"sharded={merged_obs.estimate} beyond "
                f"rtol={SHARD_INEXACT_RTOL}"
            )


def _within_rtol(
    serial: Optional[float], sharded: Optional[float], rtol: float
) -> bool:
    if serial is None or sharded is None:
        return serial == sharded
    scale = max(abs(serial), abs(sharded), 1.0)
    return abs(serial - sharded) <= rtol * scale


def _diff_merged_feedback(
    serial_observations: Sequence[PageCountObservation],
    merged_observations: Sequence[PageCountObservation],
    context: str,
    out: list[str],
) -> None:
    """Prove harvesting the merged observations equals the serial harvest.

    Fresh :class:`FeedbackStore` on both sides, fed exactly as an engine
    and a coordinator feed theirs.  The records must agree per key
    (exact page counts to the bit, inexact within
    :data:`SHARD_INEXACT_RTOL`, exactness never lost), and both sides
    must agree on whether the harvest moved the epoch at all.
    """
    serial_store = FeedbackStore()
    serial_store.record_observations(serial_observations)
    sharded_store = FeedbackStore()
    sharded_store.record_observations(merged_observations)
    keys = serial_store.keys()
    if keys != sharded_store.keys():
        out.append(
            f"{context}: feedback keys serial={keys} "
            f"sharded={sharded_store.keys()}"
        )
        return
    if serial_store.epoch != sharded_store.epoch:
        out.append(
            f"{context}: harvest no-op disagreement — serial epoch="
            f"{serial_store.epoch} sharded epoch={sharded_store.epoch}"
        )
    for key in keys:
        serial_record = serial_store.record(key)
        merged_record = sharded_store.record(key)
        if serial_record is None or merged_record is None:
            out.append(f"{context}: {key}: record missing on one side")
            continue
        if serial_record.page_count_exact and not merged_record.page_count_exact:
            out.append(
                f"{context}: {key}: serial feedback exact but merged "
                "record is not"
            )
        elif serial_record.page_count_exact:
            if serial_record.page_count != merged_record.page_count:
                out.append(
                    f"{context}: {key}: exact merged page count "
                    f"serial={serial_record.page_count} "
                    f"sharded={merged_record.page_count}"
                )
        elif not _within_rtol(
            serial_record.page_count,
            merged_record.page_count,
            SHARD_INEXACT_RTOL,
        ):
            out.append(
                f"{context}: {key}: merged page count "
                f"serial={serial_record.page_count} "
                f"sharded={merged_record.page_count} beyond "
                f"rtol={SHARD_INEXACT_RTOL}"
            )


def _diff_rows(
    serial: QueryResult, sharded: QueryResult, context: str, out: list[str]
) -> None:
    if serial.rows != sharded.rows:
        out.append(
            f"{context}: result rows differ "
            f"(serial={len(serial.rows)} rows, sharded={len(sharded.rows)} rows"
            + (
                ""
                if len(serial.rows) != len(sharded.rows)
                else ", same length but different content/order"
            )
            + ")"
        )


def compare_sharded_query(
    serial: Engine,
    coordinator: Engine,
    generated: GeneratedQuery,
    requests: Optional[Sequence[PageCountRequest]] = None,
    base_injections: Optional[InjectionSet] = None,
    exec_mode: str = DEFAULT_EXEC_MODE,
) -> QueryEquivalence:
    """Run one query serially and scatter-gathered, and diff everything.

    Mirrors :func:`compare_query`'s §V-B walk with the deployment as the
    varying axis instead of the execution mode — both sides run through
    their engine's :meth:`~repro.engine.Engine.execute_plan`:

    1. the accurate-cardinality plan P runs monitored on ``serial`` (one
       engine over the global database, the reference) and on
       ``coordinator``; result rows and columns must be bit-identical,
       and the merged observations must match the serial ones (exact
       mechanisms to the bit, inexact within :data:`SHARD_INEXACT_RTOL`);
    2. the merged observations, harvested into a fresh
       :class:`FeedbackStore`, must leave the records a second fresh
       store holds after the serial harvest — the no-double-charging
       proof;
    3. both sides absorb their own observations, re-optimize, and the
       improved plans P' must render identically; P' then runs
       unmonitored both ways and the rows must again be bit-identical.

    Raw physical read counts are *not* compared: N shard B-trees have
    their own heights and fill patterns, so per-shard I/O legitimately
    differs from one global file's.  What the paper's loop consumes —
    rows, observations, merged feedback, and the resulting plan choice —
    is what must be invariant.
    """
    database = serial.database
    injections = generated.injections(base_injections)
    query = generated.query
    request_list = (
        list(requests)
        if requests is not None
        else default_requests(database, query)
    )
    entry = QueryEquivalence(label=generated.label)

    plan = build_optimizer(database, injections=injections).optimize(query)

    serial_result = serial.execute_plan(
        query, plan, requests=request_list, exec_mode=exec_mode
    ).result
    merged_result = coordinator.execute_plan(
        query, plan, requests=request_list, exec_mode=exec_mode
    ).result
    # A leaf count does not survive the fan-out (``unsummable``): the
    # reference is the serial run as a deployment can report it.
    serial_observations = [
        unsummable(observation) or observation
        for observation in serial_result.runstats.observations
    ]
    merged_observations = merged_result.runstats.observations
    if serial_result.columns != merged_result.columns:
        entry.mismatches.append(
            f"monitored P: columns serial={serial_result.columns} "
            f"sharded={merged_result.columns}"
        )
    _diff_rows(serial_result, merged_result, "monitored P", entry.mismatches)
    _diff_sharded_observations(
        serial_observations, merged_observations, "monitored P", entry.mismatches
    )
    _diff_merged_feedback(
        serial_observations, merged_observations, "feedback merge", entry.mismatches
    )

    serial_corrected = injections.copy()
    serial_corrected.absorb_observations(serial_observations)
    serial_improved = build_optimizer(
        database, injections=serial_corrected
    ).optimize(query)
    sharded_corrected = injections.copy()
    sharded_corrected.absorb_observations(merged_observations)
    sharded_improved = build_optimizer(
        database, injections=sharded_corrected
    ).optimize(query)
    if serial_improved.render() != sharded_improved.render():
        entry.mismatches.append(
            "improved plan P' diverged: serial feedback chose "
            f"{serial_improved.render()!r}, merged shard feedback chose "
            f"{sharded_improved.render()!r}"
        )
    else:
        _diff_rows(
            serial.execute_plan(
                query, serial_improved, exec_mode=exec_mode
            ).result,
            coordinator.execute_plan(
                query, serial_improved, exec_mode=exec_mode
            ).result,
            "unmonitored P'",
            entry.mismatches,
        )
    return entry


def compare_sharded_workload(
    database: Database,
    workload: Sequence[GeneratedQuery],
    num_shards: int = 4,
    strategy: str = "range",
    monitor_config: Optional[MonitorConfig] = None,
    base_injections: Optional[InjectionSet] = None,
    exec_mode: str = DEFAULT_EXEC_MODE,
) -> EquivalenceReport:
    """Prove serial≡sharded for every query of a workload.

    Builds one :class:`~repro.shard.coordinator.ShardCoordinator` over a
    fresh partitioning of ``database`` and reuses it across the workload
    (the shard files, like the global one, persist between queries).
    Defaults to ``dpsample_fraction=1.0`` so every DPSAMPLE observation
    is exact and the whole proof is bit-level; pass an explicit
    ``monitor_config`` to exercise tolerance-checked sampling instead.
    """
    from repro.shard.coordinator import ShardCoordinator

    monitor_config = (
        monitor_config
        if monitor_config is not None
        else MonitorConfig(dpsample_fraction=1.0)
    )
    serial = Engine(database, monitor_config=monitor_config)
    coordinator = ShardCoordinator(
        database,
        num_shards=num_shards,
        strategy=strategy,
        monitor_config=monitor_config,
    )
    try:
        queries = [
            compare_sharded_query(
                serial,
                coordinator,
                generated,
                base_injections=base_injections,
                exec_mode=exec_mode,
            )
            for generated in workload
        ]
    finally:
        coordinator.shutdown()
    return EquivalenceReport(
        queries=queries,
        title=f"serial≡sharded equivalence ({num_shards} shards, {strategy})",
    )
