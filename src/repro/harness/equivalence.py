"""One equivalence check: two runs of one plan must agree on everything.

Row ≡ batch (the chunk-at-a-time drive is a pure optimization of the
Volcano row iterator) and serial ≡ sharded (a
:class:`~repro.shard.coordinator.ShardCoordinator` fan-out is one engine
over the global file) are one check with another candidate.  A run shows
one :class:`Observables`: rows (values *and* order) and columns, every
``PageCountObservation.fingerprint()`` with its mechanism details, and
physical counters — reads, the per-operator stats tree (actual rows,
pages touched, predicate evaluations: the Fig. 7/9 overhead currency)
and, for an operator tree run by :func:`drive`, every integer charge of
a :class:`TallyIO`, evictions, sampler draws and filter counters.
:func:`diff_results` reports every difference.  Simulated ``cpu_ms`` is
excluded: batched charging adds the same totals in fewer float additions.

:func:`compare_query` is the §V-B walk over two sides, each an
``(engine, exec_mode)`` pair.  A candidate that is a ``ShardCoordinator``
may differ from one engine only where a fan-out must: physical counters
(N shard B-trees have their own heights), mechanism details and
instruments (they describe shard files), inexact estimates within
:data:`SHARD_INEXACT_RTOL`, and leaf counts, which do not sum
(:func:`~repro.core.feedback.unsummable`).  :func:`pairwise` samples a
test grid so that every pair of axis values appears in some row.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import product
from typing import Any, Callable, Mapping, Optional, Sequence

from repro.catalog.catalog import Database
from repro.core.feedback import FeedbackRecord, FeedbackStore, unsummable
from repro.core.requests import PageCountObservation, PageCountRequest
from repro.engine import Engine
from repro.exec.base import ExecutionContext, Operator
from repro.exec.batch import DEFAULT_BATCH_ROWS
from repro.exec.executor import DEFAULT_EXEC_MODE, EXEC_MODES, QueryResult
from repro.exec.runstats import OperatorStats
from repro.harness.methodology import default_requests
from repro.lifecycle.plan import build_optimizer
from repro.optimizer.hints import PlanHint
from repro.optimizer.injection import InjectionSet
from repro.optimizer.plans import PlanNode
from repro.shard.coordinator import ShardCoordinator
from repro.storage.accounting import IOContext
from repro.workloads.queries import GeneratedQuery

#: Relative tolerance for merged *inexact* estimates (DPSAMPLE at a
#: fraction < 1, LINEAR_COUNTING): every k-th page of N shard files is not
#: every k-th page of one file, and ``-m·ln(V/m)`` is not additive.  Exact
#: mechanisms match to the bit (``dpsample_fraction=1.0`` is bit-exact).
SHARD_INEXACT_RTOL = 0.10


class TallyIO(IOContext):
    """An IOContext that also totals the integer units of every charge."""

    def __init__(self) -> None:
        super().__init__()
        self.units: Counter = Counter()


def _tallying(name: str) -> Callable[..., None]:
    charge = getattr(IOContext, name)

    def tally(self: TallyIO, units: int = 1) -> None:
        self.units[name] += units
        charge(self, units)

    return tally


for _name in [name for name in vars(IOContext) if name.startswith("charge_")]:
    setattr(TallyIO, _name, _tallying(_name))


class _Approx:
    """An inexact count: equal to any within :data:`SHARD_INEXACT_RTOL`."""

    def __init__(self, value: Optional[float]) -> None:
        self.value = value

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _Approx):
            return NotImplemented
        if self.value is None or other.value is None:
            return self.value == other.value
        rtol = SHARD_INEXACT_RTOL
        return math.isclose(self.value, other.value, rel_tol=rtol, abs_tol=rtol)

    def __repr__(self) -> str:
        return f"~{self.value!r}"


def _observation_view(observation: PageCountObservation, fan_out: bool) -> tuple:
    if not fan_out:
        details = sorted((k, repr(v)) for k, v in observation.details.items())
        return (*observation.fingerprint(), tuple(details))
    estimate = observation.estimate
    return (
        observation.key,
        observation.mechanism.value,
        observation.answered,
        observation.reason,
        estimate if observation.exact else _Approx(estimate),
        observation.exact,
        observation.remembered,
    )


def _record_view(record: FeedbackRecord, fan_out: bool) -> tuple:
    # A merged record's instrument is unknown, so a fan-out's is not compared.
    count = record.page_count
    return (
        count if record.page_count_exact or not fan_out else _Approx(count),
        record.page_count_exact,
        record.cardinality,
        record.mechanism,
        record.partial,
        None if fan_out else record.instrument,
    )


def _stats_rows(stats: OperatorStats, path: str = "") -> list[tuple]:
    """The stats tree in pre-order: one row per operator."""
    label = f"{path}/{stats.operator}"
    counters = (stats.actual_rows, stats.pages_touched, stats.predicate_evaluations)
    rows = [(label, *counters)]
    for index, child in enumerate(stats.children):
        rows.extend(_stats_rows(child, f"{label}[{index}]"))
    return rows


@dataclass
class Observables:
    """Everything one run of a plan shows, labelled with its side."""

    label: str
    columns: tuple[str, ...]
    rows: list[tuple]
    observations: list[PageCountObservation]
    #: What a deployment's physical layout decides (reads, the stats tree,
    #: charge units, evictions, sampler draws, filter counters).
    physical: dict[str, Any] = field(default_factory=dict)
    #: A shard fan-out's merged run (see the module docstring).
    fan_out: bool = False

    @classmethod
    def of(
        cls, result: QueryResult, label: str, fan_out: bool = False
    ) -> "Observables":
        """The observables of one :func:`~repro.exec.executor.execute` run."""
        stats = result.runstats
        reads = (stats.logical_reads, stats.random_reads, stats.sequential_reads)
        physical = {"reads": (*reads, stats.pool_hits), "stats": _stats_rows(stats.root)}
        columns, observations = tuple(result.columns), list(stats.observations)
        return cls(label, columns, result.rows, observations, physical, fan_out)


def _monitor_counters(root: Operator) -> tuple[list[tuple], list[tuple]]:
    """``(pages_seen, pages_sampled)`` of every DPSample sampler and
    ``(probes, inserts, bits_set)`` of every bit-vector filter (a join's,
    or one a scan bundle probes) under ``root``, in pre-order."""
    draws: list[tuple] = []
    filters: dict[int, Any] = {}
    stack = [root]
    while stack:
        operator = stack.pop()
        bundle = getattr(operator, "bundle", None)
        sampler = getattr(bundle, "sampler", None)
        if sampler is not None:
            draws.append((sampler.pages_seen, sampler.pages_sampled))
        probed = [f for _, f in getattr(bundle, "bitvector_probes", list)()]
        for bits in [getattr(operator, "bitvector", None), *probed]:
            if bits is not None:
                filters.setdefault(id(bits), bits)
        stack.extend(reversed(list(operator.children())))
    return draws, [(f.probes, f.inserts, f.bits_set) for f in filters.values()]


def drive(
    database: Database,
    make_root: Callable[[], Operator],
    exec_mode: str = DEFAULT_EXEC_MODE,
    batch_rows: int = DEFAULT_BATCH_ROWS,
) -> Observables:
    """Run a fresh ``make_root()`` in one drive, ``batch_rows`` to a chunk,
    charging a fresh :class:`TallyIO` (a cold cache); every observable."""
    io = TallyIO()
    root = make_root()
    ctx = ExecutionContext(database=database, io=io, batch_rows=batch_rows)
    if exec_mode == "row":
        rows = list(root.rows(ctx))
    else:
        rows = [row for batch in root.batches(ctx) for row in batch.rows]
    root.finalize(ctx)
    draws, filters = _monitor_counters(root)
    physical = {
        "reads": (io.random_reads, io.sequential_reads, io.pool_hits),
        "evictions": io.evictions,
        "units": io.units,
        "stats": _stats_rows(root.collect_stats()),
        "sampler draws": draws,
        "filter counters": filters,
    }
    return Observables(
        exec_mode, tuple(root.output_columns), rows, list(ctx.observations), physical
    )


def drive_both(
    database: Database,
    make_root: Callable[[], Operator],
    batch_rows: int = DEFAULT_BATCH_ROWS,
) -> tuple[Observables, Observables]:
    """:func:`drive` a fresh root in the row and then the batch drive."""
    row, batch = (drive(database, make_root, mode, batch_rows) for mode in EXEC_MODES)
    return row, batch


def _labels(reference: Observables, candidate: Observables) -> str:
    """``"row={!r} batch={!r}"``: how a difference names the two runs."""
    return f"{reference.label}={{!r}} {candidate.label}={{!r}}"


def _diff_values(name: str, reference: Any, candidate: Any, labels: str) -> list[str]:
    """``name``'s differences; equal-length lists and dicts per entry."""
    if reference == candidate:
        return []
    if isinstance(reference, dict) and isinstance(candidate, dict):
        return [
            f"{name} {key}: {labels.format(reference.get(key), candidate.get(key))}"
            for key in sorted(reference.keys() | candidate.keys())
            if reference.get(key) != candidate.get(key)
        ]
    if isinstance(reference, list) and isinstance(candidate, list):
        if len(reference) == len(candidate):
            return [
                f"{name}[{index}]: {labels.format(ours, theirs)}"
                for index, (ours, theirs) in enumerate(zip(reference, candidate))
                if ours != theirs
            ]
    return [f"{name}: {labels.format(reference, candidate)}"]


def diff_results(
    reference: Observables, candidate: Observables, context: str = ""
) -> list[str]:
    """Every observable difference between two runs of one plan; a
    fan-out candidate is held only to what a fan-out reports."""
    labels, fan_out = _labels(reference, candidate), candidate.fan_out
    mismatches = _diff_values("columns", reference.columns, candidate.columns, labels)
    if reference.rows != candidate.rows:
        counts = labels.format(len(reference.rows), len(candidate.rows))
        reordered = len(reference.rows) == len(candidate.rows)
        mismatches.append(
            f"result rows differ ({counts}"
            + (", same length but different content/order)" if reordered else ")")
        )
    mismatches += _diff_values(
        "observations",
        [_observation_view(o, fan_out) for o in reference.observations],
        [_observation_view(o, fan_out) for o in candidate.observations],
        labels,
    )
    if not fan_out:
        mismatches += _diff_values(
            "physical", reference.physical, candidate.physical, labels
        )
    return [f"{context}: {m}" if context else m for m in mismatches]


def _diff_harvests(reference: Observables, candidate: Observables) -> list[str]:
    """The records each run's observations leave in a fresh
    :class:`FeedbackStore`, and whether the harvest moved its epoch."""

    def stored(run: Observables) -> dict[str, Any]:
        store = FeedbackStore()
        store.record_observations(run.observations)
        view: dict[str, Any] = {"epoch": store.epoch}
        for key in store.keys():
            record = store.record(key)
            view[key] = record and _record_view(record, candidate.fan_out)
        return view

    ours, theirs = stored(reference), stored(candidate)
    labels = _labels(reference, candidate)
    return [
        f"feedback harvest: {mismatch}"
        for mismatch in _diff_values("store", ours, theirs, labels)
    ]


@dataclass
class QueryEquivalence:
    """One query's comparison of two sides."""

    label: str
    mismatches: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches


@dataclass
class EquivalenceReport:
    """Workload-level equivalence verdict."""

    queries: list[QueryEquivalence] = field(default_factory=list)
    title: str = "equivalence"

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


#: One side of a comparison: an engine and the drive it runs plans in.
Side = tuple[Engine, str]


def _side_label(side: Side) -> str:
    engine, exec_mode = side
    if isinstance(engine, ShardCoordinator):
        return f"{exec_mode} on {engine.num_shards} {engine.spec.strategy} shards"
    return exec_mode


def compare_query(
    reference: Side,
    candidate: Side,
    generated: GeneratedQuery,
    base_injections: Optional[InjectionSet] = None,
    hint: Optional[PlanHint] = None,
) -> QueryEquivalence:
    """Walk one query through §V-B on both sides, each run one cold
    :meth:`~repro.engine.Engine.execute_plan`: the accurate-
    cardinality plan P monitored (its
    :func:`~repro.harness.methodology.default_requests`), both runs'
    harvests compared store to store, P′ re-planned on each side from
    its own observations (the renders must match), P′ unmonitored.

    ``hint`` pins both plans to one physical shape, which is how index
    plans are proven on workloads whose cheapest plan is a scan.
    """
    database = reference[0].database
    injections = generated.injections(base_injections)
    query = generated.query
    entry = QueryEquivalence(label=generated.label)

    def run(
        plan: PlanNode, requests: Sequence[PageCountRequest], context: str
    ) -> list[Observables]:
        ours, theirs = runs = [
            Observables.of(
                engine.execute_plan(
                    query, plan, requests=requests, exec_mode=mode
                ).result,
                _side_label((engine, mode)),
                fan_out=isinstance(engine, ShardCoordinator),
            )
            for engine, mode in (reference, candidate)
        ]
        if theirs.fan_out:
            # A leaf count does not survive the fan-out: the reference is
            # the run as a deployment can report it.
            ours.observations = [unsummable(o) or o for o in ours.observations]
        entry.mismatches.extend(diff_results(ours, theirs, context))
        return runs

    def improve(side: Observables) -> PlanNode:
        corrected = injections.copy()
        corrected.absorb_observations(side.observations)
        optimizer = build_optimizer(database, injections=corrected, hint=hint)
        return optimizer.optimize(query)

    plan = build_optimizer(database, injections=injections, hint=hint).optimize(query)
    monitored = run(plan, default_requests(database, query), "monitored P")
    entry.mismatches.extend(_diff_harvests(*monitored))
    ours, theirs = (improve(side) for side in monitored)
    if ours.render() != theirs.render():
        entry.mismatches.append(
            f"improved plan P' diverged: {monitored[0].label} feedback chose "
            f"{ours.render()!r}, {monitored[1].label} feedback chose "
            f"{theirs.render()!r}"
        )
    else:
        run(ours, (), "unmonitored P'")
    return entry


def compare_workload(
    reference: Side,
    candidate: Side,
    workload: Sequence[GeneratedQuery],
    base_injections: Optional[InjectionSet] = None,
    hint: Optional[PlanHint] = None,
) -> EquivalenceReport:
    """:func:`compare_query` for every query of a workload."""
    return EquivalenceReport(
        queries=[
            compare_query(reference, candidate, generated, base_injections, hint)
            for generated in workload
        ],
        title=f"{_side_label(reference)}≡{_side_label(candidate)} equivalence",
    )


def pairwise(
    axes: Mapping[str, Sequence[Any]], crossed: int = 2
) -> list[dict[str, Any]]:
    """A deterministic sample of the cross product of ``axes`` in which
    every pair of values of two different axes appears in some row, and
    the first ``crossed`` axes appear in every combination.

    In-parameter-order growth: the cross of the first ``crossed`` axes,
    then one axis at a time, each row taking the value that covers the
    most still-uncovered pairs (on a tie, the value fewest rows took so
    far, then the first), and new rows for the pairs no row could take.
    Rows are dicts in axis order.
    """
    names = list(axes)
    sizes = [len(axes[name]) for name in names]
    crossed = max(crossed, 2)
    rows: list[list[Optional[int]]] = [
        list(combination) for combination in product(*map(range, sizes[:crossed]))
    ]
    for position in range(crossed, len(names)):

        def pairs(row: list[Optional[int]], mine: int) -> set[tuple[int, int, int]]:
            return {
                (other, value, mine)
                for other, value in enumerate(row[:position])
                if value is not None
            }

        uncovered = {
            (other, value, mine)
            for other in range(position)
            for value in range(sizes[other])
            for mine in range(sizes[position])
        }
        uses = [0] * sizes[position]
        for row in rows:
            best = max(
                range(sizes[position]),
                key=lambda mine: (
                    len(pairs(row, mine) & uncovered), -uses[mine], -mine
                ),
            )
            row.append(best)
            uses[best] += 1
            uncovered -= pairs(row, best)
        added: list[list[Optional[int]]] = []
        for other, value, mine in sorted(uncovered):
            for row in added:
                if row[position] == mine and row[other] is None:
                    row[other] = value
                    break
            else:
                row = [None] * position + [mine]
                row[other] = value
                added.append(row)
        rows.extend(added)
    return [
        {name: axes[name][index or 0] for name, index in zip(names, row)}
        for row in rows
    ]
