"""The regret watchdog: checkpoint-boundary divergence detection.

A :class:`RegretWatchdog` implements the executor's
:class:`~repro.exec.base.ExecutionWatchdog` seam.  :meth:`attach` walks
the built operator tree and latches onto every monitored scan (the
operators that host a :class:`~repro.core.monitors.ScanMonitorBundle`),
computing — with the *same* estimators the optimizer used — the DPC
baseline each monitored request was planned under.  :meth:`observe` then
runs at every ``ctx.checkpoint()``: it linearly projects each streaming
counter to end-of-scan (``satisfied * total_pages / pages_seen``) and
compares the projection against the baseline with the shared q-error
guard (:func:`~repro.core.selftuning.guarded_ratio`).  The trip
condition is deliberately conservative — PLANSIEVE-style incremental
thresholds with hysteresis, fixed by this module's constants — so
well-estimated queries never pay more than the checks themselves:
:data:`HYSTERESIS_CHECKS` consecutive evaluations, each past both
progress guards (:data:`MIN_PAGES`, :data:`MIN_PROGRESS_FRACTION`), must
see some request's projection off by at least :data:`TRIP_RATIO`.  The
watchdog then raises :class:`~repro.common.errors.ReoptRequested`
itself, which the episode runner catches; the caller's cancellation
token is never touched.

Every evaluation charges one monitor check to the execution's own
IOContext, so the watchdog's overhead is visible in simulated time like
any other monitor's (the uncorrelated-workload overhead gate in
``benchmarks/smoke_reopt.py`` measures exactly this).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.catalog.catalog import Database
from repro.common.errors import ReoptRequested
from repro.core.monitors import ScanMonitorBundle
from repro.core.requests import AccessPathRequest
from repro.core.selftuning import guarded_ratio
from repro.exec.base import Operator
from repro.exec.scans import SeqScan, _MonitoredScanMixin
from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.estimators import PageCountEstimator
from repro.optimizer.injection import InjectionSet
from repro.storage.accounting import IOContext

#: Minimum q-error between projected and estimated DPC for a checkpoint
#: to count as a breach (2.0 = off by 2x either way).
TRIP_RATIO = 2.0
#: Consecutive breaching evaluations required before tripping (one flat
#: page cannot trip a scan).
HYSTERESIS_CHECKS = 3
#: Fraction of the table a scan must have covered before its projection
#: is trusted at all.
MIN_PROGRESS_FRACTION = 0.05
#: Absolute floor on pages seen (small tables never trip).
MIN_PAGES = 8


@dataclass
class WatchTarget:
    """One monitored scan the watchdog projects counters for."""

    operator: Operator  # a _MonitoredScanMixin scan, kept as Operator
    bundle: ScanMonitorBundle
    table_name: str
    total_pages: int
    #: request key -> the DPC the optimizer planned this request under.
    baselines: dict[str, float] = field(default_factory=dict)
    #: Set when the scan was armed for prefix replay (resume).
    resume_key_column: Optional[str] = None

    @property
    def pages_seen(self) -> int:
        return self.operator.stats.pages_touched


def _walk(operator: Operator) -> list[Operator]:
    out = [operator]
    for child in operator.children():
        out.extend(_walk(child))
    return out


class RegretWatchdog:
    """Observes checkpoint boundaries; raises a trip on sustained regret."""

    def __init__(
        self,
        database: Database,
        injections: Optional[InjectionSet] = None,
    ) -> None:
        """``injections`` must be the ones the plan under watch was
        optimized from, so baselines reproduce the optimizer's own numbers
        (regret is measured against what the optimizer believed, not
        against some fresher estimate)."""
        self._cardinality = CardinalityEstimator(database, injections)
        self._pages = PageCountEstimator(database, injections)
        self.targets: list[WatchTarget] = []
        self.trip_detail = ""
        self._consecutive_breaches = 0

    # ------------------------------------------------------------------
    def attach(self, root: Operator) -> int:
        """Latch onto ``root``'s monitored scans; returns how many.

        Called by the lifecycle's ``run_plan`` between monitor planning
        and execution, so the watchdog sees exactly the bundles the run
        will feed.  Scans over tables with a unique single-column
        clustered key are additionally armed for resume tracking (the
        per-page key recording that makes the consumed prefix
        replayable).
        """
        for operator in _walk(root):
            if not isinstance(operator, _MonitoredScanMixin):
                continue
            bundle = operator.bundle
            if not isinstance(bundle, ScanMonitorBundle):
                # Fetch-side bundles (covering scans, seek fetches) count
                # *data* pages off an index-driven stream; their pages_seen
                # progress is in index-page units, so a linear projection
                # against the table's page count would be unit-mismatched.
                continue
            table = operator.table
            target = WatchTarget(
                operator=operator,  # type: ignore[arg-type]
                bundle=bundle,
                table_name=table.name,
                total_pages=table.num_pages,
            )
            for progress in bundle.progress():
                request = progress.request
                if not isinstance(request, AccessPathRequest):
                    continue  # join baselines need join cardinalities;
                    # bit-vector counters stay harvest-only.
                fetched = self._cardinality.estimate_selection(
                    request.table, request.expression
                )
                baseline, _source = self._pages.access_dpc(
                    request.table, request.expression, fetched
                )
                target.baselines[request.key()] = baseline
            self._enable_resume_tracking(operator, target)
            self.targets.append(target)
        return len(self.targets)

    def _enable_resume_tracking(
        self, operator: _MonitoredScanMixin, target: WatchTarget
    ) -> None:
        """Turn on per-page clustering-key recording where replay is legal.

        Only plain full scans of a table clustered on a single *unique*
        column qualify: uniqueness makes ``key <= resume_key`` an exact
        description of the scanned prefix (a duplicated boundary key
        could straddle the stop page).
        """
        if not isinstance(operator, SeqScan):
            return
        table = operator.table
        index = table.clustered_index
        if index is None or len(index.key_columns) != 1:
            return
        key_column = index.key_columns[0]
        stats = table.statistics
        if stats is None:
            return
        if stats.estimate_distinct(key_column) < stats.row_count:
            return
        operator.resume_tracking = True
        operator.resume_key_position = table.schema.position(key_column)
        target.resume_key_column = key_column

    def resume_target(self) -> Optional[WatchTarget]:
        """The armed scan with a recorded replay boundary, if any."""
        for target in self.targets:
            if (
                target.resume_key_column is not None
                and target.operator.resume_key is not None  # type: ignore[attr-defined]
            ):
                return target
        return None

    # ------------------------------------------------------------------
    def observe(self, io: IOContext) -> None:
        """One checkpoint-boundary evaluation (ExecutionWatchdog seam);
        raises :class:`~repro.common.errors.ReoptRequested` on a trip."""
        io.charge_monitor_checks(1)
        breach = self._worst_divergence()
        if breach is None:
            self._consecutive_breaches = 0
            return
        self._consecutive_breaches += 1
        if self._consecutive_breaches < HYSTERESIS_CHECKS:
            return
        key, ratio, projected, baseline, progress = breach
        self.trip_detail = (
            f"{key}: projected {projected:.1f} vs estimated {baseline:.1f} "
            f"pages (q-error {ratio:.2f} >= {TRIP_RATIO}) at "
            f"{progress:.0%} progress"
        )
        raise ReoptRequested(self.trip_detail)

    def _worst_divergence(
        self,
    ) -> Optional[tuple[str, float, float, float, float]]:
        """The largest qualifying divergence this checkpoint, or None.

        Returns ``(request key, ratio, projected, baseline, progress)``
        for the worst request whose ratio clears the trip threshold,
        considering only targets past both progress guards.
        """
        worst: Optional[tuple[str, float, float, float, float]] = None
        for target in self.targets:
            if not target.baselines:
                continue
            pages_seen = target.pages_seen
            if pages_seen < MIN_PAGES or target.total_pages == 0:
                continue
            progress = pages_seen / target.total_pages
            if progress < MIN_PROGRESS_FRACTION:
                continue
            scale = target.total_pages / pages_seen
            for monitor_progress in target.bundle.progress():
                key = monitor_progress.request.key()
                baseline = target.baselines.get(key)
                if baseline is None:
                    continue
                projected = monitor_progress.satisfied_pages * scale
                ratio = guarded_ratio(projected, baseline)
                if ratio < TRIP_RATIO:
                    continue
                if worst is None or ratio > worst[1]:
                    worst = (key, ratio, projected, baseline, progress)
        return worst
