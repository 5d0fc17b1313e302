"""The declared metrics, and which spans each per-layer metric needs.

``BENCHMARK.json`` at the repo root is the one place that writes down the
workload names and every metric's name, unit, direction and bound;
:func:`declared` reads it.  Later issues refer to workloads and metrics by
those names.  Only what the driver's file has no room for lives here.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path
from typing import Any, NamedTuple

ROOT = Path(__file__).resolve().parents[2]


class Declared(NamedTuple):
    workloads: tuple[str, ...]
    #: ``{"name", "unit", "better", "bound"}`` per metric; ``bound`` is the
    #: share of the parent's median by which the metric may worsen.
    end_to_end: tuple[dict[str, Any], ...]
    #: ``{"name", "unit", "better"}`` per metric.
    per_layer: tuple[dict[str, Any], ...]
    run_seconds: int


@functools.cache
def declared() -> Declared:
    document = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return Declared(
        tuple(workload["name"] for workload in document["workloads"]),
        tuple(document["end_to_end"]),
        tuple(document["per_layer"]),
        document["run_seconds"],
    )


#: Wall-clock metrics of the untraced measurement.  They are declared
#: per-layer (no bound): this sandbox cannot hold 10 % on them (README).
WALL = ("ops_per_s", "latency_p50_ms", "latency_p95_ms")

#: Exact per-op counts read off ``RunStats`` in every trial (traced or
#: not): the storage layer's metrics, also compared bit-for-bit by ``--aa``.
STORAGE_COUNTERS = (
    "storage.physical_reads_per_op",
    "storage.logical_reads_per_op",
    "storage.sim_io_ms_per_op",
    "storage.sim_cpu_ms_per_op",
)

#: Span names of the planning stage, outermost first.
_PLAN = ("lifecycle.plan", "lifecycle.canonicalize", "core.feedback.snapshot",
         "lifecycle.plancache")
_ENGINE = ("engine.execute", "lifecycle.plan", "core.planner.build",
           "exec.execute", "core.feedback.record_run")
_HANDLE = ("service.handle", "sql.parse", "engine.execute",
           "exec.runstats.to_dict")

#: Per-layer metric -> the span names it is derived from (self times also
#: need the children's spans).  A hook that could not be installed drops
#: every metric that needs its span; metrics not listed need no span.
SPANS: dict[str, tuple[str, ...]] = {
    "sql.parse.ms_per_op": ("sql.parse",),
    "lifecycle.canonicalize.ms_per_op": ("lifecycle.canonicalize",),
    "lifecycle.plan.self_ms_per_op": _PLAN,
    "lifecycle.plancache.self_ms_per_op": (
        "lifecycle.plancache", "optimizer.optimize", "analysis.planlint"),
    "optimizer.optimize.ms_per_call": ("optimizer.optimize",),
    "optimizer.optimize.calls_per_op": ("optimizer.optimize",),
    "analysis.planlint.ms_per_call": ("analysis.planlint",),
    "core.planner.build_ms_per_op": ("core.planner.build",),
    "core.feedback.record_run.ms_per_op": ("core.feedback.record_run",),
    "core.feedback.snapshot.ms_per_op": ("core.feedback.snapshot",),
    "exec.execute.ms_per_op": ("exec.execute",),
    "exec.execute.share_pct": ("exec.execute",),
    "exec.rows_per_s": ("exec.execute",),
    "exec.runstats.to_dict.ms_per_op": ("exec.runstats.to_dict",),
    "engine.execute.self_ms_per_op": _ENGINE,
    "service.handle.self_ms_per_op": _HANDLE,
    "service.protocol.encode_ms_per_op": ("service.protocol.encode",),
    "service.protocol.decode_ms_per_op": ("service.protocol.decode",),
}
