"""Outside-in layer trace: spans around calls into each layer's public functions.

Nothing under ``src/`` is edited.  :data:`LAYER_HOOKS` names each hooked
function *at its use site* (the module whose global — or the class whose
attribute — the caller actually looks up), and :class:`Tracer` swaps in a
timing wrapper with ``setattr`` for the duration of a traced trial only;
end-to-end metrics are always measured with no hook installed.

A span is ``(id, name, parent, thread, start, end, request_id, op)``.  Parents
come from a thread-local stack of open spans.  The service hops from the
event loop to an executor thread whose stack is empty, so those spans are
re-parented afterwards to the ``service.handle`` span whose request id is
the op they fall in (:func:`resolve`).  Self time is a span's duration
minus the part of that interval its children cover.
"""

from __future__ import annotations

import bisect
import importlib
import inspect
import itertools
import json
import sys
import threading
from time import perf_counter
from typing import Any, Callable, Iterable, NamedTuple, Sequence

#: (span name, use-site module, attribute path inside that module).
LAYER_HOOKS: tuple[tuple[str, str, str], ...] = (
    ("sql.parse", "repro.service.service", "parse_query"),
    ("lifecycle.plan", "repro.lifecycle.runner", "QueryLifecycle.plan"),
    ("lifecycle.canonicalize", "repro.lifecycle.runner", "canonicalize"),
    ("lifecycle.plancache", "repro.lifecycle.plancache", "PlanCache.get_or_build"),
    ("optimizer.optimize", "repro.optimizer.optimizer", "Optimizer.optimize"),
    ("analysis.planlint", "repro.session", "Session.lint"),
    ("core.planner.build", "repro.lifecycle.runner", "build_executable"),
    ("exec.execute", "repro.lifecycle.runner", "execute"),
    ("core.feedback.record_run", "repro.core.feedback", "FeedbackStore.record_run"),
    ("core.feedback.snapshot", "repro.core.feedback",
     "FeedbackStore.snapshot_injections"),
    ("exec.runstats.to_dict", "repro.exec.runstats", "RunStats.to_dict"),
    ("engine.execute", "repro.engine.engine", "Engine.execute"),
    ("service.handle", "repro.service.service", "QueryService.handle"),
    ("service.protocol.encode", "repro.service.server", "encode_message"),
    ("service.protocol.encode", "repro.service.client", "encode_message"),
    ("service.protocol.decode", "repro.service.server", "decode_message"),
    ("service.protocol.decode", "repro.service.client", "decode_message"),
)

HANDLE_SPAN = "service.handle"


class Span(NamedTuple):
    id: int
    name: str
    parent: int  # -1 for a root
    thread: int
    start: float
    end: float
    request_id: str = ""
    op: int = -1


class Tracer:
    """Installs the hooks, collects spans in memory, removes the hooks."""

    def __init__(self, hooks: Sequence[tuple[str, str, str]] = LAYER_HOOKS) -> None:
        self.hooks = tuple(hooks)
        self.spans: list[list[Any]] = []
        #: Span names with at least one hook target missing.
        self.dropped: set[str] = set()
        self._ids = itertools.count()
        self._local = threading.local()
        self._installed: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Swap every hook in; a missing target is warned about, not fatal."""
        if self._installed:
            raise RuntimeError("tracer hooks are already installed")
        for name, module_name, path in self.hooks:
            try:
                owner: Any = importlib.import_module(module_name)
                *parents, attribute = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attribute)
            except (ImportError, AttributeError) as exc:
                if name not in self.dropped:
                    print(
                        f"trace: hook {name} dropped ({module_name}:{path} "
                        f"not found: {exc})",
                        file=sys.stderr,
                    )
                self.dropped.add(name)
                continue
            # Restore what the owner really held (a staticmethod object is
            # not what getattr() returns).
            raw = vars(owner).get(attribute, original)
            setattr(owner, attribute, self._wrap(name, original))
            self._installed.append((owner, attribute, raw))

    def uninstall(self) -> None:
        for owner, attribute, raw in reversed(self._installed):
            setattr(owner, attribute, raw)
        self._installed.clear()

    # ------------------------------------------------------------------
    def _wrap(self, name: str, function: Callable[..., Any]) -> Callable[..., Any]:
        spans = self.spans
        ids = self._ids
        local = self._local
        wants_request = name == HANDLE_SPAN

        def open_span(args: tuple[Any, ...]) -> list[Any]:
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            request_id = ""
            if wants_request and len(args) > 1:
                request_id = str(getattr(args[1], "request_id", ""))
            record = [
                next(ids), name, stack[-1][0] if stack else -1,
                threading.get_ident(), 0.0, 0.0, request_id,
            ]
            stack.append(record)
            record[4] = perf_counter()
            return record

        def close_span(record: list[Any]) -> None:
            record[5] = perf_counter()
            stack = local.stack
            if stack and stack[-1] is record:
                stack.pop()
            else:  # coroutines may finish out of stack order
                stack.remove(record)
            spans.append(record)

        if inspect.iscoroutinefunction(function):
            async def traced_async(*args: Any, **kwargs: Any) -> Any:
                record = open_span(args)
                try:
                    return await function(*args, **kwargs)
                finally:
                    close_span(record)

            return traced_async

        def traced(*args: Any, **kwargs: Any) -> Any:
            record = open_span(args)
            try:
                return function(*args, **kwargs)
            finally:
                close_span(record)

        return traced

    def drain(self) -> list[Span]:
        """Hand over (and forget) the spans recorded so far."""
        spans = [Span(*record) for record in self.spans]
        self.spans.clear()
        return spans


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def covered_length(
    intervals: Iterable[tuple[float, float]], low: float, high: float
) -> float:
    """Length of ``[low, high]`` covered by the union of ``intervals``."""
    covered = 0.0
    edge = low
    for start, end in sorted(intervals):
        start = max(start, edge)
        end = min(end, high)
        if end > start:
            covered += end - start
            edge = end
    return covered


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.id: (span.end - span.start)
        - covered_length(children.get(span.id, ()), span.start, span.end)
        for span in spans
    }


def resolve(
    spans: Sequence[Span], windows: Sequence[tuple[float, float]]
) -> list[Span]:
    """Assign each span its op and re-parent executor-thread roots.

    ``windows[i]`` is the client-observed ``(start, end)`` of op ``i``; the
    traced trial keeps one op in flight, so windows do not overlap and a
    span belongs to the op whose window holds its start.  A root span on a
    thread other than its op's ``service.handle`` span (the executor hop)
    becomes that handle span's child; the handle span is found by request
    id, which the benchmark sets to the op's index.
    """
    starts = [window[0] for window in windows]
    placed = []
    for span in spans:
        op = bisect.bisect_right(starts, span.start) - 1
        if op < 0 or span.start > windows[op][1]:
            op = -1  # outside every op (set-up or teardown work)
        placed.append(span._replace(op=op))
    handles = {
        span.request_id: span for span in placed if span.name == HANDLE_SPAN
    }
    resolved = []
    for span in placed:
        handle = handles.get(str(span.op))
        if (
            span.parent < 0
            and handle is not None
            and span.thread != handle.thread
            and handle.start <= span.start
            and span.end <= handle.end
        ):
            span = span._replace(parent=handle.id)
        resolved.append(span)
    return resolved


def summarize(
    spans: Sequence[Span], windows: Sequence[tuple[float, float]]
) -> dict[str, Any]:
    """Per-name totals (ms) of one traced trial, plus uncovered op time."""
    spans = [span for span in resolve(spans, windows) if span.op >= 0]
    own = self_times(spans)
    names: dict[str, dict[str, float]] = {}
    roots: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        entry = names.setdefault(
            span.name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0}
        )
        entry["calls"] += 1
        entry["total_ms"] += (span.end - span.start) * 1000.0
        entry["self_ms"] += own[span.id] * 1000.0
        if span.parent < 0:
            roots.setdefault(span.op, []).append((span.start, span.end))
    op_ms = 0.0
    unattributed_ms = 0.0
    for op, (start, end) in enumerate(windows):
        op_ms += (end - start) * 1000.0
        unattributed_ms += (
            (end - start) - covered_length(roots.get(op, ()), start, end)
        ) * 1000.0
    return {
        "spans": names,
        "op_ms": op_ms,
        "unattributed_ms": unattributed_ms,
        "resolved": spans,
    }


def write_spans(path: str, spans: Iterable[Span]) -> int:
    """One JSON object per span; returns how many were written."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span._asdict(), separators=(",", ":")))
            handle.write("\n")
            count += 1
    return count


def merge_summaries(summaries: Sequence[dict[str, Any]]) -> dict[str, Any]:
    """Add up the per-trial summaries of one traced run."""
    merged: dict[str, Any] = {"spans": {}, "op_ms": 0.0, "unattributed_ms": 0.0}
    for summary in summaries:
        merged["op_ms"] += summary["op_ms"]
        merged["unattributed_ms"] += summary["unattributed_ms"]
        for name, entry in summary["spans"].items():
            total = merged["spans"].setdefault(
                name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0}
            )
            for key, value in entry.items():
                total[key] += value
    return merged


def span_total(summary: dict[str, Any], name: str, key: str) -> float:
    """``calls`` / ``total_ms`` / ``self_ms`` of a span name; 0 if never seen."""
    entry = summary["spans"].get(name)
    return 0.0 if entry is None else entry[key]
