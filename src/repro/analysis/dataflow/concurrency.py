"""Tier-3 concurrency rule C003: no blocking call inside a service coroutine.

The engine runs every query on its one execution thread
(docs/architecture.md); the asyncio loop in ``service/`` only admits,
awaits and replies.  C003 flags calls inside ``service/`` coroutines
that resolve — transitively, through sync call edges — to a blocking
operation (``Session.run``/``Engine.execute``-class work,
``time.sleep``, file I/O, a lock's ``acquire``/``wait``) without an
executor hop.  Handing a function *reference* to
``loop.run_in_executor`` is the sanctioned idiom and creates no call
edge, so it is naturally clean.
"""

from __future__ import annotations

import ast
from typing import Optional

from repro.analysis.dataflow.callgraph import FunctionInfo, Program, dotted_chain
from repro.analysis.dataflow.worklist import propagate
from repro.analysis.findings import Finding, Severity

#: Known CPU/IO-heavy synchronous entry points that must never run on
#: the event loop (the paper's execution feedback comes from running
#: whole plans; these are the "run a plan" doors).
_BLOCKING_SEEDS: frozenset[tuple[str, str]] = frozenset(
    {
        ("Session", "run"),
        ("Session", "run_plan"),
        ("Engine", "execute"),
        ("Engine", "execute_plan"),
        ("Engine", "run_serial"),
        ("Engine", "shutdown"),
    }
)

_PATH_IO_LEAVES = frozenset(
    {"read_text", "write_text", "read_bytes", "write_bytes"}
)


def _in_dir(file: str, directory: str) -> bool:
    return f"/{directory}/" in f"/{file}"


def _is_blocking_primitive(
    call: ast.Call, info: FunctionInfo, program: Program
) -> Optional[str]:
    """Name of the blocking primitive this call performs, if any."""
    chain = dotted_chain(call.func)
    if chain is None:
        return None
    if chain == ("time", "sleep"):
        return "time.sleep"
    if chain == ("open",):
        return "open"
    if chain[0] == "subprocess":
        return ".".join(chain)
    if chain[-1] in _PATH_IO_LEAVES and len(chain) >= 2:
        return ".".join(chain[-2:])
    if chain[-1] == "shutdown":
        for keyword in call.keywords:
            if (
                keyword.arg == "wait"
                and isinstance(keyword.value, ast.Constant)
                and keyword.value.value is True
            ):
                return ".".join(chain) + "(wait=True)"
    if (
        chain[-1] in {"wait", "wait_for", "acquire"}
        and len(chain) == 3
        and chain[0] == "self"
        and info.cls is not None
    ):
        cls = program.classes.get(info.cls)
        if cls is not None and chain[1] in cls.lock_attrs:
            return ".".join(chain[1:])
    return None


def _blocking_closure(program: Program) -> dict[str, str]:
    """Functions that (transitively, via sync callers) perform blocking
    work, mapped to a human-readable reason."""
    reasons: dict[str, str] = {}
    for cls_name, method_name in _BLOCKING_SEEDS:
        qualname = program.method(cls_name, method_name)
        if qualname is not None:
            reasons[qualname] = f"{cls_name}.{method_name}"
    for info in program.functions.values():
        if info.is_async:
            continue
        for site in info.calls:
            primitive = _is_blocking_primitive(site.node, info, program)
            if primitive is not None:
                reasons.setdefault(info.qualname, primitive)
                break
    sync_reverse: dict[str, set[str]] = {}
    for callee, callers in program.reverse_edges().items():
        sync_reverse[callee] = {
            caller
            for caller in callers
            if not program.functions[caller].is_async
        }
    for member in propagate(set(reasons), sync_reverse):
        if member not in reasons:
            for callee in program.edges.get(member, set()):
                if callee in reasons:
                    reasons[member] = reasons[callee]
                    break
            else:
                reasons[member] = "blocking callee"
    return reasons


def check_blocking_in_service(program: Program) -> list[Finding]:
    """C003: blocking work reachable from a service coroutine."""
    blocking = _blocking_closure(program)
    findings: list[Finding] = []
    for info in program.functions.values():
        if not info.is_async or not _in_dir(info.file, "service"):
            continue
        seen_lines: set[int] = set()
        for site in info.calls:
            reason: Optional[str] = None
            primitive = _is_blocking_primitive(site.node, info, program)
            if primitive is not None:
                reason = primitive
            else:
                for target in site.targets:
                    if target in blocking:
                        label = target.rsplit("::", 1)[-1]
                        reason = f"{label} (via {blocking[target]})"
                        break
            if reason is None or site.line in seen_lines:
                continue
            seen_lines.add(site.line)
            findings.append(
                Finding(
                    rule="C003",
                    severity=Severity.ERROR,
                    message=(
                        f"blocking call {reason} reachable inside service "
                        f"coroutine {info.name}() without an executor hop"
                    ),
                    file=info.file,
                    line=site.line,
                    location=info.qualname.rsplit("::", 1)[-1],
                    hint=(
                        "hand the callable to loop.run_in_executor(...) "
                        "instead of calling it on the event loop"
                    ),
                )
            )
    return findings
