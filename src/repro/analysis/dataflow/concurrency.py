"""Tier-3 concurrency sanitizer: C001 (lock-order cycles), C002 (lock
held across ``await``), C003 (blocking call inside a service coroutine).

The engine's concurrency contract (docs/architecture.md) is small: the
engine's own state (feedback store, plan cache, buffer pool) is touched
only by its one execution thread and has no lock, and the locks that
remain — ``WorkerPool._lock``, ``ServiceTelemetry._lock``, the worker
process's cancel lock and ``Engine._state`` — each guard one structure
and never nest across structures.  These rules mechanise it:

* **C001** builds the *lock-acquisition-order graph*: an edge L1 → L2
  whenever some function acquires L2 (directly or via a resolved call
  chain) while holding L1.  A cycle means two executions can wait on
  each other — a potential deadlock.  Re-entrant acquisition of an
  ``RLock`` is legal and skipped; re-entrant acquisition of a plain
  ``Lock``/``Condition`` is an immediate self-deadlock.
* **C002** flags a *threading* lock held across an ``await``: the
  coroutine parks with the lock held, and any thread touching that
  lock stalls for the duration of the await.
* **C003** flags calls inside ``service/`` coroutines that resolve —
  transitively, through sync call edges — to a blocking operation
  (``Session.run``/``Engine.execute``-class work, ``time.sleep``, file
  I/O, ``Condition.wait``) without an executor hop.  Handing a function
  *reference* to ``loop.run_in_executor`` is the sanctioned idiom and
  creates no call edge, so it is naturally clean.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro.analysis.dataflow.callgraph import (
    FunctionInfo,
    Program,
    dotted_chain,
    iter_own_statements,
    iter_stmt_calls,
)
from repro.analysis.dataflow.worklist import propagate
from repro.analysis.findings import Finding, Severity

#: (owner, attribute) — owner is a class name for ``self.x`` locks or a
#: ``Class.method`` qualifier for function-local locks.
LockId = tuple[str, str]

_LOCK_CTORS = {"Lock": "lock", "RLock": "rlock", "Condition": "condition"}

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


def _lock_name(lock: LockId) -> str:
    return f"{lock[0]}.{lock[1]}"


@dataclass
class _LockEdge:
    """First witness for ``held → acquired`` in the lock-order graph."""

    held: LockId
    acquired: LockId
    file: str
    line: int
    where: str


class _LockIndex:
    """Lock identities and per-function acquisition facts."""

    def __init__(self, program: Program) -> None:
        self.program = program
        #: lock id -> kind ("lock" | "rlock" | "condition" | "unknown")
        self.kinds: dict[LockId, str] = {}
        #: function qualname -> locally constructed locks (name -> id)
        self.local_locks: dict[str, dict[str, LockId]] = {}
        #: function qualname -> every lock it acquires directly
        self.direct_acquires: dict[str, set[LockId]] = {}
        for cls in program.classes.values():
            for attr, kind in cls.lock_attrs.items():
                self.kinds[(cls.name, attr)] = kind
        for info in program.functions.values():
            self._index_function(info)

    def _index_function(self, info: FunctionInfo) -> None:
        owner = info.qualname.rsplit("::", 1)[-1]
        locals_here: dict[str, LockId] = {}
        statements = list(iter_own_statements(info.node))
        for stmt in statements:
            if not (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and isinstance(stmt.value, ast.Call)
            ):
                continue
            chain = dotted_chain(stmt.value.func)
            leaf = chain[-1] if chain else None
            if leaf in _LOCK_CTORS:
                lock: LockId = (owner, stmt.targets[0].id)
                locals_here[stmt.targets[0].id] = lock
                self.kinds[lock] = _LOCK_CTORS[leaf]
        self.local_locks[info.qualname] = locals_here
        acquired: set[LockId] = set()
        for stmt in statements:
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                acquired.update(self.locks_in(stmt, info))
        self.direct_acquires[info.qualname] = acquired

    def locks_in(
        self, stmt: "ast.With | ast.AsyncWith", info: FunctionInfo
    ) -> list[LockId]:
        """Lock identities acquired by a ``with`` statement's items."""
        acquired: list[LockId] = []
        for item in stmt.items:
            chain = dotted_chain(item.context_expr)
            if chain is None:
                continue
            if len(chain) == 2 and chain[0] == "self" and info.cls is not None:
                attr = chain[1]
                lock: LockId = (info.cls, attr)
                if lock in self.kinds or "lock" in attr.lower():
                    self.kinds.setdefault(lock, "unknown")
                    acquired.append(lock)
            elif len(chain) == 1:
                local = self.local_locks.get(info.qualname, {}).get(chain[0])
                if local is not None:
                    acquired.append(local)
                elif "lock" in chain[0].lower():
                    lock = (info.qualname.rsplit("::", 1)[-1], chain[0])
                    self.kinds.setdefault(lock, "unknown")
                    acquired.append(lock)
        return acquired


def _acquire_closure(
    program: Program, index: _LockIndex
) -> dict[str, set[LockId]]:
    """Fixpoint: locks each function may acquire, transitively."""
    closure = {
        name: set(locks) for name, locks in index.direct_acquires.items()
    }
    reverse = program.reverse_edges()
    work: deque[str] = deque(closure)
    while work:
        name = work.popleft()
        combined = set(index.direct_acquires.get(name, set()))
        for callee in program.edges.get(name, set()):
            combined |= closure.get(callee, set())
        if combined != closure[name]:
            closure[name] = combined
            work.extend(reverse.get(name, set()))
    return closure


def _collect_lock_edges(
    program: Program, index: _LockIndex, closure: dict[str, set[LockId]]
) -> tuple[dict[tuple[LockId, LockId], _LockEdge], list[Finding]]:
    """Walk every function with a held-lock stack, recording order edges.

    Returns the edge map plus immediate findings for re-entrant
    acquisition of non-reentrant locks (a self-deadlock needs no cycle
    search).
    """
    edges: dict[tuple[LockId, LockId], _LockEdge] = {}
    findings: list[Finding] = []

    def record(
        held: LockId, acquired: LockId, info: FunctionInfo, line: int
    ) -> None:
        if held == acquired:
            if index.kinds.get(held) == "rlock":
                return
            findings.append(
                Finding(
                    rule="C001",
                    severity=Severity.ERROR,
                    message=(
                        f"non-reentrant lock {_lock_name(held)} may be "
                        f"re-acquired while already held in {info.name}() "
                        "— self-deadlock"
                    ),
                    file=info.file,
                    line=line,
                    location=info.qualname.rsplit("::", 1)[-1],
                )
            )
            return
        edges.setdefault(
            (held, acquired),
            _LockEdge(
                held=held,
                acquired=acquired,
                file=info.file,
                line=line,
                where=info.qualname.rsplit("::", 1)[-1],
            ),
        )

    def handle_calls(
        stmt: ast.stmt,
        info: FunctionInfo,
        held: list[LockId],
        sites: dict[int, tuple[str, ...]],
    ) -> None:
        for call in iter_stmt_calls(stmt):
            for target in sites.get(id(call), ()):
                for lock in closure.get(target, set()):
                    for holder in held:
                        record(holder, lock, info, call.lineno)

    def walk(
        stmts: Sequence[ast.stmt],
        info: FunctionInfo,
        held: list[LockId],
        sites: dict[int, tuple[str, ...]],
    ) -> None:
        for stmt in stmts:
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                if held:
                    handle_calls(stmt, info, held, sites)
                acquired = index.locks_in(stmt, info)
                for lock in acquired:
                    for holder in held:
                        record(holder, lock, info, stmt.lineno)
                walk(stmt.body, info, held + acquired, sites)
                continue
            if held:
                handle_calls(stmt, info, held, sites)
            for field_name in ("body", "orelse", "finalbody"):
                walk(getattr(stmt, field_name, []) or [], info, held, sites)
            for handler in getattr(stmt, "handlers", []) or []:
                walk(handler.body, info, held, sites)

    for info in program.functions.values():
        sites = {id(site.node): site.targets for site in info.calls}
        walk(info.node.body, info, [], sites)
    return edges, findings


def _strongly_connected(
    nodes: Iterable[LockId], succ: dict[LockId, set[LockId]]
) -> list[list[LockId]]:
    """Tarjan's SCC, iteratively; only components of size > 1 matter."""
    index_of: dict[LockId, int] = {}
    low: dict[LockId, int] = {}
    on_stack: set[LockId] = set()
    stack: list[LockId] = []
    components: list[list[LockId]] = []
    counter = 0

    for root in nodes:
        if root in index_of:
            continue
        work: list[tuple[LockId, Optional[LockId], Iterable[LockId]]] = [
            (root, None, iter(succ.get(root, set())))
        ]
        index_of[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, parent, successors_iter = work[-1]
            advanced = False
            for nxt in successors_iter:
                if nxt not in index_of:
                    index_of[nxt] = low[nxt] = counter
                    counter += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, node, iter(succ.get(nxt, set()))))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index_of[nxt])
            if advanced:
                continue
            if low[node] == index_of[node]:
                component: list[LockId] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1:
                    components.append(component)
            work.pop()
            if parent is not None:
                low[parent] = min(low[parent], low[node])
    return components


def check_lock_order(program: Program) -> list[Finding]:
    """C001: cycles in the lock-acquisition-order graph."""
    index = _LockIndex(program)
    closure = _acquire_closure(program, index)
    edges, findings = _collect_lock_edges(program, index, closure)
    succ: dict[LockId, set[LockId]] = {}
    for held, acquired in edges:
        succ.setdefault(held, set()).add(acquired)
        succ.setdefault(acquired, set())
    for component in _strongly_connected(sorted(succ), succ):
        members = set(component)
        witnesses = sorted(
            (
                edge
                for (held, acquired), edge in edges.items()
                if held in members and acquired in members
            ),
            key=lambda edge: (edge.file, edge.line),
        )
        names = " -> ".join(
            _lock_name(lock) for lock in sorted(members)
        )
        detail = "; ".join(
            f"{_lock_name(edge.held)} held while taking "
            f"{_lock_name(edge.acquired)} at {edge.file}:{edge.line}"
            for edge in witnesses[:4]
        )
        first = witnesses[0]
        findings.append(
            Finding(
                rule="C001",
                severity=Severity.ERROR,
                message=(
                    f"cycle in lock-acquisition order over {{{names}}} — "
                    f"potential deadlock ({detail})"
                ),
                file=first.file,
                line=first.line,
                location=first.where,
            )
        )
    return findings


def _contains_await(stmts: Sequence[ast.stmt]) -> bool:
    """Whether any statement awaits, ignoring nested function bodies."""
    for stmt in stmts:
        if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                if _contains_await([child]):
                    return True
            elif any(
                isinstance(grand, ast.Await) for grand in ast.walk(child)
            ):
                return True
    return False


def check_lock_across_await(program: Program) -> list[Finding]:
    """C002: a threading lock held across an ``await``."""
    index = _LockIndex(program)
    findings: list[Finding] = []
    for info in program.functions.values():
        if not info.is_async:
            continue
        for stmt in iter_own_statements(info.node):
            if not isinstance(stmt, ast.With):
                continue
            node = stmt
            if not index.locks_in(node, info):
                continue
            if not _contains_await(node.body):
                continue
            findings.append(
                Finding(
                    rule="C002",
                    severity=Severity.ERROR,
                    message=(
                        f"threading lock held across await in "
                        f"{info.name}() — the coroutine parks while "
                        "worker threads contend for the lock"
                    ),
                    file=info.file,
                    line=node.lineno,
                    location=info.qualname.rsplit("::", 1)[-1],
                )
            )
    return findings


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
