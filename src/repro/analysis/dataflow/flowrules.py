"""Tier-3 flow/coverage rules: F001 (cancellation coverage of drive
loops), F002 (resource release on all paths), F003 (no epoch bump after
an observed cancellation).

These are the invariants the ROADMAP's next steps lean on:

* **F001** — mid-query re-optimization (PLANSIEVE-style plan switching)
  can only happen at cancellation checkpoints, so every loop in
  ``exec/`` that *drives* work (charges an IOContext) must reach
  ``checkpoint()`` on every iteration.  A checkpoint guarded by a
  *boundary* condition — a modulo counter, a ``len(buffer) >= chunk``
  fill test, or a first-visit membership test — fires periodically by
  construction and counts as coverage; a checkpoint behind an arbitrary
  data-dependent guard does not.
* **F002** — an admission slot that leaks on an exceptional path wedges
  the admission controller permanently (the capacity is never given
  back); an ``IOContext`` created and then dropped on some path loses
  the execution feedback the whole paper depends on.  Both are audited
  by CFG reachability: from the acquisition, no path (normal or
  exceptional) may reach a function exit without passing a release /
  use / ownership transfer.
* **F003** — once a cancellation has been observed (an
  ``except QueryCancelled`` or ``except ReoptRequested`` handler is
  running), the run's statistics describe a *partial* execution; feeding
  them to the feedback store would bump table epochs with corrupt page
  counts.  No call in such a handler (under ``service/`` or ``reopt/``)
  may reach an epoch-bumping function.  Reopt handlers may still harvest
  partial lower bounds — ``record_partial_observations`` advances only
  the partial sequence, never the exact epoch, so it is outside the bump
  closure by construction.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Sequence

from repro.analysis.dataflow.callgraph import (
    FunctionInfo,
    Program,
    dotted_chain,
    iter_statements,
    iter_stmt_calls,
)
from repro.analysis.dataflow.cfg import CFG, build_cfg, build_loop_body_cfg
from repro.analysis.dataflow.worklist import propagate, reachable
from repro.analysis.findings import Finding, Severity

_LOOPS = (ast.For, ast.AsyncFor, ast.While)
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _short(info: FunctionInfo) -> str:
    return info.qualname.rsplit("::", 1)[-1]


# --------------------------------------------------------------------------
# F001 — drive loops must be cancellation-covered
# --------------------------------------------------------------------------


def _direct_loop_statements(
    stmts: Sequence[ast.stmt],
) -> Iterator[ast.stmt]:
    """Statements of a loop body, not descending into nested loops/defs."""
    for stmt in stmts:
        if isinstance(stmt, _DEFS):
            continue
        yield stmt
        if isinstance(stmt, _LOOPS):
            continue
        for field_name in ("body", "orelse", "finalbody"):
            yield from _direct_loop_statements(
                getattr(stmt, field_name, []) or []
            )
        for handler in getattr(stmt, "handlers", []) or []:
            yield from _direct_loop_statements(handler.body)


def _is_charge_call(call: ast.Call) -> bool:
    chain = dotted_chain(call.func)
    return chain is not None and chain[-1].startswith("charge_")


def _is_checkpoint_call(call: ast.Call) -> bool:
    chain = dotted_chain(call.func)
    return chain is not None and chain[-1] == "checkpoint"


def _is_boundary_test(test: ast.expr) -> bool:
    """Modulo counters, buffer-fill ``len`` tests, and first-visit
    membership tests fire on a data-independent cadence."""
    for node in ast.walk(test):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
            return True
        if isinstance(node, ast.Call):
            chain = dotted_chain(node.func)
            if chain is not None and chain[-1] == "len":
                return True
        if isinstance(node, ast.Compare) and any(
            isinstance(op, (ast.In, ast.NotIn)) for op in node.ops
        ):
            return True
    return False


def _has_boundary_guarded_checkpoint(
    stmts: Sequence[ast.stmt], guards_ok: bool = True
) -> bool:
    """A checkpoint whose enclosing ``if`` guards are all boundary tests."""
    for stmt in stmts:
        if isinstance(stmt, _DEFS) or isinstance(stmt, _LOOPS):
            continue
        if guards_ok:
            for call in iter_stmt_calls(stmt):
                if _is_checkpoint_call(call):
                    return True
        if isinstance(stmt, ast.If):
            branch_ok = guards_ok and _is_boundary_test(stmt.test)
            if _has_boundary_guarded_checkpoint(stmt.body, branch_ok):
                return True
            if _has_boundary_guarded_checkpoint(stmt.orelse, guards_ok):
                return True
            continue
        for field_name in ("body", "orelse", "finalbody"):
            if _has_boundary_guarded_checkpoint(
                getattr(stmt, field_name, []) or [], guards_ok
            ):
                return True
        for handler in getattr(stmt, "handlers", []) or []:
            if _has_boundary_guarded_checkpoint(handler.body, guards_ok):
                return True
    return False


def _loop_charges(loop: ast.stmt, info: FunctionInfo, program: Program) -> bool:
    """Whether the loop drives work: charges an IOContext in its body.

    Direct ``charge_*`` calls always count.  ``for`` loops additionally
    count calls to closure helpers (nested defs of the enclosing
    function) that charge — the ``flush()`` idiom; ``while`` loops do
    not, because the merge loops advance via ``next_*`` closures that
    drive their *own* audited ``for`` loops.
    """
    assert isinstance(loop, _LOOPS)
    for stmt in _direct_loop_statements(loop.body):
        for call in iter_stmt_calls(stmt):
            if _is_charge_call(call):
                return True
            if isinstance(loop, (ast.For, ast.AsyncFor)):
                chain = dotted_chain(call.func)
                if chain is None or len(chain) != 1:
                    continue
                nested_qualname = info.nested.get(chain[0])
                if nested_qualname is None and info.parent is not None:
                    parent = program.functions.get(info.parent)
                    if parent is not None:
                        nested_qualname = parent.nested.get(chain[0])
                if nested_qualname is None:
                    continue
                nested = program.functions[nested_qualname]
                if any(
                    _is_charge_call(site.node) for site in nested.calls
                ):
                    return True
    return False


def _is_stream_loop(loop: ast.stmt) -> bool:
    """``for row in child.rows(ctx)`` / ``for batch in child.batches(ctx)``
    pulls from an operator that runs its own audited drive loops."""
    if not isinstance(loop, (ast.For, ast.AsyncFor)):
        return False
    if not isinstance(loop.iter, ast.Call):
        return False
    chain = dotted_chain(loop.iter.func)
    return chain is not None and chain[-1] in {"rows", "batches"}


def _checkpoint_barrier(cfg: CFG) -> set[int]:
    barrier: set[int] = set()
    for node in cfg.statement_nodes():
        stmt = node.stmt
        assert stmt is not None
        if any(_is_checkpoint_call(call) for call in iter_stmt_calls(stmt)):
            barrier.add(node.index)
    return barrier


def _loop_is_self_covered(loop: ast.stmt) -> bool:
    """Every iteration of the loop's own body passes a checkpoint (or a
    boundary-guarded one), or the body always leaves the loop."""
    assert isinstance(loop, _LOOPS)
    cfg = build_loop_body_cfg(loop)
    if cfg.exit_normal not in reachable([cfg.entry], cfg.successors):
        # Every path leaves the loop in one iteration (the for-as-next
        # idiom) — no unbounded uncancellable run.
        return True
    barrier = _checkpoint_barrier(cfg)
    uncovered = cfg.exit_normal in reachable(
        [cfg.entry],
        cfg.successors,
        barrier=lambda index, blocked=frozenset(barrier): index in blocked,
    )
    if not uncovered:
        return True
    return _has_boundary_guarded_checkpoint(loop.body)


def _covered_by_enclosing_loop(
    loop: ast.stmt, enclosing: Sequence[ast.stmt]
) -> bool:
    """The inner loop is only reachable *after* a checkpoint within some
    enclosing loop's iteration.

    This is the engine's dominant pattern: ``for page: ctx.checkpoint();
    for row in page_rows: ...`` — the inner loop's work is bounded by
    one outer element (a page, an outer row), and the outer checkpoint
    bounds cancellation latency to that element.
    """
    for parent in enclosing:
        assert isinstance(parent, _LOOPS)
        cfg = build_loop_body_cfg(parent)
        barrier = _checkpoint_barrier(cfg)
        reach = reachable(
            [cfg.entry],
            cfg.successors,
            barrier=lambda index, blocked=frozenset(barrier): (
                index in blocked
            ),
        )
        loop_nodes = {
            node.index
            for node in cfg.statement_nodes()
            if node.stmt is loop
        }
        if loop_nodes and not (loop_nodes & reach):
            return True
    return False


def check_drive_loop_coverage(program: Program) -> list[Finding]:
    """F001: every charging loop in ``exec/`` reaches a checkpoint on
    all paths through its body — its own, boundary-guarded, or an
    enclosing loop's per-iteration checkpoint dominating its entry."""
    findings: list[Finding] = []

    def audit(
        stmts: Sequence[ast.stmt],
        info: FunctionInfo,
        enclosing: list[ast.stmt],
    ) -> None:
        for stmt in stmts:
            if isinstance(stmt, _DEFS):
                continue
            if isinstance(stmt, _LOOPS):
                if (
                    not _is_stream_loop(stmt)
                    and _loop_charges(stmt, info, program)
                    and not _loop_is_self_covered(stmt)
                    and not _covered_by_enclosing_loop(stmt, enclosing)
                ):
                    findings.append(
                        Finding(
                            rule="F001",
                            severity=Severity.ERROR,
                            message=(
                                f"drive loop in {info.name}() charges the "
                                "IOContext but has a path through its body "
                                "that reaches no checkpoint() — "
                                "cancellation (and mid-query "
                                "re-optimization) cannot interrupt it"
                            ),
                            file=info.file,
                            line=stmt.lineno,
                            location=_short(info),
                            hint=(
                                "call ctx.checkpoint() on every iteration, "
                                "or guard it with a boundary test (modulo "
                                "counter, len() fill check, first-visit "
                                "membership)"
                            ),
                        )
                    )
                audit(stmt.body, info, enclosing + [stmt])
                audit(stmt.orelse, info, enclosing)
                continue
            for field_name in ("body", "orelse", "finalbody"):
                audit(getattr(stmt, field_name, []) or [], info, enclosing)
            for handler in getattr(stmt, "handlers", []) or []:
                audit(handler.body, info, enclosing)

    for info in program.functions.values():
        if "/exec/" not in f"/{info.file}":
            continue
        audit(list(info.node.body), info, [])
    return findings


# --------------------------------------------------------------------------
# F002 — acquired slots / IOContexts settle on every path
# --------------------------------------------------------------------------


def _acquired_resource(stmt: ast.stmt) -> Optional[tuple[str, str]]:
    """``(kind, name)`` if the statement binds a tracked resource."""
    if not (
        isinstance(stmt, ast.Assign)
        and len(stmt.targets) == 1
        and isinstance(stmt.targets[0], ast.Name)
    ):
        return None
    name = stmt.targets[0].id
    value = stmt.value
    if isinstance(value, ast.Await):
        value = value.value
    if not isinstance(value, ast.Call):
        return None
    chain = dotted_chain(value.func)
    leaf = chain[-1] if chain else None
    if leaf in {"wait_for"} and value.args:
        inner = value.args[0]
        if isinstance(inner, ast.Call):
            inner_chain = dotted_chain(inner.func)
            leaf = inner_chain[-1] if inner_chain else None
    if leaf == "admit":
        return ("admission slot", name)
    if leaf in {"new_io_context", "IOContext"}:
        return ("IOContext", name)
    return None


def _mentions_name(node: ast.AST, name: str) -> bool:
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and child.id == name:
            return True
    return False


def _settles(stmt: ast.stmt, kind: str, name: str) -> bool:
    """Whether executing ``stmt`` releases, consumes, or hands off the
    resource bound to ``name``."""
    if isinstance(stmt, (ast.Return,)) and stmt.value is not None:
        if _mentions_name(stmt.value, name):
            return True
    for call in iter_stmt_calls(stmt):
        chain = dotted_chain(call.func)
        if (
            chain is not None
            and len(chain) >= 2
            and chain[0] == name
            and chain[-1] in {"release", "close", "finalize"}
        ):
            return True
        for arg in [*call.args, *[kw.value for kw in call.keywords]]:
            if _mentions_name(arg, name):
                return True
    if kind == "IOContext":
        # Any use of the context (passing it along, reading counters)
        # keeps the accounting alive; only a bind-and-drop is a leak.
        for child in ast.iter_child_nodes(stmt):
            if not isinstance(child, ast.stmt) and _mentions_name(
                child, name
            ):
                return True
    else:
        # Storing the slot somewhere transfers ownership.
        if isinstance(stmt, ast.Assign) and _mentions_name(stmt.value, name):
            return True
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Yield):
            if stmt.value.value is not None and _mentions_name(
                stmt.value.value, name
            ):
                return True
    return False


def check_resource_release(program: Program) -> list[Finding]:
    """F002: slots and IOContexts settle on all paths, including
    exceptional ones."""
    findings: list[Finding] = []
    for info in program.functions.values():
        acquisitions = [
            (stmt, resource)
            for stmt in iter_statements(info.node.body)
            if (resource := _acquired_resource(stmt)) is not None
        ]
        if not acquisitions:
            continue
        cfg = build_cfg(info.node.body, with_exceptions=True)
        by_stmt: dict[int, list[int]] = {}
        for node in cfg.statement_nodes():
            by_stmt.setdefault(id(node.stmt), []).append(node.index)
        for stmt, (kind, name) in acquisitions:
            settled: set[int] = set()
            for node in cfg.statement_nodes():
                assert node.stmt is not None
                if node.stmt is not stmt and _settles(node.stmt, kind, name):
                    settled.add(node.index)
            leaked = False
            for acquire_index in by_stmt.get(id(stmt), []):
                # Only normal successors: if the acquiring call raised,
                # nothing was acquired.
                reach = reachable(
                    cfg.succ[acquire_index],
                    cfg.successors,
                    barrier=lambda index, blocked=frozenset(settled): (
                        index in blocked
                    ),
                )
                if cfg.exit_normal in reach or cfg.exit_raised in reach:
                    leaked = True
            if not leaked:
                continue
            findings.append(
                Finding(
                    rule="F002",
                    severity=Severity.ERROR,
                    message=(
                        f"{kind} '{name}' acquired in {info.name}() may "
                        "leak: a path (normal or exceptional) reaches the "
                        "function exit without releasing or handing it off"
                    ),
                    file=info.file,
                    line=stmt.lineno,
                    location=_short(info),
                    hint=(
                        "wrap the post-acquisition code in try/finally "
                        "and settle the resource in the finally block"
                    ),
                )
            )
    return findings


# --------------------------------------------------------------------------
# F003 — no epoch bump after an observed cancellation
# --------------------------------------------------------------------------


def _epoch_bump_closure(program: Program) -> set[str]:
    seeds = {
        info.qualname
        for info in program.functions.values()
        if info.cls == "FeedbackStore"
        and info.name in {"_bump", "bump", "bump_epoch"}
    }
    return propagate(seeds, program.reverse_edges())


#: Exception names whose handlers F003 inspects.  ``ReoptRequested`` is
#: the typed mid-query cancellation: its handlers are *allowed* to
#: harvest partial lower bounds (``record_partial_observations`` never
#: reaches ``_bump`` — it advances the partial sequence only), but an
#: exact-epoch bump on that path would mark cached plans stale from a
#: run that never finished.
_CANCELLATION_EXC_NAMES = frozenset({"QueryCancelled", "ReoptRequested"})


def _handler_catches_cancellation(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return False
    return any(
        isinstance(node, ast.Name) and node.id in _CANCELLATION_EXC_NAMES
        for node in ast.walk(handler.type)
    ) or any(
        isinstance(node, ast.Attribute)
        and node.attr in _CANCELLATION_EXC_NAMES
        for node in ast.walk(handler.type)
    )


def check_no_bump_after_cancellation(program: Program) -> list[Finding]:
    """F003: ``except QueryCancelled``/``except ReoptRequested`` handlers
    in ``service/`` and ``reopt/`` must not reach an epoch-bumping
    function (partial harvests ride the epoch-free ingest instead)."""
    bumpers = _epoch_bump_closure(program)
    if not bumpers:
        return []
    findings: list[Finding] = []
    for info in program.functions.values():
        slashed = f"/{info.file}"
        if "/service/" not in slashed and "/reopt/" not in slashed:
            continue
        targets_by_call = {
            id(site.node): site.targets for site in info.calls
        }
        for stmt in iter_statements(info.node.body):
            if not isinstance(stmt, ast.Try):
                continue
            for handler in stmt.handlers:
                if not _handler_catches_cancellation(handler):
                    continue
                for inner in iter_statements(handler.body):
                    for call in iter_stmt_calls(inner):
                        for target in targets_by_call.get(id(call), ()):
                            if target not in bumpers:
                                continue
                            label = target.rsplit("::", 1)[-1]
                            findings.append(
                                Finding(
                                    rule="F003",
                                    severity=Severity.ERROR,
                                    message=(
                                        f"{label}() reachable from an "
                                        "except-QueryCancelled handler in "
                                        f"{info.name}() — a cancelled "
                                        "run's partial page counts would "
                                        "bump the feedback epoch"
                                    ),
                                    file=info.file,
                                    line=call.lineno,
                                    location=_short(info),
                                    hint=(
                                        "record feedback only on the "
                                        "successful path; cancelled runs "
                                        "must leave the store untouched"
                                    ),
                                )
                            )
    return findings
