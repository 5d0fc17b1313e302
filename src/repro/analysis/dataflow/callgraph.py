"""Program index and call-graph construction for the Tier-3 rules.

This is deliberately a *best-effort* resolver tuned to the idioms this
codebase actually uses, not a general points-to analysis.  A call is
resolved through, in order:

1. a nested ``def`` in the enclosing function (closure helpers such as
   ``flush()`` / ``next_outer()``),
2. a module-level function or class (constructor) in the same file,
3. ``self.method(...)`` → the enclosing class and its bases,
4. ``self.attr.method(...)`` / ``var.method(...)`` where the attribute
   or variable has a known type — from ``self.x = ClassName(...)``
   assignments, ``self.x = param`` with an annotated parameter,
   class-body annotations (``feedback: FeedbackStore``), parameter
   annotations, local ``x = ClassName(...)`` / annotated assignments,
   and locals bound from calls whose resolved target has an annotated
   return type (``session = engine.session()`` with
   ``def session(...) -> Session``),
5. a unique-owner fallback: a method name defined by exactly one class
   in the analyzed set resolves to that class's method.

Unresolved calls simply contribute no edge — every rule built on top is
a *may* analysis whose findings cite a concrete witness path, so a
missing edge can cost recall but never invents a finding.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Optional, Sequence, Union

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

_LOCK_CTORS = frozenset({"Lock", "RLock", "Condition"})


def dotted_chain(node: ast.expr) -> Optional[tuple[str, ...]]:
    """``a.b.c`` as ``("a", "b", "c")``; None for anything fancier."""
    parts: list[str] = []
    current: ast.expr = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return tuple(reversed(parts))
    return None


def annotation_leaf(node: Optional[ast.expr]) -> Optional[str]:
    """The innermost class-ish name of an annotation.

    ``Optional[PlanCache]`` → ``PlanCache``; ``"Session"`` → ``Session``;
    ``dict[str, int]`` → ``dict``.  Wrapper generics (Optional/Union/
    Final/ClassVar) are peeled so the payload type is what resolves.
    """
    while node is not None:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value.strip()
            return name.split("[", 1)[0].split(".")[-1] or None
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute):
            return node.attr
        if isinstance(node, ast.Subscript):
            head = annotation_leaf(node.value)
            if head in {"Optional", "Final", "ClassVar", "Annotated"}:
                inner = node.slice
                if isinstance(inner, ast.Tuple) and inner.elts:
                    node = inner.elts[0]
                else:
                    node = inner
                continue
            return head
        return None
    return None


@dataclass
class CallSite:
    """One call expression inside a function, with resolved targets."""

    node: ast.Call
    chain: Optional[tuple[str, ...]]
    line: int
    targets: tuple[str, ...] = ()

    @property
    def leaf(self) -> Optional[str]:
        return self.chain[-1] if self.chain else None


@dataclass
class FunctionInfo:
    """One analyzed function, method, or nested closure helper."""

    qualname: str
    file: str
    name: str
    node: FunctionNode
    cls: Optional[str] = None
    parent: Optional[str] = None
    is_async: bool = False
    param_types: dict[str, str] = field(default_factory=dict)
    local_types: dict[str, str] = field(default_factory=dict)
    nested: dict[str, str] = field(default_factory=dict)
    calls: list[CallSite] = field(default_factory=list)

    @property
    def return_leaf(self) -> Optional[str]:
        return annotation_leaf(self.node.returns)


@dataclass
class ClassInfo:
    """One analyzed class: methods, attribute types, and lock attributes."""

    name: str
    file: str
    bases: tuple[str, ...] = ()
    methods: dict[str, str] = field(default_factory=dict)
    attr_types: dict[str, str] = field(default_factory=dict)
    #: attributes assigned a Lock/RLock/Condition in method bodies
    lock_attrs: set[str] = field(default_factory=set)


@dataclass
class Program:
    """The whole analyzed file set, indexed for resolution."""

    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    #: module-level function name -> qualname, per file
    module_functions: dict[str, dict[str, str]] = field(default_factory=dict)
    #: method name -> set of owning class names (unique-owner fallback)
    method_owners: dict[str, set[str]] = field(default_factory=dict)
    #: caller qualname -> callee qualnames (the call graph)
    edges: dict[str, set[str]] = field(default_factory=dict)

    def functions_in(self, prefix: str) -> Iterator[FunctionInfo]:
        for info in self.functions.values():
            if info.file.startswith(prefix):
                yield info

    def method(self, cls_name: str, method_name: str) -> Optional[str]:
        """Look up a method on a class or, by name, its base classes."""
        seen: set[str] = set()
        frontier = [cls_name]
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            info = self.classes.get(current)
            if info is None:
                continue
            if method_name in info.methods:
                return info.methods[method_name]
            frontier.extend(info.bases)
        return None

    def reverse_edges(self) -> dict[str, set[str]]:
        reverse: dict[str, set[str]] = {}
        for caller, callees in self.edges.items():
            for callee in callees:
                reverse.setdefault(callee, set()).add(caller)
        return reverse


def iter_own_statements(node: FunctionNode) -> Iterator[ast.stmt]:
    """Statements of ``node`` excluding bodies of nested defs/classes."""
    return iter_statements(node.body)


def iter_statements(stmts: Sequence[ast.stmt]) -> Iterator[ast.stmt]:
    """A statement list's statements, recursively, excluding bodies of
    nested ``def``/``class`` statements."""
    stack: list[ast.stmt] = list(stmts)
    while stack:
        stmt = stack.pop()
        yield stmt
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                stack.append(child)
            else:
                stack.extend(
                    grand
                    for grand in ast.walk(child)
                    if isinstance(grand, ast.stmt)
                )


def _calls_in_expr(node: ast.AST) -> Iterator[ast.Call]:
    """Calls in an expression subtree; lambda bodies run later, so skip."""
    if isinstance(node, ast.Lambda):
        return
    if isinstance(node, ast.Call):
        yield node
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, ast.stmt):
            yield from _calls_in_expr(child)


def iter_stmt_calls(stmt: ast.stmt) -> Iterator[ast.Call]:
    """Calls evaluated by ``stmt`` itself (not by nested statements)."""
    for child in ast.iter_child_nodes(stmt):
        if not isinstance(child, ast.stmt):
            yield from _calls_in_expr(child)


def iter_own_calls(node: FunctionNode) -> Iterator[ast.Call]:
    """Call expressions in ``node``'s own body, skipping nested defs.

    Each call is yielded exactly once: compound statements contribute
    only the calls in their headers (test/iter/context expressions);
    their nested statements are visited in their own right.
    """
    for stmt in iter_own_statements(node):
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        yield from iter_stmt_calls(stmt)


def _index_function(
    program: Program,
    node: FunctionNode,
    file: str,
    qualname: str,
    cls: Optional[str],
    parent: Optional[str],
) -> FunctionInfo:
    params: dict[str, str] = {}
    arguments = node.args
    for arg in [
        *arguments.posonlyargs,
        *arguments.args,
        *arguments.kwonlyargs,
    ]:
        leaf = annotation_leaf(arg.annotation)
        if leaf is not None:
            params[arg.arg] = leaf
    info = FunctionInfo(
        qualname=qualname,
        file=file,
        name=node.name,
        node=node,
        cls=cls,
        parent=parent,
        is_async=isinstance(node, ast.AsyncFunctionDef),
        param_types=params,
    )
    program.functions[qualname] = info
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            child_qualname = f"{qualname}.{stmt.name}"
            info.nested[stmt.name] = child_qualname
            _index_function(
                program, stmt, file, child_qualname, cls=cls, parent=qualname
            )
    return info


def _index_class(program: Program, node: ast.ClassDef, file: str) -> None:
    bases = tuple(
        leaf for leaf in (annotation_leaf(base) for base in node.bases) if leaf
    )
    cls = ClassInfo(name=node.name, file=file, bases=bases)
    # Last definition of a re-used class name wins; collisions are
    # handled by the unique-owner map going ambiguous instead.
    program.classes[node.name] = cls
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = f"{file}::{node.name}.{stmt.name}"
            cls.methods[stmt.name] = qualname
            program.method_owners.setdefault(stmt.name, set()).add(node.name)
            _index_function(
                program, stmt, file, qualname, cls=node.name, parent=None
            )
        elif isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Name
        ):
            leaf = annotation_leaf(stmt.annotation)
            if leaf is not None:
                cls.attr_types.setdefault(stmt.target.id, leaf)


def _harvest_self_assignments(program: Program) -> None:
    """Fill ``attr_types``/``lock_attrs`` from ``self.x = ...`` bodies."""
    for info in program.functions.values():
        if info.cls is None:
            continue
        cls = program.classes.get(info.cls)
        if cls is None:
            continue
        for stmt in iter_own_statements(info.node):
            target: Optional[ast.expr]
            value: Optional[ast.expr]
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target, value = stmt.targets[0], stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                target, value = stmt.target, stmt.value
            else:
                continue
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                continue
            attr = target.attr
            if isinstance(stmt, ast.AnnAssign):
                leaf = annotation_leaf(stmt.annotation)
                if leaf is not None and leaf in program.classes:
                    cls.attr_types.setdefault(attr, leaf)
            if isinstance(value, ast.Call):
                chain = dotted_chain(value.func)
                leaf = chain[-1] if chain else None
                if leaf in _LOCK_CTORS:
                    cls.lock_attrs.add(attr)
                elif leaf is not None and leaf in program.classes:
                    cls.attr_types.setdefault(attr, leaf)
            elif isinstance(value, ast.Name):
                param_leaf = info.param_types.get(value.id)
                if param_leaf is not None and param_leaf in program.classes:
                    cls.attr_types.setdefault(attr, param_leaf)


def _resolve_chain(
    program: Program, info: FunctionInfo, chain: tuple[str, ...]
) -> Optional[str]:
    """Resolve a dotted call chain to a function qualname, or None."""
    if len(chain) == 1:
        name = chain[0]
        if name in info.nested:
            return info.nested[name]
        enclosing = info.parent
        while enclosing is not None:
            parent = program.functions.get(enclosing)
            if parent is None:
                break
            if name in parent.nested:
                return parent.nested[name]
            enclosing = parent.parent
        module_funcs = program.module_functions.get(info.file, {})
        if name in module_funcs:
            return module_funcs[name]
        if name in program.classes:
            return program.method(name, "__init__")
        return None

    root, rest = chain[0], chain[1:]
    receiver_type: Optional[str] = None
    if root == "self" and info.cls is not None:
        if len(rest) == 1:
            return program.method(info.cls, rest[0])
        cls = program.classes.get(info.cls)
        if cls is not None:
            receiver_type = cls.attr_types.get(rest[0])
            rest = rest[1:]
    elif root == "cls" and info.cls is not None and len(rest) == 1:
        return program.method(info.cls, rest[0])
    else:
        receiver_type = info.local_types.get(root) or info.param_types.get(root)
        if receiver_type is None and root in program.classes and len(rest) == 1:
            # ClassName.method(...) — direct class reference.
            receiver_type = root
    if receiver_type is not None and len(rest) == 1:
        resolved = program.method(receiver_type, rest[0])
        if resolved is not None:
            return resolved
    if len(rest) >= 1:
        owners = program.method_owners.get(chain[-1], set())
        if len(owners) == 1:
            return program.method(next(iter(owners)), chain[-1])
    return None


def _infer_local_types(program: Program, info: FunctionInfo) -> None:
    """One forward pass over assignments to type obvious locals."""
    for stmt in iter_own_statements(info.node):
        target: Optional[ast.expr]
        value: Optional[ast.expr]
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target, value = stmt.targets[0], stmt.value
        elif isinstance(stmt, ast.AnnAssign):
            target, value = stmt.target, stmt.value
        else:
            continue
        if not isinstance(target, ast.Name):
            continue
        if isinstance(stmt, ast.AnnAssign):
            leaf = annotation_leaf(stmt.annotation)
            if leaf is not None and leaf in program.classes:
                info.local_types[target.id] = leaf
                continue
        inner = value.value if isinstance(value, ast.Await) else value
        if not isinstance(inner, ast.Call):
            continue
        chain = dotted_chain(inner.func)
        if chain is None:
            continue
        if chain[-1] in program.classes:
            info.local_types[target.id] = chain[-1]
            continue
        resolved = _resolve_chain(program, info, chain)
        if resolved is not None:
            return_leaf = program.functions[resolved].return_leaf
            if return_leaf is not None and return_leaf in program.classes:
                info.local_types[target.id] = return_leaf


def _collect_calls(program: Program, info: FunctionInfo) -> None:
    for call in iter_own_calls(info.node):
        chain = dotted_chain(call.func)
        targets: tuple[str, ...] = ()
        if chain is not None:
            resolved = _resolve_chain(program, info, chain)
            if resolved is not None:
                targets = (resolved,)
        site = CallSite(
            node=call, chain=chain, line=call.lineno, targets=targets
        )
        info.calls.append(site)
        program.edges.setdefault(info.qualname, set()).update(targets)


def build_program(sources: Mapping[str, str]) -> Program:
    """Parse and index every source; files that fail to parse are
    skipped (Tier-2 already reports them as R000 syntax errors)."""
    program = Program()
    modules: list[tuple[str, ast.Module]] = []
    for file, source in sorted(sources.items()):
        try:
            tree = ast.parse(source)
        except SyntaxError:
            continue
        modules.append((file, tree))
        program.module_functions[file] = {}
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{file}::{stmt.name}"
                program.module_functions[file][stmt.name] = qualname
                _index_function(
                    program, stmt, file, qualname, cls=None, parent=None
                )
            elif isinstance(stmt, ast.ClassDef):
                _index_class(program, stmt, file)
    _harvest_self_assignments(program)
    functions = list(program.functions.values())
    for info in functions:
        _infer_local_types(program, info)
    for info in functions:
        _collect_calls(program, info)
    return program


def collect_sources(paths: Sequence[str]) -> dict[str, str]:
    """Read ``.py`` files under each path, keyed by a repo-style label."""
    from pathlib import Path

    sources: dict[str, str] = {}
    for raw in paths:
        path = Path(raw)
        files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
        for file in files:
            try:
                sources[file.as_posix()] = file.read_text(encoding="utf-8")
            except OSError:
                continue
    return sources
