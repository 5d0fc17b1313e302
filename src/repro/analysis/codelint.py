"""Tier 2 — ``ast``-based invariant checker over the repro codebase.

The simulated engine's claims rest on repo-wide conventions that no unit
test can see: determinism requires every RNG to be seeded through
:mod:`repro.common.rng`, exact DPC ground truth requires every physical
read to be charged through :class:`~repro.storage.buffer.BufferPool`, and
reproducible experiments require nothing to read the host wall clock.
This module enforces them statically:

========  =====================================================================
``R001``  no direct RNG construction or module-level ``random.*`` /
          ``np.random.*`` calls outside ``common/rng.py`` — unseeded (or
          globally seeded) randomness breaks run-to-run determinism
``R002``  no direct clock I/O charges (``charge_random_read`` /
          ``charge_sequential_read``) outside ``storage/buffer.py`` — a
          page read that bypasses the buffer pool corrupts both the
          logical/physical accounting and monitored DPC ground truth
``R003``  no ``==`` / ``!=`` between float-typed cost/estimate
          expressions — compare with tolerances instead
``R005``  no wall-clock reads (``time.time`` / ``datetime.now`` /
          ``perf_counter`` …) outside ``harness/timing.py`` — simulated
          time comes from :class:`~repro.storage.accounting.IOContext`
``R006``  no global clock: ``database.clock`` / ``buffer_pool.clock``
          attribute access, ``*.clock.snapshot()`` and ``SimulatedClock``
          construction/import are forbidden outside ``storage/disk.py``,
          ``harness/timing.py`` and ``storage/accounting.py`` — per-query
          accounting flows through an explicit per-execution ``IOContext``
``R007``  no bare ``Optimizer(...)`` construction outside the lifecycle's
          sanctioned site (``lifecycle/plan.py``) — optimization must go
          through the staged query lifecycle (or its
          :func:`~repro.lifecycle.plan.build_optimizer` helper) so plan
          caching, linting and feedback-epoch bookkeeping cannot be
          bypassed
``R008``  no per-row ``charge_rows()`` / ``charge_rows(1)`` inside
          batch-mode operators (any function whose enclosing-function
          stack contains ``batch`` — nested ``flush()`` closures
          included): batch mode exists to amortize accounting, so charge
          once per batch with ``charge_rows(len(rows))``
``R009``  no ``asyncio.get_event_loop()`` and no bare
          ``threading.Thread`` outside the sanctioned concurrency site
          ``service/`` — ad-hoc threads bypass the engine's drain/shutdown
          accounting and admission control, and ``get_event_loop()`` is
          deprecated outside a running loop (use
          ``asyncio.get_running_loop()``)
``R011``  no per-row Python loops over column values inside vector
          kernel bodies (``matches_vector`` / ``evaluate_columns``):
          the chunk scan's kernels must stay whole-vector operations through
          :mod:`repro.exec.vector` (whose list-column path is the
          one sanctioned per-row site, waived by path); index loops via
          ``range(...)`` — e.g. over conjunction *terms* — are fine
``R012``  no magic batch-size literal ``1024`` under ``exec/`` or
          ``sql/`` outside its definition site ``exec/batch.py`` — use
          ``DEFAULT_BATCH_ROWS`` / ``ExecutionContext.batch_rows`` so
          the exchange granularity stays centrally tunable
``R014``  worker-child modules (``service/worker_main.py``,
          ``service/marshal.py`` — everything a spawned worker process
          imports) never touch the coordinator's authority: no
          ``.plan_cache`` access, no ``repro.lifecycle`` /
          ``PlanCache`` imports, and no feedback-store mutation
          (``record_*`` / ``harvest_observations``) — a worker's
          observations travel back only through the marshalling
          protocol, and the coordinator applies them
``R015``  mid-query re-optimization stays inside ``reopt/``: only that
          package may raise a reopt trip (constructing
          ``ReoptRequested``, which the watchdog does itself) or
          ingest partial observations
          (``partial_page_count_observation`` /
          ``record_partial_observations``) — partial counters are lower
          bounds from a cancelled prefix, and any other ingest path
          could publish them as exact feedback (or bump the epoch and
          poison the plan cache)
========  =====================================================================

Suppress a finding inline with a trailing ``lint: disable=R003`` comment
(or a comma-separated list) on the offending line.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Iterable, Optional, Sequence

from repro.analysis.findings import Finding, Severity
from repro.common.errors import AnalysisError

#: Rule id -> one-line description (the CLI and docs render this catalog).
CODE_RULES: dict[str, str] = {
    "R001": "RNG construction only through common/rng.py (determinism)",
    "R002": "physical-read charges only inside storage/buffer.py",
    "R003": "no ==/!= between float cost/estimate expressions",
    "R005": "no wall-clock reads outside harness/timing.py",
    "R006": "no global clock: accounting flows through per-execution IOContext",
    "R007": "Optimizer construction only through the lifecycle (build_optimizer)",
    "R008": "no per-row charge_rows(1) inside batch-mode operators",
    "R009": "no get_event_loop()/bare Thread outside sanctioned concurrency sites",
    "R010": "no unused or unknown # lint: disable=... suppression comments",
    "R011": "no per-row loops inside matches_vector/evaluate_columns kernels",
    "R012": "no magic 1024 batch-size literal in exec//sql/ (DEFAULT_BATCH_ROWS)",
    "R014": "worker-child modules never touch the coordinator's "
    "PlanCache/FeedbackStore",
    "R015": "reopt trips and partial-observation ingest only "
    "under reopt/",
}

#: Per-rule path suffixes where the rule intentionally does not apply.
#: Entries ending in ``/`` are directory prefixes: the rule is waived for
#: every file under any directory of that name (``service/`` matches
#: ``src/repro/service/server.py``).
ALLOWED_PATHS: dict[str, tuple[str, ...]] = {
    "R001": ("common/rng.py",),
    "R002": ("storage/buffer.py", "storage/disk.py", "storage/accounting.py"),
    "R005": ("harness/timing.py",),
    "R006": ("storage/disk.py", "harness/timing.py", "storage/accounting.py"),
    # diagnostics builds throwaway what-if optimizers over injected stores;
    # routing it through the lifecycle would cycle core -> lifecycle -> core.
    "R007": ("lifecycle/plan.py", "core/diagnostics.py"),
    # the service layer is where threads/event loops are supposed to live.
    "R009": ("service/",),
    # the vector module IS the sanctioned per-row site: its loops are the
    # list-column path (strings, NULLs, ints beyond int64, mixed values).
    "R011": ("exec/vector.py",),
    # the one definition site of DEFAULT_BATCH_ROWS.
    "R012": ("exec/batch.py",),
    # the reopt package IS the sanctioned episode runner (the definition
    # sites in common/cancellation.py and core/feedback.py only *define*
    # the privileged names; calling them is what the rule polices).
    "R015": ("reopt/",),
}

_SUPPRESS_RE = re.compile(r"#\s*lint:\s*disable=([A-Z0-9, ]+)")

_RNG_CALL_NAMES = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "uniform",
        "gauss",
        "seed",
        "Random",
        "SystemRandom",
        "getrandbits",
    }
)

_TIME_CALL_NAMES = frozenset(
    {
        "time",
        "time_ns",
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
        "process_time",
    }
)
_DATETIME_CALL_NAMES = frozenset({"now", "utcnow", "today"})

#: Names whose ``.clock`` attribute was the pre-IOContext global clock (R006).
_CLOCK_OWNER_NAMES = frozenset({"database", "db", "buffer_pool"})

#: Identifiers that mark an expression as a float cost/estimate (R003).
_FLOAT_NAME_RE = re.compile(
    r"(^|_)(cost|costs|ms|dpc|selectivity|selectivities|ratio|fraction|"
    r"overhead|speedup)($|_)|(^|_)estimated?_"
)

#: Modules a spawned worker child imports (R014): the process-boundary
#: side of the multi-process tier.  The coordinator's PlanCache and
#: FeedbackStore live in the parent; a child touching either would
#: silently mutate a *replica* nobody observes — or worse, smuggle live
#: objects across the pipe.
_WORKER_CHILD_MODULES = ("service/worker_main.py", "service/marshal.py")

#: Feedback-store mutation entry points a worker child must not call
#: (R014): harvests happen coordinator-side, from marshalled batches.
_WORKER_CHILD_FORBIDDEN_CALLS = frozenset(
    {
        "record_run",
        "record_observations",
        "record_cardinality",
        "harvest_observations",
    }
)

#: Calls reserved for the reopt package (R015): raising a mid-query
#: trip and ingesting partial (lower-bound) observations.  The watchdog
#: constructs ``ReoptRequested`` itself; raising it anywhere else would
#: fake a watchdog trip past handlers that harvest partials on the way
#: out.
_REOPT_PRIVILEGED_CALLS = frozenset(
    {
        "ReoptRequested",
        "partial_page_count_observation",
        "record_partial_observations",
    }
)


def _dotted(node: ast.AST) -> Optional[tuple[str, ...]]:
    """``a.b.c`` -> ``("a", "b", "c")``; None for non-name chains."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def _is_float_like(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    chain = _dotted(node)
    if chain is None:
        return False
    return bool(_FLOAT_NAME_RE.search(chain[-1]))


class _FileChecker(ast.NodeVisitor):
    def __init__(self, file_label: str, rules: Sequence[str]) -> None:
        self.file_label = file_label
        self.rules = set(rules)
        self.findings: list[Finding] = []
        #: Enclosing function names, outermost first — lets R008/R011 see
        #: that a nested ``flush()`` closure still lives inside a
        #: ``batches()`` or kernel body.
        self._function_stack: list[str] = []
        #: R012 polices the exchange layer only: exec/ and sql/ files.
        normalized = "/" + file_label.replace("\\", "/")
        self._r012_in_scope = "/exec/" in normalized or "/sql/" in normalized
        #: R014 polices the modules a spawned worker child imports.
        self._r014_in_scope = any(
            normalized.endswith("/" + module)
            for module in _WORKER_CHILD_MODULES
        )

    def report(self, rule: str, node: ast.AST, message: str, hint: str = "") -> None:
        if rule not in self.rules:
            return
        self.findings.append(
            Finding(
                rule=rule,
                severity=Severity.ERROR,
                message=message,
                file=self.file_label,
                line=getattr(node, "lineno", 0),
                hint=hint,
            )
        )

    # -- R014: worker-child modules stay off coordinator authority ------
    def _check_worker_child_call(
        self, node: ast.Call, chain: tuple[str, ...]
    ) -> None:
        if chain[-1] in _WORKER_CHILD_FORBIDDEN_CALLS:
            self.report(
                "R014",
                node,
                f"worker-child module mutates a feedback store: "
                f"{'.'.join(chain)}()",
                hint="workers execute with remember=False; observations "
                "travel back in the reply's runstats and the coordinator "
                "applies the batch (Engine.harvest_observations)",
            )

    # -- R001 / R002 / R005: forbidden calls ---------------------------
    def visit_Call(self, node: ast.Call) -> None:
        chain = _dotted(node.func)
        if chain is not None:
            self._check_call_chain(node, chain)
            if self._r014_in_scope:
                self._check_worker_child_call(node, chain)
        self.generic_visit(node)

    def _check_call_chain(self, node: ast.Call, chain: tuple[str, ...]) -> None:
        root, leaf = chain[0], chain[-1]
        if root == "random" and leaf in _RNG_CALL_NAMES:
            self.report(
                "R001",
                node,
                f"direct RNG call {'.'.join(chain)}()",
                hint="derive a seeded stream via repro.common.rng.make_random",
            )
        elif (
            root in ("np", "numpy")
            and len(chain) >= 3
            and chain[1] == "random"
        ):
            self.report(
                "R001",
                node,
                f"direct numpy RNG call {'.'.join(chain)}()",
                hint="use repro.common.rng.make_numpy_rng",
            )
        elif leaf in ("charge_random_read", "charge_sequential_read"):
            self.report(
                "R002",
                node,
                f"direct physical-read charge {'.'.join(chain)}()",
                hint="route page reads through BufferPool.access_sequence so the "
                "logical/physical counters stay exact",
            )
        elif root == "time" and leaf in _TIME_CALL_NAMES and len(chain) == 2:
            self.report(
                "R005",
                node,
                f"wall-clock read {'.'.join(chain)}()",
                hint="use repro.harness.timing; simulated time comes from "
                "the per-execution IOContext",
            )
        elif root in ("datetime", "date") and leaf in _DATETIME_CALL_NAMES:
            self.report(
                "R005",
                node,
                f"wall-clock read {'.'.join(chain)}()",
                hint="use repro.harness.timing (or pass dates explicitly)",
            )
        elif leaf == "SimulatedClock":
            self.report(
                "R006",
                node,
                "construction of the retired global SimulatedClock",
                hint="create a per-execution IOContext "
                "(repro.storage.accounting) instead",
            )
        elif leaf == "Optimizer":
            self.report(
                "R007",
                node,
                f"bare optimizer construction {'.'.join(chain)}()",
                hint="go through Session.optimize/run (the staged lifecycle) "
                "or repro.lifecycle.plan.build_optimizer",
            )
        elif leaf in _REOPT_PRIVILEGED_CALLS:
            self.report(
                "R015",
                node,
                f"reopt-privileged call {'.'.join(chain)}() outside reopt/",
                hint="mid-query trips and partial-observation ingest "
                "go through repro.reopt.run_with_reopt — partial counters "
                "are lower bounds and must stay on the epoch-free path",
            )
        elif chain == ("asyncio", "get_event_loop") or chain == (
            "get_event_loop",
        ):
            self.report(
                "R009",
                node,
                "deprecated/implicit event-loop lookup get_event_loop()",
                hint="use asyncio.get_running_loop() inside coroutines, or "
                "asyncio.run() at the entry point",
            )
        elif leaf == "Thread" and (
            len(chain) == 1 or chain[-2] == "threading"
        ):
            self.report(
                "R009",
                node,
                f"bare thread construction {'.'.join(chain)}()",
                hint="route concurrency through the query service's engine "
                "thread or worker tier so drain/shutdown accounting holds",
            )
        elif leaf == "charge_rows" and any(
            "batch" in name for name in self._function_stack
        ):
            self._check_charge_rows(node, chain)
        elif leaf == "snapshot" and len(chain) >= 2 and "clock" in chain[-2]:
            # `database.clock.snapshot()` is already reported by the
            # attribute rule below; catch the aliased forms it cannot see
            # (`clock.snapshot()`, `self.clock.snapshot()`, `some_clock.snapshot()`).
            owner = chain[-3] if len(chain) >= 3 else None
            if chain[-2] != "clock" or owner not in _CLOCK_OWNER_NAMES:
                self.report(
                    "R006",
                    node,
                    f"clock snapshot protocol {'.'.join(chain)}()",
                    hint="read counters directly off the execution's "
                    "IOContext; the snapshot/delta protocol is retired",
                )

    # -- R008: per-row charging inside batch operators ------------------
    def _check_charge_rows(self, node: ast.Call, chain: tuple[str, ...]) -> None:
        arguments = [*node.args, *(kw.value for kw in node.keywords)]
        per_row = not arguments or (
            len(arguments) == 1
            and isinstance(arguments[0], ast.Constant)
            and not isinstance(arguments[0].value, bool)
            and arguments[0].value == 1
        )
        if per_row:
            self.report(
                "R008",
                node,
                f"per-row charge {'.'.join(chain)}"
                f"({ast.unparse(arguments[0]) if arguments else ''}) "
                f"inside batch-mode function "
                f"{'/'.join(self._function_stack)}",
                hint="accumulate the batch and charge once with "
                "charge_rows(len(rows))",
            )

    # -- R011: per-row loops inside vector kernel bodies ----------------
    _VECTOR_KERNEL_NAMES = ("matches_vector", "evaluate_columns")

    def _in_vector_kernel(self) -> bool:
        return any(
            name in self._VECTOR_KERNEL_NAMES for name in self._function_stack
        )

    @staticmethod
    def _is_index_loop(iter_node: ast.AST) -> bool:
        """``range(...)`` / ``enumerate(...)`` iterations index terms or
        positions, not rows — those stay legal inside kernels."""
        if not isinstance(iter_node, ast.Call):
            return False
        chain = _dotted(iter_node.func)
        return chain is not None and chain[-1] in ("range", "enumerate")

    def _check_vector_loop(self, node: ast.AST, iter_node: ast.AST) -> None:
        if self._in_vector_kernel() and not self._is_index_loop(iter_node):
            self.report(
                "R011",
                node,
                "per-row Python loop inside vector kernel "
                f"{'/'.join(self._function_stack)}",
                hint="express the kernel as whole-vector operations via "
                "repro.exec.vector (its list-column path is the one "
                "sanctioned per-row site)",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_vector_loop(node, node.iter)
        self.generic_visit(node)

    def _visit_comprehension(self, node: ast.AST) -> None:
        for generator in node.generators:  # type: ignore[attr-defined]
            self._check_vector_loop(node, generator.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    # -- R012: magic batch-size literal ---------------------------------
    def visit_Constant(self, node: ast.Constant) -> None:
        if (
            type(node.value) is int
            and node.value == 1024
            and self._r012_in_scope
        ):
            self.report(
                "R012",
                node,
                "magic batch-size literal 1024",
                hint="use repro.exec.batch.DEFAULT_BATCH_ROWS (or "
                "ExecutionContext.batch_rows) so the exchange granularity "
                "stays centrally tunable",
            )
        self.generic_visit(node)

    # -- R001 / R005: forbidden imports --------------------------------
    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        names = {alias.name for alias in node.names}
        if module == "random" and names & _RNG_CALL_NAMES:
            self.report(
                "R001",
                node,
                f"importing RNG entry points from random: {sorted(names)}",
                hint="derive a seeded stream via repro.common.rng",
            )
        elif module == "numpy.random" or (module == "numpy" and "random" in names):
            self.report(
                "R001",
                node,
                "importing numpy RNG entry points",
                hint="use repro.common.rng.make_numpy_rng",
            )
        elif module == "time" and names & _TIME_CALL_NAMES:
            self.report(
                "R005",
                node,
                f"importing wall-clock entry points from time: {sorted(names)}",
                hint="use repro.harness.timing",
            )
        elif names & {"SimulatedClock", "ClockSnapshot"}:
            self.report(
                "R006",
                node,
                "importing the retired global-clock types "
                f"{sorted(names & {'SimulatedClock', 'ClockSnapshot'})}",
                hint="use repro.storage.accounting.IOContext",
            )
        elif module == "threading" and "Thread" in names:
            self.report(
                "R009",
                node,
                "importing threading.Thread",
                hint="route concurrency through the query service's engine "
                "thread or worker tier so drain/shutdown accounting holds",
            )
        elif module == "asyncio" and "get_event_loop" in names:
            self.report(
                "R009",
                node,
                "importing asyncio.get_event_loop",
                hint="use asyncio.get_running_loop() inside coroutines",
            )
        if self._r014_in_scope and (
            module.startswith("repro.lifecycle") or "PlanCache" in names
        ):
            self.report(
                "R014",
                node,
                f"worker-child module imports coordinator machinery "
                f"from {module}",
                hint="repro.lifecycle (PlanCache) is coordinator-side; "
                "nothing a worker child imports may reach it",
            )
        self.generic_visit(node)

    def visit_Import(self, node: ast.Import) -> None:
        if self._r014_in_scope:
            for alias in node.names:
                if alias.name.startswith("repro.lifecycle"):
                    self.report(
                        "R014",
                        node,
                        f"worker-child module imports coordinator machinery "
                        f"{alias.name}",
                        hint="repro.lifecycle (PlanCache) is "
                        "coordinator-side; nothing a worker child imports "
                        "may reach it",
                    )
        self.generic_visit(node)

    # -- R006: global clock attribute access ---------------------------
    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr == "clock":
            owner = _dotted(node.value)
            if owner is not None and owner[-1] in _CLOCK_OWNER_NAMES:
                self.report(
                    "R006",
                    node,
                    f"global clock access {'.'.join(owner)}.clock",
                    hint="thread the execution's IOContext "
                    "(repro.storage.accounting) to here and charge it",
                )
        elif node.attr == "plan_cache" and self._r014_in_scope:
            self.report(
                "R014",
                node,
                "worker-child module reaches a plan cache (.plan_cache)",
                hint="the coordinator owns the one authoritative PlanCache; "
                "worker children optimize with their own engine's private "
                "state and ship nothing back but rows, stats and marshalled "
                "observations",
            )
        self.generic_visit(node)

    # -- R003: float equality ------------------------------------------
    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            if _is_float_like(left) or _is_float_like(right):
                symbol = "==" if isinstance(op, ast.Eq) else "!="
                self.report(
                    "R003",
                    node,
                    f"float cost/estimate compared with {symbol}",
                    hint="use math.isclose or an explicit tolerance",
                )
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._function_stack.append(node.name)
        self.generic_visit(node)
        self._function_stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef


def _suppressed_rules(source: str) -> dict[int, set[str]]:
    """Line number -> rules suppressed by a trailing lint comment."""
    suppressions: dict[int, set[str]] = {}
    for number, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(line)
        if match:
            rules = {part.strip() for part in match.group(1).split(",")}
            suppressions[number] = {r for r in rules if r}
    return suppressions


def _path_waived(path_label: str, allowed: str) -> bool:
    """File-suffix match, or directory-prefix match for ``dir/`` entries."""
    normalized = "/" + path_label.replace("\\", "/")
    if allowed.endswith("/"):
        return f"/{allowed}" in normalized
    return normalized.endswith("/" + allowed)


def _rules_for(path_label: str, rules: Sequence[str]) -> list[str]:
    return [
        rule
        for rule in rules
        if not any(
            _path_waived(path_label, allowed)
            for allowed in ALLOWED_PATHS.get(rule, ())
        )
    ]


def applicable_code_rules(
    file_label: str, rules: Optional[Iterable[str]] = None
) -> list[str]:
    """The selected rules minus per-path waivers, validated.

    The CLI's unused-suppression audit needs to know which rules were
    *actually checked* for a file: a suppression for a rule that did not
    run (a waived path, or outside a ``--rules`` subset) is not "unused",
    just dormant.
    """
    selected = list(CODE_RULES) if rules is None else list(rules)
    unknown = [r for r in selected if r not in CODE_RULES]
    if unknown:
        raise AnalysisError(
            f"unknown code-lint rule(s) {unknown}; known: {sorted(CODE_RULES)}"
        )
    return _rules_for(file_label, selected)


def lint_source_raw(
    source: str, file_label: str, rules: Optional[Iterable[str]] = None
) -> list[Finding]:
    """Lint one file *without* applying inline suppression comments.

    The unused-suppression audit compares this raw set against the
    suppression map; everyday callers want :func:`lint_source`.
    """
    applicable = applicable_code_rules(file_label, rules)
    if not applicable:
        return []
    try:
        tree = ast.parse(source, filename=file_label)
    except SyntaxError as exc:
        return [
            Finding(
                rule="R000",
                severity=Severity.ERROR,
                message=f"syntax error: {exc.msg}",
                file=file_label,
                line=exc.lineno or 0,
            )
        ]
    checker = _FileChecker(file_label, applicable)
    checker.visit(tree)
    return checker.findings


def lint_source(
    source: str, file_label: str, rules: Optional[Iterable[str]] = None
) -> list[Finding]:
    """Lint one file's source text; ``file_label`` is used in findings."""
    suppressions = _suppressed_rules(source)
    return [
        finding
        for finding in lint_source_raw(source, file_label, rules)
        if finding.rule not in suppressions.get(finding.line, set())
    ]


def iter_python_files(paths: Iterable[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted, de-duplicated .py file list."""
    files: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.update(
                p for p in path.rglob("*.py") if "__pycache__" not in p.parts
            )
        elif path.is_file():
            if path.suffix == ".py":
                files.add(path)
        else:
            raise AnalysisError(f"no such file or directory: {path}")
    return sorted(files)


def lint_paths(
    paths: Iterable[str | Path], rules: Optional[Iterable[str]] = None
) -> list[Finding]:
    """Lint every ``.py`` file under ``paths`` (files or directories)."""
    findings: list[Finding] = []
    for file_path in iter_python_files(paths):
        source = file_path.read_text(encoding="utf-8")
        findings.extend(lint_source(source, str(file_path), rules))
    return findings
