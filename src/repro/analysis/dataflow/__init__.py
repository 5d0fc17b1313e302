"""Tier 3 — interprocedural dataflow analysis (C003 and F-rules).

Where Tier 2 (:mod:`repro.analysis.codelint`) checks one line at a time,
this tier builds a call graph and per-function CFGs over ``ast`` and
answers *path* questions: can a service coroutine reach blocking work
without an executor hop, does every path through a drive loop hit a
checkpoint, can an admission slot leak on an exceptional path.  See
:mod:`repro.analysis.dataflow.concurrency` and
:mod:`repro.analysis.dataflow.flowrules` for the rule semantics and
:mod:`repro.analysis.dataflow.callgraph` for the resolution strategy.

``python -m repro.analysis`` runs it together with Tier 2.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Mapping, Optional, Union

from repro.analysis.codelint import _suppressed_rules, iter_python_files
from repro.analysis.dataflow.callgraph import Program, build_program
from repro.analysis.dataflow.concurrency import check_blocking_in_service
from repro.analysis.dataflow.flowrules import (
    check_drive_loop_coverage,
    check_no_bump_after_cancellation,
    check_resource_release,
)
from repro.analysis.findings import Finding
from repro.common.errors import AnalysisError

#: Rule id -> one-line description (the CLI and docs render this catalog).
DATAFLOW_RULES: dict[str, str] = {
    "C003": "no blocking call inside a service coroutine without executor hop",
    "F001": "every charging drive loop in exec/ reaches checkpoint() on all paths",
    "F002": "every admission slot / IOContext settles on all paths",
    "F003": "no epoch bump reachable from a cancellation handler (incl. ReoptRequested)",
}

_CHECKS = {
    "C003": check_blocking_in_service,
    "F001": check_drive_loop_coverage,
    "F002": check_resource_release,
    "F003": check_no_bump_after_cancellation,
}


def analyze_sources(
    sources: Mapping[str, str],
    rules: Optional[Iterable[str]] = None,
    apply_suppressions: bool = True,
) -> list[Finding]:
    """Run the Tier-3 rules over a set of sources (label -> text).

    The whole mapping is analyzed as one program: call edges resolve
    across files.  Inline ``lint: disable`` comments suppress findings
    unless ``apply_suppressions`` is False (the unused-suppression audit
    needs the raw set).
    """
    selected = list(DATAFLOW_RULES) if rules is None else list(rules)
    unknown = [rule for rule in selected if rule not in DATAFLOW_RULES]
    if unknown:
        raise AnalysisError(
            f"unknown dataflow rule(s) {unknown}; "
            f"known: {sorted(DATAFLOW_RULES)}"
        )
    program: Program = build_program(sources)
    findings: list[Finding] = []
    for rule in selected:
        findings.extend(_CHECKS[rule](program))
    if apply_suppressions:
        suppressions = {
            file: _suppressed_rules(text) for file, text in sources.items()
        }
        findings = [
            finding
            for finding in findings
            if finding.rule
            not in suppressions.get(finding.file, {}).get(
                finding.line, set()
            )
        ]
    return sorted(findings, key=lambda f: (f.file, f.line, f.rule))


def analyze_paths(
    paths: Iterable[Union[str, Path]],
    rules: Optional[Iterable[str]] = None,
) -> list[Finding]:
    """Run the Tier-3 rules over every ``.py`` file under ``paths``."""
    sources: dict[str, str] = {}
    for file_path in iter_python_files(paths):
        sources[str(file_path)] = file_path.read_text(encoding="utf-8")
    return analyze_sources(sources, rules)


__all__ = [
    "DATAFLOW_RULES",
    "analyze_paths",
    "analyze_sources",
    "build_program",
]
