"""Shared diagnostic core of the static-analysis subsystem.

All three analysis tiers — the plan-tree linter
(:mod:`repro.analysis.planlint`), the codebase invariant checker
(:mod:`repro.analysis.codelint`) and the dataflow analyzer
(:mod:`repro.analysis.dataflow`) — emit :class:`Finding` records through
this module, so one reporting path (text and JSON) serves them all.  A
finding names the rule that fired (``P…`` for plan rules, ``R…`` for
code rules, ``C003`` / ``F…`` for dataflow rules), a severity, a
location (file:line for code, a plan-tree path for plans), and a fix
hint.  The rule catalog with rationale lives in ``docs/static_analysis.md``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from enum import Enum
from typing import Any, Iterable, Sequence


class Severity(Enum):
    """How bad a finding is.

    ``ERROR`` findings indicate a broken invariant (the CLI exits non-zero
    on them); ``WARNING`` findings are suspicious but not provably wrong
    (only ``--strict`` fails on them).
    """

    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Finding:
    """One rule violation, produced by either analysis tier."""

    rule: str
    severity: Severity
    message: str
    #: Source file for code findings; empty for plan findings.
    file: str = ""
    #: 1-based source line for code findings; 0 for plan findings.
    line: int = 0
    #: Plan-tree path (``CountPlan/IndexSeekPlan``) for plan findings.
    location: str = ""
    #: A short suggestion for how to fix or suppress the finding.
    hint: str = ""

    def where(self) -> str:
        """Human-readable location: ``file:line`` or the plan path."""
        if self.file:
            return f"{self.file}:{self.line}"
        return self.location or "<plan>"

    def render(self) -> str:
        text = f"{self.where()}: {self.severity.value} {self.rule}: {self.message}"
        if self.hint:
            text += f"  [hint: {self.hint}]"
        return text

    def to_dict(self) -> dict[str, Any]:
        payload = asdict(self)
        payload["severity"] = self.severity.value
        return payload


def errors(findings: Iterable[Finding]) -> list[Finding]:
    return [f for f in findings if f.severity is Severity.ERROR]


def render_findings(findings: Sequence[Finding]) -> str:
    """Multi-line text report, one finding per line, errors first."""
    ordered = sorted(
        findings, key=lambda f: (f.severity is not Severity.ERROR, f.where(), f.rule)
    )
    return "\n".join(f.render() for f in ordered)


def findings_to_json(findings: Sequence[Finding]) -> str:
    """Stable JSON encoding (a list of objects), for tooling and CI."""
    return json.dumps([f.to_dict() for f in findings], indent=2, sort_keys=True)


def summarize(findings: Sequence[Finding]) -> str:
    """The one-line summary printed by the CLI's default text mode."""
    files = {f.file for f in findings}
    return (
        f"{len(findings)} finding(s) ({len(errors(findings))} error(s)) "
        f"across {len(files)} file(s)"
    )
