"""Command line for the static-analysis subsystem.

``python -m repro.analysis [--json] [--strict] [--rules ...] [paths]``
checks the given files/directories (default ``src/repro``) in one pass:
the Tier-2 codebase rules (R-rules) line by line, and the Tier-3
interprocedural rules (C003, F001-F003) over the whole file set as one
program.  ``--rules`` narrows the run to a subset of those ids.  Plan
rules (P-rules) are not source rules: ``Session`` applies them to every
plan it optimizes.

Suppression hygiene: any run that includes rule R010 (the default) audits
``# lint: disable=...`` comments and reports, at warning severity, those
that name an unknown rule id or that suppressed nothing during this run.
Suppressions for rules the run did *not* check (outside a ``--rules``
subset, or waived for the file's path) are dormant, not unused, and stay
silent.

Exit status: ``0`` when clean; ``1`` when any error-severity finding (or,
with ``--strict``, any finding at all) was produced; ``2`` on bad usage
(an unknown rule id, a missing path, or paths holding no ``.py`` file).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Mapping, Optional, Sequence

from repro.analysis.codelint import (
    CODE_RULES,
    _suppressed_rules,
    applicable_code_rules,
    iter_python_files,
    lint_source_raw,
)
from repro.analysis.dataflow import DATAFLOW_RULES, analyze_sources
from repro.analysis.findings import (
    Finding,
    Severity,
    errors,
    findings_to_json,
    render_findings,
    summarize,
)
from repro.common.errors import AnalysisError

#: Every id a ``--rules`` list or a suppression comment may name.
_KNOWN_RULES = frozenset(CODE_RULES) | frozenset(DATAFLOW_RULES)


def _split_rules(
    spec: Optional[str],
) -> tuple[Optional[list[str]], Optional[list[str]]]:
    """``"R001,C003"`` -> (code rules, dataflow rules); ``None`` -> all."""
    if spec is None:
        return None, None
    requested = [part.strip() for part in spec.split(",") if part.strip()]
    unknown = [r for r in requested if r not in _KNOWN_RULES]
    if unknown:
        raise AnalysisError(
            f"unknown rule(s) {unknown}; known: {sorted(_KNOWN_RULES)}"
        )
    return (
        [r for r in requested if r in CODE_RULES],
        [r for r in requested if r in DATAFLOW_RULES],
    )


def _audit_suppressions(
    suppression_maps: Mapping[str, dict[int, set[str]]],
    checked: Mapping[str, set[str]],
    used: set[tuple[str, int, str]],
) -> list[Finding]:
    """R010: flag suppression comments that are unknown or did nothing.

    A suppression is *unused* only relative to the rules this run checked
    for that file; ids outside the run's scope are dormant and silent.
    R010 findings themselves honour a same-line ``disable=R010``.
    """
    known = _KNOWN_RULES | {"R000"}
    findings: list[Finding] = []
    for label, per_file in suppression_maps.items():
        for line, rules in per_file.items():
            if "R010" in rules:
                continue
            for rule in sorted(rules):
                if rule not in known:
                    message = f"suppression names unknown rule id {rule!r}"
                    hint = f"known rule ids: {', '.join(sorted(known))}"
                elif rule in checked.get(label, set()) and (
                    label,
                    line,
                    rule,
                ) not in used:
                    message = f"suppression for {rule} matched no finding"
                    hint = (
                        "the code is clean under this rule; remove the "
                        "stale # lint: disable comment"
                    )
                else:
                    continue
                findings.append(
                    Finding(
                        rule="R010",
                        severity=Severity.WARNING,
                        message=message,
                        file=label,
                        line=line,
                        hint=hint,
                    )
                )
    return findings


def _analyze(
    paths: Sequence[str],
    code_rules: Optional[list[str]],
    flow_rules: Optional[list[str]],
) -> tuple[list[Finding], int]:
    """Run tiers 2 and 3 over ``paths`` with one suppression pass; the
    findings and the number of files checked."""
    sources = {
        str(f): f.read_text(encoding="utf-8") for f in iter_python_files(paths)
    }
    if not sources:
        raise AnalysisError(f"no .py file under {', '.join(paths)}")
    flow_checked = set(DATAFLOW_RULES if flow_rules is None else flow_rules)
    raw: list[Finding] = []
    checked: dict[str, set[str]] = {}
    for label, source in sources.items():
        applicable = applicable_code_rules(label, code_rules)
        checked[label] = set(applicable) | flow_checked
        if applicable:
            raw.extend(lint_source_raw(source, label, code_rules))
    if flow_checked:
        raw.extend(analyze_sources(sources, flow_rules, apply_suppressions=False))

    findings: list[Finding] = []
    used: set[tuple[str, int, str]] = set()
    suppression_maps = {
        label: _suppressed_rules(source) for label, source in sources.items()
    }
    for finding in raw:
        per_line = suppression_maps.get(finding.file, {})
        if finding.rule in per_line.get(finding.line, set()):
            used.add((finding.file, finding.line, finding.rule))
        else:
            findings.append(finding)
    if any("R010" in rules for rules in checked.values()):
        findings.extend(_audit_suppressions(suppression_maps, checked, used))
    findings.sort(key=lambda f: (f.file, f.line, f.rule))
    return findings, len(sources)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Static analysis of the source tree in one pass: "
        "codebase invariants (R-rules) and interprocedural dataflow "
        "rules (C003, F001-F003).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to check (default: src/repro)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit findings as JSON"
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero on any finding (default: errors only)",
    )
    parser.add_argument(
        "--rules",
        default=None,
        help="comma-separated subset of rule ids, e.g. R001,C003",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        findings, files_checked = _analyze(args.paths, *_split_rules(args.rules))
    except AnalysisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.json:
            print(findings_to_json(findings))
        else:
            if findings:
                print(render_findings(findings))
            print(summarize(findings, files_checked))
        sys.stdout.flush()
    except BrokenPipeError:
        # The consumer (`... | head`, `... | jq -e`) closed the pipe early;
        # the findings still determine the exit status.  Detach stdout so
        # interpreter shutdown does not re-raise on the final flush.
        sys.stdout = open(os.devnull, "w")  # noqa: SIM115
    if args.strict:
        return 1 if findings else 0
    return 1 if errors(findings) else 0


if __name__ == "__main__":
    sys.exit(main())
