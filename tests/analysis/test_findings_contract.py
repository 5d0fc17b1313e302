"""The machine-readable findings contract.

``--json`` output is consumed by CI tooling (uploaded as an artifact and
queried with jq), so its shape is locked by a golden file: keys, rule
ids, severities, locations, and message wording all participate in the
contract.  The exit-code contract (0 clean / 1 findings / 2 usage) is
locked alongside it.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.cli import main as analysis_cli

GOLDEN = Path(__file__).parent / "golden" / "dataflow_findings.json"

FIXTURE_SOURCE = '''"""Fixture: one C003 and one F002 violation for the JSON contract."""

import time


class Service:
    async def handle(self, request):
        slot = await self.admission.admit(request.priority)
        self.telemetry.count("admitted")
        try:
            return await self.run(request)
        finally:
            slot.release()

    async def warm(self):
        time.sleep(0.2)
'''


@pytest.fixture()
def fixture_file(tmp_path):
    # The service/ path segment matters: C003 and F002 police service code.
    target = tmp_path / "pkg" / "service" / "svc.py"
    target.parent.mkdir(parents=True)
    target.write_text(FIXTURE_SOURCE)
    return target


class TestJsonGolden:
    def test_json_output_matches_the_golden_file(self, fixture_file, capsys):
        # No flag: one run checks tiers 2 and 3 together.
        assert analysis_cli(["--json", str(fixture_file)]) == 1
        payload = json.loads(capsys.readouterr().out)
        for entry in payload:
            assert entry["file"] == str(fixture_file)
            entry["file"] = "<FIXTURE>"
        assert payload == json.loads(GOLDEN.read_text())

    def test_every_finding_carries_the_contract_keys(self, fixture_file, capsys):
        analysis_cli(["--json", str(fixture_file)])
        payload = json.loads(capsys.readouterr().out)
        assert payload, "fixture must produce findings"
        for entry in payload:
            assert set(entry) == {
                "rule",
                "severity",
                "message",
                "file",
                "line",
                "location",
                "hint",
            }
            assert entry["severity"] in {"error", "warning"}
            assert isinstance(entry["line"], int) and entry["line"] > 0


class TestExitCodes:
    def test_zero_on_clean_tree(self, tmp_path, capsys):
        clean = tmp_path / "service" / "ok.py"
        clean.parent.mkdir()
        clean.write_text("async def handle():\n    return 1\n")
        assert analysis_cli(["--strict", str(clean)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_one_on_findings(self, fixture_file, capsys):
        assert analysis_cli([str(fixture_file)]) == 1
        out = capsys.readouterr().out
        assert "C003" in out and "F002" in out

    def test_two_on_usage_errors(self, fixture_file, capsys):
        assert analysis_cli(["--rules", "C999", str(fixture_file)]) == 2
        assert analysis_cli([str(fixture_file / "missing.py")]) == 2


class TestSuppressionAudit:
    def test_unused_suppression_is_a_warning(self, tmp_path, capsys):
        target = tmp_path / "mod.py"
        target.write_text("x = 1  # lint: disable=R001\n")
        assert analysis_cli([str(target)]) == 0, "warnings don't fail default mode"
        assert analysis_cli(["--strict", str(target)]) == 1
        out = capsys.readouterr().out
        assert "R010" in out and "matched no finding" in out

    def test_unknown_rule_id_in_suppression_is_flagged(self, tmp_path, capsys):
        target = tmp_path / "mod.py"
        target.write_text("x = 1  # lint: disable=R999\n")
        assert analysis_cli(["--strict", str(target)]) == 1
        assert "unknown rule id" in capsys.readouterr().out

    def test_used_suppression_stays_silent(self, tmp_path, capsys):
        target = tmp_path / "mod.py"
        target.write_text("import random\nrandom.seed(1)  # lint: disable=R001\n")
        assert analysis_cli(["--strict", str(target)]) == 0

    def test_dormant_dataflow_suppression_not_flagged_under_a_rules_subset(
        self, tmp_path, capsys
    ):
        # A C003 suppression is only auditable when C003 runs: a --rules
        # subset without it must treat the comment as dormant, not unused,
        # while the full run sees it suppress a real finding.
        target = tmp_path / "service" / "mod.py"
        target.parent.mkdir()
        target.write_text(
            "import time\n\n\nasync def handle():\n"
            "    time.sleep(0.1)  # lint: disable=C003\n"
        )
        assert analysis_cli(["--strict", "--rules", "R001,R010", str(target)]) == 0
        assert analysis_cli(["--strict", str(target)]) == 0
        target.write_text(
            "async def handle():\n    return 1  # lint: disable=C003\n"
        )
        assert analysis_cli(["--strict", "--rules", "R001,R010", str(target)]) == 0
        assert analysis_cli(["--strict", str(target)]) == 1
        assert "suppression for C003 matched no finding" in capsys.readouterr().out
