"""The permanent regression gates: the repo itself is lint-clean under
the tier-2 rules and the tier-3 dataflow rules, the CLI agrees (strict
exit 0, JSON well-formed), every plan the optimizer produces for the
seed workloads passes P001–P006, and the engine never loads the source
linters."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.cli import main as analysis_cli
from repro.analysis.codelint import lint_paths
from repro.analysis.dataflow import DATAFLOW_RULES, analyze_paths
from repro.analysis.planlint import lint_plan
from repro.optimizer.optimizer import Optimizer
from repro.workloads.queries import join_workload, single_table_workload
from repro.workloads.tpch import TPCH_QUERY_COLUMNS, build_tpch_database

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_REPRO = REPO_ROOT / "src" / "repro"


class TestRepoIsClean:
    def test_src_repro_has_no_codelint_findings(self):
        findings = lint_paths([SRC_REPRO])
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_cli_strict_exits_zero_on_src(self, capsys):
        assert analysis_cli(["--strict", str(SRC_REPRO)]) == 0
        out = capsys.readouterr().out
        checked = len(list(SRC_REPRO.rglob("*.py")))
        assert checked > 100 and f"across {checked} file(s) checked" in out

    def test_cli_json_mode_emits_valid_json(self, capsys):
        assert analysis_cli(["--json", str(SRC_REPRO)]) == 0
        assert json.loads(capsys.readouterr().out) == []

    def test_src_repro_has_no_dataflow_findings(self):
        findings = analyze_paths([SRC_REPRO])
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_cli_strict_dataflow_exits_zero_on_src(self, capsys):
        # The tier-3 rules alone, audited: every inline C/F suppression in
        # the tree still earns its keep (an unused one surfaces as R010).
        rules = ",".join(["R010", *DATAFLOW_RULES])
        assert analysis_cli(["--strict", "--rules", rules, str(SRC_REPRO)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out


class TestCliOnViolations:
    @pytest.fixture()
    def violating_file(self, tmp_path):
        path = tmp_path / "bad.py"
        path.write_text("import random\nrandom.seed(1)\n")
        return path

    def test_nonzero_exit_and_summary(self, violating_file, capsys):
        assert analysis_cli([str(violating_file)]) == 1
        out = capsys.readouterr().out
        assert "R001" in out
        assert "1 finding(s) (1 error(s)) across 1 file(s)" in out

    def test_rule_filter_limits_the_run(self, violating_file, capsys):
        assert analysis_cli([str(violating_file), "--rules", "R005"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_unknown_rule_is_a_usage_error(self, violating_file):
        assert analysis_cli([str(violating_file), "--rules", "R9"]) == 2

    def test_paths_without_python_files_are_a_usage_error(self, tmp_path, capsys):
        (tmp_path / "notes.txt").write_text("random.seed(1)\n")
        assert analysis_cli(["--strict", str(tmp_path)]) == 2
        assert "no .py file" in capsys.readouterr().err

    def test_json_findings_carry_rule_and_location(self, violating_file, capsys):
        assert analysis_cli(["--json", str(violating_file)]) == 1
        (payload,) = json.loads(capsys.readouterr().out)
        assert payload["rule"] == "R001"
        assert payload["line"] == 2
        assert payload["severity"] == "error"


def _assert_workload_plans_clean(database, workload, lint_candidates=False):
    for generated in workload:
        optimizer = Optimizer(database, injections=generated.injections())
        plans = (
            optimizer.candidates(generated.query)
            if lint_candidates
            else [optimizer.optimize(generated.query)]
        )
        for plan in plans:
            findings = lint_plan(
                plan, database, injections=optimizer.injections
            )
            assert findings == [], (
                f"{generated.label}: {plan.describe()}\n"
                + "\n".join(f.render() for f in findings)
            )


class TestWorkloadPlansLintClean:
    def test_synthetic_single_table_candidates(self, join_db):
        workload = single_table_workload(
            join_db, "t", ["c2", "c3", "c4", "c5"], queries_per_column=2, seed=11
        )
        _assert_workload_plans_clean(join_db, workload, lint_candidates=True)

    def test_synthetic_join_plans(self, join_db):
        workload = join_workload(
            join_db, "t", "t1", ["c2", "c3"], queries_per_column=2, seed=11
        )
        _assert_workload_plans_clean(join_db, workload)

    def test_tpch_date_column_candidates(self):
        database = build_tpch_database(num_lineitems=5_000, seed=3)
        workload = single_table_workload(
            database,
            "lineitem",
            list(TPCH_QUERY_COLUMNS),
            queries_per_column=2,
            count_column="l_padding",
            seed=5,
        )
        _assert_workload_plans_clean(database, workload, lint_candidates=True)


def test_engine_import_loads_no_source_linter():
    # Session imports the plan linter; the R/C/F linters are tooling and
    # must not ride along into every engine and worker process.
    code = (
        "import sys, repro.session\n"
        "loaded = sorted(m for m in sys.modules if m == 'repro.analysis.codelint'"
        " or m.startswith('repro.analysis.dataflow'))\n"
        "assert 'repro.analysis.planlint' in sys.modules\n"
        "print(loaded)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        check=True,
        timeout=60,
    )
    assert result.stdout.strip() == "[]"
