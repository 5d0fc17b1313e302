"""Tier-2 codebase linter: every rule fires on a violating fixture and
stays silent on a clean one; suppression comments and per-rule allowed
paths are honoured."""

from __future__ import annotations

import pytest

from repro.analysis.codelint import CODE_RULES, lint_paths, lint_source
from repro.analysis.findings import Severity
from repro.common.errors import AnalysisError


def rules_fired(source: str, label: str = "src/repro/some/module.py") -> set[str]:
    return {finding.rule for finding in lint_source(source, label)}


# ----------------------------------------------------------------------
# R001 — RNG discipline
# ----------------------------------------------------------------------
class TestR001:
    def test_fires_on_random_module_call(self):
        assert "R001" in rules_fired("import random\nx = random.random()\n")

    def test_fires_on_random_constructor(self):
        assert "R001" in rules_fired("import random\nrng = random.Random()\n")

    def test_fires_on_numpy_default_rng(self):
        assert "R001" in rules_fired(
            "import numpy as np\nrng = np.random.default_rng()\n"
        )

    def test_fires_on_from_import(self):
        assert "R001" in rules_fired("from random import Random\n")

    def test_silent_on_seeded_helper(self):
        clean = (
            "from repro.common.rng import make_random\n"
            "rng = make_random(7, 'stream')\n"
            "x = rng.random()\n"
        )
        assert "R001" not in rules_fired(clean)

    def test_allowed_inside_rng_module(self):
        violating = "import random\nrng = random.Random(3)\n"
        assert "R001" not in rules_fired(violating, "src/repro/common/rng.py")


# ----------------------------------------------------------------------
# R002 — buffer-pool accounting discipline
# ----------------------------------------------------------------------
class TestR002:
    def test_fires_on_direct_charge(self):
        assert "R002" in rules_fired("clock.charge_random_read()\n")
        assert "R002" in rules_fired("self.clock.charge_sequential_read(4)\n")

    def test_silent_on_buffer_pool_access(self):
        assert "R002" not in rules_fired("pool.access_sequence(keys, io)\n")

    def test_allowed_inside_buffer_module(self):
        violating = "self.clock.charge_random_read()\n"
        assert "R002" not in rules_fired(violating, "src/repro/storage/buffer.py")


# ----------------------------------------------------------------------
# R003 — float cost/estimate equality
# ----------------------------------------------------------------------
class TestR003:
    def test_fires_on_cost_equality(self):
        assert "R003" in rules_fired("if plan.estimated_cost_ms == other_cost:\n    pass\n")

    def test_fires_on_dpc_inequality(self):
        assert "R003" in rules_fired("flag = estimated_dpc != actual_dpc\n")

    def test_fires_on_float_literal(self):
        assert "R003" in rules_fired("if value == 1.5:\n    pass\n")

    def test_silent_on_tolerant_comparison(self):
        clean = (
            "import math\n"
            "ok = math.isclose(estimated_cost_ms, other_cost)\n"
            "less = estimated_dpc < actual_dpc\n"
        )
        assert "R003" not in rules_fired(clean)

    def test_silent_on_integer_counters(self):
        assert "R003" not in rules_fired("if stats.page_count == 0:\n    pass\n")


# ----------------------------------------------------------------------
# R005 — wall-clock discipline
# ----------------------------------------------------------------------
class TestR005:
    def test_fires_on_time_time(self):
        assert "R005" in rules_fired("import time\nstart = time.time()\n")

    def test_fires_on_perf_counter_import(self):
        assert "R005" in rules_fired("from time import perf_counter\n")

    def test_fires_on_datetime_now(self):
        assert "R005" in rules_fired(
            "import datetime\nstamp = datetime.datetime.now()\n"
        )

    def test_silent_on_timedelta(self):
        assert "R005" not in rules_fired(
            "import datetime\nd = datetime.timedelta(days=3)\n"
        )

    def test_allowed_inside_timing_module(self):
        violating = "import time\nnow = time.time()\n"
        assert "R005" not in rules_fired(violating, "src/repro/harness/timing.py")


# ----------------------------------------------------------------------
# R006 — no global clock: accounting flows through IOContext
# ----------------------------------------------------------------------
class TestR006:
    def test_fires_on_database_clock_attribute(self):
        assert "R006" in rules_fired("elapsed = database.clock.now_ms\n")
        assert "R006" in rules_fired("params = self.database.clock.params\n")

    def test_fires_on_db_and_buffer_pool_owners(self):
        assert "R006" in rules_fired("t = db.clock\n")
        assert "R006" in rules_fired("c = pool.buffer_pool.clock\n")

    def test_fires_on_snapshot_protocol(self):
        assert "R006" in rules_fired("before = some_clock.snapshot()\n")

    def test_fires_once_on_owner_clock_snapshot(self):
        source = "before = database.clock.snapshot()\n"
        findings = lint_source(source, "src/repro/some/module.py")
        assert len([f for f in findings if f.rule == "R006"]) == 1

    def test_fires_on_simulated_clock_construction(self):
        assert "R006" in rules_fired("clock = SimulatedClock()\n")

    def test_fires_on_legacy_imports(self):
        assert "R006" in rules_fired(
            "from repro.storage.disk import SimulatedClock\n"
        )
        assert "R006" in rules_fired(
            "from repro.storage.disk import ClockSnapshot\n"
        )

    def test_silent_on_io_context_use(self):
        clean = (
            "io = database.new_io_context()\n"
            "io.charge_rows(5)\n"
            "elapsed = io.elapsed_ms\n"
        )
        assert "R006" not in rules_fired(clean)

    def test_silent_on_unrelated_clock_names(self):
        assert "R006" not in rules_fired("period = config.clock_skew_ms\n")
        assert "R006" not in rules_fired("wall = stopwatch.snapshot\n")

    def test_allowed_inside_sanctioned_modules(self):
        violating = "c = database.clock\n"
        for path in (
            "src/repro/storage/disk.py",
            "src/repro/harness/timing.py",
            "src/repro/storage/accounting.py",
        ):
            assert "R006" not in rules_fired(violating, path)


# ----------------------------------------------------------------------
# R007 — optimization goes through the staged lifecycle
# ----------------------------------------------------------------------
class TestR007:
    def test_fires_on_bare_construction(self):
        assert "R007" in rules_fired(
            "from repro.optimizer.optimizer import Optimizer\n"
            "opt = Optimizer(database)\n"
        )

    def test_fires_on_qualified_construction(self):
        assert "R007" in rules_fired(
            "import repro.optimizer.optimizer as o\n"
            "plan = o.Optimizer(db, injections=inj).optimize(q)\n"
        )

    def test_silent_on_build_optimizer(self):
        clean = (
            "from repro.lifecycle.plan import build_optimizer\n"
            "opt = build_optimizer(database, injections=inj)\n"
        )
        assert "R007" not in rules_fired(clean)

    def test_silent_on_session_lifecycle(self):
        clean = (
            "from repro.session import Session\n"
            "plan = Session(database).optimize(query)\n"
        )
        assert "R007" not in rules_fired(clean)

    def test_silent_on_type_annotation_import(self):
        """Importing the name for typing is fine; only construction fires."""
        assert "R007" not in rules_fired(
            "from repro.optimizer.optimizer import Optimizer\n"
            "def f(opt: Optimizer) -> None: ...\n"
        )

    def test_allowed_inside_sanctioned_modules(self):
        violating = "opt = Optimizer(database)\n"
        for path in (
            "src/repro/lifecycle/plan.py",
            "src/repro/core/diagnostics.py",
        ):
            assert "R007" not in rules_fired(violating, path)


# ----------------------------------------------------------------------
# R008 — no per-row charging inside batch-mode operators
# ----------------------------------------------------------------------
class TestR008:
    def test_fires_on_charge_rows_one_in_batches(self):
        assert "R008" in rules_fired(
            "def batches(self, ctx):\n"
            "    for row in rows:\n"
            "        ctx.io.charge_rows(1)\n"
        )

    def test_fires_on_argless_charge_rows(self):
        assert "R008" in rules_fired(
            "def _scan_pages_batched(self, ctx):\n"
            "    io.charge_rows()\n"
        )

    def test_fires_inside_nested_flush_closure(self):
        """A flush() helper nested in batches() is still batch-mode code."""
        assert "R008" in rules_fired(
            "def batches(self, ctx):\n"
            "    def flush():\n"
            "        io.charge_rows(1)\n"
            "    flush()\n"
        )

    def test_fires_on_keyword_constant_one(self):
        assert "R008" in rules_fired(
            "def batches(self, ctx):\n"
            "    io.charge_rows(count=1)\n"
        )

    def test_silent_on_batched_charge(self):
        clean = (
            "def batches(self, ctx):\n"
            "    def flush():\n"
            "        io.charge_rows(len(rows_buf))\n"
            "    flush()\n"
        )
        assert "R008" not in rules_fired(clean)

    def test_silent_in_row_mode_functions(self):
        """charge_rows(1) is the correct idiom in the row iterator."""
        assert "R008" not in rules_fired(
            "def rows(self, ctx):\n"
            "    io.charge_rows(1)\n"
        )

    def test_silent_at_module_level(self):
        assert "R008" not in rules_fired("io.charge_rows(1)\n")


# ----------------------------------------------------------------------
# R009 — concurrency primitives stay in sanctioned sites
# ----------------------------------------------------------------------
class TestR009:
    def test_fires_on_bare_thread_call(self):
        assert "R009" in rules_fired(
            "import threading\nt = threading.Thread(target=work)\n"
        )

    def test_fires_on_thread_from_import(self):
        assert "R009" in rules_fired("from threading import Thread\n")

    def test_fires_on_get_event_loop_call(self):
        assert "R009" in rules_fired(
            "import asyncio\nloop = asyncio.get_event_loop()\n"
        )

    def test_fires_on_get_event_loop_from_import(self):
        assert "R009" in rules_fired("from asyncio import get_event_loop\n")

    def test_allowed_inside_service_package(self):
        violating = "import asyncio\nloop = asyncio.get_event_loop()\n"
        assert "R009" not in rules_fired(
            violating, "src/repro/service/service.py"
        )

    def test_fires_inside_engine_module(self):
        """The engine builds no thread: concurrency is the service's."""
        violating = "import threading\nt = threading.Thread(target=w)\n"
        assert "R009" in rules_fired(
            violating, "src/repro/engine/engine.py"
        )

    def test_silent_on_thread_pool_executor(self):
        clean = (
            "from concurrent.futures import ThreadPoolExecutor\n"
            "pool = ThreadPoolExecutor(max_workers=2)\n"
        )
        assert "R009" not in rules_fired(clean)

    def test_silent_on_get_running_loop(self):
        assert "R009" not in rules_fired(
            "import asyncio\nloop = asyncio.get_running_loop()\n"
        )

    def test_silent_on_threading_lock(self):
        assert "R009" not in rules_fired(
            "import threading\nlock = threading.Lock()\n"
        )

    def test_fires_inside_shard_coordinator(self):
        """The shard fan-out is a loop: no longer a sanctioned thread site."""
        violating = "import threading\nt = threading.Thread(target=w)\n"
        assert "R009" in rules_fired(
            violating, "src/repro/shard/coordinator.py"
        )


# ----------------------------------------------------------------------
# R011 — vector kernels stay whole-vector
# ----------------------------------------------------------------------
class TestR011:
    def test_fires_on_for_loop_in_matches_vector(self):
        assert "R011" in rules_fired(
            "class C:\n"
            "    def matches_vector(self, column):\n"
            "        out = []\n"
            "        for value in column:\n"
            "            out.append(value > 3)\n"
            "        return out\n",
            "src/repro/sql/predicates.py",
        )

    def test_fires_on_comprehension_in_evaluate_columns(self):
        assert "R011" in rules_fired(
            "def evaluate_columns(self, columns, num_rows):\n"
            "    return [v is not None for v in columns[0]]\n",
            "src/repro/sql/evaluator.py",
        )

    def test_fires_inside_nested_closure(self):
        assert "R011" in rules_fired(
            "def matches_vector(self, column):\n"
            "    def kernel():\n"
            "        return [v > 0 for v in column]\n"
            "    return kernel()\n",
            "src/repro/exec/scans.py",
        )

    def test_silent_on_range_index_loop(self):
        """Per-term index loops are not per-row loops."""
        assert "R011" not in rules_fired(
            "def evaluate_columns(self, columns, num_rows):\n"
            "    for i in range(len(self._kernels)):\n"
            "        pass\n",
            "src/repro/sql/evaluator.py",
        )

    def test_silent_outside_kernel_functions(self):
        assert "R011" not in rules_fired(
            "def observe_column(self, column):\n"
            "    return [v for v in column]\n",
            "src/repro/core/monitors.py",
        )

    def test_waived_in_vector_backend(self):
        """exec/vector.py IS the sanctioned per-row site (its list columns)."""
        assert "R011" not in rules_fired(
            "def matches_vector(column):\n"
            "    return [v > 0 for v in column]\n",
            "src/repro/exec/vector.py",
        )


# ----------------------------------------------------------------------
# R012 — batch size comes from DEFAULT_BATCH_ROWS
# ----------------------------------------------------------------------
class TestR012:
    def test_fires_on_magic_literal_in_exec(self):
        assert "R012" in rules_fired(
            "chunk = 1024\n", "src/repro/exec/scans.py"
        )

    def test_fires_in_sql(self):
        assert "R012" in rules_fired(
            "LIMIT = 1024\n", "src/repro/sql/evaluator.py"
        )

    def test_waived_at_definition_site(self):
        assert "R012" not in rules_fired(
            "DEFAULT_BATCH_ROWS = 1024\n", "src/repro/exec/batch.py"
        )

    def test_silent_outside_exchange_layer(self):
        assert "R012" not in rules_fired(
            "floor = max(1024, rows)\n", "src/repro/core/planner.py"
        )

    def test_silent_on_other_numbers(self):
        assert "R012" not in rules_fired(
            "chunk = 512\n", "src/repro/exec/scans.py"
        )


# ----------------------------------------------------------------------
# R014 — worker-child modules stay off coordinator authority
# ----------------------------------------------------------------------
class TestR014:
    CHILD_PATH = "src/repro/service/worker_main.py"
    MARSHAL_PATH = "src/repro/service/marshal.py"

    def test_fires_on_store_mutation_in_child(self):
        assert "R014" in rules_fired(
            "def _serve_query(engine, message):\n"
            "    engine.feedback.record_observations(batch)\n",
            self.CHILD_PATH,
        )

    def test_fires_on_run_harvest_in_marshal(self):
        assert "R014" in rules_fired(
            "def apply(store, runstats):\n"
            "    store.record_run(runstats)\n",
            self.MARSHAL_PATH,
        )

    def test_fires_on_plan_cache_access_in_child(self):
        assert "R014" in rules_fired(
            "def _serve_query(engine, message):\n"
            "    engine.plan_cache.resolve(query)\n",
            self.CHILD_PATH,
        )

    def test_fires_on_lifecycle_import_in_child(self):
        assert "R014" in rules_fired(
            "from repro.lifecycle.plancache import PlanCache\n",
            self.CHILD_PATH,
        )
        assert "R014" in rules_fired(
            "import repro.lifecycle.plancache\n", self.CHILD_PATH
        )

    def test_silent_on_replica_swap(self):
        """Swapping in a rebuilt replica is the sanctioned sync path."""
        clean = (
            "from repro.core.feedback import FeedbackStore\n"
            "def _serve_query(engine, message):\n"
            "    engine.feedback = FeedbackStore.from_json(payload)\n"
        )
        assert "R014" not in rules_fired(clean, self.CHILD_PATH)

    def test_silent_on_marshalling_itself(self):
        clean = (
            "def to_wire(observations):\n"
            "    return [{'key': obs.key} for obs in observations]\n"
        )
        assert "R014" not in rules_fired(clean, self.MARSHAL_PATH)

    def test_silent_coordinator_side(self):
        """The pool and the engine ARE the coordinator: harvest is theirs."""
        coordinator = (
            "def _interpret_reply(self, reply):\n"
            "    return self.engine.harvest_observations(batch)\n"
        )
        assert "R014" not in rules_fired(
            coordinator, "src/repro/service/workers.py"
        )


# ----------------------------------------------------------------------
# Shared machinery
# ----------------------------------------------------------------------
class TestMachinery:
    def test_inline_suppression(self):
        suppressed = "x = random.random()  # lint: disable=R001\n"
        assert rules_fired("import random\n" + suppressed) == set()

    def test_suppression_is_rule_specific(self):
        wrong_rule = "x = random.random()  # lint: disable=R005\n"
        assert "R001" in rules_fired("import random\n" + wrong_rule)

    def test_findings_carry_location_and_severity(self):
        findings = lint_source("import time\nt = time.time()\n", "pkg/mod.py")
        (finding,) = findings
        assert finding.file == "pkg/mod.py"
        assert finding.line == 2
        assert finding.severity is Severity.ERROR
        assert "pkg/mod.py:2" in finding.render()

    def test_unknown_rule_rejected(self):
        with pytest.raises(AnalysisError):
            lint_source("x = 1\n", "m.py", rules=["R999"])

    def test_syntax_error_reported_not_raised(self):
        (finding,) = lint_source("def broken(:\n", "m.py")
        assert finding.rule == "R000"

    def test_lint_paths_walks_directories(self, tmp_path):
        (tmp_path / "good.py").write_text("x = 1\n")
        (tmp_path / "bad.py").write_text("import random\nrandom.seed(0)\n")
        findings = lint_paths([tmp_path])
        assert {f.rule for f in findings} == {"R001"}
        assert all("bad.py" in f.file for f in findings)

    def test_every_rule_has_a_description(self):
        assert set(CODE_RULES) == {
            "R001",
            "R002",
            "R003",
            "R005",
            "R006",
            "R007",
            "R008",
            "R009",
            "R010",
            "R011",
            "R012",
            "R014",
            "R015",
        }
        assert all(CODE_RULES[rule] for rule in CODE_RULES)
