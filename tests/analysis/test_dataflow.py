"""Tier-3 dataflow rules: each rule fires on a crafted violation and
stays silent on the matching clean idiom.

Fixtures are tiny multi-file "programs" passed to ``analyze_sources`` as
label -> source mappings; labels matter because C003 only polices
``service/`` coroutines and F001 only polices ``exec/`` drive loops.
"""

from __future__ import annotations

import pytest

from repro.analysis.dataflow import DATAFLOW_RULES, analyze_paths, analyze_sources

# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------


def fired(sources: dict[str, str], rules: list[str]) -> set[str]:
    return {f.rule for f in analyze_sources(sources, rules=rules)}


def findings_for(sources: dict[str, str], rules: list[str]):
    return analyze_sources(sources, rules=rules)


# ----------------------------------------------------------------------
# C003 — blocking calls reachable inside service coroutines
# ----------------------------------------------------------------------
class TestC003:
    def test_fires_on_direct_sleep_in_service_coroutine(self):
        source = """
import time

class Service:
    async def handle(self):
        time.sleep(0.1)
"""
        findings = findings_for({"pkg/service/svc.py": source}, ["C003"])
        assert {f.rule for f in findings} == {"C003"}

    def test_fires_through_a_sync_helper(self):
        source = """
import time

def warm_up():
    time.sleep(0.5)

class Service:
    async def handle(self):
        warm_up()
"""
        findings = findings_for({"pkg/service/svc.py": source}, ["C003"])
        assert {f.rule for f in findings} == {"C003"}
        assert "warm_up" in findings[0].message

    def test_silent_with_executor_hop(self):
        source = """
import asyncio
import time

def warm_up():
    time.sleep(0.5)

class Service:
    async def handle(self):
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, warm_up)
"""
        assert fired({"pkg/service/svc.py": source}, ["C003"]) == set()

    def test_silent_outside_service_paths(self):
        source = """
import time

class Batch:
    async def handle(self):
        time.sleep(0.1)
"""
        assert fired({"pkg/harness/batch.py": source}, ["C003"]) == set()

    #: ``Engine.execute_plan`` runs a whole plan; nothing in its body says
    #: so to the analysis, which is why it is a blocking seed by name.
    ENGINE = """
class Engine:
    def execute_plan(self, query, plan):
        return plan
"""

    def test_fires_on_execute_plan_called_on_the_loop(self):
        source = """
from pkg.engine import Engine

class Service:
    def __init__(self):
        self.engine = Engine()

    async def handle(self, query, plan):
        return self.engine.execute_plan(query, plan)
"""
        findings = findings_for(
            {"pkg/engine.py": self.ENGINE, "pkg/service/svc.py": source}, ["C003"]
        )
        assert [f.rule for f in findings] == ["C003"]
        assert "Engine.execute_plan" in findings[0].message

    def test_silent_when_execute_plan_hops_to_the_executor(self):
        source = """
import asyncio
from pkg.engine import Engine

class Service:
    def __init__(self):
        self.engine = Engine()

    async def handle(self, query, plan):
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            None, self.engine.execute_plan, query, plan
        )
"""
        sources = {"pkg/engine.py": self.ENGINE, "pkg/service/svc.py": source}
        assert fired(sources, ["C003"]) == set()


# ----------------------------------------------------------------------
# F001 — drive loops in exec/ must checkpoint on every path
# ----------------------------------------------------------------------
class TestF001:
    def test_fires_on_checkpoint_free_drive_loop(self):
        source = """
class Scan:
    def rows(self, ctx):
        io = ctx.io
        for row in self.source:
            io.charge_rows(1)
            yield row
"""
        findings = findings_for({"pkg/exec/scan.py": source}, ["F001"])
        assert {f.rule for f in findings} == {"F001"}

    def test_fires_when_a_conditional_path_skips_the_checkpoint(self):
        # The checkpoint is guarded by a data-dependent (not boundary)
        # condition, so a run of falsy rows never reaches it.
        source = """
class Scan:
    def rows(self, ctx):
        io = ctx.io
        for row in self.source:
            if row.visible:
                ctx.checkpoint()
            io.charge_rows(1)
            yield row
"""
        findings = findings_for({"pkg/exec/scan.py": source}, ["F001"])
        assert {f.rule for f in findings} == {"F001"}

    def test_silent_on_unconditional_checkpoint(self):
        source = """
class Scan:
    def rows(self, ctx):
        io = ctx.io
        for row in self.source:
            ctx.checkpoint()
            io.charge_rows(1)
            yield row
"""
        assert fired({"pkg/exec/scan.py": source}, ["F001"]) == set()

    def test_silent_on_boundary_guarded_checkpoint(self):
        source = """
class Scan:
    def rows(self, ctx):
        io = ctx.io
        for position, row in enumerate(self.source):
            if not position % 256:
                ctx.checkpoint()
            io.charge_rows(1)
            yield row
"""
        assert fired({"pkg/exec/scan.py": source}, ["F001"]) == set()

    def test_silent_on_stream_loop_over_checkpointing_child(self):
        source = """
class Filter:
    def rows(self, ctx):
        io = ctx.io
        for row in self.child.rows(ctx):
            io.charge_predicates(1)
            yield row
"""
        assert fired({"pkg/exec/filter.py": source}, ["F001"]) == set()

    def test_silent_when_enclosing_page_loop_checkpoints(self):
        # The paper's scan idiom: one checkpoint per page, then an inner
        # row loop charges without its own checkpoint.
        source = """
class Scan:
    def rows(self, ctx):
        io = ctx.io
        for page_id, rows in self.pages():
            ctx.checkpoint()
            for row in rows:
                io.charge_rows(1)
                yield row
"""
        assert fired({"pkg/exec/scan.py": source}, ["F001"]) == set()


# ----------------------------------------------------------------------
# F002 — admission slots / IOContexts settle on all paths
# ----------------------------------------------------------------------
class TestF002:
    def test_fires_when_work_precedes_the_release_try(self):
        source = """
class Service:
    async def handle(self, request):
        slot = await self.admission.admit(request.priority)
        self.telemetry.count("admitted")
        try:
            return await self.run(request)
        finally:
            slot.release()
"""
        findings = findings_for({"pkg/service/svc.py": source}, ["F002"])
        assert {f.rule for f in findings} == {"F002"}
        assert "admission slot" in findings[0].message

    def test_silent_when_try_finally_is_immediate(self):
        source = """
class Service:
    async def handle(self, request):
        slot = await self.admission.admit(request.priority)
        try:
            self.telemetry.count("admitted")
            return await self.run(request)
        finally:
            slot.release()
"""
        assert fired({"pkg/service/svc.py": source}, ["F002"]) == set()

    def test_silent_when_the_slot_escapes_by_return(self):
        source = """
class Service:
    async def reserve(self, request):
        slot = await self.admission.admit(request.priority)
        return slot
"""
        assert fired({"pkg/service/svc.py": source}, ["F002"]) == set()


# ----------------------------------------------------------------------
# F003 — no epoch bump reachable after observing a cancellation
# ----------------------------------------------------------------------
class TestF003:
    def test_fires_when_cancel_handler_reaches_a_bump(self):
        source = """
from repro.common.errors import QueryCancelled

class FeedbackStore:
    def bump_epoch(self):
        self.epoch += 1

    def remember(self, outcome):
        self.bump_epoch()

class Service:
    def __init__(self):
        self.store = FeedbackStore()

    async def handle(self, request):
        try:
            return await self.run(request)
        except QueryCancelled:
            self.store.remember(None)
            raise
"""
        findings = findings_for({"pkg/service/svc.py": source}, ["F003"])
        assert {f.rule for f in findings} == {"F003"}
        assert "remember" in findings[0].message

    def test_silent_when_handler_only_observes(self):
        source = """
from repro.common.errors import QueryCancelled

class FeedbackStore:
    def bump_epoch(self):
        self.epoch += 1

class Service:
    def __init__(self):
        self.store = FeedbackStore()

    async def handle(self, request):
        try:
            return await self.run(request)
        except QueryCancelled:
            self.telemetry.count("cancelled")
            raise
"""
        assert fired({"pkg/service/svc.py": source}, ["F003"]) == set()


# ----------------------------------------------------------------------
# Machinery
# ----------------------------------------------------------------------
class TestMachinery:
    def test_rule_catalog_is_exactly_the_four_rules(self):
        assert set(DATAFLOW_RULES) == {"C003", "F001", "F002", "F003"}
        assert all(DATAFLOW_RULES[rule] for rule in DATAFLOW_RULES)

    def test_inline_suppression_is_honoured(self):
        source = """
import time

class Service:
    async def handle(self):
        time.sleep(0.1)  # lint: disable=C003
"""
        assert fired({"pkg/service/svc.py": source}, ["C003"]) == set()

    def test_unknown_rule_rejected(self):
        from repro.common.errors import AnalysisError

        with pytest.raises(AnalysisError):
            analyze_sources({"m.py": "x = 1\n"}, rules=["C999"])

    def test_syntax_errors_are_skipped_not_raised(self):
        sources = {"bad.py": "def broken(:\n", "good.py": "x = 1\n"}
        assert analyze_sources(sources) == []

    def test_findings_are_sorted_and_carry_locations(self):
        source = """
import time

class Service:
    async def zz(self):
        time.sleep(0.2)

    async def aa(self):
        time.sleep(0.1)
"""
        findings = findings_for({"pkg/service/svc.py": source}, ["C003"])
        assert [f.rule for f in findings] == ["C003", "C003"]
        assert findings[0].line < findings[1].line
        assert all(f.file == "pkg/service/svc.py" for f in findings)

    def test_analyze_paths_walks_directories(self, tmp_path):
        # The file-system front of analyze_sources, with suppressions
        # applied: one finding fires, the suppressed twin stays silent.
        service = tmp_path / "pkg" / "service"
        service.mkdir(parents=True)
        (service / "svc.py").write_text(
            "import time\n\n"
            "class Service:\n"
            "    async def handle(self):\n"
            "        time.sleep(0.1)\n\n"
            "    async def quiet(self):\n"
            "        time.sleep(0.1)  # lint: disable=C003\n"
        )
        findings = analyze_paths([tmp_path], rules=["C003"])
        assert [(f.rule, f.line) for f in findings] == [("C003", 5)]
