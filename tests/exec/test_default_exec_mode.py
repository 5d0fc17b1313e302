"""One default drive: every layer's ``exec_mode`` default is the constant."""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import repro
from repro.exec.executor import DEFAULT_EXEC_MODE, EXEC_MODES, execute

#: One entry point per layer; the walk must reach each of them.
LAYERS = (
    "repro.exec.executor.execute",
    "repro.lifecycle.runner.QueryLifecycle.run_plan",
    "repro.session.Session.run",
    "repro.engine.engine.WorkloadItem",
    "repro.engine.engine.Engine.execute_plan",
    "repro.shard.coordinator.ShardCoordinator.execute_plan",
    "repro.harness.methodology.evaluate_query",
    "repro.service.protocol.QueryRequest",
    "repro.reopt.episode.run_with_reopt",
    "repro.harness.loadgen.LoadSpec",
    "repro.harness.figures.run_fig6_fig7",
)


def _public_callables():
    """Every public function, class and method defined under ``repro``."""
    for module_info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(module_info.name)
        for name, member in vars(module).items():
            if name.startswith("_") or (
                getattr(member, "__module__", None) != module.__name__
            ):
                continue
            label = f"{module.__name__}.{name}"
            if inspect.isfunction(member):
                yield label, member
            elif inspect.isclass(member):
                yield label, member
                for attr, method in vars(member).items():
                    if inspect.isfunction(method) and not attr.startswith("_"):
                        yield f"{label}.{attr}", method


def test_every_exec_mode_default_is_the_one_constant():
    checked = set()
    for label, member in _public_callables():
        try:
            parameters = inspect.signature(member).parameters.values()
        except ValueError:  # exception classes: no introspectable __init__
            continue
        for parameter in parameters:
            names_a_drive = parameter.name == "exec_mode" or (
                isinstance(parameter.default, str)
                and parameter.default in EXEC_MODES
            )
            if names_a_drive:
                assert parameter.default is DEFAULT_EXEC_MODE, (
                    f"{label}({parameter.name}=...) defaults to "
                    f"{parameter.default!r}, not DEFAULT_EXEC_MODE"
                )
                checked.add(label)
    assert checked >= set(LAYERS), set(LAYERS) - checked
    assert DEFAULT_EXEC_MODE == "batch"


def test_oracle_and_retired_spelling_stay_reachable_by_name(synthetic_db):
    from repro.core.planner import build_executable
    from repro.session import Session
    from repro.sql import parse_query

    query = parse_query("SELECT count(padding) FROM t WHERE c2 < 300")
    plan = Session(synthetic_db).optimize(query)
    ran = {}
    for mode in ("row", "batch", "columnar"):
        root = build_executable(plan, synthetic_db).root
        result = execute(root, synthetic_db, mode=mode)
        ran[mode] = result.runstats.execution_mode
    assert ran == {"row": "row", "batch": "batch", "columnar": "batch"}


def test_merge_join_is_the_only_operator_on_the_rows_adapter():
    """Every other operator in ``repro.exec`` has a batch drive of its
    own; ``Operator.batches`` (chunked ``rows()``) serves merge join."""
    import repro.exec
    from repro.exec.base import Operator

    for module_info in pkgutil.walk_packages(repro.exec.__path__, "repro.exec."):
        importlib.import_module(module_info.name)

    def descendants(cls):
        for child in cls.__subclasses__():
            yield child
            yield from descendants(child)

    adapted = {
        cls.__name__
        for cls in descendants(Operator)
        if cls.__module__.startswith("repro.exec.")
        and cls.batches is Operator.batches
    }
    assert adapted == {"MergeJoin"}
