"""Thread-safe multi-session front end over the simulated engine."""

from repro.engine.engine import Engine, WorkloadItem

__all__ = ["Engine", "WorkloadItem"]
