"""Marshalling for the multi-process worker tier.

Everything that crosses the coordinator↔worker process boundary is
plain JSON-able data, so both sides agree on one wire shape
and neither smuggles live objects across (R014 makes that structural:
worker-importable modules cannot reach the coordinator's
``PlanCache``/``FeedbackStore``).

Two payload families:

* **worker spec** — :class:`WorkerSpec` names a dotted database factory
  (``"module:callable"``) plus its kwargs, so a child process can
  rebuild the *same* seeded database the coordinator holds and execute
  against a bit-identical copy;
* **query/reply envelopes** — built inline by the pool and the child
  loop (:mod:`repro.service.workers` / ``worker_main``).  A reply's
  ``runstats`` is ``RunStats.to_dict()``: its ``page_counts`` are the
  run's observations in
  :meth:`~repro.core.requests.PageCountObservation.to_wire` form, which
  the coordinator rebuilds with ``from_wire`` for a ``remember`` harvest.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.common.errors import WorkerError


@dataclass(frozen=True)
class WorkerSpec:
    """How a worker child rebuilds the coordinator's database.

    ``database_factory`` is a dotted ``"module:callable"`` path (it must
    be importable in the child — worker processes start via ``spawn``,
    so nothing is inherited from the parent's memory); ``factory_kwargs``
    are passed through verbatim.  Building from the same factory with
    the same kwargs is what keeps the loadgen equivalence diff at zero:
    the child's rows, B-tree heights and page layout are bit-identical
    to the coordinator's.
    """

    database_factory: str
    factory_kwargs: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if ":" not in self.database_factory:
            raise WorkerError(
                "database_factory must be a dotted 'module:callable' path, "
                f"got {self.database_factory!r}"
            )

    def resolve_factory(self) -> Callable[..., Any]:
        """Import and return the factory callable (child-side)."""
        module_name, _, attr = self.database_factory.partition(":")
        try:
            module = importlib.import_module(module_name)
            factory = getattr(module, attr)
        except (ImportError, AttributeError) as exc:
            raise WorkerError(
                f"cannot resolve database factory "
                f"{self.database_factory!r}: {exc}"
            ) from exc
        if not callable(factory):
            raise WorkerError(
                f"database factory {self.database_factory!r} is not callable"
            )
        return factory

    def build_database(self) -> Any:
        return self.resolve_factory()(**self.factory_kwargs)
