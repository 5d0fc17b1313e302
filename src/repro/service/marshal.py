"""Marshalling for the multi-process worker tier.

Everything that crosses the coordinator↔worker process boundary is a
plain dict of JSON-able scalars built here, so both sides agree on one
wire shape and neither smuggles live objects across (R014 makes that
structural: worker-importable modules cannot reach the coordinator's
``PlanCache``/``FeedbackStore`` — observations travel only through these
functions).

Three payload families:

* **worker spec** — :class:`WorkerSpec` names a dotted database factory
  (``"module:callable"``) plus its kwargs, so a child process can
  rebuild the *same* seeded database the coordinator holds and execute
  against a bit-identical copy;
* **observations** — a harvested
  :class:`~repro.core.requests.PageCountObservation` flattens to
  ``{key, table, mechanism, estimate, exact, answered, reason,
  instrument}`` (the instrument fingerprint as a JSON string, or null)
  and reconstitutes into an observation the coordinator's
  :meth:`~repro.core.feedback.FeedbackStore.record_observations` folds
  in bit-identically to an in-process harvest (same key, same estimate,
  same exactness, same mechanism string, same instrument, same
  table-epoch tagging); an entry without an instrument files a record
  no run is ever served from;
* **query/reply envelopes** — built inline by the pool and the child
  loop (:mod:`repro.service.workers` / ``worker_main``); this module
  only owns the parts both sides must agree on byte for byte.
"""

from __future__ import annotations

import importlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence, cast

from repro.common.errors import WorkerError
from repro.core.requests import (
    InstrumentFingerprint,
    Mechanism,
    PageCountObservation,
    PageCountRequest,
)


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


@dataclass(frozen=True)
class _WireRequest:
    """Stand-in for a :data:`~repro.core.requests.PageCountRequest`.

    A harvested observation only needs two things from its request to be
    applied to the store: the feedback ``key()`` and the owning
    ``table`` (for epoch tagging).  The expression objects themselves
    stay on the worker side of the boundary.
    """

    table: str
    wire_key: str

    def key(self) -> str:
        return self.wire_key


def marshal_observations(
    observations: Sequence[PageCountObservation],
) -> list[dict[str, Any]]:
    """Flatten harvested observations for the trip back to the parent."""
    payload = []
    for obs in observations:
        request_table = getattr(obs.request, "table", None)
        if request_table is None:
            request_table = getattr(obs.request, "inner_table", "")
        payload.append(
            {
                "key": obs.key,
                "table": str(request_table),
                "mechanism": obs.mechanism.value,
                "estimate": obs.estimate,
                "exact": obs.exact,
                "answered": obs.answered,
                "reason": obs.reason,
                "instrument": (
                    json.dumps(obs.instrument.to_json(), sort_keys=True)
                    if obs.instrument is not None
                    else None
                ),
            }
        )
    return payload


def unmarshal_observations(
    payload: Sequence[Mapping[str, Any]],
) -> list[PageCountObservation]:
    """Reconstitute wire observations for the coordinator-side harvest.

    The result feeds
    :meth:`~repro.core.feedback.FeedbackStore.record_observations`
    unchanged: same keys, same estimates/exactness, same mechanism
    values and the same table-epoch tagging as the in-process path, so a
    round-tripped batch leaves the store bit-identical to a local
    harvest of the same run.
    """
    observations = []
    for entry in payload:
        try:
            instrument = entry.get("instrument")
            observations.append(
                PageCountObservation(
                    request=cast(
                        PageCountRequest,
                        _WireRequest(
                            table=str(entry["table"]),
                            wire_key=str(entry["key"]),
                        ),
                    ),
                    mechanism=Mechanism(entry["mechanism"]),
                    estimate=entry["estimate"],
                    exact=bool(entry["exact"]),
                    answered=bool(entry["answered"]),
                    reason=str(entry.get("reason", "")),
                    instrument=(
                        InstrumentFingerprint.from_json(json.loads(instrument))
                        if instrument is not None
                        else None
                    ),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise WorkerError(
                f"malformed wire observation {dict(entry)!r}: {exc}"
            ) from exc
    return observations
