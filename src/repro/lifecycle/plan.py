"""Canonicalization and optimizer construction for the query lifecycle.

This module is the **sanctioned construction site** for
:class:`~repro.optimizer.optimizer.Optimizer` (codelint rule R007): query
paths must reach the optimizer through the staged lifecycle — or, for
harness/tooling code, through :func:`build_optimizer` — so that plan
caching, linting and feedback-epoch bookkeeping cannot be bypassed by
accident.  Benchmarks and tests, which deliberately probe the raw
optimizer, are outside the linted tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.catalog.catalog import Database
from repro.core.feedback import FeedbackStore
from repro.lifecycle.plancache import FreshnessVector, PlanCacheKey
from repro.optimizer.hints import PlanHint
from repro.optimizer.injection import InjectionSet
from repro.optimizer.optimizer import Optimizer, Query


@dataclass(frozen=True)
class CanonicalQuery:
    """The canonicalize stage's output: a stable identity for a query."""

    key: str
    tables: tuple[str, ...]


def canonicalize(query: Query) -> CanonicalQuery:
    """Canonical cache identity and touched-table set for ``query``."""
    return CanonicalQuery(key=query.canonical_key(), tables=query.tables())


def hint_fingerprint(hint: Optional[PlanHint]) -> str:
    """Stable identity of a plan hint (hints restrict the plan space, so
    differently-hinted optimizations must not share a cache entry)."""
    if hint is None:
        return ""
    return f"{hint.kind}|{hint.index_name or ''}|{hint.inner_table or ''}"


def cache_key(
    canonical: CanonicalQuery,
    injections: InjectionSet,
    hint: Optional[PlanHint],
    use_feedback: bool,
) -> PlanCacheKey:
    """Assemble the plan-cache key for one optimization problem.

    ``injections`` is the session's base set; the feedback store is
    versioned per table by the freshness vector and never keyed.
    """
    return PlanCacheKey(
        query_key=canonical.key,
        injection_fingerprint=injections.fingerprint(),
        hint_fingerprint=hint_fingerprint(hint),
        mode="feedback" if use_feedback else "plain",
    )


def freshness_vector(
    database: Database,
    feedback: FeedbackStore,
    tables: tuple[str, ...],
    use_feedback: bool,
) -> FreshnessVector:
    """Current (table, feedback epoch, statistics version) vector.

    Plans optimized *without* feedback do not depend on the store, so
    their entries carry a constant feedback tag (-1) and survive
    ``remember()`` calls; statistics versions always participate.
    """
    stats_versions = database.statistics_versions(tables)
    if not use_feedback:
        return tuple((table, -1, version) for table, version in stats_versions)
    # Both vectors list the same sorted, de-duplicated tables.
    return tuple(
        (table, epoch, version)
        for (table, epoch), (_, version) in zip(
            feedback.table_epochs(tables), stats_versions
        )
    )


def build_optimizer(
    database: Database,
    injections: Optional[InjectionSet] = None,
    hint: Optional[PlanHint] = None,
) -> Optimizer:
    """Construct a cost-based optimizer (the lifecycle's optimize stage).

    Harness and tooling code that needs a raw optimizer — methodology
    sweeps, ``explain`` CLIs — goes through this function rather than
    constructing :class:`Optimizer` directly, keeping R007's promise that
    optimization entry points are enumerable.
    """
    return Optimizer(database, injections=injections, hint=hint)
