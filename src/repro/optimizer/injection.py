"""Cardinality and page-count injection.

The paper's evaluation methodology needs two injection interfaces (§V):

* **Cardinality injection** — "we ensured that the plan P was generated
  after injecting accurate cardinality values", isolating page-count error
  from cardinality error.
* **Page-count injection** — "a method by which the distinct page count
  for a given expression can be input to the query optimizer", which is
  how execution feedback reaches the cost model for re-optimization.

:class:`InjectionSet` stores both kinds, keyed by canonical expression
strings, and offers a convenience constructor that lifts a run's
:class:`~repro.core.requests.PageCountObservation` list straight into
page-count injections — the feedback loop in one call.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Optional

from repro.core.requests import (
    AccessPathRequest,
    IndexLeafRequest,
    JoinMethodRequest,
    PageCountObservation,
)
from repro.sql.predicates import Conjunction, JoinEquality


def cardinality_key(table: str, expression: Conjunction) -> str:
    return f"CARD({table}, {expression.key()})"


def access_dpc_key(table: str, expression: Conjunction) -> str:
    return AccessPathRequest(table, expression).key()


def join_dpc_key(
    inner_table: str, join_predicate: JoinEquality, outer_filter: Conjunction
) -> str:
    return JoinMethodRequest(inner_table, join_predicate, outer_filter).key()


def leaf_dpc_key(
    inner_table: str,
    index_name: str,
    join_predicate: JoinEquality,
    outer_filter: Conjunction,
) -> str:
    return IndexLeafRequest(inner_table, index_name, join_predicate, outer_filter).key()


#: Fingerprint of a set with no entries (the warm path's usual case).
_EMPTY_FINGERPRINT = hashlib.sha256().hexdigest()[:16]


class InjectionSet:
    """Externally supplied estimates that override the optimizer's own."""

    def __init__(self) -> None:
        self._cardinalities: dict[str, float] = {}
        self._page_counts: dict[str, float] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def inject_cardinality(
        self, table: str, expression: Conjunction, rows: float
    ) -> None:
        if rows < 0:
            raise ValueError(f"injected cardinality must be >= 0, got {rows}")
        self._cardinalities[cardinality_key(table, expression)] = rows

    def inject_access_page_count(
        self, table: str, expression: Conjunction, pages: float
    ) -> None:
        if pages < 0:
            raise ValueError(f"injected page count must be >= 0, got {pages}")
        self._page_counts[access_dpc_key(table, expression)] = pages

    def inject_join_page_count(
        self,
        inner_table: str,
        join_predicate: JoinEquality,
        outer_filter: Conjunction,
        pages: float,
    ) -> None:
        if pages < 0:
            raise ValueError(f"injected page count must be >= 0, got {pages}")
        key = join_dpc_key(inner_table, join_predicate, outer_filter)
        self._page_counts[key] = pages

    def inject_page_count_by_key(self, key: str, pages: float) -> None:
        """Inject under a pre-formatted request key (feedback-store path)."""
        if pages < 0:
            raise ValueError(f"injected page count must be >= 0, got {pages}")
        self._page_counts[key] = pages

    def absorb_observations(
        self, observations: Iterable[PageCountObservation]
    ) -> int:
        """Turn answered observations into page-count injections.

        Returns how many were absorbed.  Unanswerable observations are
        skipped — injecting nothing is safer than injecting a guess.
        """
        absorbed = 0
        for observation in observations:
            if not observation.answered or observation.estimate is None:
                continue
            self._page_counts[observation.key] = max(0.0, observation.estimate)
            absorbed += 1
        return absorbed

    def copy(self) -> "InjectionSet":
        """An independent copy (mutating it leaves this set unchanged)."""
        duplicate = InjectionSet()
        duplicate._cardinalities = dict(self._cardinalities)
        duplicate._page_counts = dict(self._page_counts)
        return duplicate

    def fingerprint(self) -> str:
        """Deterministic content digest (a plan-cache key component).

        Two sets with the same cardinality and page-count entries produce
        the same fingerprint regardless of insertion order; any differing
        entry changes it.
        """
        if not self._cardinalities and not self._page_counts:
            return _EMPTY_FINGERPRINT
        digest = hashlib.sha256()
        for prefix, entries in (
            ("C", self._cardinalities),
            ("P", self._page_counts),
        ):
            for key in sorted(entries):
                digest.update(f"{prefix}|{key}={entries[key]!r}\x1f".encode())
        return digest.hexdigest()[:16]

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def cardinality(
        self, table: str, expression: Conjunction
    ) -> Optional[float]:
        return self._cardinalities.get(cardinality_key(table, expression))

    def access_page_count(
        self, table: str, expression: Conjunction
    ) -> Optional[float]:
        return self._page_counts.get(access_dpc_key(table, expression))

    def join_page_count(
        self,
        inner_table: str,
        join_predicate: JoinEquality,
        outer_filter: Conjunction,
    ) -> Optional[float]:
        """The count filed under exactly this expression, else ``None``.

        A count taken under another outer filter measured another row
        set; it is never served in this one's place.
        """
        key = join_dpc_key(inner_table, join_predicate, outer_filter)
        value = self._page_counts.get(key)
        if value is not None:
            return value
        # A join predicate is symmetric; accept the reversed spelling too.
        return self._page_counts.get(
            join_dpc_key(inner_table, join_predicate.reversed(), outer_filter)
        )

    def leaf_page_count(
        self,
        inner_table: str,
        index_name: str,
        join_predicate: JoinEquality,
        outer_filter: Conjunction,
    ) -> Optional[float]:
        """The leaf count filed under exactly this expression (either
        spelling of the join predicate), else ``None``."""
        for predicate in (join_predicate, join_predicate.reversed()):
            value = self._page_counts.get(
                leaf_dpc_key(inner_table, index_name, predicate, outer_filter)
            )
            if value is not None:
                return value
        return None

    def __len__(self) -> int:
        return len(self._cardinalities) + len(self._page_counts)

    def __repr__(self) -> str:
        return (
            f"InjectionSet({len(self._cardinalities)} cardinalities, "
            f"{len(self._page_counts)} page counts)"
        )
