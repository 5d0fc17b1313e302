"""Distinct-page-count resolution for the optimizer.

:class:`PageCountEstimator` is the seam where execution feedback enters
the cost model: given an expression, it first consults the
:class:`~repro.optimizer.injection.InjectionSet` (feedback/DBA-supplied
values) and only falls back to the analytical uniform-placement model
(Yao's formula).
Every answer carries its provenance (``"injected"`` vs ``"model"``), which
plan nodes record and the diagnostics report surfaces.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.catalog.catalog import Database
from repro.optimizer.injection import InjectionSet
from repro.optimizer.pagecount_model import yao_estimate
from repro.sql.predicates import Conjunction, JoinEquality


class PageCountEstimator:
    """Resolves DPC values for fetch costing, preferring injected feedback."""

    def __init__(
        self,
        database: Database,
        injections: Optional[InjectionSet] = None,
    ) -> None:
        self.database = database
        self.injections = injections if injections is not None else InjectionSet()

    def _model_estimate(self, table_name: str, fetched_rows: float) -> float:
        stats = self.database.table(table_name).require_statistics()
        if stats.page_count == 0:
            return 0.0
        return yao_estimate(fetched_rows, stats.row_count, stats.page_count)

    def access_dpc(
        self, table_name: str, expression: Conjunction, fetched_rows: float
    ) -> tuple[float, str]:
        """DPC for fetching the rows matching ``expression``.

        ``fetched_rows`` is the cardinality estimate for the expression
        (the analytical model's only input besides table geometry).
        Returns ``(pages, source)`` with source ``"injected"`` or
        ``"model"``.
        """
        injected = self.injections.access_page_count(table_name, expression)
        if injected is not None:
            return injected, "injected"
        return self._model_estimate(table_name, fetched_rows), "model"

    def join_dpc(
        self,
        inner_table: str,
        join_predicate: JoinEquality,
        outer_filter: Conjunction,
        fetched_rows: float,
    ) -> tuple[float, str]:
        """DPC of the inner table under the join predicate, for the outer
        rows ``outer_filter`` selects (INL costing)."""
        injected = self.injections.join_page_count(
            inner_table, join_predicate, outer_filter
        )
        if injected is not None:
            return injected, "injected"
        return self._model_estimate(inner_table, fetched_rows), "model"

    def leaf_dpc(
        self,
        inner_table: str,
        index_name: Optional[str],
        join_predicate: JoinEquality,
        outer_filter: Conjunction,
        matched_entries: float,
    ) -> tuple[float, str]:
        """Leaf pages an INL join's probes read in the inner's index
        (``index_name=None``: the clustered key, whose leaves are the data
        pages), for the outer rows ``outer_filter`` selects.

        A remembered count wins; otherwise the probes' ``matched_entries``
        are assumed contiguous, ``ceil(matched / entries per leaf)``.
        """
        inner = self.database.table(inner_table)
        if index_name is None:
            entries_per_page = inner.data_file.page_capacity
        else:
            injected = self.injections.leaf_page_count(
                inner_table, index_name, join_predicate, outer_filter
            )
            if injected is not None:
                return injected, "injected"
            entries_per_page = inner.index(index_name).entries_per_page
        return (
            math.ceil(max(0.0, matched_entries) / max(1, entries_per_page)),
            "model",
        )
