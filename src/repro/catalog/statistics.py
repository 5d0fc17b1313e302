"""Per-table statistics: row counts, page counts and column histograms.

This is the metadata the optimizer consumes.  Page counts come from the
storage layer (the catalog records them after load, like ``sysindexes``
page counters); histograms are built on demand per column.  The paper's
point is precisely that these statistics say nothing about *on-disk
clustering*, so the optimizer must fall back to analytical page-count
formulas — which the feedback mechanisms then correct.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Optional, Sequence

from repro.common.errors import EstimationError
from repro.catalog.histogram import EquiDepthHistogram
from repro.sql.predicates import AtomicPredicate, Conjunction


@dataclass
class TableStatistics:
    """Statistics snapshot for one table."""

    table_name: str
    row_count: int
    page_count: int
    avg_rows_per_page: float
    histograms: dict[str, EquiDepthHistogram] = field(default_factory=dict)

    def histogram_for(self, column: str) -> EquiDepthHistogram:
        try:
            return self.histograms[column]
        except KeyError:
            raise EstimationError(
                f"no histogram on {self.table_name}.{column}; "
                f"available: {sorted(self.histograms)}"
            ) from None

    def has_histogram(self, column: str) -> bool:
        return column in self.histograms

    # ------------------------------------------------------------------
    # Cardinality estimation (independence across terms, the textbook —
    # and SQL Server — assumption)
    # ------------------------------------------------------------------
    def estimate_term_selectivity(self, predicate: AtomicPredicate) -> float:
        """Selectivity of one atomic predicate from its column histogram.

        Falls back to a conventional magic constant (1/3 for ranges, 1/10
        for equality) when no histogram exists, as classic optimizers do.
        """
        if self.has_histogram(predicate.column):
            return self.histogram_for(predicate.column).estimate_selectivity(predicate)
        from repro.sql.predicates import Comparison

        if isinstance(predicate, Comparison) and predicate.op == "=":
            return 0.1
        return 1.0 / 3.0

    def estimate_selectivity(self, conjunction: Conjunction) -> float:
        """Selectivity of a conjunction under term independence."""
        selectivity = 1.0
        for term in conjunction.terms:
            selectivity *= self.estimate_term_selectivity(term)
        return selectivity

    def estimate_cardinality(self, conjunction: Conjunction) -> float:
        """Estimated number of rows satisfying ``conjunction``."""
        return self.row_count * self.estimate_selectivity(conjunction)

    def estimate_distinct(self, column: str) -> int:
        """Estimated distinct values in ``column`` (histogram-based)."""
        if self.has_histogram(column):
            return max(1, self.histogram_for(column).estimate_distinct())
        return max(1, self.row_count // 10)

    def __repr__(self) -> str:
        return (
            f"TableStatistics({self.table_name}: {self.row_count} rows, "
            f"{self.page_count} pages, {self.avg_rows_per_page:.1f} rows/page)"
        )


def build_statistics(
    table_name: str,
    columns: Iterable[Sequence[Any]],
    column_names: list[str],
    row_count: int,
    page_count: int,
    histogram_columns: Optional[list[str]] = None,
    num_buckets: int = 64,
) -> TableStatistics:
    """Construct :class:`TableStatistics` from a table's columns.

    ``columns`` yields each column's values (plain Python values, one
    sequence per name in ``column_names``) and is read one column at a
    time; ``histogram_columns`` defaults to all columns.  This mimics
    ``UPDATE STATISTICS ... WITH FULLSCAN``: exact row counts and
    full-resolution equi-depth histograms.
    """
    avg = row_count / page_count if page_count else 0.0
    stats = TableStatistics(
        table_name=table_name,
        row_count=row_count,
        page_count=page_count,
        avg_rows_per_page=avg,
    )
    for column, values in zip(column_names, columns):
        if histogram_columns is None or column in histogram_columns:
            stats.histograms[column] = EquiDepthHistogram.build(
                column, values, num_buckets=num_buckets
            )
    return stats
