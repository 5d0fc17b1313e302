"""Histogram-based distinct page counts — the §VI alternative, realised.

Related work in the paper (§VI) contemplates estimating DPC with
histograms "similar to cardinality estimation" and immediately flags the
catch: *distinct page counts are not additive across buckets*, because
tuples from two buckets can share a page.  The paper leaves "a more
detailed examination of how the techniques presented in this paper
compare with a histogram-based approach" to future work; this module
builds that comparator so the ablation bench can run the comparison.

:class:`DPCHistogram` is built offline by one scan of the table (like
``CREATE STATISTICS``), storing for each bucket boundary ``v_i`` the
**exact** distinct page counts of the two half-ranges:

* ``prefix[i]  = DPC(T, column <  v_i)`` (left sweep), and
* ``suffix[i]  = DPC(T, column >= v_i)`` (right sweep).

Those are exact for prefix/suffix predicates at boundaries and linearly
interpolated inside buckets.  For ``BETWEEN`` the non-additivity bites:
``prefix(b) - prefix(a)`` under-counts pages shared with the excluded
prefix, so the estimate is clamped into the inclusion-exclusion bracket
``[prefix(b) + suffix(a) - P, min(prefix(b), suffix(a))]`` — the honest
best a histogram can do, and exactly the structural weakness the paper
uses to argue for execution feedback instead.

Compared with feedback monitoring, the histogram (a) costs a full offline
scan per column, (b) goes stale under updates, and (c) cannot express
join-predicate DPCs at all (that needs statistics over join expressions,
cf. [3] in the paper).  The ablation bench quantifies (the static half
of) this trade-off.  The optimizer has no histogram input: an estimate
reaches it as an access page count injected into its
:class:`~repro.optimizer.injection.InjectionSet`, like any other.
"""

from __future__ import annotations

import bisect
from typing import Any, Optional, Sequence

from repro.common.errors import EstimationError
from repro.catalog.histogram import _to_number
from repro.sql.predicates import AtomicPredicate, Between, Comparison, Conjunction
from repro.storage.table import Table


class DPCHistogram:
    """Exact-at-boundaries distinct-page-count histogram for one column."""

    def __init__(
        self,
        table_name: str,
        column: str,
        boundaries: Sequence[Any],
        prefix_counts: Sequence[int],
        suffix_counts: Sequence[int],
        total_pages: int,
    ) -> None:
        if len(boundaries) != len(prefix_counts) or len(boundaries) != len(
            suffix_counts
        ):
            raise EstimationError("boundary/count arrays must align")
        if len(boundaries) < 2:
            raise EstimationError("need at least two boundaries")
        self.table_name = table_name
        self.column = column
        self.boundaries = list(boundaries)
        self.prefix_counts = list(prefix_counts)
        self.suffix_counts = list(suffix_counts)
        self.total_pages = total_pages

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls, table: Table, column: str, num_buckets: int = 32
    ) -> "DPCHistogram":
        """One offline scan: exact prefix/suffix DPCs at bucket boundaries.

        Boundaries are value quantiles (equi-depth), so each bucket holds
        roughly the same number of rows and interpolation error is
        bounded by one bucket's page span.
        """
        if num_buckets < 1:
            raise EstimationError(f"num_buckets must be >= 1, got {num_buckets}")
        position = table.schema.position(column)
        pairs: list[tuple[Any, int]] = []
        for page_id in table.all_page_ids():
            for row in table.rows_on_page(page_id):
                value = row[position]
                if value is not None:
                    pairs.append((value, int(page_id)))
        if not pairs:
            raise EstimationError(
                f"column {table.name}.{column} has no non-null values"
            )
        pairs.sort(key=lambda p: p[0])

        # Equi-depth boundaries over the sorted values (first and last
        # boundaries sit just outside the domain so prefix(0)=0 and
        # suffix(last)=0 hold exactly).
        count = len(pairs)
        boundary_indexes = [
            min(count - 1, (count * i) // num_buckets) for i in range(num_buckets)
        ]
        boundary_values: list[Any] = []
        for index in boundary_indexes:
            value = pairs[index][0]
            if not boundary_values or value > boundary_values[-1]:
                boundary_values.append(value)
        # Close the domain on the right (strictly above the max value).
        boundary_values.append(pairs[-1][0])

        prefix_counts = []
        seen: set[int] = set()
        cursor = 0
        for boundary in boundary_values:
            while cursor < count and pairs[cursor][0] < boundary:
                seen.add(pairs[cursor][1])
                cursor += 1
            prefix_counts.append(len(seen))
        # prefix for the final boundary means "< max", so also record the
        # full count as the suffix sweep's complement base.
        suffix_counts = []
        seen_right: set[int] = set()
        cursor = count - 1
        for boundary in reversed(boundary_values):
            while cursor >= 0 and pairs[cursor][0] >= boundary:
                seen_right.add(pairs[cursor][1])
                cursor -= 1
            suffix_counts.append(len(seen_right))
        suffix_counts.reverse()

        return cls(
            table_name=table.name,
            column=column,
            boundaries=boundary_values,
            prefix_counts=prefix_counts,
            suffix_counts=suffix_counts,
            total_pages=table.num_pages,
        )

    # ------------------------------------------------------------------
    # Estimation
    # ------------------------------------------------------------------
    def _interpolate(self, counts: Sequence[int], value: Any) -> float:
        """Counts at an arbitrary value, linear inside the bucket."""
        index = bisect.bisect_left(self.boundaries, value)
        if index <= 0:
            return float(counts[0])
        if index >= len(self.boundaries):
            return float(counts[-1])
        low, high = self.boundaries[index - 1], self.boundaries[index]
        low_n, high_n, value_n = _to_number(low), _to_number(high), _to_number(value)
        if low_n is None or high_n is None or value_n is None or high_n == low_n:
            fraction = 0.5
        else:
            fraction = min(1.0, max(0.0, (value_n - low_n) / (high_n - low_n)))
        return counts[index - 1] + fraction * (counts[index] - counts[index - 1])

    def prefix_dpc(self, value: Any) -> float:
        """Estimated ``DPC(T, column < value)``; exact at boundaries.

        Above the domain maximum every non-null row qualifies, so the
        answer is the union of all touched pages — which the suffix sweep
        recorded at the first boundary (``DPC(column >= min)``).
        """
        if value > self.boundaries[-1]:
            return float(self.suffix_counts[0])
        return self._interpolate(self.prefix_counts, value)

    def suffix_dpc(self, value: Any) -> float:
        """Estimated ``DPC(T, column >= value)``; exact at boundaries.

        Above the domain maximum nothing qualifies.
        """
        if value > self.boundaries[-1]:
            return 0.0
        return self._interpolate(self.suffix_counts, value)

    def estimate_term(self, term: AtomicPredicate) -> Optional[float]:
        """DPC estimate for one atomic predicate, or None if unsupported."""
        if term.column != self.column:
            return None
        if isinstance(term, Comparison):
            if term.op in ("<", "<="):
                return self.prefix_dpc(term.value)
            if term.op in (">", ">="):
                return self.suffix_dpc(term.value)
            if term.op == "=":
                return self._between(term.value, term.value)
            return None
        if isinstance(term, Between):
            return self._between(term.low, term.high)
        return None

    def _between(self, low: Any, high: Any) -> float:
        """Range DPC under the inclusion-exclusion bracket (see module doc).

        The naive difference ``prefix(high) - prefix(low)`` ignores pages
        shared across the ``low`` boundary — the paper's non-additivity.
        We clamp it into the provable bracket, which both repairs obvious
        violations and documents the estimator's inherent looseness.
        """
        naive = max(0.0, self.prefix_dpc(high) - self.prefix_dpc(low))
        upper = min(self.prefix_dpc(high), self.suffix_dpc(low))
        lower = max(
            0.0, self.prefix_dpc(high) + self.suffix_dpc(low) - self.total_pages
        )
        return min(max(naive, lower), upper)

    def estimate(self, expression: Conjunction) -> Optional[float]:
        """DPC for a single-term conjunction on this column (else None).

        Multi-term conjunctions are out of the model: DPCs of independent
        terms do not compose (the same non-additivity again), and guessing
        would defeat the comparison's purpose.
        """
        if len(expression.terms) != 1:
            return None
        return self.estimate_term(expression.terms[0])

    def __repr__(self) -> str:
        return (
            f"DPCHistogram({self.table_name}.{self.column}: "
            f"{len(self.boundaries)} boundaries, {self.total_pages} pages)"
        )
