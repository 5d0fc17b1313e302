"""The optimizer's cost model.

Charges mirror the execution engine's simulated time model (``DiskParameters``):
sequential and random page reads, per-row CPU, per-predicate-term CPU,
hashing, B-tree descents.  The model is deliberately *honest* about
everything except one parameter: the **distinct page count** of a fetch,
which it takes either from the analytical uniform-placement model
(:mod:`repro.optimizer.pagecount_model`) or from an injected feedback
value.  That single degree of freedom is the paper's subject: with an
accurate DPC the model ranks plans correctly; with the analytical estimate
it can be off by the full correlation factor.  An INL join has the same
question one level up, the distinct *leaf* pages its probes read, which
it also takes from outside (``PageCountEstimator.leaf_dpc``).

Predicate-evaluation CPU uses expected short-circuit depth: for terms with
selectivities ``s1, s2, ...`` evaluated in order, a row costs
``1 + s1 + s1*s2 + ...`` term evaluations on average.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.storage.disk import DiskParameters


def expected_evaluations(term_selectivities: Sequence[float]) -> float:
    """Expected number of term evaluations per row under short-circuiting."""
    total = 0.0
    pass_probability = 1.0
    for selectivity in term_selectivities:
        total += pass_probability
        pass_probability *= min(1.0, max(0.0, selectivity))
    return total


class CostModel:
    """Cost formulas for every physical operator the optimizer emits."""

    def __init__(self, params: DiskParameters | None = None) -> None:
        self.params = params if params is not None else DiskParameters()

    # -- primitive charges ------------------------------------------------
    def sequential_io(self, pages: float) -> float:
        return max(0.0, pages) * self.params.sequential_read_ms

    def random_io(self, pages: float) -> float:
        return max(0.0, pages) * self.params.random_read_ms

    def row_cpu(self, rows: float) -> float:
        return max(0.0, rows) * self.params.cpu_row_ms

    def predicate_cpu(self, evaluations: float) -> float:
        return max(0.0, evaluations) * self.params.cpu_predicate_ms

    def hash_cpu(self, hashes: float) -> float:
        return max(0.0, hashes) * self.params.cpu_hash_ms

    # -- access methods ---------------------------------------------------
    def scan_cost(
        self,
        table_pages: int,
        table_rows: int,
        term_selectivities: Sequence[float],
    ) -> float:
        """Full sequential scan with a pushed-down conjunction."""
        evals_per_row = expected_evaluations(term_selectivities)
        return (
            self.sequential_io(table_pages)
            + self.row_cpu(table_rows)
            + self.predicate_cpu(table_rows * evals_per_row)
        )

    def clustered_range_cost(
        self,
        pages_in_range: float,
        rows_in_range: float,
        residual_selectivities: Sequence[float],
    ) -> float:
        """Clustered-key range seek: contiguous pages, residual on rows."""
        evals = expected_evaluations(residual_selectivities)
        return (
            self.sequential_io(pages_in_range)
            + self.row_cpu(rows_in_range)
            + self.predicate_cpu(rows_in_range * evals)
        )

    def index_leaf_cost(self, matching_entries: float, entries_per_page: int) -> float:
        """Reading the leaf run of one range seek: first leaf random, rest
        sequential, plus per-entry CPU."""
        if matching_entries <= 0:
            return self.params.cpu_index_descent_ms
        leaf_pages = math.ceil(matching_entries / max(1, entries_per_page))
        return (
            self.params.cpu_index_descent_ms
            + self.random_io(1)
            + self.sequential_io(leaf_pages - 1)
            + matching_entries * self.params.cpu_index_entry_ms
        )

    def fetch_cost(
        self,
        fetched_rows: float,
        distinct_pages: float,
        residual_selectivities: Sequence[float],
    ) -> float:
        """Fetching rows by locator: one random read per *distinct* page
        (repeat visits hit the buffer pool), residual per fetched row."""
        evals = expected_evaluations(residual_selectivities)
        return (
            self.random_io(distinct_pages)
            + self.row_cpu(fetched_rows)
            + self.predicate_cpu(fetched_rows * evals)
        )

    def index_seek_cost(
        self,
        matching_entries: float,
        entries_per_page: int,
        distinct_pages: float,
        residual_selectivities: Sequence[float],
    ) -> float:
        return self.index_leaf_cost(matching_entries, entries_per_page) + self.fetch_cost(
            matching_entries, distinct_pages, residual_selectivities
        )

    def in_list_seek_cost(
        self,
        num_values: int,
        matching_entries: float,
        entries_per_page: int,
        distinct_pages: float,
        residual_selectivities: Sequence[float],
    ) -> float:
        """IN-list seek: one descent + first-leaf read per probed value,
        shared fetch economics with the range seek."""
        per_probe = self.params.cpu_index_descent_ms + self.random_io(1)
        return (
            num_values * per_probe
            + matching_entries * self.params.cpu_index_entry_ms
            + self.fetch_cost(
                matching_entries, distinct_pages, residual_selectivities
            )
        )

    def covering_scan_cost(
        self,
        leaf_pages: int,
        entries: int,
        term_selectivities: Sequence[float],
    ) -> float:
        evals = expected_evaluations(term_selectivities)
        io = self.random_io(1) + self.sequential_io(max(0, leaf_pages - 1))
        return (
            self.params.cpu_index_descent_ms
            + io
            + self.row_cpu(entries)
            + entries * self.params.cpu_index_entry_ms
            + self.predicate_cpu(entries * evals)
        )

    def index_intersection_cost(
        self,
        leg_entries: Sequence[float],
        entries_per_page: Sequence[int],
        intersection_rows: float,
        distinct_pages: float,
        residual_selectivities: Sequence[float],
    ) -> float:
        total = 0.0
        for entries, epp in zip(leg_entries, entries_per_page):
            total += self.index_leaf_cost(entries, epp)
            total += self.hash_cpu(entries)  # RID-set hashing
        total += self.fetch_cost(
            intersection_rows, distinct_pages, residual_selectivities
        )
        return total

    # -- joins --------------------------------------------------------------
    def inl_join_cost(
        self,
        outer_cost: float,
        outer_rows: float,
        inner_matched_entries: float,
        inner_leaf_pages: float,
        inner_distinct_pages: float,
        inner_residual_selectivities: Sequence[float],
    ) -> float:
        """Outer plan + per-outer-row index descent + inner leaf/fetch I/O.

        ``inner_matched_entries`` is the total number of (outer, inner)
        index matches across the whole outer stream.  Leaf pages are read
        once each thanks to the buffer pool, so leaf I/O is their distinct
        count, ``inner_leaf_pages`` (``PageCountEstimator.leaf_dpc``),
        charged random (visit order follows the outer, not leaf order).
        """
        descents = outer_rows * self.params.cpu_index_descent_ms
        entry_cpu = inner_matched_entries * self.params.cpu_index_entry_ms
        return (
            outer_cost
            + descents
            + self.random_io(inner_leaf_pages)
            + entry_cpu
            + self.fetch_cost(
                inner_matched_entries,
                inner_distinct_pages,
                inner_residual_selectivities,
            )
        )

    def hash_join_cost(
        self,
        build_cost: float,
        probe_cost: float,
        build_rows: float,
        probe_rows: float,
    ) -> float:
        return build_cost + probe_cost + self.hash_cpu(build_rows + probe_rows)

    def sort_cost(self, rows: float) -> float:
        if rows <= 1:
            return 0.0
        return self.predicate_cpu(rows * math.log2(rows))

    def merge_join_cost(
        self,
        outer_cost: float,
        inner_cost: float,
        outer_rows: float,
        inner_rows: float,
        sort_outer: bool,
        sort_inner: bool,
    ) -> float:
        total = outer_cost + inner_cost + self.row_cpu(outer_rows + inner_rows)
        if sort_outer:
            total += self.sort_cost(outer_rows)
        if sort_inner:
            total += self.sort_cost(inner_rows)
        return total

    # -- misc ---------------------------------------------------------------
    def aggregate_cost(self, input_rows: float) -> float:
        return self.row_cpu(input_rows)
