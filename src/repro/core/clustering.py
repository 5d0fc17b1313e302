"""Clustering Ratio — the paper's measure of on-disk correlation (§V-B).

For a predicate satisfied by ``n`` rows of a table with ``k`` rows per
page and ``P`` pages:

* ``LB = n / k`` — fewest pages that could hold the rows,
* ``UB = min(n, P)`` — most pages they could occupy,
* ``CR = (N - LB) / (UB - LB)`` where ``N`` is the *actual* distinct page
  count, so ``CR = 0`` means fully correlated with the clustering and
  ``CR = 1`` means maximally scattered.

Fig. 10 plots CR for queries across five real databases and finds mean
0.56 with standard deviation 0.40 — the evidence that "simple analytical
formulas may be insufficient to capture the clustering effects in real
world databases".

CR describes one predicate after the fact.  :func:`fit_scatter`
generalises it to one scalar per column: the scatter ``z`` in [0, 1] of
the model :func:`predict_dpc`, fitted from exact ``(rows, pages)`` pairs
(an offline prefix count or execution feedback), which then predicts the
page count of a range the column was never measured on.  It is the §VI
comparator to feedback; the optimizer sees it only as an injection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.core.dpc import dpc_bounds, exact_dpc
from repro.sql.evaluator import BoundConjunction
from repro.sql.predicates import Conjunction
from repro.storage.table import Table

#: Grid points over [0, 1] a multi-sample :func:`fit_scatter` starts from.
_FIT_GRID = 50


@dataclass(frozen=True)
class ClusteringMeasurement:
    """CR plus all its ingredients, for one (table, predicate) pair."""

    table: str
    expression: str
    matching_rows: int
    actual_pages: int
    lower_bound: float
    upper_bound: float
    clustering_ratio: float
    selectivity: float


def clustering_ratio(
    actual_pages: float, lower_bound: float, upper_bound: float
) -> float:
    """``(N - LB) / (UB - LB)``, clamped to [0, 1].

    Degenerate brackets (``UB == LB``: the predicate pins the page count)
    return 0 — there is no clustering freedom to measure.
    """
    if upper_bound <= lower_bound:
        return 0.0
    ratio = (actual_pages - lower_bound) / (upper_bound - lower_bound)
    return min(1.0, max(0.0, ratio))


def measure_clustering(table: Table, predicate: Conjunction) -> ClusteringMeasurement:
    """Exact CR for one predicate, by direct inspection (no I/O charges)."""
    bound = BoundConjunction(predicate, table.schema.column_names)
    matching = 0
    for page_id in table.all_page_ids():
        for row in table.rows_on_page(page_id):
            if bound.passes(row):
                matching += 1
    actual = exact_dpc(table, predicate)
    rows_per_page = table.num_rows / table.num_pages if table.num_pages else 1.0
    lower, upper = dpc_bounds(matching, rows_per_page, table.num_pages)
    return ClusteringMeasurement(
        table=table.name,
        expression=predicate.key(),
        matching_rows=matching,
        actual_pages=actual,
        lower_bound=lower,
        upper_bound=upper,
        clustering_ratio=clustering_ratio(actual, lower, upper),
        selectivity=matching / table.num_rows if table.num_rows else 0.0,
    )


def predict_dpc(
    z: float, rows: float, rows_per_page: float, pages: int
) -> float:
    """Page count of ``rows`` qualifying rows on a column of scatter ``z``.

    ``(1 - z) * n/k + P * (1 - exp(-z * n / P))``: the correlated share of
    the rows packs into ``n/k`` pages and the scattered share lands on
    random pages until they saturate (``workloads/permutations.py``
    generates exactly this), clamped into :func:`dpc_bounds`.  ``z = 0``
    is ``n/k``; the prediction grows with ``n`` for every ``z``.
    """
    lower, upper = dpc_bounds(rows, rows_per_page, pages)
    if pages <= 0:
        return 0.0
    raw = (1.0 - z) * rows / rows_per_page + pages * (
        1.0 - math.exp(-z * rows / pages)
    )
    return min(float(upper), max(lower, raw))


def fit_scatter(
    samples: Sequence[tuple[float, float]], rows_per_page: float, pages: int
) -> float:
    """The ``z`` in [0, 1] that best explains exact ``(rows, pages)`` pairs.

    One sample is matched by bisection over the ``z`` where the prediction
    still grows (it falls again past ``z * n / P = ln k``); several are fit
    by least squares on log pages, over a grid refined by golden section,
    which does not need the prediction to be monotone in ``z``.
    """
    points = [(float(n), float(d)) for n, d in samples if n > 0 and d > 0]
    if not points:
        raise ValueError("fit_scatter needs a sample with rows and pages > 0")
    if len(points) == 1:
        rows, target = points[0]
        low = 0.0
        high = min(1.0, pages * math.log(max(rows_per_page, 1.0)) / rows)
        if target >= predict_dpc(high, rows, rows_per_page, pages):
            return high
        for _ in range(60):
            middle = (low + high) / 2.0
            if predict_dpc(middle, rows, rows_per_page, pages) < target:
                low = middle
            else:
                high = middle
        return low

    def loss(z: float) -> float:
        return sum(
            (math.log(predict_dpc(z, n, rows_per_page, pages)) - math.log(d))
            ** 2
            for n, d in points
        )

    grid = [i / _FIT_GRID for i in range(_FIT_GRID + 1)]
    best = min(range(len(grid)), key=lambda i: loss(grid[i]))
    low, high = grid[max(best - 1, 0)], grid[min(best + 1, _FIT_GRID)]
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(40):
        left = high - ratio * (high - low)
        right = low + ratio * (high - low)
        if loss(left) <= loss(right):
            high = right
        else:
            low = left
    return (low + high) / 2.0
