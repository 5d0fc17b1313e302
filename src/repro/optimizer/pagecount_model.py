"""Analytical distinct-page-count models.

These are the formulas "today's query optimizers" (paper §I) use to turn a
cardinality into a page count.  All of them assume the qualifying rows are
placed on pages *uniformly at random* — i.e. that the predicate column is
statistically independent of the physical clustering of the table.  The
paper's entire premise is that this assumption fails on real data (Fig. 10:
mean clustering ratio 0.56, stddev 0.40), so these estimates can be wrong
by orders of magnitude even when the cardinality ``n`` is exact.

* :func:`yao_estimate` — Yao's exact expectation for sampling ``n`` rows
  without replacement from ``N`` rows on ``P`` pages (``k = N/P`` rows per
  page): ``P * (1 - C(N-k, n) / C(N, n))``, evaluated with log-gamma for
  numerical stability.  The optimizer's only analytical source: a page
  count nobody injected is Yao's
  (:class:`~repro.optimizer.estimators.PageCountEstimator`).
* :func:`cardenas_estimate` — the with-replacement approximation
  ``P * (1 - (1 - 1/P)^n)``; cheaper, slightly overestimates Yao.
* :func:`mackert_lohman_estimate` — the piecewise approximation from
  Mackert & Lohman's validated I/O model ([10] in the paper), commonly
  used because it avoids the combinatorial evaluation.
"""

from __future__ import annotations

import math

from repro.common.errors import EstimationError


def _validate(n_rows: float, total_rows: int, total_pages: int) -> None:
    if total_pages <= 0:
        raise EstimationError(f"total_pages must be positive, got {total_pages}")
    if total_rows <= 0:
        raise EstimationError(f"total_rows must be positive, got {total_rows}")
    if n_rows < 0:
        raise EstimationError(f"n_rows must be non-negative, got {n_rows}")


def cardenas_estimate(n_rows: float, total_pages: int) -> float:
    """Cardenas' approximation ``P * (1 - (1 - 1/P)^n)``.

    Assumes each of the ``n`` rows lands on an independently uniform page
    (sampling *with* replacement).
    """
    if total_pages <= 0:
        raise EstimationError(f"total_pages must be positive, got {total_pages}")
    if n_rows < 0:
        raise EstimationError(f"n_rows must be non-negative, got {n_rows}")
    if n_rows == 0:
        return 0.0
    return total_pages * (1.0 - (1.0 - 1.0 / total_pages) ** n_rows)


def yao_estimate(n_rows: float, total_rows: int, total_pages: int) -> float:
    """Yao's formula: expected distinct pages touched by ``n`` of ``N`` rows.

    Exact under the uniform-placement assumption.  ``n_rows`` may be
    fractional (cardinality estimates usually are); we interpolate
    linearly between the neighbouring integers.
    """
    _validate(n_rows, total_rows, total_pages)
    n_rows = min(n_rows, float(total_rows))
    floor_n = int(math.floor(n_rows))
    frac = n_rows - floor_n
    low = _yao_integer(floor_n, total_rows, total_pages)
    if frac <= 0.0:
        return low
    high = _yao_integer(floor_n + 1, total_rows, total_pages)
    return low + frac * (high - low)


def _yao_integer(n: int, total_rows: int, total_pages: int) -> float:
    if n <= 0:
        return 0.0
    rows_per_page = total_rows / total_pages
    remaining = total_rows - rows_per_page  # N - k
    if n > remaining:
        return float(total_pages)
    # P * (1 - C(N-k, n)/C(N, n)); the ratio via log-gamma.
    log_ratio = (
        math.lgamma(remaining + 1)
        - math.lgamma(remaining - n + 1)
        - math.lgamma(total_rows + 1)
        + math.lgamma(total_rows - n + 1)
    )
    return total_pages * (1.0 - math.exp(log_ratio))


def mackert_lohman_estimate(n_rows: float, total_rows: int, total_pages: int) -> float:
    """The Mackert–Lohman piecewise approximation of Yao's formula.

    From the validated I/O model the paper cites as the state of practice:

    * ``n <= P/2``          -> pages ≈ n            (each row a new page)
    * ``P/2 < n <= 2P``     -> pages ≈ (n + P) / 3  (transition regime,
      continuous with both neighbours at n = P/2 and n = 2P)
    * ``n > 2P``            -> pages ≈ P            (saturation)
    """
    _validate(n_rows, total_rows, total_pages)
    n_rows = min(n_rows, float(total_rows))
    if n_rows <= total_pages / 2.0:
        pages = n_rows
    elif n_rows <= 2.0 * total_pages:
        pages = (n_rows + total_pages) / 3.0
    else:
        pages = float(total_pages)
    return min(pages, float(total_pages))
