"""Fig. 9 — Effectiveness of page sampling.

Queries with 1..4 conjunctive predicates; page-count requests for each
individual term force short-circuit suppression for every non-leading
term.  Reports monitoring overhead and max relative DPC error at page
sampling fractions 1%, 10% and 100% (the paper's settings).

Paper shape: at 100% (short-circuiting off everywhere) overhead grows
steeply with the number of predicates — "clearly impractical" — while 1%
sampling keeps overhead ~2%.  The error at 1% is scale-dependent (the
paper's 0.5% max error comes from a 1.45M-page table; the Chernoff bound
predicts our error at repro scale), so the bench also prints the bound.
"""

from benchmarks.conftest import run_once
from repro.core.dpsample import dpsample_error_bound
from repro.harness import run_fig9


def test_fig9_page_sampling(benchmark):
    result = run_once(
        benchmark,
        lambda: run_fig9(
            num_rows=100_000, max_predicates=4, fractions=(0.01, 0.10, 1.0), seed=42
        ),
    )
    print()
    print(result.render())
    # Chernoff context for the error columns (paper-scale vs repro-scale).
    bound_repro = dpsample_error_bound(700, 0.01) / 700
    bound_paper = dpsample_error_bound(700_000, 0.01) / 700_000
    print(
        f"(Chernoff 95% relative error at 1% sampling: ~{bound_repro:.0%} at our "
        f"~700-page DPCs vs ~{bound_paper:.1%} at the paper's ~700k-page DPCs)"
    )

    full = {c.num_predicates: c.overhead for c in result.cells if c.fraction == 1.0}
    one_percent = {
        c.num_predicates: c.overhead for c in result.cells if c.fraction == 0.01
    }
    # Full-scan suppression overhead grows with predicate count...
    assert full[4] > full[2] > full[1]
    # ...while 1% sampling stays flat and cheap (paper: ~2%).
    assert max(one_percent.values()) < 0.03
    # Exactness at 100% sampling.
    assert all(
        c.max_relative_error == 0.0 for c in result.cells if c.fraction == 1.0
    )
