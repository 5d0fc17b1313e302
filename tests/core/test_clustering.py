"""Tests for the clustering scalar: one fitted scatter ``z`` per column."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.clustering import fit_scatter, predict_dpc
from repro.core.dpc import dpc_bounds, exact_dpc
from repro.optimizer import InjectionSet, Optimizer, SingleTableQuery
from repro.optimizer.pagecount_model import yao_estimate
from repro.optimizer.plans import IndexSeekPlan
from repro.sql import Comparison, conjunction_of
from repro.workloads import build_synthetic_database

#: Largest q-error of a 5 %-prefix fit over 0.5-20 % prefixes of the
#: synthetic c2..c5 at 60 000 rows, seed 7 (measured 1.21 / 1.24 / 1.50 /
#: 1.02; Yao's formula reads 50 / 36 / 13 / 1.01 at the same points).
SCALAR_Q_BOUND = 1.5
#: Yao's worst q-error on the correlated c2..c4 is at least this.
YAO_Q_FLOOR = 10.0
PREFIXES = (0.005, 0.01, 0.02, 0.05, 0.1, 0.2)


def q_error(estimate: float, truth: float) -> float:
    return max(estimate / truth, truth / estimate)


@settings(max_examples=200, deadline=None)
@given(
    z=st.floats(0.0, 1.0),
    rows=st.integers(0, 50_000),
    more=st.integers(0, 50_000),
    rows_per_page=st.floats(1.0, 200.0),
    pages=st.integers(1, 5_000),
)
def test_prediction_within_bounds_and_monotone_in_rows(
    z, rows, more, rows_per_page, pages
):
    predicted = predict_dpc(z, rows, rows_per_page, pages)
    lower, upper = dpc_bounds(rows, rows_per_page, pages)
    assert min(lower, upper) <= predicted <= upper
    assert predict_dpc(z, rows + more, rows_per_page, pages) >= predicted


def test_zero_scatter_is_fully_correlated():
    assert predict_dpc(0.0, 730, 73.0, 822) == pytest.approx(10.0)
    assert predict_dpc(0.0, 0, 73.0, 822) == 0.0


@pytest.mark.parametrize("z", [0.0, 0.004, 0.03, 0.2, 1.0])
def test_one_sample_fit_recovers_the_model(z):
    rows, rows_per_page, pages = 3_000, 73.0, 822
    observed = predict_dpc(z, rows, rows_per_page, pages)
    fitted = fit_scatter([(rows, observed)], rows_per_page, pages)
    assert 0.0 <= fitted <= 1.0
    assert predict_dpc(fitted, rows, rows_per_page, pages) == pytest.approx(
        observed, rel=1e-6
    )


def test_several_samples_fit_recovers_the_model():
    rows_per_page, pages = 73.0, 822
    samples = [
        (rows, predict_dpc(0.03, rows, rows_per_page, pages))
        for rows in (400, 1_500, 5_000, 20_000)
    ]
    assert fit_scatter(samples, rows_per_page, pages) == pytest.approx(
        0.03, abs=1e-4
    )


def test_fit_stays_in_unit_interval_past_the_monotone_range():
    # More pages than any z can reach at these rows: the best z is where
    # the prediction peaks (z * n / P = ln k), never beyond 1.
    rows_per_page, pages = 73.0, 822
    assert fit_scatter([(10_000, 822)], rows_per_page, pages) <= 1.0
    assert 0.0 <= fit_scatter([(100, 100), (200, 1)], rows_per_page, pages) <= 1.0


def test_fit_needs_a_sample():
    with pytest.raises(ValueError):
        fit_scatter([], 73.0, 822)
    with pytest.raises(ValueError):
        fit_scatter([(0, 0)], 73.0, 822)


@pytest.fixture(scope="module")
def database_60k():
    return build_synthetic_database(num_rows=60_000, seed=7)


@pytest.mark.parametrize("column", ["c2", "c3", "c4", "c5"])
def test_fit_recovers_synthetic_columns(database_60k, column):
    table = database_60k.table("t")
    rows_per_page = table.num_rows / table.num_pages

    def truth(rows):
        return exact_dpc(table, conjunction_of(Comparison(column, "<", rows)))

    prefix = int(0.05 * table.num_rows)
    z = fit_scatter([(prefix, truth(prefix))], rows_per_page, table.num_pages)
    worst = max(
        q_error(
            predict_dpc(z, int(f * table.num_rows), rows_per_page, table.num_pages),
            truth(int(f * table.num_rows)),
        )
        for f in PREFIXES
    )
    assert worst <= SCALAR_Q_BOUND
    if column != "c5":
        yao = max(
            q_error(
                yao_estimate(int(f * table.num_rows), table.num_rows, table.num_pages),
                truth(int(f * table.num_rows)),
            )
            for f in PREFIXES
        )
        assert yao >= YAO_Q_FLOOR


def test_injected_scalar_flips_correlated_plan_to_index_seek(synthetic_db):
    """With the scalar's estimate injected the optimizer picks the Index
    Seek on c2 without any execution feedback — the static trade-off of
    §VI."""
    table = synthetic_db.table("t")
    rows_per_page = table.num_rows / table.num_pages
    prefix = int(0.05 * table.num_rows)
    sample = exact_dpc(table, conjunction_of(Comparison("c2", "<", prefix)))
    z = fit_scatter([(prefix, sample)], rows_per_page, table.num_pages)

    predicate = conjunction_of(Comparison("c2", "<", 700))
    query = SingleTableQuery("t", predicate, "padding")
    assert not isinstance(Optimizer(synthetic_db).optimize(query).child, IndexSeekPlan)
    injections = InjectionSet()
    injections.inject_access_page_count(
        "t", predicate, predict_dpc(z, 700, rows_per_page, table.num_pages)
    )
    plan = Optimizer(synthetic_db, injections=injections).optimize(query)
    assert isinstance(plan.child, IndexSeekPlan)
