"""Compiled batch kernels vs. the interpreted per-row evaluator.

Property-style check: on randomized conjunctions (random term types,
order, bounds, and NULL-bearing rows), :meth:`CompiledConjunction.
evaluate_batch` must reproduce the per-row :class:`TermOutcome` stream
exactly — same passed vector, same per-term truth vectors (including
``None`` short-circuit holes), and the same *total* evaluation count,
in both short-circuit and full-evaluation mode and for every prefix
length.  The evaluation counts are the Fig. 7/9 overhead currency, so
"close" is not good enough.
"""

from __future__ import annotations

import contextlib

import pytest

from repro.common.errors import ExpressionError
from repro.common.rng import make_random
from repro.sql.evaluator import BoundConjunction, CompiledConjunction
from repro.sql.predicates import Between, Comparison, Conjunction, InList

COLUMNS = ("a", "b", "c", "d")


def _random_term(rng, column: str):
    kind = rng.randrange(3)
    if kind == 0:
        op = rng.choice(["<", "<=", "=", ">=", ">", "!="])
        return Comparison(column, op, rng.randrange(100))
    if kind == 1:
        low = rng.randrange(80)
        return Between(column, low, low + rng.randrange(30))
    return InList(column, [rng.randrange(100) for _ in range(rng.randrange(1, 5))])


def _random_conjunction(rng) -> Conjunction:
    num_terms = rng.randrange(1, 5)
    return Conjunction(
        tuple(_random_term(rng, rng.choice(COLUMNS)) for _ in range(num_terms))
    )


def _random_rows(rng, num_rows: int) -> list[tuple]:
    rows = []
    for _ in range(num_rows):
        rows.append(
            tuple(
                None if rng.random() < 0.1 else rng.randrange(100)
                for _ in COLUMNS
            )
        )
    return rows


def _assert_batch_matches_rows(
    bound: BoundConjunction,
    compiled: CompiledConjunction,
    rows: list[tuple],
    num_terms: int,
    short_circuit: bool,
) -> None:
    outcome = compiled.evaluate_batch(
        rows, num_terms=num_terms, short_circuit=short_circuit
    )
    assert outcome.num_rows == len(rows)
    expected = [
        bound.evaluate_prefix(row, num_terms, short_circuit=short_circuit)
        for row in rows
    ]
    assert outcome.passed == [e.passed for e in expected]
    assert outcome.evaluations == sum(e.evaluations for e in expected)
    for r, e in enumerate(expected):
        assert outcome.truth_row(r) == e.truth


@pytest.mark.parametrize("trial", range(25))
def test_randomized_conjunctions_match_interpreted_path(trial):
    rng = make_random(trial, "compiled-kernels")
    conjunction = _random_conjunction(rng)
    bound = BoundConjunction(conjunction, COLUMNS)
    compiled = bound.compile()
    rows = _random_rows(rng, rng.randrange(0, 60))
    for short_circuit in (True, False):
        for num_terms in range(len(conjunction.terms) + 1):
            _assert_batch_matches_rows(
                bound, compiled, rows, num_terms, short_circuit
            )


def _assert_columns_match_batch(
    compiled: CompiledConjunction,
    rows: list[tuple],
    num_terms: int,
) -> None:
    """The chunk scan's vector kernel vs the short-circuiting batch kernel."""
    from repro.exec import vector

    columns = vector.columns_from_rows(rows, len(COLUMNS))
    batch = compiled.evaluate_batch(rows, num_terms=num_terms)
    outcome = compiled.evaluate_columns(columns, len(rows), num_terms=num_terms)
    assert outcome.num_rows == batch.num_rows
    assert vector.mask_values(outcome.passed) == batch.passed
    assert outcome.evaluations == batch.evaluations


@pytest.mark.parametrize("trial", range(25))
@pytest.mark.parametrize("backend", ["numpy", "python"])
def test_randomized_conjunctions_columnar_matches_batch(trial, backend):
    from repro.exec import vector

    if backend == "numpy" and not vector.HAVE_NUMPY:
        pytest.skip("NumPy unavailable")
    rng = make_random(trial, "columnar-kernels")
    conjunction = _random_conjunction(rng)
    compiled = BoundConjunction(conjunction, COLUMNS).compile()
    rows = _random_rows(rng, rng.randrange(0, 60))
    forced = (
        vector.use_python_backend()
        if backend == "python"
        else contextlib.nullcontext()
    )
    with forced:
        for num_terms in range(len(conjunction.terms) + 1):
            _assert_columns_match_batch(compiled, rows, num_terms)


def test_compile_is_cached():
    bound = BoundConjunction(
        Conjunction((Comparison("a", "<", 5),)), COLUMNS
    )
    assert bound.compile() is bound.compile()


def test_null_rows_never_match():
    bound = BoundConjunction(
        Conjunction((Comparison("a", "!=", 5), Between("b", 0, 99))), COLUMNS
    )
    rows = [(None, 1, 0, 0), (1, None, 0, 0), (None, None, 0, 0)]
    outcome = bound.compile().evaluate_batch(rows)
    assert outcome.passed == [False, False, False]
    # Row 0 short-circuits on the NULL first term; row 1 fails the second.
    assert outcome.truth_row(0) == (False, None)
    assert outcome.truth_row(1) == (True, False)
    assert outcome.evaluations == 4


def test_all_rows_short_circuit_stops_later_terms():
    bound = BoundConjunction(
        Conjunction((Comparison("a", "<", 0), Comparison("b", "<", 50))),
        COLUMNS,
    )
    rows = [(5, 1, 0, 0), (9, 2, 0, 0)]
    outcome = bound.compile().evaluate_batch(rows)
    assert outcome.passed == [False, False]
    assert outcome.truth[1] is None  # second term evaluated on no row
    assert outcome.evaluations == 2


def test_prefix_out_of_range_matches_interpreted_error():
    bound = BoundConjunction(
        Conjunction((Comparison("a", "<", 5),)), COLUMNS
    )
    with pytest.raises(ExpressionError):
        bound.evaluate_prefix((1, 2, 3, 4), 2)
    with pytest.raises(ExpressionError):
        bound.compile().evaluate_batch([(1, 2, 3, 4)], num_terms=2)
    with pytest.raises(ExpressionError):
        bound.compile().evaluate_columns(((1,), (2,), (3,), (4,)), 1, num_terms=2)


def test_unknown_column_rejected_at_bind_time():
    with pytest.raises(ExpressionError):
        BoundConjunction(
            Conjunction((Comparison("zz", "<", 5),)), COLUMNS
        )
