"""The column kernel against the per-row evaluator, its reference.

Property-style check: on randomized conjunctions (random term types,
order, bounds, and NULL-bearing rows),
:meth:`BoundConjunction.evaluate_columns` must reproduce the per-row
:class:`TermOutcome` stream exactly, for every prefix length:

* ``passed`` and the *total* evaluation count — the Fig. 7/9 overhead
  currency, so "close" is not good enough;
* ``alive[i]`` is set exactly on the rows whose short-circuited truth
  (:meth:`BoundConjunction.evaluate_prefix`) has term *i* TRUE;
* ``raw[i]`` equals term *i*'s full-evaluation truth
  (:meth:`BoundConjunction.evaluate` with short-circuiting off) on the
  ``full_rows``, with ``full_rows`` none, all and random.
"""

from __future__ import annotations

import contextlib

import pytest

from repro.common.errors import ExpressionError
from repro.common.rng import make_random
from repro.exec import vector
from repro.sql.evaluator import BoundConjunction
from repro.sql.predicates import Between, Comparison, Conjunction, InList

from tests.conftest import list_columns

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


def _assert_columns_match_rows(
    bound: BoundConjunction,
    rows: list[tuple],
    num_terms: int,
    full: list[bool] | None = None,
) -> None:
    """``evaluate_columns`` vs the row oracle; ``full[r]`` says whether row
    *r* is evaluated in full (``None``: every row short-circuited)."""
    num_rows = len(rows)
    full_rows = None
    if full is not None:
        full_rows = vector.mask_and(vector.ones_mask(num_rows), full)
    outcome = bound.evaluate_columns(
        vector.columns_from_rows(rows, len(COLUMNS)), num_rows, num_terms, full_rows
    )
    in_full = full or [False] * num_rows
    expected = [
        bound.evaluate(row, short_circuit=False)
        if is_full
        else bound.evaluate_prefix(row, num_terms)
        for row, is_full in zip(rows, in_full)
    ]
    assert outcome.num_rows == num_rows
    assert vector.mask_values(outcome.passed) == [
        all(e.truth[:num_terms]) for e in expected
    ]
    assert outcome.evaluations == sum(e.evaluations for e in expected)
    assert len(outcome.alive) == num_terms
    for term in range(num_terms):
        alive = vector.mask_values(outcome.alive[term])
        assert alive == [
            all(value is True for value in e.truth[: term + 1]) for e in expected
        ]
        for is_full, flag, e in zip(in_full, alive, expected):
            if not is_full:
                assert flag == (e.truth[term] is True)
    if full is None:
        assert outcome.raw is None
        return
    for term in range(len(bound)):
        raw = vector.mask_values(outcome.raw[term])
        assert [flag for flag, is_full in zip(raw, full) if is_full] == [
            e.truth[term] for e, is_full in zip(expected, full) if is_full
        ]


@pytest.mark.parametrize("trial", range(25))
def test_randomized_conjunctions_match_interpreted_path(trial):
    """Short-circuited evaluation of every prefix."""
    rng = make_random(trial, "compiled-kernels")
    conjunction = _random_conjunction(rng)
    bound = BoundConjunction(conjunction, COLUMNS)
    rows = _random_rows(rng, rng.randrange(0, 60))
    for num_terms in range(len(conjunction.terms) + 1):
        _assert_columns_match_rows(bound, rows, num_terms)


@pytest.mark.parametrize("trial", range(25))
@pytest.mark.parametrize("backend", ["numpy", "python"])
def test_randomized_conjunctions_columnar_matches_batch(trial, backend):
    """A batch of rows some of which are evaluated in full — none, all,
    or a random subset, as DPSample picks pages — against the row oracle
    applied row by row."""
    rng = make_random(trial, "columnar-kernels")
    conjunction = _random_conjunction(rng)
    bound = BoundConjunction(conjunction, COLUMNS)
    rows = _random_rows(rng, rng.randrange(0, 60))
    subsets = [
        [False] * len(rows),
        [True] * len(rows),
        [rng.random() < 0.5 for _ in rows],
    ]
    with list_columns() if backend == "python" else contextlib.nullcontext():
        for num_terms in range(len(conjunction.terms) + 1):
            for full in subsets:
                _assert_columns_match_rows(bound, rows, num_terms, full)


def test_null_rows_never_match():
    bound = BoundConjunction(
        Conjunction((Comparison("a", "!=", 5), Between("b", 0, 99))), COLUMNS
    )
    rows = [(None, 1, 0, 0), (1, None, 0, 0), (None, None, 0, 0)]
    columns = vector.columns_from_rows(rows, len(COLUMNS))
    outcome = bound.evaluate_columns(columns, len(rows))
    assert vector.mask_values(outcome.passed) == [False, False, False]
    # Row 0 short-circuits on the NULL first term; row 1 fails the second.
    assert vector.mask_values(outcome.alive[0]) == [False, True, False]
    assert vector.mask_values(outcome.alive[1]) == [False, False, False]
    assert outcome.evaluations == 4
    # Evaluated in full, a NULL still never matches.
    full = bound.evaluate_columns(
        columns, len(rows), full_rows=vector.ones_mask(len(rows))
    )
    assert vector.mask_values(full.raw[0]) == [False, True, False]
    assert vector.mask_values(full.raw[1]) == [True, False, False]
    assert full.evaluations == 6


def test_all_rows_short_circuit_stops_later_terms():
    bound = BoundConjunction(
        Conjunction((Comparison("a", "<", 0), Comparison("b", "<", 50))),
        COLUMNS,
    )
    rows = [(5, 1, 0, 0), (9, 2, 0, 0)]
    outcome = bound.evaluate_columns(
        vector.columns_from_rows(rows, len(COLUMNS)), len(rows)
    )
    assert vector.mask_values(outcome.passed) == [False, False]
    # The second term is evaluated on no row, and charged for none.
    assert vector.mask_values(outcome.alive[1]) == [False, False]
    assert outcome.evaluations == 2


def test_prefix_out_of_range_matches_interpreted_error():
    bound = BoundConjunction(
        Conjunction((Comparison("a", "<", 5),)), COLUMNS
    )
    with pytest.raises(ExpressionError):
        bound.evaluate_prefix((1, 2, 3, 4), 2)
    with pytest.raises(ExpressionError):
        bound.evaluate_columns(((1,), (2,), (3,), (4,)), 1, num_terms=2)


def test_unknown_column_rejected_at_bind_time():
    with pytest.raises(ExpressionError):
        BoundConjunction(
            Conjunction((Comparison("zz", "<", 5),)), COLUMNS
        )
