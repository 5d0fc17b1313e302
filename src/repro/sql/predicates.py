"""Predicate expressions.

The paper (Section III) assumes for exposition that predicates are
conjunctions of *atomic* predicates, and everything about short-circuiting,
prefixes and ``Satisfies(T, PID, p)`` is phrased in those terms.  We model:

* :class:`Comparison` — ``col <op> literal`` for ``< <= = >= > !=``,
* :class:`Between` — ``lo <= col <= hi`` (closed range),
* :class:`InList` — ``col IN (v1, ..., vk)``,
* :class:`Conjunction` — ordered AND of atomic predicates (order matters:
  it is the order the predicate evaluator uses for short-circuiting),
* :class:`JoinEquality` — ``left_col = right_col`` across two tables, used
  by join operators and as the predicate of a join-method DPC request.

Every predicate has a canonical :meth:`key` string used by the feedback
store and the diagnostics report, and knows which columns it touches.
"""

from __future__ import annotations

import operator
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Iterable, Sequence

from repro.common.errors import ExpressionError

_OPS: dict[str, Callable[[Any, Any], bool]] = {
    "<": operator.lt,
    "<=": operator.le,
    "=": operator.eq,
    ">=": operator.ge,
    ">": operator.gt,
    "!=": operator.ne,
}

_vector_module = None


def _vec():
    """Lazily bind :mod:`repro.exec.vector`.

    A top-level import would pull in ``repro.exec.__init__`` (which
    imports operators, which import this module) while predicates is
    still half-initialized; deferring to first use breaks the cycle.
    """
    global _vector_module
    if _vector_module is None:
        from repro.exec import vector

        _vector_module = vector
    return _vector_module


class AtomicPredicate(ABC):
    """A single-column predicate evaluable on one row."""

    column: str

    @abstractmethod
    def matches(self, value: Any) -> bool:
        """Whether a column value satisfies the predicate.

        SQL three-valued logic is collapsed: NULL never matches.
        """

    @abstractmethod
    def matches_vector(self, column):
        """Whole-column :meth:`matches` producing a selection mask.

        ``column`` is a column vector (see :mod:`repro.exec.vector`); the
        result is a mask aligned with it, computed by a single backend
        kernel.  Implementations must preserve the NULL-never-matches
        collapse exactly.
        """

    @abstractmethod
    def key(self) -> str:
        """Canonical string form, stable across runs (feedback-store key)."""

    def columns(self) -> tuple[str, ...]:
        return (self.column,)

    def __repr__(self) -> str:
        return self.key()

    @cached_property
    def _identity(self) -> str:
        """:meth:`key`, rendered once: predicates are immutable, and the
        monitor planner compares and hashes terms on every request."""
        return self.key()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, AtomicPredicate) and self._identity == other._identity

    def __hash__(self) -> int:
        return hash(self._identity)


@dataclass(frozen=True, eq=False)
class Comparison(AtomicPredicate):
    """``column <op> value`` where ``<op>`` is one of ``< <= = >= > !=``."""

    column: str
    op: str
    value: Any
    #: ``_OPS[op]``, bound once: the row drive calls :meth:`matches` per row.
    _fn: Callable[[Any, Any], bool] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ExpressionError(
                f"unknown comparison operator {self.op!r}; expected one of {sorted(_OPS)}"
            )
        object.__setattr__(self, "_fn", _OPS[self.op])

    def matches(self, value: Any) -> bool:
        if value is None:
            return False
        return self._fn(value, self.value)

    def matches_vector(self, column):
        return _vec().compare_mask(column, self.op, self.value)

    def key(self) -> str:
        return f"{self.column} {self.op} {self.value!r}"


@dataclass(frozen=True, eq=False)
class Between(AtomicPredicate):
    """Closed range ``low <= column <= high``."""

    column: str
    low: Any
    high: Any

    def __post_init__(self) -> None:
        try:
            if self.low > self.high:
                raise ExpressionError(
                    f"BETWEEN bounds reversed for {self.column}: {self.low!r} > {self.high!r}"
                )
        except TypeError as exc:
            raise ExpressionError(
                f"BETWEEN bounds for {self.column} are not comparable: "
                f"{self.low!r}, {self.high!r}"
            ) from exc

    def matches(self, value: Any) -> bool:
        if value is None:
            return False
        return self.low <= value <= self.high

    def matches_vector(self, column):
        return _vec().between_mask(column, self.low, self.high)

    def key(self) -> str:
        return f"{self.column} BETWEEN {self.low!r} AND {self.high!r}"


@dataclass(frozen=True, eq=False)
class InList(AtomicPredicate):
    """``column IN (v1, ..., vk)``."""

    column: str
    values: tuple[Any, ...]
    _value_set: frozenset = field(init=False, repr=False, compare=False)

    def __init__(self, column: str, values: Iterable[Any]) -> None:
        values = tuple(values)
        if not values:
            raise ExpressionError(f"IN list for {column} must not be empty")
        object.__setattr__(self, "column", column)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_value_set", frozenset(values))

    def matches(self, value: Any) -> bool:
        if value is None:
            return False
        return value in self._value_set

    def matches_vector(self, column):
        return _vec().isin_mask(column, self._value_set)

    def key(self) -> str:
        rendered = ", ".join(repr(v) for v in sorted(self.values, key=repr))
        return f"{self.column} IN ({rendered})"


class Conjunction:
    """Ordered AND of atomic predicates.

    The order of ``terms`` is the evaluation order used by the predicate
    evaluator; with short-circuiting on, a FALSE term stops evaluation of
    the remaining terms (Example 3 in the paper).  A conjunction of zero
    terms is TRUE (useful as the "no selection" predicate of a pure scan).
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Sequence[AtomicPredicate] = ()) -> None:
        self.terms: tuple[AtomicPredicate, ...] = tuple(terms)

    def columns(self) -> tuple[str, ...]:
        seen: list[str] = []
        for term in self.terms:
            for col in term.columns():
                if col not in seen:
                    seen.append(col)
        return tuple(seen)

    def key(self) -> str:
        if not self.terms:
            return "TRUE"
        return " AND ".join(term.key() for term in self.terms)

    def prefix(self, length: int) -> "Conjunction":
        """The conjunction of the first ``length`` terms."""
        if not 0 <= length <= len(self.terms):
            raise ExpressionError(
                f"prefix length {length} out of range for {len(self.terms)} terms"
            )
        return Conjunction(self.terms[:length])

    def is_prefix_of(self, other: "Conjunction") -> bool:
        """Whether this conjunction is a prefix of ``other``'s term order.

        Section III-B: page counts for a *prefix* of the evaluated predicate
        order never require turning off short-circuiting.
        """
        if len(self.terms) > len(other.terms):
            return False
        return all(a == b for a, b in zip(self.terms, other.terms))

    def subset_of(self, other: "Conjunction") -> bool:
        """Whether every term here appears somewhere in ``other``."""
        other_terms = set(other.terms)
        return all(term in other_terms for term in self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Conjunction) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.terms)

    def __repr__(self) -> str:
        return f"Conjunction({self.key()})"


def conjunction_of(*terms: AtomicPredicate) -> Conjunction:
    """Convenience constructor: ``conjunction_of(p1, p2, ...)``."""
    return Conjunction(terms)


@dataclass(frozen=True)
class JoinEquality:
    """Equality join predicate ``left_table.left_column = right_table.right_column``.

    For a join-method DPC request (Section IV) the predicate ``p`` in
    ``DPC(inner, p)`` is exactly this join predicate — selection predicates
    on the inner are excluded because an INL join applies them *after* the
    fetch.
    """

    left_table: str
    left_column: str
    right_table: str
    right_column: str

    def key(self) -> str:
        return (
            f"{self.left_table}.{self.left_column} = "
            f"{self.right_table}.{self.right_column}"
        )

    def reversed(self) -> "JoinEquality":
        """The same predicate with sides swapped (R join S vs. S join R)."""
        return JoinEquality(
            self.right_table, self.right_column, self.left_table, self.left_column
        )

    def column_for(self, table: str) -> str:
        """The join column on ``table``'s side; raises if not a participant."""
        if table == self.left_table:
            return self.left_column
        if table == self.right_table:
            return self.right_column
        raise ExpressionError(f"table {table!r} does not participate in {self.key()}")

    def other_table(self, table: str) -> str:
        """The participant that is not ``table``; raises if not a participant."""
        self.column_for(table)
        return self.right_table if table == self.left_table else self.left_table

    def __repr__(self) -> str:
        return f"JoinEquality({self.key()})"
