"""Predicate evaluation with short-circuit control and accounting.

This module is the seam the paper's scan-plan monitors depend on.  A real
storage engine evaluates the pushed-down conjunction term by term, in plan
order, and *short-circuits*: once a term is FALSE the remaining terms are
skipped (Example 3).  The DPC monitors need to know, per row:

* which terms were actually evaluated (a term that was skipped gives no
  information about ``Satisfies`` for expressions containing it), and
* how many term evaluations were performed (the unit of CPU overhead that
  Figs. 7 and 9 measure).

:class:`BoundConjunction` binds a :class:`~repro.sql.predicates.Conjunction`
to a row layout once (name -> position).  It has two seams, one per drive:

* per row (the row oracle): :meth:`BoundConjunction.evaluate` /
  :meth:`~BoundConjunction.evaluate_prefix` give a :class:`TermOutcome`
  carrying the row's per-term truth vector; a scan, which needs no
  outcome object per row, runs the terms itself from
  :meth:`~BoundConjunction.term_tests`;
* per chunk of column vectors (every batch operator that filters rows):
  :meth:`BoundConjunction.evaluate_columns` runs each term's
  :meth:`~repro.sql.predicates.AtomicPredicate.matches_vector` over a
  whole column, producing a selection *bitmask* (:class:`VectorOutcome`).
  Masks are computed full-width (that is what makes them fast), but
  short-circuit semantics are preserved by masking: term *i*'s mask is
  ANDed with the rows alive after terms ``0..i-1``, and ``evaluations``
  charges each term only for the rows the row-at-a-time loop would have
  evaluated it on — so Fig. 7/9 overhead accounting stays bit-identical.
  Per-term truth is reported as masks too: the cumulative ``alive`` masks
  (under short-circuiting, "term *i* came out TRUE" is "alive after term
  *i*") and, for rows evaluated in full, the raw un-short-circuited term
  masks.  :meth:`VectorOutcome.witness` reads a monitor entry's witness
  rows off them; scans fold those into per-page flags, fetches hand them
  to their linear counters one flag per fetched row.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Any, Callable, Optional, Sequence

from repro.common.errors import ExpressionError
from repro.sql.predicates import Conjunction

_vector_module = None


def _vec():
    """Lazily bind :mod:`repro.exec.vector` (avoids the sql <-> exec cycle)."""
    global _vector_module
    if _vector_module is None:
        from repro.exec import vector

        _vector_module = vector
    return _vector_module


@dataclass(slots=True)
class TermOutcome:
    """Result of evaluating a conjunction on one row.

    ``truth[i]`` is ``True``/``False`` if term *i* was evaluated, ``None``
    if it was skipped by short-circuiting.  ``passed`` is the conjunction's
    value; when short-circuited it is still exact (a FALSE term decides it).
    ``evaluations`` counts the term evaluations performed on this row.
    """

    passed: bool
    truth: tuple[Optional[bool], ...]
    evaluations: int

    def term_known(self, index: int) -> bool:
        """Whether term ``index`` was actually evaluated on this row."""
        return self.truth[index] is not None


class VectorOutcome:
    """Result of evaluating a conjunction over one chunk of column vectors.

    ``passed`` is the evaluated prefix's truth per row, as a mask (see
    :mod:`repro.exec.vector`), and ``evaluations`` counts term evaluations
    exactly as the row-at-a-time loop would have.  ``alive[i]`` is the
    mask of rows that passed terms ``0..i`` of the prefix — the rows on
    which short-circuited evaluation reports term *i* TRUE.  ``raw[i]``
    is term *i*'s own mask over the whole conjunction, present only when
    some rows were evaluated in full (``full_rows``); it is meaningful on
    those rows alone.
    """

    __slots__ = ("passed", "evaluations", "num_rows", "alive", "raw")

    def __init__(
        self,
        passed,
        evaluations: int,
        num_rows: int,
        alive: list,
        raw: Optional[list] = None,
    ) -> None:
        self.passed = passed
        self.evaluations = evaluations
        self.num_rows = num_rows
        self.alive = alive
        self.raw = raw

    def witness(self, term_indexes: Sequence[int], full_truth: bool = False):
        """The mask of rows on which every listed term came out TRUE.

        Short-circuited truth (the default) is the last listed term's
        ``alive`` mask: "term *i* TRUE" there is "alive after term *i*".
        ``full_truth`` reads the rows evaluated in full instead — the AND
        of the listed terms' ``raw`` masks.  No listed terms: every row.
        ``None`` when no row can witness: a listed term lies past the
        evaluated prefix, or no row was evaluated in full.
        """
        vec = _vec()
        if not term_indexes:
            return vec.ones_mask(self.num_rows)
        if not full_truth:
            last = max(term_indexes)
            return self.alive[last] if last < len(self.alive) else None
        if self.raw is None:
            return None
        return reduce(vec.mask_and, [self.raw[index] for index in term_indexes])


class BoundConjunction:
    """A conjunction bound to a specific row layout for fast evaluation.

    The layout is a sequence of column names; rows are tuples (and chunks
    tuples of column vectors) in that order.  Binding resolves each term's
    column to a position once, so evaluation does no dict lookups.
    """

    __slots__ = ("conjunction", "_positions", "_matchers")

    def __init__(self, conjunction: Conjunction, columns: Sequence[str]) -> None:
        self.conjunction = conjunction
        index = {name: pos for pos, name in enumerate(columns)}
        positions = []
        matchers = []
        for term in conjunction.terms:
            if term.column not in index:
                raise ExpressionError(
                    f"predicate column {term.column!r} not in row layout {list(columns)}"
                )
            positions.append(index[term.column])
            matchers.append(term.matches)
        self._positions = tuple(positions)
        self._matchers = tuple(matchers)

    def __len__(self) -> int:
        return len(self._positions)

    def term_tests(self) -> tuple[tuple[int, Callable[[Any], bool]], ...]:
        """``(position, matches)`` per term, in evaluation order: term *i*
        holds on a row when ``matches(row[position])`` — what a scan's own
        row-at-a-time loop calls, without a :class:`TermOutcome` per row."""
        return tuple(zip(self._positions, self._matchers))

    def _check_prefix(self, num_terms: int) -> None:
        if not 0 <= num_terms <= len(self._positions):
            raise ExpressionError(
                f"prefix of {num_terms} terms out of range for "
                f"{len(self._positions)}-term conjunction"
            )

    def evaluate_columns(
        self,
        columns: Sequence,
        num_rows: int,
        num_terms: Optional[int] = None,
        full_rows=None,
    ) -> VectorOutcome:
        """Evaluate the first ``num_terms`` terms over column vectors.

        The chunk form of :meth:`evaluate_prefix`: each term becomes one
        whole-vector compare producing a bitmask.  ``num_terms=None``
        evaluates the whole conjunction.  ``full_rows`` is the mask of
        rows on which the *whole* conjunction is evaluated with
        short-circuiting off (rows of DPSample-selected pages, Fig. 4
        step 4, or every fetched row of a full-evaluation fetch); every
        other row gets the short-circuited prefix.  ``passed``, ``alive``
        and the evaluation count match the row-at-a-time loop exactly: a
        kernel may physically run on rows that loop would have skipped,
        but only the rows it would have evaluated are charged.
        """
        vec = _vec()
        terms = self.conjunction.terms
        positions = self._positions
        total = len(positions)
        if num_terms is None:
            num_terms = total
        self._check_prefix(num_terms)
        raw = None
        full_count = 0
        if full_rows is not None:
            raw = [
                terms[i].matches_vector(columns[positions[i]]) for i in range(total)
            ]
            full_count = vec.mask_count(full_rows)
        evaluations = total * full_count
        # Masked short-circuit: ``current`` is the mask of rows every term
        # so far passed, starting from all rows.  A term is charged only
        # for the short-circuited rows alive when it ran, and once no row
        # is alive the later terms are not evaluated at all — exactly
        # what the per-row loop does.
        current = vec.ones_mask(num_rows)
        alive_count = num_rows
        alive: list = []
        for i in range(num_terms):
            if alive_count == 0 and raw is None:
                alive.append(current)
                continue  # every row short-circuited: term unevaluated
            if full_count == 0:
                evaluations += alive_count
            elif alive_count == num_rows:
                evaluations += num_rows - full_count
            elif full_count < num_rows:
                evaluations += alive_count - vec.mask_count(
                    vec.mask_and(current, full_rows)
                )
            if raw is not None:
                mask = raw[i]
            else:
                mask = terms[i].matches_vector(columns[positions[i]])
            if alive_count < num_rows:
                current = vec.mask_and(current, mask)
                alive_count = vec.mask_count(current)
            else:
                alive_count = vec.mask_count(mask)
                if alive_count < num_rows:
                    current = mask
            alive.append(current)
        return VectorOutcome(current, evaluations, num_rows, alive, raw)

    def evaluate(self, row: Sequence, short_circuit: bool = True) -> TermOutcome:
        """Evaluate all terms on ``row``.

        With ``short_circuit=True`` (the engine's normal mode) evaluation
        stops at the first FALSE term and later terms report ``None``.
        With ``short_circuit=False`` every term is evaluated — the mode
        DPSample forces on sampled pages (Fig. 4, step 4).
        """
        truth: list[Optional[bool]] = [None] * len(self._positions)
        passed = True
        evaluations = 0
        for i, (pos, matches) in enumerate(zip(self._positions, self._matchers)):
            result = matches(row[pos])
            evaluations += 1
            truth[i] = result
            if not result:
                passed = False
                if short_circuit:
                    break
        return TermOutcome(passed=passed, truth=tuple(truth), evaluations=evaluations)

    def evaluate_prefix(
        self, row: Sequence, num_terms: int, short_circuit: bool = True
    ) -> TermOutcome:
        """Evaluate only the first ``num_terms`` terms.

        The truth vector is still sized to the full conjunction (later
        entries are ``None``), so monitors indexing by term position work
        regardless of how much of the conjunction a given page evaluated.
        ``passed`` refers to the *prefix* conjunction only — this is what a
        scan uses to decide row output when extra monitoring-only terms
        have been appended after the query's own terms.
        """
        self._check_prefix(num_terms)
        truth: list[Optional[bool]] = [None] * len(self._positions)
        passed = True
        evaluations = 0
        for i in range(num_terms):
            result = self._matchers[i](row[self._positions[i]])
            evaluations += 1
            truth[i] = result
            if not result:
                passed = False
                if short_circuit:
                    break
        return TermOutcome(passed=passed, truth=tuple(truth), evaluations=evaluations)

    def passes(self, row: Sequence) -> bool:
        """Fast boolean-only evaluation with short-circuiting.

        Used on hot paths that do not need per-term accounting (e.g. the
        exact-DPC oracle and index-side residual filters).
        """
        for pos, matches in zip(self._positions, self._matchers):
            if not matches(row[pos]):
                return False
        return True
