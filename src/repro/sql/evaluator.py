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
to a row layout once (name -> position), then evaluates rows cheaply.  The
result is a :class:`TermOutcome` carrying the per-term truth vector.

Batch mode adds a second seam: :meth:`BoundConjunction.compile` specializes
each term into a closure (a *kernel*) evaluated over a whole page of rows
at once, selection-vector style — term *i* runs only on the rows every
earlier term passed, so the per-term truth vectors and the total number of
term evaluations are exactly what the row-at-a-time loop would have
produced.  The column-oriented result is a :class:`BatchOutcome`.

The chunk scan adds the third:
:meth:`CompiledConjunction.evaluate_columns` runs each term's
:meth:`~repro.sql.predicates.AtomicPredicate.matches_vector` over a whole
column vector, producing a selection *bitmask* (:class:`VectorOutcome`).
Masks are computed full-width (that is what makes them fast), but
short-circuit semantics are preserved by masking: term *i*'s mask is
ANDed with the rows alive after terms ``0..i-1``, and ``evaluations``
charges each term only for the rows the row-at-a-time loop would have
evaluated it on — so Fig. 7/9 overhead accounting stays bit-identical.
Per-term truth is reported as masks too: the cumulative ``alive`` masks
(under short-circuiting, "term *i* came out TRUE" is "alive after term
*i*") and, for rows of DPSample-selected pages, the raw un-short-circuited
term masks — the scan folds those into per-page flags for its monitors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from repro.common.errors import ExpressionError
from repro.sql.predicates import AtomicPredicate, Conjunction

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


class BatchOutcome:
    """Result of evaluating a conjunction over one batch of rows.

    Column-oriented mirror of :class:`TermOutcome`: ``truth[i]`` is the
    per-row truth column of term *i* (``None`` entries for rows the term
    was short-circuited on), or ``None`` when the term was evaluated on no
    row at all.  ``passed[r]`` is the evaluated prefix's value on row *r*
    and ``evaluations`` is the total number of term evaluations — both
    bit-identical to summing the per-row :class:`TermOutcome` results.
    """

    __slots__ = ("passed", "truth", "evaluations", "num_rows")

    def __init__(
        self,
        passed: list[bool],
        truth: list[Optional[list[Optional[bool]]]],
        evaluations: int,
        num_rows: int,
    ) -> None:
        self.passed = passed
        self.truth = truth
        self.evaluations = evaluations
        self.num_rows = num_rows

    def truth_row(self, row_index: int) -> tuple[Optional[bool], ...]:
        """Row ``row_index``'s truth vector, in :class:`TermOutcome` form."""
        return tuple(
            column[row_index] if column is not None else None
            for column in self.truth
        )

    def prefix_passed(self, num_terms: int) -> list[bool]:
        """Per-row truth of the first ``num_terms`` terms.

        Used by scans in full-evaluation mode, where the monitor
        conjunction was evaluated in full but row output is decided by the
        query's own prefix (`all(outcome.truth[:num_query_terms])` in the
        row loop).
        """
        if num_terms == 0:
            return [True] * self.num_rows
        columns = self.truth[:num_terms]
        if any(column is None for column in columns):
            return [False] * self.num_rows
        if num_terms == 1:
            return [value is True for value in columns[0]]
        return [
            all(value is True for value in values) for values in zip(*columns)
        ]


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


class CompiledConjunction:
    """Per-term kernels for batch conjunction evaluation.

    ``compile()`` specializes every term into a closure that evaluates it
    over a list of rows in one comprehension (constants hoisted by the
    term's :meth:`~repro.sql.predicates.AtomicPredicate.matches_batch`).
    Evaluation is selection-vector style: with short-circuiting on, term
    *i*'s kernel runs only on the rows that every earlier term passed, so
    per-term truth, short-circuit skips (``None``) and the evaluation
    count all match the interpreted per-row path exactly.
    """

    __slots__ = ("conjunction", "_positions", "_kernels", "_vector_kernels")

    def __init__(
        self,
        conjunction: Conjunction,
        positions: tuple[int, ...],
        terms: tuple[AtomicPredicate, ...],
    ) -> None:
        self.conjunction = conjunction
        self._positions = positions
        self._kernels = tuple(
            self._specialize(position, term)
            for position, term in zip(positions, terms)
        )
        self._vector_kernels = tuple(
            self._specialize_vector(position, term)
            for position, term in zip(positions, terms)
        )

    @staticmethod
    def _specialize(
        position: int, term: AtomicPredicate
    ) -> Callable[[list[tuple]], list[bool]]:
        matches_batch = term.matches_batch

        def kernel(rows: list[tuple]) -> list[bool]:
            return matches_batch([row[position] for row in rows])

        return kernel

    @staticmethod
    def _specialize_vector(position: int, term: AtomicPredicate) -> Callable:
        matches_vector = term.matches_vector

        def kernel(columns: Sequence):
            return matches_vector(columns[position])

        return kernel

    def __len__(self) -> int:
        return len(self._kernels)

    def evaluate_batch(
        self,
        rows: Sequence[tuple],
        num_terms: Optional[int] = None,
        short_circuit: bool = True,
    ) -> BatchOutcome:
        """Evaluate the first ``num_terms`` terms over all of ``rows``.

        ``num_terms=None`` evaluates the whole conjunction.  Equivalent to
        calling :meth:`BoundConjunction.evaluate_prefix` on every row and
        transposing the outcomes; see :class:`BatchOutcome`.
        """
        total = len(self._kernels)
        if num_terms is None:
            num_terms = total
        if not 0 <= num_terms <= total:
            raise ExpressionError(
                f"prefix of {num_terms} terms out of range for "
                f"{total}-term conjunction"
            )
        rows = rows if isinstance(rows, list) else list(rows)
        num_rows = len(rows)
        truth: list[Optional[list[Optional[bool]]]] = [None] * total
        passed = [True] * num_rows
        evaluations = 0

        if not short_circuit:
            for i in range(num_terms):
                column = self._kernels[i](rows)
                truth[i] = column  # type: ignore[assignment]
                evaluations += num_rows
                for r, value in enumerate(column):
                    if not value:
                        passed[r] = False
            return BatchOutcome(passed, truth, evaluations, num_rows)

        # Selection-vector path: ``alive`` is the list of row indexes every
        # term so far passed; ``None`` means "all rows" (fast common case).
        alive: Optional[list[int]] = None
        for i in range(num_terms):
            if alive is None:
                column = self._kernels[i](rows)
                truth[i] = column  # type: ignore[assignment]
                evaluations += num_rows
                if not all(column):
                    alive = []
                    survived = alive.append
                    for r, value in enumerate(column):
                        if value:
                            survived(r)
                        else:
                            passed[r] = False
            else:
                if not alive:
                    break  # every row short-circuited: later terms unevaluated
                values = self._kernels[i]([rows[r] for r in alive])
                evaluations += len(alive)
                column_sparse: list[Optional[bool]] = [None] * num_rows
                next_alive: list[int] = []
                survived = next_alive.append
                for r, value in zip(alive, values):
                    column_sparse[r] = value
                    if value:
                        survived(r)
                    else:
                        passed[r] = False
                truth[i] = column_sparse
                alive = next_alive
        return BatchOutcome(passed, truth, evaluations, num_rows)

    def evaluate_columns(
        self,
        columns: Sequence,
        num_rows: int,
        num_terms: Optional[int] = None,
        full_rows=None,
    ) -> VectorOutcome:
        """Evaluate the first ``num_terms`` terms over column vectors.

        The columnar mirror of :meth:`evaluate_batch`: each term becomes
        one whole-vector compare producing a bitmask.  ``full_rows`` is
        the mask of rows on which the *whole* conjunction is evaluated
        with short-circuiting off (rows of DPSample-selected pages,
        Fig. 4 step 4); every other row gets the short-circuited prefix.
        ``passed``, ``alive`` and the evaluation count match the
        row-at-a-time loop exactly: a kernel may physically run on rows
        that loop would have skipped, but only the rows it would have
        evaluated are charged.
        """
        vec = _vec()
        total = len(self._kernels)
        if num_terms is None:
            num_terms = total
        if not 0 <= num_terms <= total:
            raise ExpressionError(
                f"prefix of {num_terms} terms out of range for "
                f"{total}-term conjunction"
            )
        kernels = self._vector_kernels
        raw = None
        full_count = 0
        if full_rows is not None:
            raw = [kernels[i](columns) for i in range(total)]
            full_count = vec.mask_count(full_rows)
        evaluations = total * full_count
        # Masked short-circuit: ``current`` is the mask of rows every term
        # so far passed, starting from all rows.  A term is charged only
        # for the short-circuited rows alive when it ran, and once no row
        # is alive the later terms are not evaluated at all — exactly
        # mirroring the selection-vector path above.
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
            mask = raw[i] if raw is not None else kernels[i](columns)
            if alive_count < num_rows:
                current = vec.mask_and(current, mask)
                alive_count = vec.mask_count(current)
            else:
                alive_count = vec.mask_count(mask)
                if alive_count < num_rows:
                    current = mask
            alive.append(current)
        return VectorOutcome(current, evaluations, num_rows, alive, raw)


class BoundConjunction:
    """A conjunction bound to a specific row layout for fast evaluation.

    The layout is a sequence of column names; rows are tuples in that order.
    Binding resolves each term's column to a position once, so per-row
    evaluation does no dict lookups.
    """

    __slots__ = ("conjunction", "_positions", "_matchers", "_compiled")

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
        self._compiled: Optional[CompiledConjunction] = None

    def __len__(self) -> int:
        return len(self._positions)

    def compile(self) -> CompiledConjunction:
        """Specialize every term into a batch kernel (cached).

        The compiled form evaluates whole pages at a time; see
        :class:`CompiledConjunction` for the equivalence guarantees.
        """
        compiled = self._compiled
        if compiled is None:
            compiled = CompiledConjunction(
                self.conjunction, self._positions, self.conjunction.terms
            )
            self._compiled = compiled
        return compiled

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
        if not 0 <= num_terms <= len(self._positions):
            raise ExpressionError(
                f"prefix of {num_terms} terms out of range for "
                f"{len(self._positions)}-term conjunction"
            )
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
