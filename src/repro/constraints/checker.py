"""Checking a database against a set of integrity constraints.

The paper's Definition 3.5 makes constraint checking identical to query
evaluation: Σ satisfies IC iff Σ ⊨ IC.  :class:`IntegrityChecker` adds what a
working system needs on top of that identity:

* checking a whole constraint set and reporting which constraints fail,
* producing *witnesses* for failures — e.g. the known employee with no known
  social security number — by turning the constraint's negation into an open
  query and asking ``demo``/the reducer for its answers,
* two evaluation strategies — the ``demo`` evaluator on the admissible form
  of each constraint (Result 5.1) or the epistemic reduction — selectable
  per check,
* the classical relevance-filter re-check of discussion item 4
  (:meth:`IntegrityChecker.check_update`), kept as the benchmarks'
  baseline; a database checks through :mod:`repro.constraints.views`.
"""

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.logic.classify import is_admissible, is_first_order, is_k1, is_subjective
from repro.logic.printer import to_text
from repro.logic.syntax import Exists, Not, free_variables, predicates_of
from repro.logic.transform import to_admissible_form
from repro.evaluator.demo import DemoEvaluator
from repro.semantics.config import DEFAULT_CONFIG
from repro.semantics.reduction import EpistemicReducer


@dataclass(frozen=True)
class ConstraintViolation:
    """A failed constraint, with optional witness tuples.

    ``witnesses`` holds parameter tuples (ordered by the violated
    constraint's witness-query variables) that demonstrate the failure —
    for ``∀x. K emp(x) ⊃ ∃y. K ss(x, y)`` a witness is an employee known to
    the database with no known number.
    """

    constraint: object
    witnesses: Tuple[tuple, ...] = ()
    message: str = ""

    def __str__(self):
        rendered = to_text(self.constraint)
        if not self.witnesses:
            return f"violated: {rendered}"
        witnesses = ", ".join(
            "(" + ", ".join(p.name for p in witness) + ")" for witness in self.witnesses
        )
        return f"violated: {rendered} — witnesses: {witnesses}"


@dataclass(frozen=True)
class ConstraintReport:
    """The outcome of checking a constraint set.

    ``fallbacks`` is populated by the violation-view path
    (:mod:`repro.constraints.views`): one
    :class:`~repro.constraints.compile.CompilationFallback` per constraint
    that could not be compiled into the incremental view and was checked
    from scratch instead, with its machine-readable *reason*.  The plain
    from-scratch checker always reports an empty tuple (everything is "from
    scratch" there)."""

    satisfied: bool
    violations: Tuple[ConstraintViolation, ...] = ()
    checked: int = 0
    fallbacks: Tuple = ()

    def __bool__(self):
        return self.satisfied


class IntegrityChecker:
    """Checks KFOPCE integrity constraints against a FOPCE database."""

    def __init__(self, constraints=(), config=DEFAULT_CONFIG, strategy="reduction"):
        if strategy not in ("reduction", "demo"):
            raise ValueError("strategy must be 'reduction' or 'demo'")
        self.config = config
        self.strategy = strategy
        self.constraints = []
        for constraint in constraints:
            self.add(constraint)

    # -- constraint management ------------------------------------------------
    def add(self, constraint):
        """Register a constraint.  First-order constraints are accepted but a
        warning marker is attached to the report message when they are
        checked, since the paper argues they are almost always intended
        modally (use :func:`repro.constraints.modalize.modalize_constraint`)."""
        self.constraints.append(constraint)
        return constraint

    def remove(self, constraint):
        """Remove a previously registered constraint."""
        self.constraints.remove(constraint)

    # -- checking ----------------------------------------------------------------
    def check(self, theory, constraints=None, with_witnesses=True, witness_limit=10):
        """Check *theory* against the registered (or supplied) constraints.

        Returns a :class:`ConstraintReport`; when *with_witnesses* is set the
        violations carry up to *witness_limit* witness tuples extracted from
        the negated constraint (``None`` lifts the cap — the differential
        harness uses that to compare full witness sets against the view).
        """
        active = list(self.constraints if constraints is None else constraints)
        if not active:
            return ConstraintReport(satisfied=True, violations=(), checked=0)
        theory = list(theory)
        reducer = EpistemicReducer(theory, config=self.config, queries=active)
        violations = []
        for constraint in active:
            if self._holds(constraint, theory, reducer):
                continue
            witnesses = ()
            if with_witnesses:
                witnesses = self._witnesses(constraint, reducer, limit=witness_limit)
            message = "" if not is_first_order(constraint) else (
                "constraint is first-order; the paper's reading would modalize it"
            )
            violations.append(
                ConstraintViolation(constraint=constraint, witnesses=witnesses, message=message)
            )
        return ConstraintReport(
            satisfied=not violations, violations=tuple(violations), checked=len(active)
        )

    def check_update(self, theory, added=(), removed=(), constraints=None):
        """Incremental re-checking (discussion item 4): re-check only the
        constraints that mention a predicate touched by the update.

        This is the classical relevance filter of Nicolas (1982) over a
        from-scratch re-check.  It agrees with Definition 3.5 only when
        *theory* satisfied the constraints before the update and no
        non-atomic sentence links predicates (retracting ``r(A)`` next to
        ``∀x. r(x) ⊃ ss(x, S)`` changes what is known of ``ss``).  No
        database checks with it; it stays as the benchmarks' classical
        baseline.  Returns ``(report, updated theory)``.
        """
        # Each retraction removes one occurrence, earliest first, so a
        # duplicated sentence stays in the updated theory until its last
        # occurrence is retracted.
        pending = {}
        for sentence in removed:
            pending[sentence] = pending.get(sentence, 0) + 1
        updated_theory = []
        for sentence in theory:
            if pending.get(sentence, 0) > 0:
                pending[sentence] -= 1
                continue
            updated_theory.append(sentence)
        updated_theory += list(added)
        touched = set()
        for sentence in list(added) + list(removed):
            touched |= {name for name, _ in predicates_of(sentence)}
        active = list(self.constraints if constraints is None else constraints)
        relevant = [
            c for c in active if {name for name, _ in predicates_of(c)} & touched
        ]
        report = self.check(updated_theory, constraints=relevant)
        return report, updated_theory

    # -- internals --------------------------------------------------------------
    def _holds(self, constraint, theory, reducer):
        if self.strategy == "reduction" or not is_subjective(to_admissible_form(constraint)):
            return reducer.entails(constraint)
        admissible = to_admissible_form(constraint)
        if not is_admissible(admissible):
            return reducer.entails(constraint)
        evaluator = DemoEvaluator(theory, config=self.config, prover=reducer.prover)
        return evaluator.succeeds(admissible)

    def _witnesses(self, constraint, reducer, limit=10):
        """Extract witnesses by stripping the leading negation of the
        constraint's admissible form and asking for the answers to the
        existential body."""
        admissible = to_admissible_form(constraint)
        if not isinstance(admissible, Not):
            return ()
        body = admissible.body
        # Strip one layer of existentials to expose the witness variables.
        witness_variables = []
        while isinstance(body, Exists):
            witness_variables.append(body.variable)
            body = body.body
        if not witness_variables:
            return ()
        answer = reducer.answers(body)
        ordered = sorted(
            {v.name for v in free_variables(body)} & {v.name for v in witness_variables}
        )
        if not answer.bindings:
            return ()
        # answer.variables is sorted by name; project onto the witness ones.
        projection = [answer.variables.index(name) for name in ordered]
        witnesses = []
        for binding in answer.bindings[:limit]:
            witnesses.append(tuple(binding[i] for i in projection))
        return tuple(witnesses)
