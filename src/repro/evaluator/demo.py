"""The ``demo`` meta-interpreter of Section 5.1.

The paper defines ``demo`` by five Prolog clauses::

    demo(f, Σ)        ← first-order(f), prove(f, Σ).
    demo(~w, Σ)       ← modal(w), not demo(w, Σ).
    demo(K w, Σ)      ← demo(w, Σ).
    demo((∃x) w, Σ)   ← modal(w), demo(w, Σ).
    demo(w1 ∧ w2, Σ)  ← modal(w1 ∧ w2), demo(w1, Σ), demo(w2, Σ).

with left-to-right execution, finite negation-as-failure and a first-order
prover ``prove`` that enumerates answer tuples.  This module implements the
same operational semantics as a recursive generator: each solution is a
substitution binding the query's free variables to parameters (Lemma 5.4
guarantees success always binds every free variable), and Prolog backtracking
is simply asking the generator for more solutions.

Soundness (Theorem 5.1) holds for *admissible* queries; by default the
evaluator refuses non-admissible input (pass ``validate=False`` to reproduce
the paper's "garbage in, garbage out" behaviour, e.g. the non-terminating
Section 5.3 example).
"""

from dataclasses import dataclass

from repro.exceptions import (
    EvaluationDepthError,
    NotAdmissibleError,
    UnsatisfiableTheoryError,
)
from repro.logic.classify import (
    explain_not_admissible,
    is_admissible,
    is_first_order,
)
from repro.logic.substitution import Substitution
from repro.logic.syntax import (
    And,
    Exists,
    Know,
    Not,
    free_variables,
)
from repro.logic.transform import rename_apart, right_associate
from repro.prover.prove import FirstOrderProver
from repro.semantics.config import DEFAULT_CONFIG


@dataclass
class DemoStatistics:
    """Counters describing one evaluator instance's work."""

    demo_calls: int = 0
    prove_calls: int = 0
    negation_as_failure_calls: int = 0


class DemoEvaluator:
    """Evaluates admissible KFOPCE queries against a first-order database.

    Parameters:
        theory: the FOPCE database Σ (any mix of facts, disjunctions,
            existential sentences and rules — the evaluator is decoupled from
            its form, as the paper stresses).
        universe: optional explicit active universe; when omitted it is
            computed from the theory, the *queries* hint and the configured
            fresh witnesses.
        prover: optional pre-built :class:`FirstOrderProver` to share across
            evaluators (e.g. the database facade reuses one for queries and
            constraint checks).
        max_steps: a budget on ``demo`` calls; exceeding it raises
            :class:`EvaluationDepthError`, which is how non-termination
            outside the Section 6 fragment surfaces in practice.
    """

    def __init__(
        self,
        theory,
        universe=None,
        config=DEFAULT_CONFIG,
        prover=None,
        queries=(),
        max_steps=200_000,
    ):
        if prover is not None:
            self.prover = prover
        elif universe is not None:
            self.prover = FirstOrderProver(theory, universe, config=config)
        else:
            self.prover = FirstOrderProver.for_theory(theory, queries=queries, config=config)
        self.theory = tuple(self.prover.theory)
        self.universe = tuple(self.prover.universe)
        self.config = config
        self.max_steps = max_steps
        self.statistics = DemoStatistics()

    # -- the meta-interpreter ---------------------------------------------
    def demo(self, query, validate=True, require_satisfiable=False):
        """Yield one substitution per solution of ``demo(query, Σ)``.

        With *validate* (the default) the query must be admissible
        (Definition 5.3); it is first re-associated to the right (Lemma 5.1)
        and its quantified variables are renamed apart, neither of which
        changes its meaning.  *require_satisfiable* additionally enforces the
        satisfiability premise of Theorem 5.1 up front.
        """
        prepared = right_associate(rename_apart(query))
        if validate and not is_admissible(prepared):
            raise NotAdmissibleError(
                f"query is not admissible: {explain_not_admissible(prepared)}"
            )
        if require_satisfiable and not self.prover.is_satisfiable():
            raise UnsatisfiableTheoryError(
                "Theorem 5.1 requires a satisfiable database; Σ has no model"
            )
        target_variables = free_variables(prepared)
        for substitution in self._demo(prepared):
            yield substitution.restrict(target_variables)

    def succeeds(self, query, validate=True):
        """Return True when ``demo(query, Σ)`` succeeds at least once."""
        for _ in self.demo(query, validate=validate):
            return True
        return False

    def first_solution(self, query, validate=True):
        """Return the first solution substitution, or ``None`` on finite
        failure."""
        for substitution in self.demo(query, validate=validate):
            return substitution
        return None

    def solutions(self, query, validate=True, limit=None):
        """Return a list of solution substitutions (all of them, or at most
        *limit*)."""
        found = []
        for substitution in self.demo(query, validate=validate):
            found.append(substitution)
            if limit is not None and len(found) >= limit:
                break
        return found

    # -- recursive clauses --------------------------------------------------
    def _bump(self):
        self.statistics.demo_calls += 1
        if self.statistics.demo_calls > self.max_steps:
            raise EvaluationDepthError(
                f"demo exceeded its budget of {self.max_steps} calls; the query is "
                "probably outside the completeness fragment of Section 6"
            )

    def _demo(self, formula):
        """The five clauses of the meta-interpreter, in the paper's order."""
        self._bump()
        # demo(f, Σ) ← first-order(f), prove(f, Σ).
        if is_first_order(formula):
            self.statistics.prove_calls += 1
            yield from self.prover.enumerate_answers(formula)
            return
        # demo(~w, Σ) ← modal(w), not demo(w, Σ).
        if isinstance(formula, Not):
            self.statistics.negation_as_failure_calls += 1
            for _ in self._demo(formula.body):
                return  # the inner call succeeded: negation-as-failure fails
            yield Substitution.empty()
            return
        # demo(K w, Σ) ← demo(w, Σ).
        if isinstance(formula, Know):
            yield from self._demo(formula.body)
            return
        # demo((∃x) w, Σ) ← modal(w), demo(w, Σ).
        if isinstance(formula, Exists):
            for substitution in self._demo(formula.body):
                yield substitution.without([formula.variable])
            return
        # demo(w1 ∧ w2, Σ) ← modal(w1 ∧ w2), demo(w1, Σ), demo(w2, Σ).
        if isinstance(formula, And):
            for left_solution in self._demo(formula.left):
                instantiated_right = left_solution.apply(formula.right)
                for right_solution in self._demo(instantiated_right):
                    yield left_solution.compose(right_solution)
            return
        raise NotAdmissibleError(
            f"demo has no clause for {type(formula).__name__} outside first-order "
            f"subformulas: {formula}"
        )
