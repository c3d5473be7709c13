"""The ``prove`` oracle of Section 5.1.

:class:`FirstOrderProver` packages the grounding + CNF + DPLL pipeline behind
the interface ``demo`` expects from the paper's ``prove(f, Σ)``:

* it decides ``Σ ⊨_FOPCE f`` for closed first-order formulas *f*,
* it *enumerates* the parameter tuples p̄ with ``Σ ⊨_FOPCE f|p̄`` for open
  formulas, in a deterministic order, one tuple per request — the behaviour
  the paper specifies for successive calls to ``prove``,
* it is sound and complete relative to the finite active universe fixed at
  construction time (see DESIGN.md for the exactness discussion).

The prover is decoupled from the database's form exactly as the paper
stresses: Σ may be an open theory with disjunctions and existentials, a
definite Datalog program, or a mix; the prover only sees FOPCE sentences.
"""

from dataclasses import dataclass
from itertools import product

from repro.exceptions import NotFirstOrderError
from repro.logic.classify import is_first_order
from repro.logic.signature import signature_of
from repro.logic.substitution import Substitution
from repro.logic.syntax import Not, free_variables
from repro.prover.cnf import AtomTable, cnf_clauses
from repro.prover.dpll import DPLLSolver
from repro.prover.grounding import ground_sentence, ground_theory
from repro.semantics.config import DEFAULT_CONFIG


@dataclass
class ProverStatistics:
    """Counters describing the work a prover instance has performed."""

    entailment_checks: int = 0
    satisfiability_checks: int = 0
    answer_tuples_tested: int = 0


class FirstOrderProver:
    """A sound and complete FOPCE prover over a fixed active universe."""

    def __init__(self, theory, universe, config=DEFAULT_CONFIG):
        self.theory = tuple(theory)
        for sentence in self.theory:
            if not is_first_order(sentence):
                raise NotFirstOrderError(
                    f"databases are sets of FOPCE sentences; {sentence} mentions K"
                )
        self.universe = tuple(universe)
        self.config = config
        self.statistics = ProverStatistics()
        self._table = AtomTable()
        grounded = ground_theory(self.theory, self.universe)
        self._theory_clauses, self._table = cnf_clauses(grounded, self._table)
        self._entailment_cache = {}
        self._satisfiable_cache = None

    # -- construction helpers -------------------------------------------
    @classmethod
    def for_theory(cls, theory, queries=(), config=DEFAULT_CONFIG, extra_parameters=None):
        """Build a prover whose universe covers *theory*, *queries* and the
        configured number of fresh witnesses."""
        theory = tuple(theory)
        signature = signature_of(theory, queries)
        extra = config.extra_parameters if extra_parameters is None else extra_parameters
        universe = signature.universe(extra_parameters=extra)
        return cls(theory, universe, config=config)

    # -- entailment and satisfiability -----------------------------------
    def is_satisfiable(self):
        """Return True when Σ has a model (over the active universe)."""
        if self._satisfiable_cache is None:
            self.statistics.satisfiability_checks += 1
            solver = DPLLSolver(self._theory_clauses)
            self._satisfiable_cache = solver.is_satisfiable()
        return self._satisfiable_cache

    def entails(self, sentence):
        """Decide ``Σ ⊨_FOPCE sentence`` for a closed first-order formula."""
        if free_variables(sentence):
            raise ValueError(
                "entails() expects a sentence; use enumerate_answers() for open formulas"
            )
        cached = self._entailment_cache.get(sentence)
        if cached is not None:
            return cached
        self.statistics.entailment_checks += 1
        negated = ground_sentence(Not(sentence), self.universe)
        goal_clauses, _ = cnf_clauses([negated], self._table)
        solver = DPLLSolver(self._theory_clauses + goal_clauses)
        result = not solver.is_satisfiable()
        self._entailment_cache[sentence] = result
        return result

    def consistent_with(self, sentence):
        """Return True when ``Σ + sentence`` is satisfiable (Definition 3.1's
        notion of constraint satisfaction for first-order constraints)."""
        self.statistics.satisfiability_checks += 1
        grounded = ground_sentence(sentence, self.universe)
        extra_clauses, _ = cnf_clauses([grounded], self._table)
        solver = DPLLSolver(self._theory_clauses + extra_clauses)
        return solver.is_satisfiable()

    # -- answer enumeration ----------------------------------------------
    def holds_instance(self, formula, binding):
        """Decide ``Σ ⊨_FOPCE formula|binding`` where *binding* maps the
        formula's free variables to parameters."""
        instantiated = Substitution(binding).apply(formula)
        return self.entails(instantiated)

    def enumerate_answers(self, formula, variables=None):
        """Yield the substitutions θ (over the formula's free variables) with
        ``Σ ⊨_FOPCE formula·θ``.

        Tuples are produced in a fixed lexicographic order over the active
        universe, matching the paper's requirement that successive calls to
        ``prove`` iterate through an enumeration of the answers.  For a
        sentence the generator yields a single empty substitution exactly
        when the sentence is entailed.
        """
        if variables is None:
            variables = sorted(free_variables(formula), key=lambda v: v.name)
        else:
            variables = list(variables)
        if not variables:
            if self.entails(formula):
                yield Substitution.empty()
            return
        tested = 0
        for values in product(self.universe, repeat=len(variables)):
            tested += 1
            if tested > self.config.max_prove_tuples:
                raise RuntimeError(
                    f"prove enumerated more than {self.config.max_prove_tuples} candidate tuples; "
                    "narrow the query or raise max_prove_tuples"
                )
            self.statistics.answer_tuples_tested += 1
            binding = dict(zip(variables, values))
            if self.holds_instance(formula, binding):
                yield Substitution(binding)

    def all_answers(self, formula):
        """Return every answer substitution as a list (forcing the
        enumeration)."""
        return list(self.enumerate_answers(formula))

    # -- introspection ----------------------------------------------------
    def clause_count(self):
        """Number of CNF clauses the grounded theory compiled to."""
        return len(self._theory_clauses)

    def atom_count(self):
        """Number of distinct ground atoms (SAT variables excluding
        auxiliaries are not distinguished here)."""
        return len(self._table)

    def __repr__(self):
        return (
            f"FirstOrderProver(sentences={len(self.theory)}, "
            f"universe={len(self.universe)}, clauses={self.clause_count()})"
        )
