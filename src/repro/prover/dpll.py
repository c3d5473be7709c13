"""A small DPLL propositional satisfiability solver.

The solver works on clauses of integer literals (positive for the atom,
negative for its negation), with variables numbered from 1.  It implements
the classic Davis–Putnam–Logemann–Loveland procedure with:

* unit propagation (each round re-simplifies every clause under the
  current assignment; there are no watched literals),
* a most-occurrences branching heuristic,
* optional model extraction and model enumeration (used by the prover's
  consistency checks and by the Datalog completion tests).

It is deliberately simple — the workloads in this reproduction are a few
thousand clauses at most — but it is a complete solver: ``solve`` returns a
model exactly when one exists.
"""

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple


@dataclass(frozen=True)
class Clause:
    """A disjunction of integer literals."""

    literals: FrozenSet[int]

    def __init__(self, literals):
        object.__setattr__(self, "literals", frozenset(int(l) for l in literals))
        if 0 in self.literals:
            raise ValueError("0 is not a valid literal")

    def __iter__(self):
        return iter(self.literals)

    def __len__(self):
        return len(self.literals)

    def is_tautology(self):
        """Return True when the clause contains a literal and its negation."""
        return any(-l in self.literals for l in self.literals)


@dataclass
class SolverStatistics:
    """Counters describing one run of the solver."""

    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0


class DPLLSolver:
    """A DPLL solver over a fixed clause set."""

    def __init__(self, clauses):
        self.clauses: List[FrozenSet[int]] = []
        self.variables = set()
        for clause in clauses:
            literals = frozenset(clause.literals if isinstance(clause, Clause) else clause)
            if any(-l in literals for l in literals):
                continue  # tautologies never constrain anything
            self.clauses.append(literals)
            self.variables.update(abs(l) for l in literals)
        self.statistics = SolverStatistics()

    # -- public API ------------------------------------------------------
    def solve(self, assumptions=()):
        """Return a satisfying assignment (dict variable → bool) or ``None``.

        *assumptions* is an iterable of literals that must hold; it is how
        the prover asks "is Σ ∧ ¬goal satisfiable?" without rebuilding the
        clause set.
        """
        assignment: Dict[int, bool] = {}
        for literal in assumptions:
            variable, value = abs(literal), literal > 0
            if assignment.get(variable, value) != value:
                return None
            assignment[variable] = value
        result = self._search(dict(assignment))
        if result is None:
            return None
        # Fill unconstrained variables with False for a total assignment.
        for variable in self.variables:
            result.setdefault(variable, False)
        return result

    def is_satisfiable(self, assumptions=()):
        """Return True when the clause set (plus assumptions) has a model."""
        return self.solve(assumptions) is not None

    def enumerate_models(self, limit=None, variables=None):
        """Yield satisfying assignments, optionally projected onto
        *variables* (distinct projections only).  Stops after *limit* models
        when a limit is given."""
        projection = sorted(variables) if variables is not None else sorted(self.variables)
        seen = set()
        produced = 0
        blocking: List[FrozenSet[int]] = []
        while True:
            solver = DPLLSolver([Clause(c) for c in self.clauses] + [Clause(b) for b in blocking])
            model = solver.solve()
            if model is None:
                return
            key = tuple(model.get(v, False) for v in projection)
            if key not in seen:
                seen.add(key)
                yield {v: model.get(v, False) for v in projection}
                produced += 1
                if limit is not None and produced >= limit:
                    return
            # Block this projection and continue.
            blocking.append(
                frozenset(-v if model.get(v, False) else v for v in projection)
            )
            if not projection:
                return

    # -- search ----------------------------------------------------------
    def _search(self, assignment):
        # Unit propagation runs as a loop so that long implication chains do
        # not translate into deep Python recursion.
        while True:
            clauses = self._simplify(assignment)
            if clauses is None:
                self.statistics.conflicts += 1
                return None
            if not clauses:
                return assignment
            units = [next(iter(c)) for c in clauses if len(c) == 1]
            if not units:
                break
            for literal in units:
                variable, value = abs(literal), literal > 0
                if assignment.get(variable, value) != value:
                    self.statistics.conflicts += 1
                    return None
                assignment[variable] = value
                self.statistics.propagations += 1
        # Branch on the most frequent variable among the unresolved clauses.
        counts = Counter(abs(l) for clause in clauses for l in clause)
        variable = counts.most_common(1)[0][0]
        self.statistics.decisions += 1
        for value in (True, False):
            trial = dict(assignment)
            trial[variable] = value
            result = self._search(trial)
            if result is not None:
                return result
        self.statistics.conflicts += 1
        return None

    def _simplify(self, assignment):
        """Return the clause set simplified under *assignment*, ``None`` on
        conflict, and the empty list when every clause is satisfied."""
        simplified = []
        for clause in self.clauses:
            satisfied = False
            remaining = []
            for literal in clause:
                variable, positive = abs(literal), literal > 0
                if variable in assignment:
                    if assignment[variable] == positive:
                        satisfied = True
                        break
                else:
                    remaining.append(literal)
            if satisfied:
                continue
            if not remaining:
                return None
            simplified.append(frozenset(remaining))
        return simplified
