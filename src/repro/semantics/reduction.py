"""Reduction of KFOPCE entailment to first-order theorem proving.

Levesque proved (and the paper recalls in Section 5.1) that every KFOPCE
query can be evaluated soundly and completely using only first-order theorem
proving.  The reduction implemented here exploits two facts about the
``⊨`` relation of Definition 2.1:

* the truth value of ``K ψ`` in ``(W, ℳ(Σ))`` does not depend on W — for a
  sentence ψ it is true exactly when ``Σ ⊨ ψ``;
* once every ``K`` subformula of a sentence has been replaced by its truth
  value, what remains is a first-order sentence, and ``Σ ⊨ φ`` for
  first-order φ is exactly ``Σ ⊨_FOPCE φ``.

So one recursive pass replaces every ``K`` subformula, innermost first, by
``Top``/``Bottom`` according to a prover call, and hands the first-order
remainder to the prover.  Only a quantifier that binds a variable inside a
``K`` has to be expanded over the active universe: its instances are built
one at a time, each instance's ``K`` is resolved as soon as it is closed,
``∃`` stops at the first instance that reduces to ``Top`` and ``∀`` at the
first that reduces to ``Bottom``, and the remaining instances are joined
into a balanced tree.  Every other quantifier stays quantified; the prover
grounds it over the same universe and caches its verdict under the small
closed formula.  This is the scalable strategy used by
:class:`repro.db.EpistemicDatabase`; the model-enumeration oracle of
:mod:`repro.semantics.entailment` checks it on small instances in the test
suite.
"""

from itertools import product

from repro.logic.builders import balanced
from repro.logic.substitution import Substitution
from repro.logic.syntax import (
    QUANTIFIERS,
    And,
    Atom,
    Bottom,
    Equals,
    Exists,
    Iff,
    Implies,
    Know,
    Not,
    Or,
    Top,
    free_variables,
)
from repro.logic.terms import Parameter
from repro.logic.transform import instantiate, simplify
from repro.prover.prove import FirstOrderProver
from repro.semantics.answers import Answer, AnswerStatus
from repro.semantics.config import DEFAULT_CONFIG


class EpistemicReducer:
    """Evaluates KFOPCE sentences against a FOPCE database via the prover."""

    def __init__(self, theory, universe=None, config=DEFAULT_CONFIG, prover=None, queries=()):
        self.config = config
        if prover is not None:
            self.prover = prover
            self.universe = tuple(prover.universe)
        else:
            if universe is None:
                self.prover = FirstOrderProver.for_theory(theory, queries=queries, config=config)
                self.universe = tuple(self.prover.universe)
            else:
                self.universe = tuple(universe)
                self.prover = FirstOrderProver(theory, self.universe, config=config)
        self.theory = tuple(self.prover.theory)
        self.parameters = frozenset(self.universe)

    # -- entailment -------------------------------------------------------
    def entails(self, sentence):
        """Decide ``Σ ⊨ sentence`` for an arbitrary KFOPCE sentence."""
        return self._decide(self._reduce(_closed(sentence)))

    def _decide(self, reduced):
        if isinstance(reduced, Top):
            return True
        if isinstance(reduced, Bottom):
            return False
        return self.prover.entails(reduced)

    def _reduce(self, formula):
        """Return a simplified first-order formula that agrees with
        *formula* in every world of ℳ(Σ): each ``K`` subformula replaced by
        its truth value."""
        if isinstance(formula, (Atom, Top, Bottom)):
            return formula
        if isinstance(formula, Equals):
            # Unique names decide equality between parameters.
            if isinstance(formula.left, Parameter) and isinstance(formula.right, Parameter):
                return Top() if formula.left == formula.right else Bottom()
            return formula
        if isinstance(formula, Know):
            return self._know(self._reduce(formula.body))
        if isinstance(formula, Not):
            return simplify(Not(self._reduce(formula.body)))
        if isinstance(formula, QUANTIFIERS):
            if formula.variable in _know_scoped(formula.body):
                return self._expand(formula)
            return simplify(type(formula)(formula.variable, self._reduce(formula.body)))
        if isinstance(formula, (And, Or, Implies, Iff)):
            left = self._reduce(formula.left)
            # The left operand alone may decide the connective.
            if isinstance(formula, And) and isinstance(left, Bottom):
                return left
            if isinstance(formula, Or) and isinstance(left, Top):
                return left
            if isinstance(formula, Implies) and isinstance(left, Bottom):
                return Top()
            return simplify(type(formula)(left, self._reduce(formula.right)))
        raise TypeError(f"unknown formula node {formula!r}")

    def _know(self, body):
        """The truth value of ``K body`` for a reduced, closed *body*."""
        if isinstance(body, Top):
            return body
        if isinstance(body, Bottom):
            # K(false) holds only for an unsatisfiable database.
            return Bottom() if self.prover.is_satisfiable() else Top()
        return Top() if self.prover.entails(body) else Bottom()

    def _expand(self, quantifier):
        """Expand a quantifier that binds into a ``K`` one instance at a
        time, stopping at the first instance that decides it."""
        exists = isinstance(quantifier, Exists)
        decisive, neutral = (Top, Bottom) if exists else (Bottom, Top)
        parts = []
        for parameter in self.universe:
            part = self._reduce(instantiate(quantifier.body, quantifier.variable, parameter))
            if isinstance(part, decisive):
                return part
            if not isinstance(part, neutral):
                parts.append(part)
        return balanced(Or if exists else And, parts)

    # -- query answering --------------------------------------------------
    def ask(self, sentence):
        """Return yes / no / unknown for a KFOPCE sentence."""
        reduced = self._reduce(_closed(sentence))
        if self._decide(reduced):
            return Answer(AnswerStatus.YES)
        if self._decide(simplify(Not(reduced))):
            return Answer(AnswerStatus.NO)
        return Answer(AnswerStatus.UNKNOWN)

    def answers(self, query):
        """Return the definite answers to an open KFOPCE query
        (Definition 2.1)."""
        free = sorted(free_variables(query), key=lambda v: v.name)
        if not free:
            return self.ask(query)
        bindings = []
        for values in product(self.universe, repeat=len(free)):
            instance = Substitution(dict(zip(free, values))).apply(query)
            if self._decide(self._reduce(instance)):
                bindings.append(values)
        status = AnswerStatus.YES if bindings else AnswerStatus.UNKNOWN
        return Answer(status, tuple(bindings), tuple(v.name for v in free))


def _closed(sentence):
    if free_variables(sentence):
        raise ValueError("entails() expects a sentence; use answers() for open queries")
    return sentence


def _know_scoped(formula):
    """The variables free in *formula* that occur free inside one of its
    ``K`` subformulas (a quantifier over one of them binds into a ``K``)."""
    if isinstance(formula, (Atom, Equals, Top, Bottom)):
        return set()
    if isinstance(formula, Know):
        return free_variables(formula.body)
    if isinstance(formula, Not):
        return _know_scoped(formula.body)
    if isinstance(formula, QUANTIFIERS):
        return _know_scoped(formula.body) - {formula.variable}
    return _know_scoped(formula.left) | _know_scoped(formula.right)

