"""Grounding FOPCE sentences over the active universe.

A FOPCE sentence is turned into a quantifier-free ground formula by replacing
``forall``/``exists`` with finite conjunctions/disjunctions over the active
parameter universe and by evaluating equality atoms between parameters
(unique names: ``p = p`` is true, ``p1 = p2`` is false for distinct
parameters).  The output mentions only ground non-equality atoms, ``Top`` and
``Bottom`` — exactly the propositional skeleton the SAT layer works on.
"""

from repro.exceptions import NotFirstOrderError
from repro.logic.builders import balanced
from repro.logic.classify import is_first_order
from repro.logic.syntax import (
    And,
    Atom,
    Bottom,
    Equals,
    Exists,
    Forall,
    Iff,
    Implies,
    Know,
    Not,
    Or,
    Top,
)
from repro.logic.transform import instantiate, simplify


def ground_sentence(sentence, universe):
    """Ground a single FOPCE sentence over *universe*.

    Raises :class:`NotFirstOrderError` when the sentence mentions ``K``; the
    epistemic layer must strip modalities (via the reduction of
    :mod:`repro.semantics.reduction`) before calling the prover.
    """
    if not is_first_order(sentence):
        raise NotFirstOrderError(f"the prover only accepts FOPCE sentences, got {sentence}")
    return simplify(_ground(sentence, tuple(universe)))


def ground_theory(theory, universe):
    """Ground every sentence of *theory*, dropping trivially true results."""
    grounded = []
    for sentence in theory:
        result = ground_sentence(sentence, universe)
        if isinstance(result, Top):
            continue
        grounded.append(result)
    return grounded


def _ground(formula, universe):
    if isinstance(formula, Atom):
        return formula
    if isinstance(formula, Equals):
        # Unique names: equality between parameters is decided syntactically.
        return Top() if formula.left == formula.right else Bottom()
    if isinstance(formula, (Top, Bottom)):
        return formula
    if isinstance(formula, Not):
        return Not(_ground(formula.body, universe))
    if isinstance(formula, Know):
        raise NotFirstOrderError("cannot ground a modal formula")
    if isinstance(formula, (And, Or, Implies, Iff)):
        return type(formula)(_ground(formula.left, universe), _ground(formula.right, universe))
    if isinstance(formula, (Forall, Exists)):
        # Joined pairwise: a universe of n parameters nests ⌈log2 n⌉ deep,
        # so later recursive passes (simplify, CNF, equality) stay shallow.
        connective = And if isinstance(formula, Forall) else Or
        return balanced(
            connective,
            (_ground(instantiate(formula.body, formula.variable, p), universe) for p in universe),
        )
    raise TypeError(f"unknown formula node {formula!r}")
