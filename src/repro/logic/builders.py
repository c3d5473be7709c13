"""Convenience constructors for building formulas close to the paper's
notation.

Example (the Section 1 university database)::

    from repro.logic import pred, param, var, exists, forall, knows

    Teach = pred("Teach", 2)
    john, math, cs = param("John"), param("Math"), param("CS")

    db = [
        Teach(john, math),
        exists("x", Teach("?x", cs)),
    ]
    query = exists("x", knows(Teach(john, "?x")))   # a known course of John's

Strings passed where terms are expected become parameters, or variables when
prefixed with ``?``.  Strings passed to the quantifier builders name the bound
variable directly (no ``?`` needed).
"""

from repro.logic.syntax import (
    And,
    Atom,
    Bottom,
    Equals,
    Exists,
    Forall,
    Formula,
    Iff,
    Implies,
    Know,
    Not,
    Or,
    Top,
)
from repro.logic.terms import Parameter, Variable, term_from


def var(name):
    """Return the variable named *name* (any leading ``?`` is stripped)."""
    if isinstance(name, Variable):
        return name
    if isinstance(name, str):
        return Variable(name[1:] if name.startswith("?") else name)
    raise TypeError(f"cannot interpret {name!r} as a variable")


def variables(*names):
    """Return a tuple of variables, one per name."""
    return tuple(var(name) for name in names)


def param(name):
    """Return the parameter named *name*."""
    if isinstance(name, Parameter):
        return name
    if isinstance(name, str):
        return Parameter(name)
    raise TypeError(f"cannot interpret {name!r} as a parameter")


def params(*names):
    """Return a tuple of parameters, one per name."""
    return tuple(param(name) for name in names)


class PredicateBuilder:
    """A callable that builds atoms of a fixed predicate.

    Created by :func:`pred`.  Calling it with terms (or strings) returns an
    :class:`~repro.logic.syntax.Atom`; the arity is checked when declared.
    """

    __slots__ = ("name", "arity")

    def __init__(self, name, arity=None):
        self.name = name
        self.arity = arity

    def __call__(self, *args):
        if self.arity is not None and len(args) != self.arity:
            from repro.exceptions import ArityMismatchError

            raise ArityMismatchError(
                f"predicate {self.name} expects {self.arity} arguments, got {len(args)}"
            )
        return Atom(self.name, tuple(term_from(a) for a in args))

    def __repr__(self):
        return f"PredicateBuilder({self.name!r}, arity={self.arity})"


def pred(name, arity=None):
    """Return a :class:`PredicateBuilder` for predicate *name*.

    When *arity* is given, calls with a different number of arguments raise
    :class:`~repro.exceptions.ArityMismatchError`.
    """
    return PredicateBuilder(name, arity)


def atom(name, *args):
    """Build a single atom directly: ``atom("Teach", "John", "Math")``."""
    return Atom(name, tuple(term_from(a) for a in args))


def equals(left, right):
    """Build the equality atom ``left = right``."""
    return Equals(term_from(left), term_from(right))


def neg(formula):
    """Return the negation of *formula*."""
    return Not(formula)


def knows(formula):
    """Return ``K formula``."""
    return Know(formula)


def implies(antecedent, consequent):
    """Return ``antecedent -> consequent``."""
    return Implies(antecedent, consequent)


def iff(left, right):
    """Return ``left <-> right``."""
    return Iff(left, right)


def conj(formulas):
    """Return the conjunction of *formulas* (left-associated).

    An empty iterable yields :class:`Top`; a singleton yields its only
    element unchanged.
    """
    items = list(formulas)
    if not items:
        return Top()
    result = items[0]
    for item in items[1:]:
        result = And(result, item)
    return result


def disj(formulas):
    """Return the disjunction of *formulas* (left-associated).

    An empty iterable yields :class:`Bottom`; a singleton yields its only
    element unchanged.
    """
    items = list(formulas)
    if not items:
        return Bottom()
    result = items[0]
    for item in items[1:]:
        result = Or(result, item)
    return result


def balanced(connective, formulas):
    """Join *formulas* with *connective* (``And`` or ``Or``) pairwise into a
    balanced tree, so n items nest ⌈log2 n⌉ levels deep rather than n.

    An empty iterable yields the connective's unit (``Top`` for ``And``,
    ``Bottom`` for ``Or``); a singleton yields its only element unchanged.
    """
    items = list(formulas)
    if not items:
        return Top() if connective is And else Bottom()
    while len(items) > 1:
        paired = [connective(items[i], items[i + 1]) for i in range(0, len(items) - 1, 2)]
        if len(items) % 2:
            paired.append(items[-1])
        items = paired
    return items[0]


def _bind(quantifier, names, body):
    if isinstance(names, (str, Variable)):
        names = [names]
    result = body
    for name in reversed(list(names)):
        result = quantifier(var(name), result)
    return result


def forall(names, body):
    """Universally quantify *body* over one variable name or a sequence of
    names: ``forall(["x", "y"], body)`` builds ``forall x. forall y. body``."""
    return _bind(Forall, names, body)


def exists(names, body):
    """Existentially quantify *body* over one variable name or a sequence of
    names."""
    return _bind(Exists, names, body)


def literal(name, *args, positive=True):
    """Build a first-order literal: an atom or its negation."""
    built = atom(name, *args)
    return built if positive else Not(built)


__all__ = [
    "PredicateBuilder",
    "atom",
    "conj",
    "disj",
    "equals",
    "exists",
    "forall",
    "iff",
    "implies",
    "knows",
    "literal",
    "neg",
    "param",
    "params",
    "pred",
    "var",
    "variables",
]
