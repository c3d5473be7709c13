"""Datalog programs: facts, rules, literals.

A :class:`DatalogProgram` is a set of ground facts plus rules
``head :- body`` where the head is an atom and the body a sequence of
literals (atoms or negated atoms; negation must be stratified for the engine
to accept the program).  Rules must be *safe*: every variable of the head and
of every negative literal must occur in some positive body literal — the
classical range-restriction that also underlies the paper's notion of a rule
(Definition 6.3).

Programs convert to and from FOPCE sentences so that the same database can be
fed to the Datalog engine, to the first-order prover and to the ``demo``
evaluator; this is the "Σ could be a Datalog program" decoupling of
Section 5.1.
"""

from dataclasses import dataclass
from itertools import count
from typing import Tuple

from repro.datalog.interner import constant_kind
from repro.exceptions import ReproError, UnsafeRuleError
from repro.logic.builders import conj, forall
from repro.logic.syntax import And, Atom, Forall, Implies, Not, free_variables
from repro.logic.terms import Parameter, Term, Variable


@dataclass(frozen=True)
class DatalogLiteral:
    """A body literal: an atom with a sign."""

    atom: Atom
    positive: bool = True

    def __str__(self):
        rendered = f"{self.atom.predicate}({', '.join(str(a) for a in self.atom.args)})"
        return rendered if self.positive else f"not {rendered}"

    def variables(self):
        """The set of :class:`~repro.logic.terms.Variable` arguments of the
        literal's atom."""
        return {a for a in self.atom.args if isinstance(a, Variable)}


@dataclass(frozen=True)
class DatalogFact:
    """A ground fact."""

    atom: Atom

    def __post_init__(self):
        if any(not isinstance(a, Parameter) for a in self.atom.args):
            raise ReproError(f"facts must be ground: {self.atom}")

    def __str__(self):
        return f"{self.atom.predicate}({', '.join(str(a) for a in self.atom.args)})."


@dataclass(frozen=True)
class DatalogRule:
    """A rule ``head :- body``.

    The body may be empty, in which case the head must be ground and the rule
    behaves as a fact.
    """

    head: Atom
    body: Tuple[DatalogLiteral, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "body", tuple(self.body))
        self._check_safety()

    def _check_safety(self):
        # Delegated to the static analyzer so that construction-time
        # rejection and `analyze_program` linting share one per-variable
        # message format (rule text + offending variable).  Imported lazily:
        # analyze imports this module at load time, not the reverse.
        from repro.datalog.analyze import rule_safety

        diagnostics = rule_safety(self)
        if diagnostics:
            raise UnsafeRuleError(
                "; ".join(d.message for d in diagnostics), diagnostics=diagnostics
            )

    def is_fact(self):
        """True when the rule has an empty body (a ground head stored in
        rule form)."""
        return not self.body

    def variables(self):
        """Every variable mentioned by the rule, head and body combined."""
        found = {a for a in self.head.args if isinstance(a, Variable)}
        for literal in self.body:
            found |= literal.variables()
        return found

    def __str__(self):
        head = f"{self.head.predicate}({', '.join(str(a) for a in self.head.args)})"
        if not self.body:
            return f"{head}."
        return f"{head} :- {', '.join(str(l) for l in self.body)}."


_VERSIONS = count()


class FactList:
    """The facts of a :class:`DatalogProgram`: an insertion-ordered
    sequence of :class:`DatalogFact` occurrences, keyed by atom.

    It answers what the rest of the library asks of a fact list —
    iteration in insertion order, ``len``, ``in`` and ``append`` — and
    adds O(1) membership by atom, :meth:`discard` of every occurrence of
    an atom and the per-predicate :meth:`signature` the static analyzer
    reads.  Duplicates are kept, as in a list: appending a fact twice
    stores two occurrences, both counted by ``len`` and both yielded, in
    place, by iteration.  (The other fact list a program can hold is the
    interned :class:`~repro.datalog.columnar.EdbStore`, which maintained
    models evaluate over.)

    :attr:`version` changes with every mutation and is never shared
    between two lists, so a reader that remembers it can tell whether the
    facts changed (or were replaced) since, without comparing contents.
    """

    __slots__ = ("_entries", "_repeats", "version")

    def __init__(self, facts=()):
        # The first occurrence of each atom is keyed by the atom itself,
        # every later one by a token of its own; values are the facts.
        self._entries = {}
        # atom -> the tokens of its later occurrences (duplicates only).
        self._repeats = {}
        self.version = next(_VERSIONS)
        for fact in facts:
            self.append(fact)

    def append(self, fact):
        """Add one occurrence of *fact* (a :class:`DatalogFact`) at the
        end."""
        if not isinstance(fact, DatalogFact):
            raise TypeError(f"expected a DatalogFact, got {fact!r}")
        atom = fact.atom
        if atom in self._entries:
            token = object()
            self._repeats.setdefault(atom, []).append(token)
            self._entries[token] = fact
        else:
            self._entries[atom] = fact
        self.version = next(_VERSIONS)

    def discard(self, atom):
        """Remove every occurrence of the fact of *atom*; return True when
        there was one."""
        if self._entries.pop(atom, None) is None:
            return False
        for token in self._repeats.pop(atom, ()):
            del self._entries[token]
        self.version = next(_VERSIONS)
        return True

    def atoms(self):
        """The distinct atoms, in order of first occurrence."""
        return (
            fact.atom for key, fact in self._entries.items() if key is fact.atom
        )

    def signature(self):
        """Per ``(name, arity)`` relation: ``(facts, the first fact,
        columns)``, one ``{kind: first fact with that kind}`` map per
        argument position (kinds from
        :func:`~repro.datalog.interner.constant_kind`) — what the static
        analyzer checks rules against."""
        found = {}
        for fact in self:
            args = fact.atom.args
            key = (fact.atom.predicate, len(args))
            entry = found.get(key)
            if entry is None:
                entry = found[key] = [0, fact, tuple({} for _ in args)]
            entry[0] += 1
            for kinds, argument in zip(entry[2], args):
                kinds.setdefault(constant_kind(argument), fact)
        return {key: tuple(entry) for key, entry in found.items()}

    def __contains__(self, item):
        """True for a held :class:`DatalogFact` or the atom of one."""
        if isinstance(item, DatalogFact):
            item = item.atom
        return isinstance(item, Atom) and item in self._entries

    def __iter__(self):
        return iter(self._entries.values())

    def __len__(self):
        return len(self._entries)

    def __repr__(self):
        return f"FactList({list(self)!r})"


class DatalogProgram:
    """A collection of facts and rules over an implicit schema.

    :attr:`facts` is a :class:`FactList` or an interned
    :class:`~repro.datalog.columnar.EdbStore`; assigning any other
    iterable of facts wraps it in a :class:`FactList`.
    """

    def __init__(self, facts=(), rules=()):
        self.facts = FactList()
        self.rules = []
        # Declared output predicates (``(name, arity)`` pairs): the static
        # analyzer's reachability checks treat everything that cannot feed
        # an output as dead code.  Empty means "infer the outputs" — every
        # consumerless predicate counts, so nothing is ever flagged.
        self.outputs = set()
        for fact in facts:
            self.add_fact(fact)
        for rule in rules:
            self.add_rule(rule)

    @property
    def facts(self):
        """The program's facts (a :class:`FactList`)."""
        return self._facts

    @facts.setter
    def facts(self, facts):
        from repro.datalog.columnar import EdbStore

        self._facts = facts if isinstance(facts, (FactList, EdbStore)) else FactList(facts)

    # -- construction ------------------------------------------------------
    def add_fact(self, fact):
        """Add a ground fact (a :class:`DatalogFact` or a ground atom)."""
        if isinstance(fact, Atom):
            fact = DatalogFact(fact)
        if not isinstance(fact, DatalogFact):
            raise TypeError(f"expected a fact, got {fact!r}")
        self.facts.append(fact)
        return fact

    def add_rule(self, rule):
        """Add a rule; ground bodiless rules are stored as facts.

        Range restriction is re-validated here (raising
        :class:`~repro.exceptions.UnsafeRuleError`) so that an unsafe rule
        can never reach the engine, even if the rule object was tampered
        with after construction.
        """
        if not isinstance(rule, DatalogRule):
            raise TypeError(f"expected a DatalogRule, got {rule!r}")
        rule._check_safety()
        if rule.is_fact():
            return self.add_fact(DatalogFact(rule.head))
        self.rules.append(rule)
        return rule

    def rule(self, head, *body):
        """Convenience: ``program.rule(head_atom, atom1, Not-style pairs...)``.

        Body items may be atoms (positive literals), ``(atom, False)`` pairs
        or :class:`DatalogLiteral` instances.
        """
        literals = []
        for item in body:
            if isinstance(item, DatalogLiteral):
                literals.append(item)
            elif isinstance(item, Atom):
                literals.append(DatalogLiteral(item, True))
            elif isinstance(item, tuple) and len(item) == 2 and isinstance(item[0], Atom):
                literals.append(DatalogLiteral(item[0], bool(item[1])))
            else:
                raise TypeError(f"cannot interpret body item {item!r}")
        return self.add_rule(DatalogRule(head, tuple(literals)))

    def declare_output(self, predicate, arity):
        """Declare ``predicate/arity`` an *output* of the program.

        Outputs drive the static analyzer's dead-code reachability checks
        (:mod:`repro.datalog.analyze`): with at least one declaration,
        rules and predicates that cannot contribute to any output are
        reported as dead (``DL008``/``DL009``).  Declarations never change
        evaluation — the engine's dead-rule pruning stays restricted to
        rules that provably cannot fire.
        """
        self.outputs.add((predicate, int(arity)))
        return self

    # -- inspection ---------------------------------------------------------
    def predicates(self):
        """Return every ``(name, arity)`` pair mentioned by the program."""
        found = set()
        for fact in self.facts:
            found.add((fact.atom.predicate, fact.atom.arity))
        for rule in self.rules:
            found.add((rule.head.predicate, rule.head.arity))
            for literal in rule.body:
                found.add((literal.atom.predicate, literal.atom.arity))
        return found

    def idb_predicates(self):
        """Predicates defined by at least one rule head (intensional)."""
        return {(r.head.predicate, r.head.arity) for r in self.rules}

    def edb_predicates(self):
        """Predicates that appear only in facts / rule bodies (extensional)."""
        return self.predicates() - self.idb_predicates()

    def parameters(self):
        """Every parameter mentioned by the program."""
        found = set()
        for fact in self.facts:
            found.update(fact.atom.args)
        for rule in self.rules:
            for term in rule.head.args:
                if isinstance(term, Parameter):
                    found.add(term)
            for literal in rule.body:
                for term in literal.atom.args:
                    if isinstance(term, Parameter):
                        found.add(term)
        return found

    def rules_for(self, predicate, arity):
        """Return the rules whose head predicate is ``predicate/arity``."""
        return [
            r
            for r in self.rules
            if r.head.predicate == predicate and r.head.arity == arity
        ]

    def facts_for(self, predicate):
        """Return the fact atoms of the given predicate name."""
        return [f.atom for f in self.facts if f.atom.predicate == predicate]

    def is_definite(self):
        """Return True when no rule body contains a negated literal."""
        return all(l.positive for r in self.rules for l in r.body)

    # -- conversion to first-order sentences ---------------------------------
    def to_sentences(self):
        """Render the program as FOPCE sentences (facts plus universally
        quantified implications).  Negative body literals become negated
        atoms in the antecedent."""
        sentences = [fact.atom for fact in self.facts]
        for rule in self.rules:
            body_parts = [
                literal.atom if literal.positive else Not(literal.atom)
                for literal in rule.body
            ]
            implication = Implies(conj(body_parts), rule.head)
            variables = sorted(rule.variables(), key=lambda v: v.name)
            sentences.append(
                forall([v.name for v in variables], implication) if variables else implication
            )
        return sentences

    def __len__(self):
        return len(self.facts) + len(self.rules)

    def __str__(self):
        lines = [str(f) for f in self.facts] + [str(r) for r in self.rules]
        return "\n".join(lines)
