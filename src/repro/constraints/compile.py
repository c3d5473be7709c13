"""Compiling epistemic integrity constraints into Datalog violation rules.

The paper makes constraint checking query evaluation (Definition 3.5); this
module makes it *incremental* by compiling each modalized constraint into
stratified Datalog rules that derive ``__violation__<id>(witness...)`` atoms.
The translation works on the constraint's admissible form (Example 5.4),
which is always ``~ exists x̄. body`` — the body *is* the violation query:

* ``K a`` conjuncts become positive body literals (the database knows ``a``
  exactly when the ground atom is present, for a ground-atomic database);
* negated subqueries — ``~ exists y. K a(x, y)``, ``~K (a & b)`` — become
  stratified negation over derived auxiliary subgoals
  (``__viol_aux__<id>_<n>(x) :- a(x, y)`` then ``..., not __viol_aux__...``);
* ``K (t1 = t2)`` conjuncts are eliminated by substitution (parameters are
  pairwise distinct, so a known equality is a syntactic one);
* disjunctions distribute into one rule per branch.

The compiled rules are exact for the Prolog-like reading of the database:
ground atomic sentences only.  :class:`~repro.constraints.views.ViolationView`
enforces that boundary at runtime (constraints whose predicates are touched
by non-atomic sentences are re-checked from scratch).

Constraints outside the fragment raise
:class:`~repro.exceptions.ConstraintCompilationError` with a machine-readable
``code``; :func:`compile_constraints` collects those as
:class:`CompilationFallback` entries so the checker can route them to the
from-scratch demo/reduction path and surface the reason on the report.
The fragment boundary, exercised exhaustively by the test-suite over
:mod:`repro.constraints.library`:

================  =========================================================
code              meaning
================  =========================================================
open-formula      the constraint has free variables (not a sentence)
first-order       no ``K`` operator — the paper's reading would modalize it
not-k1            iterated modalities (``K`` inside ``K``)
not-subjective    an atom outside ``K`` addresses the external world
not-admissible    the admissible rewriting failed Definition 5.3
no-witness        admissible form is not ``~ exists x̄. body`` with at least
                  one witness variable free in the body
negation-in-k     ``K (~w)`` — atomic databases never know negative facts
universal-in-k    ``K (forall x. w)`` — unbounded under the atomic reading
negated-equality  the subquery reduces to a disequality test between bound
                  terms (e.g. ``unique_attribute``), outside Datalog
no-anchor         a rule branch has no positive literal to range-restrict it
unsafe-rule       a witness or negated variable is not bound positively
unsupported       any other formula node the translation does not cover
================  =========================================================
"""

from dataclasses import dataclass
from typing import Tuple

from repro.datalog.program import DatalogLiteral, DatalogRule
from repro.exceptions import ConstraintCompilationError, UnsafeRuleError
from repro.logic.classify import (
    explain_not_admissible,
    explain_not_subjective,
    is_admissible,
    is_first_order,
    is_k1,
    is_subjective,
)
from repro.logic.printer import to_text
from repro.logic.substitution import substitute
from repro.logic.syntax import (
    And,
    Atom,
    Bottom,
    Equals,
    Exists,
    Forall,
    Know,
    Not,
    Or,
    Top,
    free_variables,
    predicates_of,
)
from repro.logic.terms import Variable
from repro.logic.transform import to_admissible_form

#: Prefix of the per-constraint violation head predicates.  The double
#: underscore keeps the family out of any user predicate namespace.
VIOLATION_PREFIX = "__violation__"

#: Prefix of the derived auxiliary subgoal predicates that stratified
#: negation ranges over.
AUX_PREFIX = "__viol_aux__"

# Branch-outcome sentinels used by the rule emitter.
_EMITTED = object()
_DEAD = object()
_TAUTOLOGY = object()
_ALWAYS_TRUE = object()
_ALWAYS_FALSE = object()


@dataclass(frozen=True)
class CompiledConstraint:
    """One constraint compiled to violation rules.

    ``predicate`` is the violation head (``__violation__<constraint_id>``),
    ``witnesses`` the head variables in the order the view reports witness
    tuples — sorted by name, exactly the projection order of
    :meth:`~repro.constraints.checker.IntegrityChecker` witnesses, so the two
    paths produce comparable tuples.  ``edb_predicates`` are the database
    predicates the constraint consults (the runtime atomicity guard keys off
    them).  An empty ``rules`` tuple is legal: the violation query was
    statically unsatisfiable, the constraint can never be violated.
    """

    constraint: object
    constraint_id: str
    predicate: str
    witnesses: Tuple[Variable, ...]
    rules: Tuple[DatalogRule, ...]
    edb_predicates: frozenset

    def __str__(self):
        return f"{self.constraint_id}: {to_text(self.constraint)} [{len(self.rules)} rules]"


@dataclass(frozen=True)
class CompilationFallback:
    """Why one constraint is checked from scratch instead of via the view.

    ``code`` is the machine-readable fragment-boundary reason (see the module
    docstring table); ``message`` the human-readable detail.
    """

    constraint: object
    constraint_id: str
    code: str
    message: str

    def __str__(self):
        return f"{self.constraint_id}: fallback[{self.code}] {to_text(self.constraint)}"


@dataclass(frozen=True)
class CompiledConstraintSet:
    """The outcome of compiling a constraint list: the compiled constraints
    plus the fallbacks, in registration order."""

    compiled: Tuple[CompiledConstraint, ...]
    fallbacks: Tuple[CompilationFallback, ...]

    def rules(self):
        """Every violation/auxiliary rule of every compiled constraint."""
        return [rule for compiled in self.compiled for rule in compiled.rules]

    def by_predicate(self):
        """Map each violation head predicate to its compiled constraint."""
        return {compiled.predicate: compiled for compiled in self.compiled}

    def compiled_for(self, constraint):
        """The :class:`CompiledConstraint` of *constraint* (``None`` when it
        fell back or was never part of this set)."""
        for compiled in self.compiled:
            if compiled.constraint == constraint:
                return compiled
        return None

    def fallback_for(self, constraint):
        """The :class:`CompilationFallback` of *constraint*, or ``None``."""
        for fallback in self.fallbacks:
            if fallback.constraint == constraint:
                return fallback
        return None

    def __len__(self):
        return len(self.compiled) + len(self.fallbacks)


class _Fallback(Exception):
    """Internal: the translation left the compilable fragment."""

    def __init__(self, code, message):
        super().__init__(message)
        self.code = code
        self.message = message


class _Branch:
    """One disjunctive branch of the violation query: positive atoms,
    negated subformulas (still un-translated) and equality conjuncts."""

    __slots__ = ("atoms", "negations", "equalities")

    def __init__(self, atoms=(), negations=(), equalities=()):
        self.atoms = list(atoms)
        self.negations = list(negations)
        self.equalities = list(equalities)

    def merged(self, other):
        return _Branch(
            self.atoms + other.atoms,
            self.negations + other.negations,
            self.equalities + other.equalities,
        )


def _product(lefts, rights):
    return [left.merged(right) for left in lefts for right in rights]


def _branches(formula):
    """Translate a subjective formula (positive context) into disjunctive
    branches.  ``K w`` defers to :func:`_known_branches`; a bare negation
    becomes a deferred item the emitter turns into stratified negation."""
    if isinstance(formula, Know):
        if is_first_order(formula.body):
            return _known_branches(formula.body)
        raise _Fallback(
            "not-k1", f"K applies to a non-first-order body: {to_text(formula)}"
        )
    if isinstance(formula, Equals):
        return [_Branch(equalities=[(formula.left, formula.right)])]
    if isinstance(formula, Top):
        return [_Branch()]
    if isinstance(formula, Bottom):
        return []
    if isinstance(formula, And):
        return _product(_branches(formula.left), _branches(formula.right))
    if isinstance(formula, Or):
        return _branches(formula.left) + _branches(formula.right)
    if isinstance(formula, Exists):
        # The existential variable simply becomes a rule variable — Datalog
        # bodies quantify unbound variables existentially, and the admissible
        # form's rename-apart pass guarantees it collides with nothing.
        return _branches(formula.body)
    if isinstance(formula, Not):
        return [_Branch(negations=[formula.body])]
    if isinstance(formula, Atom):
        raise _Fallback(
            "not-subjective",
            f"the atom {to_text(formula)} outside K addresses the external world",
        )
    raise _Fallback(
        "unsupported",
        f"cannot compile a {type(formula).__name__} node: {to_text(formula)}",
    )


def _known_branches(formula):
    """Translate a first-order formula under ``K`` against the ground-atomic
    reading: K distributes over ``&``, ``|`` and ``exists`` (exact for a
    database of ground atoms — the boundary the view enforces at runtime),
    atoms become positive literals, and negation/universals fall back (an
    atomic database never knows a negative or unbounded fact usefully)."""
    if isinstance(formula, Atom):
        return [_Branch(atoms=[formula])]
    if isinstance(formula, Equals):
        return [_Branch(equalities=[(formula.left, formula.right)])]
    if isinstance(formula, Top):
        return [_Branch()]
    if isinstance(formula, Bottom):
        return []
    if isinstance(formula, And):
        return _product(_known_branches(formula.left), _known_branches(formula.right))
    if isinstance(formula, Or):
        return _known_branches(formula.left) + _known_branches(formula.right)
    if isinstance(formula, Exists):
        return _known_branches(formula.body)
    if isinstance(formula, Not):
        raise _Fallback(
            "negation-in-k",
            f"K over a negation is outside the atomic reading: {to_text(formula)}",
        )
    if isinstance(formula, Forall):
        raise _Fallback(
            "universal-in-k",
            f"K over a universal is outside the atomic reading: {to_text(formula)}",
        )
    raise _Fallback(
        "unsupported",
        f"cannot compile a {type(formula).__name__} node under K: {to_text(formula)}",
    )


class _Emitter:
    """Turns branches into safe Datalog rules, inventing auxiliary subgoal
    predicates for negated subqueries (recursively, so nested negation
    stratifies by construction: each auxiliary sits strictly below its
    consumer)."""

    def __init__(self, constraint_id):
        self.constraint_id = constraint_id
        self.rules = []
        self._aux_counter = 0

    def _fresh_aux(self):
        name = f"{AUX_PREFIX}{self.constraint_id}_{self._aux_counter}"
        self._aux_counter += 1
        return name

    def emit(self, head_predicate, head_terms, branch):
        """Emit the rule(s) deriving ``head_predicate(head_terms)`` from one
        *branch*.  Returns ``_EMITTED``, ``_DEAD`` (the branch can never
        hold) or ``_TAUTOLOGY`` (it always holds); raises :class:`_Fallback`
        outside the fragment."""
        # Known equalities resolve into a substitution: under the paper's
        # pairwise-distinct parameters, K(t1 = t2) holds exactly when the
        # terms unify syntactically.
        mapping = {}

        def resolve(term):
            seen = set()
            while isinstance(term, Variable) and term in mapping and term not in seen:
                seen.add(term)
                term = mapping[term]
            return term

        for left, right in branch.equalities:
            left, right = resolve(left), resolve(right)
            if left == right:
                continue
            if isinstance(left, Variable):
                mapping[left] = right
            elif isinstance(right, Variable):
                mapping[right] = left
            else:
                return _DEAD  # two distinct parameters are never equal
        flat = {variable: resolve(variable) for variable in mapping}

        atoms = [
            Atom(atom.predicate, tuple(resolve(term) for term in atom.args))
            for atom in branch.atoms
        ]
        literals = [DatalogLiteral(atom, True) for atom in atoms]
        for negated in branch.negations:
            if flat:
                negated = substitute(negated, flat)
            item = self._negative_literal(negated)
            if item is _ALWAYS_TRUE:
                continue
            if item is _ALWAYS_FALSE:
                return _DEAD
            literals.append(item)

        if not atoms:
            if len(literals) == 0 and not mapping:
                return _TAUTOLOGY
            if not branch.negations and mapping:
                raise _Fallback(
                    "negated-equality",
                    "the subquery reduces to a disequality test between bound "
                    "terms, which Datalog negation cannot express",
                )
            raise _Fallback(
                "no-anchor",
                "a rule branch has no positive K-atom to range-restrict it",
            )
        head = Atom(head_predicate, tuple(resolve(term) for term in head_terms))
        try:
            rule = DatalogRule(head, tuple(literals))
        except UnsafeRuleError as error:
            raise _Fallback("unsafe-rule", str(error))
        self.rules.append(rule)
        return _EMITTED

    def _negative_literal(self, negated):
        """Compile one negated subformula into a negative literal — direct
        when the subquery is a single atom over outer-bound variables, via a
        fresh auxiliary subgoal predicate otherwise."""
        sub_branches = _branches(negated)
        if not sub_branches:
            return _ALWAYS_TRUE  # negation of an unsatisfiable subquery
        outer = sorted(free_variables(negated), key=lambda v: v.name)
        if len(sub_branches) == 1:
            only = sub_branches[0]
            if (
                len(only.atoms) == 1
                and not only.negations
                and not only.equalities
                and {t for t in only.atoms[0].args if isinstance(t, Variable)}
                <= set(outer)
            ):
                return DatalogLiteral(only.atoms[0], False)
        aux = self._fresh_aux()
        head_terms = tuple(outer)
        mark = len(self.rules)
        emitted_any = False
        for sub_branch in sub_branches:
            branch_mark = len(self.rules)
            outcome = self.emit(aux, head_terms, sub_branch)
            if outcome is _TAUTOLOGY:
                del self.rules[mark:]
                return _ALWAYS_FALSE  # subquery always holds, negation never
            if outcome is _DEAD:
                del self.rules[branch_mark:]
                continue
            emitted_any = True
        if not emitted_any:
            del self.rules[mark:]
            return _ALWAYS_TRUE
        return DatalogLiteral(Atom(aux, head_terms), False)


def compile_constraint(constraint, constraint_id="c0"):
    """Compile one modalized constraint into violation rules.

    Returns a :class:`CompiledConstraint`; raises
    :class:`~repro.exceptions.ConstraintCompilationError` (with a
    machine-readable ``code``) when the constraint falls outside the
    fragment — see the module docstring for the boundary table.
    """

    def refuse(code, message):
        raise ConstraintCompilationError(
            f"{to_text(constraint)}: {message}", code=code, constraint=constraint
        )

    if free_variables(constraint):
        refuse("open-formula", "constraints must be sentences")
    if is_first_order(constraint):
        refuse(
            "first-order",
            "no K operator — the paper's reading would modalize it first "
            "(repro.constraints.modalize.modalize_constraint)",
        )
    if not is_k1(constraint):
        refuse("not-k1", "iterated modalities are outside the K1 fragment")
    admissible = to_admissible_form(constraint)
    if not is_subjective(admissible):
        refuse("not-subjective", explain_not_subjective(admissible))
    if not is_admissible(admissible):
        refuse("not-admissible", explain_not_admissible(admissible))
    if not isinstance(admissible, Not):
        refuse(
            "no-witness",
            "the admissible form is not a negated existential violation query",
        )
    body = admissible.body
    witness_variables = []
    while isinstance(body, Exists):
        witness_variables.append(body.variable)
        body = body.body
    body_free = free_variables(body)
    head_variables = sorted(
        (v for v in witness_variables if v in body_free), key=lambda v: v.name
    )
    if not head_variables:
        refuse("no-witness", "the violation query binds no witness variables")

    predicate = VIOLATION_PREFIX + constraint_id
    try:
        emitter = _Emitter(constraint_id)
        for branch in _branches(body):
            mark = len(emitter.rules)
            outcome = emitter.emit(predicate, tuple(head_variables), branch)
            if outcome is _DEAD:
                del emitter.rules[mark:]
            elif outcome is _TAUTOLOGY:
                raise _Fallback(
                    "no-anchor", "the violation query is unconditionally true"
                )
    except _Fallback as fallback:
        refuse(fallback.code, fallback.message)
    return CompiledConstraint(
        constraint=constraint,
        constraint_id=constraint_id,
        predicate=predicate,
        witnesses=tuple(head_variables),
        rules=tuple(emitter.rules),
        edb_predicates=frozenset(name for name, _ in predicates_of(constraint)),
    )


def compile_constraints(constraints, id_format="c{index}"):
    """Compile a constraint list, splitting it into the compiled constraints
    and the :class:`CompilationFallback` entries (never raises for fragment
    violations — that is the point).  ``id_format`` receives the registration
    ``index`` of each constraint."""
    compiled, fallbacks = [], []
    for index, constraint in enumerate(constraints):
        constraint_id = id_format.format(index=index)
        try:
            compiled.append(compile_constraint(constraint, constraint_id))
        except ConstraintCompilationError as error:
            fallbacks.append(
                CompilationFallback(
                    constraint=constraint,
                    constraint_id=constraint_id,
                    code=error.code,
                    message=str(error),
                )
            )
    return CompiledConstraintSet(tuple(compiled), tuple(fallbacks))


def is_compilable(constraint):
    """Return True when :func:`compile_constraint` accepts *constraint*."""
    try:
        compile_constraint(constraint)
        return True
    except ConstraintCompilationError:
        return False
