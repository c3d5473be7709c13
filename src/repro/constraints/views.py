"""Incrementally maintained violation views over an epistemic database.

The checker makes Definition 3.5 literal — constraint checking is query
evaluation — but re-evaluates every constraint from scratch on every check.
A :class:`ViolationView` compiles the constraint set with
:mod:`repro.constraints.compile` and materializes the resulting
``__violation__<id>(witness...)`` rules through a
:class:`~repro.datalog.incremental.MaterializedModel` over the database's
ground-atomic EDB.  The view is one of the database's maintained views
(:class:`~repro.db.view.MaintainedView`): every write stages its net EDB
change on the violation model before the base changes and commits it right
after.  Checking then becomes a read:

* :meth:`check` probes the maintained violation buckets — O(touched
  buckets), no evaluation;
* :meth:`preview_report` answers "would this batch violate anything?" as a
  side-effect-free O(delta) staged check: the batch is maintained into the
  violation model, the buckets are read, and the batch is rolled back;
* the database's constraint check — its only one — is the same staged
  check, except that the batch stays staged: the database rolls it back on
  a rejection and otherwise commits it together with every other
  maintained view once the base holds the write, so an accepted batch is
  maintained once;
* :meth:`add_delta_listener` streams each committed batch's *net violation
  deltas* (constraint id → witness tuples appearing/disappearing) to
  subscribers, after every maintained view has committed —
  :class:`~repro.constraints.triggers.TriggerManager` fires off these instead
  of polling.

Two fallback layers keep the view's verdicts identical to the from-scratch
checker (the differential harness in ``tests/test_constraints_views.py``
proves this):

* **compile-time** — constraints outside the Datalog fragment (see the
  boundary table in :mod:`repro.constraints.compile`) are routed to the
  from-scratch checker; the report's ``fallbacks`` carries the
  machine-readable reason;
* **run-time** — the compiled rules are exact only for the Prolog-like
  (ground-atomic) reading of the database, so a compiled constraint whose
  predicates are touched by any *non-atomic* sentence (a disjunction, an
  existential, ...) is also re-checked from scratch for as long as such
  sentences are present, with reason ``non-atomic-sentences``.
"""

from repro.constraints.checker import (
    ConstraintReport,
    ConstraintViolation,
    IntegrityChecker,
)
from repro.constraints.compile import (
    VIOLATION_PREFIX,
    CompilationFallback,
    compile_constraints,
)
from repro.db.view import MaintainedView, _ground_atoms
from repro.logic.substitution import substitute
from repro.obs.tracing import NOOP_TRACER
from repro.logic.syntax import (
    And,
    Atom,
    Exists,
    Forall,
    Iff,
    Implies,
    Know,
    Not,
    Or,
    free_variables,
)
from repro.logic.terms import Variable
from repro.logic.transform import to_admissible_form


def _support_atoms(formula, positive, out):
    """Collect the atoms of *formula* that occur in positive polarity —
    the facts whose joint presence makes the (instantiated) violation body
    true, and whose retraction therefore removes the violation."""
    if isinstance(formula, Atom):
        if positive:
            out.append(formula)
    elif isinstance(formula, Know):
        if positive:
            _support_atoms(formula.body, True, out)
    elif isinstance(formula, Not):
        _support_atoms(formula.body, not positive, out)
    elif isinstance(formula, (And, Or)):
        _support_atoms(formula.left, positive, out)
        _support_atoms(formula.right, positive, out)
    elif isinstance(formula, Implies):
        _support_atoms(formula.left, not positive, out)
        _support_atoms(formula.right, positive, out)
    elif isinstance(formula, (Forall, Exists)):
        _support_atoms(formula.body, positive, out)
    elif isinstance(formula, Iff):
        # Either polarity could carry the violation; no sound syntactic
        # support exists, so contribute none (the caller falls back to
        # reporting the violation as irreparable).
        pass
    # Equals / Top / Bottom carry no retractable support.


def violation_support(constraint, witness=()):
    """The *support* of one violation witness: the atoms (instantiated at
    *witness*) whose presence in the database makes *constraint* fail there.

    The constraint's admissible form is ``~ exists x̄. body`` — exactly what
    :class:`~repro.constraints.checker.IntegrityChecker` and
    :mod:`repro.constraints.compile` negate to find witnesses — so the
    witness tuple binds the existential variables (sorted by name, matching
    both witness extractors) and the positive atoms of the instantiated body
    are the facts the violation rests on.  Retracting any of them removes
    this witness, which is what makes these the *retraction candidates* of
    the belief-revision layer (:mod:`repro.revision`).

    Atoms that keep free variables (an inner existential of the body) are
    returned as patterns; callers match them against the database.  Returns
    ``()`` when the constraint has no extractable support (not in negated
    existential form, or witness arity mismatch).
    """
    admissible = to_admissible_form(constraint)
    if not isinstance(admissible, Not):
        return ()
    body = admissible.body
    witness_variables = []
    while isinstance(body, Exists):
        witness_variables.append(body.variable)
        body = body.body
    free_names = {v.name for v in free_variables(body)}
    ordered = sorted({v.name for v in witness_variables} & free_names)
    if witness and len(ordered) != len(witness):
        return ()
    by_name = {variable.name: variable for variable in witness_variables}
    mapping = {by_name[name]: value for name, value in zip(ordered, witness)}
    instantiated = substitute(body, mapping) if mapping else body
    collected = []
    _support_atoms(instantiated, True, collected)
    seen, support = set(), []
    for candidate in collected:
        if candidate not in seen:
            seen.add(candidate)
            support.append(candidate)
    return tuple(support)


class ViolationView(MaintainedView):
    """A continuously maintained map from constraints to their violations.

    Example::

        db = EpistemicDatabase(facts, constraints=constraints)
        view = ViolationView(db)
        view.check().satisfied          # probe of the violation buckets
        with db.transaction() as txn:
            txn.tell("emp(Fred)")
            report = view.preview_report(*txn.pending)   # O(delta), no side effect

    The violation rules are maintained by a
    :class:`~repro.datalog.incremental.MaterializedModel` over columnar
    storage, exactly as for :class:`~repro.db.view.DatalogView`.
    ``checker`` is the
    :class:`~repro.constraints.checker.IntegrityChecker` used for fallback
    constraints (the database passes its own so strategy/config agree).

    The view stays attached to the database until :meth:`close`.
    """

    def __init__(self, database, constraints=None, config=None, checker=None):
        active = list(database.constraints() if constraints is None else constraints)
        self._constraints = active
        self._compiled_set = compile_constraints(active)
        self._by_predicate = self._compiled_set.by_predicate()
        config = database.config if config is None else config
        self._checker = checker if checker is not None else IntegrityChecker(
            constraints=active, config=config
        )
        self._delta_listeners = []

        super().__init__(
            database,
            self._compiled_set.rules(),
            outputs=[
                (compiled.predicate, len(compiled.witnesses))
                for compiled in self._compiled_set.compiled
            ],
        )
        # Maintenance rounds driven by this view show up in the database's
        # trace (the wrapped engine defaults to the no-op tracer).
        self._materialized.engine.tracer = getattr(
            database, "tracer", self._materialized.engine.tracer
        )

    # -- introspection ------------------------------------------------------
    @property
    def compiled(self):
        """The :class:`~repro.constraints.compile.CompiledConstraintSet`."""
        return self._compiled_set

    @property
    def fallbacks(self):
        """Compile-time :class:`~repro.constraints.compile.CompilationFallback`
        entries (the run-time ``non-atomic-sentences`` ones appear on check
        reports only, since they come and go with the offending sentences)."""
        return self._compiled_set.fallbacks

    def constraint_id_of(self, constraint):
        """The id (``c<index>``) the view assigned to *constraint*."""
        compiled = self._compiled_set.compiled_for(constraint)
        if compiled is not None:
            return compiled.constraint_id
        fallback = self._compiled_set.fallback_for(constraint)
        if fallback is not None:
            return fallback.constraint_id
        raise KeyError(f"not a constraint of this view: {constraint!r}")

    # -- checking -----------------------------------------------------------
    def check(self, with_witnesses=True, witness_limit=None):
        """Check the database against the constraint set by *reading* the
        maintained view (plus a from-scratch pass over the fallback
        constraints, if any).  Returns a
        :class:`~repro.constraints.checker.ConstraintReport` whose
        ``fallbacks`` records every constraint that was not answered by the
        view and why."""
        tracer = getattr(self._database, "tracer", NOOP_TRACER)
        with tracer.span("violations.check"):
            return self._report(
                self._database.sentences,
                self._database.base.nonatomic_predicates(),
                with_witnesses=with_witnesses,
                witness_limit=witness_limit,
            )

    def preview_report(self, additions=(), retractions=(), with_witnesses=True,
                       witness_limit=None):
        """The report :meth:`check` would produce if the batch were applied —
        computed as a side-effect-free O(delta) staged check: a
        :meth:`~repro.datalog.incremental.MaterializedModel.peek` maintains
        the batch into the violation model, the violation buckets are
        probed and the report built while it is staged, and the batch is
        then rolled back, so neither the maintained state nor the planner
        changes and no full model is ever built."""
        additions, retractions = list(additions), list(retractions)
        arriving, gone = self._database.base.net_change(additions, retractions)
        with self._preview_span(additions, retractions):
            return self._materialized.peek(
                _ground_atoms(arriving), _ground_atoms(gone),
                reader=lambda _: self._staged_report(
                    additions, retractions, arriving, gone,
                    with_witnesses=with_witnesses, witness_limit=witness_limit,
                ),
            )

    def violations(self):
        """The current violations as ``{constraint_id: (witness, ...)}`` —
        compiled constraints only, read straight off the maintained index."""
        return {
            compiled.constraint_id: self._read_witnesses(compiled)
            for compiled in self._compiled_set.compiled
        }

    # -- delta subscriptions ------------------------------------------------
    def add_delta_listener(self, listener):
        """Subscribe ``listener(added, removed)`` to net violation deltas:
        both arguments map constraint ids to tuples of witness tuples that
        appeared / disappeared with an applied database update.  Only applied
        changes notify — rollbacks and rejected batches never do — and only
        when the violation set actually changed."""
        self._delta_listeners.append(listener)
        return listener

    def remove_delta_listener(self, listener):
        """Unsubscribe a previously added delta listener."""
        self._delta_listeners.remove(listener)

    # -- internals ------------------------------------------------------------
    def _stage_check(self, additions, retractions, arriving, gone, batch):
        """The database's constraint check: stage *batch* — the EDB part of
        the net change ``(arriving, gone)`` (of
        :meth:`~repro.db.base.BeliefBase.net_change`), which the database's
        EDB store already holds — on the violation model and return the
        report of the staged state.  The batch stays staged for the
        database to commit with the base or to roll back, also when
        building the report raises."""
        with self._preview_span(additions, retractions):
            self._materialized._stage(batch)
            return self._staged_report(additions, retractions, arriving, gone)

    def _staged_report(self, additions, retractions, arriving, gone,
                       with_witnesses=True, witness_limit=None):
        """The report of the base after the batch, read off the violation
        model while the batch is staged on it."""
        base = self._database.base
        return self._report(
            # Only materialized when a fallback constraint actually needs a
            # from-scratch check.
            lambda: base.updated(additions, retractions),
            base.nonatomic_predicates(arriving, gone),
            with_witnesses=with_witnesses,
            witness_limit=witness_limit,
        )

    def _preview_span(self, additions, retractions):
        tracer = getattr(self._database, "tracer", NOOP_TRACER)
        return tracer.span(
            "violations.preview", additions=len(additions), retractions=len(retractions)
        )

    def _read_witnesses(self, compiled):
        """All witness tuples of one compiled constraint, sorted, read from
        the (possibly staged) maintained index."""
        goal = Atom(
            compiled.predicate,
            tuple(Variable(f"w{i}") for i in range(len(compiled.witnesses))),
        )
        answers = self._materialized.query(goal, mode="materialized")
        witnesses = {
            tuple(binding[variable] for variable in goal.args) for binding in answers
        }
        return tuple(sorted(witnesses, key=lambda w: tuple(p.name for p in w)))

    def _report(self, fallback_theory, nonatomic_names, with_witnesses=True,
                witness_limit=None):
        """Assemble a :class:`ConstraintReport`: compiled constraints whose
        predicates stay inside the atomic reading are read off the
        (possibly staged) violation model, everything else from the from-scratch checker.
        *fallback_theory* is a thunk, only called when a fallback constraint
        actually needs the sentence list."""
        view_constraints, runtime_fallbacks = [], []
        for compiled in self._compiled_set.compiled:
            if compiled.edb_predicates & nonatomic_names:
                runtime_fallbacks.append(
                    CompilationFallback(
                        constraint=compiled.constraint,
                        constraint_id=compiled.constraint_id,
                        code="non-atomic-sentences",
                        message=(
                            "predicates "
                            + ", ".join(sorted(compiled.edb_predicates & nonatomic_names))
                            + " are touched by non-atomic sentences; the compiled "
                            "rules only cover the ground-atomic reading"
                        ),
                    )
                )
            else:
                view_constraints.append(compiled)

        view_witnesses = {
            compiled.constraint_id: self._read_witnesses(compiled)
            for compiled in view_constraints
        }

        fallbacks = list(self._compiled_set.fallbacks) + runtime_fallbacks
        fallback_constraints = [fallback.constraint for fallback in fallbacks]
        scratch = None
        if fallback_constraints:
            scratch = self._checker.check(
                fallback_theory(),
                constraints=fallback_constraints,
                with_witnesses=with_witnesses,
                witness_limit=witness_limit,
            )
        scratch_by_constraint = {}
        if scratch is not None:
            for violation in scratch.violations:
                scratch_by_constraint[violation.constraint] = violation

        fallback_ids = {fallback.constraint_id for fallback in fallbacks}
        violations = []
        for index, constraint in enumerate(self._constraints):
            constraint_id = f"c{index}"
            if constraint_id in fallback_ids:
                violation = scratch_by_constraint.get(constraint)
                if violation is not None:
                    violations.append(violation)
                continue
            witnesses = view_witnesses.get(constraint_id, ())
            if not witnesses:
                continue
            if witness_limit is not None:
                witnesses = witnesses[:witness_limit]
            violations.append(
                ConstraintViolation(
                    constraint=constraint,
                    witnesses=witnesses if with_witnesses else (),
                )
            )
        return ConstraintReport(
            satisfied=not violations,
            violations=tuple(violations),
            checked=len(self._constraints),
            fallbacks=tuple(fallbacks),
        )

    def _deliver(self, result):
        """Send a committed batch's net violation deltas to the delta
        listeners, when the violation set changed."""
        if not self._delta_listeners:
            return
        added = self._violation_deltas(result.derived_added)
        removed = self._violation_deltas(result.derived_removed)
        if added or removed:
            for listener in list(self._delta_listeners):
                listener(added, removed)

    def _violation_deltas(self, derived):
        deltas = {}
        for atom in derived:
            compiled = self._by_predicate.get(atom.predicate)
            if compiled is not None:
                deltas.setdefault(compiled.constraint_id, []).append(tuple(atom.args))
        return {
            constraint_id: tuple(
                sorted(witnesses, key=lambda w: tuple(p.name for p in w))
            )
            for constraint_id, witnesses in deltas.items()
        }

    def __repr__(self):
        return (
            f"ViolationView({len(self._compiled_set.compiled)} compiled, "
            f"{len(self._compiled_set.fallbacks)} fallbacks over {self._database!r})"
        )
