"""``EpistemicDatabase`` — the user-facing database object.

A thin, stateful orchestration layer over the rest of the package:

* the **content** is a :class:`~repro.db.base.BeliefBase` of FOPCE
  sentences (facts, disjunctions, existentials, rules — anything first
  order), exactly the paper's notion of a database;
* **queries** are KFOPCE formulas (strings are parsed); ``ask`` returns
  yes/no/unknown for sentences, ``answers`` returns bindings for open
  queries, ``demo`` exposes the Prolog-style evaluator for admissible
  queries;
* **integrity constraints** are KFOPCE sentences checked with the same
  machinery (Definition 3.5); updates re-check incrementally and can fire
  procedural triggers;
* **maintained views** (a :class:`~repro.db.view.DatalogView`, the
  :meth:`violation_view`) read one EDB store — the base's ground atoms,
  interned once, built when the first view attaches — and are updated by
  one staged protocol: each write goes to the store once and is staged on
  every view before the base changes and committed right after, so a write
  that fails — a violated constraint, or any view raising while it stages
  — changes neither the base, nor the store, nor any view;
* ``closed_world()`` returns a closed-world view of the same content
  (Section 7).

Evaluation strategy defaults to the prover-based reduction; the
model-enumeration oracle can be requested per call for small databases
(``strategy="models"``), which is also how the test-suite cross-checks the
two paths.
"""

from repro.exceptions import ConstraintViolationError, NotFirstOrderError
from repro.logic.classify import is_first_order
from repro.logic.parser import parse, parse_many
from repro.logic.printer import to_text
from repro.logic.syntax import Formula, free_variables
from repro.constraints.checker import ConstraintReport, IntegrityChecker
from repro.constraints.triggers import TriggerManager
from repro.datalog.columnar import EdbStore
from repro.db.base import BeliefBase, is_ground_atom
from repro.db.view import _ground_atoms
from repro.cwa.evaluation import ClosedWorldEvaluator
from repro.evaluator.all_answers import all_answers
from repro.evaluator.demo import DemoEvaluator
from repro.semantics import entailment as model_entailment
from repro.semantics.answers import Answer
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import NOOP_TRACER
from repro.semantics.config import DEFAULT_CONFIG
from repro.semantics.reduction import EpistemicReducer


def _as_formula(value):
    if isinstance(value, Formula):
        return value
    if isinstance(value, str):
        return parse(value)
    raise TypeError(f"expected a formula or a string, got {value!r}")


def _check_sentence(formula):
    """Reject what a database may not contain: epistemic or open formulas."""
    if is_ground_atom(formula):
        return formula  # first order and closed by construction
    if not is_first_order(formula):
        raise NotFirstOrderError(
            "databases contain first-order sentences; epistemic sentences "
            f"belong in the constraints: {to_text(formula)}"
        )
    if free_variables(formula):
        raise ValueError(f"database sentences must be closed: {to_text(formula)}")
    return formula


class EpistemicDatabase:
    """A deductive database queried in KFOPCE.

    Example::

        db = EpistemicDatabase.from_text('''
            Teach(John, Math)
            exists x. Teach(x, CS)
            Teach(Mary, Psych) | Teach(Sue, Psych)
        ''')
        db.ask("K Teach(John, Math)").is_yes          # True
        db.ask("exists x. K Teach(x, CS)").is_no      # True — no known CS teacher
        db.answers("K Teach(John, ?c)").values()      # {Parameter('Math')}
    """

    def __init__(self, sentences=(), constraints=(), config=DEFAULT_CONFIG,
                 constraint_checking="incremental", tracer=None):
        # The violation view is the one constraint check; the keyword stays
        # for callers that still name it.
        if constraint_checking != "incremental":
            raise ValueError(
                "constraints are checked by the maintained violation view only: "
                f"constraint_checking must be 'incremental', not {constraint_checking!r}"
            )
        self.config = config
        self.tracer = NOOP_TRACER if tracer is None else tracer
        self._metrics = MetricsRegistry()
        # The base classifies each sentence once; only the non-atomic ones
        # need the first-order and closedness checks.
        self._base = BeliefBase(_as_formula(s) for s in sentences)
        for sentence in self._base.nonatomic():
            _check_sentence(sentence)
        if self._base:
            self._metrics.counter("db.tells").inc(len(self._base))
        self._constraints = []
        self._checker = IntegrityChecker(config=config)
        self._triggers = TriggerManager(config=config)
        self._dirty = True
        self._reducer = None
        self._update_listeners = []
        self._views = []
        self._edb = None
        self._revision_epoch = 0
        self._violation_view = None
        for constraint in constraints:
            self.add_constraint(constraint, check_now=False)

    # -- construction ---------------------------------------------------------
    @classmethod
    def from_text(cls, text, constraints_text="", config=DEFAULT_CONFIG):
        """Build a database from newline/semicolon separated sentences (and
        optionally constraints) in the parser's surface syntax."""
        database = cls(parse_many(text), config=config)
        for constraint in parse_many(constraints_text):
            database.add_constraint(constraint, check_now=False)
        return database

    @classmethod
    def from_relational(cls, relational_database, config=DEFAULT_CONFIG):
        """Build an (open-world) database from a relational instance; combine
        with :meth:`closed_world` for the classical relational reading."""
        return cls(relational_database.to_theory(), config=config)

    @classmethod
    def from_datalog(cls, program, config=DEFAULT_CONFIG):
        """Build a database from a Datalog program, rendered as first-order
        sentences (facts plus universally quantified rules)."""
        return cls(program.to_sentences(), config=config)

    # -- content management -----------------------------------------------------
    def sentences(self):
        """Return the database content (a copy), in the order it was told."""
        return list(self._base)

    @property
    def base(self):
        """The :class:`~repro.db.base.BeliefBase` holding the content — the
        one copy every view and the revisor read.  Change it only through
        ``tell`` / ``retract`` / transactions."""
        return self._base

    def constraints(self):
        """Return the registered integrity constraints (a copy)."""
        return list(self._constraints)

    @property
    def triggers(self):
        """The :class:`~repro.constraints.triggers.TriggerManager`."""
        return self._triggers

    # -- update notifications ---------------------------------------------------
    def add_update_listener(self, listener):
        """Register ``listener(added, removed)`` to be called after every
        *applied* content change — ``tell``, ``retract`` and
        :meth:`~repro.db.transactions.Transaction.commit` (once per batch,
        with the sentences added and the occurrences actually removed).
        Listeners run once :attr:`base` and every maintained view already
        hold the new state, and after the violation deltas went out.
        Rejected updates, failed writes, rollbacks and empty batches never
        notify.  Returns the listener for decorator-style use."""
        self._update_listeners.append(listener)
        return listener

    def remove_update_listener(self, listener):
        """Unregister a listener previously added with
        :meth:`add_update_listener` (no-op when absent)."""
        if listener in self._update_listeners:
            self._update_listeners.remove(listener)

    @property
    def revision_epoch(self):
        """A monotone version counter: incremented once per *applied* content
        change (``tell``, ``retract``, one per committed transaction batch —
        including each belief-change operation of :meth:`revision`, which
        applies as a single transaction).  The initial content is epoch 0.
        Rejected updates, rollbacks and commits whose net change is empty
        never advance it.  :class:`~repro.db.transactions.Transaction`
        records the epoch it created as ``committed_epoch``, and the
        revision layer stamps it on every
        :class:`~repro.revision.operators.RevisionResult`."""
        return self._revision_epoch

    def tell(self, sentence, check_constraints=True, fire_triggers=True):
        """Assert a first-order sentence.

        When *check_constraints* is set and the updated database would
        violate a registered constraint, the assertion is rejected and
        :class:`~repro.exceptions.ConstraintViolationError` is raised.
        The check is an O(delta) staged update of the maintained
        :meth:`violation_view`: an accepted sentence is maintained into the
        view once, a rejected one is rolled back.  Returns the constraint
        report (or ``None`` when checking was skipped or there are no
        constraints).
        """
        formula = _as_formula(sentence)
        return self._update(
            [formula], (), check_constraints, fire_triggers,
            "db.tells", lambda: f"asserting {to_text(formula)}",
        )

    def retract(self, sentence, check_constraints=True):
        """Remove the earliest occurrence of a previously asserted sentence
        (no-op returning ``None`` when absent).  The constraint check is the
        same as for :meth:`tell`; retraction fires no polling triggers."""
        formula = _as_formula(sentence)
        if formula not in self._base:
            return None
        return self._update(
            (), [formula], check_constraints, False,
            "db.retracts", lambda: f"retracting {to_text(formula)}",
        )

    def _edb_store(self):
        """The :class:`~repro.datalog.columnar.EdbStore` of the base's
        ground atoms that every maintained view reads, built when the first
        one attaches; from then on every write changes it once, in
        :meth:`_update`."""
        if self._edb is None:
            self._edb = EdbStore(self._base.ground_atoms())
        return self._edb

    def _update(self, additions, retractions, check, fire_triggers, counter,
                describe, applied=None):
        """The one update path behind :meth:`tell`, :meth:`retract` and
        :meth:`~repro.db.transactions.Transaction.commit`:

        1. the batch's net change is computed once (``base.net_change``),
           and every maintained view is brought up to date;
        2. the EDB store (once a view needs it) takes the change's ground
           atoms, encoded once;
        3. the constraint check: the violation view stages the change and
           reports on the staged state (Definition 3.5 on the post-update
           base, so a write that leaves an old violation standing is
           rejected too);
        4. on acceptance every other maintained view stages the change;
        5. the base takes the batch: each retraction removes one
           occurrence, earliest first, then the additions land;
        6. every staged view commits, which only swaps in state computed
           while staging and cannot fail;
        7. the violation deltas go out, the update listeners run and the
           triggers fire.

        If anything raises before step 5 — a violation, the check, any
        view's staging — the store is restored, every staged view is
        rolled back and the base, the epoch and the listeners are left
        alone.  *check* false skips the check; *describe* names the update
        in a rejection.  A batch whose applied change is empty notifies
        nobody, fires nothing and keeps the epoch.  ``applied(epoch)``, if
        given, runs once the batch is in, before any delivery.  Returns the
        constraint report."""
        for formula in additions:
            _check_sentence(formula)
        arriving, gone = self._base.net_change(additions, retractions)
        violations = self.violation_view() if check and self._constraints else None
        for view in self._views:
            view.materialized._ensure_consistent()
        batch = None
        if self._edb is not None:
            batch = self._edb.batch(_ground_atoms(arriving), _ground_atoms(gone))
        report = None
        staged = []
        try:
            if batch is not None:
                self._edb.write(batch)
            if violations is not None:
                with self.tracer.span("txn.check"):
                    staged.append(violations)
                    report = violations._stage_check(
                        additions, retractions, arriving, gone, batch
                    )
                if not report.satisfied:
                    raise ConstraintViolationError(
                        f"{describe()} violates integrity constraints",
                        violations=report.violations,
                    )
            if batch is not None and (batch.plus or batch.minus):
                for view in self._views:
                    if view not in staged:
                        staged.append(view)
                        view.materialized._stage(batch)
        except BaseException:
            if batch is not None:
                self._edb.unwrite(batch)
            for view in staged:
                view.materialized._rollback()
            raise
        with self.tracer.span("txn.apply"):
            removed = [sentence for sentence in retractions if self._base.remove(sentence)]
            for sentence in additions:
                self._base.add(sentence)
            committed = [(view, view.materialized._commit()) for view in staged]
            self._metrics.counter(counter).inc()
            changed = bool(additions or removed)
            if changed:
                self._dirty = True
                self._revision_epoch += 1
                self._metrics.gauge("db.revision_epoch").set(self._revision_epoch)
            if applied is not None:
                applied(self._revision_epoch)
        for view, result in committed:
            view._deliver(result)
        if changed:
            added, removed = tuple(additions), tuple(removed)
            for listener in list(self._update_listeners):
                listener(added, removed)
        if changed and fire_triggers and self._triggers.triggers:
            self._triggers.fire(self)
        return report

    def add_constraint(self, constraint, check_now=True):
        """Register a KFOPCE integrity constraint (Definition 3.5)."""
        formula = _as_formula(constraint)
        self._constraints.append(formula)
        # The constraint set changed — any maintained violation view compiles
        # the old set, so drop it; the next check rebuilds it lazily.
        self._close_view()
        if check_now:
            report = self.check_constraints()
            if not report.satisfied:
                self._constraints.pop()
                self._close_view()
                raise ConstraintViolationError(
                    f"the database does not satisfy {to_text(formula)}",
                    violations=report.violations,
                )
            return report
        return None

    # -- violation view ---------------------------------------------------------
    def violation_view(self):
        """The lazily built
        :class:`~repro.constraints.views.ViolationView` over this database:
        the registered constraints compiled to materialized violation rules,
        maintained with every write like any other view (the constraint
        check stages the write on it first).  It is the database's one
        constraint check; invalidated (and rebuilt on next use) when the
        constraint set changes."""
        if self._violation_view is None:
            from repro.constraints.views import ViolationView

            self._violation_view = ViolationView(
                self,
                constraints=self._constraints,
                config=self.config,
                checker=self._checker,
            )
        return self._violation_view

    def _close_view(self):
        if self._violation_view is not None:
            self._violation_view.close()
            self._violation_view = None

    # -- evaluation ---------------------------------------------------------------
    def _reducer_for(self, queries):
        if self._dirty or self._reducer is None:
            self._reducer = EpistemicReducer(
                self.sentences(),
                config=self.config,
                queries=list(queries) + list(self._constraints),
            )
            self._dirty = False
            return self._reducer
        # Reuse only when the cached universe already covers the new queries.
        from repro.logic.signature import signature_of

        needed = signature_of(self._base, queries).parameters
        if needed <= set(self._reducer.universe):
            return self._reducer
        self._reducer = EpistemicReducer(
            self.sentences(), config=self.config, queries=list(queries) + list(self._constraints)
        )
        return self._reducer

    def ask(self, query, strategy="reduction"):
        """Answer a KFOPCE sentence with yes / no / unknown.

        ``strategy="models"`` uses the model-enumeration oracle instead of
        the prover-based reduction (small databases only).
        """
        formula = _as_formula(query)
        if strategy == "models":
            return model_entailment.ask(self.sentences(), formula, config=self.config)
        return self._reducer_for([formula]).ask(formula)

    def answers(self, query, strategy="reduction"):
        """Return the definite answers to an open KFOPCE query."""
        formula = _as_formula(query)
        if strategy == "models":
            return model_entailment.answers(self.sentences(), formula, config=self.config)
        return self._reducer_for([formula]).answers(formula)

    def indefinite_answers(self, query, max_group_size=3):
        """Return definite plus indefinite (disjunctive) answers — the
        paper's "Mary or Sue" — via the model-enumeration semantics."""
        formula = _as_formula(query)
        return model_entailment.indefinite_answers(
            self.sentences(), formula, config=self.config, max_group_size=max_group_size
        )

    def entails(self, query):
        """Return True when the database entails the KFOPCE sentence."""
        return self.ask(query).is_yes

    def demo(self, query, validate=True):
        """Run the Prolog-style ``demo`` evaluator on an admissible query and
        return the set of answer tuples (Section 5)."""
        formula = _as_formula(query)
        evaluator = DemoEvaluator(
            self.sentences(),
            config=self.config,
            prover=self._reducer_for([formula]).prover,
        )
        return all_answers(evaluator, formula, validate=validate)

    def demo_evaluator(self, queries=()):
        """Return a :class:`~repro.evaluator.demo.DemoEvaluator` bound to the
        current content (for callers who want the generator interface)."""
        parsed = [_as_formula(q) for q in queries]
        return DemoEvaluator(
            self.sentences(), config=self.config, prover=self._reducer_for(parsed).prover
        )

    # -- constraints ------------------------------------------------------------------
    def check_constraints(self, with_witnesses=True):
        """Check every registered constraint; returns a
        :class:`~repro.constraints.checker.ConstraintReport`.

        This reads the maintained violation view (O(touched buckets))
        instead of re-evaluating; the report's ``fallbacks`` names any
        constraint that still went through the from-scratch path and why."""
        self._metrics.counter("db.checks").inc()
        if not self._constraints:
            return ConstraintReport(satisfied=True)
        return self.violation_view().check(with_witnesses=with_witnesses)

    def satisfies(self, constraint):
        """Definition 3.5: does the database satisfy this (possibly
        unregistered) constraint?"""
        formula = _as_formula(constraint)
        return self._reducer_for([formula]).entails(formula)

    def metrics(self):
        """One flat snapshot of the database's own instruments (``db.*``:
        tells, retracts, commits, checks, the revision-epoch gauge).  The
        engine-level numbers live on the evaluating objects —
        ``violation_view().engine.metrics()`` et al."""
        return self._metrics.snapshot()

    def explain_rejection(self, report, policy=None):
        """Why did this constraint report (or
        :class:`~repro.exceptions.ConstraintViolationError`) reject an
        update — and what could give way?

        For every violation witness, traces the violated constraint to its
        **support**: the instantiated positive atoms the violation rests on
        (:func:`~repro.constraints.views.violation_support`), and matches
        that support against the currently believed ground atoms to list
        the **retraction candidates** the revision planner would consider,
        ordered least entrenched first under *policy* (default: recency,
        exactly :meth:`revision`'s default).  Returns a tuple of
        :class:`~repro.obs.provenance.RejectionExplanation`, one per
        (violation, witness) pair, each with a human-readable
        ``render()``.
        """
        from repro.constraints.views import violation_support
        from repro.obs.provenance import RejectionExplanation
        from repro.revision.entrenchment import EntrenchmentState, RecencyPolicy
        from repro.revision.planner import _match

        violations = getattr(report, "violations", None)
        if violations is None:
            raise TypeError(
                "expected a ConstraintReport or ConstraintViolationError "
                f"(something with .violations), got {type(report).__name__}"
            )
        policy = RecencyPolicy() if policy is None else policy
        state = EntrenchmentState(self._base.sequences)
        explanations = []
        for violation in violations:
            constraint = violation.constraint
            constraint_id = None
            if self._violation_view is not None:
                try:
                    constraint_id = self._violation_view.constraint_id_of(constraint)
                except KeyError:
                    constraint_id = None
            for witness in violation.witnesses or ((),):
                support = tuple(violation_support(constraint, witness))
                candidates = []
                for pattern in support:
                    for candidate in _match(pattern, self._base.counts):
                        if candidate not in candidates:
                            candidates.append(candidate)
                candidates.sort(key=lambda sentence: policy.key(sentence, state))
                explanations.append(RejectionExplanation(
                    constraint=constraint,
                    witness=tuple(witness),
                    support=support,
                    candidates=tuple(candidates),
                    constraint_id=constraint_id,
                ))
        return tuple(explanations)

    def transaction(self):
        """Return a :class:`~repro.db.transactions.Transaction` for staging a
        batch of assertions/retractions that must satisfy the constraints as
        a unit (e.g. a new employee together with her social security
        number)."""
        from repro.db.transactions import Transaction

        return Transaction(self)

    def revision(self, policy=None, **options):
        """Return a :class:`~repro.revision.operators.BeliefRevisor` over
        this database: AGM-style ``expand`` / ``contract`` / ``revise`` /
        ``update_batch`` operators that resolve constraint conflicts by
        minimal retraction, arbitrated by the entrenchment *policy*
        (default recency) and applied as single transactions.  *options*
        are passed through (``max_rounds``)."""
        from repro.revision.operators import BeliefRevisor

        return BeliefRevisor(self, policy=policy, **options)

    # -- datalog view -------------------------------------------------------------------
    def datalog_view(self, rules=(), storage="columnar"):
        """Return a :class:`~repro.db.view.DatalogView`: the Prolog-like
        reading of this database (its ground atomic sentences plus the given
        Datalog *rules*) with the least model materialized in interned
        dense-id columnar relations and incrementally maintained across
        every subsequent ``tell`` / ``retract`` / transaction commit.
        Columnar is the only view storage; ``storage`` accepts just
        ``"columnar"`` and any other value raises ``ValueError``."""
        from repro.db.view import DatalogView

        if storage != "columnar":
            raise ValueError(f"views store columnar only, not storage={storage!r}")
        return DatalogView(self, rules=rules)

    # -- closed world -------------------------------------------------------------------
    def closed_world(self, queries=()):
        """Return a :class:`~repro.cwa.evaluation.ClosedWorldEvaluator` over
        the current content (Section 7)."""
        parsed = [_as_formula(q) for q in queries]
        return ClosedWorldEvaluator(self._base, queries=parsed, config=self.config)

    # -- misc --------------------------------------------------------------------------
    def __len__(self):
        return len(self._base)

    def __contains__(self, sentence):
        return _as_formula(sentence) in self._base

    def __repr__(self):
        return (
            f"EpistemicDatabase(sentences={len(self._base)}, "
            f"constraints={len(self._constraints)})"
        )
