"""Belief-change operators over :class:`~repro.db.database.EpistemicDatabase`.

Reiter's epistemic reading makes an update a change of *knowledge*, not of
storage, and AGM belief revision says what such a change must do: accept the
new information (**success**), add nothing beyond it (**inclusion**), change
nothing when there is no conflict (**vacuity**), keep the base consistent
(**consistency**), and not care how the input is written (**extensionality**).
:class:`BeliefRevisor` implements those operators against a live database:

* :meth:`~BeliefRevisor.expand` — AGM expansion ``K+A``: add, resolve nothing;
* :meth:`~BeliefRevisor.contract` — remove a belief *and* whatever the
  integrity constraints then force out (referential cascades);
* :meth:`~BeliefRevisor.revise` — add a belief, retracting a minimal, least
  entrenched set of conflicting beliefs first (Levi: contract the conflict,
  then expand);
* :meth:`~BeliefRevisor.update_batch` — the general form, a net batch of
  tells and retracts resolved as one unit.

Conflicts are *found* by the PR 8 violation views
(:meth:`~repro.constraints.views.ViolationView.preview_report` — an O(delta)
peek, never a recompute), *blamed* by :func:`~repro.constraints.views.violation_support`
(witness → supporting facts), *arbitrated* by a pluggable entrenchment policy
(:mod:`repro.revision.entrenchment`), *vetted* for satisfiability through
:mod:`repro.prover`, and *applied* as a single
:class:`~repro.db.transactions.Transaction`, so every maintained view and
materialized model follows along in O(delta), all or nothing.  Each applied operation bumps
the database's ``revision_epoch`` and is recorded in :attr:`BeliefRevisor.history`.
"""

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.db.base import is_ground_atom
from repro.db.database import _as_formula
from repro.exceptions import NotASentenceError, NotFirstOrderError, RevisionError
from repro.logic.classify import is_first_order
from repro.logic.printer import to_text
from repro.logic.syntax import free_variables
from repro.logic.transform import simplify
from repro.revision.entrenchment import RecencyPolicy
from repro.obs.tracing import NOOP_TRACER
from repro.revision.planner import plan_retractions


@dataclass(frozen=True)
class RevisionResult:
    """The outcome of one belief-change operation.

    ``additions`` are the sentences actually added (already-believed inputs
    are dropped — the base is a set of beliefs), ``removals`` the explicitly
    requested retractions that were applied, and ``retracted`` the *extra*
    retractions the planner chose to restore the constraints — the minimal
    conflict repair.  ``epoch`` is the database's revision epoch after the
    operation (unchanged when ``changed`` is false), ``report`` the final
    constraint report of the applying transaction."""

    operation: str
    additions: Tuple = ()
    removals: Tuple = ()
    retracted: Tuple = ()
    epoch: int = 0
    report: Optional[object] = field(default=None, compare=False)
    changed: bool = True


class BeliefRevisor:
    """AGM-style belief change over one database.

    Example::

        db = EpistemicDatabase(facts, constraints=constraints,
                               constraint_checking="incremental")
        revisor = db.revision()
        result = revisor.revise("female(E2)")   # conflicts with male(E2)
        result.retracted                        # (male(E2),)

    *policy* is the :class:`~repro.revision.entrenchment.EntrenchmentPolicy`
    deciding which conflicting belief gives way (default
    :class:`~repro.revision.entrenchment.RecencyPolicy`); *max_rounds*
    bounds the planner's retraction rounds.  After planning, the revised
    base is proved satisfiable when it holds non-atomic sentences — a set
    of ground atoms is trivially satisfiable.

    The revisor keeps no state of its own about the beliefs: occurrence
    counts and assertion sequence numbers are read from the database's
    :class:`~repro.db.base.BeliefBase`, so out-of-band ``tell`` /
    ``retract`` / transactions on the same database are seen too.
    """

    def __init__(self, database, policy=None, max_rounds=25):
        self._database = database
        self._policy = policy if policy is not None else RecencyPolicy()
        self._max_rounds = max_rounds
        self._base = database.base
        self._records = []

    # -- introspection ------------------------------------------------------
    @property
    def database(self):
        """The revised :class:`~repro.db.database.EpistemicDatabase`."""
        return self._database

    @property
    def policy(self):
        """The entrenchment policy arbitrating conflicts."""
        return self._policy

    @property
    def history(self):
        """Every :class:`RevisionResult` this revisor produced, in order —
        the revision history; each carries the database epoch it created."""
        return tuple(self._records)

    def believes(self, sentence):
        """Whether *sentence* (normalized) is currently in the base."""
        return self._normalize(sentence) in self._base

    # -- operators ----------------------------------------------------------
    def expand(self, sentence):
        """AGM expansion ``K+A``: add *sentence* without conflict resolution.
        No constraints are checked — expansion may leave the base violating
        them (a later :meth:`revise`/:meth:`update_batch` repairs).  Adding
        an already-believed sentence is a no-op (the base is a set)."""
        formula = self._normalize(sentence)
        if formula in self._base:
            return self._record(RevisionResult(
                "expand", additions=(formula,), epoch=self._database.revision_epoch,
                changed=False,
            ))
        self._database.tell(formula, check_constraints=False)
        return self._record(RevisionResult(
            "expand", additions=(formula,), epoch=self._database.revision_epoch,
        ))

    def revise(self, sentence):
        """AGM revision ``K*A``: make *sentence* believed, first retracting a
        minimal, least entrenched set of beliefs whose presence would make
        the constraints reject it.  Raises
        :class:`~repro.exceptions.RevisionError` (base untouched) when the
        sentence conflicts with the constraints on its own."""
        return self.update_batch(tells=[sentence], operation="revise")

    def contract(self, sentence):
        """AGM contraction ``K-A``: remove *sentence* (every occurrence) and
        whatever the constraints then force out — e.g. contracting a
        department cascades into its referencing assignments.  Contracting a
        non-belief is a no-op (vacuity)."""
        formula = self._normalize(sentence)
        if formula not in self._base:
            return self._record(RevisionResult(
                "contract", removals=(formula,),
                epoch=self._database.revision_epoch, changed=False,
            ))
        return self.update_batch(retracts=[formula], operation="contract")

    def update_batch(self, tells=(), retracts=(), operation="update"):
        """The general operator: apply a net batch of assertions and
        retractions as one unit, retracting in addition a minimal, least
        entrenched set of beliefs so the result satisfies the integrity
        constraints.  The whole change — requested and planner-chosen —
        commits as a single transaction (one O(delta) maintenance round, one
        epoch).  Sentences in *tells* are protected: the planner never
        retracts what is being revised in."""
        additions = []
        for sentence in tells:
            formula = self._normalize(sentence)
            if formula not in additions:
                additions.append(formula)
        removals = []
        for sentence in retracts:
            formula = self._normalize(sentence)
            if formula in additions or formula in removals:
                continue
            if formula in self._base:
                removals.append(formula)
        new_additions = [formula for formula in additions if formula not in self._base]
        if not new_additions and not removals:
            return self._record(RevisionResult(
                operation, additions=tuple(additions),
                epoch=self._database.revision_epoch, changed=False,
            ))
        tracer = getattr(self._database, "tracer", NOOP_TRACER)
        extra = ()
        if self._database.constraints():
            view = self._database.violation_view()

            def preview(batch_additions, batch_retractions):
                return view.preview_report(
                    batch_additions, batch_retractions, witness_limit=None
                )

            with tracer.span("revision.plan", operation=operation) as span:
                extra = plan_retractions(
                    preview, self._base.counts, self._base.sequences,
                    policy=self._policy,
                    additions=new_additions, removals=removals,
                    protected=additions, max_rounds=self._max_rounds,
                )
                span.annotate(retractions_planned=len(extra))
        self._check_consistency(new_additions, removals, extra)
        with tracer.span("revision.apply", operation=operation):
            transaction = self._database.transaction()
            for sentence in removals + list(extra):
                for _ in range(self._base.count(sentence)):
                    transaction.retract(sentence)
            for sentence in new_additions:
                transaction.tell(sentence)
            report = transaction.commit()
        return self._record(RevisionResult(
            operation, additions=tuple(new_additions), removals=tuple(removals),
            retracted=tuple(extra), epoch=self._database.revision_epoch,
            report=report,
        ))

    # -- internals ----------------------------------------------------------
    def _normalize(self, sentence):
        formula = _as_formula(sentence)
        if not is_first_order(formula):
            raise NotFirstOrderError(
                "belief bases contain first-order sentences; epistemic "
                f"sentences belong in the constraints: {to_text(formula)}"
            )
        if free_variables(formula):
            raise NotASentenceError(
                f"beliefs must be closed sentences: {to_text(formula)}"
            )
        # Normalizing through simplify is what buys extensionality: inputs
        # equal up to Top/Bottom/double-negation noise revise identically.
        return simplify(formula)

    def _check_consistency(self, additions, removals, extra):
        """Prove the revised base satisfiable; skipped in O(1) when it holds
        only ground atoms, which are trivially satisfiable."""
        from repro.prover.prove import FirstOrderProver

        if not self._base.has_nonatomic and all(map(is_ground_atom, additions)):
            return
        dropped = set(removals) | set(extra)
        theory = [
            sentence
            for sentence in self._database.sentences()
            if sentence not in dropped
        ] + list(additions)
        if not FirstOrderProver.for_theory(
            theory, config=self._database.config
        ).is_satisfiable():
            raise RevisionError(
                "the revised base would be unsatisfiable; resolving logical "
                "(non-constraint) conflicts by minimal retraction is outside "
                "this layer's fragment"
            )

    def _record(self, result):
        self._records.append(result)
        return result

    def __repr__(self):
        return (
            f"BeliefRevisor({self._database!r}, "
            f"policy={type(self._policy).__name__}, "
            f"operations={len(self._records)})"
        )
