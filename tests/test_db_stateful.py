"""Stateful test of the whole update API against a plain list.

A :class:`hypothesis.stateful.RuleBasedStateMachine` drives one small
HR-style database, built with defaults — its constraint check is the
maintained ``ViolationView`` — with two ``DatalogView`` objects (one of them
derives ``dept``, which the base also stores), the ``ViolationView`` and a
``BeliefRevisor`` all hanging off the same belief base and its one EDB
store, with tells, retractions (of absent and duplicated sentences too),
transaction commits and rollbacks, revisions, and tells during which one
maintained view raises while it stages or while it prepares its commit.  The reference model is a Python list with
earliest-first removal, judged by the from-scratch
:class:`~repro.constraints.checker.IntegrityChecker`; revisions are replayed
through :func:`~repro.revision.naive.naive_revise`.  After every step the
database, its views and the revisor must agree with the list, and the
maintained violation view with a freshly built one.  A write whose staging
raised must leave the base, the epoch and every maintained model as they
were, reach no update listener, and not stop the next write.
"""

import pytest
from hypothesis import assume, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.constraints.checker import IntegrityChecker
from repro.constraints.library import (
    disjoint_properties,
    mandatory_known_attribute,
    referential_integrity,
    unique_attribute,
)
from repro.constraints.views import ViolationView
from repro.datalog import (
    DatalogEngine,
    DatalogLiteral,
    DatalogProgram,
    DatalogRule,
    JoinStatistics,
)
from repro.db.database import EpistemicDatabase
from repro.exceptions import ConstraintViolationError, RevisionError
from repro.logic.builders import atom, disj
from repro.logic.parser import parse
from repro.logic.printer import to_text
from repro.logic.syntax import Atom
from repro.logic.terms import Parameter, Variable
from repro.revision.naive import naive_revise
from repro.semantics.config import SemanticsConfig

CONFIG = SemanticsConfig(extra_parameters=1)

CONSTRAINTS = [
    mandatory_known_attribute("emp", "ss"),
    disjoint_properties("male", "female"),
    referential_integrity("works_in", 1, "dept"),
    unique_attribute("ss"),  # compile-time fallback: checked from scratch
]

#: ground atoms of a miniature HR database, plus one disjunction that sends
#: the gender constraint to the run-time fallback while it is believed, and
#: one rule that links ``r`` to ``ss``: while it is believed, ``r(B)`` makes
#: ``ss(B, S9)`` known, and the ``ss`` constraints go to the run-time
#: fallback too.
POOL = [
    atom("emp", "A"), atom("ss", "A", "S1"), atom("ss", "A", "S2"),
    atom("emp", "B"), atom("ss", "B", "S3"),
    atom("male", "A"), atom("female", "A"), atom("male", "B"),
    atom("works_in", "A", "D0"), atom("works_in", "B", "D1"), atom("dept", "D0"),
    disj([atom("male", "C"), atom("female", "C")]),
    parse("forall x. r(x) -> ss(x, S9)"), atom("r", "B"),
]

X, D = Variable("x"), Variable("d")
RULES = [
    DatalogRule(
        Atom("assigned", (X, D)),
        (DatalogLiteral(Atom("emp", (X,))), DatalogLiteral(Atom("works_in", (X, D)))),
    ),
]
#: ``dept`` is derived here and also stored in the base: the view keeps a
#: private relation for it, seeded from the EDB store.
DEPT_RULES = [
    DatalogRule(Atom("dept", (D,)), (DatalogLiteral(Atom("works_in", (X, D))),)),
]

sentences = st.sampled_from(POOL)


def is_ground_atom(sentence):
    return isinstance(sentence, Atom) and all(
        isinstance(arg, Parameter) for arg in sentence.args
    )


def apply(reference, additions, retractions):
    """The commit discipline over a list: each retraction removes the
    earliest occurrence, then the additions are appended."""
    result = list(reference)
    for sentence in retractions:
        if sentence in result:
            result.remove(sentence)
    return result + list(additions)


class InjectedFault(Exception):
    pass


def violation_map(report):
    return {
        to_text(violation.constraint): sorted(
            tuple(p.name for p in witness) for witness in violation.witnesses
        )
        for violation in report.violations
    }


class DatabaseMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.reference = [atom("dept", "D0"), atom("emp", "A"),
                          atom("ss", "A", "S1"), atom("dept", "D0")]
        self.database = EpistemicDatabase(
            self.reference, constraints=CONSTRAINTS, config=CONFIG,
        )
        self.view = self.database.datalog_view(rules=RULES)
        self.database.violation_view()
        self.dept_view = self.database.datalog_view(rules=DEPT_RULES)
        self.revisor = self.database.revision()
        self.checker = IntegrityChecker(constraints=CONSTRAINTS, config=CONFIG)
        self.epoch = self.database.revision_epoch
        self.notified = []
        self.database.add_update_listener(
            lambda added, removed: self.notified.append(added)
        )

    def satisfied(self, theory):
        return self.checker.check(theory, witness_limit=None).satisfied

    def expect(self, update, after, changed):
        """Run *update*; it must be accepted exactly when *after* satisfies
        the constraints, and then leave *after* behind."""
        if self.satisfied(after):
            update()
            self.reference = after
            self.epoch += 1 if changed else 0
        else:
            try:
                update()
            except ConstraintViolationError:
                return
            raise AssertionError("a violating update was accepted")

    @rule(sentence=sentences, check=st.booleans())
    def tell(self, sentence, check):
        after = self.reference + [sentence]
        if check:
            self.expect(lambda: self.database.tell(sentence), after, True)
        else:
            self.database.tell(sentence, check_constraints=False)
            self.reference = after
            self.epoch += 1

    @rule(sentence=sentences, position=st.integers(min_value=0, max_value=9))
    def retract(self, sentence, position):
        # Mostly a believed sentence (duplicates included), else a pool one.
        if position < len(self.reference):
            sentence = self.reference[position]
        if sentence not in self.reference:
            assert self.database.retract(sentence) is None
            return
        after = apply(self.reference, (), [sentence])
        self.expect(lambda: self.database.retract(sentence), after, True)

    @rule(batch=st.lists(st.tuples(st.booleans(), sentences), min_size=1, max_size=4))
    def commit(self, batch):
        additions = [sentence for is_add, sentence in batch if is_add]
        retractions = [sentence for is_add, sentence in batch if not is_add]
        transaction = self.database.transaction()
        for sentence in additions:
            transaction.tell(sentence)
        for sentence in retractions:
            transaction.retract(sentence)
        after = apply(self.reference, additions, retractions)
        changed = after != self.reference or bool(additions)
        self.expect(transaction.commit, after, changed)

    @rule(batch=st.lists(st.tuples(st.booleans(), sentences), min_size=1, max_size=3))
    def rollback(self, batch):
        transaction = self.database.transaction()
        for is_add, sentence in batch:
            (transaction.tell if is_add else transaction.retract)(sentence)
        transaction.rollback()

    @rule(sentence=sentences, check=st.booleans(),
          failing=st.sampled_from(["view", "violations"]))
    def tell_while_a_view_fails_to_stage(self, sentence, check, failing):
        # A new ground atom reaches every view's staging unless a checked
        # constraint rejects it first; either way nothing may change.
        assume(is_ground_atom(sentence) and sentence not in self.reference)
        view = self.view if failing == "view" else self.database.violation_view()
        faults = []

        def fail_once(*args):
            del view.materialized._stage
            faults.append(args)
            raise InjectedFault(f"{failing} failed to stage")

        view.materialized._stage = fail_once
        notified = len(self.notified)
        with pytest.raises((InjectedFault, ConstraintViolationError)):
            self.database.tell(sentence, check_constraints=check)
        if "_stage" in vars(view.materialized):
            del view.materialized._stage  # rejected before the view staged
        assert faults or check
        assert len(self.notified) == notified
        # content_matches, epoch_counts_applied_changes and the two fresh
        # build invariants check that the base, the epoch and both models
        # are unchanged.

    @rule(sentence=sentences, step=st.sampled_from(["result", "histograms"]),
          failing=st.sampled_from(["view", "violations", "dept view"]))
    def tell_while_a_view_fails_to_prepare_its_commit(self, sentence, step, failing):
        # Decoding the update result and folding the histograms run while a
        # view stages, before the base changes; a raise in either leaves
        # everything as it was, and the same tell then goes through.
        assume(is_ground_atom(sentence) and sentence not in self.reference)
        view = {"view": self.view, "dept view": self.dept_view,
                "violations": self.database.violation_view()}[failing]
        model = view.materialized
        faults = []
        original = JoinStatistics.update

        def fail_result(*args):
            faults.append(args)
            raise InjectedFault("decoding the update result failed")

        def fail_fold(statistics, index, added, removed):
            if index is model._store:
                faults.append(index)
                raise InjectedFault("folding the histograms failed")
            return original(statistics, index, added, removed)

        if step == "result":
            model._result = fail_result
        else:
            JoinStatistics.update = fail_fold
        notified = len(self.notified)
        try:
            with pytest.raises(InjectedFault):
                self.database.tell(sentence, check_constraints=False)
        finally:
            vars(model).pop("_result", None)
            JoinStatistics.update = original
        assert len(faults) == 1
        assert len(self.notified) == notified
        assert self.database.sentences() == self.reference
        assert self.database.revision_epoch == self.epoch
        self.database.tell(sentence, check_constraints=False)
        self.reference = self.reference + [sentence]
        self.epoch += 1

    @rule(sentence=sentences)
    def revise(self, sentence):
        try:
            expected = naive_revise(self.reference, CONSTRAINTS, sentence, config=CONFIG)
        except RevisionError:
            try:
                self.revisor.revise(sentence)
            except RevisionError:
                return
            raise AssertionError("the revisor repaired what the baseline could not")
        result = self.revisor.revise(sentence)
        after, additions, removals, retracted = expected
        assert (result.additions, result.retracted) == (additions, retracted)
        self.epoch += 1 if result.changed else 0
        self.reference = after

    @invariant()
    def content_matches(self):
        reference = self.reference
        assert self.database.sentences() == reference
        assert len(self.database) == len(reference)
        for sentence in POOL:
            assert (sentence in self.database) == (sentence in reference)

    @invariant()
    def revisor_matches(self):
        for sentence in POOL:
            assert self.revisor.believes(sentence) == (sentence in self.reference)
        sequences = self.database.base.sequences
        by_recency = sorted(sequences, key=sequences.get)
        assert by_recency == list(dict.fromkeys(self.reference))

    @invariant()
    def views_match_fresh_engines(self):
        for view, rules in ((self.view, RULES), (self.dept_view, DEPT_RULES)):
            program = DatalogProgram()
            for rule_ in rules:
                program.add_rule(rule_)
            for sentence in self.reference:
                if is_ground_atom(sentence):
                    program.add_fact(sentence)
            assert view.model() == DatalogEngine(program).least_model()

    @invariant()
    def constraints_match_scratch(self):
        report = self.database.check_constraints()
        scratch = self.checker.check(self.reference, witness_limit=None)
        assert report.satisfied == scratch.satisfied
        assert violation_map(report) == violation_map(scratch)

    @invariant()
    def violation_view_matches_a_fresh_build(self):
        # Rejected tells and commits roll a staged check back: what is left
        # must be exactly what building the view again would give.
        maintained = self.database.violation_view().materialized
        fresh = ViolationView(self.database, constraints=CONSTRAINTS, config=CONFIG)
        fresh.close()
        assert maintained.model() == fresh.materialized.model()
        assert (maintained.planner_statistics.snapshot()
                == fresh.materialized.planner_statistics.snapshot())

    @invariant()
    def epoch_counts_applied_changes(self):
        # One step per applied change, so the epoch never decreases.
        assert self.database.revision_epoch == self.epoch


DatabaseMachine.TestCase.settings = settings(
    max_examples=10, stateful_step_count=10, deadline=None
)
TestDatabaseMachine = DatabaseMachine.TestCase
