"""AGM postulates as executable properties of the revision layer.

The basic AGM postulates pin down what *any* reasonable revision operator
must do, independent of implementation: **success** (the new belief ends up
believed, or revision fails cleanly), **inclusion** (revision adds nothing
beyond the new belief), **vacuity** (no conflict → plain expansion),
**consistency** (the revised base satisfies the constraints), and
**extensionality** (equivalent inputs revise identically).  This module
states each as a hypothesis property over random belief bases and constraint
sets, plus iterated-revision sanity checks.

Property tests are only as good as their ability to fail, so every postulate
is also exercised against a *deliberately broken* operator — a
:class:`~repro.revision.operators.BeliefRevisor` subclass seeded with
exactly the defect the postulate forbids (silent failure, bonus beliefs,
gratuitous retraction, unresolved conflicts, syntax-sensitive behaviour) —
and the test asserts the postulate checker catches it.
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.constraints.checker import IntegrityChecker
from repro.constraints.library import (
    disjoint_properties,
    mandatory_known_attribute,
    referential_integrity,
    total_property,
    unique_attribute,
)
from repro.db.database import EpistemicDatabase
from repro.exceptions import (
    NotASentenceError,
    NotFirstOrderError,
    RevisionError,
)
from repro.logic.builders import atom
from repro.logic.syntax import And, Top
from repro.revision import BeliefRevisor, FactPriorityPolicy, RevisionResult
from repro.semantics.config import SemanticsConfig

CONFIG = SemanticsConfig(extra_parameters=1)

FACT_POOL = [
    atom("emp", "A"), atom("emp", "B"),
    atom("ss", "A", "S1"), atom("ss", "A", "S2"), atom("ss", "B", "S1"),
    atom("person", "A"), atom("person", "B"),
    atom("male", "A"), atom("female", "A"),
    atom("male", "B"), atom("female", "B"),
    atom("works_in", "A", "D0"), atom("works_in", "B", "D1"),
    atom("dept", "D0"), atom("dept", "D1"),
]

#: sentences revision is attempted with — drawn to conflict often
REVISION_POOL = [
    atom("male", "A"), atom("female", "A"),
    atom("male", "B"), atom("female", "B"),
    atom("person", "A"), atom("person", "B"),
    atom("ss", "B", "S2"), atom("works_in", "A", "D1"),
    atom("emp", "B"), atom("dept", "D0"),
]

CONSTRAINT_POOL = [
    mandatory_known_attribute("emp", "ss"),
    disjoint_properties("male", "female"),
    total_property("person", "male", "female"),
    referential_integrity("works_in", 1, "dept"),
    unique_attribute("ss"),
]

constraint_sets = st.lists(
    st.sampled_from(CONSTRAINT_POOL), min_size=1, max_size=3, unique_by=id
)
fact_draws = st.lists(st.sampled_from(FACT_POOL), max_size=8)
revision_inputs = st.sampled_from(REVISION_POOL)


def consistent_database(facts, constraints):
    """Build a constraint-satisfying base from a random fact draw: facts are
    admitted greedily, dropping any that would violate — deterministic in the
    draw, so shrinking stays meaningful."""
    checker = IntegrityChecker(constraints=constraints, config=CONFIG)
    base = []
    for fact in facts:
        if checker.check(base + [fact], with_witnesses=False).satisfied:
            base.append(fact)
    return EpistemicDatabase(
        base, constraints=constraints, config=CONFIG,
    )


# ---------------------------------------------------------------------------
# The postulate checkers — shared between the hypothesis properties and the
# seeded-defect tests, so a mutant is caught by exactly the assertion the
# postulate names.
# ---------------------------------------------------------------------------


def check_success(database, addition, make_revisor=BeliefRevisor):
    """K*A: afterwards A is believed — or revision raised and changed nothing."""
    before = database.sentences()
    revisor = make_revisor(database)
    try:
        revisor.revise(addition)
    except RevisionError:
        assert database.sentences() == before
        return None
    assert addition in database.sentences()
    return revisor


def check_inclusion(database, addition, make_revisor=BeliefRevisor):
    """K*A ⊆ K+A: revision never invents beliefs beyond the one revised in."""
    before = Counter(database.sentences())
    revisor = make_revisor(database)
    try:
        revisor.revise(addition)
    except RevisionError:
        return None
    before[addition] += 1
    after = Counter(database.sentences())
    assert after <= before, f"revision invented beliefs: {after - before}"
    return revisor


def check_vacuity(database, addition, make_revisor=BeliefRevisor):
    """No conflict → K*A = K+A: revision is plain expansion."""
    checker = IntegrityChecker(
        constraints=database.constraints(), config=CONFIG
    )
    before = database.sentences()
    conflicts = not checker.check(
        before + [addition], with_witnesses=False
    ).satisfied
    revisor = make_revisor(database)
    try:
        result = revisor.revise(addition)
    except RevisionError:
        return None
    if conflicts:
        return revisor
    expected = before if addition in before else before + [addition]
    assert database.sentences() == expected
    assert result.retracted == ()
    return revisor


def check_consistency(database, addition, make_revisor=BeliefRevisor):
    """K*A satisfies the integrity constraints (when revision succeeds)."""
    revisor = make_revisor(database)
    try:
        revisor.revise(addition)
    except RevisionError:
        return None
    report = IntegrityChecker(
        constraints=database.constraints(), config=CONFIG
    ).check(database.sentences(), with_witnesses=False)
    assert report.satisfied, "revision left the constraints violated"
    return revisor


def check_extensionality(build_database, addition, make_revisor=BeliefRevisor):
    """A ≡ A∧⊤ (and A reparsed): equivalent inputs produce identical
    revisions — same final base, same retraction set, same failures."""
    variants = [addition, And(addition, Top())]
    outcomes = []
    for variant in variants:
        database = build_database()
        revisor = make_revisor(database)
        try:
            result = revisor.revise(variant)
        except RevisionError:
            outcomes.append(("error", tuple(database.sentences())))
            continue
        outcomes.append(
            (result.retracted, tuple(database.sentences()))
        )
    assert outcomes[0] == outcomes[1], (
        f"syntactic variants revised differently: {outcomes}"
    )


# ---------------------------------------------------------------------------
# Hypothesis properties
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(facts=fact_draws, constraints=constraint_sets, addition=revision_inputs)
def test_success(facts, constraints, addition):
    check_success(consistent_database(facts, constraints), addition)


@settings(max_examples=40, deadline=None)
@given(facts=fact_draws, constraints=constraint_sets, addition=revision_inputs)
def test_inclusion(facts, constraints, addition):
    check_inclusion(consistent_database(facts, constraints), addition)


@settings(max_examples=40, deadline=None)
@given(facts=fact_draws, constraints=constraint_sets, addition=revision_inputs)
def test_vacuity(facts, constraints, addition):
    check_vacuity(consistent_database(facts, constraints), addition)


@settings(max_examples=40, deadline=None)
@given(facts=fact_draws, constraints=constraint_sets, addition=revision_inputs)
def test_consistency_preservation(facts, constraints, addition):
    check_consistency(consistent_database(facts, constraints), addition)


@pytest.mark.slow
@settings(max_examples=15, deadline=None)
@given(facts=fact_draws, constraints=constraint_sets, addition=revision_inputs)
def test_extensionality(facts, constraints, addition):
    check_extensionality(
        lambda: consistent_database(facts, constraints), addition
    )


@settings(max_examples=25, deadline=None)
@given(facts=fact_draws, constraints=constraint_sets, addition=revision_inputs)
def test_contraction_success_and_vacuity(facts, constraints, addition):
    """K-A: afterwards A is not believed; contracting a non-belief changes
    nothing (and reports so)."""
    database = consistent_database(facts, constraints)
    believed = addition in database.sentences()
    before = database.sentences()
    revisor = BeliefRevisor(database)
    try:
        result = revisor.contract(addition)
    except RevisionError:
        assert database.sentences() == before
        return
    assert addition not in database.sentences()
    assert result.changed is believed
    if not believed:
        assert database.sentences() == before


# ---------------------------------------------------------------------------
# Iterated revision sanity
# ---------------------------------------------------------------------------


def flip_database():
    return EpistemicDatabase(
        [atom("person", "A"), atom("male", "A")],
        constraints=[
            disjoint_properties("male", "female"),
            total_property("person", "male", "female"),
        ],
        config=CONFIG,
    )


def test_iterated_revision_is_stable():
    """Revising back and forth between conflicting beliefs neither grows the
    base nor leaves it inconsistent: each flip retracts exactly the stale
    belief, and the most recent input always wins."""
    database = flip_database()
    revisor = database.revision()
    size = len(database)
    for round_index in range(6):
        incoming = "female" if round_index % 2 == 0 else "male"
        outgoing = "male" if round_index % 2 == 0 else "female"
        result = revisor.revise(atom(incoming, "A"))
        assert result.retracted == (atom(outgoing, "A"),)
        assert len(database) == size
        assert database.check_constraints().satisfied
    assert len(revisor.history) == 6
    epochs = [result.epoch for result in revisor.history]
    assert epochs == sorted(epochs) and len(set(epochs)) == 6


def test_repeated_revision_is_idempotent():
    database = flip_database()
    revisor = database.revision()
    first = revisor.revise(atom("female", "A"))
    assert first.changed and first.retracted == (atom("male", "A"),)
    again = revisor.revise(atom("female", "A"))
    assert not again.changed and again.retracted == ()
    assert database.sentences().count(atom("female", "A")) == 1


def test_expand_then_revise_repairs_the_expansion():
    """Expansion may break the constraints; the next revision repairs, and
    the repair retracts the *least entrenched* (newest) offender."""
    database = flip_database()
    revisor = database.revision()
    revisor.expand(atom("female", "A"))  # unchecked: base now violates
    assert not database.check_constraints().satisfied
    result = revisor.revise(atom("male", "B"))
    # The planner repairs whatever it finds violated, not just what the new
    # belief caused: the stale gender conflict goes, newest offender first.
    assert result.retracted == (atom("female", "A"),)
    assert database.check_constraints().satisfied


def test_fact_priority_policy_overrides_recency():
    """With works_in outranked by gender facts, resolving a duplicate-ss
    conflict sacrifices the lower-priority fact even though it is older."""
    database = EpistemicDatabase(
        [atom("male", "A"), atom("female", "B")],
        constraints=[disjoint_properties("male", "female")],
        config=CONFIG,
    )
    # Recency would retract female(B) (newer); priorities protect it.
    revisor = database.revision(
        policy=FactPriorityPolicy({"male": -1, "female": 1})
    )
    result = revisor.update_batch(tells=[atom("male", "B")])
    assert result.retracted == (atom("female", "B"),)


# ---------------------------------------------------------------------------
# Seeded defects: each postulate's checker must catch the operator built to
# violate exactly that postulate.
# ---------------------------------------------------------------------------

MARKER = atom("audit", "M")


class BrokenSuccess(BeliefRevisor):
    """Swallows irreparable conflicts instead of raising — reports success
    without the new belief ever entering the base."""

    def update_batch(self, tells=(), retracts=(), operation="update"):
        try:
            return super().update_batch(tells, retracts, operation)
        except RevisionError:
            return RevisionResult(
                operation, epoch=self.database.revision_epoch, changed=False
            )


class BrokenInclusion(BeliefRevisor):
    """Slips an extra bookkeeping belief into every successful revision."""

    def update_batch(self, tells=(), retracts=(), operation="update"):
        result = super().update_batch(tells, retracts, operation)
        if result.changed:
            self.database.tell(MARKER, check_constraints=False)
        return result


class BrokenVacuity(BeliefRevisor):
    """Retracts the most entrenched belief even when nothing conflicts."""

    def update_batch(self, tells=(), retracts=(), operation="update"):
        result = super().update_batch(tells, retracts, operation)
        if result.changed and not result.retracted:
            survivors = [s for s in self.database.sentences()
                         if s not in result.additions]
            if survivors:
                self.database.retract(survivors[0], check_constraints=False)
        return result


class BrokenConsistency(BeliefRevisor):
    """Adds the new belief without planning any repair — conflicts stay."""

    def update_batch(self, tells=(), retracts=(), operation="update"):
        additions = tuple(self._normalize(sentence) for sentence in tells)
        for sentence in additions:
            if sentence not in self.database.sentences():
                self.database.tell(sentence, check_constraints=False)
        return RevisionResult(
            operation, additions=additions,
            epoch=self.database.revision_epoch,
        )


class BrokenExtensionality(BeliefRevisor):
    """Skips input normalization — behaviour depends on how A is spelled."""

    def _normalize(self, sentence):
        from repro.db.database import _as_formula

        return _as_formula(sentence)


def _success_scenario():
    return EpistemicDatabase(
        [atom("emp", "A"), atom("ss", "A", "S1")],
        constraints=[mandatory_known_attribute("emp", "ss")],
        config=CONFIG,
    )


def _conflict_scenario():
    return EpistemicDatabase(
        [atom("person", "A"), atom("male", "A")],
        constraints=[
            disjoint_properties("male", "female"),
            total_property("person", "male", "female"),
        ],
        config=CONFIG,
    )


def test_postulate_checkers_pass_the_real_operator():
    check_success(_success_scenario(), atom("emp", "B"))
    check_inclusion(_conflict_scenario(), atom("female", "A"))
    check_vacuity(_conflict_scenario(), atom("person", "B"))
    check_consistency(_conflict_scenario(), atom("female", "A"))
    check_extensionality(_conflict_scenario, atom("female", "A"))


def test_success_check_catches_silent_failure():
    # revise(emp(B)) is irreparable (B has no ss); the broken operator
    # reports success anyway, with emp(B) nowhere in the base.
    with pytest.raises(AssertionError):
        check_success(
            _success_scenario(), atom("emp", "B"), make_revisor=BrokenSuccess
        )


def test_inclusion_check_catches_invented_beliefs():
    with pytest.raises(AssertionError):
        check_inclusion(
            _conflict_scenario(), atom("female", "A"),
            make_revisor=BrokenInclusion,
        )


def test_vacuity_check_catches_gratuitous_retraction():
    with pytest.raises(AssertionError):
        check_vacuity(
            _conflict_scenario(), atom("female", "B"),
            make_revisor=BrokenVacuity,
        )


def test_consistency_check_catches_unresolved_conflicts():
    with pytest.raises(AssertionError):
        check_consistency(
            _conflict_scenario(), atom("female", "A"),
            make_revisor=BrokenConsistency,
        )


def test_extensionality_check_catches_syntax_sensitivity():
    with pytest.raises(AssertionError):
        check_extensionality(
            _conflict_scenario, atom("female", "A"),
            make_revisor=BrokenExtensionality,
        )


# ---------------------------------------------------------------------------
# Input validation
# ---------------------------------------------------------------------------


def test_revise_rejects_epistemic_and_open_inputs():
    revisor = _conflict_scenario().revision()
    with pytest.raises(NotFirstOrderError):
        revisor.revise("K male(A)")
    with pytest.raises(NotASentenceError):
        revisor.revise("male(?x)")
