"""Differential tests: view-backed revision against from-scratch search.

The revision layer's headline claim is that planning minimal retractions off
the maintained violation views (O(delta) previews) computes *exactly* what a
naive retract-until-consistent search over from-scratch constraint checks
would — same retraction sets, same final bases, same failures.  This
harness replays random deliberately conflicting update streams through both
stacks:

* :class:`~repro.revision.operators.BeliefRevisor` over an
  ``EpistemicDatabase`` with incremental checking, whose maintained
  violation model is also checked against a ``semi-naive`` recompute;
* :func:`~repro.revision.naive.naive_update_batch` over a plain sentence
  list, every probe a full :class:`~repro.constraints.checker.IntegrityChecker`
  re-evaluation;

and asserts sentence-for-sentence equality after every operation, plus
identical :class:`~repro.exceptions.RevisionError` behaviour (and an
untouched database when one is raised).  Directed tests pin the seams the
harness-style streams are built to stress: duplicated sentences under the
full-occurrence retraction discipline of belief change, cascade repairs,
plan minimality (no over-retraction survives the give-back pass), and the
``EpistemicDatabase.retract`` one-occurrence semantics on the checked path,
each verdict judged by the from-scratch checker on the post-update base.
"""

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
from repro.datalog.engine import DatalogEngine
from repro.db.database import EpistemicDatabase
from repro.exceptions import ConstraintViolationError, RevisionError
from repro.logic.builders import atom, disj
from repro.revision import BeliefRevisor, naive_update_batch
from repro.semantics.config import SemanticsConfig
from repro.workloads import (
    hr_constraints,
    hr_facts,
    iterated_revision_stream,
)

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

#: while present, constraints over male/female re-check from scratch inside
#: the view too (runtime fallback) — the harness must agree there as well.
NONATOMIC = disj([atom("male", "C"), atom("female", "C")])

SENTENCE_POOL = FACT_POOL + [NONATOMIC]

CONSTRAINT_POOL = [
    mandatory_known_attribute("emp", "ss"),
    disjoint_properties("male", "female"),
    total_property("person", "male", "female"),
    referential_integrity("works_in", 1, "dept"),
    unique_attribute("ss"),  # compile-time fallback: negated-equality
]

#: the engine matrix, down to its one cell: the views' columnar-indexed
#: engine, whose maintained model is checked against the semi-naive oracle.
ENGINE_CELLS = ("columnar",)


def assert_view_matches_semi_naive(database):
    """The violation view's maintained model equals a from-scratch
    evaluation of its program by the set-based ``semi-naive`` oracle."""
    materialized = database.violation_view().materialized
    oracle = DatalogEngine(materialized.program, strategy="semi-naive", check="off")
    assert materialized.model() == oracle.least_model()


def run_differential(constraints, initial, operations):
    """Replay *operations* — ``(tells, retracts)`` belief-change batches —
    through the view-backed operator and the naive baseline, asserting
    identical outcomes after every step."""
    database = EpistemicDatabase(
        initial, constraints=constraints, config=CONFIG,
    )
    revisor = BeliefRevisor(database)
    shadow = list(initial)
    for tells, retracts in operations:
        try:
            result = revisor.update_batch(tells=tells, retracts=retracts)
        except RevisionError:
            with pytest.raises(RevisionError):
                naive_update_batch(
                    shadow, constraints, tells=tells, retracts=retracts,
                    config=CONFIG,
                )
            # The failed operation left the database untouched.
            assert database.sentences() == shadow
            continue
        shadow, additions, removals, retracted = naive_update_batch(
            shadow, constraints, tells=tells, retracts=retracts, config=CONFIG,
        )
        assert result.additions == additions
        assert result.removals == removals
        assert result.retracted == retracted
        assert database.sentences() == shadow
        assert_view_matches_semi_naive(database)
    # Both stacks agree on the final verdict too.
    scratch = IntegrityChecker(constraints=constraints, config=CONFIG).check(
        shadow, with_witnesses=False
    )
    assert database.check_constraints().satisfied == scratch.satisfied


operation_lists = st.lists(
    st.tuples(
        st.lists(st.sampled_from(SENTENCE_POOL), max_size=3),
        st.lists(st.sampled_from(SENTENCE_POOL), max_size=2),
    ),
    min_size=1,
    max_size=4,
)
constraint_sets = st.lists(
    st.sampled_from(CONSTRAINT_POOL), min_size=1, max_size=3, unique_by=id
)
initial_states = st.lists(st.sampled_from(SENTENCE_POOL), max_size=6)


@settings(max_examples=30, deadline=None)
@given(constraints=constraint_sets, initial=initial_states,
       operations=operation_lists)
def test_operator_equals_naive_on_random_streams(constraints, initial,
                                                 operations):
    run_differential(constraints, initial, operations)


@pytest.mark.slow
@pytest.mark.parametrize("cell", ENGINE_CELLS, ids=ENGINE_CELLS)
@settings(max_examples=8, deadline=None)
@given(constraints=constraint_sets, initial=initial_states,
       operations=operation_lists)
def test_operator_equals_naive_across_engine_matrix(cell, constraints,
                                                    initial, operations):
    run_differential(constraints, initial, operations)


def test_operator_equals_naive_on_iterated_revision_workload():
    """The benchmark workload itself, verified step-by-step against the
    baseline and the stream's own expected retractions."""
    entities = 8
    constraints = hr_constraints()
    facts = hr_facts(employees=entities, departments=3)
    database = EpistemicDatabase(
        facts, constraints=constraints, config=CONFIG,
    )
    revisor = database.revision()
    shadow = list(facts)
    stream = iterated_revision_stream(
        entities=entities, steps=6, seed=7, conflict_ratio=0.7
    )
    for sentence, expected in stream:
        result = revisor.revise(sentence)
        shadow, _, _, retracted = naive_update_batch(
            shadow, constraints, tells=[sentence], config=CONFIG
        )
        assert result.retracted == expected == retracted
        assert database.sentences() == shadow


# ---------------------------------------------------------------------------
# Directed regressions for the seams the streams stress
# ---------------------------------------------------------------------------


def test_revision_retracts_every_occurrence_of_a_duplicated_belief():
    """Belief change treats the base as a set: revising against a fact that
    was told twice must retract *both* occurrences (a single-occurrence
    retraction would leave the conflict standing and the commit would
    reject)."""
    base = [atom("person", "A"), atom("male", "A"), atom("male", "A")]
    constraints = [
        disjoint_properties("male", "female"),
        total_property("person", "male", "female"),
    ]
    database = EpistemicDatabase(
        base, constraints=constraints, config=CONFIG,
    )
    result = database.revision().revise(atom("female", "A"))
    assert result.retracted == (atom("male", "A"),)
    assert database.sentences() == [atom("person", "A"), atom("female", "A")]
    shadow, _, _, retracted = naive_update_batch(
        base, constraints, tells=[atom("female", "A")], config=CONFIG
    )
    assert retracted == result.retracted
    assert shadow == database.sentences()


def test_cascading_contraction_matches_naive():
    """Contracting a referenced entity cascades: the department goes, and the
    constraints then force out every assignment referencing it — identically
    in both stacks."""
    base = [
        atom("dept", "D0"), atom("dept", "D1"),
        atom("works_in", "A", "D0"), atom("works_in", "B", "D0"),
        atom("works_in", "C", "D1"),
    ]
    constraints = [referential_integrity("works_in", 1, "dept")]
    database = EpistemicDatabase(
        base, constraints=constraints, config=CONFIG,
    )
    result = database.revision().contract(atom("dept", "D0"))
    shadow, _, removals, retracted = naive_update_batch(
        base, constraints, retracts=[atom("dept", "D0")], config=CONFIG
    )
    assert result.removals == removals == (atom("dept", "D0"),)
    assert set(result.retracted) == set(retracted) == {
        atom("works_in", "A", "D0"), atom("works_in", "B", "D0"),
    }
    assert database.sentences() == shadow == [
        atom("dept", "D1"), atom("works_in", "C", "D1"),
    ]


def test_plan_is_inclusion_minimal():
    """The give-back pass drops over-retractions: two violations sharing one
    support fact need one retraction, not two."""
    # works_in(A, D0) violates both typing directions at once; retracting it
    # alone repairs both violations — emp/dept typing facts must survive.
    from repro.constraints.library import known_instances_typed

    base = [atom("works_in", "A", "D0")]
    constraints = [known_instances_typed("works_in", ("emp",), ("dept",))]
    database = EpistemicDatabase(
        base, constraints=constraints, config=CONFIG,
    )
    # Telling emp(A) leaves dept(D0) missing: the only repair is retracting
    # the assignment itself — and exactly once.
    result = database.revision().update_batch(tells=[atom("emp", "A")])
    assert result.retracted == (atom("works_in", "A", "D0"),)
    assert database.sentences() == [atom("emp", "A")]


def test_give_back_returns_a_greedy_over_retraction():
    """When round one picks a different least-entrenched support per
    violation but one of the picks alone repairs everything, the give-back
    pass must return the other: q(A) sits in both disjointness conflicts,
    so retracting it (alone) suffices — r(A), greedily chosen for the
    (q, r) conflict because it is newer, comes back."""
    base = [atom("p", "A"), atom("q", "A"), atom("r", "A")]
    constraints = [
        disjoint_properties("p", "q"),
        disjoint_properties("q", "r"),
    ]
    database = EpistemicDatabase(
        base, constraints=constraints, config=CONFIG,
    )
    shadow = list(base)
    result = database.revision().update_batch(tells=[atom("s", "B")])
    shadow, _, _, naive_retracted = naive_update_batch(
        shadow, constraints, tells=[atom("s", "B")], config=CONFIG
    )
    assert result.retracted == (atom("q", "A"),) == naive_retracted
    assert database.sentences() == shadow


def test_non_convergence_raises_and_leaves_the_database_untouched():
    """``max_rounds`` bounds the repair loop; an exhausted budget raises
    ``RevisionError`` with the base untouched (with a zero budget even the
    initial satisfied-check never runs)."""
    base = [atom("male", "A")]
    database = EpistemicDatabase(
        base, constraints=[disjoint_properties("male", "female")], config=CONFIG,
    )
    revisor = database.revision(max_rounds=0)
    with pytest.raises(RevisionError, match="did not converge"):
        revisor.revise(atom("female", "A"))
    assert database.sentences() == base
    assert revisor.history == ()


def test_recency_follows_the_surviving_occurrence_of_a_duplicate():
    """Regression (found by the differential harness, out-of-band
    dimension): after a *partial* retraction of a duplicated belief — a
    direct ``db.retract`` removes the earliest occurrence — the sentence's
    recency must be that of its *surviving* occurrence.  The revisor
    originally kept a scalar first-told sequence per sentence, so the dead
    occurrence made the belief look older than it was and recency-based
    repair retracted the wrong side of a conflict; the naive baseline
    (ranking by list position) disagreed."""
    initial = [atom("male", "A"), atom("female", "A"), atom("male", "A")]
    constraints = [disjoint_properties("male", "female")]
    database = EpistemicDatabase(
        initial, constraints=constraints, config=CONFIG,
    )
    revisor = BeliefRevisor(database)
    database.retract(atom("male", "A"), check_constraints=False)
    # Surviving base: [female(A), male(A)] — male(A) is now the *newer*
    # belief (its surviving occurrence was told last), so the repair the
    # benign tell triggers must retract it, exactly as the baseline does.
    result = revisor.update_batch(tells=[atom("dept", "D9")])
    shadow, _, _, retracted = naive_update_batch(
        [atom("female", "A"), atom("male", "A")],
        constraints, tells=[atom("dept", "D9")], config=CONFIG,
    )
    assert result.retracted == retracted == (atom("male", "A"),)
    assert database.sentences() == shadow


def test_failed_revision_leaves_database_and_views_untouched():
    base = [atom("emp", "A"), atom("ss", "A", "S1")]
    database = EpistemicDatabase(
        base, constraints=[mandatory_known_attribute("emp", "ss")],
        config=CONFIG,
    )
    revisor = database.revision()
    epoch = database.revision_epoch
    with pytest.raises(RevisionError):
        revisor.revise(atom("emp", "B"))  # no ss(B, _): irreparable
    assert database.sentences() == base
    assert database.revision_epoch == epoch
    assert database.check_constraints().satisfied
    # The failure is not recorded as a change and the view still previews.
    assert revisor.history == ()
    assert not database.violation_view().preview_report(
        [atom("emp", "B")], []
    ).satisfied


# ---------------------------------------------------------------------------
# EpistemicDatabase.retract one-occurrence semantics on the checked path,
# every verdict judged by the from-scratch checker on the post-update base.
# ---------------------------------------------------------------------------


def checked(database, update, additions=(), retractions=()):
    """Run the checked *update* of ``(additions, retractions)``: it must be
    accepted exactly when ``IntegrityChecker.check`` finds the post-update
    base consistent (Definition 3.5), and a rejection must leave the base
    and the epoch as they were.  Returns whether it was accepted."""
    after = database.base.updated(additions, retractions)
    expected = IntegrityChecker(
        constraints=database.constraints(), config=CONFIG
    ).check(after, witness_limit=None)
    before, epoch = database.sentences(), database.revision_epoch
    if expected.satisfied:
        assert update().satisfied
        assert database.sentences() == after
        return True
    with pytest.raises(ConstraintViolationError):
        update()
    assert database.sentences() == before
    assert database.revision_epoch == epoch
    return False


def test_direct_retract_removes_one_occurrence_under_constraints():
    """A duplicated sentence survives a single checked ``retract`` — the
    constraint check must preview the one-occurrence removal, not set
    removal — and the *last* occurrence's retraction is what the constraints
    reject."""
    database = EpistemicDatabase(
        [atom("dept", "D0"), atom("dept", "D0"), atom("works_in", "A", "D0")],
        constraints=[referential_integrity("works_in", 1, "dept")],
        config=CONFIG,
    )
    dept = atom("dept", "D0")
    assert checked(database, lambda: database.retract(dept), retractions=[dept])
    assert database.sentences().count(dept) == 1
    assert not checked(database, lambda: database.retract(dept), retractions=[dept])
    # The rejected retraction changed nothing: one occurrence remains and
    # the database still satisfies its constraints.
    assert database.sentences().count(dept) == 1
    assert database.check_constraints().satisfied


def test_direct_retract_duplicate_with_fallback_constraint():
    """Same discipline through the from-scratch fallback (unique_attribute is
    uncompilable): retracting one of two duplicate ss facts keeps the
    functional dependency violated until the real duplicate goes."""
    database = EpistemicDatabase(
        [atom("ss", "A", "S1"), atom("ss", "A", "S1"), atom("emp", "A")],
        constraints=[unique_attribute("ss")],
        config=CONFIG,
    )
    # Duplicate occurrences of the same (A, S1) pair never violate the FD —
    # and retracting one occurrence keeps the other.
    ss = atom("ss", "A", "S1")
    assert checked(database, lambda: database.retract(ss), retractions=[ss])
    assert database.sentences().count(ss) == 1
    assert checked(database, lambda: database.tell(ss), additions=[ss])
    assert database.sentences().count(ss) == 2
    other = atom("ss", "A", "S2")
    assert not checked(database, lambda: database.tell(other), additions=[other])


def test_retract_rejection_preserves_sentence_order():
    """A rejected retraction never touches the base, so the surviving
    content keeps its order exactly (the staged check rolls back the view,
    not the base)."""
    base = [atom("dept", "D0"), atom("works_in", "A", "D0"), atom("dept", "D1")]
    database = EpistemicDatabase(
        base, constraints=[referential_integrity("works_in", 1, "dept")],
        config=CONFIG,
    )
    dept = atom("dept", "D0")
    assert not checked(database, lambda: database.retract(dept), retractions=[dept])
    assert database.sentences() == base
    assert database.check_constraints().satisfied


# ---------------------------------------------------------------------------
# Support templates
# ---------------------------------------------------------------------------

def uncached_support(constraint, witness):
    """The support of one witness derived from scratch: the admissible
    form, the body's witness variables sorted by name, the witness
    substituted into the body, its positive atoms."""
    from repro.constraints.views import _support_atoms
    from repro.logic.substitution import substitute
    from repro.logic.syntax import Exists, Not, free_variables
    from repro.logic.transform import to_admissible_form

    admissible = to_admissible_form(constraint)
    if not isinstance(admissible, Not):
        return ()
    body, variables = admissible.body, []
    while isinstance(body, Exists):
        variables.append(body.variable)
        body = body.body
    names = sorted({v.name for v in variables} & {v.name for v in free_variables(body)})
    if witness and len(names) != len(witness):
        return ()
    by_name = {variable.name: variable for variable in variables}
    mapping = {by_name[name]: value for name, value in zip(names, witness)}
    collected = []
    _support_atoms(substitute(body, mapping) if mapping else body, True, collected)
    return tuple(dict.fromkeys(collected))


def test_support_templates_match_the_uncached_derivation():
    """Every witness of every HR constraint (the fallback one included)
    gets the support a from-scratch derivation gives, and so do a bare
    pattern call and a witness of the wrong arity."""
    from repro.constraints.views import violation_support

    constraints = hr_constraints(with_fallback=True)
    base = [
        atom("emp", "A"),                                  # no ss
        atom("male", "B"), atom("female", "B"),            # both genders
        atom("person", "C"),                               # no gender
        atom("works_in", "A", "D9"),                       # unknown dept
        atom("ss", "B", "S1"), atom("ss", "B", "S2"),      # two ss
    ]
    report = IntegrityChecker(constraints=constraints, config=CONFIG).check(
        base, witness_limit=None
    )
    violated = {violation.constraint for violation in report.violations}
    assert violated == set(constraints)
    for violation in report.violations:
        constraint = violation.constraint
        assert violation.witnesses
        for witness in violation.witnesses:
            assert violation_support(constraint, witness) == uncached_support(
                constraint, witness
            )
        assert violation_support(constraint) == uncached_support(constraint, ())
        too_long = violation.witnesses[0] + violation.witnesses[0]
        assert violation_support(constraint, too_long) == () == uncached_support(
            constraint, too_long
        )
