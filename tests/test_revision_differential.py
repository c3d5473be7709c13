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
``EpistemicDatabase.retract`` one-occurrence semantics on the checked path
(the commit side was pinned in PR 8; the direct path is pinned here).
"""

import pytest
from hypothesis import given, settings, strategies as st

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
        constraint_checking="incremental",
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
    from repro.constraints.checker import IntegrityChecker

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
        constraint_checking="incremental",
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
        constraint_checking="incremental",
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
        constraint_checking="incremental",
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
        constraint_checking="incremental",
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
        constraint_checking="incremental",
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
        constraint_checking="incremental",
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
        constraint_checking="incremental",
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
        config=CONFIG, constraint_checking="incremental",
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
# Satellite: EpistemicDatabase.retract one-occurrence semantics on the
# checked path, scratch and incremental (the commit side was pinned in PR 8).
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["scratch", "incremental"])
def test_direct_retract_removes_one_occurrence_under_constraints(mode):
    """A duplicated sentence survives a single checked ``retract`` — the
    constraint check must preview the one-occurrence removal, not set
    removal — and the *last* occurrence's retraction is what the constraints
    reject."""
    database = EpistemicDatabase(
        [atom("dept", "D0"), atom("dept", "D0"), atom("works_in", "A", "D0")],
        constraints=[referential_integrity("works_in", 1, "dept")],
        config=CONFIG, constraint_checking=mode,
    )
    report = database.retract(atom("dept", "D0"))
    assert report is not None and report.satisfied
    assert database.sentences().count(atom("dept", "D0")) == 1
    with pytest.raises(ConstraintViolationError):
        database.retract(atom("dept", "D0"))
    # The rejected retraction changed nothing: one occurrence remains and
    # the database still satisfies its constraints.
    assert database.sentences().count(atom("dept", "D0")) == 1
    assert database.check_constraints().satisfied


@pytest.mark.parametrize("mode", ["scratch", "incremental"])
def test_direct_retract_duplicate_with_fallback_constraint(mode):
    """Same discipline through the from-scratch fallback (unique_attribute is
    uncompilable): retracting one of two duplicate ss facts keeps the
    functional dependency violated until the real duplicate goes."""
    database = EpistemicDatabase(
        [atom("ss", "A", "S1"), atom("ss", "A", "S1"), atom("emp", "A")],
        constraints=[unique_attribute("ss")],
        config=CONFIG, constraint_checking=mode,
    )
    # Duplicate occurrences of the same (A, S1) pair never violate the FD —
    # and retracting one occurrence keeps the other.
    report = database.retract(atom("ss", "A", "S1"))
    assert report is not None and report.satisfied
    assert database.sentences().count(atom("ss", "A", "S1")) == 1
    database.tell(atom("ss", "A", "S1"))
    assert database.sentences().count(atom("ss", "A", "S1")) == 2


def test_scratch_retract_rejection_preserves_sentence_order():
    """The scratch path restores a rejected retraction by re-appending; the
    surviving content is order-insensitive for the checker, but the restore
    must keep the occurrence (regression guard for the undo discipline)."""
    base = [atom("dept", "D0"), atom("works_in", "A", "D0"), atom("dept", "D1")]
    database = EpistemicDatabase(
        base, constraints=[referential_integrity("works_in", 1, "dept")],
        config=CONFIG, constraint_checking="scratch",
    )
    with pytest.raises(ConstraintViolationError):
        database.retract(atom("dept", "D0"))
    assert sorted(database.sentences(), key=str) == sorted(base, key=str)
    assert database.check_constraints().satisfied
