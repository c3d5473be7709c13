"""Check by applying: a database's one constraint check stages the batch on
the violation model, commits it when the report is satisfied and rolls it
back otherwise.

* An accepted ``tell``, ``retract`` or ``commit`` runs exactly one
  maintenance round per maintained model; a rejected one runs the violation
  model forward and back and leaves every other model alone.
* A rejected or raising check leaves the violation model exactly as it was:
  its model, its derivation counts, its planner histograms and the version
  stamp of the EDB store it reads.  A raising check also leaves the base,
  the epoch and every update listener untouched.
* Violation deltas reach delta listeners exactly once, when the staged
  batch commits: also those an update listener causes by changing the base
  again while the outer write is still being delivered, and those a
  committed check removes.
* It is the only check, and the default one: its verdict is Definition 3.5
  on the post-update base even when a rule links a constraint's predicates
  to an untouched one, and on an atomic base whose constraints all compile
  no write builds an epistemic reducer.
"""

import pytest

from repro.constraints.checker import IntegrityChecker
from repro.constraints.library import mandatory_known_attribute
from repro.constraints.views import ViolationView
from repro.datalog import DatalogLiteral, DatalogRule
from repro.db.database import EpistemicDatabase
from repro.exceptions import ConstraintViolationError
from repro.logic.builders import atom
from repro.logic.parser import parse
from repro.logic.syntax import Atom
from repro.logic.terms import Variable
from repro.obs import Tracer
from repro.semantics.config import SemanticsConfig
from repro.semantics.reduction import EpistemicReducer
from repro.workloads.constraints import hr_constraints, hr_facts

X, D = Variable("x"), Variable("d")
ASSIGNED = DatalogRule(
    Atom("assigned", (X, D)),
    (DatalogLiteral(Atom("emp", (X,))), DatalogLiteral(Atom("works_in", (X, D)))),
)


def hr_database(employees, with_fallback=False):
    # The fallback constraint is checked from scratch at super-linear cost,
    # so the databases that carry it stay tiny.
    database = EpistemicDatabase(
        hr_facts(employees, departments=4),
        constraints=hr_constraints(with_fallback=with_fallback),
    )
    violations = database.violation_view()
    view = database.datalog_view(rules=[ASSIGNED])
    return database, violations, view


def maintained_state(materialized):
    """Everything a rolled-back batch must leave as it found."""
    model = materialized.model()
    counting = {
        fact: materialized.derivation_count(fact)
        for fact in model.atoms
        if materialized._kind.get((fact.predicate, len(fact.args))) == "counting"
    }
    return (
        model,
        counting,
        dict(materialized._counts),  # also no count left on a vanished atom
        materialized.planner_statistics.snapshot(),
        materialized.program.facts.version,
    )


def fresh_state(database):
    """The violation model and histograms a freshly built view would have."""
    fresh = ViolationView(database, constraints=database.constraints(),
                          config=database.config)
    fresh.close()
    return fresh.materialized.model(), fresh.materialized.planner_statistics.snapshot()


# ---------------------------------------------------------------------------
# One maintenance round per accepted write
# ---------------------------------------------------------------------------

def test_accepted_writes_maintain_each_model_once():
    database, violations, view = hr_database(200)
    tracers = {"violations": Tracer(), "view": Tracer()}
    violations.materialized.engine.tracer = tracers["violations"]
    view.materialized.engine.tracer = tracers["view"]

    def rounds(update):
        for tracer in tracers.values():
            tracer.clear()
        update()
        return {
            name: sum(entry["name"] == "maintenance.batch" for entry in tracer.entries)
            for name, tracer in tracers.items()
        }

    told = atom("ss", "E0", "Y0")
    assert rounds(lambda: database.tell(told)) == {"violations": 1, "view": 1}
    assert rounds(lambda: database.retract(told)) == {"violations": 1, "view": 1}

    def hire():
        with database.transaction() as transaction:
            transaction.tell(atom("emp", "E200"))
            transaction.tell(atom("ss", "E200", "S200"))

    assert rounds(hire) == {"violations": 1, "view": 1}

    def rejected():
        with pytest.raises(ConstraintViolationError):
            database.tell(atom("female", "E0"))  # E0 is male

    assert rounds(rejected) == {"violations": 2, "view": 0}
    assert database.check_constraints().satisfied
    assert violations.materialized.model() == fresh_state(database)[0]


# ---------------------------------------------------------------------------
# Rollback and fault injection
# ---------------------------------------------------------------------------

def test_rejected_writes_leave_the_violation_model_unchanged():
    database, violations, _ = hr_database(6, with_fallback=True)
    materialized = violations.materialized
    before = maintained_state(materialized)

    with pytest.raises(ConstraintViolationError):
        database.tell(atom("female", "E0"))
    assert maintained_state(materialized) == before

    transaction = database.transaction()
    transaction.tell(atom("emp", "E6"))  # no ss: a mandatory-attribute violation
    transaction.retract(atom("dept", "D3"))  # E3 still works in D3
    with pytest.raises(ConstraintViolationError):
        transaction.commit()
    assert maintained_state(materialized) == before
    assert database.tell(atom("dept", "D9")).satisfied


@pytest.mark.parametrize("write", ["tell", "commit"])
def test_a_raising_check_rolls_back_and_notifies_nobody(monkeypatch, write):
    database, violations, view = hr_database(6, with_fallback=True)
    materialized = violations.materialized
    before = maintained_state(materialized)
    base = database.sentences()
    epoch = database.revision_epoch
    view_model = view.model()
    notified = []
    database.add_update_listener(lambda added, removed: notified.append(added))

    def failing(*args, **kwargs):
        raise RuntimeError("fallback checker failed")

    monkeypatch.setattr(violations._checker, "check", failing)
    with pytest.raises(RuntimeError, match="fallback checker failed"):
        if write == "tell":
            database.tell(atom("dept", "D9"))
        else:
            transaction = database.transaction()
            transaction.tell(atom("emp", "E6"))
            transaction.tell(atom("ss", "E6", "S6"))
            transaction.retract(atom("works_in", "E1", "D1"))
            transaction.commit()

    assert maintained_state(materialized) == before
    assert materialized._staged is None
    assert database.sentences() == base
    assert database.revision_epoch == epoch
    assert view.model() == view_model
    assert notified == []

    monkeypatch.undo()
    assert database.tell(atom("dept", "D9")).satisfied
    assert materialized.model() == fresh_state(database)[0]


# ---------------------------------------------------------------------------
# Violation deltas after a committed check
# ---------------------------------------------------------------------------

def test_deltas_reach_listeners_once_when_an_earlier_listener_writes_again():
    database = EpistemicDatabase(
        hr_facts(20), constraints=hr_constraints(),
    )

    def cascade(added, removed):
        # Runs once every view has committed the outer write and its
        # violation deltas went out, and changes the base again while that
        # write is still being delivered.
        if atom("emp", "E20") in added:
            database.tell(atom("female", "E0"), check_constraints=False)

    database.add_update_listener(cascade)
    violations = database.violation_view()
    seen = {}

    def record(added, removed):
        for constraint_id, witnesses in added.items():
            assert not seen.setdefault(constraint_id, set()) & set(witnesses)
            seen[constraint_id] |= set(witnesses)
        for constraint_id, witnesses in removed.items():
            assert set(witnesses) <= seen.get(constraint_id, set())
            seen[constraint_id] -= set(witnesses)

    def agree():
        current = {cid: set(w) for cid, w in violations.violations().items() if w}
        assert {cid: w for cid, w in seen.items() if w} == current
        assert violations.materialized.model() == fresh_state(database)[0]
        return current

    violations.add_delta_listener(record)
    with database.transaction() as transaction:
        transaction.tell(atom("emp", "E20"))
        transaction.tell(atom("ss", "E20", "S20"))
    assert agree()  # the cascaded gender clash
    # A checked repair: the clash disappears with the batch the check
    # staged, and its removal reaches the delta listener once, on commit.
    database.retract(atom("female", "E0"))
    assert not agree()


# ---------------------------------------------------------------------------
# The one check, by default
# ---------------------------------------------------------------------------

def test_a_rule_mediated_retraction_is_rejected_by_default():
    # Retracting r(A) touches no predicate of the constraint, yet the rule
    # was what made ss(A, S) known: after it, emp(A) has no known number.
    config = SemanticsConfig(extra_parameters=1)
    constraint = mandatory_known_attribute("emp", "ss")
    base = [atom("emp", "A"), atom("r", "A"), parse("forall x. r(x) -> ss(x, S)")]
    database = EpistemicDatabase(base, constraints=[constraint], config=config)
    assert database.check_constraints().satisfied
    epoch = database.revision_epoch
    after = database.base.updated((), [atom("r", "A")])
    assert not IntegrityChecker([constraint], config=config).check(after).satisfied

    with pytest.raises(ConstraintViolationError) as rejected:
        database.retract(atom("r", "A"))
    assert [v.constraint for v in rejected.value.violations] == [constraint]
    assert database.sentences() == base
    assert database.revision_epoch == epoch
    assert database.check_constraints().satisfied


def test_checked_writes_build_no_reducer(monkeypatch):
    database, _, _ = hr_database(20)
    assert not database.base.has_nonatomic and not database.violation_view().fallbacks
    built = []
    original = EpistemicReducer.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(EpistemicReducer, "__init__", counting)
    assert database.tell(atom("ss", "E0", "Y0")).satisfied
    assert database.retract(atom("ss", "E0", "Y0")).satisfied
    with database.transaction() as transaction:
        transaction.tell(atom("emp", "E20"))
        transaction.tell(atom("ss", "E20", "S20"))
    with pytest.raises(ConstraintViolationError):
        database.tell(atom("female", "E0"))  # E0 is male
    assert database.check_constraints().satisfied
    assert built == []


def test_constraint_checking_names_only_the_one_check():
    with pytest.raises(ValueError, match="incremental"):
        EpistemicDatabase(constraint_checking="scratch")
    assert not hasattr(EpistemicDatabase, "constraint_checking")
    database = EpistemicDatabase(constraint_checking="incremental")
    with pytest.raises(TypeError):
        database.transaction().commit(constraints="incremental")
