"""One update protocol: a write is all or nothing across the base and every
maintained view.

Every ``tell``, ``retract`` and transaction ``commit`` stages its net change
on each maintained view before the base changes and commits them all once
it has.  A raise while any view stages — the violation view's, during the
incremental check or without one, or a ``DatalogView``'s — must therefore
leave the base sentences, the revision epoch and every maintained model
exactly as they were (model, derivation counts, the statistics its
relations keep for the planner and EDB store version), and must reach no
update listener.

Once the base holds the write nothing may fail any more: what a commit
needs — the ``UpdateResult`` (its id rows, decoded only when read) — is
prepared while the view stages, and so is every plan, read off the live
statistics, of a view that plans a pass with them.  A raise there is a
raise before the base changed, and the commit itself only swaps state.
"""

import pytest

from repro.datalog import (
    DatalogEngine,
    DatalogLiteral,
    DatalogProgram,
    DatalogRule,
    JoinStatistics,
    MaterializedModel,
)
from repro.datalog.columnar import RowStore
from repro.datalog.interner import Interner
from repro.db.base import is_ground_atom
from repro.db.database import EpistemicDatabase
from repro.logic.builders import atom
from repro.logic.syntax import Atom
from repro.logic.terms import Variable
from repro.workloads.constraints import hr_constraints, hr_facts

X, D = Variable("x"), Variable("d")
ASSIGNED = DatalogRule(
    Atom("assigned", (X, D)),
    (DatalogLiteral(Atom("emp", (X,))), DatalogLiteral(Atom("works_in", (X, D)))),
)
STAFFED = DatalogRule(
    Atom("staffed", (D,)),
    (DatalogLiteral(Atom("works_in", (X, D))), DatalogLiteral(Atom("dept", (D,)))),
)
#: Three positive literals: every delta pass has two to reorder, so this
#: view plans on the statistics of ``emp``, ``works_in`` and ``dept``, and
#: every write below re-plans its passes.
PLACED = DatalogRule(
    Atom("placed", (X, D)),
    (
        DatalogLiteral(Atom("emp", (X,))),
        DatalogLiteral(Atom("works_in", (X, D))),
        DatalogLiteral(Atom("dept", (D,))),
    ),
)


class InjectedFault(Exception):
    pass


def hr_database():
    database = EpistemicDatabase(
        hr_facts(6, departments=4),
        constraints=hr_constraints(),
    )
    views = {
        "violations": database.violation_view(),
        "assigned": database.datalog_view(rules=[ASSIGNED]),
        "staffed": database.datalog_view(rules=[STAFFED]),
        "placed": database.datalog_view(rules=[PLACED]),
    }
    return database, views


def maintained_state(materialized):
    """Everything a failed write must leave as it found."""
    model = materialized.model()
    counting = {
        fact: materialized.derivation_count(fact)
        for fact in model.atoms
        if materialized._kind.get((fact.predicate, len(fact.args))) == "counting"
    }
    return (
        model,
        counting,
        dict(materialized._counts),
        {
            key: tuple(relation.squares)
            for key, relation in materialized._store.items() if relation.rows
        },
        materialized.program.facts.version,
        materialized._staged,
    )


def fresh_model(database, rules):
    program = DatalogProgram()
    for rule in rules:
        program.add_rule(rule)
    for sentence in database.sentences():
        if is_ground_atom(sentence):
            program.add_fact(sentence)
    return DatalogEngine(program).least_model()


def tell(database):
    database.tell(atom("dept", "D9"))


def unchecked_tell(database):
    database.tell(atom("dept", "D9"), check_constraints=False)


def retract(database):
    database.retract(atom("works_in", "E1", "D1"))


def commit(database):
    transaction = database.transaction()
    transaction.tell(atom("emp", "E6"))
    transaction.tell(atom("ss", "E6", "S6"))
    transaction.tell(atom("works_in", "E6", "D0"))
    transaction.retract(atom("works_in", "E2", "D2"))
    transaction.commit()


WRITES = {"tell": tell, "unchecked tell": unchecked_tell, "retract": retract,
          "commit": commit}


@pytest.mark.parametrize("target", ["violations", "assigned", "staffed", "placed"])
@pytest.mark.parametrize("write", sorted(WRITES))
def test_a_view_raising_while_it_stages_leaves_everything_unchanged(
        monkeypatch, write, target):
    database, views = hr_database()
    before = {name: maintained_state(view.materialized) for name, view in views.items()}
    sentences = database.sentences()
    epoch = database.revision_epoch
    notified = []
    database.add_update_listener(lambda added, removed: notified.append(added))
    faults = []

    def failing(*args, **kwargs):
        faults.append(args)
        raise InjectedFault(f"{target} failed to stage")

    monkeypatch.setattr(views[target].materialized, "_stage", failing)
    with pytest.raises(InjectedFault):
        WRITES[write](database)

    assert len(faults) == 1
    assert database.sentences() == sentences
    assert database.revision_epoch == epoch
    assert notified == []
    monkeypatch.undo()
    for name, view in views.items():
        assert maintained_state(view.materialized) == before[name], name

    # The same write then goes through, and every view follows it.
    WRITES[write](database)
    assert database.revision_epoch == epoch + 1
    assert len(notified) == 1
    assert views["assigned"].model() == fresh_model(database, [ASSIGNED])
    assert views["staffed"].model() == fresh_model(database, [STAFFED])
    assert views["placed"].model() == fresh_model(database, [PLACED])
    assert database.check_constraints().satisfied


def test_maintenance_raising_half_way_leaves_the_view_to_rebuild(monkeypatch):
    database, views = hr_database()
    materialized = views["staffed"].materialized
    model = materialized.model()
    sentences = database.sentences()
    epoch = database.revision_epoch
    violations = maintained_state(views["violations"].materialized)
    rebuilds = materialized.statistics.rebuilds

    def failing(*args, **kwargs):
        raise InjectedFault("maintenance pass failed")

    monkeypatch.setattr(materialized, "_propagate", failing)
    with pytest.raises(InjectedFault):
        commit(database)
    monkeypatch.undo()

    assert database.sentences() == sentences
    assert database.revision_epoch == epoch
    assert maintained_state(views["violations"].materialized) == violations
    # The half-maintained model is marked stale and rebuilt on next access.
    assert materialized.model() == model
    assert materialized.statistics.rebuilds == rebuilds + 1
    commit(database)
    assert materialized.model() == fresh_model(database, [STAFFED])


def test_views_stage_no_empty_change_and_closed_views_stay_put():
    database, views = hr_database()
    disjunction = "dept(D7) | dept(D8)"
    applies = {name: view.materialized.statistics.applies for name, view in views.items()}
    database.tell(disjunction)  # no ground atom: only the check stages
    assert views["assigned"].materialized.statistics.applies == applies["assigned"]
    assert views["violations"].materialized.statistics.applies == applies["violations"] + 1

    views["staffed"].close()
    views["staffed"].close()  # closing twice is harmless
    stale = views["staffed"].model()
    database.tell(atom("works_in", "E0", "D3"))
    assert views["staffed"].model() == stale
    assert views["assigned"].model() == fresh_model(database, [ASSIGNED])


# ---------------------------------------------------------------------------
# After the base changes: commits only swap state
# ---------------------------------------------------------------------------

def fail_in_moved_step(monkeypatch, materialized, step, faults):
    """Make one step that runs while the model stages, never in
    ``_commit``, raise for *materialized* only: making the
    ``UpdateResult``, or planning a pass on the histograms' live sums."""
    if step == "result":
        def failing(*args):
            faults.append(args)
            raise InjectedFault("making the update result failed")

        monkeypatch.setattr(materialized, "_result", failing)
        return
    original = RowStore.selectivity

    def selectivity(store, *args):
        if store is materialized._store:
            faults.append(store)
            raise InjectedFault("planning on the histograms failed")
        return original(store, *args)

    monkeypatch.setattr(RowStore, "selectivity", selectivity)


#: Only a view that plans a pass with the histograms reads them while a
#: write stages; the other views have a fixed order everywhere.
MOVED_STEPS = [("result", target) for target in ("violations", "assigned", "staffed", "placed")]
MOVED_STEPS.append(("histograms", "placed"))


@pytest.mark.parametrize("step, target", MOVED_STEPS)
@pytest.mark.parametrize("write", sorted(WRITES))
def test_a_raise_while_preparing_the_commit_leaves_everything_unchanged(
        monkeypatch, write, target, step):
    database, views = hr_database()
    before = {name: maintained_state(view.materialized) for name, view in views.items()}
    sentences = database.sentences()
    epoch = database.revision_epoch
    notified = []
    database.add_update_listener(lambda added, removed: notified.append(added))
    faults = []
    fail_in_moved_step(monkeypatch, views[target].materialized, step, faults)

    with pytest.raises(InjectedFault):
        WRITES[write](database)

    assert len(faults) == 1
    assert database.sentences() == sentences
    assert database.revision_epoch == epoch
    assert notified == []
    monkeypatch.undo()
    for name, view in views.items():
        assert maintained_state(view.materialized) == before[name], name

    WRITES[write](database)
    assert database.revision_epoch == epoch + 1
    assert len(notified) == 1
    assert views["assigned"].model() == fresh_model(database, [ASSIGNED])
    assert views["staffed"].model() == fresh_model(database, [STAFFED])
    assert views["placed"].model() == fresh_model(database, [PLACED])
    assert database.check_constraints().satisfied


def test_a_commit_decodes_folds_and_maintains_nothing(monkeypatch):
    """Everything fallible runs while staging: once the base holds the
    write, each view's commit only swaps in what staging computed."""
    database, views = hr_database()
    committing = []
    original_commit = MaterializedModel._commit

    def commit(self):
        committing.append(self)
        try:
            return original_commit(self)
        finally:
            committing.pop()

    def forbidden(name, original):
        def wrapper(*args, **kwargs):
            assert not committing, f"{name} ran in a commit"
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(MaterializedModel, "_commit", commit)
    for owner, name in [(MaterializedModel, "_maintain"), (MaterializedModel, "_result"),
                        (RowStore, "selectivity"), (JoinStatistics, "refresh"),
                        (Interner, "decode_row")]:
        monkeypatch.setattr(owner, name, forbidden(name, getattr(owner, name)))
    for write in WRITES.values():
        write(database)
    assert views["assigned"].model() == fresh_model(database, [ASSIGNED])
    assert views["staffed"].model() == fresh_model(database, [STAFFED])
