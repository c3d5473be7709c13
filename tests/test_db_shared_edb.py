"""One EDB per database: every maintained view reads the database's store.

A database interns the ground atoms of its base once, into an
:class:`~repro.datalog.columnar.EdbStore` built when the first view attaches,
and every view's model holds that store's relation objects for the
predicates its rules only read.  So:

* two views on one database share each extensional relation object and one
  interner, and attaching a second view interns no EDB fact again;
* a write reaches the store once, whatever the number of views, and a
  database without views never builds a store;
* a peek and a rejected check leave the store's rows, buckets and version
  and every model's histograms exactly as they were;
* a predicate that is both derived and told keeps a private relation seeded
  from the store, and stays equal to a ``semi-naive`` recompute through
  tells, retractions, commits and rollbacks.
"""

import pytest

from repro.datalog import DatalogEngine, DatalogLiteral, DatalogProgram, DatalogRule
from repro.datalog.columnar import EdbStore
from repro.datalog.interner import Interner
from repro.db.base import is_ground_atom
from repro.db.database import EpistemicDatabase
from repro.exceptions import ConstraintViolationError
from repro.logic.builders import atom
from repro.logic.syntax import Atom
from repro.logic.terms import Parameter, Variable
from repro.workloads.constraints import hr_constraints, hr_facts

X, Y, Z, D = Variable("x"), Variable("y"), Variable("z"), Variable("d")
ASSIGNED = DatalogRule(
    Atom("assigned", (X, D)),
    (DatalogLiteral(Atom("emp", (X,))), DatalogLiteral(Atom("works_in", (X, D)))),
)
PATH_RULES = [
    DatalogRule(Atom("path", (X, Y)), (DatalogLiteral(Atom("edge", (X, Y))),)),
    DatalogRule(
        Atom("path", (X, Z)),
        (DatalogLiteral(Atom("edge", (X, Y))), DatalogLiteral(Atom("path", (Y, Z)))),
    ),
]


def hr_database(employees=6):
    database = EpistemicDatabase(
        hr_facts(employees, departments=4),
        constraints=hr_constraints(),
    )
    return database, database.violation_view(), database.datalog_view(rules=[ASSIGNED])


def store_state(store):
    """Everything a write that does not happen must leave as it found."""
    return store.version, {
        key: (
            set(relation.rows),
            tuple(
                {value: set(rows) for value, rows in bucket.items()}
                for bucket in relation.buckets
            ),
        )
        for key, relation in store.rows.items()
    }


def semi_naive(database, rules):
    program = DatalogProgram(rules=rules)
    for sentence in database.sentences():
        if is_ground_atom(sentence):
            program.add_fact(sentence)
    return DatalogEngine(program, strategy="semi-naive").least_model()


def test_views_share_the_extensional_relations_and_the_interner():
    database, violations, view = hr_database()
    store = database._edb_store()
    assert isinstance(store, EdbStore)
    assert view.engine.program.facts is store
    assert violations.materialized.program.facts is store
    assert view.engine.interner is store.interner
    assert violations.materialized.engine.interner is store.interner
    works_in = ("works_in", 2)
    shared = store.rows.get(works_in)
    assert view.materialized._store.get(works_in) is shared
    assert violations.materialized._store.get(works_in) is shared
    # What a view derives is its own.
    assert store.rows.get(("assigned", 2)) is None
    assert violations.materialized._store.get(("assigned", 2)) is None


def test_a_predicate_first_told_after_the_build_is_shared_too():
    database, violations, view = hr_database()
    database.tell(atom("badge", "E0", "B7"))
    relation = database._edb_store().rows.get(("badge", 2))
    assert view.materialized._store.get(("badge", 2)) is relation
    assert violations.materialized._store.get(("badge", 2)) is relation
    assert view.holds("badge(E0, B7)")


@pytest.mark.parametrize("employees", [50, 500])
def test_attaching_a_second_view_interns_no_edb_fact(monkeypatch, employees):
    database = EpistemicDatabase(hr_facts(employees), constraints=hr_constraints())
    database.violation_view()
    calls = []
    original = Interner.encode_atom

    def counted(self, atom_):
        calls.append(atom_)
        return original(self, atom_)

    monkeypatch.setattr(Interner, "encode_atom", counted)
    view = database.datalog_view(rules=[ASSIGNED])
    assert calls == []
    assert view.holds("assigned(E0, D0)")


def test_a_write_reaches_the_store_once_whatever_the_number_of_views(monkeypatch):
    database, _, _ = hr_database()
    database.datalog_view(rules=PATH_RULES)
    writes = []
    original = EdbStore.write

    def counted(self, batch):
        writes.append(batch)
        return original(self, batch)

    monkeypatch.setattr(EdbStore, "write", counted)
    database.tell(atom("dept", "D9"))
    assert len(writes) == 1
    assert [atom_ for atom_ in database._edb_store().atoms()
            if atom_.predicate == "dept" and atom_.args[0].name == "D9"]


def test_a_database_without_views_builds_no_store():
    database = EpistemicDatabase(hr_facts(6, departments=4))
    database.tell(atom("dept", "D9"))
    database.retract(atom("dept", "D9"))
    assert database.ask("K emp(E0)").is_yes
    assert database._edb is None


def test_a_peek_and_a_rejected_check_leave_the_store_and_the_histograms():
    database, violations, view = hr_database()
    store = database._edb_store()
    models = [violations.materialized, view.materialized]
    before = store_state(store)
    histograms = [model.planner_statistics.snapshot() for model in models]
    worlds = [model.model() for model in models]

    transaction = database.transaction()
    transaction.tell(atom("emp", "E9"))
    transaction.tell(atom("works_in", "E9", "D1"))
    transaction.retract(atom("works_in", "E0", "D0"))
    assert view.preview(transaction).holds(atom("assigned", "E9", "D1"))
    assert not violations.preview_report(*transaction.pending).satisfied
    transaction.rollback()
    with pytest.raises(ConstraintViolationError):
        database.tell(atom("female", "E0"))  # E0 is male

    assert store_state(store) == before
    assert [model.planner_statistics.snapshot() for model in models] == histograms
    assert [model.model() for model in models] == worlds


def test_a_closed_view_keeps_the_edb_it_had():
    database, _, view = hr_database()
    world = view.model()
    view.close()
    database.tell(atom("works_in", "E0", "D3"))
    assert view.model() == world
    assert view.engine.program.facts is not database._edb_store()
    assert view.materialized._store.get(("works_in", 2)) is not (
        database._edb_store().rows.get(("works_in", 2))
    )


def test_a_derived_and_told_predicate_follows_every_write():
    database = EpistemicDatabase.from_text("edge(a, b); edge(b, c); path(c, a)")
    view = database.datalog_view(rules=PATH_RULES)
    store = database._edb_store()
    # The told path facts are the store's; the view derives into a copy.
    assert view.materialized._store.get(("path", 2)) is not store.rows.get(("path", 2))

    def agrees():
        assert view.model() == semi_naive(database, PATH_RULES)

    agrees()
    database.tell("path(c, d)")
    agrees()
    database.tell("edge(a, c)")
    agrees()
    database.retract("path(c, a)")
    agrees()
    with database.transaction() as transaction:
        transaction.tell("path(d, a)")
        transaction.retract("edge(b, c)")
    agrees()
    transaction = database.transaction()
    transaction.retract("path(c, d)")
    transaction.tell("edge(d, e)")
    transaction.rollback()
    agrees()
    database.retract("edge(a, c)")
    agrees()
    assert view.materialized.statistics.rebuilds == 1


def test_engine_reads_the_store_the_view_reads():
    database = EpistemicDatabase.from_text("edge(a, b); edge(b, c); path(c, a)")
    view = database.datalog_view(rules=PATH_RULES)
    database.tell("edge(c, d)")
    database.retract("edge(a, b)")
    goal = Atom("path", (Parameter("b"), X))
    expected = {binding[X] for binding in view.query(goal)}
    assert expected == {Parameter(name) for name in "acd"}
    for mode in ("magic", "full"):
        assert {binding[X] for binding in view.query(goal, mode=mode)} == expected
    assert view.engine.least_model() == view.model() == semi_naive(database, PATH_RULES)
    edges = view.query(Atom("edge", (X, Y)), mode="magic")
    assert {(b[X].name, b[Y].name) for b in edges} == {("b", "c"), ("c", "d")}
