"""Maintenance dispatch: a write starts only the passes of the relations it
changed, chosen from each component's pass table.

* Choosing the passes reads no relation's size: maintenance of a checked
  HR ``tell``, ``retract`` and ``commit``, of a transitive-closure edge cut
  and restore, and of a write to a negated relation calls
  ``RowStore.count`` zero times.
* Every pass that runs starts from its delta literal's changed support:
  its relation holds rows in the delta the pass reads it from.
* The dispatch changes which passes are chosen by how, not what: on a
  fixed stream the maintenance counters read the figures recorded before
  the pass table replaced the per-literal scans.
"""

from dataclasses import asdict

import pytest

from repro.datalog import DatalogLiteral, DatalogProgram, DatalogRule, MaterializedModel
from repro.datalog.columnar import RowStore
from repro.db.database import EpistemicDatabase
from repro.logic.builders import atom
from repro.logic.syntax import Atom
from repro.logic.terms import Variable
from repro.workloads.constraints import hr_constraints, hr_facts, hr_group
from repro.workloads.generators import transitive_closure_program

x, y, z, d = Variable("x"), Variable("y"), Variable("z"), Variable("d")

ASSIGNED = DatalogRule(
    Atom("assigned", (x, d)),
    (DatalogLiteral(Atom("emp", (x,))), DatalogLiteral(Atom("works_in", (x, d)))),
)

#: Which delta holds the support a pass of each mode starts from, by the
#: sign of its delta literal: ``(positive, negated)`` — ``"plus"`` for
#: the first argument after the index, ``"minus"`` for the second (a
#: probe's second argument is the proved set, not a delta).
_STARTS_FROM = {
    "new": (("plus",), ("minus",)),
    "count": (("plus",), ("minus",)),
    "lost": (("minus",), ("plus",)),
    "signed": (("plus", "minus"), ("plus", "minus")),
    "probe": (("plus",), ("plus",)),
}


class Dispatch:
    """Records, while a model maintains a write, every ``RowStore.count``
    call and every pass run, and checks each pass against its deltas."""

    def __init__(self, monkeypatch):
        self.counts = 0
        self.passes = []
        self.idle = []
        self._maintaining = False
        maintain = MaterializedModel._maintain
        kernel = MaterializedModel._kernel
        count = RowStore.count
        recorder = self

        def traced_maintain(model, *args, **kwargs):
            recorder._maintaining = True
            try:
                return maintain(model, *args, **kwargs)
            finally:
                recorder._maintaining = False

        def traced_count(store, predicate, arity):
            if recorder._maintaining:
                recorder.counts += 1
            return count(store, predicate, arity)

        def traced_kernel(model, rule, delta_position, mode, *args, **kwargs):
            compiled = kernel(model, rule, delta_position, mode, *args, **kwargs)
            if not recorder._maintaining:
                return compiled

            def run(store, plus, minus, out):
                recorder._check(rule, delta_position, mode, plus, minus)
                return compiled(store, plus, minus, out)

            return run

        monkeypatch.setattr(MaterializedModel, "_maintain", traced_maintain)
        monkeypatch.setattr(MaterializedModel, "_kernel", traced_kernel)
        monkeypatch.setattr(RowStore, "count", traced_count)

    def _check(self, rule, position, mode, plus, minus):
        literal = rule.body[position]
        deltas = {"plus": plus, "minus": minus}
        sources = _STARTS_FROM[mode][0 if literal.positive else 1]
        self.passes.append((literal.atom.predicate, literal.positive, mode))
        if not any(
            deltas[name].relation(literal.atom.predicate, len(literal.atom.args))
            for name in sources
        ):
            self.idle.append((str(rule), position, mode))

    def assert_dispatched(self):
        assert self.counts == 0
        assert self.passes
        assert self.idle == []


def hr_database():
    database = EpistemicDatabase(
        hr_facts(50), constraints=hr_constraints(), constraint_checking="incremental"
    )
    violations = database.violation_view().materialized
    view = database.datalog_view(rules=[ASSIGNED]).materialized
    return database, violations, view


def hr_stream(database):
    """A checked tell, a retract of it, and a commit hiring one employee
    and letting another go."""
    extra = atom("ss", "E3", "S_extra")
    database.tell(extra)
    database.retract(extra)
    transaction = database.transaction()
    for fact in hr_group(50):
        transaction.tell(fact)
    for fact in hr_group(49):
        transaction.retract(fact)
    transaction.commit()


def tc_model():
    return MaterializedModel(transitive_closure_program(chains=3, length=6))


def tc_stream(model):
    """Cut a chain's middle edge, restore it, then cut an end edge."""
    middle = atom("edge", "c1_n3", "c1_n4")
    model.apply(deletions=[middle])
    model.apply(insertions=[middle])
    model.apply(deletions=[atom("edge", "c2_n0", "c2_n1")])


def negation_model():
    """A negated extensional relation, ``blocked``, read by a counting
    rule and by both rules of a recursive one."""
    program = DatalogProgram()
    program.rule(
        Atom("reach", (x, y)), Atom("edge", (x, y)), (Atom("blocked", (y,)), False)
    )
    program.rule(
        Atom("reach", (x, z)),
        Atom("reach", (x, y)),
        Atom("edge", (y, z)),
        (Atom("blocked", (z,)), False),
    )
    program.rule(Atom("open", (x,)), Atom("node", (x,)), (Atom("blocked", (x,)), False))
    for i in range(5):
        program.add_fact(atom("node", f"n{i}"))
        program.add_fact(atom("edge", f"n{i}", f"n{(i + 1) % 5}"))
    program.add_fact(atom("edge", "n0", "n2"))
    return MaterializedModel(program)


def negation_stream(model):
    """Block a node, unblock it, and block another with a new edge."""
    model.apply(insertions=[atom("blocked", "n2")])
    model.apply(deletions=[atom("blocked", "n2")])
    model.apply(insertions=[atom("blocked", "n3"), atom("edge", "n1", "n3")])


def maintenance_counters(model):
    counters = asdict(model.statistics)
    return {
        name: counters[name]
        for name in ("delta_passes", "rounds", "overdeleted", "rederived")
    }


def test_hr_writes_choose_their_passes_without_counting_rows(monkeypatch):
    database, violations, view = hr_database()
    dispatch = Dispatch(monkeypatch)
    hr_stream(database)
    dispatch.assert_dispatched()
    assert {mode for _, _, mode in dispatch.passes} == {"signed"}
    assert {predicate for predicate, _, _ in dispatch.passes} >= {"ss", "emp", "works_in"}


def test_a_tc_edge_cut_and_restore_choose_their_passes_without_counting_rows(monkeypatch):
    model = tc_model()
    dispatch = Dispatch(monkeypatch)
    tc_stream(model)
    dispatch.assert_dispatched()
    assert {mode for _, _, mode in dispatch.passes} == {"lost", "probe", "count", "new"}


def test_a_write_to_a_negated_relation_chooses_its_passes_without_counting_rows(
    monkeypatch,
):
    model = negation_model()
    dispatch = Dispatch(monkeypatch)
    negation_stream(model)
    dispatch.assert_dispatched()
    assert {
        mode for predicate, positive, mode in dispatch.passes if predicate == "blocked"
    } == {"signed", "lost", "new"}
    assert all(not positive for predicate, positive, _ in dispatch.passes
               if predicate == "blocked")


#: The maintenance counters of each stream, recorded before the pass table
#: replaced the per-literal scans: the dispatch chooses the same passes.
RECORDED = {
    "hr violations": {"delta_passes": 11, "rounds": 7, "overdeleted": 0, "rederived": 0},
    "hr view": {"delta_passes": 2, "rounds": 1, "overdeleted": 0, "rederived": 0},
    "tc": {"delta_passes": 25, "rounds": 12, "overdeleted": 18, "rederived": 0},
    "negation": {"delta_passes": 43, "rounds": 21, "overdeleted": 39, "rederived": 9},
}


def run_streams():
    database, violations, view = hr_database()
    hr_stream(database)
    tc = tc_model()
    tc_stream(tc)
    negation = negation_model()
    negation_stream(negation)
    return {
        "hr violations": maintenance_counters(violations),
        "hr view": maintenance_counters(view),
        "tc": maintenance_counters(tc),
        "negation": maintenance_counters(negation),
    }


@pytest.mark.parametrize("name", sorted(RECORDED))
def test_the_maintenance_counters_match_the_recorded_stream(name):
    assert run_streams()[name] == RECORDED[name]
