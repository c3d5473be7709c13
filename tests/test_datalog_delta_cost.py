"""Delta-cost view maintenance: the contracts behind ``MaterializedModel``'s
O(batch) updates and reads.

* The planner reads the statistics the index's relations keep live: after
  every ``apply`` and every ``peek`` each relation's sums of squared
  bucket sizes, and so every estimate, equal those of a fresh
  :meth:`JoinStatistics.refresh` of the maintained index, and every cached
  re-plannable kernel runs the plan a fresh full snapshot gives — under
  hypothesis-driven batch streams, for counting, recursive and
  stratified-negation programs, with the maintained model checked against
  a ``semi-naive`` recompute after every batch.
* A one-fact ``apply`` / ``peek`` / ``query`` / ``holds`` takes no snapshot,
  reads no whole-column histogram and never iterates ``program.facts``.
* Staleness is still caught: every way of mutating the program outside
  ``apply`` — its rules, or the EDB store its facts became when the model
  was built — triggers exactly one rebuild on the next read.
* ``program.facts`` is an :class:`EdbStore`: every mutation moves its
  version, a no-op (appending a held fact, discarding an absent one) keeps
  it, and an assigned iterable becomes a store.
"""

from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from repro.datalog import (
    DatalogEngine,
    DatalogFact,
    DatalogProgram,
    DatalogRule,
    MaterializedModel,
)
from repro.datalog import columnar, incremental
from repro.datalog.columnar import ColumnarRelation, EdbStore, RowStore
from repro.datalog.interner import Interner
from repro.datalog.program import DatalogLiteral
from repro.datalog.stats import JoinStatistics, planned_reads
from repro.db.database import EpistemicDatabase
from repro.exceptions import ReproError
from repro.logic.builders import atom
from repro.logic.syntax import Atom
from repro.logic.terms import Parameter, Variable
from repro.obs import Tracer
from repro.workloads.constraints import hr_constraints, hr_facts
from repro.workloads.generators import transitive_closure_program

x, y, z = Variable("x"), Variable("y"), Variable("z")


def assert_statistics_match_a_fresh_snapshot(materialized):
    """Every relation of the maintained index keeps the sums of squared
    bucket sizes of a fresh snapshot, so the planner's live estimate
    equals the snapshot's for every set of bound positions."""
    store = materialized._index.store
    fresh = JoinStatistics().refresh(store)
    columns = fresh.snapshot()
    for (predicate, arity), relation in store.items():
        if relation.rows:
            assert relation.squares == [
                column.sum_of_squares for column in columns[predicate, arity]
            ], (predicate, arity)
        for size in range(arity + 1):
            for positions in combinations(range(arity), size):
                assert store.selectivity(predicate, arity, positions) == (
                    fresh.selectivity(predicate, arity, positions)
                ), (predicate, arity, positions)


def live_statistics(materialized):
    """The sums of squared bucket sizes the planner reads, per relation."""
    return {
        key: tuple(relation.squares)
        for key, relation in materialized._index.store.items() if relation.rows
    }


def assert_plans_match_a_fresh_snapshot(materialized):
    """Every cached kernel of a re-plannable pass runs the schedule the
    planner gives against a fresh snapshot of the whole index."""
    engine = materialized.engine
    fresh = JoinStatistics().refresh(materialized._index.store)
    compiled = {kernel: key for key, kernel in engine._compiled_cache.items()}
    for key, kernel in materialized._kernels.items():
        if key in materialized._fixed_kernels:
            continue
        rule, delta_position, schedule = compiled[kernel][:3]
        assert list(schedule) == engine._schedule(
            rule, delta_position=delta_position, stats=fresh
        ), rule


# ---------------------------------------------------------------------------
# Programs: counting, DRed and stratified negation
# ---------------------------------------------------------------------------

def counting_program():
    """Non-recursive joins over a skewed relation (a hub value owns the
    largest bucket): every IDB predicate is maintained by counting.  The
    three-literal ``relayed`` join leaves two literals to reorder at every
    delta position, so ``r``, ``s`` and ``joined`` are planned."""
    program = DatalogProgram()
    program.rule(Atom("joined", (x, z)), Atom("r", (x, y)), Atom("s", (y, z)))
    program.rule(Atom("source", (x,)), Atom("r", (x, y)))
    program.rule(
        Atom("relayed", (x, z)),
        Atom("joined", (x, z)), Atom("r", (x, y)), Atom("s", (y, z)),
    )
    return program


COUNTING_FACTS = (
    [atom("r", f"a{i}", "hub") for i in range(4)]
    + [atom("r", f"a{i}", f"h{j}") for i in range(4) for j in range(2)]
    + [atom("s", h, f"t{k}") for h in ("hub", "h0", "h1") for k in range(3)]
)


def closure_program():
    """Recursive transitive closure: maintained by DRed."""
    program = DatalogProgram()
    program.rule(Atom("path", (x, y)), Atom("edge", (x, y)))
    program.rule(Atom("path", (x, z)), Atom("edge", (x, y)), Atom("path", (y, z)))
    return program


#: Edges plus a few extensional path/2 facts: an IDB predicate with EDB
#: facts of its own is what DRed's rederivation must check against the
#: batch's new EDB.
CLOSURE_FACTS = [
    atom("edge", f"n{i}", f"n{j}") for i in range(5) for j in range(5) if i != j
] + [atom("path", "n0", f"n{j}") for j in range(1, 5)]


def negation_program():
    """Recursion below negation: reach/2 (DRed) is gated by dark/1
    (counting) and negated by far/1 (counting)."""
    program = DatalogProgram()
    program.rule(Atom("dark", (x,)), Atom("shadow", (x,)))
    program.rule(
        Atom("reach", (x, y)), Atom("edge", (x, y)), (Atom("dark", (y,)), False)
    )
    program.rule(
        Atom("reach", (x, z)),
        Atom("reach", (x, y)),
        Atom("edge", (y, z)),
        (Atom("dark", (z,)), False),
    )
    program.rule(
        Atom("far", (x,)), Atom("node", (x,)), (Atom("reach", (Parameter("n0"), x)), False)
    )
    return program


NEGATION_FACTS = (
    [atom("node", f"n{i}") for i in range(4)]
    + [atom("shadow", f"n{i}") for i in range(4)]
    + [atom("edge", f"n{i}", f"n{j}") for i in range(4) for j in range(4) if i != j]
    + [atom("reach", "n0", f"n{j}") for j in range(1, 4)]
    + [atom("dark", "n1")]
)

PROGRAMS = {
    "counting": (counting_program, COUNTING_FACTS),
    "dred": (closure_program, CLOSURE_FACTS),
    "negation": (negation_program, NEGATION_FACTS),
}


# ---------------------------------------------------------------------------
# Live statistics ≡ a fresh snapshot
# ---------------------------------------------------------------------------

batches = st.lists(
    st.tuples(
        st.lists(st.integers(0, 10_000), max_size=4),
        st.lists(st.integers(0, 10_000), max_size=4),
    ),
    min_size=1,
    max_size=8,
)


def semi_naive_model(program):
    return DatalogEngine(program, strategy="semi-naive").least_model()


@settings(max_examples=50, deadline=None)
@given(
    name=st.sampled_from(sorted(PROGRAMS)),
    initial=st.lists(st.integers(0, 10_000), max_size=12),
    steps=batches,
)
def test_incremental_histograms_equal_a_fresh_snapshot(name, initial, steps):
    make_program, universe = PROGRAMS[name]
    program = make_program()
    for index in initial:
        program.add_fact(universe[index % len(universe)])
    materialized = MaterializedModel(program)
    assert_statistics_match_a_fresh_snapshot(materialized)
    assert_plans_match_a_fresh_snapshot(materialized)
    for inserted, deleted in steps:
        live = sorted(program.facts.atoms(), key=str)
        insertions = [universe[i % len(universe)] for i in inserted]
        deletions = [live[i % len(live)] for i in deleted] if live else []

        before = live_statistics(materialized)
        model = materialized.model()
        materialized.peek(insertions, deletions)
        assert live_statistics(materialized) == before
        assert_plans_match_a_fresh_snapshot(materialized)
        assert materialized.model() == model

        materialized.apply(insertions, deletions)
        assert_statistics_match_a_fresh_snapshot(materialized)
        assert_plans_match_a_fresh_snapshot(materialized)
        assert materialized.model() == semi_naive_model(program)
    assert materialized.statistics.rebuilds == 1


def test_histograms_follow_a_shrinking_largest_bucket_and_an_emptied_relation():
    program = counting_program()
    hub = [atom("r", f"a{i}", "hub") for i in range(4)]
    for fact in hub + [atom("r", "a0", "h0"), atom("r", "a1", "h0"), atom("s", "hub", "t0")]:
        program.add_fact(fact)
    materialized = MaterializedModel(program)
    store = materialized._index.store
    # r's second column: a hub bucket of 4 and an h0 bucket of 2.
    assert store.get(("r", 2)).squares[1] == 4 * 4 + 2 * 2

    # The largest bucket shrinks below the next one's size: 4 -> 1 with a
    # bucket of 2 (h0) left as the largest.
    materialized.apply(deletions=hub[:3])
    assert store.get(("r", 2)).squares[1] == 1 * 1 + 2 * 2
    assert_statistics_match_a_fresh_snapshot(materialized)
    assert_plans_match_a_fresh_snapshot(materialized)

    # s/2 empties (and joined/2 with it): both estimate to nothing.
    materialized.apply(deletions=[atom("s", "hub", "t0")])
    assert store.selectivity("s", 2, ()) == store.selectivity("joined", 2, [0]) == 0.0
    assert_statistics_match_a_fresh_snapshot(materialized)
    assert_plans_match_a_fresh_snapshot(materialized)

    # ... and come back on the next insertion.
    materialized.apply(insertions=[atom("s", "h0", "t1")])
    assert store.selectivity("joined", 2, ()) == 2.0
    assert_statistics_match_a_fresh_snapshot(materialized)
    assert_plans_match_a_fresh_snapshot(materialized)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_the_planner_reads_only_the_planned_relations_of_each_pass(monkeypatch, name):
    """Every statistic the planner reads, while the engine's fixpoint
    builds the model and while the model maintains it, belongs to a
    relation in the ``planned_reads`` of the pass being planned: a pass
    with at most one positive literal besides its delta literal has a
    fixed order and reads none."""
    passes, reads = [], []
    schedule = DatalogEngine._schedule
    selectivity = RowStore.selectivity

    def tracked_schedule(self, rule, delta_position=None, stats=None):
        passes.append((rule, delta_position))
        try:
            return schedule(self, rule, delta_position=delta_position, stats=stats)
        finally:
            passes.pop()

    def tracked_selectivity(self, predicate, arity, positions):
        rule, delta_position = passes[-1]
        reads.append(((predicate, arity), planned_reads(rule, delta_position), str(rule)))
        return selectivity(self, predicate, arity, positions)

    monkeypatch.setattr(DatalogEngine, "_schedule", tracked_schedule)
    monkeypatch.setattr(RowStore, "selectivity", tracked_selectivity)
    make_program, universe = PROGRAMS[name]
    program = make_program()
    for fact in universe[::2]:
        program.add_fact(fact)
    materialized = MaterializedModel(program)
    assert materialized.engine.statistics.iterations > 1
    for fact in universe[1::2] + universe[::4]:
        materialized.apply(insertions=[fact])
    for fact in universe[::3]:
        materialized.apply(deletions=[fact])
    monkeypatch.undo()
    assert materialized.model() == semi_naive_model(program)
    assert reads
    for key, planned, rule in reads:
        assert key in planned, (key, rule)


# ---------------------------------------------------------------------------
# Delta cost: no snapshot, no whole-column read, no pass over the facts
# ---------------------------------------------------------------------------

def test_one_fact_updates_and_reads_are_delta_cost(monkeypatch):
    program = transitive_closure_program(chains=40, length=4)
    materialized = MaterializedModel(program)
    calls = Counter()

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(
        JoinStatistics, "refresh", counted("refresh", JoinStatistics.refresh)
    )
    for owner in (RowStore, ColumnarRelation):
        monkeypatch.setattr(
            owner, "histogram_sizes",
            counted(f"{owner.__name__}.histogram_sizes", owner.histogram_sizes),
        )
    monkeypatch.setattr(EdbStore, "__iter__", counted("facts.iter", EdbStore.__iter__))
    monkeypatch.setattr(EdbStore, "atoms", counted("facts.atoms", EdbStore.atoms))

    edge = atom("edge", "c0_n1", "c0_n2")
    shortcut = atom("edge", "c1_n0", "c1_n3")
    materialized.apply(deletions=[edge])
    materialized.apply(insertions=[edge])
    materialized.apply(insertions=[shortcut])
    materialized.peek(deletions=[shortcut], reader=lambda model: model.holds(shortcut))
    materialized.query(Atom("path", (Parameter("c0_n0"), y)))
    assert materialized.holds(atom("path", "c0_n0", "c0_n4"))
    assert materialized.derivation_count(edge) == 1
    assert not calls, dict(calls)
    assert materialized.statistics.rebuilds == 1


def test_one_fact_updates_and_reads_never_read_the_whole_edb_store(monkeypatch):
    """The store a model reads is not iterated, decoded or summarised by
    a one-fact ``apply``, ``peek``, ``query`` or ``holds``."""
    program = transitive_closure_program(chains=40, length=4)
    materialized = MaterializedModel(program)
    calls = Counter()

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in ("__iter__", "atoms", "signature", "overlay", "copy"):
        monkeypatch.setattr(EdbStore, name, counted(name, getattr(EdbStore, name)))
    edge = atom("edge", "c0_n1", "c0_n2")
    materialized.apply(deletions=[edge])
    materialized.apply(insertions=[edge])
    materialized.peek(insertions=[atom("edge", "c1_n0", "c1_n3")])
    materialized.query(Atom("path", (Parameter("c0_n0"), y)))
    assert materialized.holds(atom("path", "c0_n0", "c0_n4"))
    assert not calls, dict(calls)
    assert materialized.statistics.rebuilds == 1


def test_reinstall_and_cache_hit_read_no_facts(monkeypatch):
    """One staleness stamp: after an ``apply``, ``model()`` reinstalls the
    world into the engine and the engine's next ``least_model()`` is a
    cache hit — and neither reads the fact list (the cache is keyed on the
    list's version stamp, not on its contents)."""
    program = transitive_closure_program(chains=40, length=4)
    materialized = MaterializedModel(program)
    materialized.apply(insertions=[atom("edge", "c0_n4", "c1_n0")])
    calls = Counter()

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(EdbStore, "__iter__", counted("facts.iter", EdbStore.__iter__))
    monkeypatch.setattr(EdbStore, "atoms", counted("facts.atoms", EdbStore.atoms))
    world = materialized.model()
    assert materialized.engine.least_model() is world
    assert not calls, dict(calls)
    assert world.holds(atom("path", "c0_n0", "c1_n4"))


# ---------------------------------------------------------------------------
# Writes pay only for maintenance: no decoding, no statistics nobody reads
# ---------------------------------------------------------------------------

def test_checked_writes_decode_and_fold_nothing(monkeypatch):
    """Neither model of a checked HR database — the violation view and a
    two-literal ``DatalogView`` — has a pass the planner can reorder, and
    no one reads their update results: a tell, a retract and a commit
    decode no row and read or snapshot no statistic."""
    database = EpistemicDatabase(hr_facts(6, departments=4), constraints=hr_constraints())
    violations = database.violation_view()
    view = database.datalog_view(rules=[DatalogRule(
        Atom("assigned", (x, z)),
        (DatalogLiteral(Atom("emp", (x,))), DatalogLiteral(Atom("works_in", (x, z)))),
    )])
    assert violations.materialized._planned == view.materialized._planned == set()
    calls = Counter()

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for owner, name in [(Interner, "decode_row"), (RowStore, "selectivity"),
                        (JoinStatistics, "refresh"), (JoinStatistics, "selectivity")]:
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    applies = view.materialized.statistics.applies
    database.tell(atom("ss", "E0", "S99"))
    database.retract(atom("ss", "E0", "S99"))
    with database.transaction() as transaction:
        transaction.tell(atom("emp", "E6"))
        transaction.tell(atom("ss", "E6", "S6"))
        transaction.tell(atom("works_in", "E6", "D0"))
        transaction.retract(atom("works_in", "E2", "D2"))
    assert view.materialized.statistics.applies == applies + 3
    assert not calls, dict(calls)
    monkeypatch.undo()
    assert view.holds(atom("assigned", "E6", "D0"))
    assert not view.holds(atom("assigned", "E2", "D2"))
    assert database.check_constraints().satisfied


def test_an_update_result_read_late_equals_one_read_at_once():
    """An ``UpdateResult`` decodes the id rows its batch staged when it is
    first read: two later batches, which reuse and undo its facts, do not
    change what it reports."""
    def model():
        program = closure_program()
        for fact in CLOSURE_FACTS[:6]:
            program.add_fact(fact)
        return MaterializedModel(program)

    batch = {"insertions": [atom("edge", "n4", "n0")],
             "deletions": [atom("edge", "n0", "n1")]}
    fields = ("edb_added", "edb_removed", "derived_added", "derived_removed")
    eager = model().apply(**batch)
    expected = {field: getattr(eager, field) for field in fields}
    assert expected["derived_added"] and expected["derived_removed"]

    materialized = model()
    late = materialized.apply(**batch)
    materialized.apply(insertions=batch["deletions"], deletions=batch["insertions"])
    materialized.apply(insertions=[atom("edge", "n3", "n4")])
    assert {field: getattr(late, field) for field in fields} == expected
    assert late == eager


def test_a_planned_relation_moved_only_for_a_while_still_replans():
    """``p`` and ``q`` are one recursive component, and only ``p`` is
    planned (the probe form of ``q``'s rule reorders ``p`` and ``f``).
    Trading ``a(n1, c)`` for ``b(n1, c)`` deletes ``p(n1, c)`` and
    ``p(n2, c)`` and derives them again, so ``p`` ends as it began, but
    ``q``'s probe was planned while they were gone, on a ``p`` whose
    column 1 looked uniform.  The batch must drop it all the same."""
    w = Variable("w")
    program = DatalogProgram()
    program.rule(Atom("p", (x, w)), Atom("a", (x, w)))
    program.rule(Atom("p", (x, w)), Atom("q", (x, w)))
    program.rule(Atom("q", (x, w)), Atom("b", (x, w)))
    program.rule(Atom("q", (y, w)), Atom("p", (x, w)), Atom("f", (x, y)))
    program.add_fact(atom("a", "n1", "c"))
    program.add_fact(atom("f", "n1", "n2"))
    materialized = MaterializedModel(program)
    assert materialized._planned == {("p", 2), ("f", 2)}
    result = materialized.apply(
        insertions=[atom("b", "n1", "c")], deletions=[atom("a", "n1", "c")]
    )
    assert result.derived_added == {atom("q", "n1", "c")}
    assert result.derived_removed == frozenset()
    assert materialized.statistics.overdeleted > 0
    assert_plans_match_a_fresh_snapshot(materialized)
    assert materialized.model() == semi_naive_model(program)


def test_a_write_to_no_planned_relation_keeps_the_kernels_and_histograms(monkeypatch):
    """``label`` is read by no re-plannable pass, only negated in one:
    writing it re-plans nothing and drops no cached kernel — not even the
    statistics-planned pass from ``not label`` that a peek compiled."""
    program = transitive_closure_program(chains=4, length=5)
    program.rule(Atom("tagged", (x,)), Atom("label", (x,)))
    program.rule(
        Atom("open", (x, z)),
        Atom("edge", (x, y)), Atom("path", (y, z)), (Atom("label", (z,)), False),
    )
    materialized = MaterializedModel(program)
    assert materialized._planned == {("edge", 2), ("path", 2)}
    label = atom("label", "c0_n3")
    # A peek compiles the passes and drops nothing.
    materialized.peek(insertions=[label])
    kernels = dict(materialized._kernels)
    assert set(kernels) - set(materialized._fixed_kernels)  # the pass from not label
    statistics = live_statistics(materialized)
    calls = Counter()

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(
        DatalogEngine, "_schedule", counted("schedule", DatalogEngine._schedule)
    )
    monkeypatch.setattr(RowStore, "selectivity", counted("selectivity", RowStore.selectivity))

    result = materialized.apply(insertions=[label])
    assert result.derived_added == {atom("tagged", "c0_n3")}
    assert result.derived_removed == {atom("open", f"c0_n{i}", "c0_n3") for i in range(2)}
    assert not calls
    monkeypatch.undo()
    assert materialized._kernels == kernels
    after = live_statistics(materialized)
    assert all(after[key] == statistics[key] for key in materialized._planned)
    assert_statistics_match_a_fresh_snapshot(materialized)
    assert_plans_match_a_fresh_snapshot(materialized)
    assert materialized.model() == semi_naive_model(program)


# ---------------------------------------------------------------------------
# peek restores the counters on every exit path
# ---------------------------------------------------------------------------

def test_peek_of_a_rejected_batch_keeps_the_maintenance_counters():
    materialized = MaterializedModel(closure_program())
    statistics = materialized.statistics
    with pytest.raises(ReproError):
        materialized.peek(insertions=[Atom("edge", (x, y))])
    assert materialized.statistics is statistics
    assert materialized.statistics.rebuilds == 1


def test_a_peek_keeps_the_decoded_world(monkeypatch):
    """A rolled-back batch leaves the model as it was, so the world decoded
    before a peek stays the model's and the engine's: reading it again
    decodes nothing and runs no fixpoint, also after a peek whose reader
    decoded the staged world.  With no world decoded before, none is
    kept from the peek."""
    program = transitive_closure_program(chains=2, length=3)
    materialized = MaterializedModel(program)
    cut = {"deletions": [atom("edge", "c0_n1", "c0_n2")]}
    assert materialized.peek(**cut, reader=lambda model: model.model()) != materialized.model()
    assert materialized.engine.least_model() == semi_naive_model(program)
    world = materialized.model()
    materialized.peek(**cut)
    staged = materialized.peek(
        insertions=[atom("edge", "c0_n3", "c1_n0")], reader=lambda model: model.model()
    )
    assert staged != world
    decoded, evaluated = [], []
    monkeypatch.setattr(incremental, "decode_world", lambda *args: decoded.append(args))
    monkeypatch.setattr(
        DatalogEngine, "_begin_evaluation", lambda self: evaluated.append(self)
    )
    assert materialized.model() is world
    assert materialized.engine.least_model() is world
    assert decoded == [] and evaluated == []


def test_peek_with_a_raising_reader_restores_state_and_counters():
    program = transitive_closure_program(chains=2, length=3)
    materialized = MaterializedModel(program)
    world = materialized.model()
    before = vars(materialized.statistics).copy()
    statistics = live_statistics(materialized)

    def reader(model):
        raise RuntimeError("reader failed")

    with pytest.raises(RuntimeError):
        materialized.peek(deletions=[atom("edge", "c0_n0", "c0_n1")], reader=reader)
    assert vars(materialized.statistics) == before
    assert live_statistics(materialized) == statistics
    assert_plans_match_a_fresh_snapshot(materialized)
    assert materialized.model() == world


#: Facts each program's batches may insert: none is held at the start.
FRESH_FACTS = {
    "counting": [atom("r", "a9", "hub"), atom("s", "hub", "t9"), atom("r", "a0", "h9")],
    "dred": [atom("edge", "n0", "n9"), atom("edge", "n9", "n1"), atom("path", "n9", "n0")],
    "negation": [atom("edge", "n0", "n9"), atom("shadow", "n9"), atom("node", "n9")],
}


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_a_peek_rolls_back_without_a_join(monkeypatch, name):
    """A peek maintains its batch once, forward.  Rolling it back undoes
    the net change that maintenance made, so no kernel runs and no second
    maintenance batch is traced once the reader has seen the staged
    model."""
    make_program, facts = PROGRAMS[name]
    program = make_program()
    for fact in facts:
        program.add_fact(fact)
    materialized = MaterializedModel(program)
    world = materialized.model()
    held = sorted((fact.atom for fact in program.facts), key=str)
    batch = {"insertions": FRESH_FACTS[name], "deletions": held[::3]}
    expected = make_program()
    for fact in set(held) - set(batch["deletions"]) | set(batch["insertions"]):
        expected.add_fact(fact)
    tracer = Tracer()
    materialized.engine.tracer = tracer
    rolling, kernels = [], []
    rollback, kernel = MaterializedModel._rollback, MaterializedModel._kernel

    def watched_rollback(self):
        rolling.append(None)
        try:
            rollback(self)
        finally:
            rolling.pop()

    def watched_kernel(self, *args):
        if rolling:
            kernels.append(args)
        return kernel(self, *args)

    monkeypatch.setattr(MaterializedModel, "_rollback", watched_rollback)
    monkeypatch.setattr(MaterializedModel, "_kernel", watched_kernel)
    assert materialized.peek(**batch) == semi_naive_model(expected)
    assert kernels == []
    assert [entry["name"] for entry in tracer.entries].count("maintenance.batch") == 1
    assert materialized.model() == world == semi_naive_model(program)


@pytest.mark.parametrize("failing", ["forward", "rollback"])
def test_a_maintenance_pass_that_raises_leaves_the_model_to_rebuild(
    monkeypatch, failing
):
    """A batch that fails half-way through maintenance (forward, or in the
    undo that rolls a peek back) leaves the index in no known state: the
    next access rebuilds it from the unchanged program.  The counters do
    not record the failed peek; only the rebuild shows."""
    program = transitive_closure_program(chains=2, length=3)
    materialized = MaterializedModel(program)
    before = materialized.metrics()
    if failing == "forward":
        original = MaterializedModel._maintain_recursive

        def maintain(self, *args):
            original(self, *args)
            raise RuntimeError("pass failed")  # the index has moved

        monkeypatch.setattr(MaterializedModel, "_maintain_recursive", maintain)
    else:
        rollback, add_row = MaterializedModel._rollback, RowStore.add_row

        def failing_add_row(store, key, row):
            add_row(store, key, row)
            raise RuntimeError("pass failed")  # one removed path is back

        def failing_rollback(self):
            # The peek deletes an edge, so the undo re-adds the paths it cut.
            monkeypatch.setattr(RowStore, "add_row", failing_add_row)
            try:
                rollback(self)
            finally:
                monkeypatch.setattr(RowStore, "add_row", add_row)

        monkeypatch.setattr(MaterializedModel, "_rollback", failing_rollback)
    with pytest.raises(RuntimeError, match="pass failed"):
        materialized.peek(deletions=[atom("edge", "c0_n1", "c0_n2")])
    monkeypatch.undo()
    assert materialized._staged is None
    assert materialized.model() == semi_naive_model(program)
    after = materialized.metrics()
    assert after.pop("maintenance.rebuilds") == before.pop("maintenance.rebuilds") + 1 == 2
    assert after == before
    assert_statistics_match_a_fresh_snapshot(materialized)
    assert_plans_match_a_fresh_snapshot(materialized)


def test_a_warm_peek_compiles_nothing(monkeypatch):
    """A peek plans on the live statistics and its end drops the kernels
    it planned on the staged state, but the engine keeps their code: once
    a batch was peeked, peeking it again generates no kernel and touches
    no snapshot, its plans still match a fresh snapshot after it, and so
    do the next apply's."""
    program = transitive_closure_program(chains=4, length=6)
    materialized = MaterializedModel(program)
    materialized.apply(insertions=[atom("edge", "c3_n6", "c0_n0")])
    batch = {
        "insertions": [atom("edge", "c0_n6", "c1_n0")],
        "deletions": [atom("edge", "c2_n2", "c2_n3")],
    }
    world = materialized.peek(**batch)  # compiles what the batch needs

    calls = Counter()

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        columnar, "compile_schedule", counted("compile", columnar.compile_schedule)
    )
    monkeypatch.setattr(
        JoinStatistics, "refresh", counted("refresh", JoinStatistics.refresh)
    )
    statistics = live_statistics(materialized)
    kernels = set(materialized._kernels)

    assert materialized.peek(**batch) == world
    reads = materialized.peek(
        reader=lambda model: model.holds(atom("path", "c0_n0", "c1_n6")), **batch
    )
    assert reads is True
    assert calls == Counter()
    assert live_statistics(materialized) == statistics
    assert set(materialized._kernels) == kernels
    monkeypatch.undo()
    assert_plans_match_a_fresh_snapshot(materialized)

    materialized.apply(**batch)
    assert_statistics_match_a_fresh_snapshot(materialized)
    assert_plans_match_a_fresh_snapshot(materialized)
    assert materialized.model() == semi_naive_model(program)


# ---------------------------------------------------------------------------
# Staleness: out-of-band mutations rebuild exactly once
# ---------------------------------------------------------------------------

def _extra_rule():
    return DatalogRule(
        Atom("hop", (x, z)),
        (DatalogLiteral(Atom("edge", (x, y))), DatalogLiteral(Atom("edge", (y, z)))),
    )


#: ``p.facts`` is the model's EDB store, so these hit the store.
OUT_OF_BAND = {
    "store.write": lambda p: p.facts.write(p.facts.batch([atom("edge", "c0_n3", "c1_n0")])),
    "store replaced": lambda p: setattr(
        p, "facts", EdbStore(list(p.facts.atoms())[1:], p.facts.interner)
    ),
    "store replaced on its own interner": lambda p: setattr(
        p, "facts", EdbStore(sorted(p.facts.atoms(), key=str, reverse=True)[1:])
    ),
    "facts.append": lambda p: p.facts.append(DatalogFact(atom("edge", "c0_n3", "c1_n0"))),
    "facts.discard": lambda p: p.facts.discard(atom("edge", "c0_n0", "c0_n1")),
    "facts replaced": lambda p: setattr(p, "facts", list(p.facts)[1:]),
    "add_fact": lambda p: p.add_fact(atom("edge", "c0_n3", "c1_n0")),
    "add_rule": lambda p: p.add_rule(_extra_rule()),
    "rules.append": lambda p: p.rules.append(_extra_rule()),
}


@pytest.mark.parametrize("name", sorted(OUT_OF_BAND))
def test_out_of_band_mutations_rebuild_exactly_once(name):
    program = transitive_closure_program(chains=2, length=3)
    materialized = MaterializedModel(program)
    assert program.facts is materialized._edb
    materialized.apply(insertions=[atom("edge", "c1_n3", "c0_n0")])
    materialized.peek(deletions=[atom("edge", "c1_n3", "c0_n0")])
    assert materialized.statistics.rebuilds == 1
    OUT_OF_BAND[name](program)
    materialized.holds(atom("path", "c0_n0", "c0_n1"))
    materialized.query(Atom("path", (x, y)))
    materialized.derivation_count(atom("edge", "c0_n1", "c0_n2"))
    assert len(materialized) == len(semi_naive_model(program))
    assert materialized.statistics.rebuilds == 2
    assert materialized.model() == semi_naive_model(program)
    assert_statistics_match_a_fresh_snapshot(materialized)
    assert_plans_match_a_fresh_snapshot(materialized)


def test_appending_a_held_fact_moves_no_version_and_rebuilds_nothing():
    """With set semantics, appending a fact the store holds is no mutation:
    the version stays, so no model over the store rebuilds."""
    program = transitive_closure_program(chains=2, length=3)
    materialized = MaterializedModel(program)
    materialized.apply(insertions=[atom("edge", "c1_n3", "c0_n0")])
    version = program.facts.version
    program.facts.append(next(iter(program.facts)))
    assert program.facts.version == version
    assert materialized.holds(atom("path", "c1_n0", "c0_n3"))
    assert materialized.statistics.rebuilds == 1
    assert materialized.model() == semi_naive_model(program)


def test_pruned_program_sees_edb_changes_made_through_apply():
    program = closure_program()
    for fact in CLOSURE_FACTS[:3]:
        program.add_fact(fact)
    program.rule(Atom("path", (x, y)), Atom("ghost", (x, y)))  # never fires
    materialized = MaterializedModel(program)
    pruned = materialized.engine._effective_program()
    assert pruned is not program and len(pruned.rules) == 2
    assert pruned.facts is program.facts
    added, removed = atom("edge", "n3", "n4"), CLOSURE_FACTS[0]
    materialized.apply(insertions=[added], deletions=[removed])
    assert added in pruned.facts and removed not in pruned.facts
    assert set(materialized.engine.least_index()) == set(materialized.model())


# ---------------------------------------------------------------------------
# program.facts: an EdbStore, a set of facts with a version stamp
# ---------------------------------------------------------------------------

class TestProgramFacts:
    def test_set_semantics_len_and_membership(self):
        p, q = DatalogFact(atom("p", "a")), DatalogFact(atom("q", "b"))
        facts = DatalogProgram(facts=[p, q, p]).facts
        assert sorted(map(str, facts)) == ["p(a).", "q(b)."]
        assert len(facts) == 2
        assert p in facts and atom("q", "b") in facts
        assert DatalogFact(atom("r", "c")) not in facts and "p" not in facts
        assert set(facts.atoms()) == {p.atom, q.atom}

    def test_iteration_goes_relation_by_relation_in_row_order(self):
        # Row (id) order: a chain told in order comes back in that order,
        # so a store built from the sequence numbers its nodes alike.
        chain = [atom("edge", f"n{i}", f"n{i + 1}") for i in range(200)]
        nodes = [atom("node", f"n{i}") for i in range(0, 200, 7)]
        facts = DatalogProgram(facts=chain + nodes[::-1]).facts
        assert list(facts.atoms()) == chain + nodes
        assert [fact.atom for fact in facts] == chain + nodes

    def test_every_mutation_moves_the_version(self):
        facts = DatalogProgram().facts
        seen = {facts.version}
        facts.append(DatalogFact(atom("p", "a")))
        seen.add(facts.version)
        facts.append(DatalogFact(atom("p", "a")))  # held: no mutation
        assert facts.version in seen
        facts.discard(atom("p", "a"))
        seen.add(facts.version)
        assert len(seen) == 3
        version = facts.version
        assert not facts.discard(atom("p", "a"))  # no-op: no mutation
        assert facts.version == version
        assert DatalogProgram().facts.version not in seen | {version}

    def test_an_engine_follows_a_store_on_another_interner(self):
        program = DatalogProgram(facts=[atom("edge", "a", "b"), atom("edge", "b", "c")])
        program.rule(Atom("path", (x, y)), Atom("edge", (x, y)))
        program.rule(Atom("reach", (y,)), Atom("path", (Parameter("a"), y)))
        engine = DatalogEngine(program)
        assert atom("reach", "c") not in engine.least_model()
        program.facts = EdbStore([atom("edge", "c", "d"), atom("edge", "a", "c")])
        assert engine.interner is program.facts.interner
        assert engine.least_model() == semi_naive_model(program)
        assert atom("reach", "c") in engine.least_model()

    def test_append_rejects_non_facts(self):
        with pytest.raises(TypeError):
            DatalogProgram().facts.append(atom("p", "a"))

    def test_program_wraps_assigned_facts(self):
        program = DatalogProgram(facts=[atom("p", "a")])
        assert isinstance(program.facts, EdbStore)
        shared = program.facts
        other = DatalogProgram()
        other.facts = shared
        assert other.facts is shared
        interner = other.facts.interner
        other.facts = [DatalogFact(atom("q", "b")), atom("r", "c")]
        assert isinstance(other.facts, EdbStore) and len(other.facts) == 2
        assert other.facts.interner is interner
        with pytest.raises(TypeError):
            other.facts = ["q(b)"]
