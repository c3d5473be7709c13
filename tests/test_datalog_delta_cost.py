"""Delta-cost view maintenance: the contracts behind ``MaterializedModel``'s
O(batch) updates and reads.

* The planner histograms are kept incrementally: after every ``apply`` they
  equal a fresh :meth:`JoinStatistics.refresh` of the maintained index (so
  every join plan is the one a re-snapshot would give), and a ``peek``
  leaves them untouched — under hypothesis-driven batch streams, for every
  storage/index kind and for counting, DRed and stratified-negation
  programs.
* A one-fact ``apply`` / ``peek`` / ``query`` / ``holds`` takes no snapshot,
  reads no whole-column histogram and never iterates ``program.facts``.
* Staleness is still caught: every way of mutating the program outside
  ``apply`` triggers exactly one rebuild on the next read.
* ``program.facts`` is a :class:`FactList` that behaves like the list it
  replaced for everything the library does with it.
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.datalog import (
    DatalogEngine,
    DatalogFact,
    DatalogProgram,
    DatalogRule,
    FactIndex,
    MaterializedModel,
)
from repro.datalog.columnar import ColumnarFactIndex, ColumnarRelation, RowStore
from repro.datalog.program import DatalogLiteral, FactList
from repro.datalog.shard import ShardedFactIndex
from repro.datalog.stats import JoinStatistics
from repro.exceptions import ReproError
from repro.logic.builders import atom
from repro.logic.syntax import Atom
from repro.logic.terms import Parameter, Variable
from repro.workloads.generators import transitive_closure_program

x, y, z = Variable("x"), Variable("y"), Variable("z")

#: Every index kind a MaterializedModel can hold: a FactIndex, a
#: ColumnarFactIndex, and a ShardedFactIndex over either storage.
MODEL_KINDS = {
    "objects": dict(storage="objects"),
    "columnar": dict(storage="columnar"),
    "sharded-objects": dict(strategy="parallel", shards=2, storage="objects"),
    "sharded-columnar": dict(strategy="parallel", shards=3, storage="columnar"),
}


def fresh_snapshot(materialized):
    return JoinStatistics().refresh(materialized._index).snapshot()


# ---------------------------------------------------------------------------
# Programs: counting, DRed and stratified negation
# ---------------------------------------------------------------------------

def counting_program():
    """Non-recursive joins over a skewed relation (a hub value owns the
    largest bucket): every IDB predicate is maintained by counting."""
    program = DatalogProgram()
    program.rule(Atom("joined", (x, z)), Atom("r", (x, y)), Atom("s", (y, z)))
    program.rule(Atom("source", (x,)), Atom("r", (x, y)))
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
# Incremental histograms ≡ a fresh snapshot
# ---------------------------------------------------------------------------

batches = st.lists(
    st.tuples(
        st.lists(st.integers(0, 10_000), max_size=4),
        st.lists(st.integers(0, 10_000), max_size=4),
    ),
    min_size=1,
    max_size=8,
)


@settings(max_examples=50, deadline=None)
@given(
    kind=st.sampled_from(sorted(MODEL_KINDS)),
    name=st.sampled_from(sorted(PROGRAMS)),
    initial=st.lists(st.integers(0, 10_000), max_size=12),
    steps=batches,
)
def test_incremental_histograms_equal_a_fresh_snapshot(kind, name, initial, steps):
    make_program, universe = PROGRAMS[name]
    program = make_program()
    for index in initial:
        program.add_fact(universe[index % len(universe)])
    materialized = MaterializedModel(program, **MODEL_KINDS[kind])
    statistics = materialized.planner_statistics
    refreshes = statistics.refreshes
    assert statistics.snapshot() == fresh_snapshot(materialized)
    for inserted, deleted in steps:
        live = sorted(program.facts.atoms(), key=str)
        insertions = [universe[i % len(universe)] for i in inserted]
        deletions = [live[i % len(live)] for i in deleted] if live else []

        before = statistics.snapshot()
        model = materialized.model()
        materialized.peek(insertions, deletions)
        assert statistics.snapshot() == before
        assert materialized.model() == model

        materialized.apply(insertions, deletions)
        assert statistics.snapshot() == fresh_snapshot(materialized)
        assert materialized.model() == DatalogEngine(program).least_model()
    assert statistics.refreshes == refreshes  # never re-snapshotted
    assert materialized.statistics.rebuilds == 1


@pytest.mark.parametrize("kind", sorted(MODEL_KINDS))
def test_histograms_follow_a_shrinking_largest_bucket_and_an_emptied_relation(kind):
    program = counting_program()
    hub = [atom("r", f"a{i}", "hub") for i in range(4)]
    for fact in hub + [atom("r", "a0", "h0"), atom("r", "a1", "h0"), atom("s", "hub", "t0")]:
        program.add_fact(fact)
    materialized = MaterializedModel(program, **MODEL_KINDS[kind])
    statistics = materialized.planner_statistics
    assert statistics.column("r", 2, 1).max_bucket == 4

    # The largest bucket shrinks below the next one's size: 4 -> 1 with a
    # bucket of 2 (h0) left as the largest.
    materialized.apply(deletions=hub[:3])
    assert statistics.column("r", 2, 1).max_bucket == 2
    assert statistics.snapshot() == fresh_snapshot(materialized)

    # s/2 empties (and joined/2 with it): both leave the histograms.
    materialized.apply(deletions=[atom("s", "hub", "t0")])
    assert statistics.column("s", 2, 0) is None
    assert statistics.column("joined", 2, 0) is None
    assert statistics.snapshot() == fresh_snapshot(materialized)

    # ... and come back on the next insertion.
    materialized.apply(insertions=[atom("s", "h0", "t1")])
    assert statistics.column("joined", 2, 1).total == 2
    assert statistics.snapshot() == fresh_snapshot(materialized)


def test_uniform_planner_takes_no_snapshots():
    program = transitive_closure_program(chains=3, length=3)
    materialized = MaterializedModel(program, planner="uniform")
    materialized.apply(insertions=[atom("edge", "c0_n3", "c1_n0")])
    materialized.peek(deletions=[atom("edge", "c0_n0", "c0_n1")])
    assert materialized.planner_statistics.refreshes == 0
    assert materialized.planner_statistics.snapshot() == {}


# ---------------------------------------------------------------------------
# Delta cost: no snapshot, no whole-column read, no pass over the facts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", sorted(MODEL_KINDS))
def test_one_fact_updates_and_reads_are_delta_cost(kind, monkeypatch):
    program = transitive_closure_program(chains=40, length=4)
    materialized = MaterializedModel(program, **MODEL_KINDS[kind])
    calls = Counter()

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(
        JoinStatistics, "refresh", counted("refresh", JoinStatistics.refresh)
    )
    for owner in (FactIndex, ColumnarFactIndex, RowStore, ColumnarRelation,
                  ShardedFactIndex):
        monkeypatch.setattr(
            owner, "histogram_sizes",
            counted(f"{owner.__name__}.histogram_sizes", owner.histogram_sizes),
        )
    monkeypatch.setattr(FactList, "__iter__", counted("facts.iter", FactList.__iter__))
    monkeypatch.setattr(FactList, "atoms", counted("facts.atoms", FactList.atoms))

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


def test_peek_with_a_raising_reader_restores_state_and_counters():
    program = transitive_closure_program(chains=2, length=3)
    materialized = MaterializedModel(program)
    world = materialized.model()
    before = vars(materialized.statistics).copy()
    snapshot = materialized.planner_statistics.snapshot()

    def reader(model):
        raise RuntimeError("reader failed")

    with pytest.raises(RuntimeError):
        materialized.peek(deletions=[atom("edge", "c0_n0", "c0_n1")], reader=reader)
    assert vars(materialized.statistics) == before
    assert materialized.planner_statistics.snapshot() == snapshot
    assert materialized.model() == world


# ---------------------------------------------------------------------------
# Staleness: out-of-band mutations rebuild exactly once
# ---------------------------------------------------------------------------

def _extra_rule():
    return DatalogRule(
        Atom("hop", (x, z)),
        (DatalogLiteral(Atom("edge", (x, y))), DatalogLiteral(Atom("edge", (y, z)))),
    )


OUT_OF_BAND = {
    "facts.append": lambda p: p.facts.append(DatalogFact(atom("edge", "c0_n3", "c1_n0"))),
    "facts.append duplicate": lambda p: p.facts.append(next(iter(p.facts))),
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
    materialized.apply(insertions=[atom("edge", "c1_n3", "c0_n0")])
    materialized.peek(deletions=[atom("edge", "c1_n3", "c0_n0")])
    assert materialized.statistics.rebuilds == 1
    OUT_OF_BAND[name](program)
    materialized.holds(atom("path", "c0_n0", "c0_n1"))
    materialized.query(Atom("path", (x, y)))
    materialized.derivation_count(atom("edge", "c0_n1", "c0_n2"))
    assert len(materialized) == len(DatalogEngine(program).least_model())
    assert materialized.statistics.rebuilds == 2
    assert materialized.model() == DatalogEngine(program).least_model()
    assert materialized.planner_statistics.snapshot() == fresh_snapshot(materialized)


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
# FactList: the list it replaced, keyed by atom
# ---------------------------------------------------------------------------

class TestFactList:
    def test_order_duplicates_len_and_membership(self):
        p, q = DatalogFact(atom("p", "a")), DatalogFact(atom("q", "b"))
        facts = FactList([p, q, p])
        assert list(facts) == [p, q, p]
        assert len(facts) == 3
        assert p in facts and atom("q", "b") in facts
        assert DatalogFact(atom("r", "c")) not in facts and "p" not in facts
        assert list(facts.atoms()) == [p.atom, q.atom]

    def test_discard_removes_every_occurrence(self):
        p, q = DatalogFact(atom("p", "a")), DatalogFact(atom("q", "b"))
        facts = FactList([p, q, p])
        assert facts.discard(p.atom)
        assert list(facts) == [q] and p not in facts
        assert not facts.discard(p.atom)
        facts.append(p)
        assert list(facts) == [q, p]

    def test_every_mutation_moves_the_version(self):
        facts = FactList()
        seen = {facts.version}
        facts.append(DatalogFact(atom("p", "a")))
        seen.add(facts.version)
        facts.append(DatalogFact(atom("p", "a")))
        seen.add(facts.version)
        facts.discard(atom("p", "a"))
        seen.add(facts.version)
        assert len(seen) == 4
        version = facts.version
        assert not facts.discard(atom("p", "a"))  # no-op: no mutation
        assert facts.version == version
        assert FactList().version not in seen | {version}

    def test_append_rejects_non_facts(self):
        with pytest.raises(TypeError):
            FactList().append(atom("p", "a"))

    def test_program_wraps_assigned_facts(self):
        program = DatalogProgram(facts=[atom("p", "a")])
        assert isinstance(program.facts, FactList)
        shared = program.facts
        other = DatalogProgram()
        other.facts = shared
        assert other.facts is shared
        other.facts = [DatalogFact(atom("q", "b"))]
        assert isinstance(other.facts, FactList) and len(other.facts) == 1
