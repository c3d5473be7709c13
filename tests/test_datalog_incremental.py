"""Tests for incremental view maintenance (``repro.datalog.incremental``).

The load-bearing property: after any sequence of EDB insertions and
deletions, ``MaterializedModel.apply`` leaves the maintained model
fact-for-fact identical to a from-scratch ``least_model()`` of the mutated
program — on the recursive transitive-closure workload (backward/forward
maintenance), on a stratified-negation program (counting strata driven in
both directions by lower-stratum changes) and on recursive shapes with
non-linear, mutual and cyclic recursion, IDB seeds and recursion under
negation, under hypothesis-driven random update sequences.
"""

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.datalog import (
    DatalogEngine,
    DatalogLiteral,
    DatalogProgram,
    DatalogRule,
    Interner,
    MaterializedModel,
    RowStore,
)
from repro.logic.builders import atom
from repro.logic.syntax import Atom
from repro.logic.terms import Parameter, Variable
from repro.semantics.worlds import World
from repro.workloads.generators import transitive_closure_program, update_stream

x, y, z = Variable("x"), Variable("y"), Variable("z")
a, b, c = Parameter("a"), Parameter("b"), Parameter("c")


# ---------------------------------------------------------------------------
# RowStore deletion dual (the store the maintainer's deltas and model use)
# ---------------------------------------------------------------------------

INTERNER = Interner()
encode = INTERNER.encode_atom


def rows(*atoms):
    return RowStore(encode(fact) for fact in atoms)


class TestFactIndexDeletion:
    def test_discard_removes_from_all_buckets(self):
        index = rows(Atom("p", (a, b)), Atom("p", (a, c)))
        assert index.discard(encode(Atom("p", (a, b))))
        assert encode(Atom("p", (a, b))) not in index
        assert len(index) == 1
        ida, idb = INTERNER.id_of(a), INTERNER.id_of(b)
        assert set(index.candidates("p", 2, [(0, ida)])) == {encode(Atom("p", (a, c)))}
        assert set(index.candidates("p", 2, [(1, idb)])) == set()

    def test_discard_absent_is_noop(self):
        index = rows(Atom("p", (a,)))
        assert not index.discard(encode(Atom("p", (b,))))
        assert not index.discard(encode(Atom("q", (a,))))
        assert len(index) == 1

    def test_discard_updates_selectivity(self):
        # The bucket sizes are what the planner's selectivity estimate is
        # built from (JoinStatistics): an emptied value bucket must go.
        index = rows(Atom("p", (a, b)), Atom("p", (b, b)))
        ida, idb = INTERNER.id_of(a), INTERNER.id_of(b)
        assert index.histogram_sizes("p", 2, 0) == [1, 1]
        index.discard(encode(Atom("p", (a, b))))
        # only one distinct value remains at position 0
        assert index.histogram_sizes("p", 2, 0) == [1]
        assert index.bucket_size("p", 2, 0, idb) == 1
        assert index.bucket_size("p", 2, 0, ida) == 0
        assert index.histogram_sizes("p", 2, 1) == [1]

    def test_discard_all_counts_only_present_facts(self):
        index = rows(Atom("p", (a, b)), Atom("q", (c,)))
        removed = index.discard_all([encode(Atom("p", (a, b))), encode(Atom("p", (b, c)))])
        assert removed == 1
        assert set(index) == {encode(Atom("q", (c,)))}

    def test_discard_all_is_absorb_dual(self):
        index = rows(Atom("p", (a, b)), Atom("p", (b, c)), Atom("q", (a,)))
        delta = rows(Atom("p", (b, c)), Atom("q", (a,)), Atom("r", (c,)))
        removed = index.discard_all(delta)
        assert removed == 2
        assert set(index) == {encode(Atom("p", (a, b)))}
        assert index.count("q", 1) == 0

    def test_absorb_then_retract_roundtrip(self):
        base = [Atom("p", (a, b))]
        extra = [Atom("p", (a, c)), Atom("q", (b,))]
        index = rows(*base)
        index.absorb(rows(*extra))
        index.discard_all(rows(*extra))
        reference = rows(*base)
        assert set(index) == set(reference)
        bound = [(0, INTERNER.id_of(a))]
        assert set(index.candidates("p", 2, bound)) == set(reference.candidates("p", 2, bound))


def test_world_from_fact_index_matches_constructor():
    # The maintained model's world is decoded from its id-space fact index
    # in one pass; it must equal, and hash like, the World constructor's.
    facts = [Atom("p", (a, b)), Atom("q", (c,)), Atom("p", (b, c))]
    program = DatalogProgram()
    for fact in facts:
        program.add_fact(fact)
    seeded = MaterializedModel(program).model()
    direct = World(facts)
    assert seeded == direct
    assert hash(seeded) == hash(direct)
    assert set(seeded.atoms_for("p")) == set(direct.atoms_for("p"))
    assert seeded.holds(Atom("q", (c,)))


# ---------------------------------------------------------------------------
# deterministic maintenance behaviour
# ---------------------------------------------------------------------------


def closure_program():
    return transitive_closure_program(chains=2, length=3)


class TestMaterializedModel:
    def test_matches_engine_after_build(self):
        program = closure_program()
        assert MaterializedModel(program).model() == DatalogEngine(program).least_model()

    def test_insertion_extends_closure(self):
        program = closure_program()
        materialized = MaterializedModel(program)
        materialized.apply(insertions=[atom("edge", "c0_n3", "c1_n0")])
        assert materialized.holds(atom("path", "c0_n0", "c1_n3"))
        assert materialized.model() == DatalogEngine(program).least_model()

    def test_deletion_shrinks_closure(self):
        program = closure_program()
        materialized = MaterializedModel(program)
        materialized.apply(deletions=[atom("edge", "c0_n1", "c0_n2")])
        assert not materialized.holds(atom("path", "c0_n0", "c0_n3"))
        assert materialized.holds(atom("path", "c0_n0", "c0_n1"))
        assert materialized.model() == DatalogEngine(program).least_model()

    def test_dred_rederives_alternative_derivations(self):
        """Deleting one of two parallel routes must keep the facts the other
        route still derives — the backward check proves them."""
        program = DatalogProgram()
        for edge in [("s", "m1"), ("s", "m2"), ("m1", "t"), ("m2", "t"), ("t", "u")]:
            program.add_fact(atom("edge", *edge))
        program.rule(Atom("path", (x, y)), Atom("edge", (x, y)))
        program.rule(Atom("path", (x, z)), Atom("edge", (x, y)), Atom("path", (y, z)))
        materialized = MaterializedModel(program)
        assert materialized.holds(atom("path", "s", "u"))
        materialized.apply(deletions=[atom("edge", "m1", "t")])
        # path(s, t) and path(s, u) survive via m2
        assert materialized.holds(atom("path", "s", "t"))
        assert materialized.holds(atom("path", "s", "u"))
        assert materialized.statistics.rederived > 0
        assert materialized.model() == DatalogEngine(program).least_model()
        materialized.apply(deletions=[atom("edge", "m2", "t")])
        assert not materialized.holds(atom("path", "s", "u"))
        assert materialized.model() == DatalogEngine(program).least_model()

    def test_counting_tracks_multiple_derivations(self):
        program = DatalogProgram()
        program.add_fact(atom("q", "a"))
        program.add_fact(atom("r", "a"))
        program.add_fact(atom("p", "a"))  # EDB *and* derivable both ways
        program.rule(Atom("p", (x,)), Atom("q", (x,)))
        program.rule(Atom("p", (x,)), Atom("r", (x,)))
        materialized = MaterializedModel(program)
        assert materialized.derivation_count(atom("p", "a")) == 3
        materialized.apply(deletions=[atom("q", "a")])
        assert materialized.derivation_count(atom("p", "a")) == 2
        materialized.apply(deletions=[atom("r", "a"), atom("p", "a")])
        assert not materialized.holds(atom("p", "a"))
        assert materialized.model() == DatalogEngine(program).least_model()

    def test_negation_flips_both_directions(self):
        """An insertion below a negation deletes above, and vice versa."""
        program = DatalogProgram()
        program.add_fact(atom("node", "a"))
        program.add_fact(atom("node", "b"))
        program.add_fact(atom("busy", "a"))
        program.rule(Atom("idle", (x,)), Atom("node", (x,)), (Atom("busy", (x,)), False))
        materialized = MaterializedModel(program)
        assert materialized.holds(atom("idle", "b"))
        assert not materialized.holds(atom("idle", "a"))
        materialized.apply(insertions=[atom("busy", "b")])
        assert not materialized.holds(atom("idle", "b"))
        materialized.apply(deletions=[atom("busy", "a"), atom("busy", "b")])
        assert materialized.holds(atom("idle", "a"))
        assert materialized.holds(atom("idle", "b"))
        assert materialized.model() == DatalogEngine(program).least_model()

    def test_apply_set_semantics(self):
        program = closure_program()
        materialized = MaterializedModel(program)
        before = materialized.model()
        # deleting an absent fact and re-inserting a present one are no-ops
        result = materialized.apply(
            insertions=[atom("edge", "c0_n0", "c0_n1")],
            deletions=[atom("edge", "zz", "zz")],
        )
        assert not result.edb_added and not result.edb_removed
        assert materialized.model() == before

    def test_apply_same_fact_in_both_lists_stays(self):
        program = closure_program()
        materialized = MaterializedModel(program)
        target = atom("edge", "c0_n0", "c0_n1")
        result = materialized.apply(insertions=[target], deletions=[target])
        assert not result.edb_removed
        assert materialized.holds(target)
        assert materialized.model() == DatalogEngine(program).least_model()

    def test_peek_is_side_effect_free(self):
        program = closure_program()
        materialized = MaterializedModel(program)
        before_world = materialized.model()
        before_counts = dict(materialized._counts)
        before_facts = list(program.facts)
        before_statistics = vars(materialized.statistics).copy()
        peeked = materialized.peek(
            insertions=[atom("edge", "c0_n3", "c1_n0")],
            deletions=[atom("edge", "c0_n0", "c0_n1")],
        )
        assert peeked.holds(atom("path", "c0_n1", "c1_n3"))
        assert not peeked.holds(atom("path", "c0_n0", "c0_n1"))
        assert materialized.model() == before_world
        assert dict(materialized._counts) == before_counts
        assert list(program.facts) == before_facts
        assert vars(materialized.statistics) == before_statistics  # no trace

    def test_engine_cache_serves_maintained_model(self):
        program = closure_program()
        materialized = MaterializedModel(program)
        materialized.apply(insertions=[atom("edge", "c1_n3", "c0_n0")])
        world = materialized.model()
        engine = materialized.engine
        iterations = engine.statistics.iterations
        assert engine.least_model() is world
        assert engine.statistics.iterations == iterations  # no fixpoint re-run

    def test_engine_least_model_is_delta_maintained(self):
        """Calling the *engine* right after apply() — before model() — must
        pull from the maintained state, not re-run the fixpoint."""
        program = closure_program()
        materialized = MaterializedModel(program)
        engine = materialized.engine
        materialized.apply(insertions=[atom("edge", "c1_n3", "c0_n0")])
        iterations = engine.statistics.iterations
        world = engine.least_model()          # engine first, view second
        assert world is materialized.model()
        assert engine.statistics.iterations == iterations
        assert world.holds(atom("path", "c1_n0", "c0_n3"))

    def test_out_of_band_mutation_triggers_rebuild(self):
        program = closure_program()
        materialized = MaterializedModel(program)
        rebuilds = materialized.statistics.rebuilds
        program.add_fact(atom("edge", "c0_n3", "c1_n0"))  # not via apply()
        assert materialized.holds(atom("path", "c0_n0", "c1_n3"))
        assert materialized.statistics.rebuilds == rebuilds + 1

    def test_derivation_count_sees_out_of_band_mutation(self):
        program = DatalogProgram()
        program.add_fact(atom("q", "a"))
        program.rule(Atom("p", (x,)), Atom("q", (x,)))
        materialized = MaterializedModel(program)
        program.add_fact(atom("p", "b"))  # not via apply()
        assert materialized.derivation_count(atom("p", "b")) == 1
        assert materialized.derivation_count(atom("p", "a")) == 1

    def test_negated_literal_before_its_binder_counts_once(self):
        """One batch both inserts ``node(b)`` and cuts ``path(a, b)``: the
        derivation of ``unreachable(a, b)`` changed at two body positions,
        and the negated literal textually before ``node(y)`` must have
        unchanged support there — so it is counted once, not twice."""
        program = DatalogProgram()
        program.add_fact(atom("edge", "a", "b"))
        program.add_fact(atom("node", "a"))
        program.rule(Atom("path", (x, y)), Atom("edge", (x, y)))
        program.rule(
            Atom("unreachable", (x, y)),
            Atom("node", (x,)), (Atom("path", (x, y)), False), Atom("node", (y,)),
        )
        materialized = MaterializedModel(program)
        materialized.apply(insertions=[atom("node", "b")], deletions=[atom("edge", "a", "b")])
        assert materialized.derivation_count(atom("unreachable", "a", "b")) == 1
        assert materialized.model() == DatalogEngine(program, strategy="semi-naive").least_model()
        materialized.apply(deletions=[atom("node", "b")], insertions=[atom("edge", "a", "b")])
        assert materialized.derivation_count(atom("unreachable", "a", "b")) == 0
        assert materialized.model() == DatalogEngine(program, strategy="semi-naive").least_model()

    def test_rejects_non_ground_updates(self):
        from repro.exceptions import ReproError

        materialized = MaterializedModel(closure_program())
        with pytest.raises(ReproError):
            materialized.apply(insertions=[Atom("edge", (x, y))])


# ---------------------------------------------------------------------------
# property: apply() agrees with from-scratch least_model()
# ---------------------------------------------------------------------------

TC_NODES = [f"c{chain}_n{i}" for chain in range(2) for i in range(4)]
TC_EDGES = [atom("edge", u, v) for u in TC_NODES for v in TC_NODES if u != v]


def stratified_program():
    """Recursion *and* negation: reach/2 is recursive over edge/2, blocked/1
    gates it through negation, and far/1 negates the recursive layer."""
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
        Atom("far", (x,)),
        Atom("node", (x,)),
        (Atom("reach", (Parameter("n0"), x)), False),
    )
    return program


SN_NODES = [f"n{i}" for i in range(5)]
SN_FACTS = (
    [atom("node", n) for n in SN_NODES]
    + [atom("shadow", n) for n in SN_NODES]
    + [atom("edge", u, v) for u in SN_NODES for v in SN_NODES if u != v]
)


def _replay(make_program, initial_facts, universe, operations):
    """Apply a random operation sequence both incrementally and by full
    recomputation, asserting agreement after every step."""
    program = make_program()
    for fact in initial_facts:
        program.add_fact(fact)
    materialized = MaterializedModel(program)
    for delete, indices in operations:
        if delete:
            current = sorted({f.atom for f in program.facts}, key=str)
            batch = [current[i % len(current)] for i in indices] if current else []
            materialized.apply(deletions=batch)
        else:
            batch = [universe[i % len(universe)] for i in indices]
            materialized.apply(insertions=batch)
        assert materialized.model() == DatalogEngine(program).least_model()
    # exactness: a final rebuild must reproduce the maintained state
    maintained = materialized.model()
    materialized.refresh()
    assert materialized.model() == maintained


operation_lists = st.lists(
    st.tuples(st.booleans(), st.lists(st.integers(0, 10_000), min_size=1, max_size=3)),
    min_size=1,
    max_size=8,
)


@settings(max_examples=40, deadline=None)
@given(
    edges=st.lists(st.sampled_from(TC_EDGES), min_size=3, max_size=10, unique=True),
    operations=operation_lists,
)
def test_property_transitive_closure_agrees_with_recompute(edges, operations):
    def make_program():
        program = DatalogProgram()
        program.rule(Atom("path", (x, y)), Atom("edge", (x, y)))
        program.rule(Atom("path", (x, z)), Atom("edge", (x, y)), Atom("path", (y, z)))
        return program

    _replay(make_program, edges, TC_EDGES, operations)


@settings(max_examples=40, deadline=None)
@given(
    facts=st.lists(st.sampled_from(SN_FACTS), min_size=3, max_size=12, unique=True),
    operations=operation_lists,
)
def test_property_stratified_negation_agrees_with_recompute(facts, operations):
    _replay(stratified_program, facts, SN_FACTS, operations)


def test_update_stream_batches_are_consistent():
    program = transitive_closure_program(chains=4, length=4)
    live = {f.atom for f in program.facts}
    for insertions, deletions in update_stream(program, batches=12, churn=0.1, seed=5):
        assert set(deletions) <= live
        assert not (set(insertions) & live)
        assert not (set(insertions) & set(deletions))
        live = (live - set(deletions)) | set(insertions)
        assert all(f.predicate == "edge" for f in insertions)


def test_update_stream_drives_materialized_model():
    program = transitive_closure_program(chains=4, length=4)
    materialized = MaterializedModel(program)
    for insertions, deletions in update_stream(program, batches=10, churn=0.05, seed=9):
        materialized.apply(insertions, deletions)
        assert materialized.model() == DatalogEngine(program).least_model()


# ---------------------------------------------------------------------------
# Backward/forward maintenance: recursive shapes, differential per step
# ---------------------------------------------------------------------------

BF_NODES = ["a", "b", "c", "d"]
BF_EDGES = [atom("edge", u, v) for u in BF_NODES for v in BF_NODES]  # self-loops too


def linear_closure():
    program = DatalogProgram()
    program.rule(Atom("path", (x, y)), Atom("edge", (x, y)))
    program.rule(Atom("path", (x, z)), Atom("edge", (x, y)), Atom("path", (y, z)))
    return program


def nonlinear_closure():
    program = DatalogProgram()
    program.rule(Atom("path", (x, y)), Atom("edge", (x, y)))
    program.rule(Atom("path", (x, z)), Atom("path", (x, y)), Atom("path", (y, z)))
    return program


def mutual_recursion():
    """Walks of odd and even length: two predicates, one component."""
    program = DatalogProgram()
    program.rule(Atom("odd", (x, y)), Atom("edge", (x, y)))
    program.rule(Atom("even", (x, z)), Atom("odd", (x, y)), Atom("edge", (y, z)))
    program.rule(Atom("odd", (x, z)), Atom("even", (x, y)), Atom("edge", (y, z)))
    return program


def recursion_under_negation():
    """A recursive component that negates a derived predicate below it and
    is negated by one above it."""
    program = DatalogProgram()
    program.rule(Atom("blocked", (x,)), Atom("wall", (x,)), (Atom("door", (x,)), False))
    program.rule(
        Atom("reach", (x, y)), Atom("edge", (x, y)), (Atom("blocked", (y,)), False)
    )
    program.rule(
        Atom("reach", (x, z)),
        Atom("reach", (x, y)),
        Atom("edge", (y, z)),
        (Atom("blocked", (z,)), False),
    )
    program.rule(
        Atom("oneway", (x, y)), Atom("edge", (x, y)), (Atom("reach", (y, x)), False)
    )
    return program


#: name -> (program, the facts a step draws from).  ``seeded`` tells the
#: IDB predicate ``path`` facts of its own as EDB facts; ``cycles`` is the
#: linear closure over a graph dense with cycles and self-loops.
RECURSIVE_SHAPES = {
    "nonlinear": (nonlinear_closure, BF_EDGES),
    "mutual": (mutual_recursion, BF_EDGES),
    "cycles": (linear_closure, BF_EDGES),
    "seeded": (linear_closure, BF_EDGES + [
        atom("path", u, v) for u in BF_NODES for v in BF_NODES
    ]),
    "negation": (recursion_under_negation, BF_EDGES + [
        atom(predicate, node) for predicate in ("wall", "door") for node in BF_NODES
    ]),
}


def semi_naive(rules, facts):
    program = DatalogProgram(rules=rules)
    for fact in facts:
        program.add_fact(fact)
    return DatalogEngine(program, strategy="semi-naive").least_model()


def private_state(materialized):
    """The rows and probe buckets of the model's own (derived) relations.
    Buckets are built here if they were not yet, so a peek has them to
    maintain and its undo must restore them too."""
    return {
        key: (frozenset(relation.rows), tuple(
            {value: frozenset(rows) for value, rows in bucket.items()}
            for bucket in relation.buckets
        ))
        for key, relation in materialized._store.items()
        if materialized._kind.get(key) is not None and relation.rows
    }


def planner_statistics(materialized):
    """The sums of squared bucket sizes every relation of the index keeps
    for the planner."""
    return {
        key: tuple(relation.squares)
        for key, relation in materialized._store.items() if relation.rows
    }


def _differential(make_program, universe, initial, steps):
    """Drive a maintained model with insertions, deletions and peeks,
    comparing it with a ``semi-naive`` recompute after every step; a peek
    must answer the recompute of its batch and leave the model, its own
    relations' rows and buckets, its counters, its counts and the
    statistics its relations keep for the planner exactly as they were."""
    program = make_program()
    for fact in dict.fromkeys(universe[i % len(universe)] for i in initial):
        program.add_fact(fact)
    rules = list(program.rules)
    materialized = MaterializedModel(program)
    for kind, indices in steps:
        facts = {fact.atom for fact in program.facts}
        if kind == "delete":
            current = sorted(facts, key=str)
            batch = [current[i % len(current)] for i in indices] if current else []
            materialized.apply(deletions=batch)
        elif kind == "insert":
            materialized.apply(insertions=[universe[i % len(universe)] for i in indices])
        else:
            batch = [universe[i % len(universe)] for i in indices]
            deletions = [fact for fact in batch if fact in facts]
            insertions = [fact for fact in batch if fact not in facts]
            before = (
                materialized.model(),
                private_state(materialized),
                vars(materialized.statistics).copy(),
                dict(materialized._counts),
                set(materialized._seeds),
                planner_statistics(materialized),
            )
            peeked = materialized.peek(insertions=insertions, deletions=deletions)
            assert peeked == semi_naive(rules, (facts - set(deletions)) | set(insertions))
            assert (
                materialized.model(),
                private_state(materialized),
                vars(materialized.statistics),
                dict(materialized._counts),
                set(materialized._seeds),
                planner_statistics(materialized),
            ) == before
        assert materialized.model() == semi_naive(rules, [f.atom for f in program.facts])
    assert materialized.statistics.rebuilds == 1


bf_steps = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "peek"]),
        st.lists(st.integers(0, 10_000), min_size=1, max_size=3),
    ),
    min_size=1,
    max_size=8,
)


@pytest.mark.parametrize("shape", sorted(RECURSIVE_SHAPES))
@settings(max_examples=30, deadline=None)
@given(initial=st.lists(st.integers(0, 10_000), max_size=12), steps=bf_steps)
def test_property_recursive_shapes_agree_with_semi_naive(shape, initial, steps):
    make_program, universe = RECURSIVE_SHAPES[shape]
    _differential(make_program, universe, initial, steps)


# ---------------------------------------------------------------------------
# Mixed-sign batches on a self-join: the telescoped delta
# ---------------------------------------------------------------------------

def self_join_program():
    """Two-step walks that skip blocked pairs, and those of them not
    answered by a reverse edge: ``e`` joins itself, so one batch changes
    both sides of the join, and both negated literals read a relation the
    same batch changes."""
    program = DatalogProgram()
    program.rule(
        Atom("walk", (x, z)),
        Atom("e", (x, y)), Atom("e", (y, z)), (Atom("blocked", (x, z)), False),
    )
    program.rule(Atom("oneway", (x, z)), Atom("walk", (x, z)), (Atom("e", (z, x)), False))
    return program


SELF_JOIN_FACTS = [atom("e", u, v) for u in BF_NODES for v in BF_NODES] + [
    atom("blocked", u, v) for u in BF_NODES for v in BF_NODES
]


def decoded_counts(materialized):
    decode = materialized._interner.decode_row
    return {decode(key[0], row): count for (key, row), count in materialized._counts.items()}


def assert_mixed_batch(program, materialized, insertions, deletions, peek):
    """Apply (or peek) one batch and compare it with a recompute: the model
    with ``semi_naive`` and, for an applied batch, every derivation count
    with a model built from scratch."""
    rules = list(program.rules)
    held = {fact.atom for fact in program.facts}
    after = (held - set(deletions)) | set(insertions)
    expected = semi_naive(rules, after)
    if peek:
        before = (materialized.model(), private_state(materialized), decoded_counts(materialized))
        assert materialized.peek(insertions=insertions, deletions=deletions) == expected
        assert (
            materialized.model(), private_state(materialized), decoded_counts(materialized)
        ) == before
        return
    materialized.apply(insertions=insertions, deletions=deletions)
    assert materialized.model() == expected
    fresh = DatalogProgram(rules=rules)
    for fact in sorted(after, key=str):
        fresh.add_fact(fact)
    assert decoded_counts(materialized) == decoded_counts(MaterializedModel(fresh))


def test_a_batch_changing_both_sides_of_a_self_join():
    """``e(a, b)`` and ``e(b, c)`` leave and ``e(b, a)``, ``e(a, c)`` and
    ``e(c, a)`` arrive in one batch: walks are lost through either side of
    the join and gained through either side, and ``oneway`` reads ``e``
    negated after its delta literal."""
    program = self_join_program()
    for fact in [atom("e", "a", "b"), atom("e", "b", "c"), atom("e", "c", "d"),
                 atom("e", "b", "b"), atom("blocked", "a", "d")]:
        program.add_fact(fact)
    materialized = MaterializedModel(program)
    batch = {
        "insertions": [atom("e", "b", "a"), atom("e", "a", "c"), atom("e", "c", "a")],
        "deletions": [atom("e", "a", "b"), atom("e", "b", "c")],
    }
    assert_mixed_batch(program, materialized, peek=True, **batch)
    assert_mixed_batch(program, materialized, peek=False, **batch)
    assert materialized.statistics.rebuilds == 1


@settings(max_examples=60, deadline=None)
@given(
    initial=st.lists(st.integers(0, 10_000), max_size=16),
    steps=st.lists(
        st.tuples(
            st.lists(st.integers(0, 10_000), max_size=4),
            st.lists(st.integers(0, 10_000), max_size=4),
            st.booleans(),
        ),
        min_size=1,
        max_size=6,
    ),
)
def test_property_mixed_batches_on_a_self_join(initial, steps):
    universe = SELF_JOIN_FACTS
    program = self_join_program()
    for fact in dict.fromkeys(universe[i % len(universe)] for i in initial):
        program.add_fact(fact)
    materialized = MaterializedModel(program)
    for inserted, deleted, peek in steps:
        held = sorted((fact.atom for fact in program.facts), key=str)
        deletions = [held[i % len(held)] for i in deleted] if held else []
        insertions = [universe[i % len(universe)] for i in inserted]
        assert_mixed_batch(program, materialized, insertions, deletions, peek)
    assert materialized.statistics.rebuilds == 1


def chain_model():
    """One 20-edge chain ``n0 -> ... -> n20`` under the linear closure."""
    program = linear_closure()
    for i in range(20):
        program.add_fact(atom("edge", f"n{i}", f"n{i + 1}"))
    return program, MaterializedModel(program)


def test_retracting_a_shortcut_checks_only_what_it_supported():
    """The shortcut ``n5 -> n15`` adds no path; retracting it makes
    candidates of the six paths it supported (``path(n5, n15..n20)``), each
    proved by its chain, and removes nothing."""
    program, materialized = chain_model()
    shortcut = atom("edge", "n5", "n15")
    told = materialized.apply(insertions=[shortcut])
    assert told.edb_added == {shortcut} and not told.derived_added
    before = vars(materialized.statistics).copy()
    result = materialized.apply(deletions=[shortcut])
    after = vars(materialized.statistics)
    assert result.edb_removed == {shortcut} and not result.derived_removed
    checked = after["overdeleted"] - before["overdeleted"]
    assert 0 < checked <= 6
    assert after["rederived"] - before["rederived"] == checked
    assert after["facts_removed"] == before["facts_removed"]
    assert materialized.model() == DatalogEngine(program, strategy="semi-naive").least_model()


def test_support_through_an_undecided_cycle_proves_nothing():
    """Deleting ``start(a)`` makes ``on(a)`` a candidate, and disproving it
    makes ``on(b)`` one.  ``on(b)`` still has a derivation from ``on(c)``,
    which no deletion touched directly, but ``on(c)`` holds only through
    ``on(b)``: both must go."""
    program = DatalogProgram()
    for fact in [atom("start", "a"), atom("link", "a", "b"), atom("link", "b", "c"),
                 atom("link", "c", "b")]:
        program.add_fact(fact)
    program.rule(Atom("on", (x,)), Atom("start", (x,)))
    program.rule(Atom("on", (y,)), Atom("on", (x,)), Atom("link", (x, y)))
    materialized = MaterializedModel(program)
    result = materialized.apply(deletions=[atom("start", "a")])
    assert result.derived_removed == {atom("on", n) for n in ("a", "b", "c")}
    assert materialized.model() == DatalogEngine(program, strategy="semi-naive").least_model()


def test_cutting_the_middle_edge_removes_exactly_its_paths():
    """Cutting ``n10 -> n11`` disproves every ``path(ni, nj)`` with
    ``i <= 10 < j``: 11 * 10 = 110 facts, none of them proved."""
    program, materialized = chain_model()
    before = vars(materialized.statistics).copy()
    result = materialized.apply(deletions=[atom("edge", "n10", "n11")])
    after = vars(materialized.statistics)
    assert len(result.derived_removed) == 110
    assert after["facts_removed"] - before["facts_removed"] == 110
    assert after["rederived"] == before["rederived"]
    assert materialized.model() == DatalogEngine(program, strategy="semi-naive").least_model()


# ---------------------------------------------------------------------------
# Histogram-planned maintenance
# ---------------------------------------------------------------------------

class TestMaintenancePlanning:
    def test_maintenance_schedules_are_reordered_by_histograms(self):
        # joined(x, z) :- r1(x, y), r2(y, z) with r2 much smaller than r1:
        # the engine's planner, fed the index's statistics, starts the
        # no-delta schedule (the build's counting pass) from the small
        # relation, not from the textually first one.
        program = DatalogProgram()
        for i in range(30):
            program.add_fact(atom("r1", f"a{i}", "hub"))
        program.add_fact(atom("r2", "hub", "t"))
        x, y, z = Variable("x"), Variable("y"), Variable("z")
        rule = DatalogRule(
            Atom("joined", (x, z)),
            (DatalogLiteral(Atom("r1", (x, y))), DatalogLiteral(Atom("r2", (y, z)))),
        )
        program.add_rule(rule)

        ordered = MaterializedModel(program)
        [schedule] = [
            key[2] for key in ordered.engine._compiled_cache
            if key[0] == rule and key[1] is None and key[3] == "count"
        ]
        assert rule.body[0].atom.predicate == "r1"
        assert schedule[0][0].atom.predicate == "r2"
        # Each delta pass has one literal besides its delta: nothing for
        # the statistics to reorder, so no write re-plans after the build.
        assert ordered._planned == set()

    def test_non_indexed_engine_rejected(self):
        program = transitive_closure_program(chains=2, length=2)
        for strategy in ("naive", "semi-naive"):
            with pytest.raises(ValueError, match="indexed"):
                MaterializedModel(DatalogEngine(program, strategy=strategy))
        # The engine is the only option left to pass.
        with pytest.raises(TypeError):
            MaterializedModel(program, planner="histogram")
        with pytest.raises(TypeError):
            MaterializedModel(program, storage="columnar")


# ---------------------------------------------------------------------------
# Maintenance runs in id space: atoms only at the API edge
# ---------------------------------------------------------------------------

ALLOCATION_PROBE = """
from repro.datalog import DatalogEngine, DatalogProgram, MaterializedModel
from repro.logic.builders import atom
from repro.logic.syntax import Atom
from repro.logic.terms import Variable

x, y, z = Variable("x"), Variable("y"), Variable("z")
program = DatalogProgram()
for i in range(20):
    program.add_fact(atom("edge", f"n{i}", f"n{i + 1}"))
program.rule(Atom("path", (x, y)), Atom("edge", (x, y)))
program.rule(Atom("path", (x, z)), Atom("edge", (x, y)), Atom("path", (y, z)))
materialized = MaterializedModel(program)
shortcut = atom("edge", "n3", "n9")
allocated = 0


def counting_new(cls, *args, **kwargs):
    global allocated
    allocated += 1
    return object.__new__(cls)


Atom.__new__ = counting_new  # fast_atom allocates through it too
results = [
    materialized.apply(insertions=[shortcut]),
    materialized.apply(deletions=[shortcut]),
]
Atom.__new__ = lambda cls, *args, **kwargs: object.__new__(cls)
changes = sum(
    len(r.edb_added) + len(r.edb_removed) + len(r.derived_added) + len(r.derived_removed)
    for r in results
)
agrees = materialized.model() == DatalogEngine(program, strategy="semi-naive").least_model()
print(allocated, changes, materialized.statistics.overdeleted, agrees)
"""


def test_maintenance_allocates_atoms_only_for_reported_changes():
    """Applying and then retracting a shortcut edge of a 20-edge chain
    checks the paths it supported, yet builds no ``Atom`` beyond the
    changes the two :class:`UpdateResult` objects report: the joins, the
    deltas and the backward/forward sets are interned id rows.

    ``Atom.__new__`` cannot be put back once wrapped (CPython keeps the
    Python-level slot), so the probe runs in a child interpreter."""
    environment = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    output = subprocess.run(
        [sys.executable, "-c", ALLOCATION_PROBE], env=environment,
        capture_output=True, text=True, check=True,
    ).stdout.split()
    allocated, changes, overdeleted = map(int, output[:3])
    assert output[3] == "True"
    assert overdeleted > 0
    assert allocated <= changes
