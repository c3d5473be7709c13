"""Columnar interned fact storage.

Unit coverage for :mod:`repro.datalog.interner` (the bidirectional symbol
table) and :mod:`repro.datalog.columnar` (the :class:`RowStore` /
:class:`ColumnarFactIndex` store and the generated id-space joins), plus
its wiring as the one fact store of
:class:`~repro.datalog.engine.DatalogEngine` (``indexed`` strategy),
:class:`~repro.datalog.incremental.MaterializedModel` and
:class:`~repro.db.view.DatalogView`.

The load-bearing guarantee is *correctness against the set-based
oracles*: the columnar engine computes the least models, query answers and
evaluation counters of the ``semi-naive`` scanning strategy, and a
maintained model applies insert/delete streams to exactly what a
``semi-naive`` recompute gives.  The hypothesis properties at the bottom
prove it on random add/discard/absorb sequences against a plain-set
reference and on random stratified programs (including negation).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.datalog.columnar import (
    ColumnarFactIndex,
    ColumnarRelation,
    RowStore,
    compile_schedule,
    decode_world,
)
from repro.datalog.engine import DatalogEngine
from repro.datalog.incremental import MaterializedModel
from repro.datalog.interner import Interner, fast_atom
from repro.datalog.program import DatalogLiteral, DatalogProgram, DatalogRule
from repro.logic.builders import atom
from repro.logic.syntax import Atom
from repro.logic.terms import Parameter, Variable
from repro.workloads.generators import transitive_closure_program

X, Y, Z = Variable("x"), Variable("y"), Variable("z")


def edge_atoms(pairs):
    return [atom("edge", f"n{a}", f"n{b}") for a, b in pairs]


def columnar_index(facts, interner=None):
    """A ColumnarFactIndex read view over a RowStore of *facts*."""
    interner = Interner() if interner is None else interner
    store = RowStore(interner.encode_atom(fact) for fact in facts)
    return ColumnarFactIndex.from_store(store, interner)


def reference_histogram(facts, predicate, arity, position):
    """The bucket-size histogram of one argument position, computed
    directly from a plain set of atoms (keyed by parameter)."""
    histogram = {}
    for fact in facts:
        if fact.predicate == predicate and len(fact.args) == arity:
            value = fact.args[position]
            histogram[value] = histogram.get(value, 0) + 1
    return histogram


# ---------------------------------------------------------------------------
# Interner
# ---------------------------------------------------------------------------

class TestInterner:
    def test_intern_is_dense_stable_and_bidirectional(self):
        interner = Interner()
        a, b = Parameter("a"), Parameter("b")
        assert interner.intern(a) == 0
        assert interner.intern(b) == 1
        assert interner.intern(a) == 0  # stable on re-intern
        assert interner.parameter(0) == a and interner.parameter(1) == b
        assert len(interner) == 2 and a in interner and Parameter("zz") not in interner

    def test_encode_decode_roundtrip(self):
        interner = Interner()
        fact = atom("edge", "a", "b")
        key, row = interner.encode_atom(fact)
        assert key == ("edge", 2)
        assert interner.decode_row("edge", row) == fact

    def test_row_of_is_none_for_unknown_constants(self):
        interner = Interner()
        interner.encode_atom(atom("edge", "a", "b"))
        assert interner.row_of(atom("edge", "a", "b")) is not None
        assert interner.row_of(atom("edge", "a", "zz")) is None

    def test_fast_atom_equals_and_hashes_like_a_built_atom(self):
        built = atom("edge", "a", "b")
        fast = fast_atom("edge", (Parameter("a"), Parameter("b")))
        assert fast == built and hash(fast) == hash(built)
        assert len({fast, built}) == 1


# ---------------------------------------------------------------------------
# RowStore / ColumnarRelation
# ---------------------------------------------------------------------------

class TestRowStore:
    def test_add_discard_and_membership(self):
        store = RowStore()
        assert store.add_row(("edge", 2), (0, 1)) and not store.add_row(("edge", 2), (0, 1))
        assert (("edge", 2), (0, 1)) in store and len(store) == 1
        assert store.discard_row(("edge", 2), (0, 1)) and not store
        assert store.count("edge", 2) == 0

    def test_buckets_and_columns_are_lazy_and_consistent(self):
        relation = ColumnarRelation(2)
        for row in [(0, 1), (0, 2), (3, 1)]:
            relation.add(row)
        assert relation._buckets is None and relation._columns is None
        assert relation.buckets[0][0] == {(0, 1), (0, 2)}
        assert sorted(relation.columns[1]) == [1, 1, 2]
        # Mutation keeps materialized buckets honest and drops columns.
        relation.add((3, 2))
        assert relation.buckets[0][3] == {(3, 1), (3, 2)}
        assert sorted(relation.columns[0]) == [0, 0, 3, 3]
        relation.discard((0, 2))
        assert relation.buckets[0][0] == {(0, 1)}

    def test_histogram_matches_fact_index(self):
        facts = edge_atoms([(0, 1), (0, 2), (1, 2), (3, 2)])
        index = columnar_index(facts)
        store, interner = index.store, index.interner
        for position in (0, 1):
            expected = reference_histogram(facts, "edge", 2, position)
            assert sorted(store.histogram_sizes("edge", 2, position)) == sorted(
                expected.values()
            )
            for value, size in expected.items():
                assert store.bucket_size("edge", 2, position, interner.id_of(value)) == size

    def test_to_arrays_roundtrip(self):
        store = RowStore()
        for row in [(0, 1), (2, 3)]:
            store.add_row(("edge", 2), row)
        arrays = store.to_arrays()
        rebuilt = RowStore.from_arrays(arrays)
        assert set(rebuilt.relation("edge", 2)) == {(0, 1), (2, 3)}


# ---------------------------------------------------------------------------
# ColumnarFactIndex: the atom-face read view
# ---------------------------------------------------------------------------

class TestColumnarFactIndex:
    def facts(self):
        return edge_atoms([(i, (i * 3) % 7) for i in range(20)]) + [
            atom("node", f"n{i}") for i in range(7)
        ] + [atom("tick")]

    def test_mirrors_fact_index_contents(self):
        facts = self.facts()
        columnar = columnar_index(facts)
        plain = set(facts)
        assert len(columnar) == len(plain)
        assert set(columnar) == plain
        store = columnar.store
        assert store.relations() == {(f.predicate, len(f.args)) for f in plain}
        for predicate, arity in store.relations():
            expected = {f for f in plain if f.predicate == predicate and len(f.args) == arity}
            assert store.count(predicate, arity) == len(expected)
        for fact in facts:
            assert fact in columnar
        assert atom("edge", "n99", "n0") not in columnar

    def test_candidates_agree_with_fact_index(self):
        facts = self.facts()
        columnar = columnar_index(facts)
        relation = {fact for fact in facts if fact.predicate == "edge"}
        for bound in ([], [(0, Parameter("n1"))], [(1, Parameter("n0"))],
                      [(0, Parameter("n1")), (1, Parameter("n3"))]):
            # A superset bucket of the relation; the *smallest* bucket choice
            # is an implementation detail, containing the matches is the
            # contract.
            mine = set(columnar.candidates("edge", 2, bound))
            matching = {
                fact for fact in relation if all(fact.args[p] == v for p, v in bound)
            }
            assert matching <= mine <= relation
        assert set(columnar.candidates("edge", 2, [(0, Parameter("zz"))])) == set()

    def test_absorb_and_discard_all_fast_paths(self):
        # Writes go to the backing RowStore, relation-wise over one interner;
        # the read view sees them at once.
        interner = Interner()
        base = columnar_index(edge_atoms([(0, 1), (1, 2)]), interner)
        base.store.absorb(columnar_index(edge_atoms([(2, 3)]), interner).store)
        assert atom("edge", "n2", "n3") in base and len(base) == 3
        removed = base.store.discard_all(
            columnar_index(edge_atoms([(0, 1), (9, 9)]), interner).store
        )
        assert removed == 1
        assert atom("edge", "n0", "n1") not in base and len(base) == 2

    def test_decode_world_matches_from_fact_index(self):
        # decode_world seeds the world's per-predicate buckets in the same
        # pass: the result equals, and hashes like, the World constructor's.
        facts = self.facts()
        columnar = columnar_index(facts)
        from repro.semantics.worlds import World

        decoded = decode_world(columnar.store, columnar.interner)
        direct = World(facts)
        assert decoded == direct
        assert hash(decoded) == hash(direct)
        assert set(decoded.atoms_for("edge")) == set(direct.atoms_for("edge"))
        assert decoded.holds(atom("tick"))

    def test_compiled_pass_reads_one_store_and_one_delta(self):
        # path(x, z) :- edge(x, y), path(y, z): the full pass joins the
        # store with itself; the delta pass enumerates only the delta's
        # path rows.  Heads already in the store are never emitted.
        interner = Interner()
        facts = edge_atoms([(0, 1), (1, 2)]) + [
            atom("path", "n1", "n2"), atom("path", "n2", "n3"),
        ]
        store = RowStore(interner.encode_atom(fact) for fact in facts)
        delta = RowStore([interner.encode_atom(atom("path", "n2", "n3"))])
        rule = DatalogRule(
            Atom("path", (X, Z)),
            (DatalogLiteral(Atom("edge", (X, Y))), DatalogLiteral(Atom("path", (Y, Z)))),
        )
        engine = DatalogEngine(DatalogProgram())

        def derived(delta_position, delta_store):
            schedule = engine._schedule(rule, delta_position=delta_position)
            out = set()
            compile_schedule(rule, schedule, interner)(store, delta_store, None, out)
            return {interner.decode_row(key[0], row) for key, row in out}

        assert derived(None, None) == {atom("path", "n0", "n2"), atom("path", "n1", "n3")}
        assert derived(1, delta) == {atom("path", "n1", "n3")}

    def test_compiled_tags_read_added_and_removed(self):
        # lonely(x) :- not linked(x), node(x).  With the negated literal as
        # the delta position, the pass enumerates the *removed* linked rows
        # (support gained by a deletion) and checks node(x) in the
        # database; the counting variant tallies every derivation.
        interner = Interner()
        encode = interner.encode_atom
        store = RowStore(encode(atom("node", f"n{i}")) for i in range(3))
        removed = RowStore([encode(atom("linked", "n1")), encode(atom("linked", "n7"))])
        rule = DatalogRule(
            Atom("lonely", (X,)),
            (DatalogLiteral(Atom("linked", (X,)), False), DatalogLiteral(Atom("node", (X,)))),
        )
        engine = DatalogEngine(DatalogProgram())
        schedule = engine._schedule(rule, delta_position=0)
        assert schedule == [(rule.body[0], "delta"), (rule.body[1], "full")]
        out = {}
        compile_schedule(rule, schedule, interner, "count")(store, RowStore(), removed, out)
        assert out == {encode(atom("lonely", "n1")): 1}
        # Before the delta position a negated literal needs unchanged
        # support: absent from the database *and* from the removed rows.
        schedule = engine._schedule(rule, delta_position=1)
        assert schedule == [(rule.body[1], "delta"), (rule.body[0], "old")]
        out = {}
        compile_schedule(rule, schedule, interner, "count")(store, store, removed, out)
        assert out == {encode(atom("lonely", f"n{i}")): 1 for i in (0, 2)}

    def test_a_pass_reads_each_probing_literals_buckets_once(self, monkeypatch):
        # far(x, w) :- a(x, y), b(y, z), c(z, w): a is enumerated, b and c
        # probe a bound position.  Their bucket maps are looked up once in
        # the prologue, not once per candidate row of the literals before.
        interner = Interner()
        encode = interner.encode_atom
        W = Variable("w")
        facts = (
            [atom("a", f"x{i}", f"y{i % 5}") for i in range(40)]
            + [atom("b", f"y{i}", f"z{j}") for i in range(5) for j in range(4)]
            + [atom("c", f"z{j}", f"w{j}") for j in range(4)]
        )
        store = RowStore(encode(fact) for fact in facts)
        rule = DatalogRule(
            Atom("far", (X, W)),
            tuple(DatalogLiteral(Atom(name, args)) for name, args in (
                ("a", (X, Y)), ("b", (Y, Z)), ("c", (Z, W)),
            )),
        )
        schedule = [(literal, "full") for literal in rule.body]
        join = compile_schedule(rule, schedule, interner)
        reads = []
        buckets = ColumnarRelation.buckets
        monkeypatch.setattr(ColumnarRelation, "buckets", property(
            lambda relation: reads.append(relation) or buckets.fget(relation)
        ))
        out = set()
        join(store, None, None, out)
        assert len(out) == 40 * 4
        assert len(reads) <= 2

    def test_a_fully_bound_literal_is_a_membership_test(self, monkeypatch):
        # path(x, z) :- edge(x, y), path(y, z) led by path(x, z): after the
        # head and edge bind every variable, path(y, z) is one set probe —
        # its buckets (here path(b, *): 50 rows) are never read.
        interner = Interner()
        encode = interner.encode_atom
        rule = DatalogRule(
            Atom("path", (X, Z)),
            (
                DatalogLiteral(Atom("path", (X, Z))),
                DatalogLiteral(Atom("edge", (X, Y))),
                DatalogLiteral(Atom("path", (Y, Z))),
            ),
        )
        schedule = [(rule.body[0], "delta"), (rule.body[1], "full"), (rule.body[2], "full")]
        pass_ = compile_schedule(rule, schedule, interner, "count")
        facts = (
            [atom("edge", "a", "b"), atom("path", "a", "d")]
            + [atom("path", "b", f"d{i}") for i in range(49)] + [atom("path", "b", "d")]
        )
        store = RowStore(encode(fact) for fact in facts)
        added = RowStore([encode(atom("path", "a", "d")), encode(atom("path", "a", "d7"))])
        reads = []
        buckets = ColumnarRelation.buckets
        monkeypatch.setattr(ColumnarRelation, "buckets", property(
            lambda relation: reads.append(relation) or buckets.fget(relation)
        ))
        out = {}
        pass_(store, added, None, out)
        assert out == {encode(atom("path", "a", "d")): 1, encode(atom("path", "a", "d7")): 1}
        assert reads == [store.get(("edge", 2))]

    def test_probe_lists_derivations_with_their_unproved_body_facts(self):
        # reach(x, z) :- reach(x, y), link(y, z) in rederivation form: each
        # derivation of a candidate comes with the component facts it
        # waits on, and one with nothing pending ends the candidate.
        interner = Interner()
        encode = interner.encode_atom
        rule = DatalogRule(
            Atom("reach", (X, Z)),
            (DatalogLiteral(Atom("reach", (X, Y))), DatalogLiteral(Atom("link", (Y, Z)))),
        )
        probe = DatalogRule(rule.head, (DatalogLiteral(rule.head),) + rule.body)
        schedule = [(probe.body[0], "delta")] + [(literal, "full") for literal in rule.body]
        pass_ = compile_schedule(probe, schedule, interner, "probe", within={("reach", 2)})
        facts = [
            atom("link", "a", "c"), atom("link", "b", "c"), atom("link", "c", "c"),
            atom("reach", "s", "a"), atom("reach", "s", "b"), atom("reach", "s", "c"),
        ]
        store = RowStore(encode(fact) for fact in facts)
        candidate = RowStore([encode(atom("reach", "s", "c"))])
        found = []
        pass_(store, candidate, set(), found)
        head = encode(atom("reach", "s", "c"))
        assert sorted(found) == sorted(
            (head, [encode(atom("reach", "s", via))]) for via in ("a", "b", "c")
        )
        found = []
        pass_(store, candidate, {encode(atom("reach", "s", "b"))}, found)
        assert found[-1] == (head, [])  # proved: the search stopped there
        assert len(found) <= 3


# ---------------------------------------------------------------------------
# Engine wiring
# ---------------------------------------------------------------------------

class TestEngineStorage:
    def program(self):
        program = transitive_closure_program(chains=4, length=4)
        program.add_rule(DatalogRule(Atom("node", (X,)), (DatalogLiteral(Atom("edge", (X, Y))),)))
        program.add_rule(
            DatalogRule(
                Atom("sink", (X,)),
                (DatalogLiteral(Atom("node", (X,))),
                 DatalogLiteral(Atom("path", (X, X)), False)),
            )
        )
        return program

    def test_storage_keyword_rejected(self):
        # Columnar is the only storage: there is no knob left to set.
        for storage in ("columnar", "objects"):
            with pytest.raises(TypeError):
                DatalogEngine(self.program(), storage=storage)
        with pytest.raises(TypeError):
            DatalogEngine(self.program(), planner="histogram")

    def test_models_and_counters_identical_to_semi_naive(self):
        reference = DatalogEngine(self.program(), strategy="semi-naive")
        columnar = DatalogEngine(self.program())
        assert columnar.least_model() == reference.least_model()
        assert columnar.statistics == reference.statistics

    def test_least_index_returns_storage_level_index(self):
        engine = DatalogEngine(self.program())
        index = engine.least_index()
        assert isinstance(index, ColumnarFactIndex)
        assert index.interner is engine.interner
        reference = DatalogEngine(self.program(), strategy="semi-naive").least_model()
        assert set(index) == set(reference.atoms)

    def test_least_index_rejected_under_scanning_strategies(self):
        with pytest.raises(ValueError):
            DatalogEngine(self.program(), strategy="naive").least_index()

    def test_repeated_variable_in_one_literal(self):
        # Regression: magic rewrites emit literals like magic(x, x); the
        # generated join must compare the row positions, not probe an
        # unbound local.
        program = DatalogProgram()
        program.add_fact(atom("pair", "a", "a"))
        program.add_fact(atom("pair", "a", "b"))
        program.add_rule(DatalogRule(Atom("same", (X,)), (DatalogLiteral(Atom("pair", (X, X))),)))
        model = DatalogEngine(program).least_model()
        assert model == DatalogEngine(program, strategy="semi-naive").least_model()
        assert atom("same", "a") in model.atoms

    def test_zero_arity_predicates(self):
        program = DatalogProgram()
        program.add_fact(atom("go"))
        program.add_fact(atom("edge", "a", "b"))
        program.add_rule(
            DatalogRule(
                Atom("path", (X, Y)),
                (DatalogLiteral(Atom("go", ())), DatalogLiteral(Atom("edge", (X, Y)))),
            )
        )
        model = DatalogEngine(program).least_model()
        assert model == DatalogEngine(program, strategy="semi-naive").least_model()
        assert atom("path", "a", "b") in model.atoms


# ---------------------------------------------------------------------------
# The equivalence properties: columnar ≡ the semi-naive oracle
# ---------------------------------------------------------------------------

def build_random_program(edges, with_two_hop, with_negation, with_same_generation):
    """The random stratified program family shared with the engine property
    tests: transitive closure plus optional multi-literal
    joins, same-generation recursion and stratified negation."""
    program = DatalogProgram()
    names = set()
    for source, target in edges:
        program.add_fact(atom("edge", f"n{source}", f"n{target}"))
        names.update((f"n{source}", f"n{target}"))
    for name in sorted(names):
        program.add_fact(atom("node", name))
    program.add_rule(DatalogRule(Atom("path", (X, Y)), (DatalogLiteral(Atom("edge", (X, Y))),)))
    program.add_rule(
        DatalogRule(
            Atom("path", (X, Z)),
            (DatalogLiteral(Atom("edge", (X, Y))), DatalogLiteral(Atom("path", (Y, Z)))),
        )
    )
    if with_two_hop:
        program.add_rule(
            DatalogRule(
                Atom("two_hop", (X, Z)),
                (DatalogLiteral(Atom("edge", (X, Y))), DatalogLiteral(Atom("edge", (Y, Z)))),
            )
        )
    if with_same_generation:
        program.add_rule(DatalogRule(Atom("sg", (X, X)), (DatalogLiteral(Atom("node", (X,))),)))
        program.add_rule(
            DatalogRule(
                Atom("sg", (X, Z)),
                (
                    DatalogLiteral(Atom("edge", (Y, X))),
                    DatalogLiteral(Atom("sg", (Y, Variable("w")))),
                    DatalogLiteral(Atom("edge", (Variable("w"), Z))),
                ),
            )
        )
    if with_negation:
        program.add_rule(
            DatalogRule(
                Atom("unreachable", (X, Y)),
                (
                    # The negated literal sits between its binders, so
                    # maintenance passes tag it "old" as well as "full".
                    DatalogLiteral(Atom("node", (X,))),
                    DatalogLiteral(Atom("path", (X, Y)), False),
                    DatalogLiteral(Atom("node", (Y,))),
                ),
            )
        )
    return program


def canonical(result):
    return sorted(
        sorted((variable.name, parameter.name) for variable, parameter in binding.items())
        for binding in result
    )


datalog_edges = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=10
)
index_moves = st.lists(
    st.tuples(st.sampled_from(["add", "discard", "absorb"]),
              st.integers(0, 4), st.integers(0, 4)),
    min_size=1,
    max_size=25,
)
update_batches = st.lists(
    st.lists(
        st.tuples(
            st.booleans(), st.sampled_from(["edge", "node"]),
            st.integers(0, 4), st.integers(0, 4),
        ),
        min_size=1,
        max_size=3,
    ),
    min_size=1,
    max_size=5,
)


@settings(max_examples=50, deadline=None)
@given(index_moves)
def test_columnar_index_equals_fact_index_under_mutation(moves):
    """A random add/discard/absorb sequence leaves the RowStore (read
    through ColumnarFactIndex) holding exactly the facts, counts, histograms
    and bucket sizes of a plain set of atoms that computes them
    directly."""
    plain = set()
    columnar = columnar_index([])
    store, interner = columnar.store, columnar.interner
    for action, a, b in moves:
        fact = atom("edge", f"n{a}", f"n{b}")
        if action == "add":
            assert store.add(interner.encode_atom(fact)) == (fact not in plain)
            plain.add(fact)
        elif action == "discard":
            assert store.discard(interner.encode_atom(fact)) == (fact in plain)
            plain.discard(fact)
        else:
            fresh = [f for f in edge_atoms([(a, b), (b, a)]) if f not in plain]
            plain.update(fresh)
            store.absorb(columnar_index(fresh, interner).store)
    assert set(columnar) == plain
    assert len(store) == len(plain)
    assert store.relations() == ({("edge", 2)} if plain else set())
    for position in (0, 1):
        histogram = {
            interner.id_of(value): size
            for value, size in reference_histogram(plain, "edge", 2, position).items()
        }
        assert sorted(store.histogram_sizes("edge", 2, position)) == sorted(histogram.values())
        for value, size in histogram.items():
            assert store.bucket_size("edge", 2, position, value) == size


@settings(max_examples=25, deadline=None)
@given(datalog_edges, st.booleans(), st.booleans(), st.booleans())
def test_columnar_least_model_and_queries_match_semi_naive(
    edges, with_two_hop, with_negation, with_same_generation
):
    """The columnar engine computes exactly the least model, the evaluation
    counters and the query answers of semi-naive scanning evaluation,
    stratified negation included."""
    build = lambda: build_random_program(
        edges, with_two_hop, with_negation, with_same_generation
    )
    oracle = DatalogEngine(build(), strategy="semi-naive")
    reference = oracle.least_model()
    columnar = DatalogEngine(build())
    assert columnar.least_model() == reference
    assert columnar.statistics == oracle.statistics
    goals = [
        Atom("path", (Variable("a"), Variable("b"))),
        Atom("path", (Parameter(f"n{edges[0][0]}"), Variable("b"))),
    ]
    if with_negation:
        goals.append(Atom("unreachable", (Parameter(f"n{edges[0][0]}"), Variable("b"))))
    for goal in goals:
        expected = canonical(
            DatalogEngine(build(), strategy="semi-naive").query(goal, mode="magic")
        )
        assert canonical(DatalogEngine(build()).query(goal, mode="magic")) == expected


@settings(max_examples=30, deadline=None)
@given(datalog_edges, update_batches, st.booleans(), st.booleans(), st.booleans())
def test_columnar_incremental_apply_matches_semi_naive(
    edges, batches, with_two_hop, with_negation, with_same_generation
):
    """A MaterializedModel applies a stream of mixed insert/delete batches
    of edge and node facts to exactly the model a semi-naive recompute of the updated
    program gives after every batch, reports exactly the EDB and derived
    differences between consecutive recomputed models, and keeps the
    derivation counts of the counting predicates equal to a fresh build's
    — over the whole program family: two-hop joins, same-generation
    recursion with a repeated variable, and negation (node changes fire
    the passes whose delta literal is negated)."""
    build = lambda: build_random_program(
        edges, with_two_hop, with_negation, with_same_generation
    )
    model = MaterializedModel(build())
    before = DatalogEngine(build(), strategy="semi-naive").least_model()
    for moves in batches:
        batch = ([], [])
        for is_insert, predicate, source, target in moves:
            if predicate == "edge":
                fact = atom("edge", f"n{source}", f"n{target}")
            else:
                fact = atom("node", f"n{source}")
            batch[0 if is_insert else 1].append(fact)
        edb_before = {f.atom for f in model.program.facts}
        result = model.apply(*batch)
        edb_after = {f.atom for f in model.program.facts}
        assert result.edb_added == edb_after - edb_before
        assert result.edb_removed == edb_before - edb_after
        after = DatalogEngine(model.program, strategy="semi-naive").least_model()
        assert model.model() == after
        assert result.derived_added == (after.atoms - before.atoms) - result.edb_added
        assert result.derived_removed == (
            (before.atoms - after.atoms) - result.edb_removed
        )
        fresh = MaterializedModel(
            DatalogProgram(list(model.program.facts), model.program.rules)
        )
        for fact in before.atoms | after.atoms:
            if fact.predicate in ("two_hop", "unreachable"):
                assert model.derivation_count(fact) == fresh.derivation_count(fact), fact
        before = after
