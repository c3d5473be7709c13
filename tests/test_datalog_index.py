"""Tests for the fact-indexing subsystem and the indexed join engine:
RowStore / ColumnarFactIndex buckets and probing, the semi-naive delta discipline, join-pass
counters, range-restriction validation and exact stratification."""

import pytest

from repro.datalog import (
    ColumnarFactIndex,
    DatalogEngine,
    DatalogLiteral,
    DatalogProgram,
    DatalogRule,
    Interner,
    RowStore,
)
from repro.exceptions import ReproError, StratificationError, UnsafeRuleError
from repro.logic.builders import atom
from repro.logic.syntax import Atom
from repro.logic.terms import Parameter, Variable

x, y, z = Variable("x"), Variable("y"), Variable("z")
a, b, c = Parameter("a"), Parameter("b"), Parameter("c")


def indexed(*atoms):
    """A RowStore of *atoms* and its atom-face read view (one interner)."""
    interner = Interner()
    store = RowStore(interner.encode_atom(fact) for fact in atoms)
    return store, ColumnarFactIndex.from_store(store, interner)


class TestFactIndex:
    """The indexed fact store: RowStore writes and counts in id space,
    ColumnarFactIndex answers membership and bound-prefix probes with
    atoms."""

    def test_add_and_membership(self):
        interner = Interner()
        store = RowStore()
        index = ColumnarFactIndex.from_store(store, interner)
        assert store.add(interner.encode_atom(Atom("p", (a, b))))
        assert not store.add(interner.encode_atom(Atom("p", (a, b))))
        assert Atom("p", (a, b)) in index
        assert Atom("p", (b, a)) not in index
        assert len(index) == 1

    def test_relation_buckets(self):
        store, index = indexed(Atom("p", (a, b)), Atom("p", (b, c)), Atom("q", (a,)))
        assert store.count("p", 2) == 2
        assert store.count("q", 1) == 1
        assert store.count("p", 1) == 0  # arity is part of the key
        assert store.relations() == {("p", 2), ("q", 1)}
        assert set(index) == {Atom("p", (a, b)), Atom("p", (b, c)), Atom("q", (a,))}

    def test_candidates_probe_bound_positions(self):
        _, index = indexed(Atom("p", (a, b)), Atom("p", (a, c)), Atom("p", (b, c)))
        assert set(index.candidates("p", 2, [(0, a)])) == {Atom("p", (a, b)), Atom("p", (a, c))}
        assert set(index.candidates("p", 2, [(1, c)])) == {Atom("p", (a, c)), Atom("p", (b, c))}
        # the most selective bound position wins
        assert set(index.candidates("p", 2, [(0, b), (1, c)])) == {Atom("p", (b, c))}

    def test_candidates_unseen_value_is_empty(self):
        _, index = indexed(Atom("p", (a, b)))
        assert set(index.candidates("p", 2, [(0, c)])) == set()
        assert set(index.candidates("missing", 2, [])) == set()

    def test_candidates_unbound_returns_relation(self):
        facts = [Atom("p", (a, b)), Atom("p", (b, c))]
        _, index = indexed(*facts)
        assert set(index.candidates("p", 2, [])) == set(facts)

    def test_absorb_merges_delta(self):
        store, index = indexed(Atom("p", (a, b)))
        encode = index.interner.encode_atom
        store.absorb(RowStore([encode(Atom("p", (a, c))), encode(Atom("q", (b,)))]))
        assert len(index) == 3
        assert set(index.candidates("p", 2, [(0, a)])) == {Atom("p", (a, b)), Atom("p", (a, c))}
        assert Atom("q", (b,)) in index


def edge_closure_program():
    """edge facts as EDB, e as IDB copy, t joining e with itself — the shape
    where the old delta loop double-derived."""
    program = DatalogProgram()
    program.add_fact(atom("base", "a", "b"))
    program.add_fact(atom("base", "b", "c"))
    program.rule(Atom("e", (x, y)), Atom("base", (x, y)))
    program.rule(Atom("t", (x, z)), Atom("e", (x, y)), Atom("e", (y, z)))
    return program


class TestSemiNaiveDiscipline:
    def test_delta_passes_do_not_duplicate_derivations(self):
        """Regression: with >= 2 positive body literals, one pass per delta
        position used to re-derive the same head once per pass."""
        program = edge_closure_program()
        engine = DatalogEngine(program, strategy="semi-naive")
        rule = next(r for r in program.rules if r.head.predicate == "t")
        e_ab, e_bc = atom("e", "a", "b"), atom("e", "b", "c")
        database = {atom("base", "a", "b"), atom("base", "b", "c"), e_ab, e_bc}
        delta = {e_ab, e_bc}
        derivations = []
        for delta_position in (0, 1):
            schedule = engine._schedule(rule, delta_position=delta_position)
            derivations.extend(engine._scan_join(rule, schedule, database, delta, {}, 0))
        assert derivations == [atom("t", "a", "c")]

    def test_all_strategies_agree_on_two_literal_rule(self):
        models = {
            strategy: DatalogEngine(edge_closure_program(), strategy=strategy).least_model()
            for strategy in ("naive", "semi-naive", "indexed")
        }
        assert models["naive"] == models["semi-naive"] == models["indexed"]
        assert models["naive"].holds(atom("t", "a", "c"))

    def test_rule_applications_count_join_passes(self):
        program = edge_closure_program()
        naive = DatalogEngine(program, strategy="naive")
        naive.least_model()
        # naive: one pass per rule per iteration, in every stratum
        assert naive.statistics.rule_applications == 2 * naive.statistics.iterations

        semi = DatalogEngine(program, strategy="semi-naive")
        semi.least_model()
        assert semi.statistics.rule_applications <= naive.statistics.rule_applications
        # passes whose delta holds no fact of the literal's predicate are skipped
        assert semi.statistics.delta_passes_skipped > 0

    def test_indexed_skips_empty_delta_passes(self):
        from repro.workloads.generators import chain_datalog_program

        engine = DatalogEngine(chain_datalog_program(length=20, fanout=0), strategy="indexed")
        engine.least_model()
        assert engine.statistics.delta_passes_skipped > 0


class TestRangeRestriction:
    def test_head_variable_raises_unsafe_rule_error(self):
        with pytest.raises(UnsafeRuleError):
            DatalogRule(Atom("p", (x,)), (DatalogLiteral(Atom("q", (y,))),))

    def test_negated_variable_raises_unsafe_rule_error(self):
        with pytest.raises(UnsafeRuleError):
            DatalogRule(
                Atom("p", (x,)),
                (DatalogLiteral(Atom("q", (x,))), DatalogLiteral(Atom("r", (y,)), False)),
            )

    def test_unsafe_rule_error_is_a_repro_error(self):
        assert issubclass(UnsafeRuleError, ReproError)

    def test_add_rule_revalidates(self):
        rule = DatalogRule(Atom("p", (x,)), (DatalogLiteral(Atom("q", (x,))),))
        object.__setattr__(rule, "body", (DatalogLiteral(Atom("q", (y,))),))
        with pytest.raises(UnsafeRuleError):
            DatalogProgram().add_rule(rule)

    @pytest.mark.parametrize("strategy", ["naive", "semi-naive", "indexed"])
    def test_negation_before_binder_evaluates(self, strategy):
        """Regression: a safe rule whose negated literal precedes its binder
        used to abort mid-evaluation with a StratificationError."""
        program = DatalogProgram()
        program.add_fact(atom("node", "a"))
        program.add_fact(atom("node", "b"))
        program.add_fact(atom("busy", "a"))
        program.add_rule(
            DatalogRule(
                Atom("idle", (x,)),
                (DatalogLiteral(Atom("busy", (x,)), False), DatalogLiteral(Atom("node", (x,)))),
            )
        )
        model = DatalogEngine(program, strategy=strategy).least_model()
        assert model.holds(atom("idle", "b"))
        assert not model.holds(atom("idle", "a"))


class TestExactStratification:
    def test_deep_negation_chain_has_no_spurious_limit(self):
        program = DatalogProgram()
        program.add_fact(atom("base", "a"))
        program.rule(Atom("p0", (x,)), Atom("base", (x,)))
        for i in range(1, 40):
            program.rule(Atom(f"p{i}", (x,)), Atom("base", (x,)), (Atom(f"p{i - 1}", (x,)), False))
        engine = DatalogEngine(program)
        model = engine.least_model()
        assert engine.statistics.strata == 40
        assert model.holds(atom("p0", "a"))
        assert not model.holds(atom("p1", "a"))
        assert model.holds(atom("p2", "a"))

    def test_direct_negative_cycle_rejected(self):
        program = DatalogProgram()
        program.add_fact(atom("seed", "a"))
        program.rule(Atom("p", (x,)), Atom("seed", (x,)), (Atom("q", (x,)), False))
        program.rule(Atom("q", (x,)), Atom("seed", (x,)), (Atom("p", (x,)), False))
        with pytest.raises(StratificationError):
            DatalogEngine(program)

    def test_self_negating_rule_rejected(self):
        program = DatalogProgram()
        program.add_fact(atom("e", "a"))
        program.add_rule(
            DatalogRule(
                Atom("p", (x,)),
                (DatalogLiteral(Atom("e", (x,))), DatalogLiteral(Atom("p", (x,)), False)),
            )
        )
        with pytest.raises(StratificationError):
            DatalogEngine(program, strategy="indexed")

    def test_negative_edge_through_positive_recursion_rejected(self):
        program = DatalogProgram()
        program.add_fact(atom("seed", "a"))
        program.rule(Atom("p", (x,)), Atom("seed", (x,)), (Atom("q", (x,)), False))
        program.rule(Atom("q", (x,)), Atom("r", (x,)))
        program.rule(Atom("r", (x,)), Atom("p", (x,)))
        with pytest.raises(StratificationError):
            DatalogEngine(program)

    def test_negation_across_components_is_fine(self):
        program = DatalogProgram()
        program.add_fact(atom("edge", "a", "b"))
        program.add_fact(atom("node", "a"))
        program.add_fact(atom("node", "b"))
        program.rule(Atom("path", (x, y)), Atom("edge", (x, y)))
        program.rule(Atom("path", (x, z)), Atom("edge", (x, y)), Atom("path", (y, z)))
        program.rule(
            Atom("isolated", (x,)),
            Atom("node", (x,)),
            (Atom("path", (x, x)), False),
        )
        model = DatalogEngine(program).least_model()
        assert model.holds(atom("isolated", "a"))


class TestModelCaching:
    def test_least_model_is_cached(self):
        program = edge_closure_program()
        engine = DatalogEngine(program)
        first = engine.least_model()
        iterations = engine.statistics.iterations
        assert engine.least_model() is first
        assert engine.holds(atom("t", "a", "c"))
        assert engine.query(Atom("t", (x, z)))
        # query()/holds() reused the cached fixpoint
        assert engine.statistics.iterations == iterations

    def test_cache_invalidated_when_program_grows(self):
        program = edge_closure_program()
        engine = DatalogEngine(program)
        first = engine.least_model()
        program.add_fact(atom("base", "c", "a"))
        second = engine.least_model()
        assert second is not first
        assert second.holds(atom("t", "b", "a"))
