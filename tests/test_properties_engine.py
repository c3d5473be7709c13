"""Property-based tests on the reasoning engines (hypothesis).

These are the cross-checks DESIGN.md commits to:

* the DPLL solver agrees with brute-force truth-table satisfiability,
* Tseitin and naive CNF encodings are equisatisfiable,
* the prover-based epistemic reduction agrees with the model-enumeration
  oracle of Definition 2.1, on ground queries and on quantified ones (whose
  ``K``-free quantifiers reach the prover unexpanded),
* ``demo`` is sound (Theorem 5.1) and, on elementary databases with queries
  admissible wrt F_Σ, complete (Theorem 6.2) against that same oracle,
* naive, semi-naive and indexed semi-naive Datalog evaluation compute the
  same least model, including on randomly generated stratified programs
  with negation,
* the closed-world collapse (Theorem 7.1) holds on random definite
  databases.
"""

from itertools import product

from hypothesis import given, settings, strategies as st

from repro.logic.builders import atom, conj, disj, knows
from repro.logic.parser import parse, parse_many
from repro.logic.syntax import Atom, Not, free_variables
from repro.logic.terms import Parameter, Variable
from repro.prover.cnf import cnf_clauses, naive_cnf_clauses
from repro.prover.dpll import Clause, DPLLSolver
from repro.prover.prove import FirstOrderProver
from repro.semantics import entailment as oracle
from repro.semantics.config import SemanticsConfig
from repro.semantics.reduction import EpistemicReducer
from repro.evaluator.all_answers import all_answers
from repro.evaluator.completeness import demo_is_complete_for
from repro.evaluator.demo import DemoEvaluator

CONFIG = SemanticsConfig(extra_parameters=1)

# ---------------------------------------------------------------------------
# SAT layer
# ---------------------------------------------------------------------------

literals = st.integers(min_value=1, max_value=4).flatmap(
    lambda v: st.sampled_from([v, -v])
)
clauses = st.lists(st.lists(literals, min_size=1, max_size=3).map(Clause), min_size=0, max_size=8)


def brute_force_satisfiable(clause_list):
    variables = sorted({abs(l) for clause in clause_list for l in clause})
    if any(len(clause) == 0 for clause in clause_list):
        return False
    for values in product([False, True], repeat=len(variables)):
        assignment = dict(zip(variables, values))
        if all(
            any(assignment[abs(l)] == (l > 0) for l in clause) for clause in clause_list
        ):
            return True
    return not clause_list


@settings(max_examples=200, deadline=None)
@given(clauses)
def test_dpll_agrees_with_truth_tables(clause_list):
    assert DPLLSolver(clause_list).is_satisfiable() == brute_force_satisfiable(clause_list)


# ---------------------------------------------------------------------------
# CNF encodings
# ---------------------------------------------------------------------------

PARAMS = [Parameter("a"), Parameter("b")]
ground_atoms = st.sampled_from([atom("P", p.name) for p in PARAMS] + [atom("Q", p.name) for p in PARAMS])


def ground_formulas():
    from repro.logic.syntax import And, Iff, Implies, Or

    def extend(children):
        return st.one_of(
            st.builds(Not, children),
            st.builds(And, children, children),
            st.builds(Or, children, children),
            st.builds(Implies, children, children),
            st.builds(Iff, children, children),
        )

    return st.recursive(ground_atoms, extend, max_leaves=6)


@settings(max_examples=150, deadline=None)
@given(st.lists(ground_formulas(), min_size=1, max_size=3))
def test_tseitin_and_naive_cnf_are_equisatisfiable(formulas):
    tseitin, _ = cnf_clauses(formulas)
    naive, _ = naive_cnf_clauses(formulas)
    assert DPLLSolver(tseitin).is_satisfiable() == DPLLSolver(naive).is_satisfiable()


# ---------------------------------------------------------------------------
# Random small databases and queries
# ---------------------------------------------------------------------------

def small_databases():
    """Random databases: ground atoms, binary disjunctions and one rule."""
    facts = st.lists(ground_atoms, min_size=0, max_size=4)
    disjunctions = st.lists(
        st.tuples(ground_atoms, ground_atoms).map(lambda pair: disj(list(pair))),
        min_size=0,
        max_size=2,
    )
    return st.tuples(facts, disjunctions).map(lambda pair: pair[0] + pair[1])


def sentence_queries():
    """Random KFOPCE sentences over the same signature."""
    base = ground_atoms.map(lambda a: a)

    def extend(children):
        from repro.logic.syntax import And, Know, Or

        return st.one_of(
            st.builds(Not, children),
            st.builds(And, children, children),
            st.builds(Or, children, children),
            st.builds(Know, children),
        )

    return st.recursive(base, extend, max_leaves=5)


@settings(max_examples=60, deadline=None)
@given(small_databases(), sentence_queries())
def test_reduction_agrees_with_model_oracle(theory, query):
    reducer = EpistemicReducer(theory, config=CONFIG, queries=[query])
    assert reducer.entails(query) == oracle.entails(theory, query, config=CONFIG)


# ---------------------------------------------------------------------------
# Quantified queries: the reducer expands only quantifiers that bind into K
# ---------------------------------------------------------------------------

X, Y = Variable("x"), Variable("y")
QUANTIFIED_THEORY = [parse("exists x. Q(x)"), parse("forall x. P(x) -> Q(x)")]


def quantified_formulas():
    """Random KFOPCE formulas over P and Q whose terms are the constants a
    and b and the variables x and y, with ``exists``/``forall`` and ``K``
    nested in any order (free variables are left open)."""
    from repro.logic.syntax import And, Exists, Forall, Know, Or

    leaves = st.sampled_from(
        [Atom(name, (term,)) for name in ("P", "Q") for term in PARAMS + [X, Y]]
    )

    def extend(children):
        return st.one_of(
            st.builds(Not, children),
            st.builds(And, children, children),
            st.builds(Or, children, children),
            st.builds(Know, children),
            st.builds(Exists, st.sampled_from([X, Y]), children),
            st.builds(Forall, st.sampled_from([X, Y]), children),
        )

    return st.recursive(leaves, extend, max_leaves=4)


def _close(formula, choices, keep=()):
    """Bind every free variable of *formula* not in *keep*: each by
    ``exists`` or ``forall``, optionally under a ``K`` (so ``K`` lands both
    inside and outside the quantifiers)."""
    from repro.logic.syntax import Exists, Forall, Know

    for variable, (universal, known) in zip((X, Y), choices):
        if variable in keep or variable not in free_variables(formula):
            continue
        formula = (Forall if universal else Exists)(variable, formula)
        if known:
            formula = Know(formula)
    return formula


closing_choices = st.lists(st.tuples(st.booleans(), st.booleans()), min_size=2, max_size=2)


def quantified_queries():
    """Random quantified KFOPCE sentences (see :func:`quantified_formulas`)."""
    return st.tuples(quantified_formulas(), closing_choices).map(lambda pair: _close(*pair))


def quantified_databases():
    return small_databases().map(lambda theory: theory + QUANTIFIED_THEORY)


@settings(max_examples=80, deadline=None)
@given(quantified_databases(), quantified_queries())
def test_reducer_ask_agrees_with_model_oracle_on_quantified_queries(theory, query):
    reducer = EpistemicReducer(theory, config=CONFIG, queries=[query])
    assert reducer.ask(query) == oracle.ask(theory, query, config=CONFIG)


@settings(max_examples=60, deadline=None)
@given(quantified_databases(), quantified_formulas(), closing_choices)
def test_reducer_answers_agree_with_model_oracle_on_open_queries(theory, formula, choices):
    query = _close(formula, choices, keep=(X,))
    reducer = EpistemicReducer(theory, config=CONFIG, queries=[query])
    assert reducer.answers(query) == oracle.answers(theory, query, config=CONFIG)


class _RecordingProver(FirstOrderProver):
    """A prover that records every formula ``entails`` is asked about."""

    def entails(self, sentence):
        self.asked.append(sentence)
        return super().entails(sentence)


def _recording_reducer(text, query):
    theory = parse_many(text)
    prover = _RecordingProver.for_theory(theory, queries=[query], config=CONFIG)
    prover.asked = []
    return EpistemicReducer(theory, prover=prover), prover.asked


def test_k_free_quantifier_reaches_the_prover_quantified():
    from repro.logic.syntax import Exists, subformulas

    query = parse("exists x. Teach(x, Psych) & ~Teach(x, CS)")
    reducer, asked = _recording_reducer(
        "Teach(John, Math); exists x. Teach(x, CS); Teach(Mary, Psych) | Teach(Sue, Psych)",
        query,
    )
    assert reducer.ask(query).is_unknown
    assert asked[0] == query
    assert all(any(isinstance(sub, Exists) for sub in subformulas(f)) for f in asked)
    assert len(asked) == 2  # the query and its negation, each closed and quantified


def test_existential_over_k_stops_at_first_known_instance():
    query = parse("exists x. K p(x)")
    reducer, asked = _recording_reducer("p(A); p(B); p(C); q(D)", query)
    assert reducer.ask(query).is_yes
    assert asked == [parse("p(A)")]


# ---------------------------------------------------------------------------
# demo: soundness on admissible normal queries, completeness on elementary DBs
# ---------------------------------------------------------------------------

def elementary_databases():
    facts = st.lists(ground_atoms, min_size=1, max_size=5)
    disjunctions = st.lists(
        st.tuples(ground_atoms, ground_atoms).map(lambda pair: disj(list(pair))),
        min_size=0,
        max_size=2,
    )
    return st.tuples(facts, disjunctions).map(lambda pair: pair[0] + pair[1])


def normal_queries():
    """Safe normal queries over one free variable."""
    x = Variable("x")
    positive = st.sampled_from([Atom("P", (x,)), Atom("Q", (x,))])
    modal_literal = st.sampled_from(
        [
            knows(Atom("P", (x,))),
            knows(Atom("Q", (x,))),
            Not(knows(Atom("P", (x,)))),
            Not(knows(Atom("Q", (x,)))),
        ]
    )
    return st.tuples(positive, st.lists(modal_literal, min_size=0, max_size=2)).map(
        lambda pair: conj([knows(pair[0])] + pair[1])
    )


@settings(max_examples=60, deadline=None)
@given(elementary_databases(), normal_queries())
def test_demo_soundness_and_completeness_on_elementary_databases(theory, query):
    """Theorem 5.1 + Theorem 6.2 against the Definition 2.1 oracle."""
    evaluator = DemoEvaluator(theory, config=CONFIG, queries=[query])
    produced = all_answers(evaluator, query)
    variables = sorted(free_variables(query), key=lambda v: v.name)
    universe = evaluator.universe
    expected = set()
    for values in product(universe, repeat=len(variables)):
        from repro.logic.substitution import Substitution

        instance = Substitution(dict(zip(variables, values))).apply(query)
        if oracle.entails(theory, instance, config=CONFIG):
            expected.add(values)
    # Soundness: everything demo returns is a genuine answer.
    assert produced <= expected
    # Completeness: on elementary databases with queries admissible wrt F_Σ,
    # demo finds every answer (Theorem 6.2).
    if demo_is_complete_for(query, theory).complete:
        assert produced == expected


# ---------------------------------------------------------------------------
# Datalog: naive vs semi-naive
# ---------------------------------------------------------------------------

datalog_edges = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=10
)


@settings(max_examples=60, deadline=None)
@given(datalog_edges)
def test_naive_and_semi_naive_datalog_agree(edges):
    from repro.datalog.engine import DatalogEngine
    from repro.datalog.program import DatalogProgram, DatalogRule, DatalogLiteral

    def build():
        program = DatalogProgram()
        for source, target in edges:
            program.add_fact(atom("edge", f"n{source}", f"n{target}"))
        x, y, z = Variable("x"), Variable("y"), Variable("z")
        program.add_rule(DatalogRule(Atom("path", (x, y)), (DatalogLiteral(Atom("edge", (x, y))),)))
        program.add_rule(
            DatalogRule(
                Atom("path", (x, z)),
                (DatalogLiteral(Atom("edge", (x, y))), DatalogLiteral(Atom("path", (y, z)))),
            )
        )
        return program

    naive = DatalogEngine(build(), strategy="naive").least_model()
    semi = DatalogEngine(build(), strategy="semi-naive").least_model()
    assert naive == semi


@settings(max_examples=60, deadline=None)
@given(
    datalog_edges,
    st.booleans(),
    st.booleans(),
    st.booleans(),
)
def test_all_strategies_agree_on_random_stratified_programs(
    edges, with_two_hop, with_negation, with_same_generation
):
    """Naive, semi-naive and indexed semi-naive evaluation compute identical
    least models on randomly generated stratified programs (optionally with
    multi-literal joins and stratified negation)."""
    from repro.datalog.engine import DatalogEngine
    from repro.datalog.program import DatalogProgram, DatalogRule, DatalogLiteral

    def build():
        program = DatalogProgram()
        names = set()
        for source, target in edges:
            program.add_fact(atom("edge", f"n{source}", f"n{target}"))
            names.update((f"n{source}", f"n{target}"))
        for name in sorted(names):
            program.add_fact(atom("node", name))
        x, y, z = Variable("x"), Variable("y"), Variable("z")
        program.add_rule(DatalogRule(Atom("path", (x, y)), (DatalogLiteral(Atom("edge", (x, y))),)))
        program.add_rule(
            DatalogRule(
                Atom("path", (x, z)),
                (DatalogLiteral(Atom("edge", (x, y))), DatalogLiteral(Atom("path", (y, z)))),
            )
        )
        if with_two_hop:
            program.add_rule(
                DatalogRule(
                    Atom("two_hop", (x, z)),
                    (DatalogLiteral(Atom("edge", (x, y))), DatalogLiteral(Atom("edge", (y, z)))),
                )
            )
        if with_same_generation:
            program.add_rule(DatalogRule(Atom("sg", (x, x)), (DatalogLiteral(Atom("node", (x,))),)))
            program.add_rule(
                DatalogRule(
                    Atom("sg", (x, z)),
                    (
                        DatalogLiteral(Atom("edge", (y, x))),
                        DatalogLiteral(Atom("sg", (y, Variable("w")))),
                        DatalogLiteral(Atom("edge", (Variable("w"), z))),
                    ),
                )
            )
        if with_negation:
            program.add_rule(
                DatalogRule(
                    Atom("unreachable", (x, y)),
                    (
                        DatalogLiteral(Atom("node", (x,))),
                        DatalogLiteral(Atom("node", (y,))),
                        DatalogLiteral(Atom("path", (x, y)), False),
                    ),
                )
            )
        return program

    models = {
        strategy: DatalogEngine(build(), strategy=strategy).least_model()
        for strategy in ("naive", "semi-naive", "indexed")
    }
    assert models["naive"] == models["semi-naive"] == models["indexed"]


# ---------------------------------------------------------------------------
# Closed world: Theorem 7.1 on definite databases
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.lists(ground_atoms, min_size=1, max_size=4), sentence_queries())
def test_closed_world_collapse_on_definite_databases(facts, query):
    from repro.cwa.closure import closure
    from repro.logic.transform import remove_know

    closed = closure(facts, queries=[query], config=CONFIG)
    epistemic = oracle.entails(closed, query, config=CONFIG)
    prover = FirstOrderProver.for_theory(closed, queries=[query], config=CONFIG)
    assert epistemic == prover.entails(remove_know(query))
