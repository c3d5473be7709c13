"""Asking over many constants.

Quantifiers grounded over a large universe nest as balanced trees, so no
recursive pass (simplification, CNF, the entailment cache's equality check)
recurses once per constant; and a warm ``ask`` checks the reducer's universe
against the query alone, not against every sentence of the base.
"""

import pytest

import repro.logic.signature
from repro.db.database import EpistemicDatabase
from repro.logic.builders import atom, param
from repro.logic.parser import parse
from repro.logic.syntax import formula_depth
from repro.logic.terms import Parameter
from repro.prover.grounding import ground_sentence
from repro.workloads.constraints import hr_constraints, hr_facts


def test_grounded_quantifier_nests_logarithmically():
    universe = [Parameter(f"C{i}") for i in range(1024)]
    assert formula_depth(ground_sentence(parse("exists x. p(x)"), universe)) == 11
    assert formula_depth(ground_sentence(parse("forall x. p(x)"), universe)) == 11


@pytest.mark.parametrize(
    "query", ["exists x. K p(x)", "K exists x. p(x)", "exists x. ~K p(x)"]
)
def test_asks_over_1500_constants(query):
    db = EpistemicDatabase([atom("p", param(f"C{i}")) for i in range(1500)])
    assert db.ask(query).is_yes
    assert db.ask(query).is_yes  # the warm ask hits the prover's caches


@pytest.fixture(scope="module")
def hr_database():
    db = EpistemicDatabase(hr_facts(200))
    for constraint in hr_constraints():
        db.add_constraint(constraint)
    return db


def test_known_existential_over_hr_base_asked_twice(hr_database):
    assert hr_database.ask("K exists d. works_in(E5, d)").is_yes
    assert hr_database.ask("K exists d. works_in(E5, d)").is_yes


def test_warm_ask_reads_only_the_query(hr_database, monkeypatch):
    hr_database.ask("K emp(E5)")
    calls = []
    original = repro.logic.signature.parameters_of

    def counting(formula):
        calls.append(formula)
        return original(formula)

    monkeypatch.setattr(repro.logic.signature, "parameters_of", counting)
    assert hr_database.ask("K emp(E5)").is_yes
    assert calls == [parse("K emp(E5)")]
