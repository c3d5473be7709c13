"""Tests for the belief base and the one update path built on it.

:class:`~repro.db.base.BeliefBase` is the only copy of a database's content,
so its multiset discipline (each retraction removes the earliest surviving
occurrence) is checked here against a plain list.  The database tests pin
what ``tell``, ``retract`` and ``Transaction.commit`` now share: validation
of every staged assertion, and a commit whose net change is empty leaving
the epoch and the listeners alone.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.constraints.library import disjoint_properties, mandatory_known_attribute
from repro.datalog import DatalogEngine, DatalogProgram
from repro.db.base import BeliefBase
from repro.db.database import EpistemicDatabase
from repro.exceptions import NotFirstOrderError
from repro.logic.builders import atom, disj
from repro.logic.parser import parse
from repro.semantics.config import SemanticsConfig

CONFIG = SemanticsConfig(extra_parameters=1)

P, Q, R = atom("p", "A"), atom("q", "A"), atom("r", "B")
OR = disj([atom("p", "B"), atom("q", "B")])


def remove_earliest(sentences, sentence):
    if sentence in sentences:
        sentences.remove(sentence)


class TestBeliefBase:
    def test_duplicates_leave_earliest_first(self):
        base = BeliefBase([P, Q, P])
        assert list(base) == [P, Q, P]
        assert base.count(P) == 2 and base.sequences[P] == 0
        assert base.remove(P)
        assert list(base) == [Q, P]
        assert base.count(P) == 1 and base.sequences[P] == 2
        assert base.remove(P) and P not in base
        assert not base.remove(P)
        assert dict(base.counts) == {Q: 1}

    def test_nonatomic_predicates_track_distinct_sentences(self):
        base = BeliefBase([P, OR, OR])
        assert base.has_nonatomic
        assert base.nonatomic_predicates() == {"p", "q"}
        base.remove(OR)
        assert base.nonatomic_predicates() == {"p", "q"}
        base.remove(OR)
        assert not base.has_nonatomic and base.nonatomic_predicates() == set()

    def test_staged_batches_are_previewed_without_applying(self):
        base = BeliefBase([P, Q, P])
        arriving, gone = base.net_change(additions=[R, Q], retractions=[P, Q])
        assert arriving == [R] and gone == []
        assert base.net_change(retractions=[P, P, R]) == ([], [P])
        assert base.updated(additions=[R], retractions=[P]) == [Q, P, R]
        assert base.nonatomic_predicates(arriving=[OR]) == {"p", "q"}
        assert list(base) == [P, Q, P]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.booleans(), st.sampled_from([P, Q, R, OR])),
                    max_size=30))
    def test_matches_a_list_with_earliest_first_removal(self, steps):
        base, reference = BeliefBase(), []
        for is_add, sentence in steps:
            if is_add:
                base.add(sentence)
                reference.append(sentence)
            else:
                assert base.remove(sentence) == (sentence in reference)
                remove_earliest(reference, sentence)
            assert list(base) == reference and len(base) == len(reference)
            first_seen = list(dict.fromkeys(reference))
            assert sorted(base.sequences, key=base.sequences.get) == first_seen
            for candidate in (P, Q, R, OR):
                assert base.count(candidate) == reference.count(candidate)


class TestSharedUpdatePath:
    def test_transaction_tell_validates_like_tell(self):
        db = EpistemicDatabase(config=CONFIG)
        for text in ("K p(A)", "p(?x)"):
            with pytest.raises((NotFirstOrderError, ValueError)) as direct:
                db.tell(text)
            with pytest.raises(type(direct.value)):
                db.transaction().tell(text).commit()
        assert db.sentences() == [] and db.revision_epoch == 0

    def test_empty_commit_is_a_noop(self):
        db = EpistemicDatabase([parse("emp(Bill)"), parse("ss(Bill, n1)")],
                               constraints=[mandatory_known_attribute("emp", "ss")],
                               config=CONFIG, constraint_checking="incremental")
        db.tell("p(A)")
        epoch = db.revision_epoch
        events = []
        db.add_update_listener(lambda added, removed: events.append((added, removed)))
        transaction = db.transaction().retract("p(B)")
        transaction.commit()
        assert db.retract("p(B)") is None
        assert db.revision_epoch == epoch
        assert transaction.committed_epoch == epoch
        assert events == []

    def test_bulk_load_counts_tells_and_starts_at_epoch_zero(self):
        db = EpistemicDatabase([P, Q, P], config=CONFIG)
        assert db.sentences() == [P, Q, P]
        assert db.revision_epoch == 0
        assert db.metrics()["db.tells"] == 3

    def test_retract_removes_earliest_occurrence_everywhere(self):
        db = EpistemicDatabase([P, Q, P], config=CONFIG,
                               constraint_checking="incremental")
        revisor = db.revision()
        db.retract(P)
        assert db.sentences() == [Q, P]
        assert revisor.believes(P)
        assert db.base.sequences[P] > db.base.sequences[Q]

    def test_views_stay_exact_when_a_trigger_updates_inside_a_notification(self):
        # The violation view notifies its delta trigger, which tells the
        # same fact again, before the Datalog view has seen the first tell.
        male, female = atom("male", "A"), atom("female", "A")
        constraint = disjoint_properties("male", "female")
        db = EpistemicDatabase([male], constraints=[constraint], config=CONFIG,
                               constraint_checking="incremental")
        db.triggers.register_violation("echo", constraint, lambda session, w: [female])
        db.triggers.watch(db.violation_view())
        view = db.datalog_view()
        db.tell(female, check_constraints=False)
        assert db.sentences() == [male, female, female]
        program = DatalogProgram()
        for sentence in db.sentences():
            program.add_fact(sentence)
        assert view.model() == DatalogEngine(program).least_model()
        assert view.holds(female)
