"""Tests for database update notifications and the materialized DatalogView,
including the transactional guarantees: commits update the view with the net
batch, rollbacks (and previews of pending state) leave it untouched."""

import pytest

from repro.constraints.library import mandatory_known_attribute
from repro.datalog import ColumnarFactIndex, DatalogLiteral, DatalogRule
from repro.db import EpistemicDatabase
from repro.exceptions import ConstraintViolationError
from repro.logic.builders import atom
from repro.logic.parser import parse
from repro.logic.syntax import Atom
from repro.logic.terms import Variable
from repro.semantics.config import SemanticsConfig

CONFIG = SemanticsConfig(extra_parameters=1)
x, y, z = Variable("x"), Variable("y"), Variable("z")


def path_rules():
    return [
        DatalogRule(Atom("path", (x, y)), (DatalogLiteral(Atom("edge", (x, y))),)),
        DatalogRule(
            Atom("path", (x, z)),
            (DatalogLiteral(Atom("edge", (x, y))), DatalogLiteral(Atom("path", (y, z)))),
        ),
    ]


def edge_database():
    return EpistemicDatabase.from_text("edge(a, b); edge(b, c)", config=CONFIG)


class TestUpdateListeners:
    def test_tell_and_retract_notify(self):
        db = EpistemicDatabase(config=CONFIG)
        events = []
        db.add_update_listener(lambda added, removed: events.append((added, removed)))
        db.tell("p(a)")
        db.retract("p(a)")
        assert events == [
            ((parse("p(a)"),), ()),
            ((), (parse("p(a)"),)),
        ]

    def test_commit_notifies_net_batch_once(self):
        db = edge_database()
        events = []
        db.add_update_listener(lambda added, removed: events.append((added, removed)))
        with db.transaction() as txn:
            txn.tell("edge(c, d)")
            txn.retract("edge(a, b)")
            txn.retract("edge(zz, zz)")  # absent: must not be reported
        assert events == [((parse("edge(c, d)"),), (parse("edge(a, b)"),))]

    def test_rollback_and_rejected_updates_do_not_notify(self):
        db = EpistemicDatabase.from_text("emp(Bill); ss(Bill, n1)", config=CONFIG)
        db.add_constraint(mandatory_known_attribute("emp", "ss"))
        events = []
        db.add_update_listener(lambda added, removed: events.append((added, removed)))
        txn = db.transaction().tell("emp(Mary)")
        with pytest.raises(ConstraintViolationError):
            txn.commit()
        db.transaction().tell("p(a)").rollback()
        with pytest.raises(ConstraintViolationError):
            db.tell("emp(Zoe)")
        assert events == []

    def test_remove_update_listener(self):
        db = EpistemicDatabase(config=CONFIG)
        events = []
        listener = db.add_update_listener(lambda added, removed: events.append(added))
        db.remove_update_listener(listener)
        db.tell("p(a)")
        assert events == []


class TestDatalogView:
    def test_view_materializes_initial_content(self):
        view = edge_database().datalog_view(rules=path_rules())
        assert view.holds("path(a, c)")
        assert {binding[y].name for binding in view.query(Atom("path", (x, y)))} == {
            "b",
            "c",
        }

    def test_tell_retract_maintains_view(self):
        db = edge_database()
        view = db.datalog_view(rules=path_rules())
        db.tell("edge(c, d)")
        assert view.holds("path(a, d)")
        db.retract("edge(b, c)")
        assert not view.holds("path(a, c)")
        # maintained, not recomputed
        assert view.materialized.statistics.rebuilds == 1

    def test_transaction_commit_maintains_view(self):
        db = edge_database()
        view = db.datalog_view(rules=path_rules())
        with db.transaction() as txn:
            txn.retract("edge(b, c)")
            txn.tell("edge(b, d)")
        assert view.holds("path(a, d)")
        assert not view.holds("path(a, c)")
        assert view.materialized.statistics.rebuilds == 1

    def test_rollback_after_preview_leaves_view_untouched(self):
        """The cache-poisoning regression: peeking at pending state and then
        rolling back must not change the maintained model, the engine cache,
        or cost a rebuild."""
        db = edge_database()
        view = db.datalog_view(rules=path_rules())
        before = view.model()
        engine_model = view.engine.least_model()
        txn = db.transaction().tell("edge(c, d)").retract("edge(a, b)")
        previewed = view.preview(txn)
        assert previewed.holds(parse("path(b, d)"))
        assert not previewed.holds(parse("path(a, b)"))
        txn.rollback()
        assert view.model() == before
        assert view.engine.least_model() == engine_model
        assert view.materialized.statistics.rebuilds == 1

    def test_non_atomic_sentences_are_ignored(self):
        db = edge_database()
        view = db.datalog_view(rules=path_rules())
        before = view.model()
        db.tell("exists w. edge(w, w)")
        db.tell("edge(p, q) | edge(q, p)")
        assert view.model() == before

    def test_duplicate_sentence_retraction(self):
        """The database stores a sentence list; the view only drops a fact
        once no occurrence is left."""
        db = EpistemicDatabase(config=CONFIG)
        db.tell("edge(a, b)")
        db.tell("edge(a, b)")
        view = db.datalog_view(rules=path_rules())
        db.retract("edge(a, b)")
        assert view.holds("path(a, b)")
        db.retract("edge(a, b)")
        assert not view.holds("path(a, b)")

    def test_preview_respects_sentence_multiplicity(self):
        """Preview must predict exactly what commit produces: retracting one
        of two occurrences of a sentence leaves the fact (and its
        consequences) in place."""
        db = EpistemicDatabase(config=CONFIG)
        db.tell("edge(a, b)")
        db.tell("edge(a, b)")
        view = db.datalog_view(rules=path_rules())
        txn = db.transaction().retract("edge(a, b)")
        assert view.preview(txn).holds(parse("path(a, b)"))
        txn.commit()
        assert view.holds("path(a, b)")
        txn = db.transaction().retract("edge(a, b)")
        assert not view.preview(txn).holds(parse("path(a, b)"))
        txn.commit()
        assert not view.holds("path(a, b)")

    def test_closed_view_stops_updating(self):
        db = edge_database()
        view = db.datalog_view(rules=path_rules())
        view.close()
        db.tell("edge(c, d)")
        assert not view.holds("path(c, d)")

    def test_view_without_rules_mirrors_facts(self):
        db = edge_database()
        view = db.datalog_view()
        assert view.holds("edge(a, b)")
        db.retract("edge(a, b)")
        assert not view.holds("edge(a, b)")

    def test_facade_still_answers_after_view_traffic(self):
        db = edge_database()
        view = db.datalog_view(rules=path_rules())
        db.tell("edge(c, d)")
        assert view.holds("path(a, d)")
        assert db.ask("K edge(c, d)").is_yes

    def test_views_store_columnar_only(self):
        db = edge_database()
        view = db.datalog_view(rules=path_rules(), storage="columnar")
        assert isinstance(view.materialized._index, ColumnarFactIndex)
        assert view.holds("path(a, c)")
        for storage in ("objects", "rowwise"):
            with pytest.raises(ValueError, match="columnar"):
                db.datalog_view(rules=path_rules(), storage=storage)
        # The views forward no engine options any more.
        with pytest.raises(TypeError):
            db.datalog_view(rules=path_rules(), planner="histogram")
