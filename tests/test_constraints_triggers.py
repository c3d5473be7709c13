"""Integration tests for delta-driven triggers over violation views.

The paper's discussion item 5 reads triggers as "a procedural version of the
integrity constraint"; the delta-driven discipline
(:meth:`~repro.constraints.triggers.TriggerManager.register_violation` +
:meth:`~repro.constraints.triggers.TriggerManager.watch`) implements it over
the PR 3 update-listener plumbing: the watched
:class:`~repro.constraints.views.ViolationView` streams net violation deltas
off its incremental maintenance, and the trigger fires exactly once per
delta — with the new witnesses, never on rollback, never on a rejected
batch, and with no condition re-evaluation at all.
"""

import pytest

from repro.constraints.library import (
    disjoint_properties,
    mandatory_known_attribute,
)
from repro.constraints.triggers import TriggerManager
from repro.constraints.views import ViolationView
from repro.db.database import EpistemicDatabase
from repro.exceptions import ConstraintViolationError, ReproError
from repro.logic.builders import atom
from repro.semantics.config import SemanticsConfig

CONFIG = SemanticsConfig(extra_parameters=1)

MISSING_SS = mandatory_known_attribute("emp", "ss")


def witness_names(witnesses):
    return sorted(tuple(p.name for p in witness) for witness in witnesses)


@pytest.fixture
def watched():
    """A database + view + manager with one delta-driven trigger recording
    every firing (constraints enforced nowhere, so violations can land)."""
    database = EpistemicDatabase(
        [atom("emp", "A"), atom("ss", "A", "S1")], config=CONFIG
    )
    view = ViolationView(database, constraints=[MISSING_SS], config=CONFIG)
    manager = TriggerManager(config=CONFIG)
    firings = []

    def action(session, witnesses):
        firings.append(witness_names(witnesses))

    manager.register_violation("missing-ss", MISSING_SS, action)
    manager.watch(view)
    return database, view, manager, firings


def test_fires_exactly_once_per_net_violation_delta(watched):
    database, view, manager, firings = watched
    database.tell(atom("emp", "B"))
    assert firings == [[("B",)]]
    # Repairing the violation is a *removed* delta: no firing.
    database.tell(atom("ss", "B", "S2"))
    assert firings == [[("B",)]]
    # An unrelated fact produces no violation delta at all.
    database.tell(atom("dept", "D0"))
    assert firings == [[("B",)]]
    assert [record.trigger for record in manager.log] == ["missing-ss"]


def test_one_batch_with_many_witnesses_fires_once(watched):
    database, view, manager, firings = watched
    transaction = database.transaction()
    transaction.tell(atom("emp", "B"))
    transaction.tell(atom("emp", "C"))
    transaction.commit()
    assert firings == [[("B",), ("C",)]]
    assert len(manager.log) == 1


def test_net_consistent_batch_never_fires(watched):
    database, view, manager, firings = watched
    # Hire with the ss number in the same transaction: the *net* state never
    # violates, and the delta-driven trigger sees no new violation.
    transaction = database.transaction()
    transaction.tell(atom("emp", "B"))
    transaction.tell(atom("ss", "B", "S2"))
    transaction.commit()
    assert firings == []
    # A whole-entity departure is equally silent.
    transaction = database.transaction()
    transaction.retract(atom("emp", "B"))
    transaction.retract(atom("ss", "B", "S2"))
    transaction.commit()
    assert firings == []


def test_rollback_never_fires(watched):
    database, view, manager, firings = watched
    transaction = database.transaction()
    transaction.tell(atom("emp", "B"))
    transaction.rollback()
    assert firings == []
    assert manager.log == []


def test_rejected_batch_never_fires():
    """Under incremental enforcement a violating commit is rejected before
    the database changes — the view sees no delta, the trigger stays
    silent."""
    database = EpistemicDatabase(
        [atom("emp", "A"), atom("ss", "A", "S1")],
        constraints=[MISSING_SS],
    )
    view = database.violation_view()
    manager = TriggerManager(config=database.config)
    firings = []
    manager.register_violation(
        "missing-ss", MISSING_SS, lambda session, witnesses: firings.append(witnesses)
    )
    manager.watch(view)
    with pytest.raises(ConstraintViolationError):
        database.tell(atom("emp", "B"))
    assert firings == []
    assert atom("emp", "B") not in database.sentences()


def test_polling_fire_skips_delta_triggers(watched):
    database, view, manager, firings = watched
    database.tell(atom("emp", "B"))
    assert len(firings) == 1
    # Polling over the (violating) state must not re-report the same
    # violation through the delta trigger.
    assert manager.fire(database) == []
    assert len(firings) == 1


def test_unwatch_detaches(watched):
    database, view, manager, firings = watched
    manager.unwatch(view)
    database.tell(atom("emp", "B"))
    assert firings == []


def test_disabled_trigger_does_not_fire(watched):
    database, view, manager, firings = watched
    manager.enable("missing-ss", False)
    database.tell(atom("emp", "B"))
    assert firings == []
    manager.enable("missing-ss")
    database.tell(atom("emp", "C"))
    assert firings == [[("C",)]]


def test_triggers_only_fire_for_their_constraint(watched):
    database, view, manager, firings = watched
    other_firings = []
    # A trigger whose constraint the view does not maintain is skipped.
    manager.register_violation(
        "gender-clash",
        disjoint_properties("male", "female"),
        lambda session, witnesses: other_firings.append(witnesses),
    )
    database.tell(atom("emp", "B"))
    assert firings == [[("B",)]]
    assert other_firings == []


def test_cascade_repairs_the_violation():
    """An action may return sentences to assert (the paper's "such changes
    may trigger other procedures"): a trigger that fills in a default ss
    number repairs the violation it was fired for."""
    database = EpistemicDatabase([atom("emp", "A"), atom("ss", "A", "S1")],
                                 config=CONFIG)
    view = ViolationView(database, constraints=[MISSING_SS], config=CONFIG)
    manager = TriggerManager(config=CONFIG)

    def assign_default(session, witnesses):
        return [
            atom("ss", witness[0].name, f"TEMP-{witness[0].name}")
            for witness in witnesses
        ]

    manager.register_violation("assign-default-ss", MISSING_SS, assign_default)
    manager.watch(view)
    database.tell(atom("emp", "B"))
    assert atom("ss", "B", "TEMP-B") in database.sentences()
    assert view.check().satisfied
    assert len(manager.log) == 1


def test_runaway_cascade_is_bounded():
    """A cascade that keeps creating fresh violations trips the same depth
    guard as the polling discipline."""
    database = EpistemicDatabase([atom("emp", "A"), atom("ss", "A", "S1")],
                                 config=CONFIG)
    view = ViolationView(database, constraints=[MISSING_SS], config=CONFIG)
    manager = TriggerManager(config=CONFIG, max_cascade_depth=3)
    counter = [0]

    def hire_another(session, witnesses):
        counter[0] += 1
        return [atom("emp", f"N{counter[0]}")]

    manager.register_violation("hire-forever", MISSING_SS, hire_another)
    manager.watch(view)
    with pytest.raises(ReproError):
        database.tell(atom("emp", "B"))
