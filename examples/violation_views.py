"""Integrity constraints as incremental violation views (Definition 3.5).

The paper makes constraint checking query evaluation; this example shows the
repo's incremental implementation of that idea end to end on the scaled HR
workload:

* each admissible modal constraint compiles to stratified Datalog rules
  deriving ``__violation__<id>(witness...)`` atoms, maintained through
  ``MaterializedModel`` — checking a pending commit is O(delta), not
  O(database);
* constraints outside the fragment (here ``unique_attribute``, the
  functional dependency on ``ss``) fall back to the from-scratch checker
  with a machine-readable reason that every report repeats;
* a delta-driven trigger fires exactly once per batch of net-new
  violations, with the witnesses — no polling, no re-evaluation.

Run with::

    python examples/violation_views.py
"""

import time

from repro.constraints.compile import compile_constraints
from repro.constraints.triggers import TriggerManager
from repro.constraints.views import ViolationView
from repro.db.database import EpistemicDatabase
from repro.exceptions import ConstraintViolationError
from repro.logic.builders import atom, param
from repro.logic.printer import to_text
from repro.workloads.constraints import hr_constraints, hr_facts, hr_group

EMPLOYEES = 200


def build_database():
    # The enforced set is the all-compilable one: a fallback constraint
    # would put the super-quadratic from-scratch checker on every commit,
    # which is exactly what this example exists to avoid.
    facts = hr_facts(employees=EMPLOYEES)
    database = EpistemicDatabase(facts, constraints=hr_constraints())
    print(f"HR database: {len(facts)} ground atoms, "
          f"{len(database.constraints())} constraints, "
          "checked by the maintained violation view\n")
    return database


def show_compilation(database):
    view = database.violation_view()
    compiled = view.compiled.compiled
    print(f"Compiled {len(compiled)} of {len(database.constraints())} "
          "constraints into violation rules, e.g. for "
          f"{to_text(compiled[0].constraint)}:")
    for rule in compiled[0].rules:
        print(f"    {rule}")
    # The library's designed uncompilable constraint: the ss functional
    # dependency needs a disequality test, which Datalog cannot express.
    # compile_constraints refuses it with a machine-readable reason and the
    # checker routes it through the from-scratch path instead.
    full_set = compile_constraints(hr_constraints(with_fallback=True))
    for fallback in full_set.fallbacks:
        print(f"from-scratch fallback: {fallback}")
    print()
    return view


def bounce_and_accept(database, view):
    print("A hire with no ss number bounces off the O(delta) commit check:")
    transaction = database.transaction()
    transaction.tell(atom("emp", param("Zoe")))
    started = time.perf_counter()
    try:
        transaction.commit()
    except ConstraintViolationError as error:
        elapsed = (time.perf_counter() - started) * 1000
        names = sorted(
            to_text(violation.constraint) for violation in error.violations
        )
        print(f"    REJECTED in {elapsed:.1f} ms -> {names[0]}")
    assert atom("emp", param("Zoe")) not in database.sentences()

    print("The same hire as a net-consistent entity group commits cleanly:")
    transaction = database.transaction()
    for fact in hr_group(EMPLOYEES):
        transaction.tell(fact)
    started = time.perf_counter()
    transaction.commit()
    elapsed = (time.perf_counter() - started) * 1000
    print(f"    ACCEPTED in {elapsed:.1f} ms "
          f"(database now {len(database.sentences())} facts; "
          f"satisfied={view.check().satisfied})\n")


def delta_driven_trigger(database, view):
    print("A delta-driven trigger (discussion item 5) watches the view:")
    manager = TriggerManager(config=database.config)
    requests = []

    def request_number(session, witnesses):
        requests.append(sorted(w[0].name for w in witnesses))

    # The database *enforces* its constraints, so stage the violation on a
    # second, enforcement-free database sharing the same constraint.
    mandatory_ss = view.compiled.compiled[0].constraint
    audit = EpistemicDatabase(list(database.sentences()))
    audit_view = ViolationView(audit, constraints=[mandatory_ss])
    manager.register_violation("request-ss", mandatory_ss, request_number)
    manager.watch(audit_view)
    audit.tell(atom("emp", param("Ann")))
    audit.tell(atom("dept", param("D99")))          # unrelated: no firing
    audit.tell(atom("ss", param("Ann"), param("S999")))  # repair: no firing
    print(f"    trigger asked HR for: {requests[0]} "
          f"(fired {len(manager.log)} time(s) across 3 updates)\n")


def main():
    database = build_database()
    view = show_compilation(database)
    bounce_and_accept(database, view)
    delta_driven_trigger(database, view)
    print("Everything above is re-proven continuously: the differential "
          "harness in tests/test_constraints_views.py holds view ≡ checker "
          "on random update streams, and benchmarks/check_bench.py guards "
          "the committed speedup.")


if __name__ == "__main__":
    main()
