"""Belief change at delta cost: AGM revision over the epistemic database.

The paper's closing discussion reads a database update as an *epistemic*
operation — the database comes to know something new — and AGM belief
revision says what that must do: accept the input, keep the base consistent
with its integrity constraints, and give up as little as possible.  This
example walks the :mod:`repro.revision` layer end to end on the scaled HR
workload:

* ``revise`` accepts a conflicting fact by retracting a minimal, least
  entrenched set of beliefs — the conflict is located by the violation
  view's O(delta) peek, never a from-scratch recompute;
* ``expand`` adds without repair (and a later ``revise`` cleans up);
* ``contract`` removes a belief plus whatever the constraints then force
  out (referential cascades);
* a pluggable entrenchment policy decides *which* side of a conflict gives
  way (recency vs per-predicate priority);
* an irreparable revision is rejected atomically — the base is untouched;
* every applied operation lands in the revisor's history with a strictly
  increasing database epoch.

Run with::

    python examples/belief_revision.py
"""

from repro.db.database import EpistemicDatabase
from repro.exceptions import RevisionError
from repro.logic.builders import atom
from repro.logic.printer import to_text
from repro.revision import FactPriorityPolicy
from repro.workloads.constraints import hr_constraints, hr_facts

EMPLOYEES = 6


def texts(sentences):
    return [to_text(sentence) for sentence in sentences]


def build_revisor():
    facts = hr_facts(employees=EMPLOYEES)
    database = EpistemicDatabase(
        facts,
        constraints=hr_constraints(),
    )
    revisor = database.revision()
    print(f"HR database: {len(facts)} ground atoms, "
          f"{len(database.constraints())} constraints, "
          f"policy={type(revisor.policy).__name__}\n")
    return database, revisor


def revise_a_conflict(revisor):
    # E0 is male in the generated base; gender disjointness makes the tell
    # conflicting, and revision repairs it by minimal retraction.
    print("Revising in female(E0) against disjoint_properties(male, female):")
    result = revisor.revise(atom("female", "E0"))
    print(f"    added {texts(result.additions)}, "
          f"retracted {texts(result.retracted)} (epoch {result.epoch})\n")
    assert result.retracted == (atom("male", "E0"),)


def expand_then_repair(revisor):
    print("Expansion adds without repair; the next revision cleans up:")
    revisor.expand(atom("male", "E0"))        # back to a contradiction
    violations = revisor.database.violation_view().check().satisfied
    print(f"    after expand male(E0): constraints satisfied = {violations}")
    # Any revision now repairs the pre-existing conflict too; under recency
    # the newest belief — the expansion itself — is the one evicted.
    result = revisor.revise(atom("ss", "E0", "S999"))
    print(f"    revise ss(E0, S999) repaired the expansion: "
          f"retracted {texts(result.retracted)}\n")
    assert result.retracted == (atom("male", "E0"),)


def contract_with_cascade(revisor):
    print("Contracting dept(D0) under referential integrity on works_in:")
    result = revisor.contract(atom("dept", "D0"))
    print(f"    removed {texts(result.removals)}, "
          f"cascade retracted {texts(result.retracted)}\n")
    assert result.retracted == (atom("works_in", "E0", "D0"),)


def entrenchment_decides(database):
    print("Entrenchment decides which side of a conflict gives way:")
    constraints = [c for c in database.constraints()]
    for label, policy in (
        ("recency (default)", None),
        ("FactPriorityPolicy(female outranks male)",
         FactPriorityPolicy({"female": 5, "male": 1})),
    ):
        scratch = EpistemicDatabase(
            [atom("person", "A"), atom("male", "A")],
            constraints=constraints,
        )
        revisor = scratch.revision(policy=policy)
        revisor.expand(atom("female", "A"))   # contradiction: both genders
        result = revisor.revise(atom("male", "B"))
        print(f"    {label}: retracted {texts(result.retracted)}")
    print()


def irreparable_revision(revisor):
    database = revisor.database
    before = list(database.sentences())
    epoch = database.revision_epoch
    print("A revision that conflicts with the constraints on its own:")
    try:
        revisor.revise(atom("emp", "Zoe"))    # no ss number is known for Zoe
    except RevisionError as error:
        untouched = (database.sentences() == before
                     and database.revision_epoch == epoch)
        print(f"    REJECTED ({error}); database untouched: {untouched}\n")


def show_history(revisor):
    epochs = [r.epoch for r in revisor.history if r.changed]
    print(f"History: {len(revisor.history)} operations, "
          f"{len(epochs)} applied, epochs strictly increasing: "
          f"{epochs == sorted(set(epochs))}")


def main():
    database, revisor = build_revisor()
    revise_a_conflict(revisor)
    expand_then_repair(revisor)
    contract_with_cascade(revisor)
    entrenchment_decides(database)
    irreparable_revision(revisor)
    show_history(revisor)
    print("\nEverything above is re-proven continuously: the AGM postulate "
          "suite in tests/test_revision_postulates.py and the differential "
          "harness in tests/test_revision_differential.py hold operator ≡ "
          "naive baseline, and benchmarks/check_bench.py guards the "
          "committed revision-vs-naive speedup.")


if __name__ == "__main__":
    main()
