#!/usr/bin/env python
"""Incremental view maintenance under a tell/retract stream.

Builds a transitive-closure program, materializes its least model with
``MaterializedModel``, then replays a stream of insertions and deletions,
comparing the cost of maintaining the closure (``apply``) against fully
recomputing it after every batch — and checking, batch by batch, that the
maintained model is fact-for-fact identical to the recomputed one.

The second half shows the database-level hookup: an ``EpistemicDatabase``
with a ``DatalogView`` stays consistent through transaction commits, while a
rollback (even after a side-effect-free ``preview`` of the pending state)
leaves the materialized view untouched.

Run with ``PYTHONPATH=src python examples/incremental_updates.py``.
"""

import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro.datalog import DatalogEngine, DatalogLiteral, DatalogRule, MaterializedModel
from repro.db import EpistemicDatabase
from repro.logic.syntax import Atom
from repro.logic.terms import Variable
from repro.workloads.generators import transitive_closure_program, update_stream


def path_rules():
    x, y, z = Variable("x"), Variable("y"), Variable("z")
    return [
        DatalogRule(Atom("path", (x, y)), (DatalogLiteral(Atom("edge", (x, y))),)),
        DatalogRule(
            Atom("path", (x, z)),
            (DatalogLiteral(Atom("edge", (x, y))), DatalogLiteral(Atom("path", (y, z)))),
        ),
    ]


def maintain_closure():
    print("=== maintaining a materialized transitive closure ===")
    program = transitive_closure_program(chains=40, length=5)
    materialized = MaterializedModel(program)
    print(f"{len(program.facts)} edge facts, closure of {len(materialized)} atoms")
    print(f"{'batch':>5} {'+ins':>5} {'-del':>5} {'apply':>9} {'recompute':>10} {'agree':>6}")
    apply_total = recompute_total = 0.0
    agreed = True
    for number, (insertions, deletions) in enumerate(
        update_stream(program, batches=8, churn=0.02, seed=7), start=1
    ):
        start = time.perf_counter()
        materialized.apply(insertions, deletions)
        apply_seconds = time.perf_counter() - start
        start = time.perf_counter()
        recomputed = DatalogEngine(program).least_model()
        recompute_seconds = time.perf_counter() - start
        apply_total += apply_seconds
        recompute_total += recompute_seconds
        same = materialized.model() == recomputed
        agreed = agreed and same
        print(
            f"{number:>5} {len(insertions):>5} {len(deletions):>5} "
            f"{apply_seconds * 1000:>7.2f}ms {recompute_seconds * 1000:>8.1f}ms "
            f"{'yes' if same else 'NO':>6}"
        )
    print(f"incremental and recompute agree: {agreed}")
    if apply_total > 0:
        print(f"stream speedup: {recompute_total / apply_total:.1f}x "
              f"({recompute_total * 1000:.0f}ms recomputed vs "
              f"{apply_total * 1000:.0f}ms maintained)")
    statistics = materialized.statistics
    print(f"maintenance work: {statistics.delta_passes} delta passes, "
          f"{statistics.overdeleted} deletion candidates checked, "
          f"{statistics.rederived} of them proved and kept, "
          f"{statistics.rebuilds} full rebuild(s)\n")


def transactional_view():
    print("=== a DatalogView across transactions ===")
    db = EpistemicDatabase.from_text("edge(a, b); edge(b, c); edge(c, d)")
    view = db.datalog_view(rules=path_rules())
    print(f"path(a, d) holds: {view.holds('path(a, d)')}")

    with db.transaction() as txn:
        txn.retract("edge(b, c)")
        txn.tell("edge(b, d)")
    print(f"after commit [retract edge(b,c), tell edge(b,d)]: "
          f"path(a, d) holds: {view.holds('path(a, d)')}, "
          f"path(a, c) holds: {view.holds('path(a, c)')}")

    before = view.model()
    txn = db.transaction().retract("edge(b, d)")
    previewed = view.preview(txn)
    from repro.logic.parser import parse

    print(f"preview without edge(b, d): path(a, d) holds: "
          f"{previewed.holds(parse('path(a, d)'))}")
    txn.rollback()
    untouched = view.model() == before
    print(f"rollback left the view untouched: {untouched}")
    print(f"engine fixpoint reruns (rebuilds) while serving the stream: "
          f"{view.materialized.statistics.rebuilds - 1}")


def main():
    maintain_closure()
    transactional_view()


if __name__ == "__main__":
    main()
