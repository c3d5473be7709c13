#!/usr/bin/env python
"""Columnar interned fact storage: dense ids, id-space joins, the same model.

The indexed engine stores every fact as a row of interned integer ids
(constants interned to dense ids, relations held as id rows with
per-column buckets, joins run as generated id-space code).  This example
evaluates one transitive-closure workload and shows the storage contract:

* the least model, the evaluation statistics and the query answers are
  *identical* to those of the set-based ``semi-naive`` reference oracle —
  the representation is not a semantic choice;
* the interner is a bidirectional symbol table: every fact crosses the
  boundary as a compact integer row and decodes back to the same ``Atom``;
* ``least_index()`` exposes the id-space fixpoint without paying the
  decode to ``Atom`` objects that ``least_model()`` pays;
* a ``MaterializedModel`` maintains its model in the same storage.

Run with ``PYTHONPATH=src python examples/columnar_storage.py``.
"""

import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro.datalog import DatalogEngine, MaterializedModel
from repro.logic.builders import atom
from repro.logic.syntax import Atom
from repro.logic.terms import Parameter, Variable
from repro.workloads.generators import transitive_closure_program


def best_of(repeats, evaluate):
    """The best wall time of *repeats* fresh evaluations, in seconds."""
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        evaluate()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None or elapsed < best else best
    return best


def main():
    build = lambda: transitive_closure_program(chains=60, length=8)
    facts = len(build().facts)

    # -- identical to the oracle: model, statistics, answers -----------------
    oracle = DatalogEngine(build(), strategy="semi-naive")
    columnar_engine = DatalogEngine(build())
    oracle_model = oracle.least_model()
    columnar_model = columnar_engine.least_model()
    print(f"transitive closure: {facts} facts, "
          f"{len(columnar_model)} atoms in the least model")
    print(f"  model identical to the semi-naive oracle: {columnar_model == oracle_model}")
    print(f"  statistics identical: {columnar_engine.statistics == oracle.statistics}")
    goal = Atom("path", (Parameter("c0_n0"), Variable("y")))
    answers = lambda engine: sorted(b[goal.args[1]].name for b in engine.query(goal))
    print(f"  query answers identical: {answers(columnar_engine) == answers(oracle)}")

    # -- the interner: Parameter <-> dense id -------------------------------
    interner = columnar_engine.interner
    fact = atom("edge", "c0_n0", "c0_n1")
    key, row = interner.encode_atom(fact)
    print(f"  interned {fact} -> relation {key}, id row {row}")
    print(f"  decodes back: {interner.decode_row(key[0], row) == fact}")

    # -- the fixpoint without the decode ------------------------------------
    index_s = best_of(3, lambda: DatalogEngine(build()).least_index())
    model_s = best_of(3, lambda: DatalogEngine(build()).least_model())
    print(f"  best-of-3: least_index() {index_s * 1000:.1f} ms, "
          f"least_model() {model_s * 1000:.1f} ms (the difference is the decode)")

    # -- maintenance in the same storage -------------------------------------
    maintained = MaterializedModel(build())
    maintained.apply(insertions=[atom("edge", "c0_n8", "c1_n0")], deletions=[])
    print(f"  columnar MaterializedModel after an insert: "
          f"{maintained.holds(atom('path', 'c0_n0', 'c1_n8'))} "
          f"(path now crosses into chain 1)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
