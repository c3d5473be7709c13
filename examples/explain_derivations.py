#!/usr/bin/env python
"""Observability end to end: traces, metrics, and "why?" answers.

One small deduction stack, instrumented three ways (see
``docs/observability.md``):

* **provenance** — ``DatalogEngine(provenance=True)`` records one
  rule-level derivation edge per derived fact; ``engine.explain(atom)``
  renders the derivation tree down to the EDB facts it rests on;
* **tracing** — a recording ``Tracer`` collects timed spans from the
  fixpoint rounds, join passes and transaction stages, exports them as
  JSON lines, and ``repro.obs`` summarizes them (the same table
  ``python -m repro.obs summarize trace.jsonl`` prints);
* **metrics** — ``engine.metrics()`` / ``db.metrics()`` snapshot the
  registries the statistics façades are backed by, and
  ``db.explain_rejection(error)`` turns a rejected batch into witnesses,
  supporting beliefs and entrenchment-ordered retraction candidates.

Run with ``PYTHONPATH=src python examples/explain_derivations.py``.
"""

import pathlib
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro.constraints.library import disjoint_properties
from repro.datalog import DatalogEngine
from repro.datalog.program import DatalogFact, DatalogLiteral, DatalogProgram, DatalogRule
from repro.db.database import ConstraintViolationError, EpistemicDatabase
from repro.logic.builders import atom as fol_atom
from repro.logic.terms import Parameter, Variable
from repro.obs.tracing import Tracer, read_trace, render_summary, summarize_trace
from repro.semantics.config import SemanticsConfig
from repro.semantics.worlds import Atom


def edge(a, b):
    return Atom("edge", (Parameter(a), Parameter(b)))


def tc_program(edges):
    x, y, z = Variable("X"), Variable("Y"), Variable("Z")
    return DatalogProgram(
        rules=(
            DatalogRule(Atom("path", (x, y)), (DatalogLiteral(Atom("edge", (x, y))),)),
            DatalogRule(Atom("path", (x, z)), (DatalogLiteral(Atom("edge", (x, y))),
                                               DatalogLiteral(Atom("path", (y, z))))),
        ),
        facts=tuple(DatalogFact(e) for e in edges),
    )


def main():
    # -- provenance: why is path(a, d) in the least model? ------------------
    program = tc_program([edge("a", "b"), edge("b", "c"), edge("c", "d")])
    engine = DatalogEngine(program, provenance=True)
    engine.least_model()
    goal = Atom("path", (Parameter("a"), Parameter("d")))
    print("why does the engine believe path(a, d)?")
    print(engine.explain(goal).render())

    # -- tracing: where did the time go? ------------------------------------
    tracer = Tracer()
    traced = DatalogEngine(tc_program([edge(f"n{i}", f"n{i+1}") for i in range(40)]),
                           tracer=tracer)
    traced.least_model()
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "trace.jsonl"
        written = tracer.export(path)
        entries = read_trace(path)
    print(f"\nrecorded {written} spans; summary (p50/p99 per span name):")
    print(render_summary(summarize_trace(entries)))

    # -- metrics: the registry behind the statistics facades ----------------
    snapshot = traced.metrics()
    engine_counters = {k: v for k, v in snapshot.items() if k.startswith("engine.")}
    print(f"engine.* metrics: {engine_counters}")

    # -- explain_rejection: why was this update refused? --------------------
    db = EpistemicDatabase(config=SemanticsConfig(extra_parameters=1))
    db.tell(fol_atom("male", "Sam"))
    db.add_constraint(disjoint_properties("male", "female"))
    try:
        db.tell(fol_atom("female", "Sam"))
    except ConstraintViolationError as error:
        print("\ntell female(Sam) was REJECTED; the explanation:")
        for explanation in db.explain_rejection(error):
            print(explanation.render())
    print(f"db metrics: {db.metrics()}")


if __name__ == "__main__":
    main()
