#!/usr/bin/env python
"""Profile the indexed fixpoint or the database write path with cProfile.

By default, runs ``least_index()`` over a transitive-closure workload under
cProfile and prints the top cumulative-time frames — the quickest way to see
where a storage or join change actually spends its time before reaching for
the full benchmark matrix.  The hot frames should be the generated ``pass_``
join functions and ``RowStore`` absorption.

``--writes EMPLOYEES`` profiles the write path instead: round-robin
``tell`` / ``retract`` / ``commit`` / ``revise`` on ``hr_facts(EMPLOYEES)``
under the four HR constraints with incremental checking, one
``DatalogView`` and a belief revisor, for ``WRITE_CYCLES`` rounds.  Set-up
is not profiled.  The hot
frames are view maintenance (``_propagate`` and the kernels it runs) and
the constraint check around it.

Usage::

    python benchmarks/profile_hotspots.py
    python benchmarks/profile_hotspots.py --chains 400 --length 25 --top 30
    python benchmarks/profile_hotspots.py --sort tottime     # self time
    python benchmarks/profile_hotspots.py --writes 10000
"""

import argparse
import cProfile
import io
import pathlib
import pstats
import sys
from collections import deque

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.datalog import DatalogLiteral, DatalogRule  # noqa: E402
from repro.datalog.engine import DatalogEngine  # noqa: E402
from repro.db.database import EpistemicDatabase  # noqa: E402
from repro.logic.builders import atom  # noqa: E402
from repro.logic.syntax import Atom  # noqa: E402
from repro.logic.terms import Variable  # noqa: E402
from repro.workloads.constraints import (  # noqa: E402
    hr_constraints,
    hr_facts,
    hr_group,
    iterated_revision_stream,
)
from repro.workloads.generators import transitive_closure_program  # noqa: E402

# Rounds of one tell, retract, commit and revise each in ``--writes`` mode.
WRITE_CYCLES = 100


def _render(profiler, top, sort):
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.strip_dirs().sort_stats(sort).print_stats(top)
    return buffer.getvalue()


def profile_fixpoint(chains, length, top, sort):
    """Profile one fixpoint; returns (facts, derived, stats text)."""
    program = transitive_closure_program(chains=chains, length=length)
    engine = DatalogEngine(program)
    profiler = cProfile.Profile()
    profiler.enable()
    index = engine.least_index()
    profiler.disable()
    return len(program.facts), len(index), _render(profiler, top, sort)


def profile_writes(employees, top, sort):
    """Profile ``WRITE_CYCLES`` rounds of one accepted tell, retract,
    commit and revise each on the HR database; returns (facts, operations,
    stats text).

    Tells add a second ``ss`` value to a first-half employee and the
    retract takes it back; a commit hires a fresh employee and lets one
    from the second half (or an earlier hire) go; a revise flips a
    first-half employee's gender, which retracts the old one."""
    x, d = Variable("x"), Variable("d")
    assigned = DatalogRule(
        Atom("assigned", (x, d)),
        (DatalogLiteral(Atom("emp", (x,))), DatalogLiteral(Atom("works_in", (x, d)))),
    )
    facts = hr_facts(employees)
    database = EpistemicDatabase(
        facts, constraints=hr_constraints(), constraint_checking="incremental"
    )
    database.violation_view()
    database.datalog_view(rules=[assigned])
    revisor = database.revision()
    half = employees // 2
    revisions = iterated_revision_stream(entities=half, steps=WRITE_CYCLES, seed=0)
    departures = deque(range(half, employees))
    profiler = cProfile.Profile()
    profiler.enable()
    for cycle, (sentence, _) in enumerate(revisions):
        told = atom("ss", f"E{cycle % half}", f"Y{cycle}")
        database.tell(told)
        database.retract(told)
        hire, leaver = employees + cycle, departures.popleft()
        transaction = database.transaction()
        for fact in hr_group(hire):
            transaction.tell(fact)
        for fact in hr_group(leaver):
            transaction.retract(fact)
        transaction.commit()
        departures.append(hire)
        revisor.revise(sentence)
    profiler.disable()
    return len(facts), 4 * WRITE_CYCLES, _render(profiler, top, sort)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--chains", type=int, default=200)
    parser.add_argument("--length", type=int, default=25)
    parser.add_argument("--writes", type=int, metavar="EMPLOYEES",
                        help="profile the HR write path at this many "
                             "employees instead of the fixpoint")
    parser.add_argument("--top", type=int, default=25,
                        help="frames to print (default 25)")
    parser.add_argument("--sort", default="cumulative",
                        choices=("cumulative", "tottime", "ncalls"),
                        help="pstats sort key (default cumulative)")
    args = parser.parse_args(argv)

    if args.writes:
        facts, operations, rendered = profile_writes(
            args.writes, args.top, args.sort
        )
        banner = (
            f"hr_facts({args.writes}) writes  {facts} facts, {operations} "
            "tell/retract/commit/revise operations"
        )
    else:
        facts, derived, rendered = profile_fixpoint(
            args.chains, args.length, args.top, args.sort
        )
        banner = (
            f"transitive_closure(chains={args.chains}, length={args.length})  "
            f"{facts} facts -> {derived} in the fixpoint"
        )
    print("=" * len(banner))
    print(banner)
    print("=" * len(banner))
    print(rendered)
    return 0


if __name__ == "__main__":
    sys.exit(main())
