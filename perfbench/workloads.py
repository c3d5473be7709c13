"""The three benchmark workloads, driven through the public API only.

Each workload class takes a seed and a size, generates its inputs with the
``repro.workloads`` generators (input generation is not part of set-up
time), builds the program state in :meth:`setup` (and drops it again in
:meth:`release`, so set-up can be timed several times), and hands out
operations one at a time through :meth:`prepare`.  ``prepare(kind)`` returns
``(call, check)``: ``call()`` is the timed call into the program and
``check(result)`` is the untimed output oracle, which also advances the
harness's own record of what the database should hold.  A check returns
``None`` when the output is right and a short reason when it is wrong.  A
third element, when present, names the operation's latency stratum (see
``run.Latencies``).

Every workload draws its operation types round-robin (``KINDS`` order), so
each type sees the same machine phases.  See ``NOTES.md`` for why each
workload exists and how big it is.
"""

import random
import re
from collections import deque

from repro.datalog.program import DatalogLiteral, DatalogRule
from repro.db.database import EpistemicDatabase
from repro.logic.parser import parse_many
from repro.logic.syntax import Atom
from repro.logic.terms import Parameter, Variable
from repro.workloads import (
    SECTION1_QUERIES,
    hr_constraints,
    hr_facts,
    hr_group,
    iterated_revision_stream,
    transitive_closure_program,
)
from repro.workloads.university import UNIVERSITY_TEXT

class HrWrite:
    """``hr_write``: the scaled HR database (``hr_facts``) under the four
    ``hr_constraints`` with incremental checking, one non-recursive
    ``DatalogView`` and a belief revisor.

    The employee population is split so that no two operation types ever
    touch the same entity and every operation is accepted: gender flips
    (``revise``) and extra ``ss`` facts (``tell``/``retract``) go to the
    first half, departures (``commit``) come from the second half and from
    earlier hires, hires get fresh indices."""

    name = "hr_write"
    KINDS = ("tell", "retract", "commit", "revise", "query")
    warmup_cycles = 1

    def __init__(self, seed, size="full"):
        self.employees = 10000 if size == "full" else 200
        self.rng = random.Random(seed)
        self.facts = hr_facts(self.employees)
        half = self.employees // 2
        self.stable = list(range(half))
        departures = list(range(half, self.employees))
        self.rng.shuffle(departures)
        self.departures = deque(departures)
        self.revisions = iterated_revision_stream(
            entities=half, steps=10**9, seed=seed, conflict_ratio=1.0
        )
        self.next_hire = self.employees
        self.next_value = 0
        self.told = deque()
        # The harness's own record of who works where: live employees in a
        # list for O(1) random choice, with their positions for O(1) removal.
        self.live = list(range(self.employees))
        self.position = {index: index for index in self.live}
        x, d = Variable("x"), Variable("d")
        self.rule = DatalogRule(
            Atom("assigned", (x, d)),
            (DatalogLiteral(Atom("emp", (x,))), DatalogLiteral(Atom("works_in", (x, d)))),
        )
        self.db = self.view = self.revisor = None

    def setup(self, tracer=None):
        self.db = EpistemicDatabase(
            self.facts, constraints=hr_constraints(),
            constraint_checking="incremental", tracer=tracer,
        )
        self.db.violation_view()
        self.view = self.db.datalog_view(rules=[self.rule])
        self.revisor = self.db.revision()

    def release(self):
        self.db = self.view = self.revisor = None

    def models(self):
        return [self.db.violation_view().materialized, self.view.materialized]

    def set_tracer(self, tracer):
        self.db.tracer = tracer
        for model in self.models():
            model.engine.tracer = tracer

    def prepare(self, kind):
        return getattr(self, "_" + kind)()

    def _tell(self):
        employee = self.rng.choice(self.stable)
        fact = Atom("ss", (Parameter(f"E{employee}"), Parameter(f"Y{self.next_value}")))
        self.next_value += 1

        def check(report):
            if report is None or not report.satisfied:
                return "tell rejected"
            self.told.append(fact)
            return None

        return (lambda: self.db.tell(fact)), check

    def _retract(self):
        fact = self.told.popleft()

        def check(report):
            # None would mean the database did not hold the fact.
            if report is None or not report.satisfied:
                return "retract not applied"
            return None

        return (lambda: self.db.retract(fact)), check

    def _commit(self):
        hire = self.next_hire
        self.next_hire += 1
        leaver = self.departures.popleft()
        hired, left = hr_group(hire), hr_group(leaver)

        def call():
            transaction = self.db.transaction()
            for fact in hired:
                transaction.tell(fact)
            for fact in left:
                transaction.retract(fact)
            return transaction.commit()

        def check(report):
            if report is None or not report.satisfied:
                return "commit rejected"
            self._hire(hire)
            self._leave(leaver)
            self.departures.append(hire)
            return None

        return call, check

    def _revise(self):
        sentence, expected = next(self.revisions)

        def check(result):
            if tuple(result.additions) != (sentence,):
                return f"revise added {result.additions}"
            if tuple(result.retracted) != tuple(expected):
                return f"revise retracted {result.retracted}, expected {expected}"
            return None

        return (lambda: self.revisor.revise(sentence)), check

    def _query(self):
        employee = self.rng.choice(self.live)
        goal = f"assigned(E{employee}, ?d)"
        expected = {Parameter(f"D{employee % 10}")}

        def check(result):
            got = {binding[Variable("d")] for binding in result}
            return None if got == expected else f"{goal} gave {got}"

        return (lambda: self.view.query(goal)), check

    def _hire(self, index):
        self.position[index] = len(self.live)
        self.live.append(index)

    def _leave(self, index):
        slot = self.position.pop(index)
        last = self.live.pop()
        if last != index:
            self.live[slot] = last
            self.position[last] = slot


class TcView:
    """``tc_view``: transitive closure over 500 disjoint 20-edge chains in a
    columnar ``DatalogView``, no constraints.

    Chains 0–249 take the commits, chains 250–499 the shortcut edges, so
    the two never interfere.  Set-up starts with ``CUT`` chains already cut
    at their middle edge, so every commit has the same shape: cut one more
    chain and restore the one cut longest ago."""

    name = "tc_view"
    KINDS = ("commit", "tell", "retract", "query")
    warmup_cycles = 1
    CUT = 8
    SHORTCUT = (5, 15)

    def __init__(self, seed, size="full"):
        self.chains, self.length = (500, 20) if size == "full" else (40, 10)
        self.rng = random.Random(seed)
        program = transitive_closure_program(chains=self.chains, length=self.length, seed=seed)
        self.rules = list(program.rules)
        half = self.chains // 2
        cut_chains = self.rng.sample(range(half), self.CUT)
        cut = {self._mid_edge(chain) for chain in cut_chains}
        self.facts = [fact.atom for fact in program.facts if fact.atom not in cut]
        self.cut = deque(cut_chains)
        self.intact = sorted(set(range(half)) - set(cut_chains))
        self.free = list(range(half, self.chains))
        self.shortcuts = deque()
        # The harness's own edge set, as successor lists.
        self.successors = {}
        for fact in self.facts:
            self.successors.setdefault(fact.args[0], set()).add(fact.args[1])
        self.db = self.view = None

    def _node(self, chain, position):
        return Parameter(f"c{chain}_n{position}")

    def _mid_edge(self, chain):
        middle = self.length // 2
        return Atom("edge", (self._node(chain, middle), self._node(chain, middle + 1)))

    def setup(self, tracer=None):
        self.db = EpistemicDatabase(self.facts, tracer=tracer)
        self.view = self.db.datalog_view(rules=self.rules, storage="columnar")

    def release(self):
        self.db = self.view = None

    def models(self):
        return [self.view.materialized]

    def set_tracer(self, tracer):
        self.db.tracer = tracer
        self.view.engine.tracer = tracer

    def prepare(self, kind):
        return getattr(self, "_" + kind)()

    def _add(self, edge):
        self.successors.setdefault(edge.args[0], set()).add(edge.args[1])

    def _remove(self, edge):
        self.successors[edge.args[0]].discard(edge.args[1])

    def _commit(self):
        cut_chain = self.intact.pop(self.rng.randrange(len(self.intact)))
        restore_chain = self.cut.popleft()
        cut, restore = self._mid_edge(cut_chain), self._mid_edge(restore_chain)

        def call():
            transaction = self.db.transaction()
            transaction.retract(cut)
            transaction.tell(restore)
            return transaction.commit()

        def check(_):
            if self.view.holds(cut) or not self.view.holds(restore):
                return "commit not applied to the view"
            self._remove(cut)
            self._add(restore)
            self.cut.append(cut_chain)
            self.intact.append(restore_chain)
            return None

        return call, check

    def _tell(self):
        chain = self.free.pop(self.rng.randrange(len(self.free)))
        start, end = self.SHORTCUT
        edge = Atom("edge", (self._node(chain, start), self._node(chain, min(end, self.length))))

        def check(_):
            if not self.view.holds(edge):
                return "told edge missing from the view"
            self._add(edge)
            self.shortcuts.append((chain, edge))
            return None

        return (lambda: self.db.tell(edge)), check

    def _retract(self):
        chain, edge = self.shortcuts.popleft()

        def check(_):
            if self.view.holds(edge):
                return "retracted edge still in the view"
            self._remove(edge)
            self.free.append(chain)
            return None

        return (lambda: self.db.retract(edge)), check

    def _query(self):
        chain = self.rng.randrange(self.chains)
        source = self._node(chain, 0)
        goal = f"path({source.name}, ?y)"
        expected = self._reachable(source)

        def check(result):
            got = {binding[Variable("y")] for binding in result}
            return None if got == expected else f"{goal}: {len(got)} answers, expected {len(expected)}"

        return (lambda: self.view.query(goal)), check

    def _reachable(self, source):
        seen, frontier = set(), [source]
        while frontier:
            for successor in self.successors.get(frontier.pop(), ()):
                if successor not in seen:
                    seen.add(successor)
                    frontier.append(successor)
        return seen


_UNIVERSITY_NAMES = re.compile(r"\b(John|Math|CS|Mary|Psych|Sue)\b")


class UnivAsk:
    """``univ_ask``: the Section 1 university database copied ``copies``
    times with renamed constants, asked the paper's eleven Section 1
    queries for every copy (read-only).  The seed fixes the order in which
    the queries are asked."""

    name = "univ_ask"
    KINDS = ("ask",)

    def __init__(self, seed, size="full"):
        copies = 3 if size == "full" else 1
        self.rng = random.Random(seed)
        self.sentences = [
            sentence
            for copy in range(copies)
            for sentence in parse_many(self._rename(UNIVERSITY_TEXT, copy))
        ]
        self.queries = [
            (self._rename(text, copy), expected)
            for copy in range(copies)
            for text, _, expected in SECTION1_QUERIES
        ]
        self.rng.shuffle(self.queries)
        # Warm up with one pass over every query: the first answer to each
        # question fills the prover's caches, which users pay once per
        # database.
        self.warmup_cycles = len(self.queries)
        self.next_query = 0
        self.db = None

    @staticmethod
    def _rename(text, copy):
        return _UNIVERSITY_NAMES.sub(lambda match: f"{match.group(1)}_{copy}", text)

    def setup(self, tracer=None):
        self.db = EpistemicDatabase(self.sentences, tracer=tracer)
        # The reducer is built lazily by the first question; a trivial one
        # builds it here.  Every query's constants occur in the database, so
        # the reducer's universe covers them all and is never rebuilt.
        self.db.ask("true")

    def release(self):
        self.db = None

    def models(self):
        return []

    def set_tracer(self, tracer):
        self.db.tracer = tracer

    def prepare(self, kind):
        text, expected = self.queries[self.next_query]
        self.next_query = (self.next_query + 1) % len(self.queries)

        def check(answer):
            got = str(answer.status)
            return None if got == expected else f"{text}: {got}, expected {expected}"

        return (lambda: self.db.ask(text)), check, text



WORKLOADS = {workload.name: workload for workload in (HrWrite, TcView, UnivAsk)}
