"""Incremental view maintenance for the Datalog engine.

PR 2 made ``DatalogEngine.least_model()`` fast; this module makes it
*updatable*.  A :class:`MaterializedModel` wraps an engine and keeps the
materialized least model consistent under batches of EDB insertions **and
deletions** at delta cost, instead of re-running the fixpoint:

* **counting** (non-recursive predicates) — every fact carries the number of
  distinct derivations supporting it (EDB membership counts as one).  The
  semi-naive non-duplicating decomposition enumerates each derivation exactly
  once, so insertions increment and deletions decrement counts exactly; a
  fact disappears precisely when its count reaches zero.  Because a
  non-recursive strongly connected component is a single predicate that never
  occurs in its own rule bodies, one maintenance round per component
  suffices.
* **DRed** (recursive components) — counting is unsound under recursion (a
  cycle of facts can keep itself alive), so recursive components use
  delete-and-rederive: *overdelete* everything whose derivation touches a
  deleted fact, *rederive* the overdeleted facts that still have an
  alternative derivation (or are EDB facts), then propagate insertions
  semi-naively.

Components are maintained in dependency order (the same Tarjan condensation
the engine's stratifier uses), so stratified negation falls out naturally:
by the time a component is processed, the predicates it negates are final,
and a *deletion* below can insert above (``not q`` became true) while an
*insertion* below can delete above — both directions are driven off the same
per-literal "support changed" notion.

The derivation-counting passes evaluate rule bodies with the engine's
positional source discipline generalised to mixed insert/delete deltas:
for a pass whose *delta position* is body literal *i*, literals before *i*
must have **unchanged** support and literals after *i* are unrestricted;
increment passes evaluate in the new database and decrement passes in the
old one.  A derivation whose status changed is then enumerated exactly once
— at its first changed body position — which is what keeps the counts exact.

``apply(insertions, deletions)`` also updates ``program.facts`` (a
:class:`~repro.datalog.program.FactList`, keyed by atom, so the update
costs O(batch)) so the wrapped engine, the materialized index and the
program never disagree, and the maintained model is what a subsequent
``engine.least_model()`` returns without a fixpoint.
:meth:`MaterializedModel.peek` answers "what would the model be if this
batch were applied?" without leaving any trace — the safe way for
transaction previews to look at pending state.

The maintenance joins are planned like the engine's: the per-batch passes
(and the initial counting fixpoint) order their body literals greedily by
observed bucket-size histograms
(:class:`~repro.datalog.stats.JoinStatistics`) instead of textual order.
The histograms are snapshotted only while the model is
(re)built, once per build round; every batch afterwards folds its net
index changes into them (:meth:`JoinStatistics.update
<repro.datalog.stats.JoinStatistics.update>`), so they always equal a fresh
snapshot of the index while costing O(batch + touched buckets).  Together
with the keyed fact list this makes ``apply``, ``peek``, ``query`` and
``holds`` independent of the size of the database.
"""

from collections import defaultdict
from dataclasses import dataclass

from repro.datalog.analyze import strongly_connected_components
from repro.datalog.columnar import ColumnarFactIndex, decode_world
from repro.datalog.engine import (
    DatalogEngine,
    _head_atom,
    _ground_negative,
    _match,
)
from repro.datalog.index import FactIndex
from repro.datalog.program import DatalogFact
from repro.datalog.stats import JoinStatistics
from repro.exceptions import ReproError
from repro.logic.syntax import Atom
from repro.logic.terms import Parameter


@dataclass
class MaintenanceStatistics:
    """Counters describing the maintenance work done so far.

    ``applies`` counts :meth:`MaterializedModel.apply` calls, ``rounds`` the
    within-component propagation rounds, ``delta_passes`` the executed
    delta-position join passes, ``facts_added`` / ``facts_removed`` the net
    model-level changes, ``overdeleted`` / ``rederived`` the DRed traffic,
    and ``rebuilds`` how often the model fell back to a full fixpoint
    (initial construction included).
    """

    applies: int = 0
    rounds: int = 0
    delta_passes: int = 0
    facts_added: int = 0
    facts_removed: int = 0
    overdeleted: int = 0
    rederived: int = 0
    rebuilds: int = 0


@dataclass(frozen=True)
class UpdateResult:
    """The net effect of one :meth:`MaterializedModel.apply` call.

    ``edb_added`` / ``edb_removed`` are the base-fact changes that actually
    took place (set semantics: re-inserting a present fact or deleting an
    absent one is a no-op), ``derived_added`` / ``derived_removed`` the
    resulting changes to the materialized model as a whole.
    """

    edb_added: frozenset
    edb_removed: frozenset
    derived_added: frozenset
    derived_removed: frozenset


class _Component:
    """One maintenance unit: a strongly connected component of the IDB
    dependency graph, its rules, and whether it needs DRed."""

    __slots__ = ("predicates", "rules", "recursive")

    def __init__(self, predicates, rules, recursive):
        self.predicates = predicates
        self.rules = rules
        self.recursive = recursive


def _as_ground_atom(value):
    if isinstance(value, DatalogFact):
        value = value.atom
    if not isinstance(value, Atom):
        raise ReproError(f"expected a ground atom or DatalogFact, got {value!r}")
    if any(not isinstance(arg, Parameter) for arg in value.args):
        raise ReproError(f"updates must be ground: {value}")
    return value


class MaterializedModel:
    """A continuously maintained least model of a Datalog program.

    Wraps a :class:`~repro.datalog.engine.DatalogEngine` of the ``indexed``
    strategy (a default one is built for a bare program; wrapping any other
    strategy raises ``ValueError``) and keeps the model of
    ``engine.program`` materialized in a
    :class:`~repro.datalog.columnar.ColumnarFactIndex` over the engine's
    interner — membership, DRed overdeletion/rederivation set algebra and
    the counting table are all keyed on interned id rows, while the
    maintenance joins run at the atom face through
    :meth:`~repro.datalog.columnar.ColumnarFactIndex.candidates`.  EDB
    updates arrive through :meth:`apply`; everything else (``model()``,
    ``holds()``, ``query()``) reads the maintained state.

    Changes that bypass :meth:`apply` are not maintained incrementally: if
    the program's rules or facts are mutated behind our back, the next
    access notices (the fact list's version stamp, a comparison of the
    rules) and falls back to a full rebuild.
    """

    def __init__(self, program_or_engine):
        if isinstance(program_or_engine, DatalogEngine):
            if program_or_engine.strategy != "indexed":
                raise ValueError(
                    "MaterializedModel maintains an indexed engine, not "
                    f"strategy={program_or_engine.strategy!r}"
                )
            self.engine = program_or_engine
        else:
            self.engine = DatalogEngine(program_or_engine)
        self._interner = self.engine.interner
        self.planner_statistics = JoinStatistics()
        self._maintenance_stats = None
        self.program = self.engine.program
        self.statistics = MaintenanceStatistics()
        self._index = None
        self._counts = None
        self._components = None
        self._kind = None
        self._world = None
        self._facts_version = None
        self._rules_key = None
        self.refresh()
        # From now on the engine's least_model() pulls from the maintained
        # state on a cache miss instead of re-running its fixpoint.
        self.engine._model_provider = self.model

    # -- public API ----------------------------------------------------------
    def model(self):
        """The maintained least model as an immutable
        :class:`~repro.semantics.worlds.World`.

        The world is decoded lazily from the fact index in one pass (seeding
        its per-predicate buckets as it goes) and cached until the next
        :meth:`apply`; it is also installed into the wrapped
        engine's cache, so ``engine.least_model()`` returns the same object
        without re-running the fixpoint.
        """
        self._ensure_consistent()
        if self._world is None:
            self._world = decode_world(self._index.store, self._interner)
            self.engine.install_model(self._world)
        return self._world

    def holds(self, atom):
        """Return True when the ground *atom* is in the maintained model —
        an index probe with no world construction (preceded, like every
        read, by the O(rules) staleness check of
        :meth:`_ensure_consistent`)."""
        self._ensure_consistent()
        return _as_ground_atom(atom) in self._index

    def query(self, atom, mode="materialized"):
        """Answer a goal *atom* against the maintained model; returns a
        :class:`~repro.datalog.engine.QueryResult` (a list of binding dicts
        plus counters).

        The default mode ``"materialized"`` probes the maintained index
        with the atom's bound arguments — already goal-directed,
        O(candidate bucket) with no evaluation at all.  Any other mode
        (``"auto"`` / ``"magic"`` / ``"full"``) is delegated to the wrapped
        engine's :meth:`~repro.datalog.engine.DatalogEngine.query`, e.g. to
        compare a magic-set evaluation against the maintained answer.
        """
        self._ensure_consistent()
        if mode != "materialized":
            return self.engine.query(atom, mode=mode)
        from repro.datalog.engine import QueryResult
        from repro.datalog.magic import adornment_of

        bound = [
            (position, arg)
            for position, arg in enumerate(atom.args)
            if isinstance(arg, Parameter)
        ]
        results = []
        touched = 0
        for fact in self._index.candidates(atom.predicate, len(atom.args), bound):
            touched += 1
            binding = _match(atom.args, fact.args, {})
            if binding is not None:
                results.append(binding)
        return QueryResult(
            results, goal=atom, mode="materialized",
            adornment=adornment_of(atom), facts_touched=touched,
        )

    def derivation_count(self, atom):
        """The number of derivations supporting *atom* (EDB membership
        counts as one).  Only meaningful for facts of non-recursive
        predicates — recursive components are maintained set-wise by DRed —
        and for extensional facts, where it is 1 or 0."""
        self._ensure_consistent()
        atom = _as_ground_atom(atom)
        key = (atom.predicate, len(atom.args))
        if self._kind.get(key) == "counting":
            return self._counts.get(self._interner.encode_atom(atom), 0)
        return 1 if atom in self._index else 0

    def apply(self, insertions=(), deletions=()):
        """Apply a batch of EDB insertions and deletions at delta cost.

        Both arguments are iterables of ground atoms (or
        :class:`~repro.datalog.program.DatalogFact`).  Set semantics: a fact
        both deleted and inserted in the same batch stays present, inserting
        a present fact and deleting an absent one are no-ops.
        ``program.facts`` is updated to match (deleted atoms lose every
        occurrence, inserted ones are appended in sorted order), so the
        program remains the single source of truth.  Returns an
        :class:`UpdateResult`.
        """
        self._ensure_consistent()
        edb_added, edb_removed = self._net_change(insertions, deletions)
        self.statistics.applies += 1
        derived_added, derived_removed = self._maintain(edb_added, edb_removed)
        facts = self.program.facts
        for atom in edb_removed:
            facts.discard(atom)
        for atom in sorted(
            edb_added, key=lambda a: (a.predicate, tuple(p.name for p in a.args))
        ):
            facts.append(DatalogFact(atom))
        self._facts_version = facts.version
        return UpdateResult(
            frozenset(edb_added),
            frozenset(edb_removed),
            frozenset(derived_added),
            frozenset(derived_removed),
        )

    def peek(self, insertions=(), deletions=(), reader=None):
        """Return the :class:`~repro.semantics.worlds.World` the model would
        have if the batch were applied — without changing anything.

        Implemented as maintenance of the batch + maintenance of its exact
        inverse (counting is integer-exact, DRed is set-exact and the
        planner statistics follow the index, so the round trip restores the
        state bit-for-bit); ``program.facts`` is never touched, and
        :attr:`statistics` is swapped out around the round trip, so not even
        the maintenance counters record the peek.  This is the API
        transaction previews should use: a peek can never poison the
        maintained state or the engine's cache.

        Building a :class:`World` materializes the whole model — O(model)
        even for a one-fact batch.  Callers that only need to probe a few
        predicates (the violation view's commit-time preview) pass a
        ``reader`` callable instead: it receives this model while the batch
        is applied and its return value becomes the peek's result, keeping
        the whole round trip O(delta + touched buckets).  The reader must
        not mutate the model.
        """
        self._ensure_consistent()
        edb_added, edb_removed = self._net_change(insertions, deletions)
        saved_statistics = self.statistics
        self.statistics = MaintenanceStatistics()
        try:
            self._maintain(edb_added, edb_removed)
            try:
                if reader is None:
                    return decode_world(self._index.store, self._interner)
                return reader(self)
            finally:
                self._maintain(edb_removed, edb_added)
        finally:
            self.statistics = saved_statistics

    def refresh(self):
        """Rebuild the materialized state from scratch (full fixpoint with
        derivation counting).  Called on construction and whenever the
        program was mutated other than through :meth:`apply`."""
        self.statistics.rebuilds += 1
        # Let the wrapped engine's static analyzer see the (possibly
        # mutated) program once per rebuild: diagnostics land on
        # ``engine.diagnostics`` and a strict engine rejects a defective
        # program before any maintenance state is built.  Maintenance
        # itself works from the full rule set — never-fire rules cost
        # nothing here (their joins are vacuous) and the maintained model
        # is identical either way.
        self.engine.ensure_checked()
        self._analyze()
        facts = self.program.facts
        edb = list(facts.atoms())
        self._index = ColumnarFactIndex(edb, interner=self._interner)
        self._counts = defaultdict(int)
        encode = self._interner.encode_atom
        for atom in edb:
            if self._kind.get((atom.predicate, len(atom.args))) == "counting":
                self._counts[encode(atom)] += 1
        self._refresh_planner_stats()
        for component in self._components:
            self._build_component(component)
        self._world = None
        self._facts_version = facts.version
        self._rules_key = tuple(self.program.rules)

    def metrics(self):
        """The maintenance counters as a flat ``maintenance.*`` snapshot
        (same shape as :meth:`DatalogEngine.metrics`); read at call time
        from :attr:`statistics`, which stays a plain dataclass."""
        from dataclasses import asdict

        return {
            f"maintenance.{name}": value
            for name, value in sorted(asdict(self.statistics).items())
        }

    def __contains__(self, atom):
        return self.holds(atom)

    def __len__(self):
        self._ensure_consistent()
        return len(self._index)

    def __repr__(self):
        return (
            f"MaterializedModel({len(self._index)} facts, "
            f"{len(self._components)} components, "
            f"{self.statistics.applies} applies)"
        )

    def _refresh_planner_stats(self):
        """Re-snapshot the maintenance planner's histograms from the live
        index — O(distinct values), so only the (re)build calls it, once per
        build round; the snapshot also invalidates the cached maintenance
        schedules, which were ordered against the previous one."""
        self._schedules = {}
        self._maintenance_stats = self.planner_statistics.refresh(self._index)

    # -- program analysis ------------------------------------------------------
    def _analyze(self):
        """Group the IDB into strongly connected components (dependency
        order), tag each as counting or DRed, and map predicates to kinds."""
        program = self.program
        idb = program.idb_predicates()
        successors = {key: set() for key in idb}
        for rule in program.rules:
            head_key = (rule.head.predicate, rule.head.arity)
            for literal in rule.body:
                body_key = (literal.atom.predicate, literal.atom.arity)
                if body_key in idb:
                    successors[head_key].add(body_key)
        components, _ = strongly_connected_components(idb, successors)
        rules_for = defaultdict(list)
        for rule in program.rules:
            rules_for[(rule.head.predicate, rule.head.arity)].append(rule)
        self._components = []
        self._kind = {}
        for member_set in components:
            recursive = len(member_set) > 1 or any(
                key in successors[key] for key in member_set
            )
            rules = [rule for key in member_set for rule in rules_for[key]]
            self._components.append(_Component(member_set, rules, recursive))
            for key in member_set:
                self._kind[key] = "dred" if recursive else "counting"

    def _ensure_consistent(self):
        """Fall back to a full rebuild when the program was mutated outside
        :meth:`apply`: the fact list's version stamp moved (or the list was
        replaced) or the rules differ.  O(rules), independent of the
        facts."""
        if (
            self._facts_version != self.program.facts.version
            or self._rules_key != tuple(self.program.rules)
        ):
            self.refresh()

    def _net_change(self, insertions, deletions):
        """Validate a batch and reduce it to its net EDB change ``(added,
        removed)`` against ``program.facts`` (set semantics)."""
        facts = self.program.facts
        insertions = {_as_ground_atom(a) for a in insertions}
        deletions = {_as_ground_atom(a) for a in deletions}
        added = {atom for atom in insertions if atom not in facts}
        removed = {atom for atom in deletions - insertions if atom in facts}
        return added, removed

    def _maintain(self, edb_added, edb_removed):
        """Bring the index, the counts and the planner statistics to the
        model of the EDB changed by ``(edb_added, edb_removed)``, which
        ``program.facts`` may or may not reflect yet; returns the net
        derived ``(added, removed)``.  An empty change is a no-op."""
        if not edb_added and not edb_removed:
            return set(), set()
        with self.engine.tracer.span(
            "maintenance.batch",
            insertions=len(edb_added),
            deletions=len(edb_removed),
        ) as span:
            derived_added, derived_removed = self._propagate(edb_added, edb_removed)
            span.annotate(
                facts_added=len(derived_added), facts_removed=len(derived_removed)
            )
        self._world = None
        self.engine._model = None  # stale until model() reinstalls
        self.statistics.facts_added += len(derived_added)
        self.statistics.facts_removed += len(derived_removed)
        return derived_added, derived_removed

    # -- initial (counting) fixpoint -------------------------------------------
    def _build_component(self, component):
        """Run the component's fixpoint over the shared index, counting every
        derivation for counting components.  The engine's non-duplicating
        delta discipline guarantees each derivation is enumerated exactly
        once across the whole fixpoint, so the counts come out exact.  The
        counts are keyed on interned ``((predicate, arity), id-row)`` pairs,
        so the counting table never pins decoded atoms."""
        if not component.rules:
            return
        engine = self.engine
        counting = not component.recursive
        encode = self._interner.encode_atom
        delta = None
        first_round = True
        while True:
            # The observed bucket shapes of the growing index feed the build
            # joins, exactly as in the engine's own fixpoint (re-snapshotted
            # after every round's growth below).
            stats = self._maintenance_stats
            new_facts = set()
            for rule in component.rules:
                if first_round:
                    schedule = engine._schedule(rule, stats=stats)
                    for derived in engine._indexed_join(
                        rule, schedule, self._index, None, {}, 0
                    ):
                        if counting:
                            self._counts[encode(derived)] += 1
                        if derived not in self._index:
                            new_facts.add(derived)
                    continue
                for position, literal in enumerate(rule.body):
                    if not literal.positive:
                        continue
                    if not delta.count(literal.atom.predicate, len(literal.atom.args)):
                        continue
                    schedule = engine._schedule(
                        rule, delta_position=position, stats=stats
                    )
                    for derived in engine._indexed_join(
                        rule, schedule, self._index, delta, {}, 0
                    ):
                        if counting:
                            self._counts[encode(derived)] += 1
                        if derived not in self._index:
                            new_facts.add(derived)
            if not new_facts:
                return
            delta = FactIndex(new_facts)
            self._index.absorb(delta)
            self._refresh_planner_stats()
            first_round = False

    # -- delta propagation ------------------------------------------------------
    def _propagate(self, edb_added, edb_removed):
        """Push an EDB delta through every component in dependency order.

        ``acc_plus`` / ``acc_minus`` accumulate all changes applied so far
        (EDB and lower components); each component sees them as its round-one
        delta and contributes its own net changes for the components above.
        Returns the net (added, removed) over the whole model.

        The maintenance passes of every component order their joins against
        the pre-batch histograms (deltas are tiny next to the index, so
        mid-batch drift is noise); the batch's net changes are folded into
        them at the end, which invalidates the cached schedules.
        """
        acc_plus = FactIndex()
        acc_minus = FactIndex()
        idb = self._kind
        # EDB changes for purely extensional predicates take effect
        # immediately; EDB changes for IDB predicates are handed to the
        # owning component (base-count / DRed-seed semantics).
        pending_plus = defaultdict(set)
        pending_minus = defaultdict(set)
        for atom in edb_added:
            key = (atom.predicate, len(atom.args))
            if key in idb:
                pending_plus[key].add(atom)
            elif self._index.add(atom):
                acc_plus.add(atom)
        for atom in edb_removed:
            key = (atom.predicate, len(atom.args))
            if key in idb:
                pending_minus[key].add(atom)
            elif self._index.discard(atom):
                acc_minus.add(atom)

        for component in self._components:
            own_plus = set()
            own_minus = set()
            for key in component.predicates:
                own_plus |= pending_plus.get(key, set())
                own_minus |= pending_minus.get(key, set())
            if not (own_plus or own_minus) and not self._relevant(
                component, acc_plus, acc_minus
            ):
                continue  # nothing below changed what its rules read
            if component.recursive:
                added, removed = self._maintain_dred(
                    component, acc_plus, acc_minus, own_plus, own_minus
                )
            else:
                added, removed = self._maintain_counting(
                    component, acc_plus, acc_minus, own_plus, own_minus
                )
            acc_plus.add_all(added)
            acc_minus.add_all(removed)
        if acc_plus or acc_minus:
            self._maintenance_stats.update(self._index, acc_plus, acc_minus)
            self._schedules = {}
        return set(acc_plus) - set(edb_added), set(acc_minus) - set(edb_removed)

    def _relevant(self, component, dplus, dminus):
        """True when the round delta can touch any rule body of the
        component (either polarity of any literal)."""
        for rule in component.rules:
            for literal in rule.body:
                key = (literal.atom.predicate, len(literal.atom.args))
                if dplus.count(*key) or dminus.count(*key):
                    return True
        return False

    def _maintain_counting(self, component, acc_plus, acc_minus, edb_plus, edb_minus):
        """Counting maintenance for a non-recursive component.

        Adjust base counts for the component's own EDB changes, fold the
        resulting presence transitions into the round-one delta together with
        everything accumulated below, run one set of increment/decrement
        passes, and turn count transitions into index updates.  (The loop is
        written generically, but a non-recursive component never feeds its
        own rule bodies, so it always terminates after the second round.)
        """
        added_net = set()
        removed_net = set()
        encode = self._interner.encode_atom
        born, died = set(), set()
        for atom in edb_plus:
            key = encode(atom)
            self._counts[key] += 1
            if self._counts[key] == 1:
                born.add(atom)
        for atom in edb_minus:
            key = encode(atom)
            self._counts[key] -= 1
            if self._counts[key] <= 0:
                died.add(atom)
        dplus = FactIndex(iter(acc_plus))
        dminus = FactIndex(iter(acc_minus))
        self._transition(born, died, dplus, dminus, added_net, removed_net)
        while (dplus or dminus) and self._relevant(component, dplus, dminus):
            self.statistics.rounds += 1
            touched = set()
            for rule in component.rules:
                for position, literal in enumerate(rule.body):
                    key = (literal.atom.predicate, len(literal.atom.args))
                    added_support = dplus if literal.positive else dminus
                    removed_support = dminus if literal.positive else dplus
                    if added_support.count(*key):
                        self.statistics.delta_passes += 1
                        schedule = self._maintenance_schedule(rule, position)
                        for derived in self._pass_join(
                            rule, schedule, "increment", dplus, dminus, {}, 0
                        ):
                            self._counts[encode(derived)] += 1
                            touched.add(derived)
                    if removed_support.count(*key):
                        self.statistics.delta_passes += 1
                        schedule = self._maintenance_schedule(rule, position)
                        for derived in self._pass_join(
                            rule, schedule, "decrement", dplus, dminus, {}, 0
                        ):
                            self._counts[encode(derived)] -= 1
                            touched.add(derived)
            born = {f for f in touched
                    if self._counts[encode(f)] > 0 and f not in self._index}
            died = {f for f in touched
                    if self._counts[encode(f)] <= 0 and f in self._index}
            dplus, dminus = FactIndex(), FactIndex()
            self._transition(born, died, dplus, dminus, added_net, removed_net)
        return added_net, removed_net

    def _transition(self, born, died, dplus, dminus, added_net, removed_net):
        """Apply presence transitions to the index, record them as the next
        round's delta, and fold them into the component's net change."""
        for fact in born:
            if self._index.add(fact):
                dplus.add(fact)
                if fact in removed_net:
                    removed_net.discard(fact)
                else:
                    added_net.add(fact)
        for fact in died:
            key = self._interner.encode_atom(fact)
            if self._counts.get(key, 0) <= 0:
                self._counts.pop(key, None)
            if self._index.discard(fact):
                dminus.add(fact)
                if fact in added_net:
                    added_net.discard(fact)
                else:
                    removed_net.add(fact)

    def _maintain_dred(self, component, acc_plus, acc_minus, edb_plus, edb_minus):
        """Delete-and-rederive maintenance for a recursive component.

        1. *Overdelete*: remove every component fact with a derivation that
           touches removed support (deleted positive facts, inserted negated
           facts), cascading within the component.
        2. *Rederive*: restore overdeleted facts that are still EDB facts or
           have a derivation from the surviving database.
        3. *Insert*: propagate added support (inserted facts, deleted negated
           facts, rederived facts) semi-naively to a fixpoint.
        """
        added_net = set()
        removed_net = set()
        empty = FactIndex()

        # Phase 1 — overdeletion.
        overdeleted = set()
        seed_minus = FactIndex()
        for atom in edb_minus:
            if self._index.discard(atom):
                seed_minus.add(atom)
                overdeleted.add(atom)
        # acc_plus is only read during overdeletion — no copy needed.
        dplus, dminus = acc_plus, FactIndex(iter(acc_minus))
        dminus.absorb(seed_minus)
        while (dplus or dminus) and self._relevant(component, dplus, dminus):
            self.statistics.rounds += 1
            doomed = set()
            for rule in component.rules:
                for position, literal in enumerate(rule.body):
                    key = (literal.atom.predicate, len(literal.atom.args))
                    removed_support = dminus if literal.positive else dplus
                    if not removed_support.count(*key):
                        continue
                    self.statistics.delta_passes += 1
                    schedule = self._maintenance_schedule(rule, position)
                    for derived in self._pass_join(
                        rule, schedule, "decrement", dplus, dminus, {}, 0
                    ):
                        if derived in self._index:
                            doomed.add(derived)
            # Every doomed fact was checked present while the index was
            # round-stable, so the whole round delta subtracts bucket-wise.
            dplus, dminus = empty, FactIndex(doomed)
            self._index.retract_all(dminus)
            overdeleted |= doomed
        self.statistics.overdeleted += len(overdeleted)

        # Phase 2 — rederivation (one sweep; phase 3 propagates the rest).
        # A fact is in the new EDB when the batch inserts it, or when the
        # program holds it and the batch does not delete it — true whether
        # or not program.facts has caught up with the batch yet.
        facts = self.program.facts
        rederived = set()
        for fact in overdeleted:
            if (
                fact in edb_plus
                or (fact not in edb_minus and fact in facts)
                or self._derivable(component, fact)
            ):
                self._index.add(fact)
                rederived.add(fact)
        self.statistics.rederived += len(rederived)
        for fact in overdeleted - rederived:
            removed_net.add(fact)

        # Phase 3 — insertion (acc_minus is only read — no copy needed).
        dplus, dminus = FactIndex(iter(acc_plus)), acc_minus
        for atom in edb_plus:
            if self._index.add(atom):
                dplus.add(atom)
                added_net.add(atom)
        dplus.add_all(rederived)
        while (dplus or dminus) and self._relevant(component, dplus, dminus):
            self.statistics.rounds += 1
            fresh = set()
            for rule in component.rules:
                for position, literal in enumerate(rule.body):
                    key = (literal.atom.predicate, len(literal.atom.args))
                    added_support = dplus if literal.positive else dminus
                    if not added_support.count(*key):
                        continue
                    self.statistics.delta_passes += 1
                    schedule = self._maintenance_schedule(rule, position)
                    for derived in self._pass_join(
                        rule, schedule, "increment", dplus, dminus, {}, 0
                    ):
                        if derived not in self._index:
                            fresh.add(derived)
            # fresh is disjoint from the index by construction — merge the
            # whole round delta bucket-wise.
            dplus, dminus = FactIndex(fresh), empty
            self._index.absorb(dplus)
            for fact in fresh:
                if fact in removed_net:
                    removed_net.discard(fact)
                else:
                    added_net.add(fact)
        return added_net, removed_net

    def _derivable(self, component, fact):
        """True when some rule of the component derives *fact* from the
        current index (used by DRed rederivation): unify the head, then
        evaluate the body goal-directed against the index."""
        for rule in component.rules:
            if rule.head.predicate != fact.predicate or rule.head.arity != len(fact.args):
                continue
            binding = _match(rule.head.args, fact.args, {})
            if binding is None:
                continue
            schedule = self._maintenance_schedule(rule, None)
            for _ in self._pass_join(rule, schedule, "current", None, None, binding, 0):
                return True
        return False

    # -- maintenance joins ------------------------------------------------------
    def _maintenance_schedule(self, rule, delta_position):
        """Order a rule body for a maintenance pass.

        Returns ``(literal, role)`` pairs where the role is ``"delta"`` (the
        literal whose support changed — evaluated first, enumerating the
        delta), ``"before"`` (textually before the delta position: support
        must be *unchanged*, which is what makes each changed derivation
        count exactly once) or ``"after"`` (unrestricted).  The positive
        non-delta literals are greedily reordered by estimated selectivity
        against the current :class:`~repro.datalog.stats.JoinStatistics`
        snapshot (roles stay attached to their *textual* positions, so the
        enumerated derivation set is unchanged — only the join order).
        Negative non-delta literals are
        deferred until the prefix binds their variables, exactly as in the
        engine's scheduler.  Schedules are cached per
        ``(rule, delta_position)`` and invalidated whenever the histograms
        change: every (re)build round and every batch that changed the
        index.
        """
        cached = self._schedules.get((rule, delta_position))
        if cached is not None:
            return cached
        stats = self._maintenance_stats

        def role_for(position):
            if delta_position is None or position == delta_position:
                return "after"
            return "before" if position < delta_position else "after"

        schedule = []
        bound = set()
        pending_negative = [
            (i, l) for i, l in enumerate(rule.body) if not l.positive and i != delta_position
        ]
        positives = [
            (i, l) for i, l in enumerate(rule.body) if l.positive and i != delta_position
        ]
        if delta_position is not None:
            literal = rule.body[delta_position]
            schedule.append((literal, "delta"))
            bound |= literal.variables()

        def emit_ready_negatives():
            for entry in list(pending_negative):
                position, literal = entry
                if literal.variables() <= bound:
                    schedule.append((literal, role_for(position)))
                    pending_negative.remove(entry)

        emit_ready_negatives()
        while positives:
            choice = 0
            best_score = None
            for slot, (_, literal) in enumerate(positives):
                atom = literal.atom
                bound_positions = [
                    p
                    for p, arg in enumerate(atom.args)
                    if isinstance(arg, Parameter) or arg in bound
                ]
                estimate = stats.selectivity(
                    atom.predicate, len(atom.args), bound_positions
                )
                score = (0 if bound_positions else 1, estimate)
                if best_score is None or score < best_score:
                    best_score, choice = score, slot
            position, literal = positives.pop(choice)
            schedule.append((literal, role_for(position)))
            bound |= literal.variables()
            emit_ready_negatives()
        self._schedules[(rule, delta_position)] = schedule
        return schedule

    def _pass_join(self, rule, schedule, mode, dplus, dminus, binding, position):
        """Evaluate a maintenance schedule, yielding one head atom per
        derivation whose status changed.

        ``mode="increment"`` evaluates in the new database (the index),
        ``mode="decrement"`` in the old one (the index with the round delta
        undone), ``mode="current"`` in the index with no delta at all (DRed
        rederivation).  The role tags implement the first-changed-position
        discipline documented on :meth:`_maintenance_schedule`.
        """
        if position == len(schedule):
            yield _head_atom(rule, binding)
            return
        literal, role = schedule[position]
        atom = literal.atom
        arity = len(atom.args)
        if literal.positive or role == "delta":
            bound_arguments = []
            for argument_position, arg in enumerate(atom.args):
                if isinstance(arg, Parameter):
                    bound_arguments.append((argument_position, arg))
                else:
                    value = binding.get(arg)
                    if value is not None:
                        bound_arguments.append((argument_position, value))
            for fact in self._pass_candidates(
                atom.predicate, arity, bound_arguments, literal.positive, role, mode,
                dplus, dminus,
            ):
                extended = _match(atom.args, fact.args, binding)
                if extended is not None:
                    yield from self._pass_join(
                        rule, schedule, mode, dplus, dminus, extended, position + 1
                    )
        else:
            candidate = _ground_negative(literal, binding)
            if self._negative_holds(candidate, role, mode, dplus, dminus):
                yield from self._pass_join(
                    rule, schedule, mode, dplus, dminus, binding, position + 1
                )

    def _pass_candidates(self, predicate, arity, bound, positive, role, mode, dplus, dminus):
        """Enumerate the facts a maintenance join step may match.

        The evaluation database is the index for increment passes and the
        index with the round delta undone (minus ``dplus``, plus ``dminus``)
        for decrement passes; ``"before"`` roles additionally exclude the
        literal's own changed support.  A *negated* delta literal enumerates
        the opposite delta: its support was added by a deletion and removed
        by an insertion.
        """
        if role == "delta":
            if positive:
                source = dplus if mode == "increment" else dminus
            else:
                source = dminus if mode == "increment" else dplus
            yield from source.candidates(predicate, arity, bound)
            return
        if mode == "current":
            yield from self._index.candidates(predicate, arity, bound)
            return
        if mode == "increment":
            if role == "before" and dplus.count(predicate, arity):
                for fact in self._index.candidates(predicate, arity, bound):
                    if fact not in dplus:
                        yield fact
            else:
                yield from self._index.candidates(predicate, arity, bound)
            return
        # decrement: old database = (index - dplus) + dminus
        if dplus.count(predicate, arity):
            for fact in self._index.candidates(predicate, arity, bound):
                if fact not in dplus:
                    yield fact
        else:
            yield from self._index.candidates(predicate, arity, bound)
        if role == "after":
            yield from dminus.candidates(predicate, arity, bound)

    def _negative_holds(self, candidate, role, mode, dplus, dminus):
        """Was/is the negated literal satisfied in the pass's evaluation
        database (with unchanged support when the role demands it)?"""
        if mode == "current":
            return candidate not in self._index
        if mode == "increment":
            if role == "before":
                return candidate not in self._index and candidate not in dminus
            return candidate not in self._index
        # decrement: satisfied in the old database ...
        in_old = (candidate not in self._index or candidate in dplus) and (
            candidate not in dminus
        )
        if role == "before":
            # ... with unchanged support (not inserted this round either).
            return in_old and candidate not in dplus
        return in_old
