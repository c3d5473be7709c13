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
* **backward/forward** (recursive components; Motik, Nenov, Piro and
  Horrocks, AAAI 2015) — counting is unsound under recursion (a cycle of
  facts can keep itself alive), so a fact that loses a derivation becomes
  a deletion *candidate*, and a backward check looks for a derivation of
  it from facts that are still *proved*.  Only disproved facts are deleted
  and propagated forward as the next round's candidates, so a fact with
  an alternative derivation is never deleted and nothing is rederived;
  insertions then propagate semi-naively.

Components are maintained in dependency order (the same Tarjan condensation
the engine's stratifier uses), so stratified negation falls out naturally:
by the time a component is processed, the predicates it negates are final,
and a *deletion* below can insert above (``not q`` became true) while an
*insertion* below can delete above — both directions are driven off the same
per-literal "support changed" notion.

Every join is the engine's: the engine's id-space fixpoint builds the
model (:meth:`DatalogEngine.least_index
<repro.datalog.engine.DatalogEngine.least_index>`), its one planner
(``DatalogEngine._schedule``) orders every maintenance pass by the
statistics the index's relations keep live
(:meth:`RowStore.selectivity <repro.datalog.columnar.RowStore.selectivity>`),
and its generated kernels (:func:`~repro.datalog.columnar.compile_schedule`)
run them over interned id rows.  Every pass runs in the current (new)
database as ``kernel(index, plus, minus, out)``, *plus* and *minus* being
what the write added to and removed from it; a pass whose *delta
position* is body literal *i* enumerates literal *i* from the delta (a
negated literal's support is gained by a deletion and lost by an
insertion).  Where a pass must see the database before the write, it
reads a relation's old state as an overlay — its rows not in *plus*,
plus its rows in *minus* — and never writes it.  A counting component
runs the telescoped delta of the counting algorithm (Gupta, Mumick and
Subrahmanian, SIGMOD 1993): literals before *i* read the new state,
literals after it the old state, and the delta literal's gained support
counts ``+1`` and its lost support ``-1`` (``"signed"`` kernels), so one
pass per changed literal yields each head's exact net change in
derivations.  A recursive component's deletion candidates come from
``"lost"`` passes, which enumerate each derivation the write took away
once, at its first changed body position.  The build fills the counts
with one counting pass per rule over the final model.  The backward
check runs set-at-a-time: one ``"probe"`` pass per rule, whose leading
``delta`` literal is the rule's head, over a round's frontier.

Which passes run is looked up, not searched for.  Each component keeps
one *pass table*, from every relation its rule bodies read to the body
literals over it, and one selector (``_Component.starts``) returns the
passes a delta starts in a mode, from the keys of the relations it
changed, read once per delta; a backward round takes the rederivation
forms of its frontier's keys.  A component whose table holds no changed
key, and which owns no fact of the batch, is skipped (the operator-level
dispatch of DBSP, Budiu et al., VLDB 2023).

The deltas, the counting table and the backward/forward sets are all
``(key, row)`` id facts (:class:`~repro.datalog.columnar.RowStore`); atoms
are decoded only at the API edge (:meth:`MaterializedModel.model`,
``holds``, ``query`` and an :class:`UpdateResult` field when it is read).

The EDB is not the model's: it is ``program.facts``, an interned
:class:`~repro.datalog.columnar.EdbStore`, and a database's views share
their database's store.  The model's index holds the store's very
relation objects for every purely extensional predicate and private
relations only for what rules derive (an IDB predicate with base facts of
its own starts from a copy of them), so a model costs its derived facts,
not a copy of the base.  The store changes first: a batch
(:class:`~repro.datalog.columnar.EdbBatch`, its net change in id rows) is
written to the store once, and then every model over it stages it.

Every batch is *staged*: maintained forward into the model's relations,
the counts and the seeds — staging only reads the store's relations —
then resolved one of two ways.  A *commit* keeps it: it hands over the
:class:`UpdateResult` prepared while staging, which cannot fail, and the
maintained model is what a subsequent ``engine.least_model()`` returns
without a fixpoint.  A *rollback*, once
the store is back where it was, undoes what staging wrote in O(net
change), with no join: the net index change of the model's own
relations, the derivation counts (journalled on first touch) and the
seeds, so the state comes back bit for bit, and it restores the
maintenance counters.
:meth:`MaterializedModel.apply` is write, stage, commit;
:meth:`MaterializedModel.peek` — "what would the model be if this batch
were applied?" — is write, stage, read, unwrite, rollback, and leaves no
trace.  A database writes each change to its store, stages it on every
maintained view (the violation view reads its buckets meanwhile) and
commits them all once its base holds the write, or unwrites and rolls them
all back if the write fails first.

A write pays for its maintenance and little else.  Its
:class:`UpdateResult` keeps the net change in id rows and decodes a field
when it is first read, so a database that reads none decodes nothing.
No write touches a histogram: each relation keeps the sums of squared
bucket sizes the planner reads as part of every row it adds or drops, so
the planner always reads what a fresh snapshot would.  The planner reads
them only for a re-plannable pass, one with two or more positive body
literals besides its delta literal
(:func:`~repro.datalog.stats.planned_reads`); its relations are the
model's *planned* relations, and every other pass has a fixed order.  A
kernel planned while a batch is staged read the state of that moment, so
a staged batch that changed a planned relation drops the re-plannable
kernels when it ends, committed or rolled back; a batch that changed none
drops nothing.  So every cached plan is the one a fresh full snapshot
gives.  This makes ``apply``, ``peek``, ``query`` and ``holds``
independent of the size of the database.
"""

from collections import defaultdict
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import NamedTuple

from repro.datalog.analyze import strongly_connected_components
from repro.datalog.columnar import (
    RowStore,
    compiled_for,
    decode_world,
    fresh_delta,
)
from repro.datalog.engine import DatalogEngine, QueryResult, _match
from repro.datalog.magic import adornment_of
from repro.datalog.program import DatalogFact, DatalogLiteral, DatalogRule
from repro.datalog.stats import planned_reads
from repro.exceptions import ReproError
from repro.logic.syntax import Atom
from repro.logic.terms import Parameter


#: The empty removal delta of a pass that only adds support, and the net
#: change of an empty batch (read, never written).
_NOTHING = RowStore()


#: Which support a pass of each mode starts from, ``(gained, lost)``, as
#: :meth:`_Component.starts` selects them.
_STARTS = {"new": (True, False), "lost": (False, True), "signed": (True, True)}


class _Staged(NamedTuple):
    """A batch staged on a model: the :class:`EdbBatch
    <repro.datalog.columnar.EdbBatch>`, the maintenance counters and the
    decoded world (or ``None``) before it, the net index change it made,
    the prior value of every derivation count it changed (``None`` for a
    new one) — all a rollback undoes —, for a batch to be kept its
    :class:`UpdateResult`, and whether it changed a planned relation (its
    end then drops the re-plannable kernels)."""

    batch: object
    counters: dict
    world: object
    index_plus: RowStore
    index_minus: RowStore
    counts: dict
    result: object
    replans: bool


@dataclass
class MaintenanceStatistics:
    """Counters describing the maintenance work done so far.

    ``applies`` counts committed batches (:meth:`MaterializedModel.apply`
    calls and the writes a database commits on its views), ``rounds`` the
    within-component propagation rounds, ``delta_passes`` the executed
    delta-position join passes, ``facts_added`` / ``facts_removed`` the net
    model-level changes, ``overdeleted`` / ``rederived`` the deletion
    candidates of recursive components the backward check examined and
    those it proved,
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


class UpdateResult:
    """The net effect of one :meth:`MaterializedModel.apply` call.

    ``edb_added`` / ``edb_removed`` are the base-fact changes that actually
    took place (set semantics: re-inserting a present fact or deleting an
    absent one is a no-op), ``derived_added`` / ``derived_removed`` the
    resulting changes to the materialized model as a whole.  Each is a
    frozenset of atoms, decoded from the batch's id rows when it is first
    read and cached, so a write whose result nobody reads decodes nothing.
    """

    def __init__(self, interner, edb_plus, edb_minus, index_plus, index_minus):
        # The batch's net change as (key, row) facts; nothing mutates them
        # once the batch is staged.
        self._interner = interner
        self._edb_plus, self._edb_minus = edb_plus, edb_minus
        self._index_plus, self._index_minus = index_plus, index_minus

    def _atoms(self, facts, edb=()):
        decode = self._interner.decode_row
        return frozenset(decode(fact[0][0], fact[1]) for fact in facts if fact not in edb)

    @cached_property
    def edb_added(self):
        """The base facts the batch inserted."""
        return self._atoms(self._edb_plus)

    @cached_property
    def edb_removed(self):
        """The base facts the batch deleted."""
        return self._atoms(self._edb_minus)

    @cached_property
    def derived_added(self):
        """The facts the model gained beyond the batch's base insertions."""
        return self._atoms(self._index_plus, self._edb_plus)

    @cached_property
    def derived_removed(self):
        """The facts the model lost beyond the batch's base deletions."""
        return self._atoms(self._index_minus, self._edb_minus)

    def _fields(self):
        return (self.edb_added, self.edb_removed, self.derived_added, self.derived_removed)

    def __eq__(self, other):
        if not isinstance(other, UpdateResult):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return (
            f"UpdateResult(edb_added={self.edb_added!r}, "
            f"edb_removed={self.edb_removed!r}, "
            f"derived_added={self.derived_added!r}, "
            f"derived_removed={self.derived_removed!r})"
        )


class _Component:
    """One maintenance unit: a strongly connected component of the IDB
    dependency graph, its rules, whether it is recursive, and its pass
    table.

    ``predicates`` holds the ``(predicate, arity)`` keys of its
    predicates.  ``passes``, the pass table, maps each key its rule bodies
    read to the ``(order, rule, position, positive)`` of every body
    literal over it, *order* numbering the literals of all its rules in
    rule and position order: the delta passes a change to that relation
    can start, which :meth:`starts` selects.  For a recursive component,
    ``probes`` maps each head key to the ``(form, 0)`` passes of its
    rules' rederivation forms — the rule's head prepended to its body as
    the leading literal, so one ``"probe"`` pass with that literal as the
    delta lists the derivations of a set of facts."""

    __slots__ = ("predicates", "rules", "recursive", "passes", "probes")

    def __init__(self, predicates, rules, recursive):
        self.predicates = predicates
        self.rules = rules
        self.recursive = recursive
        self.passes = {}
        literals = [(rule, position, literal)
                    for rule in rules for position, literal in enumerate(rule.body)]
        for order, (rule, position, literal) in enumerate(literals):
            key = (literal.atom.predicate, len(literal.atom.args))
            self.passes.setdefault(key, []).append((order, rule, position, literal.positive))
        self.probes = {}
        if recursive:
            for rule in rules:
                form = DatalogRule(rule.head, (DatalogLiteral(rule.head),) + rule.body)
                self.probes.setdefault((rule.head.predicate, rule.head.arity), []).append(
                    (form, 0)
                )

    def starts(self, mode, plus_keys, minus_keys):
        """The ``(rule, position)`` passes of *mode* that a delta starts, in
        rule and position order, given the keys of the relations it adds
        rows to (*plus_keys*) and removes rows from (*minus_keys*): those
        whose delta literal's support it changed.  A positive literal
        gains support through a plus key and loses it through a minus key,
        a negated one the other way round; ``"new"`` passes start from
        gained support, ``"lost"`` passes from lost support and
        ``"signed"`` passes from either (a pass starts once, whichever
        side starts it)."""
        from_gained, from_lost = _STARTS[mode]
        started = {}
        for keys, if_positive, if_negated in (
            (plus_keys, from_gained, from_lost), (minus_keys, from_lost, from_gained)
        ):
            for key in keys:
                for order, rule, position, positive in self.passes.get(key, ()):
                    if if_positive if positive else if_negated:
                        started[order] = (rule, position)
        return [started[order] for order in sorted(started)]


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
    ``engine.program`` materialized in the engine's id-space store: the
    :class:`~repro.datalog.columnar.ColumnarFactIndex` that
    :meth:`~repro.datalog.engine.DatalogEngine.least_index` returns, whose
    derived relations this model owns and mutates from then on (its
    extensional relations are the
    :class:`~repro.datalog.columnar.EdbStore`'s that ``program.facts``
    holds).  The counting table, the backward/forward sets and the
    per-batch deltas are interned ``(key, row)`` facts, and every
    maintenance join is one of the engine's generated kernels.  EDB updates arrive through
    :meth:`apply`; everything else (``model()``, ``holds()``, ``query()``)
    reads the maintained state.

    Changes that bypass :meth:`apply` are not maintained incrementally: if
    the program's rules or facts are mutated behind our back, the next
    access notices (the store's version stamp, a replaced store, a
    comparison of the rules) and falls back to a full rebuild.
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
        self._interner = None
        self.program = self.engine.program
        self.statistics = MaintenanceStatistics()
        self._index = None
        self._store = None
        self._counts = None
        self._seeds = None
        self._kernels = {}
        self._fixed_kernels = {}
        self._staged = None
        self._components = None
        self._kind = None
        self._owner = None
        self._planned = None
        self._world = None
        self._edb = None
        self._edb_version = None
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
            self._world = decode_world(self._store, self._interner)
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
        predicates — recursive components are maintained set-wise, by
        backward/forward checking — and for extensional facts, where it is
        1 or 0."""
        self._ensure_consistent()
        atom = _as_ground_atom(atom)
        key = (atom.predicate, len(atom.args))
        if self._kind.get(key) == "counting":
            row = self._interner.row_of(atom)
            return self._counts.get((key, row), 0) if row is not None else 0
        return 1 if atom in self._index else 0

    def apply(self, insertions=(), deletions=()):
        """Apply a batch of EDB insertions and deletions at delta cost.

        Both arguments are iterables of ground atoms (or
        :class:`~repro.datalog.program.DatalogFact`).  Set semantics: a fact
        both deleted and inserted in the same batch stays present, inserting
        a present fact and deleting an absent one are no-ops.  The EDB store
        (``program.facts``) takes the batch, so the program remains the
        single source of truth.  Returns an :class:`UpdateResult`.
        """
        batch = self._batch(insertions, deletions)
        self._edb.write(batch)
        try:
            self._stage(batch)
        except BaseException:
            self._edb.unwrite(batch)
            raise
        return self._commit()

    def peek(self, insertions=(), deletions=(), reader=None):
        """Return the :class:`~repro.semantics.worlds.World` the model would
        have if the batch were applied — without changing anything.

        Implemented as a staged batch that is always rolled back:
        maintenance of the batch, then an undo of the net change it made
        to the model's own state, which restores it bit for bit without a
        join.  The EDB store is written for the duration and restored bit
        for bit, staging only reads it, and :attr:`statistics` is restored
        after the round trip, so not even the maintenance counters record
        the peek; only a peek that changed a planned relation drops the
        re-plannable kernels (see :meth:`_kernel`).  This is the API
        transaction previews should use: a peek can never poison the
        maintained state or the engine's cache.

        Building a :class:`World` materializes the whole model — O(model)
        even for a one-fact batch.  Callers that only need to probe a few
        predicates pass a ``reader`` callable instead: it receives this
        model while the batch is applied and its return value becomes the
        peek's result, keeping the whole round trip O(delta + touched
        buckets).  The reader must not mutate the model.
        """
        batch = self._batch(insertions, deletions)
        self._edb.write(batch)
        try:
            self._stage(batch, keep=False)
            if reader is None:
                return decode_world(self._store, self._interner)
            return reader(self)
        finally:
            self._edb.unwrite(batch)
            self._rollback()

    def refresh(self):
        """Rebuild the materialized state from scratch.  Called on
        construction and whenever the program was mutated other than
        through :meth:`apply`.

        The EDB is ``program.facts``, an
        :class:`~repro.datalog.columnar.EdbStore` on the engine's interner.
        The model is the engine's id-space fixpoint
        store over it (:meth:`~repro.datalog.engine.DatalogEngine.least_index`,
        which also lets the engine's static analyzer see the possibly
        mutated program: a strict engine rejects a defective program here).
        The derivation counts of each counting component are then filled by
        one counting pass per rule over that final store, plus one for the
        EDB membership of its own predicate; their kernels are not kept.
        Maintenance works from the full rule set — never-fire rules the
        analyzer pruned from the fixpoint derive nothing here either."""
        self.statistics.rebuilds += 1
        edb = self._edb = self.program.facts
        self._interner = edb.interner
        self._analyze()
        self._index = self.engine.least_index()
        self._store = store = self._index.store
        self._kernels = {}
        self._fixed_kernels = {}
        self._counts = counts = {}
        self._seeds = seeds = set()
        for key, predicate_kind in self._kind.items():
            relation = edb.rows.get(key)
            if relation is not None:
                own = [(key, row) for row in relation.rows]
                if predicate_kind == "counting":
                    counts.update(dict.fromkeys(own, 1))
                else:
                    seeds.update(own)
        for component in self._components:
            if not component.recursive:
                for rule in component.rules:
                    self._kernel(rule, None, "count")(store, None, None, counts)
        # The build's passes may read relations no batch's end re-plans on.
        self._kernels = dict(self._fixed_kernels)
        self._world = None
        self._edb_version = edb.version
        self._rules_key = tuple(self.program.rules)

    def metrics(self):
        """The maintenance counters as a flat ``maintenance.*`` snapshot
        (same shape as :meth:`DatalogEngine.metrics`); read at call time
        from :attr:`statistics`, which stays a plain dataclass."""
        return {
            f"maintenance.{name}": value
            for name, value in sorted(asdict(self.statistics).items())
        }

    def __contains__(self, atom):
        return self.holds(atom)

    def __len__(self):
        self._ensure_consistent()
        return len(self._store)

    def __repr__(self):
        return (
            f"MaterializedModel({len(self._store)} facts, "
            f"{len(self._components)} components, "
            f"{self.statistics.applies} applies)"
        )

    # -- program analysis ------------------------------------------------------
    def _analyze(self):
        """Group the IDB into strongly connected components (dependency
        order), tag each as counting or recursive, map predicates to kinds
        and to their owning component, and collect the *planned* relations:
        those the re-plannable maintenance passes read
        (:func:`~repro.datalog.stats.planned_reads` of every delta position
        of the components' rules and of the probe forms), the only ones
        whose change re-plans the cached kernels."""
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
        self._owner = {}
        for member_set in components:
            recursive = len(member_set) > 1 or any(
                key in successors[key] for key in member_set
            )
            rules = [rule for key in member_set for rule in rules_for[key]]
            component = _Component(member_set, rules, recursive)
            self._components.append(component)
            for key in member_set:
                self._kind[key] = "recursive" if recursive else "counting"
                self._owner[key] = component
        self._planned = planned = set()
        for component in self._components:
            for rule in component.rules:
                for position in range(len(rule.body)):
                    planned.update(planned_reads(rule, position))
            for probes in component.probes.values():
                for form, position in probes:
                    planned.update(planned_reads(form, position))

    def _ensure_consistent(self):
        """Fall back to a full rebuild when the program was mutated outside
        :meth:`apply`: the EDB store's version stamp moved, the store was
        replaced or the rules differ.  O(rules), independent of the facts."""
        if (
            self.program.facts is not self._edb
            or self._edb_version != self._edb.version
            or self._rules_key != tuple(self.program.rules)
        ):
            self.refresh()

    def _detach(self):
        """Read a private copy of the EDB store from now on: the index's
        shared relations are swapped for the copy's, so writes to the store
        no longer reach this model (a closed view stays as it was)."""
        shared, private = self._edb, self._edb.copy()
        for key, relation in private.rows.items():
            if self._store.get(key) is shared.rows.get(key):
                self._store.share(key, relation)
        current = self._edb_version == shared.version
        self.program.facts = self._edb = private
        if current:
            self._edb_version = private.version

    def _batch(self, insertions, deletions):
        """Validate a batch of ground atoms and reduce it to its net change
        against the (brought up to date) EDB store, not yet written."""
        insertions = [_as_ground_atom(a) for a in insertions]
        deletions = [_as_ground_atom(a) for a in deletions]
        self._ensure_consistent()
        return self._edb.batch(insertions, deletions)

    def _stage(self, batch, keep=True):
        """Maintain *batch* — an :class:`~repro.datalog.columnar.EdbBatch`
        the EDB store already holds, made while the store was at the state
        this model reflects — forward and hold it staged until
        :meth:`_commit` or :meth:`_rollback`.  Reads see the staged model.
        A batch to be kept (not a peek's) also gets its
        :class:`UpdateResult` prepared here, which keeps the net change in
        id rows and decodes it only when read, so a commit has nothing left
        to compute.  Staging notes whether the batch changed a planned
        relation, at any point of its maintenance.  Staging that raises
        restores the counters and leaves the model marked stale, so the
        next access rebuilds it."""
        if self._staged is not None:
            raise ReproError("a batch is already staged on this model")
        if self._edb_version != batch.before:
            raise ReproError("the batch was not made on the EDB this model reflects")
        counters = dict(vars(self.statistics))
        world = self._world
        counts = {}
        moved = set()
        try:
            index_plus, index_minus = self._maintain(batch.plus, batch.minus, counts, moved)
            result = self._result(batch, index_plus, index_minus) if keep else None
        except BaseException:
            self._edb_version = None
            vars(self.statistics).update(counters)
            raise
        planned = self._planned
        replans = bool(planned) and not planned.isdisjoint(
            moved | index_plus.relations() | index_minus.relations()
        )
        self._edb_version = batch.after
        self._staged = _Staged(
            batch, counters, world, index_plus, index_minus, counts, result, replans
        )

    def _result(self, batch, index_plus, index_minus):
        """The :class:`UpdateResult` of a staged batch: its EDB change and
        the rest of the net index change, kept in id rows until read."""
        return UpdateResult(
            self._interner, batch.plus, batch.minus, index_plus, index_minus
        )

    def _commit(self):
        """Keep the staged batch: drop the re-plannable kernels if it changed
        a planned relation (see :meth:`_kernel`) and return its
        :class:`UpdateResult`, prepared while staging, so a commit only
        swaps state and cannot fail."""
        staged, self._staged = self._staged, None
        self.statistics.applies += 1
        if staged.replans:
            self._kernels = dict(self._fixed_kernels)
        return staged.result

    def _rollback(self):
        """Undo the staged batch, if there is one, once the EDB store is back
        at its state before the batch, in O(net change) and without a join:
        the model's own relations drop the rows the batch added and take
        back those it removed (the store's relations were restored by
        :meth:`EdbStore.unwrite <repro.datalog.columnar.EdbStore.unwrite>`),
        the derivation counts it changed get their journalled values back,
        the seeds lose the batch's insertions and regain its deletions, and
        the maintenance counters and the decoded world, if there was one,
        are restored.  If the batch changed a planned relation, the
        re-plannable kernels go, as after a commit: those planned while it
        was staged read its state.  An undo that raises leaves the model
        marked stale, so the next access rebuilds it."""
        staged, self._staged = self._staged, None
        if staged is None:
            return
        batch = staged.batch
        kind = self._kind
        store = self._store
        try:
            for key, relation in staged.index_plus.items():
                if kind.get(key) is not None:
                    for row in relation.rows:
                        store.discard_row(key, row)
            for key, relation in staged.index_minus.items():
                if kind.get(key) is not None:
                    for row in relation.rows:
                        store.add_row(key, row)
            counts = self._counts
            for fact, prior in staged.counts.items():
                if prior is None:
                    counts.pop(fact, None)
                else:
                    counts[fact] = prior
            seeds = self._seeds
            for fact in batch.plus:
                if kind.get(fact[0]) == "recursive":
                    seeds.discard(fact)
            for fact in batch.minus:
                if kind.get(fact[0]) == "recursive":
                    seeds.add(fact)
        except BaseException:
            self._edb_version = None
            raise
        finally:
            vars(self.statistics).update(staged.counters)
        self._edb_version = batch.before
        if staged.replans:
            self._kernels = dict(self._fixed_kernels)
        self._world = staged.world
        if staged.world is None:
            self.engine._model = None  # a reader may have installed the staged one
        else:
            self.engine.install_model(staged.world)

    def _maintain(self, edb_plus, edb_minus, journal, moved):
        """Bring the model's own state — its derived relations, the counts
        and the seeds — to the model of the EDB changed by
        ``(edb_plus, edb_minus)`` (sets of encoded ``(key, row)`` facts),
        which the EDB store already holds.  Returns the net index change
        ``(index_plus, index_minus)``, EDB part included, as
        :class:`~repro.datalog.columnar.RowStore` objects, records in
        the dict *journal* the prior value of every derivation count it
        changes (``None`` for a count it creates), and adds to the set
        *moved* the keys of relations it changed only for a while (the
        net change does not show them).  An empty change is a no-op and
        returns empty stores."""
        if not edb_plus and not edb_minus:
            return _NOTHING, _NOTHING
        with self.engine.tracer.span(
            "maintenance.batch",
            insertions=len(edb_plus),
            deletions=len(edb_minus),
        ) as span:
            index_plus, index_minus = self._propagate(edb_plus, edb_minus, journal, moved)
            facts_added = sum(fact not in edb_plus for fact in index_plus)
            facts_removed = sum(fact not in edb_minus for fact in index_minus)
            span.annotate(facts_added=facts_added, facts_removed=facts_removed)
        self._world = None
        self.engine._model = None  # stale until model() reinstalls
        self.statistics.facts_added += facts_added
        self.statistics.facts_removed += facts_removed
        return index_plus, index_minus

    # -- delta propagation ------------------------------------------------------
    def _propagate(self, edb_plus, edb_minus, journal, moved):
        """Push an EDB delta (sets of ``(key, row)`` facts) through every
        component in dependency order.

        ``acc_plus`` / ``acc_minus`` accumulate all changes applied so far
        (EDB and lower components); each component sees them as its round-one
        delta and contributes its own net changes for the components above.
        Their keys are read once per delta; they skip a component or
        select its passes (:meth:`_Component.starts`).
        Returns the net index change ``(acc_plus, acc_minus)`` over the
        whole model; the counting components journal the counts they change
        into *journal*, and the recursive ones add to *moved* the keys of
        the facts they delete and derive again.
        """
        store = self._store
        owner = self._owner
        acc_plus = RowStore()
        acc_minus = RowStore()
        # The EDB store holds the batch already, and the index reads a
        # purely extensional predicate's relation from it: that change has
        # taken effect (a relation the batch created is shared here).  EDB
        # changes for IDB predicates are handed to the owning component
        # (base-count / seed semantics) for the model's own relation.
        own = {}
        for side, (facts, acc) in enumerate(((edb_plus, acc_plus), (edb_minus, acc_minus))):
            for fact in facts:
                component = owner.get(fact[0])
                if component is None:
                    acc.add(fact)
                else:
                    own.setdefault(component, ([], []))[side].append(fact)
        keys = acc_plus.relations(), acc_minus.relations()
        changed = keys[0] | keys[1]
        for key in changed:
            if store.get(key) is None:
                store.share(key, self._edb.rows.get(key))

        for component in self._components:
            rows = own.get(component)
            if rows is None and component.passes.keys().isdisjoint(changed):
                continue  # nothing below changed what its rules read
            own_plus, own_minus = rows or ((), ())
            if component.recursive:
                added, removed = self._maintain_recursive(
                    component, acc_plus, acc_minus, keys, own_plus, own_minus, moved
                )
            else:
                added, removed = self._maintain_counting(
                    component, acc_plus, acc_minus, keys, own_plus, own_minus, journal
                )
            if added or removed:
                acc_plus.add_all(added)
                acc_minus.add_all(removed)
                keys = acc_plus.relations(), acc_minus.relations()
                changed = keys[0] | keys[1]
        return acc_plus, acc_minus

    def _kernel(self, rule, delta_position, mode, within=()):
        """The engine's compiled pass for *rule* with its body planned by
        the engine's scheduler against the live statistics of the model's
        index; cached until a staged batch that changed a planned relation
        ends (committed or rolled back: a kernel planned meanwhile read the
        staged state).  A pass with at most one positive literal besides
        its delta literal has nothing for the statistics to reorder (see
        :func:`~repro.datalog.stats.planned_reads`), so its kernel is kept
        until a rebuild.
        *within* is a probe's component (see
        :func:`~repro.datalog.columnar.compile_schedule`).  Rules are keyed
        by identity — hashing one hashes its whole body — which is safe as
        the components hold them until a rebuild empties the cache."""
        key = (id(rule), delta_position, mode)
        kernel = self._kernels.get(key)
        if kernel is None:
            engine = self.engine
            schedule = engine._schedule(
                rule, delta_position=delta_position, stats=self._store
            )
            kernel = self._kernels[key] = compiled_for(
                engine._compiled_cache, rule, delta_position, schedule,
                self._interner, mode, within=within,
            )
            if not planned_reads(rule, delta_position):
                self._fixed_kernels[key] = kernel
        return kernel

    def _join(self, passes, mode, plus, minus, out, within=()):
        """Run the ``(rule, position)`` delta *passes* of *mode* into *out*,
        in the current database: *plus* and *minus* are the facts the write
        added to and removed from it (see
        :func:`~repro.datalog.columnar.compile_schedule` for how each mode
        reads them; a probe's *minus* is the proved set, and *within* its
        component).  The passes come from a component's pass table:
        :meth:`_Component.starts` selects, by the keys of the relations a
        delta changed, those whose delta literal's support it changed, and
        a probe round takes the rederivation forms of its frontier's keys.
        No pass is chosen by reading a relation's size."""
        self.statistics.delta_passes += len(passes)
        store = self._store
        for rule, position in passes:
            self._kernel(rule, position, mode, within)(store, plus, minus, out)

    def _maintain_counting(self, component, acc_plus, acc_minus, keys, edb_plus,
                           edb_minus, journal):
        """Counting maintenance for a non-recursive component.

        Adjust base counts for the component's own EDB changes, run the
        ``"signed"`` passes (the telescoped delta: each head's net change
        in derivations) that everything accumulated below starts — *keys*
        are the keys of its relations, ``(plus_keys, minus_keys)`` — and
        turn count transitions into index updates, journalling the prior
        value of every count it changes.  One round suffices: a non-recursive
        component never reads its own predicate.
        """
        change = defaultdict(int)
        for fact in edb_plus:
            change[fact] += 1
        for fact in edb_minus:
            change[fact] -= 1
        passes = component.starts("signed", *keys)
        if passes:
            self.statistics.rounds += 1
            self._join(passes, "signed", acc_plus, acc_minus, change)
        counts = self._counts
        store = self._store
        added, removed = [], []
        for fact, difference in change.items():
            if not difference:
                continue
            prior = counts.get(fact)
            journal.setdefault(fact, prior)
            count = (prior or 0) + difference
            if count > 0:
                counts[fact] = count
                if store.add(fact):
                    added.append(fact)
            else:
                counts.pop(fact, None)
                if store.discard(fact):
                    removed.append(fact)
        return added, removed

    def _maintain_recursive(self, component, acc_plus, acc_minus, keys, edb_plus,
                            edb_minus, moved):
        """Backward/forward maintenance for a recursive component (after
        Motik, Nenov, Piro and Horrocks, AAAI 2015).

        1. *Delete*: a component fact that loses a derivation — through
           removed support below (deleted positive facts, inserted negated
           ones), its own EDB deletion, or a fact deleted in an earlier
           round — is a deletion candidate.  The backward check
           (:meth:`_disprove`) keeps every candidate with a derivation from
           proved facts; only the disproved facts leave the index, and the
           facts they supported are the next round's candidates.
        2. *Insert*: propagate added support (inserted facts, deleted
           negated facts) semi-naively to a fixpoint; a disproved fact it
           derives again is no net change.

        The component's own EDB changes move its seeds, and its insertions
        enter the index first, so the backward check can prove candidates
        from them.  *keys* are those of the relations accumulated below.  A
        disproved fact derived again is no net change, but the index held
        it apart for a while: its key goes to *moved*.
        """
        store = self._store
        statistics = self.statistics
        self._seeds.update(edb_plus)
        self._seeds.difference_update(edb_minus)
        inserted = [fact for fact in edb_plus if store.add(fact)]

        # Phase 1 — deletion.
        proved = set()
        risk = None
        removed_net = set()
        candidates = [fact for fact in edb_minus if fact in store]
        passes = component.starts("lost", *keys)
        if passes:
            statistics.rounds += 1
            lost = {}
            self._join(passes, "lost", acc_plus, acc_minus, lost)
            candidates.extend(lost)
        while True:
            candidates = [
                fact for fact in dict.fromkeys(candidates)
                if fact not in proved and fact in store
            ]
            if not candidates:
                break
            doomed, risk = self._disprove(component, candidates, proved, risk)
            if not doomed:
                break
            # What the disproved facts supported, found while they are
            # still in the index; then they leave it.
            statistics.rounds += 1
            candidates = list(self._reach(component, doomed))
            store.discard_all(doomed)
            removed_net.update(doomed)

        # Phase 2 — insertion.
        added_net = set(inserted)
        dplus, dminus = acc_plus, acc_minus
        if inserted:
            dplus = RowStore(acc_plus)
            dplus.add_all(inserted)
            keys = dplus.relations(), keys[1]
        while True:
            passes = component.starts("new", *keys)
            if not passes:
                break
            statistics.rounds += 1
            fresh = set()
            self._join(passes, "new", dplus, dminus, fresh)
            # fresh is disjoint from the index by construction — merge the
            # whole round delta relation-wise.
            dplus, dminus = fresh_delta(fresh), _NOTHING
            keys = dplus.relations(), ()
            store.absorb(dplus)
            for fact in fresh:
                if fact in removed_net:
                    removed_net.discard(fact)
                    moved.add(fact[0])
                else:
                    added_net.add(fact)
        return added_net, removed_net

    def _disprove(self, component, candidates, proved, risk):
        """The backward check of one deletion round: decide every candidate
        (a component fact of the index that lost a derivation), add the
        proved ones to *proved* and return ``(disproved, risk)``.

        A fact is proved when it is an EDB fact of the component or has a
        derivation in the index whose component body facts are all proved
        (lower strata are final, so their facts need no proof).  The check
        runs breadth-first and set-at-a-time: each round runs one
        ``"probe"`` kernel per rule over the round's frontier, which lists
        every derivation of a frontier fact with the body facts it still
        waits on; a derivation waiting on nothing proves its head, and
        proofs propagate along the waiting derivations.  The awaited facts
        not yet checked form the next frontier.  Proof is thus
        well-founded: a fact supported only through a cycle of undecided
        facts is never proved.

        The forward half bounds the backward search.  When the first round
        leaves candidates undecided, *risk* — every fact reachable from an
        undecided candidate through derivations in the index (see
        :meth:`_at_risk`) — is computed once for the whole component
        update, and from then on an awaited fact outside it is proved
        outright: none of its derivations can lose support, so its old
        proof stands.  The search stops as soon as every candidate is
        proved; the facts it explored and left unproved are merely
        undecided, and survive.  Otherwise it runs until the frontier is
        empty, and then every checked fact left unproved has no derivation
        from proved facts in the index: it is disproved (the insertion
        phase derives it again if added support reaches it)."""
        statistics = self.statistics
        seeds = self._seeds
        statistics.overdeleted += len(candidates)
        undecided = set(candidates)
        checked = set(candidates)
        waiting = defaultdict(list)  # fact -> [head, unproved count] records

        def prove(fact):
            stack = [fact]
            while stack:
                fact = stack.pop()
                if fact in proved:
                    continue
                proved.add(fact)
                undecided.discard(fact)
                for record in waiting.pop(fact, ()):
                    record[1] -= 1
                    if not record[1]:
                        stack.append(record[0])

        frontier = []
        for fact in candidates:
            if fact in seeds:
                prove(fact)
            else:
                frontier.append(fact)
        while frontier and undecided:
            delta = fresh_delta(frontier)
            keys = delta.relations()
            found = []
            for key, probes in component.probes.items():
                if key in keys:
                    self._join(probes, "probe", delta, proved, found, component.predicates)
            for head, pending in found:
                if not pending:
                    prove(head)
            frontier = []
            for head, pending in found:
                if head in proved:
                    continue
                unproved = []
                for fact in dict.fromkeys(pending) if len(pending) > 1 else pending:
                    if fact in proved:
                        continue
                    if fact in seeds or (risk is not None and fact not in risk):
                        prove(fact)
                        continue
                    unproved.append(fact)
                    if fact not in checked:
                        checked.add(fact)
                        frontier.append(fact)
                if len(unproved) > 1:
                    # A fact proved above may have proved an earlier one.
                    unproved = [fact for fact in unproved if fact not in proved]
                if not unproved:
                    prove(head)
                    continue
                record = [head, len(unproved)]
                for fact in unproved:
                    waiting[fact].append(record)
            if risk is None and undecided and any(
                fact not in proved for fact in frontier
            ):
                risk = self._at_risk(component, undecided, proved)
                for fact in list(waiting):
                    if fact not in risk:
                        prove(fact)
            frontier = [fact for fact in frontier if fact not in proved]
        statistics.rederived += len(candidates) - len(undecided)
        if frontier:
            return [], risk
        return [fact for fact in checked if fact not in proved], risk

    def _at_risk(self, component, undecided, proved):
        """The forward half of the check: the *undecided* facts and every
        fact they reach through derivations in the index, not passing
        through *proved* facts — one :meth:`_reach` per round, from the
        facts the previous round reached.

        A component fact outside this set that never was a candidate keeps
        its old proof: only a candidate loses a derivation directly, and a
        loss travels to the facts it supported along derivations, which
        this set follows from every undecided candidate up to the proved
        facts (they stand)."""
        risk = set(undecided)
        frontier = undecided
        while frontier:
            frontier = [
                fact for fact in self._reach(component, frontier)
                if fact not in risk and fact not in proved
            ]
            risk.update(frontier)
        return risk

    def _reach(self, component, facts):
        """The heads of the derivations in the index that use one of
        *facts* (component facts the index holds), as a ``fact ->
        derivations`` tally: one increment pass per positive body literal
        over the relations *facts* populate, the passes *facts* start as
        an insertion."""
        delta = fresh_delta(facts)
        reached = {}
        passes = component.starts("new", delta.relations(), ())
        self._join(passes, "count", delta, _NOTHING, reached)
        return reached
