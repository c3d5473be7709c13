"""Columnar interned fact storage: dense-id relations for the Datalog engine.

Every caller speaks :class:`~repro.logic.syntax.Atom` objects, but hash
sets of atoms are the wrong inner loop: each join probe would pay a
Python-level ``__hash__``/``__eq__`` on atoms and parameters, each derived
head would allocate an ``Atom``, and the resident model would be a graph of
millions of small objects the cyclic GC must keep re-tracing.

This module keeps the atom surface and replaces the loop.  Constants are
interned to dense integer ids (:mod:`repro.datalog.interner`), and facts
become **rows** — tuples of ids — living in per-``(predicate, arity)``
:class:`ColumnarRelation` instances:

* a **membership set** of id tuples (int tuples hash at C speed — no
  Python ``__hash__`` dispatch);
* per-argument-position **columns** (``array('q')`` — one machine word per
  value, no per-value object overhead), materialised lazily from the live
  rows for compact export (:meth:`RowStore.to_arrays` — an int-array form
  that can cross a process boundary instead of pickled atom objects);
* per-position **bucket maps** ``id -> set of rows``, the probe structure
  the engine's greedy bound-prefix planning and the generated joins use.

Four faces are exposed, innermost first:

* :class:`RowStore` — a mutable set of ``(key, row)`` facts
  (``add``/``absorb``/``discard``/``discard_all``/``candidates``/
  ``selectivity``/iteration): the model, the deltas and the statistics the
  join planner reads, kept live by every write;
* the **compiled join** (:func:`compile_schedule` / :func:`compiled_for` /
  :func:`columnar_fixpoint`) — the one join executor: each rule-body
  schedule is *generated as a specialized Python function* (constants
  become int literals, variables become locals), so the inner loop
  compares machine ints instead of unifying atom objects and never
  allocates a dict or an ``Atom`` per candidate.  The engine's semi-naive
  fixpoint and every maintenance pass of
  :class:`~repro.datalog.incremental.MaterializedModel` run through it;
* :class:`ColumnarFactIndex` — the Atom-face read view: membership,
  iteration and bound-prefix candidates in atoms (decoded to the identical
  interned parameter objects), rows inside;
* :class:`EdbStore` — extensional facts interned once: a fact list of id
  rows on one interner, written in net batches (:class:`EdbBatch`), whose
  relation objects every program evaluated over it shares.

This is the only indexed fact storage: the ``indexed`` strategy of
:class:`~repro.datalog.engine.DatalogEngine` evaluates over it, and
:class:`~repro.datalog.incremental.MaterializedModel` (hence every view)
maintains its model in it — a database's views over the one
:class:`EdbStore` of its base.  ``tests/test_datalog_columnar.py``
property-tests it against the set-based ``semi-naive`` oracle.
"""

from array import array
from itertools import chain, count
from operator import itemgetter
from typing import NamedTuple

from repro.datalog.interner import Interner, constant_kind, fast_atom
from repro.datalog.program import DatalogFact
from repro.datalog.stats import planned_reads
from repro.logic.syntax import Atom
from repro.logic.terms import Variable
from repro.semantics.worlds import World

EMPTY = frozenset()

#: :attr:`EdbStore.version` stamps, never shared between two stores.
_VERSIONS = count()


class ColumnarRelation:
    """The rows of one ``(predicate, arity)`` relation.

    ``rows`` is the membership structure — a set of id tuples, hashed and
    compared at C speed.  The derived structures are materialised lazily
    from it and kept consistent only while they exist:

    * :attr:`buckets` — one ``id -> set of rows`` map per argument
      position, the join's probe structure (emptied value buckets are
      dropped so distinct-value counts stay honest).
      Built on first probe; short-lived relations that are only ever
      enumerated — the per-round semi-naive deltas — never pay for them.
      Alongside them, :attr:`squares` keeps per position the sum of the
      squared bucket sizes, the planner's statistic
      (:meth:`RowStore.selectivity`): computed with the buckets, then
      moved by every :meth:`add`, :meth:`discard` and :meth:`absorb` in
      O(1) per row and position.
    * :attr:`columns` — one ``array('q')`` per position, the at-rest /
      exchange face (:meth:`RowStore.to_arrays`); machine-word compactness
      is paid only when rows are actually shipped.
    """

    __slots__ = ("arity", "rows", "_buckets", "_squares", "_columns")

    def __init__(self, arity):
        self.arity = arity
        self.rows = set()
        self._buckets = None
        self._squares = None
        self._columns = None

    @property
    def buckets(self):
        """The per-position ``id -> set of rows`` probe maps, built on
        demand from the live rows (treat as read-only)."""
        buckets = self._buckets
        if buckets is None:
            buckets = tuple({} for _ in range(self.arity))
            for row in self.rows:
                for bucket, value in zip(buckets, row):
                    owners = bucket.get(value)
                    if owners is None:
                        bucket[value] = {row}
                    else:
                        owners.add(row)
            self._squares = [
                sum(len(owners) ** 2 for owners in bucket.values()) for bucket in buckets
            ]
            self._buckets = buckets
        return buckets

    @property
    def squares(self):
        """Per argument position, the sum of the squared sizes of its
        buckets (builds the buckets on first read; treat as read-only)."""
        if self._squares is None:
            self.buckets
        return self._squares

    @property
    def columns(self):
        """One ``array('q')`` per argument position, row-aligned — built on
        demand from the live rows (treat as read-only; any mutation of the
        relation invalidates it)."""
        columns = self._columns
        if columns is None:
            ordered = list(self.rows)
            columns = self._columns = tuple(
                array("q", [row[position] for row in ordered])
                for position in range(self.arity)
            )
        return columns

    def copy(self):
        """A relation holding the same rows (probe buckets are rebuilt on
        demand)."""
        other = ColumnarRelation(self.arity)
        other.rows = set(self.rows)
        return other

    def add(self, row):
        """Insert *row*; return True when it was not already present."""
        rows = self.rows
        if row in rows:
            return False
        rows.add(row)
        buckets = self._buckets
        if buckets is not None:
            squares = self._squares
            for position, value in enumerate(row):
                bucket = buckets[position]
                owners = bucket.get(value)
                if owners is None:
                    bucket[value] = {row}
                    squares[position] += 1
                else:
                    # A bucket of n rows grows to n + 1: (n + 1)² - n².
                    squares[position] += 2 * len(owners) + 1
                    owners.add(row)
        self._columns = None
        return True

    def discard(self, row):
        """Remove *row*; return True when it was present."""
        rows = self.rows
        if row not in rows:
            return False
        rows.discard(row)
        buckets = self._buckets
        if buckets is not None:
            squares = self._squares
            for position, value in enumerate(row):
                bucket = buckets[position]
                owners = bucket[value]
                # A bucket of n rows shrinks to n - 1: n² - (n - 1)².
                squares[position] -= 2 * len(owners) - 1
                owners.discard(row)
                if not owners:
                    del bucket[value]
        self._columns = None
        return True

    def absorb(self, other):
        """Merge another relation of the same arity set-wise.  Materialised
        probe buckets and their squared sizes are maintained in place:
        bucket-wise when *other* has its own, row-wise (over its rows not
        held yet) when it was enumeration-only (the typical delta)."""
        buckets = self._buckets
        if buckets is not None:
            squares = self._squares
            theirs = other._buckets
            if theirs is not None:
                for position, (bucket, their_bucket) in enumerate(zip(buckets, theirs)):
                    change = 0
                    for value, owners in their_bucket.items():
                        mine = bucket.get(value)
                        if mine is None:
                            mine = bucket[value] = set(owners)
                            change += len(mine) ** 2
                        else:
                            # From the sizes around the merge, so the sum
                            # stays exact even for overlapping rows.
                            before = len(mine)
                            mine |= owners
                            change += len(mine) ** 2 - before * before
                    squares[position] += change
            else:
                fresh = other.rows - self.rows
                for position, bucket in enumerate(buckets):
                    total = squares[position]
                    for row in fresh:
                        value = row[position]
                        owners = bucket.get(value)
                        if owners is None:
                            bucket[value] = {row}
                            total += 1
                        else:
                            total += 2 * len(owners) + 1
                            owners.add(row)
                    squares[position] = total
        self.rows |= other.rows
        self._columns = None
        return self

    def best_bucket(self, bound):
        """The smallest bucket consistent with *bound* ``(position, id)``
        pairs — a superset of the matching rows, empty as soon as any bound
        position has no rows with that id."""
        best = self.rows
        if not best:
            return EMPTY
        buckets = self.buckets
        for position, value in bound:
            owners = buckets[position].get(value)
            if not owners:
                return EMPTY
            if len(owners) < len(best):
                best = owners
        return best

    def histogram_sizes(self, position):
        """Just the bucket sizes of one argument position, as a list (what
        a :class:`~repro.datalog.stats.JoinStatistics` snapshot reads)."""
        return [len(owners) for owners in self.buckets[position].values()]

    def __len__(self):
        return len(self.rows)

    def __contains__(self, row):
        return row in self.rows

    def __iter__(self):
        return iter(self.rows)

    def __repr__(self):
        return f"ColumnarRelation(arity={self.arity}, {len(self.rows)} rows)"


class RowStore:
    """A mutable set of ``(key, row)`` facts — ``key`` a ``(predicate,
    arity)`` pair, ``row`` a tuple of interned ids — with per-relation and
    per-position indexes, plus a key-explicit hot face (:meth:`get`) for
    the compiled join.

    A store may hold relation objects it shares with another store (see
    :meth:`EdbStore.overlay`), so its size is read off its relations, never
    kept on the side."""

    __slots__ = ("_relations",)

    def __init__(self, facts=()):
        self._relations = {}
        self.add_all(facts)

    # -- hot face ------------------------------------------------------------
    def get(self, key):
        """The :class:`ColumnarRelation` of *key*, or ``None`` — the direct
        probe of the compiled join's inner loop."""
        return self._relations.get(key)

    def items(self):
        """``(key, relation)`` pairs (treat the relations as read-only)."""
        return self._relations.items()

    def share(self, key, relation):
        """Hold *relation* — another store's object, not a copy — under
        *key*; writes through either store reach both."""
        self._relations[key] = relation

    # -- construction --------------------------------------------------------
    def add_row(self, key, row):
        """Insert one row under *key*; return True when it was new."""
        relation = self._relations.get(key)
        if relation is None:
            relation = ColumnarRelation(key[1])
            self._relations[key] = relation
        return relation.add(row)

    def add(self, fact):
        """Insert one ``(key, row)`` fact; return True when it was new."""
        return self.add_row(fact[0], fact[1])

    def add_all(self, facts):
        """Insert every fact; return how many were new."""
        added = 0
        for key, row in facts:
            if self.add_row(key, row):
                added += 1
        return added

    def absorb(self, other):
        """Merge another :class:`RowStore` relation-wise, assuming
        disjointness (the semi-naive delta guarantee)."""
        for key, theirs in other._relations.items():
            mine = self._relations.get(key)
            if mine is None:
                mine = ColumnarRelation(key[1])
                self._relations[key] = mine
            mine.absorb(theirs)
        return self

    # -- deletion ------------------------------------------------------------
    def discard_row(self, key, row):
        """Remove one row; return True when it was present."""
        relation = self._relations.get(key)
        return relation is not None and relation.discard(row)

    def discard(self, fact):
        """Remove one ``(key, row)`` fact; return True when it was present."""
        return self.discard_row(fact[0], fact[1])

    def discard_all(self, facts):
        """Remove every fact; return how many were actually present."""
        removed = 0
        for key, row in facts:
            if self.discard_row(key, row):
                removed += 1
        return removed

    # -- lookup --------------------------------------------------------------
    def __contains__(self, fact):
        relation = self._relations.get(fact[0])
        return relation is not None and fact[1] in relation.rows

    def __len__(self):
        return sum(len(relation.rows) for relation in self._relations.values())

    def __iter__(self):
        for key, relation in self._relations.items():
            for row in relation.rows:
                yield (key, row)

    def __bool__(self):
        return any(relation.rows for relation in self._relations.values())

    def relations(self):
        """The set of ``(predicate, arity)`` keys with at least one row."""
        return {key for key, relation in self._relations.items() if relation.rows}

    def relation(self, predicate, arity):
        """All rows of ``predicate/arity`` (the live membership set; treat
        as read-only)."""
        relation = self._relations.get((predicate, arity))
        return relation.rows if relation is not None else EMPTY

    def count(self, predicate, arity):
        """How many rows of ``predicate/arity`` are held."""
        relation = self._relations.get((predicate, arity))
        return len(relation.rows) if relation is not None else 0

    def candidates(self, predicate, arity, bound):
        """The ``(key, row)`` facts a join step may match given *bound*
        ``(position, id)`` pairs — the smallest consistent bucket, as a
        generator of row facts."""
        key = (predicate, arity)
        relation = self._relations.get(key)
        if relation is None:
            return iter(EMPTY)
        return ((key, row) for row in relation.best_bucket(bound))

    def histogram_sizes(self, predicate, arity, position):
        """Just the bucket sizes of one argument position (what a
        :class:`~repro.datalog.stats.JoinStatistics` snapshot reads)."""
        relation = self._relations.get((predicate, arity))
        return relation.histogram_sizes(position) if relation is not None else []

    def bucket_size(self, predicate, arity, position, ident):
        """How many rows of ``predicate/arity`` carry id *ident* at argument
        *position* — one bucket's size, read in O(1)."""
        relation = self._relations.get((predicate, arity))
        if relation is None:
            return 0
        return len(relation.buckets[position].get(ident, EMPTY))

    def selectivity(self, predicate, arity, positions):
        """The planner's estimate of how many rows of ``predicate/arity``
        survive binding the argument *positions*, read off the live
        relation: its size times, per bound position, the fraction of it
        a data-drawn probe hits, ``(squares / total) / total`` — exactly
        what :meth:`JoinStatistics.selectivity
        <repro.datalog.stats.JoinStatistics.selectivity>` gives from a
        fresh snapshot (the same integers, the same arithmetic).  An empty
        or unknown relation estimates to 0.0, and so does a nullary one:
        it binds nothing, and testing it first costs one lookup.
        O(bound positions), once the relation's buckets exist."""
        relation = self._relations.get((predicate, arity))
        if relation is None or not relation.rows or not arity:
            return 0.0
        total = len(relation.rows)
        squares = relation.squares
        estimate = float(total)
        for position in positions:
            estimate *= squares[position] / total / total
        return estimate

    # -- array exchange ------------------------------------------------------
    def to_arrays(self):
        """Export every relation as ``{key: (count, [array('q'), ...])}`` —
        one machine-word array per column.  This is the compact shipping
        form for exchange between processes: no atom objects, no per-value
        boxing, and ``array`` supports zero-copy buffer transport."""
        return {
            key: (len(relation.rows), [array("q", column) for column in relation.columns])
            for key, relation in self._relations.items()
            if relation.rows
        }

    @classmethod
    def from_arrays(cls, exported):
        """Rebuild a :class:`RowStore` from :meth:`to_arrays` output."""
        store = cls()
        for key, (count, columns) in exported.items():
            if key[1] == 0:
                if count:
                    store.add_row(key, ())
                continue
            for row in zip(*columns):
                store.add_row(key, row)
        return store

    def __repr__(self):
        rendered = ", ".join(
            f"{predicate}/{arity}:{len(relation.rows)}"
            for (predicate, arity), relation in sorted(self._relations.items())
        )
        return f"RowStore({len(self)} rows; {rendered})"


class ColumnarFactIndex:
    """The Atom-face read view of a :class:`RowStore`: membership,
    iteration and bound-prefix :meth:`candidates` speak atoms (decoded to
    the identical interned parameter objects) over the id rows inside.

    It is what :meth:`DatalogEngine.least_index
    <repro.datalog.engine.DatalogEngine.least_index>` returns and what a
    :class:`~repro.datalog.incremental.MaterializedModel` answers
    ``holds`` and ``query`` through; every write goes to the backing
    :attr:`store` in id space.
    """

    __slots__ = ("_interner", "_store")

    @classmethod
    def from_store(cls, store, interner):
        """Wrap an existing :class:`RowStore` (no copy) — the engine's
        zero-cost handoff from the id-space fixpoint to the Atom face."""
        index = cls.__new__(cls)
        index._interner = interner
        index._store = store
        return index

    @property
    def interner(self):
        """The shared symbol table (one per engine / model)."""
        return self._interner

    @property
    def store(self):
        """The backing :class:`RowStore` (the id-space face)."""
        return self._store

    def __contains__(self, atom):
        row = self._interner.row_of(atom)
        if row is None:
            return False
        return ((atom.predicate, len(atom.args)), row) in self._store

    def __len__(self):
        return len(self._store)

    def __iter__(self):
        parameters = self._interner.parameters
        for (predicate, _arity), relation in self._store.items():
            for row in relation.rows:
                yield fast_atom(predicate, tuple([parameters[i] for i in row]))

    def atoms_for(self, predicate):
        """The decoded facts of every relation named *predicate* (the
        :meth:`World.atoms_for <repro.semantics.worlds.World.atoms_for>`
        face)."""
        parameters = self._interner.parameters
        return [
            fast_atom(predicate, tuple([parameters[i] for i in row]))
            for (name, _arity), relation in self._store.items()
            if name == predicate
            for row in relation.rows
        ]

    def candidates(self, predicate, arity, bound):
        """The decoded facts of the smallest indexed bucket consistent with
        *bound* ``(position, parameter)`` pairs — a superset of the matching
        facts, empty as soon as a bound value is unknown to the data."""
        relation = self._store.get((predicate, arity))
        if relation is None:
            return EMPTY
        id_of = self._interner.id_of
        encoded = []
        for position, value in bound:
            ident = id_of(value)
            if ident is None:
                return EMPTY
            encoded.append((position, ident))
        bucket = relation.best_bucket(encoded)
        if not bucket:
            return EMPTY
        parameters = self._interner.parameters
        return (
            fast_atom(predicate, tuple([parameters[i] for i in row])) for row in bucket
        )

    def __repr__(self):
        rendered = ", ".join(
            f"{predicate}/{arity}:{len(relation.rows)}"
            for (predicate, arity), relation in sorted(self._store.items())
        )
        return f"ColumnarFactIndex({len(self._store)} facts; {rendered})"


class EdbBatch(NamedTuple):
    """One net EDB change in id space: the ``(key, row)`` facts it adds
    (absent before) and removes (present before), and the
    :attr:`EdbStore.version` before and after it."""

    plus: set
    minus: set
    before: int
    after: int


class EdbStore:
    """Extensional facts interned once: id rows (:class:`RowStore`) on one
    :class:`~repro.datalog.interner.Interner`.

    It is the fact list of every
    :class:`~repro.datalog.program.DatalogProgram` (``program.facts``),
    with set semantics: a fact is held once, and iteration goes relation
    by relation, in row order (:meth:`atoms`).  A database keeps one for
    the ground atoms of its base, and it is the fact list of every view's
    program, so the views read the very same :class:`ColumnarRelation`
    objects (:meth:`overlay`) and keep only what they derive.  Writes come
    as batches: :meth:`batch` reduces ground atoms to the net id-row
    change, :meth:`write` applies it and :meth:`unwrite` restores rows,
    buckets and :attr:`version` exactly as they were.

    The atom face is iteration (of
    :class:`~repro.datalog.program.DatalogFact` objects), ``in``, ``len``,
    ``append``, ``discard``, :meth:`atoms` and :meth:`signature`.  Every
    mutation moves :attr:`version`, which is never shared between two
    stores: that is how a model notices a change it did not make.
    """

    __slots__ = ("interner", "rows", "version", "_kinds", "_signature")

    def __init__(self, atoms=(), interner=None):
        self.interner = Interner() if interner is None else interner
        self.rows = RowStore()
        encode = self.interner.encode_atom
        add_row = self.rows.add_row
        for atom in atoms:
            add_row(*encode(atom))
        self.version = next(_VERSIONS)
        self._kinds = []  # constant_kind per interned id, filled on demand
        self._signature = None

    @classmethod
    def of(cls, facts, interner):
        """*facts* as a store: itself when it is one (on its own interner),
        else a new store on *interner* of its
        :class:`~repro.datalog.program.DatalogFact` objects or ground
        atoms."""
        if isinstance(facts, cls):
            return facts
        store = cls(interner=interner)
        for fact in facts:
            store.append(DatalogFact(fact) if isinstance(fact, Atom) else fact)
        return store

    # -- batches -------------------------------------------------------------
    def batch(self, insertions=(), deletions=()):
        """The net change of a batch of ground atoms against the store as it
        stands, as an :class:`EdbBatch` (not yet written).  Set semantics:
        an atom both deleted and inserted stays, inserting a held atom and
        deleting an absent one are no-ops."""
        rows = self.rows
        encode, row_of = self.interner.encode_atom, self.interner.row_of
        plus = {encode(atom) for atom in insertions}
        minus = set()
        for atom in deletions:
            row = row_of(atom)
            fact = ((atom.predicate, len(atom.args)), row)
            if row is not None and fact in rows and fact not in plus:
                minus.add(fact)
        plus = {fact for fact in plus if fact not in rows}
        after = next(_VERSIONS) if plus or minus else self.version
        return EdbBatch(plus, minus, self.version, after)

    def write(self, batch):
        """Apply a batch made by :meth:`batch` on the store as it stands."""
        rows = self.rows
        for fact in batch.minus:
            rows.discard(fact)
        for fact in batch.plus:
            rows.add(fact)
        self.version = batch.after

    def unwrite(self, batch):
        """Undo a written batch (or a part-written one): rows, buckets and
        :attr:`version` are as they were before it."""
        rows = self.rows
        for fact in batch.plus:
            rows.discard(fact)
        for fact in batch.minus:
            rows.add(fact)
        self.version = batch.before

    # -- readers -------------------------------------------------------------
    def overlay(self, private=()):
        """A :class:`RowStore` over these facts for one program's
        evaluation: it holds this store's own relation objects, except for
        the *private* keys (the program's rule heads, which evaluation
        derives into), whose relations are copies."""
        store = RowStore()
        for key, relation in self.rows.items():
            store.share(key, relation.copy() if key in private else relation)
        return store

    def copy(self):
        """An independent store with the same rows, on the same interner."""
        other = EdbStore(interner=self.interner)
        for key, relation in self.rows.items():
            other.rows.share(key, relation.copy())
        return other

    def shared(self):
        """A store on the same interner that holds this store's very
        relation objects: a program over it reads these facts without a
        copy, and a fact it adds under a key this store lacks stays its
        own.  O(relations)."""
        other = EdbStore(interner=self.interner)
        other.rows = self.overlay()
        return other

    def signature(self):
        """What the static analyzer checks rules against:
        ``{(name, arity): (rows, a fact, columns)}``, one ``{kind: witness
        fact}`` map per column (kinds from
        :func:`~repro.datalog.interner.constant_kind`).  Kinds are read per
        distinct id of a column, not per fact.  Witnesses are deterministic
        — the least row, and in a column that mixes kinds the least row
        holding the least id of each kind — so the earliest-interned fact
        is cited.  Cached per version."""
        if self._signature is not None and self._signature[0] == self.version:
            return self._signature[1]
        kinds = self._kinds
        kinds.extend(map(constant_kind, self.interner.parameters[len(kinds):]))
        decode = self.interner.decode_row
        signature = {}
        for key, relation in self.rows.items():
            rows = relation.rows
            if not rows:
                continue
            witness = DatalogFact(decode(key[0], min(rows)))
            columns = []
            for position in range(key[1]):
                if relation._buckets is not None:
                    values = relation._buckets[position]
                else:
                    values = set(map(itemgetter(position), rows))
                found = {}
                for value in values:
                    kind = kinds[value]
                    if found.get(kind, value) >= value:
                        found[kind] = value
                columns.append({
                    kind: DatalogFact(decode(key[0], min(
                        row for row in rows if row[position] == value
                    ))) if len(found) > 1 else witness
                    for kind, value in found.items()
                })
            signature[key] = (len(rows), witness, tuple(columns))
        self._signature = (self.version, signature)
        return signature

    # -- the fact-list face ----------------------------------------------------
    def append(self, fact):
        """Add *fact* (a :class:`~repro.datalog.program.DatalogFact`).  A
        fact already held is a no-op and keeps the version."""
        if not isinstance(fact, DatalogFact):
            raise TypeError(f"expected a DatalogFact, got {fact!r}")
        if self.rows.add(self.interner.encode_atom(fact.atom)):
            self.version = next(_VERSIONS)

    def discard(self, atom):
        """Remove the fact of *atom*; return True when it was held."""
        row = self.interner.row_of(atom)
        if row is None or not self.rows.discard_row((atom.predicate, len(atom.args)), row):
            return False
        self.version = next(_VERSIONS)
        return True

    def atoms(self):
        """The held atoms, decoded relation by relation, each in row (id)
        order: deterministic, and close to the order the constants were
        first seen, so a store built from this sequence numbers related
        constants close together (hash order would scatter them, and the
        joins over such a store run measurably slower)."""
        decode = self.interner.decode_row
        for (predicate, _arity), relation in self.rows.items():
            for row in sorted(relation.rows):
                yield decode(predicate, row)

    def __iter__(self):
        return (DatalogFact(atom) for atom in self.atoms())

    def __contains__(self, item):
        """True for a held :class:`~repro.datalog.program.DatalogFact` or
        the atom of one."""
        if isinstance(item, DatalogFact):
            item = item.atom
        if not isinstance(item, Atom):
            return False
        row = self.interner.row_of(item)
        return row is not None and ((item.predicate, len(item.args)), row) in self.rows

    def __len__(self):
        return len(self.rows)

    def __repr__(self):
        return f"EdbStore({self.rows!r})"


def decode_world(store, interner):
    """Decode a :class:`RowStore` into a
    :class:`~repro.semantics.worlds.World`, seeding the world's
    per-predicate index in the same pass, so the result equals ``World``
    built from the same atoms without re-bucketing them on first use."""
    parameters = interner.parameters
    atoms = []
    buckets = {}
    for (predicate, _arity), relation in store.items():
        if not relation.rows:
            continue
        bucket = buckets.setdefault(predicate, [])
        for row in relation.rows:
            atom = fast_atom(predicate, tuple([parameters[i] for i in row]))
            atoms.append(atom)
            bucket.append(atom)
    world = World.__new__(World)
    world._atoms = frozenset(atoms)
    world._hash = hash(world._atoms)
    world._by_predicate = {
        predicate: tuple(bucket) for predicate, bucket in buckets.items()
    }
    return world


# -- the compiled id-space join ------------------------------------------------
#
# A schedule is compiled to a *generated Python function*: one nested
# ``for`` loop per positive body literal, with interned constant ids
# embedded as int literals, join variables held in local variables (no
# binding dict, no per-candidate copy), bucket probes hoisted to the loop
# that binds their prefix, and the non-duplicating ``old``/``delta`` source
# discipline emitted as plain membership guards.  The inner loop therefore
# executes only local loads, int compares and C-level dict/set operations —
# no Atom allocation and no Python-level ``__hash__`` dispatch — which is
# where the columnar backend's speedup over the object index comes from.


def _entry_expression(arg, slots, interner):
    """The generated-code expression for one id-space pattern entry: an int
    literal for a constant, the slot's local variable for a variable."""
    if isinstance(arg, Variable):
        return f"v{slots[arg]}"
    return repr(interner.intern(arg))


def _row_expression(args, slots, interner):
    """The generated-code tuple expression building a row from bound
    locals and constant ids."""
    if not args:
        return "()"
    parts = [_entry_expression(arg, slots, interner) for arg in args]
    return "(" + ", ".join(parts) + ("," if len(parts) == 1 else "") + ")"


def compile_schedule(rule, schedule, interner, mode="new", provenance=False,
                     within=()):
    """Compile a ``(literal, tag)`` schedule (the output of
    :meth:`DatalogEngine._schedule
    <repro.datalog.engine.DatalogEngine._schedule>`) into a join-pass
    function ``pass_(db, added, removed, out)``.

    *db* is the database the pass evaluates in; *added* and *removed* are
    the round's delta :class:`RowStore` objects.  The tags read them as:

    * ``"delta"`` — enumerate *added* for a positive literal and *removed*
      for a negated one (the literal whose support changed);
    * ``"old"`` — a positive literal's row is in *db* but not in *added*; a
      negated literal's row is absent from both *db* and *removed* (support
      unchanged — the literals before the delta position);
    * ``"full"`` — a positive literal's row is in *db*; a negated literal's
      row is absent from *db*.

    A store a schedule never reads may be passed as ``None``.  The output
    *mode* is a compile-time variant: ``"new"`` adds the derived ``(key,
    row)`` facts absent from *db* to the set *out* (the fixpoint's
    kernel); ``"count"`` tallies every derivation into the dict *out*,
    ``fact -> derivations`` (the maintainer's derivation counts);
    ``"probe"`` is the backward check of recursive maintenance.  A probe
    schedule is a rule's rederivation form (the head prepended to the body
    as the ``delta`` literal, the body ``full``), and the function is
    ``pass_(db, added, proved, out)``: for each candidate row of *added* it
    appends ``(fact, pending)`` to the list *out* for each derivation of
    the candidate in *db*, where *pending* lists the derivation's body
    facts of the *within* relations (a recursive component's) that are not
    in the set *proved*; a derivation with nothing pending proves the
    candidate and ends its search.

    Two more modes read both states of a write at once, *db* being the new
    one: the *old* state of a relation is the overlay of its rows in *db*
    not in *added*, plus its rows in *removed*, read in place (nothing is
    written).  ``"signed"`` is the telescoped delta of the counting
    algorithm (Gupta, Mumick and Subrahmanian, SIGMOD 1993): the ``old``
    literals (before the delta position) read the new state, the ``full``
    ones (after it) the old state, and the delta literal enumerates both
    its gained support (a derivation counts ``+1``) and its lost support
    (``-1``) into the dict *out*, so summed over the delta positions each
    head's entry is its net change in derivations.  ``"lost"`` tallies the
    derivations the write took away, each once: the delta literal
    enumerates only the lost support, the ``old`` literals read support
    unchanged as above and the ``full`` ones the old state.

    Every positive literal whose arguments the prefix binds completely is
    a membership test, not a bucket scan; a literal bound in part probes
    the buckets of its relation, looked up once in the prologue.

    With *provenance* (``"new"`` mode only) the generated function takes one
    extra parameter, ``rec``, called as ``rec((v0, ..., vN))`` — the bound
    slot values, in slot order — for each genuinely new derivation (inside
    the same absence guard that admits the fact).  The variable of each slot
    is published on the function as ``pass_.slot_variables``, so the caller
    can decode the values back into a binding; the non-provenance variant
    emits *no* extra code.
    """
    slots = {}
    for literal, _tag in schedule:
        for arg in literal.atom.args:
            if isinstance(arg, Variable) and arg not in slots:
                slots[arg] = len(slots)
    # How the body reads each literal: a negated non-delta literal is a
    # guard (None); any other is (probes, same_checks, binds) — the bound
    # positions with their id expressions, the positions repeating a
    # variable first bound within the literal, and the slots it binds.
    plans = []
    bound = set()
    for literal, tag in schedule:
        if not literal.positive and tag != "delta":
            plans.append(None)
            continue
        const_probes, var_probes, same_checks, binds = [], [], [], []
        seen_here = {}
        for position, arg in enumerate(literal.atom.args):
            if not isinstance(arg, Variable):
                const_probes.append((position, repr(interner.intern(arg))))
            elif arg in bound:
                var_probes.append((position, f"v{slots[arg]}"))
            elif arg in seen_here:
                # A repeat within this literal: its local is only assigned
                # inside the row loop, so compare the row positions directly.
                same_checks.append((position, seen_here[arg]))
            else:
                seen_here[arg] = position
                binds.append((position, slots[arg]))
        bound.update(seen_here)
        plans.append((const_probes + var_probes, same_checks, binds))
    # The state each non-delta tag reads: "new" (db), "unchanged" (db but
    # not added; for a negated literal, neither db nor removed) or "old"
    # (the overlay of db without added, plus removed).
    telescoped = mode in ("signed", "lost")
    reads = {
        "old": "new" if mode == "signed" else "unchanged",
        "full": "old" if telescoped else "new",
    }

    env = {"__EMPTY": {}, "__chain": chain}
    lines = []

    def emit(depth, text):
        lines.append("    " * depth + text)

    def rows_of(store, key_name, name):
        emit(1, f"__t = {store}.get({key_name})")
        emit(1, f"{name} = __t.rows if __t is not None else __EMPTY")

    def best_bucket(depth, name, relation, buckets, probes):
        # The smallest bucket consistent with the probes, or empty.
        emit(depth, f"{name} = {relation}.rows")
        for position, value in probes:
            emit(depth, f"__b = {buckets}[{position}].get({value})")
            emit(depth, "if not __b:")
            emit(depth + 1, f"{name} = __EMPTY")
            emit(depth, f"elif len(__b) < len({name}):")
            emit(depth + 1, f"{name} = __b")

    third = "proved" if mode == "probe" else "removed"
    parameters = f"db, added, {third}, out" + (", rec" if provenance else "")
    emit(0, f"def pass_({parameters}):")
    head_key_name = "__HK"
    env[head_key_name] = (rule.head.predicate, rule.head.arity)
    if mode == "new":
        emit(1, "__add = out.add")
        emit(1, f"__t = db.get({head_key_name})")
        emit(1, "__hr = __t.rows if __t is not None else __EMPTY")
    elif mode == "probe":
        emit(1, "__add = out.append")
    else:
        emit(1, "__get = out.get")
    for index, ((literal, tag), plan) in enumerate(zip(schedule, plans)):
        key_name = f"__K{index}"
        env[key_name] = (literal.atom.predicate, len(literal.atom.args))
        if plan is None:
            rows_of("db", key_name, f"__nr{index}")
            if reads[tag] != "new":
                rows_of("removed", key_name, f"__nx{index}")
            if reads[tag] == "old":
                rows_of("added", key_name, f"__na{index}")
            continue
        if tag == "delta" and telescoped:
            continue  # read inside the sign loop
        probes, same_checks, binds = plan
        read = "delta" if tag == "delta" else reads[tag]
        relation = f"__r{index}"
        if read == "old":
            # An empty relation in db may still have old rows in removed.
            env[f"__NOREL{index}"] = ColumnarRelation(len(literal.atom.args))
            emit(1, f"{relation} = db.get({key_name}) or __NOREL{index}")
            emit(1, f"__t = removed.get({key_name})")
            emit(1, f"__m{index} = __t if __t is not None and __t.rows else None")
            emit(1, f"if not {relation}.rows and __m{index} is None:")
            emit(2, "return")
            if probes and (binds or same_checks):
                emit(1, f"__bk{index} = {relation}.buckets")
                emit(1, f"__mk{index} = __m{index}.buckets if __m{index} is not None else None")
            if not (binds or same_checks):
                emit(1, f"__mx{index} = __m{index}.rows if __m{index} is not None else __EMPTY")
        else:
            # An empty enumerated relation admits no derivation at all.
            store = "db" if read != "delta" else "added" if literal.positive else "removed"
            emit(1, f"{relation} = {store}.get({key_name})")
            emit(1, f"if {relation} is None or not {relation}.rows:")
            emit(2, "return")
            if probes and (binds or same_checks):
                emit(1, f"__bk{index} = {relation}.buckets")
        if read in ("unchanged", "old"):
            rows_of("added", key_name, f"__sk{index}")

    # The body proper.  A one-iteration dummy loop makes guard `continue`s
    # valid even before the first real candidate loop; the telescoped
    # modes loop over the signed sources of the delta literal instead.
    if telescoped:
        literal = schedule[0][0]
        gained, lost = ("added", "removed") if literal.positive else ("removed", "added")
        sources = f"((1, {gained}), (-1, {lost}))" if mode == "signed" else f"((1, {lost}),)"
        emit(1, f"for __sg, __d in {sources}:")
        emit(2, "__r0 = __d.get(__K0)")
        emit(2, "if __r0 is None or not __r0.rows:")
        emit(3, "continue")
        probes, same_checks, binds = plans[0]
        if probes and (binds or same_checks):
            emit(2, "__bk0 = __r0.buckets")
    else:
        emit(1, "for __once in ((),):")
    loops = [1]  # the depth of every emitted `for`, outermost first
    candidate_loop = 0  # the loop enumerating a probe's candidates
    depth = 2
    for index, ((literal, tag), plan) in enumerate(zip(schedule, plans)):
        row = f"__row{index}"
        read = "delta" if tag == "delta" else reads[tag]
        if plan is None:
            row_expr = _row_expression(literal.atom.args, slots, interner)
            if read == "new":
                emit(depth, f"if {row_expr} in __nr{index}:")
            else:
                emit(depth, f"__n = {row_expr}")
                if read == "unchanged":
                    emit(depth, f"if __n in __nr{index} or __n in __nx{index}:")
                else:
                    emit(depth, f"if (__n in __nr{index} and __n not in __na{index})"
                                f" or __n in __nx{index}:")
            emit(depth + 1, "continue")
            continue
        probes, same_checks, binds = plan
        if not (binds or same_checks):
            # Bound throughout: one membership test.
            emit(depth, f"{row} = {_row_expression(literal.atom.args, slots, interner)}")
            test = f"{row} not in __r{index}.rows"
            if read in ("unchanged", "old"):
                test += f" or {row} in __sk{index}"
            if read == "old":
                test = f"({test}) and {row} not in __mx{index}"
            emit(depth, f"if {test}:")
            emit(depth + 1, "continue")
            continue
        if read == "old":
            best_bucket(depth, "__best", f"__r{index}", f"__bk{index}", probes)
            emit(depth, f"if __m{index} is not None:")
            best_bucket(depth + 1, "__mb", f"__m{index}", f"__mk{index}", probes)
            emit(depth + 1, "if __mb:")
            emit(depth + 2, "__best = __chain(__best, __mb)")
        else:
            emit(depth, f"__best = __r{index}.rows")
            for position, value in probes:
                emit(depth, f"__b = __bk{index}[{position}].get({value})")
                emit(depth, "if not __b:")
                emit(depth + 1, "continue")
                emit(depth, "if len(__b) < len(__best):")
                emit(depth + 1, "__best = __b")
        emit(depth, f"for {row} in __best:")
        if index == 0:
            candidate_loop = len(loops)
        loops.append(depth)
        depth += 1
        if read in ("unchanged", "old"):
            emit(depth, f"if {row} in __sk{index}:")
            emit(depth + 1, "continue")
        for position, value in probes:
            emit(depth, f"if {row}[{position}] != {value}:")
            emit(depth + 1, "continue")
        for position, first in same_checks:
            emit(depth, f"if {row}[{position}] != {row}[{first}]:")
            emit(depth + 1, "continue")
        for position, slot in binds:
            emit(depth, f"v{slot} = {row}[{position}]")

    head_expr = _row_expression(rule.head.args, slots, interner)
    if mode in ("count", "signed", "lost"):
        emit(depth, f"__f = ({head_key_name}, {head_expr})")
        step = "__sg" if telescoped else "1"
        emit(depth, f"out[__f] = __get(__f, 0) + {step}")
    elif mode == "probe":
        emit(depth, "__p = []")
        for index, (literal, _tag) in enumerate(schedule):
            key = (literal.atom.predicate, len(literal.atom.args))
            if index and literal.positive and key in within:
                emit(depth, f"__g = (__K{index}, __row{index})")
                emit(depth, "if __g not in proved:")
                emit(depth + 1, "__p.append(__g)")
        emit(depth, f"__add((({head_key_name}, {head_expr}), __p))")
        if len(loops) - 1 > candidate_loop:
            # Proved: leave every loop inside the candidate loop — each
            # `for` whose body broke out breaks its enclosing one in turn.
            emit(depth, "if not __p:")
            emit(depth + 1, "break")
            for level in range(len(loops) - 1, candidate_loop + 1, -1):
                emit(loops[level], "else:")
                emit(loops[level] + 1, "continue")
                emit(loops[level], "break")
    else:
        emit(depth, f"__h = {head_expr}")
        emit(depth, f"__f = ({head_key_name}, __h)")
        emit(depth, "if __f not in out and __h not in __hr:")
        emit(depth + 1, "__add(__f)")
        if provenance:
            ordered_slots = sorted(slots.values())
            values = ", ".join(f"v{slot}" for slot in ordered_slots)
            if len(ordered_slots) == 1:
                values += ","
            emit(depth + 1, f"rec(({values}))")

    code = compile("\n".join(lines), f"<columnar join: {rule}>", "exec")
    exec(code, env)
    pass_ = env["pass_"]
    pass_.slot_variables = tuple(sorted(slots, key=slots.get))
    return pass_


def compiled_for(cache, rule, delta_position, schedule, interner, mode="new",
                 provenance=False, within=()):
    """The generated join-pass function for one (rule, delta position,
    schedule, mode, provenance, within) combination, memoized in *cache* —
    schedules stabilise after a round or two, so generation is paid once
    per distinct plan."""
    key = (rule, delta_position, tuple(schedule), mode, provenance, frozenset(within))
    compiled = cache.get(key)
    if compiled is None:
        compiled = compile_schedule(
            rule, schedule, interner, mode, provenance, within
        )
        cache[key] = compiled
    return compiled


def fresh_delta(new_facts):
    """Build the round delta :class:`RowStore` from new ``(key, row)``
    facts in bulk: rows are grouped straight into each relation's
    membership set in one pass (probe buckets are built on demand)."""
    by_key = {}
    for key, row in new_facts:
        rows = by_key.get(key)
        if rows is None:
            by_key[key] = {row}
        else:
            rows.add(row)
    store = RowStore()
    relations = store._relations
    for key, rows in by_key.items():
        relation = relations[key] = ColumnarRelation(key[1])
        relation.rows = rows
    return store


def _edge_recorder(sink, rule, slot_variables, parameters):
    """A per-pass closure decoding one compiled-join provenance callback —
    the bound slot values, in slot order — back into atom space and feeding
    the engine's provenance sink with ``(head, rule, ground positive
    body)``."""
    head_args = rule.head.args
    positive_atoms = [literal.atom for literal in rule.body if literal.positive]

    def record(values):
        binding = {
            variable: parameters[value]
            for variable, value in zip(slot_variables, values)
        }
        head = fast_atom(
            rule.head.predicate,
            tuple(
                binding[arg] if isinstance(arg, Variable) else arg
                for arg in head_args
            ),
        )
        body = tuple(
            fast_atom(
                atom.predicate,
                tuple(
                    binding[arg] if isinstance(arg, Variable) else arg
                    for arg in atom.args
                ),
            )
            for atom in positive_atoms
        )
        sink(head, rule, body)

    return record


def columnar_fixpoint(engine, rules, store, interner, cache):
    """The engine's indexed semi-naive fixpoint in id space: the
    non-duplicating round/pass structure (and statistics counters) of the
    ``semi-naive`` oracle, with joins planned from the live statistics of
    *store* (:meth:`RowStore.selectivity`) and executed by the generated
    pass functions over it.

    The statistics are read only where the planner has a choice
    (:func:`~repro.datalog.stats.planned_reads`): such a pass is planned
    again every round it runs, against the store as the previous round
    left it, so every plan is the one a fresh snapshot of the whole store
    gives.  A pass with a fixed order is planned once per call.

    When the engine's provenance sink is armed, the provenance variants of
    the compiled joins are used instead (see :func:`compile_schedule`); the
    default path runs the exact generated code it always did.
    """
    statistics = engine.statistics
    tracer = engine.tracer
    sink = engine._provenance_sink
    recording = sink is not None
    parameters = interner.parameters
    # The fixpoint never retracts: its negated literals read no removals.
    nothing = RowStore()
    fixed = {}  # (rule id, delta position) -> the kernel of a fixed-order pass

    def join_for(rule, delta_position):
        key = (id(rule), delta_position)
        join = fixed.get(key)
        if join is None:
            schedule = engine._schedule(rule, delta_position=delta_position, stats=store)
            join = compiled_for(
                cache, rule, delta_position, schedule, interner, provenance=recording
            )
            if not planned_reads(rule, delta_position):
                fixed[key] = join
        return join

    delta = None
    first_round = True
    while True:
        statistics.iterations += 1
        round_span = tracer.span("fixpoint.round", iteration=statistics.iterations)
        with round_span:
            new_facts = set()
            for rule in rules:
                if first_round:
                    statistics.rule_applications += 1
                    join = join_for(rule, None)
                    with tracer.span("join.pass", rule=rule.head.predicate):
                        if recording:
                            join(store, None, nothing, new_facts, _edge_recorder(
                                sink, rule, join.slot_variables, parameters
                            ))
                        else:
                            join(store, None, nothing, new_facts)
                    continue
                produced_this_rule = set()
                for delta_position, literal in enumerate(rule.body):
                    if not literal.positive:
                        continue
                    if not delta.count(literal.atom.predicate, len(literal.atom.args)):
                        statistics.delta_passes_skipped += 1
                        continue
                    statistics.rule_applications += 1
                    join = join_for(rule, delta_position)
                    with tracer.span(
                        "join.pass",
                        rule=rule.head.predicate,
                        delta_position=delta_position,
                    ):
                        if recording:
                            join(store, delta, nothing, produced_this_rule,
                                 _edge_recorder(
                                     sink, rule, join.slot_variables, parameters
                                 ))
                        else:
                            join(store, delta, nothing, produced_this_rule)
                new_facts |= produced_this_rule
            round_span.annotate(facts_derived=len(new_facts))
        if not new_facts:
            return
        statistics.facts_derived += len(new_facts)
        delta = fresh_delta(new_facts)
        store.absorb(delta)
        first_round = False
