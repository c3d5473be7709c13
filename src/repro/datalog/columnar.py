"""Columnar interned fact storage: dense-id relations for the Datalog engine.

The object storage layer (:mod:`repro.datalog.index`) stores facts as hash
sets of :class:`~repro.logic.syntax.Atom` objects.  That is the right API
surface — every caller speaks atoms — but the wrong inner loop: each join
probe pays a Python-level ``__hash__``/``__eq__`` on atoms and parameters,
each derived head allocates an ``Atom``, and the resident model is a graph
of millions of small objects the cyclic GC must keep re-tracing (the ~20x
GC tax measured in the PR 5 benchmarks).

This module keeps the surface and replaces the loop.  Constants are
interned to dense integer ids (:mod:`repro.datalog.interner`), and facts
become **rows** — tuples of ids — living in per-``(predicate, arity)``
:class:`ColumnarRelation` instances:

* a **membership set** of id tuples (int tuples hash at C speed — no
  Python ``__hash__`` dispatch);
* per-argument-position **columns** (``array('q')`` — one machine word per
  value, no per-value object overhead), materialised lazily from the live
  rows for compact export (:meth:`RowStore.to_arrays` — the int-array form
  sharded delta exchange ships instead of pickled atom objects);
* per-position **bucket maps** ``id -> set of rows``, the same probe
  structure :class:`~repro.datalog.index.FactIndex` keeps per value, so
  the engine's greedy bound-prefix planning carries over unchanged.

Three faces are exposed, innermost first:

* :class:`RowStore` — a set of ``(key, row)`` facts with the FactIndex
  method surface (``add``/``absorb``/``discard``/``retract_all``/
  ``candidates``/``histogram``/``selectivity``/iteration), used by the
  incremental maintenance drivers, which treat facts as opaque tokens;
* the **compiled join** (:func:`compile_schedule` / :func:`compiled_for` /
  :func:`columnar_fixpoint`) — the engine's semi-naive indexed fixpoint
  with each rule-body schedule *generated as a specialized Python
  function* (constants become int literals, variables become locals), so
  the inner loop compares machine ints instead of unifying atom objects
  and never allocates a dict or an ``Atom`` per candidate;
* :class:`ColumnarFactIndex` — the public Atom-face drop-in for
  :class:`~repro.datalog.index.FactIndex`: atoms in, atoms out (decoded to
  the identical interned parameter objects), rows inside.

Everything here is selected by ``storage="columnar"`` on
:class:`~repro.datalog.engine.DatalogEngine`,
:class:`~repro.datalog.incremental.MaterializedModel`,
:class:`~repro.datalog.shard.ShardedFactIndex` and
``EpistemicDatabase.datalog_view``; ``storage="objects"`` keeps the
original representation, and the two are property-tested equivalent
(``tests/test_datalog_columnar.py``).
"""

from array import array

from repro.datalog.interner import Interner, fast_atom
from repro.logic.terms import Variable
from repro.semantics.worlds import World

EMPTY = frozenset()


class ColumnarRelation:
    """The rows of one ``(predicate, arity)`` relation.

    ``rows`` is the membership structure — a set of id tuples, hashed and
    compared at C speed.  The two derived structures are materialised
    lazily from it and kept consistent only while they exist:

    * :attr:`buckets` — one ``id -> set of rows`` map per argument
      position, the probe structure mirroring
      :class:`~repro.datalog.index.FactIndex`'s per-value buckets (emptied
      value buckets are dropped so distinct-value counts stay honest).
      Built on first probe; short-lived relations that are only ever
      enumerated — the per-round semi-naive deltas — never pay for them.
    * :attr:`columns` — one ``array('q')`` per position, the at-rest /
      exchange face (:meth:`RowStore.to_arrays`); machine-word compactness
      is paid only when rows are actually shipped.
    """

    __slots__ = ("arity", "rows", "_buckets", "_columns")

    def __init__(self, arity):
        self.arity = arity
        self.rows = set()
        self._buckets = None
        self._columns = None

    @property
    def buckets(self):
        """The per-position ``id -> set of rows`` probe maps, built on
        demand from the live rows (treat as read-only)."""
        buckets = self._buckets
        if buckets is None:
            buckets = self._buckets = tuple({} for _ in range(self.arity))
            for row in self.rows:
                for bucket, value in zip(buckets, row):
                    owners = bucket.get(value)
                    if owners is None:
                        bucket[value] = {row}
                    else:
                        owners.add(row)
        return buckets

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

    def add(self, row):
        """Insert *row*; return True when it was not already present."""
        rows = self.rows
        if row in rows:
            return False
        rows.add(row)
        buckets = self._buckets
        if buckets is not None:
            for bucket, value in zip(buckets, row):
                owners = bucket.get(value)
                if owners is None:
                    bucket[value] = {row}
                else:
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
            for bucket, value in zip(buckets, row):
                owners = bucket.get(value)
                if owners is not None:
                    owners.discard(row)
                    if not owners:
                        del bucket[value]
        self._columns = None
        return True

    def absorb(self, other):
        """Merge another relation of the same arity set-wise, assuming
        disjointness (the semi-naive delta guarantee) — the columnar
        counterpart of :meth:`FactIndex.absorb
        <repro.datalog.index.FactIndex.absorb>`.  Materialised probe
        buckets are maintained in place: bucket-wise when *other* has its
        own, row-wise when it was enumeration-only (the typical delta)."""
        buckets = self._buckets
        if buckets is not None:
            theirs = other._buckets
            if theirs is not None:
                for bucket, their_bucket in zip(buckets, theirs):
                    for value, owners in their_bucket.items():
                        mine = bucket.get(value)
                        if mine is None:
                            bucket[value] = set(owners)
                        else:
                            mine |= owners
            else:
                for row in other.rows:
                    for bucket, value in zip(buckets, row):
                        owners = bucket.get(value)
                        if owners is None:
                            bucket[value] = {row}
                        else:
                            owners.add(row)
        self.rows |= other.rows
        self._columns = None
        return self

    def best_bucket(self, bound):
        """The smallest bucket consistent with *bound* ``(position, id)``
        pairs — a superset of the matching rows, empty as soon as any bound
        position has no rows with that id (mirrors
        :meth:`FactIndex.candidates <repro.datalog.index.FactIndex.candidates>`)."""
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

    def histogram(self, position):
        """``id -> row count`` for one argument position."""
        return {value: len(owners) for value, owners in self.buckets[position].items()}

    def histogram_sizes(self, position):
        """Just the bucket sizes of one argument position, as a list (what
        the planner refresh consumes)."""
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
    arity)`` pair, ``row`` a tuple of interned ids — offering the
    :class:`~repro.datalog.index.FactIndex` method surface over opaque
    row facts plus a key-explicit hot face (:meth:`get`) for the compiled
    join."""

    __slots__ = ("_relations", "_size")

    def __init__(self, facts=()):
        self._relations = {}
        self._size = 0
        self.add_all(facts)

    # -- hot face ------------------------------------------------------------
    def get(self, key):
        """The :class:`ColumnarRelation` of *key*, or ``None`` — the direct
        probe of the compiled join's inner loop."""
        return self._relations.get(key)

    def items(self):
        """``(key, relation)`` pairs (treat the relations as read-only)."""
        return self._relations.items()

    # -- construction --------------------------------------------------------
    def add_row(self, key, row):
        """Insert one row under *key*; return True when it was new."""
        relation = self._relations.get(key)
        if relation is None:
            relation = ColumnarRelation(key[1])
            self._relations[key] = relation
        if relation.add(row):
            self._size += 1
            return True
        return False

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
            self._size += len(theirs)
        return self

    # -- deletion ------------------------------------------------------------
    def discard_row(self, key, row):
        """Remove one row; return True when it was present."""
        relation = self._relations.get(key)
        if relation is not None and relation.discard(row):
            self._size -= 1
            return True
        return False

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

    def retract_all(self, other):
        """Subtract another :class:`RowStore`; rows not held here are
        ignored.  Returns how many rows were removed."""
        removed = 0
        for key, theirs in other._relations.items():
            mine = self._relations.get(key)
            if mine is None:
                continue
            for row in theirs.rows:
                if mine.discard(row):
                    removed += 1
        self._size -= removed
        return removed

    # -- lookup --------------------------------------------------------------
    def __contains__(self, fact):
        relation = self._relations.get(fact[0])
        return relation is not None and fact[1] in relation.rows

    def __len__(self):
        return self._size

    def __iter__(self):
        for key, relation in self._relations.items():
            for row in relation.rows:
                yield (key, row)

    def __bool__(self):
        return self._size > 0

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
        generator of row facts (the driver face the incremental maintenance
        passes probe)."""
        key = (predicate, arity)
        relation = self._relations.get(key)
        if relation is None:
            return iter(EMPTY)
        return ((key, row) for row in relation.best_bucket(bound))

    def histogram(self, predicate, arity, position):
        """``id -> row count`` for one argument position of
        ``predicate/arity`` (empty for an unknown relation)."""
        relation = self._relations.get((predicate, arity))
        return relation.histogram(position) if relation is not None else {}

    def histogram_sizes(self, predicate, arity, position):
        """Just the bucket sizes of one argument position (the planner
        refresh face)."""
        relation = self._relations.get((predicate, arity))
        return relation.histogram_sizes(position) if relation is not None else []

    def selectivity(self, predicate, arity, positions):
        """The uniform-distribution estimate of
        :meth:`FactIndex.selectivity
        <repro.datalog.index.FactIndex.selectivity>`, numerically identical
        under the id <-> parameter bijection (same cardinalities, same
        distinct counts), so both storages produce the same join plans."""
        relation = self._relations.get((predicate, arity))
        if relation is None or not relation.rows:
            return 0.0
        estimate = float(len(relation.rows))
        for position in positions:
            distinct = len(relation.buckets[position])
            if distinct > 1:
                estimate /= distinct
        return estimate

    # -- array exchange ------------------------------------------------------
    def to_arrays(self):
        """Export every relation as ``{key: (count, [array('q'), ...])}`` —
        one machine-word array per column.  This is the compact shipping
        form for shard exchange: no atom objects, no per-value boxing, and
        ``array`` supports zero-copy buffer transport."""
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
        return f"RowStore({self._size} rows; {rendered})"


class ColumnarFactIndex:
    """The Atom-face drop-in for :class:`~repro.datalog.index.FactIndex`
    backed by a :class:`RowStore` and an :class:`Interner`.

    Atoms go in (encoded to id rows), atoms come out (decoded to the
    identical interned parameter objects); every method of the FactIndex
    contract is preserved, including bucket-wise :meth:`absorb` /
    :meth:`retract_all` fast paths when both sides share an interner.
    """

    __slots__ = ("_interner", "_store")

    def __init__(self, atoms=(), interner=None):
        self._interner = interner if interner is not None else Interner()
        self._store = RowStore()
        self.add_all(atoms)

    @classmethod
    def from_store(cls, store, interner):
        """Wrap an existing :class:`RowStore` (no copy) — the engine's
        zero-cost handoff from the id-space fixpoint to the Atom-face
        index."""
        index = cls.__new__(cls)
        index._interner = interner
        index._store = store
        return index

    @property
    def interner(self):
        """The shared symbol table (one per engine / model / shard group)."""
        return self._interner

    @property
    def store(self):
        """The backing :class:`RowStore` (the id-space face)."""
        return self._store

    # -- construction --------------------------------------------------------
    def add(self, atom):
        """Insert *atom*; return True when it was not already present."""
        key, row = self._interner.encode_atom(atom)
        return self._store.add_row(key, row)

    def add_all(self, atoms):
        """Insert every atom; return how many were new."""
        added = 0
        encode = self._interner.encode_atom
        store = self._store
        for atom in atoms:
            key, row = encode(atom)
            if store.add_row(key, row):
                added += 1
        return added

    def absorb(self, other):
        """Merge another index; relation/bucket-wise (no re-encoding) when
        *other* is columnar over the same interner and assumed disjoint,
        atom-by-atom otherwise."""
        if isinstance(other, ColumnarFactIndex) and other._interner is self._interner:
            self._store.absorb(other._store)
            return self
        self.add_all(iter(other))
        return self

    # -- deletion ------------------------------------------------------------
    def discard(self, atom):
        """Remove *atom*; return True when it was present."""
        row = self._interner.row_of(atom)
        if row is None:
            return False
        return self._store.discard_row((atom.predicate, len(atom.args)), row)

    def discard_all(self, atoms):
        """Remove every atom; return how many were actually present."""
        removed = 0
        for atom in atoms:
            if self.discard(atom):
                removed += 1
        return removed

    def retract_all(self, other):
        """Subtract another index; row-wise (no re-encoding) when *other*
        is columnar over the same interner.  Returns how many facts were
        removed."""
        if isinstance(other, ColumnarFactIndex) and other._interner is self._interner:
            return self._store.retract_all(other._store)
        return self.discard_all(iter(other))

    # -- lookup --------------------------------------------------------------
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

    def __bool__(self):
        return bool(self._store)

    def relations(self):
        """The set of ``(predicate, arity)`` keys with at least one fact."""
        return self._store.relations()

    def relation(self, predicate, arity):
        """All facts of ``predicate/arity``, decoded (a new set)."""
        parameters = self._interner.parameters
        return {
            fast_atom(predicate, tuple([parameters[i] for i in row]))
            for row in self._store.relation(predicate, arity)
        }

    def count(self, predicate, arity):
        """How many facts of ``predicate/arity`` are held."""
        return self._store.count(predicate, arity)

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

    def histogram(self, predicate, arity, position):
        """The bucket-size histogram of one argument position, keyed by
        decoded parameter (the FactIndex contract)."""
        parameter = self._interner.parameter
        return {
            parameter(value): size
            for value, size in self._store.histogram(predicate, arity, position).items()
        }

    def histogram_sizes(self, predicate, arity, position):
        """Just the bucket sizes of one argument position — no decoding
        needed, sizes are representation-independent."""
        return self._store.histogram_sizes(predicate, arity, position)

    def bucket_size(self, predicate, arity, position, value):
        """How many facts of ``predicate/arity`` carry the parameter
        *value* at argument *position* (O(1); the FactIndex contract)."""
        relation = self._store.get((predicate, arity))
        ident = self._interner.id_of(value)
        if relation is None or ident is None:
            return 0
        return len(relation.buckets[position].get(ident, EMPTY))

    def selectivity(self, predicate, arity, positions):
        """The uniform-distribution selectivity estimate (numerically equal
        to the object index's on the same fact set)."""
        return self._store.selectivity(predicate, arity, positions)

    def __repr__(self):
        rendered = ", ".join(
            f"{predicate}/{arity}:{len(relation.rows)}"
            for (predicate, arity), relation in sorted(self._store.items())
        )
        return f"ColumnarFactIndex({len(self._store)} facts; {rendered})"


def decode_world(stores, interner):
    """Decode one or more :class:`RowStore` / :class:`ColumnarRelation`
    holders into a :class:`~repro.semantics.worlds.World`, seeding the
    world's per-predicate index in the same pass (the columnar analogue of
    :meth:`World.from_fact_index <repro.semantics.worlds.World.from_fact_index>`)."""
    if isinstance(stores, RowStore):
        stores = (stores,)
    parameters = interner.parameters
    atoms = []
    buckets = {}
    for store in stores:
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
#
# The generated function takes tuples of :class:`RowStore` fragments:
# ``sources`` form the full database (one store sequentially; the shard
# stores plus a private overlay under the parallel scheduler), ``delta_enum``
# is what the ``"delta"`` step enumerates (one slice under shard fan-out)
# and ``delta_full`` the whole round delta consulted by the ``"old"``
# discipline — exactly the split :class:`~repro.datalog.parallel._DeltaShard`
# makes on the object path.  Store-fragment counts are baked into the
# generated membership chains, so the compilation cache keys on them.


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


def compile_schedule(rule, schedule, interner, shape=(1, 0), provenance=False):
    """Compile a ``(literal, source)`` schedule (the output of
    :meth:`DatalogEngine._schedule
    <repro.datalog.engine.DatalogEngine._schedule>`) into a join-pass
    function ``pass_(sources, delta_full, delta_enum, out)`` that adds the
    derived ``(key, row)`` facts not already stored to *out* (a set).

    *shape* is ``(len(sources), len(delta_full))`` — membership chains over
    the store fragments are unrolled at generation time.

    With *provenance* the generated function takes one extra parameter,
    ``rec``, called as ``rec((v0, ..., vN))`` — the bound slot values, in
    slot order — for each genuinely new derivation (inside the same absence
    guard that admits the fact).  The variable of each slot is published on
    the function as ``pass_.slot_variables``, so the driver can decode the
    values back into a binding; the non-provenance variant emits *no* extra
    code, keeping the default inner loop byte-for-byte unchanged.
    """
    source_count, delta_count = shape
    slots = {}
    for literal, _source in schedule:
        for arg in literal.atom.args:
            if isinstance(arg, Variable) and arg not in slots:
                slots[arg] = len(slots)
    env = {"__EMPTY": {}}
    lines = []

    def emit(depth, text):
        lines.append("    " * depth + text)

    parameters = "sources, delta_full, delta_enum, out" + (
        ", rec" if provenance else ""
    )
    emit(0, f"def pass_({parameters}):")
    emit(1, "__add = out.add")
    head_key_name = "__HK"
    env[head_key_name] = (rule.head.predicate, rule.head.arity)
    for fragment in range(source_count):
        emit(1, f"__t = sources[{fragment}].get({head_key_name})")
        emit(1, f"__hr{fragment} = __t.rows if __t is not None else __EMPTY")
    for index, (literal, source) in enumerate(schedule):
        key_name = f"__K{index}"
        env[key_name] = (literal.atom.predicate, len(literal.atom.args))
        if literal.positive:
            pool = "delta_enum" if source == "delta" else "sources"
            emit(1, f"__p{index} = []")
            emit(1, f"for __s in {pool}:")
            emit(2, f"__r = __s.get({key_name})")
            emit(2, "if __r is not None and __r.rows:")
            emit(3, f"__p{index}.append(__r)")
            if source == "old":
                for fragment in range(delta_count):
                    emit(1, f"__t = delta_full[{fragment}].get({key_name})")
                    emit(1, f"__sk{index}_{fragment} = "
                            "__t.rows if __t is not None else __EMPTY")
        else:
            for fragment in range(source_count):
                emit(1, f"__t = sources[{fragment}].get({key_name})")
                emit(1, f"__nr{index}_{fragment} = "
                        "__t.rows if __t is not None else __EMPTY")

    # The body proper: a one-iteration dummy loop makes guard `continue`s
    # valid even before the first real candidate loop.
    emit(1, "for __once in ((),):")
    depth = 2
    bound = set()
    for index, (literal, source) in enumerate(schedule):
        atom = literal.atom
        if not literal.positive:
            row_expr = _row_expression(atom.args, slots, interner)
            emit(depth, f"__n = {row_expr}")
            membership = " or ".join(
                f"__n in __nr{index}_{fragment}" for fragment in range(source_count)
            )
            emit(depth, f"if {membership}:")
            emit(depth + 1, "continue")
            continue
        const_probes = []
        var_probes = []
        const_checks = []
        var_checks = []
        same_checks = []
        binds = []
        seen_here = {}
        for position, arg in enumerate(atom.args):
            if isinstance(arg, Variable):
                slot = slots[arg]
                if arg in bound:
                    var_probes.append((position, slot))
                    var_checks.append((position, slot))
                elif arg in seen_here:
                    # A repeat within this literal: its local is only
                    # assigned inside the row loop, so compare the row
                    # positions directly instead of probing/checking v{slot}.
                    same_checks.append((position, seen_here[arg]))
                else:
                    seen_here[arg] = position
                    binds.append((position, slot))
            else:
                ident = interner.intern(arg)
                const_probes.append((position, ident))
                const_checks.append((position, ident))
        bound.update(seen_here)
        emit(depth, f"for __r in __p{index}:")
        depth += 1
        emit(depth, "__best = __r.rows")
        if const_probes or var_probes:
            emit(depth, "__bk = __r.buckets")
            for position, ident in const_probes:
                emit(depth, f"__b = __bk[{position}].get({ident})")
                emit(depth, "if not __b:")
                emit(depth + 1, "continue")
                emit(depth, "if len(__b) < len(__best):")
                emit(depth + 1, "__best = __b")
            for position, slot in var_probes:
                emit(depth, f"__b = __bk[{position}].get(v{slot})")
                emit(depth, "if not __b:")
                emit(depth + 1, "continue")
                emit(depth, "if len(__b) < len(__best):")
                emit(depth + 1, "__best = __b")
        row = f"__row{index}"
        emit(depth, f"for {row} in __best:")
        depth += 1
        if source == "old" and delta_count:
            membership = " or ".join(
                f"{row} in __sk{index}_{fragment}" for fragment in range(delta_count)
            )
            emit(depth, f"if {membership}:")
            emit(depth + 1, "continue")
        for position, ident in const_checks:
            emit(depth, f"if {row}[{position}] != {ident}:")
            emit(depth + 1, "continue")
        for position, slot in var_checks:
            emit(depth, f"if {row}[{position}] != v{slot}:")
            emit(depth + 1, "continue")
        for position, first in same_checks:
            emit(depth, f"if {row}[{position}] != {row}[{first}]:")
            emit(depth + 1, "continue")
        for position, slot in binds:
            emit(depth, f"v{slot} = {row}[{position}]")

    head_expr = _row_expression(rule.head.args, slots, interner)
    emit(depth, f"__h = {head_expr}")
    emit(depth, f"__f = ({head_key_name}, __h)")
    absent = " and ".join(
        ["__f not in out"]
        + [f"__h not in __hr{fragment}" for fragment in range(source_count)]
    )
    emit(depth, f"if {absent}:")
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


def compiled_for(cache, rule, delta_position, schedule, interner, shape=(1, 0),
                 provenance=False):
    """The generated join-pass function for one (rule, delta position,
    schedule, fragment shape, provenance) combination, memoized in *cache* —
    schedules stabilise after a round or two, so generation is paid once per
    distinct plan."""
    key = (rule, delta_position, tuple(schedule), shape, provenance)
    compiled = cache.get(key)
    if compiled is None:
        compiled = compile_schedule(rule, schedule, interner, shape, provenance)
        cache[key] = compiled
    return compiled


def fresh_delta(new_facts):
    """Build the round delta :class:`RowStore` from a set of new ``(key,
    row)`` facts in bulk: rows are grouped per relation and the membership
    set and buckets are built in single passes (the facts are already
    deduplicated, so no per-row presence checks are needed)."""
    by_key = {}
    for key, row in new_facts:
        rows = by_key.get(key)
        if rows is None:
            by_key[key] = rows = []
        rows.append(row)
    store = RowStore()
    for key, rows in by_key.items():
        relation = ColumnarRelation(key[1])
        relation.rows = set(rows)
        store._relations[key] = relation
        store._size += len(rows)
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
    """The engine's indexed semi-naive fixpoint in id space: the exact
    round/pass structure (and statistics counters) of
    :meth:`DatalogEngine._indexed_fixpoint
    <repro.datalog.engine.DatalogEngine._indexed_fixpoint>`, with joins
    executed by the generated pass functions over *store*.

    When the engine's provenance sink is armed, the provenance variants of
    the compiled joins are used instead (see :func:`compile_schedule`); the
    default path runs the exact generated code it always did.
    """
    statistics = engine.statistics
    tracer = engine.tracer
    sink = engine._provenance_sink
    recording = sink is not None
    parameters = interner.parameters
    sources = (store,)
    delta = None
    delta_sources = ()
    first_round = True
    while True:
        statistics.iterations += 1
        round_span = tracer.span("fixpoint.round", iteration=statistics.iterations)
        with round_span:
            stats = engine._planner_stats(store)
            new_facts = set()
            for rule in rules:
                if first_round:
                    statistics.rule_applications += 1
                    schedule = engine._schedule(rule, index=store, stats=stats)
                    join = compiled_for(
                        cache, rule, None, schedule, interner, (1, 0), recording
                    )
                    with tracer.span("join.pass", rule=rule.head.predicate):
                        if recording:
                            join(sources, (), (), new_facts, _edge_recorder(
                                sink, rule, join.slot_variables, parameters
                            ))
                        else:
                            join(sources, (), (), new_facts)
                    continue
                produced_this_rule = set()
                for delta_position, literal in enumerate(rule.body):
                    if not literal.positive:
                        continue
                    if not delta.count(literal.atom.predicate, len(literal.atom.args)):
                        statistics.delta_passes_skipped += 1
                        continue
                    statistics.rule_applications += 1
                    schedule = engine._schedule(
                        rule, delta_position=delta_position, index=store, stats=stats
                    )
                    join = compiled_for(
                        cache, rule, delta_position, schedule, interner, (1, 1),
                        recording,
                    )
                    with tracer.span(
                        "join.pass",
                        rule=rule.head.predicate,
                        delta_position=delta_position,
                    ):
                        if recording:
                            join(
                                sources, delta_sources, delta_sources,
                                produced_this_rule,
                                _edge_recorder(
                                    sink, rule, join.slot_variables, parameters
                                ),
                            )
                        else:
                            join(
                                sources, delta_sources, delta_sources,
                                produced_this_rule,
                            )
                new_facts |= produced_this_rule
            round_span.annotate(facts_derived=len(new_facts))
        if not new_facts:
            return
        statistics.facts_derived += len(new_facts)
        delta = fresh_delta(new_facts)
        delta_sources = (delta,)
        store.absorb(delta)
        first_round = False
