"""Hash-partitioned fact indexes: the storage substrate of parallel evaluation.

A :class:`ShardedFactIndex` distributes the buckets of a
:class:`~repro.datalog.index.FactIndex` across *N* shards.  The partition
key is a **stable hash of** ``(predicate, first argument)`` — stable meaning
CRC-based, independent of ``PYTHONHASHSEED``, identical run to run — which
makes one shard both

* the unit of **data distribution**: all facts of a predicate carrying the
  same first argument live together, so a join probe whose first position is
  bound (the overwhelmingly common case under the engine's greedy
  bound-prefix scheduling) touches exactly one shard, and
* the unit of **parallel work**: a semi-naive round's delta splits into
  per-shard sub-deltas whose join passes are independent and can be fanned
  out across a worker pool (:mod:`repro.datalog.parallel`), the per-shard
  result sets merging by plain set union — a deterministic reduction, since
  the least model is a set.

The class is a drop-in for :class:`~repro.datalog.index.FactIndex` wherever
the engine reads or writes facts: it implements the same construction
(``add`` / ``add_all`` / ``absorb``), deletion (``discard`` / ``discard_all``
/ ``retract_all``) and lookup (``candidates`` / ``histogram`` /
``selectivity`` / ``relations`` / ``count`` / containment / iteration)
surface.  ``absorb`` merges **bucket-wise per shard** when both sides share
a partitioning (the per-round delta merge of the parallel fixpoint hits
this fast path); deletion (``retract_all``, the DRed overdeletion of
:class:`~repro.datalog.incremental.MaterializedModel`) routes each fact to
its owning shard, so only the shards a batch touches do any work.
Per-shard histograms merge into the global
:class:`~repro.datalog.stats.JoinStatistics` snapshots without the planner
knowing the index is sharded.

Skewed workloads (a hot predicate, a hub first-argument value) can leave
one shard much fuller than the rest; :meth:`ShardedFactIndex.skew` measures
this and :meth:`ShardedFactIndex.repartition` /
:meth:`ShardedFactIndex.rebalance` re-hash the facts into a different shard
count or with a different salt.  Repartitioning never changes the *set* of
facts, so evaluation results are unaffected — only the distribution of
work.
"""

from itertools import chain
from zlib import crc32

from repro.datalog.columnar import ColumnarFactIndex, RowStore
from repro.datalog.index import FactIndex
from repro.datalog.interner import Interner

#: default shard count of :class:`ShardedFactIndex` (and of the engine's
#: ``strategy="parallel"``) when none is given.
DEFAULT_SHARDS = 4


class ShardedFactIndex:
    """A mutable set of ground atoms partitioned across N shards by stable
    hash of ``(predicate, first argument)``.

    ``storage`` selects the per-shard backend: ``"objects"`` gives
    :class:`~repro.datalog.index.FactIndex` shards, ``"columnar"`` gives
    :class:`~repro.datalog.columnar.ColumnarFactIndex` shards over one
    shared :class:`~repro.datalog.interner.Interner` (pass ``interner`` to
    share ids with an engine; one is created otherwise).  The surface is
    identical either way."""

    __slots__ = ("_shards", "_counts", "_salt", "_storage", "_interner")

    def __init__(self, atoms=(), shards=DEFAULT_SHARDS, salt=0,
                 storage="objects", interner=None):
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if storage not in ("objects", "columnar"):
            raise ValueError(f"storage must be 'objects' or 'columnar', got {storage!r}")
        if storage == "columnar":
            interner = interner if interner is not None else Interner()
            self._shards = tuple(
                ColumnarFactIndex(interner=interner) for _ in range(shards)
            )
        else:
            if interner is not None:
                raise ValueError("interner is only meaningful with storage='columnar'")
            self._shards = tuple(FactIndex() for _ in range(shards))
        self._storage = storage
        self._interner = interner
        # (predicate, arity) -> fact count across all shards, kept eagerly so
        # count()/relations() never fan out.
        self._counts = {}
        self._salt = salt
        self.add_all(atoms)

    # -- partitioning --------------------------------------------------------
    @property
    def shard_count(self):
        """How many shards the index is partitioned into."""
        return len(self._shards)

    @property
    def storage(self):
        """The per-shard backend: ``"objects"`` or ``"columnar"``."""
        return self._storage

    @property
    def interner(self):
        """The shared symbol table of columnar shards (``None`` under
        object storage)."""
        return self._interner

    def shard_indexes(self):
        """The backing shard indexes, in shard order (treat as read-only)."""
        return self._shards

    @property
    def salt(self):
        """The hash salt of the current partitioning (changed by
        :meth:`rebalance` to redistribute an unlucky assignment)."""
        return self._salt

    def shard_of(self, atom):
        """The shard number *atom* is (or would be) stored in."""
        return self._route(atom.predicate, atom.args[0] if atom.args else None)

    def shard(self, number):
        """The backing :class:`~repro.datalog.index.FactIndex` of one shard
        (treat as read-only; mutate through this index so the relation
        counts stay honest)."""
        return self._shards[number]

    def _route(self, predicate, first):
        name = first.name if first is not None else ""
        key = f"{self._salt}\x1f{predicate}\x1f{name}"
        return crc32(key.encode("utf-8")) % len(self._shards)

    def shard_sizes(self):
        """Fact counts per shard, in shard order."""
        return [len(shard) for shard in self._shards]

    def skew(self):
        """How unbalanced the partitioning is: largest shard over mean shard
        size (1.0 for a perfectly balanced index, 0.0 when empty)."""
        sizes = self.shard_sizes()
        total = sum(sizes)
        if not total:
            return 0.0
        return max(sizes) / (total / len(sizes))

    def repartition(self, shards=None, salt=None):
        """Re-hash every fact into a fresh :class:`ShardedFactIndex` with
        the given shard count and/or salt (defaults: keep the current ones).
        The fact *set* is unchanged — only its distribution across shards."""
        return ShardedFactIndex(
            iter(self),
            shards=self.shard_count if shards is None else shards,
            salt=self._salt if salt is None else salt,
            storage=self._storage,
            interner=self._interner,
        )

    def rebalance(self, max_skew=1.5):
        """Return a rebalanced index when :meth:`skew` exceeds *max_skew*
        (re-hashing with a fresh salt), otherwise return ``self`` unchanged.
        Re-salting redistributes unlucky assignments of ``(predicate,
        first-argument)`` groups; a single group hotter than ``total /
        shards`` is indivisible under this partition key and will keep its
        shard full."""
        if self.skew() <= max_skew:
            return self
        return self.repartition(salt=self._salt + 1)

    # -- construction --------------------------------------------------------
    def add(self, atom):
        """Insert *atom* into its shard; return True when it was new."""
        if self._shards[self.shard_of(atom)].add(atom):
            key = (atom.predicate, len(atom.args))
            self._counts[key] = self._counts.get(key, 0) + 1
            return True
        return False

    def add_all(self, atoms):
        """Insert every atom; return how many were new."""
        added = 0
        for atom in atoms:
            if self.add(atom):
                added += 1
        return added

    def absorb(self, other):
        """Merge *other* (a :class:`~repro.datalog.index.FactIndex` or
        another :class:`ShardedFactIndex`) into this one.  When both sides
        share a partitioning (same shard count and salt — the per-round
        delta case), the merge is **shard-local**: each shard absorbs its
        counterpart bucket-wise with no re-routing.  As with
        ``FactIndex.absorb``, *other* is assumed disjoint from this index.
        """
        if (
            isinstance(other, ShardedFactIndex)
            and other.shard_count == self.shard_count
            and other._salt == self._salt
            and other._storage == self._storage
        ):
            for mine, theirs in zip(self._shards, other._shards):
                mine.absorb(theirs)
            for key, count in other._counts.items():
                self._counts[key] = self._counts.get(key, 0) + count
            return self
        self.add_all(iter(other))
        return self

    def absorb_row_facts(self, facts):
        """Columnar row face: route ``(key, id-row)`` facts to their owning
        shards, insert them, and return the per-shard delta
        :class:`~repro.datalog.columnar.RowStore`\\ s (in shard order) — the
        parallel scheduler's compact delta exchange.  The facts are assumed
        new (the semi-naive delta guarantee), so the relation counts update
        without presence checks."""
        if self._storage != "columnar":
            raise ValueError("absorb_row_facts requires storage='columnar'")
        parameter = self._interner.parameter
        route = self._route
        deltas = [RowStore() for _ in self._shards]
        counts = self._counts
        for key, row in facts:
            first = parameter(row[0]) if row else None
            deltas[route(key[0], first)].add_row(key, row)
            counts[key] = counts.get(key, 0) + 1
        for shard, delta in zip(self._shards, deltas):
            if delta:
                shard.store.absorb(delta)
        return deltas

    # -- deletion ------------------------------------------------------------
    def discard(self, atom):
        """Remove *atom* from its shard; return True when it was present."""
        if self._shards[self.shard_of(atom)].discard(atom):
            key = (atom.predicate, len(atom.args))
            remaining = self._counts.get(key, 0) - 1
            if remaining > 0:
                self._counts[key] = remaining
            else:
                self._counts.pop(key, None)
            return True
        return False

    def discard_all(self, atoms):
        """Remove every atom; return how many were actually present."""
        removed = 0
        for atom in atoms:
            if self.discard(atom):
                removed += 1
        return removed

    def retract_all(self, other):
        """Subtract another index (sharded or not) — the deletion dual of
        :meth:`absorb`; facts not present here are ignored.  Deletion is
        routed per shard, so a DRed overdeletion batch only touches the
        shards its facts live in.  Returns how many facts were removed."""
        return self.discard_all(iter(other))

    # -- lookup --------------------------------------------------------------
    def __contains__(self, atom):
        return atom in self._shards[self.shard_of(atom)]

    def __len__(self):
        return sum(self._counts.values())

    def __iter__(self):
        return chain.from_iterable(self._shards)

    def __bool__(self):
        return bool(self._counts)

    def relations(self):
        """The set of ``(predicate, arity)`` keys with at least one fact."""
        return set(self._counts)

    def relation(self, predicate, arity):
        """All facts of ``predicate/arity`` across every shard (a new set)."""
        result = set()
        for shard in self._shards:
            result |= shard.relation(predicate, arity)
        return result

    def count(self, predicate, arity):
        """How many facts of ``predicate/arity`` are held (an O(1) read of
        the eagerly maintained per-relation totals)."""
        return self._counts.get((predicate, arity), 0)

    def candidates(self, predicate, arity, bound):
        """The facts a join step may match given *bound* ``(position,
        value)`` pairs.  A bound first argument routes the probe to its
        single owning shard (the partition key); otherwise the per-shard
        candidate buckets are chained."""
        bound = list(bound)
        for position, value in bound:
            if position == 0:
                return self._shards[self._route(predicate, value)].candidates(
                    predicate, arity, bound
                )
        return chain.from_iterable(
            shard.candidates(predicate, arity, bound) for shard in self._shards
        )

    def histogram(self, predicate, arity, position):
        """The bucket-size histogram of one argument *position*, merged
        across shards (position 0 is disjoint across shards by the partition
        key; other positions sum per-value)."""
        merged = {}
        for shard in self._shards:
            for value, size in shard.histogram(predicate, arity, position).items():
                merged[value] = merged.get(value, 0) + size
        return merged

    def histogram_sizes(self, predicate, arity, position):
        """Just the merged bucket sizes (the planner refresh face).  Under
        columnar storage the per-shard histograms merge in id space — no
        parameter decoding per refresh."""
        merged = {}
        if self._storage == "columnar":
            for shard in self._shards:
                histogram = shard.store.histogram(predicate, arity, position)
                for value, size in histogram.items():
                    merged[value] = merged.get(value, 0) + size
        else:
            for shard in self._shards:
                for value, size in shard.histogram(predicate, arity, position).items():
                    merged[value] = merged.get(value, 0) + size
        return list(merged.values())

    def bucket_size(self, predicate, arity, position, value):
        """How many facts of ``predicate/arity`` carry *value* at argument
        *position*, summed across shards (O(shards))."""
        return sum(
            shard.bucket_size(predicate, arity, position, value)
            for shard in self._shards
        )

    def selectivity(self, predicate, arity, positions):
        """The uniform-distribution estimate of how many facts survive
        binding the given argument *positions* — total cardinality divided
        by the merged distinct-value count of each bound position, matching
        :meth:`FactIndex.selectivity <repro.datalog.index.FactIndex.selectivity>`
        semantics on the merged relation."""
        total = self.count(predicate, arity)
        if not total:
            return 0.0
        estimate = float(total)
        columnar = self._storage == "columnar"
        for position in positions:
            distinct = set()
            for shard in self._shards:
                if columnar:
                    distinct.update(shard.store.histogram(predicate, arity, position))
                else:
                    distinct.update(shard.histogram(predicate, arity, position))
            if len(distinct) > 1:
                estimate /= len(distinct)
        return estimate

    def __repr__(self):
        rendered = ", ".join(
            f"{predicate}/{arity}:{count}"
            for (predicate, arity), count in sorted(self._counts.items())
        )
        return (
            f"ShardedFactIndex({len(self)} facts over {self.shard_count} shards"
            f"; {rendered})"
        )
