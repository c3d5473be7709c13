"""Hash indexes over ground Datalog atoms.

A :class:`FactIndex` maintains two levels of hashing over a set of ground
atoms:

* a **relation index** — one bucket per ``(predicate, arity)`` pair, so a
  join never scans facts of the wrong predicate;
* an **argument index** — for every relation, one hash map per argument
  position from a parameter value to the facts carrying that value at that
  position.  Probing with the currently bound join prefix returns only the
  facts that can possibly match, which is what turns nested-loop joins
  into hash joins.

It is the atom-face delta structure of incremental view maintenance
(:mod:`repro.datalog.incremental`): each batch's insertions and deletions,
and each propagation round's changes, are small ``FactIndex`` instances
that the maintenance joins probe next to the materialized model (a
:class:`~repro.datalog.columnar.ColumnarFactIndex`, which implements the
same contract over interned id rows).  Merging is bucket-wise
(:meth:`FactIndex.absorb`), and deletion is symmetric:
:meth:`FactIndex.discard` removes one fact and :meth:`FactIndex.retract_all`
subtracts a whole delta bucket-wise.
"""

from itertools import chain

EMPTY = frozenset()


class FactIndex:
    """A mutable set of ground atoms with per-relation and per-argument
    hash indexes."""

    __slots__ = ("_relations", "_arguments", "_size")

    def __init__(self, atoms=()):
        # (predicate, arity) -> set of atoms
        self._relations = {}
        # (predicate, arity) -> tuple of per-position dicts: value -> set of atoms
        self._arguments = {}
        self._size = 0
        self.add_all(atoms)

    # -- construction --------------------------------------------------------
    def add(self, atom):
        """Insert *atom*; return True when it was not already present."""
        key = (atom.predicate, len(atom.args))
        bucket = self._relations.get(key)
        if bucket is None:
            bucket = set()
            self._relations[key] = bucket
            self._arguments[key] = tuple({} for _ in range(key[1]))
        if atom in bucket:
            return False
        bucket.add(atom)
        positional = self._arguments[key]
        for position, value in enumerate(atom.args):
            slot = positional[position].get(value)
            if slot is None:
                positional[position][value] = {atom}
            else:
                slot.add(atom)
        self._size += 1
        return True

    def add_all(self, atoms):
        """Insert every atom; return how many were new."""
        added = 0
        for atom in atoms:
            if self.add(atom):
                added += 1
        return added

    def absorb(self, other):
        """Merge another :class:`FactIndex` (typically a semi-naive delta)
        into this one bucket-wise, without rehashing the facts already held
        here.  Assumes ``other`` is disjoint from this index (the fixpoint
        guarantees deltas only contain genuinely new facts)."""
        for key, bucket in other._relations.items():
            mine = self._relations.get(key)
            if mine is None:
                self._relations[key] = set(bucket)
                self._arguments[key] = tuple(
                    {value: set(atoms) for value, atoms in positional.items()}
                    for positional in other._arguments[key]
                )
                self._size += len(bucket)
                continue
            before = len(mine)
            mine |= bucket
            self._size += len(mine) - before
            own_positions = self._arguments[key]
            for position, positional in enumerate(other._arguments[key]):
                target = own_positions[position]
                for value, atoms in positional.items():
                    slot = target.get(value)
                    if slot is None:
                        target[value] = set(atoms)
                    else:
                        slot |= atoms
        return self

    # -- deletion ------------------------------------------------------------
    def discard(self, atom):
        """Remove *atom*; return True when it was present.

        The deletion dual of :meth:`add`: the fact is removed from its
        relation bucket and from every per-argument-position bucket, and
        emptied value buckets are dropped so that :meth:`histogram` keeps
        reporting honest distinct-value counts.
        """
        key = (atom.predicate, len(atom.args))
        bucket = self._relations.get(key)
        if bucket is None or atom not in bucket:
            return False
        bucket.remove(atom)
        positional = self._arguments[key]
        for position, value in enumerate(atom.args):
            slot = positional[position].get(value)
            if slot is not None:
                slot.discard(atom)
                if not slot:
                    del positional[position][value]
        self._size -= 1
        return True

    def discard_all(self, atoms):
        """Remove every atom; return how many were actually present."""
        removed = 0
        for atom in atoms:
            if self.discard(atom):
                removed += 1
        return removed

    def retract_all(self, other):
        """Subtract another :class:`FactIndex` from this one bucket-wise —
        the deletion dual of :meth:`absorb`.

        Facts held by *other* but not by this index are ignored, so the
        operation is a plain set difference per relation.  Returns how many
        facts were removed.
        """
        removed = 0
        for key, bucket in other._relations.items():
            mine = self._relations.get(key)
            if not mine:
                continue
            before = len(mine)
            mine -= bucket
            removed += before - len(mine)
            own_positions = self._arguments[key]
            for position, positional in enumerate(other._arguments[key]):
                target = own_positions[position]
                for value, atoms in positional.items():
                    slot = target.get(value)
                    if slot is None:
                        continue
                    slot -= atoms
                    if not slot:
                        del target[value]
        self._size -= removed
        return removed

    # -- lookup --------------------------------------------------------------
    def __contains__(self, atom):
        bucket = self._relations.get((atom.predicate, len(atom.args)))
        return bucket is not None and atom in bucket

    def __len__(self):
        return self._size

    def __iter__(self):
        return chain.from_iterable(self._relations.values())

    def __bool__(self):
        return self._size > 0

    def relations(self):
        """The set of ``(predicate, arity)`` keys with at least one fact."""
        return {key for key, bucket in self._relations.items() if bucket}

    def relation(self, predicate, arity):
        """All facts of ``predicate/arity`` (a set; treat as read-only)."""
        return self._relations.get((predicate, arity), EMPTY)

    def count(self, predicate, arity):
        """How many facts of ``predicate/arity`` are held."""
        return len(self._relations.get((predicate, arity), EMPTY))

    def candidates(self, predicate, arity, bound):
        """Return the smallest indexed bucket consistent with *bound*, an
        iterable of ``(position, value)`` pairs for the argument positions
        already fixed by the join prefix.

        The result is a superset of the matching facts restricted to the most
        selective single-position bucket; callers still unify the remaining
        positions.  Returns an empty set as soon as any bound position has no
        facts with that value.
        """
        key = (predicate, arity)
        best = self._relations.get(key)
        if not best:
            return EMPTY
        positional = self._arguments[key]
        for position, value in bound:
            bucket = positional[position].get(value)
            if not bucket:
                return EMPTY
            if len(bucket) < len(best):
                best = bucket
        return best

    def histogram(self, predicate, arity, position):
        """The bucket-size histogram of one argument *position* of
        ``predicate/arity``: a dict mapping each distinct value to how many
        facts carry it there (empty for an unknown relation).  This is the
        raw material :class:`~repro.datalog.stats.JoinStatistics` snapshots
        into planner estimates; treat the result as read-only."""
        positional = self._arguments.get((predicate, arity))
        if positional is None:
            return {}
        return {value: len(bucket) for value, bucket in positional[position].items()}

    def histogram_sizes(self, predicate, arity, position):
        """Just the bucket sizes of :meth:`histogram`, as a list — what the
        planner's per-round refresh actually consumes, without building a
        value-keyed dict."""
        positional = self._arguments.get((predicate, arity))
        if positional is None:
            return []
        return [len(bucket) for bucket in positional[position].values()]

    def bucket_size(self, predicate, arity, position, value):
        """How many facts of ``predicate/arity`` carry *value* at argument
        *position* — one bucket of :meth:`histogram`, read in O(1) (what
        the planner's incremental statistics update consumes)."""
        positional = self._arguments.get((predicate, arity))
        if positional is None:
            return 0
        return len(positional[position].get(value, EMPTY))

    def __repr__(self):
        rendered = ", ".join(
            f"{predicate}/{arity}:{len(bucket)}"
            for (predicate, arity), bucket in sorted(self._relations.items())
        )
        return f"FactIndex({self._size} facts; {rendered})"
