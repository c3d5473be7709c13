"""Observed join statistics for the Datalog planner.

The indexed engine orders rule bodies greedily by estimated selectivity.
The textbook estimate — relation cardinality divided by the distinct-value
count of each bound position — assumes a *uniform distribution*: every
value of a column is presumed to own an equally sized bucket.  Real
workloads are skewed (a hub node in a graph, a hot key in a join chain),
and under skew the uniform estimate systematically underestimates the cost
of probing a column whose few heavy values carry most of the facts.

:class:`JoinStatistics` replaces that assumption with *observed* per-column
bucket-size histograms, snapshotted from the live id-space store (a
:class:`~repro.datalog.columnar.RowStore`) as evaluation proceeds:

* for every ``(predicate, arity)`` relation and every argument position, a
  :class:`ColumnStatistics` records the total fact count, the distinct-value
  count, the largest bucket and the sum of squared bucket sizes;
* the planner-facing estimate for probing a bound column is the
  **frequency-weighted expected bucket size** ``Σ sizeᵢ² / Σ sizeᵢ`` — the
  expected number of matching facts when the probe value is drawn from the
  data distribution itself (which is exactly what a join does: probe values
  come from the facts of the other literals).  For a uniform column this
  collapses to ``total / distinct``, so the histogram estimate strictly
  generalises the uniform one.

The planner reads a relation's histograms only to order a pass that has
two or more positive body literals besides its delta literal
(:func:`planned_reads`); every other pass has a fixed order.  So the
snapshot (O(distinct values) per relation, :meth:`JoinStatistics.refresh`)
is taken only of those relations, and only when they changed: the engine's
fixpoint snapshots the first round's planned reads when it enters a stratum
and, before each later round, re-reads only the planned reads of that
round's passes which the previous round's delta changed (or which it has
not read yet), so derived relations that grow during evaluation — the
typical recursive predicate — still feed their observed shape back into the
next round's join plans, and every plan is the one a fresh snapshot of the
whole store gives.  The incremental maintainer
(:class:`~repro.datalog.incremental.MaterializedModel`) snapshots only when
it (re)builds, keeps (:meth:`~JoinStatistics.restrict`) only the relations
its re-plannable maintenance passes read, and afterwards folds each
batch's net changes to those relations in with :meth:`JoinStatistics.update`:
O(changed facts + touched buckets), with the same result as a fresh
snapshot.  A staged batch is folded into a :meth:`~JoinStatistics.copy`,
which the model takes over (:meth:`~JoinStatistics.adopt`) when the batch
commits, so a commit cannot fail half-way.
"""

from collections import Counter
from dataclasses import dataclass
from operator import itemgetter


def planned_reads(rule, delta_position):
    """The relations the planner reads to order the pass of *rule* from
    *delta_position* (``None`` for no delta): its positive body literals
    besides the delta one, when there are two or more to reorder.  A pass
    with at most one has a fixed order, and reads none."""
    reads = [
        (literal.atom.predicate, len(literal.atom.args))
        for position, literal in enumerate(rule.body)
        if literal.positive and position != delta_position
    ]
    return reads if len(reads) > 1 else ()


@dataclass(frozen=True)
class ColumnStatistics:
    """The bucket-size histogram summary of one argument position.

    ``total`` is the relation cardinality, ``distinct`` the number of
    distinct values at this position, ``max_bucket`` the largest bucket and
    ``sum_of_squares`` the sum of squared bucket sizes (the raw material of
    the frequency-weighted estimate).
    """

    total: int
    distinct: int
    max_bucket: int
    sum_of_squares: int

    @property
    def mean_bucket(self):
        """The uniform-assumption bucket size: ``total / distinct``."""
        return self.total / self.distinct if self.distinct else 0.0

    @property
    def expected_probe_matches(self):
        """Expected matches when probing with a value drawn from the data
        distribution: ``sum_of_squares / total`` (≥ :attr:`mean_bucket`,
        with equality exactly for uniform columns)."""
        return self.sum_of_squares / self.total if self.total else 0.0

    @property
    def skew(self):
        """How non-uniform the column is: ``expected_probe_matches /
        mean_bucket`` (1.0 for a perfectly uniform column)."""
        mean = self.mean_bucket
        return self.expected_probe_matches / mean if mean else 1.0


class JoinStatistics:
    """Per-relation, per-argument-position histograms observed from a live
    fact index, plus the planner-facing selectivity estimate built on them.

    One instance belongs to one evaluation (the engine creates a fresh one
    per fixpoint) or one maintained model; :meth:`refresh` re-snapshots
    every relation or some of them, :meth:`restrict` keeps some of them,
    :meth:`update` folds one batch of index changes into the snapshot, and
    :meth:`selectivity` answers the planner with the frequency-weighted
    estimate.
    """

    __slots__ = ("_columns", "_frequencies", "refreshes")

    def __init__(self):
        self._columns = {}
        # (predicate, arity) -> per position, a Counter of bucket sizes
        # (size -> how many buckets have it): what keeps max_bucket exact
        # under deletions without rescanning the column.
        self._frequencies = {}
        self.refreshes = 0

    def refresh(self, index, relations=None):
        """Re-snapshot the bucket-size histograms of *relations*
        (``(predicate, arity)`` keys) from *index* and keep the others; a
        relation *index* holds no row of drops its entry.  Without
        *relations*, every relation of *index* is snapshotted and nothing
        else is kept.  O(distinct values) per relation read.  Called by the
        engine's fixpoint for the relations a round plans with that changed,
        and by the incremental maintainer when it (re)builds; returns
        ``self`` for chaining.

        Only bucket *sizes* feed the summary, so the index hands them over
        through ``histogram_sizes`` without materialising a value-keyed
        dict per refresh."""
        self.refreshes += 1
        if relations is None:
            relations = index.relations()
            self._columns = {}
            self._frequencies = {}
        sizes_of = index.histogram_sizes
        for key in relations:
            predicate, arity = key
            total = index.count(predicate, arity)
            if not total:
                self._columns.pop(key, None)
                self._frequencies.pop(key, None)
                continue
            frequencies = tuple(
                Counter(sizes_of(predicate, arity, position)) for position in range(arity)
            )
            self._frequencies[key] = frequencies
            self._columns[key] = tuple(
                ColumnStatistics(
                    total,
                    sum(counts.values()),
                    max(counts, default=0),
                    sum(size * size * count for size, count in counts.items()),
                )
                for counts in frequencies
            )
        return self

    def update(self, index, added, removed, relations):
        """Fold one batch of net changes to *relations* (``(predicate,
        arity)`` keys) into the histograms, leaving for them exactly what
        ``refresh(index, relations)`` would.

        *index*, *added* and *removed* are
        :class:`~repro.datalog.columnar.RowStore` objects: *index* already
        holds the batch, *added* and *removed* are the facts it gained and
        lost (disjoint).  The changed rows are counted per position, each
        touched bucket moves from its old size (its new one, read off the
        index, less the change) to its new one, and the column's
        bucket-size counts follow, so no column is rescanned.
        Cost: O(changed facts + touched buckets).  Returns ``self``.
        """
        for key in relations:
            predicate, arity = key
            total = index.count(predicate, arity)
            if not total:
                self._columns.pop(key, None)
                self._frequencies.pop(key, None)
                continue
            old = self._columns.get(key)
            if old is None:  # a relation the batch created
                old = (ColumnStatistics(0, 0, 0, 0),) * arity
                frequencies = tuple(Counter() for _ in range(arity))
            else:
                # New counters, not edits: a copy() taken before this fold
                # keeps the old ones.
                frequencies = tuple(Counter(counts) for counts in self._frequencies[key])
            plus = added.relation(predicate, arity)
            minus = removed.relation(predicate, arity)
            columns = []
            for position, counts in enumerate(frequencies):
                value_at = itemgetter(position)
                change = Counter(map(value_at, plus))
                change.subtract(map(value_at, minus))
                column = old[position]
                distinct = column.distinct
                max_bucket = column.max_bucket
                sum_of_squares = column.sum_of_squares
                for value, difference in change.items():
                    if not difference:
                        continue
                    size = index.bucket_size(predicate, arity, position, value)
                    before = size - difference
                    distinct += (size > 0) - (before > 0)
                    sum_of_squares += size * size - before * before
                    if before:
                        counts[before] -= 1
                        if not counts[before]:
                            del counts[before]
                    if size:
                        counts[size] += 1
                    if size > max_bucket:
                        max_bucket = size
                    elif before == max_bucket and before not in counts:
                        # The last largest bucket shrank: the next largest
                        # size present (the counts hold a few distinct sizes).
                        max_bucket = max(counts, default=0)
                columns.append(
                    ColumnStatistics(total, distinct, max_bucket, sum_of_squares)
                )
            self._columns[key] = tuple(columns)
            self._frequencies[key] = frequencies
        return self

    def restrict(self, relations):
        """Drop the histograms of every relation not in *relations* — what a
        maintained model does after its build, keeping the relations its
        re-plannable passes read.  Returns ``self``."""
        self._columns = {
            key: columns for key, columns in self._columns.items() if key in relations
        }
        self._frequencies = {
            key: counts for key, counts in self._frequencies.items() if key in relations
        }
        return self

    def copy(self):
        """An independent instance with the same histograms: O(relations),
        because :meth:`update` replaces the per-relation entries it folds
        instead of editing them."""
        other = JoinStatistics()
        other._columns = dict(self._columns)
        other._frequencies = dict(self._frequencies)
        other.refreshes = self.refreshes
        return other

    def adopt(self, other):
        """Take over the histograms of *other* (typically a :meth:`copy`
        with a batch folded in) — two assignments, so it cannot fail
        half-way."""
        self._columns, self._frequencies = other._columns, other._frequencies
        return self

    def column(self, predicate, arity, position):
        """The :class:`ColumnStatistics` of one argument position, or
        ``None`` when the relation has not been snapshotted (empty or not
        yet derived)."""
        columns = self._columns.get((predicate, arity))
        return columns[position] if columns is not None else None

    def relation_total(self, predicate, arity):
        """The snapshotted cardinality of ``predicate/arity`` (0 when the
        relation has not been seen)."""
        columns = self._columns.get((predicate, arity))
        return columns[0].total if columns else 0

    def selectivity(self, predicate, arity, positions):
        """Estimate how many facts of ``predicate/arity`` survive binding
        the argument *positions* (an iterable of position indexes).

        The estimate starts from the snapshotted cardinality and multiplies,
        per bound position, by the fraction of the relation an average
        *data-drawn* probe hits (``expected_probe_matches / total``) —
        independence across positions is assumed, as in the uniform
        estimate it replaces.  Relations with no snapshot estimate to 0.0
        (nothing to join against yet).
        """
        columns = self._columns.get((predicate, arity))
        if not columns:
            return 0.0
        total = columns[0].total
        estimate = float(total)
        for position in positions:
            column = columns[position]
            if column.total:
                estimate *= column.expected_probe_matches / column.total
        return estimate

    def snapshot(self):
        """The current histograms as a plain dict
        ``{(predicate, arity): (ColumnStatistics, ...)}`` — for diagnostics
        and tests; mutating it does not affect the planner."""
        return dict(self._columns)

    def __repr__(self):
        rendered = ", ".join(
            f"{predicate}/{arity}:{columns[0].total if columns else 0}"
            for (predicate, arity), columns in sorted(self._columns.items())
        )
        return f"JoinStatistics({self.refreshes} refreshes; {rendered})"
