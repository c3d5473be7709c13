"""Observed join statistics for the Datalog planner.

The indexed engine orders rule bodies greedily by estimated selectivity.
Until this module existed the only estimate available was
:meth:`~repro.datalog.index.FactIndex.selectivity` — relation cardinality
divided by the distinct-value count of each bound position, i.e. a
*uniform-distribution* assumption: every value of a column is presumed to
own an equally sized bucket.  Real workloads are skewed (a hub node in a
graph, a hot key in a join chain), and under skew the uniform estimate
systematically underestimates the cost of probing a column whose few heavy
values carry most of the facts.

:class:`JoinStatistics` replaces that assumption with *observed* per-column
bucket-size histograms, snapshotted from the live
:class:`~repro.datalog.index.FactIndex` as evaluation proceeds:

* for every ``(predicate, arity)`` relation and every argument position, a
  :class:`ColumnStatistics` records the total fact count, the distinct-value
  count, the largest bucket and the sum of squared bucket sizes;
* the planner-facing estimate for probing a bound column is the
  **frequency-weighted expected bucket size** ``Σ sizeᵢ² / Σ sizeᵢ`` — the
  expected number of matching facts when the probe value is drawn from the
  data distribution itself (which is exactly what a join does: probe values
  come from the facts of the other literals).  For a uniform column this
  collapses to ``total / distinct``, so the histogram estimate strictly
  generalises the old one.

The engine refreshes the histograms at the start of every fixpoint round
(:meth:`JoinStatistics.refresh`), so derived relations that grow during
evaluation — the typical recursive predicate — feed their observed shape
back into the next round's join plans.  The snapshot is O(distinct values)
per relation, which is negligible next to a fixpoint's joins but not next
to a one-fact update of a large model, so the incremental maintainer
(:class:`~repro.datalog.incremental.MaterializedModel`) snapshots only when
it (re)builds and afterwards folds each batch's net changes in with
:meth:`JoinStatistics.update`: O(changed facts + touched buckets), with the
same result as a fresh snapshot.
"""

from collections import Counter
from dataclasses import dataclass


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
    :class:`~repro.datalog.index.FactIndex`, plus the planner-facing
    selectivity estimate built on them.

    One instance belongs to one evaluation (the engine creates a fresh one
    per fixpoint) or one maintained model; :meth:`refresh` re-snapshots
    every relation, :meth:`update` folds one batch of index changes into
    the snapshot, and :meth:`selectivity` answers the planner with the
    frequency-weighted estimate.
    """

    __slots__ = ("_columns", "_frequencies", "refreshes")

    def __init__(self):
        self._columns = {}
        # (predicate, arity) -> per position, a Counter of bucket sizes
        # (size -> how many buckets have it): what keeps max_bucket exact
        # under deletions without rescanning the column.
        self._frequencies = {}
        self.refreshes = 0

    def refresh(self, index):
        """Re-snapshot the bucket-size histograms of every relation held by
        *index* — O(distinct values).  Called by the engine at the start of
        each fixpoint round and by the incremental maintainer when it
        (re)builds; returns ``self`` for chaining.

        Only bucket *sizes* feed the summary, so indexes exposing
        ``histogram_sizes`` (both storage backends do) hand them over
        without materialising a value-keyed dict per refresh; others fall
        back to the full :meth:`histogram
        <repro.datalog.index.FactIndex.histogram>` contract."""
        self.refreshes += 1
        sizes_of = getattr(index, "histogram_sizes", None)
        if sizes_of is None:
            def sizes_of(predicate, arity, position):
                return index.histogram(predicate, arity, position).values()
        self._columns = {}
        self._frequencies = {}
        for key in index.relations():
            predicate, arity = key
            total = index.count(predicate, arity)
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

    def update(self, index, added, removed):
        """Fold one batch of net changes into the histograms, leaving
        exactly what ``refresh(index)`` would.

        *index* already holds the batch; *added* and *removed* are
        :class:`~repro.datalog.index.FactIndex` objects of the facts it
        gained and lost (disjoint).  Each touched bucket moves from its old
        size (read off the index and the batch) to its new one, and the
        column's bucket-size counts follow, so no column is rescanned.
        Cost: O(changed facts + touched buckets).  Returns ``self``.
        """
        for key in added.relations() | removed.relations():
            predicate, arity = key
            total = index.count(predicate, arity)
            if not total:
                self._columns.pop(key, None)
                self._frequencies.pop(key, None)
                continue
            old = self._columns.get(key)
            if old is None:  # a relation the batch created
                old = (ColumnStatistics(0, 0, 0, 0),) * arity
                self._frequencies[key] = tuple(Counter() for _ in range(arity))
            columns = []
            for position, counts in enumerate(self._frequencies[key]):
                change = added.histogram(predicate, arity, position)
                for value, size in removed.histogram(predicate, arity, position).items():
                    change[value] = change.get(value, 0) - size
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
