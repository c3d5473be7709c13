"""Observed join statistics for the Datalog planner.

The indexed engine orders rule bodies greedily by estimated selectivity.
The textbook estimate — relation cardinality divided by the distinct-value
count of each bound position — assumes a *uniform distribution*: every
value of a column is presumed to own an equally sized bucket.  Real
workloads are skewed (a hub node in a graph, a hot key in a join chain),
and under skew the uniform estimate systematically underestimates the cost
of probing a column whose few heavy values carry most of the facts.

The planner replaces that assumption with *observed* bucket sizes: the
estimate for probing a bound column is the **frequency-weighted expected
bucket size** ``Σ sizeᵢ² / Σ sizeᵢ`` — the expected number of matching
facts when the probe value is drawn from the data distribution itself
(which is exactly what a join does: probe values come from the facts of
the other literals).  For a uniform column this collapses to ``total /
distinct``, so the histogram estimate strictly generalises the uniform
one.

The planner reads it live: every
:class:`~repro.datalog.columnar.ColumnarRelation` keeps, next to its probe
buckets, the sum of squared bucket sizes per position, moved by each row
it adds or drops, and :meth:`RowStore.selectivity
<repro.datalog.columnar.RowStore.selectivity>` turns it into the estimate.
No evaluation and no write snapshots, copies or folds a histogram.  It is
read only where the planner has a choice: to order a pass that has two or
more positive body literals besides its delta literal
(:func:`planned_reads`); every other pass has a fixed order.

:class:`JoinStatistics` is the from-scratch snapshot of the same
statistics: for every ``(predicate, arity)`` relation and every argument
position, a :class:`ColumnStatistics` with the total fact count, the
distinct-value count, the largest bucket and the sum of squared bucket
sizes, read in O(distinct values) per relation
(:meth:`JoinStatistics.refresh`).  Its :meth:`~JoinStatistics.selectivity`
is the live estimate's reference: the two agree exactly on the same store.
"""

from collections import Counter
from dataclasses import dataclass


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
    """Per-relation, per-argument-position histograms snapshotted from a
    fact index, plus the selectivity estimate built on them: the reference
    the planner's live statistics (:meth:`RowStore.selectivity
    <repro.datalog.columnar.RowStore.selectivity>`) are checked against,
    and a diagnostic view of a store's skew.  :meth:`refresh` snapshots
    every relation, :meth:`column` and :meth:`snapshot` read the summary,
    and :meth:`selectivity` answers as the planner would.
    """

    __slots__ = ("_columns",)

    def __init__(self):
        self._columns = {}

    def refresh(self, index):
        """Snapshot the bucket-size histograms of every relation of *index*
        (a :class:`~repro.datalog.columnar.RowStore`), replacing whatever
        was held: O(distinct values) per relation.  Returns ``self`` for
        chaining.

        Only bucket *sizes* feed the summary, so the index hands them over
        through ``histogram_sizes`` without materialising a value-keyed
        dict per refresh."""
        self._columns = {}
        sizes_of = index.histogram_sizes
        for key in index.relations():
            predicate, arity = key
            total = index.count(predicate, arity)
            columns = []
            for position in range(arity):
                counts = Counter(sizes_of(predicate, arity, position))
                columns.append(ColumnStatistics(
                    total,
                    sum(counts.values()),
                    max(counts, default=0),
                    sum(size * size * count for size, count in counts.items()),
                ))
            self._columns[key] = tuple(columns)
        return self

    def column(self, predicate, arity, position):
        """The :class:`ColumnStatistics` of one argument position, or
        ``None`` when the relation has not been snapshotted (empty or not
        yet derived)."""
        columns = self._columns.get((predicate, arity))
        return columns[position] if columns is not None else None

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
        and tests; mutating it does not affect the snapshot."""
        return dict(self._columns)

    def __repr__(self):
        rendered = ", ".join(
            f"{predicate}/{arity}:{columns[0].total if columns else 0}"
            for (predicate, arity), columns in sorted(self._columns.items())
        )
        return f"JoinStatistics({rendered})"
