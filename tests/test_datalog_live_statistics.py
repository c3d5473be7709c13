"""The statistics the relations keep for the join planner.

Every :class:`~repro.datalog.columnar.ColumnarRelation` keeps, next to its
probe buckets, the sum of squared bucket sizes per argument position, and
:meth:`RowStore.selectivity <repro.datalog.columnar.RowStore.selectivity>`
turns it into the planner's estimate.  The contracts:

* after any sequence of ``add``, ``discard`` and ``absorb`` (row-wise and
  bucket-wise, with overlapping rows), with the buckets built at any point
  of it, buckets emptied and the relation emptied and filled again, the
  kept sums are those of the rows, and the live estimate equals
  ``JoinStatistics().refresh(store).selectivity`` exactly for every set of
  bound positions;
* a database write to a recursive view — the ``tc_view`` commit shape —
  snapshots, copies and folds no histogram: it calls no
  :class:`~repro.datalog.stats.JoinStatistics` method at all.
"""

from collections import Counter
from itertools import combinations

from hypothesis import given, settings, strategies as st

from repro.datalog import JoinStatistics
from repro.datalog.columnar import ColumnarRelation, RowStore, fresh_delta
from repro.db.database import EpistemicDatabase
from repro.logic.builders import atom
from repro.workloads.generators import transitive_closure_program

KEY = ("r", 3)

rows = st.tuples(*[st.integers(0, 4)] * 3)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), rows),
        st.tuples(st.just("discard"), rows),
        st.tuples(st.just("absorb rows"), st.lists(rows, max_size=6)),
        st.tuples(st.just("absorb buckets"), st.lists(rows, max_size=6)),
        st.tuples(st.just("build"), st.none()),
        st.tuples(st.just("empty"), st.none()),
    ),
    max_size=30,
)


def sums_of_squares(relation):
    """The per-position sums of squared bucket sizes, from the rows."""
    return [
        sum(size * size for size in Counter(row[position] for row in relation.rows).values())
        for position in range(relation.arity)
    ]


@settings(max_examples=200, deadline=None)
@given(operations=operations)
def test_live_selectivity_equals_a_fresh_snapshot(operations):
    store = RowStore()
    store.add_row(KEY, (0, 0, 0))
    relation = store.get(KEY)
    for operation, argument in operations:
        if operation == "add":
            store.add_row(KEY, argument)
        elif operation == "discard":
            store.discard_row(KEY, argument)
        elif operation == "absorb rows":
            store.absorb(fresh_delta((KEY, row) for row in argument))
        elif operation == "absorb buckets":
            other = ColumnarRelation(3)
            other.rows = set(argument)
            other.buckets
            relation.absorb(other)
        elif operation == "build":
            relation.buckets
        else:
            for row in list(relation.rows):
                store.discard_row(KEY, row)
        if relation._squares is not None:
            assert relation._squares == sums_of_squares(relation)
            assert all(
                len(bucket) == len({row[position] for row in relation.rows})
                for position, bucket in enumerate(relation.buckets)
            )
    fresh = JoinStatistics().refresh(store)
    for size in range(4):
        for positions in combinations(range(3), size):
            assert store.selectivity("r", 3, positions) == fresh.selectivity(
                "r", 3, positions
            ), positions
    assert relation.squares == sums_of_squares(relation)


def test_unknown_empty_and_nullary_relations_estimate_to_nothing():
    store = RowStore()
    store.add_row(("flag", 0), ())
    store.add_row(("gone", 1), (7,))
    store.discard_row(("gone", 1), (7,))
    fresh = JoinStatistics().refresh(store)
    for predicate, arity in (("nope", 2), ("gone", 1), ("flag", 0)):
        assert store.selectivity(predicate, arity, ()) == 0.0
        assert fresh.selectivity(predicate, arity, ()) == 0.0


def test_a_skewed_column_estimates_by_its_squared_bucket_sizes():
    store = RowStore()
    for i in range(9):
        store.add_row(("r", 2), (0, i))
    store.add_row(("r", 2), (1, 9))
    # A hub bucket of 9 and a leaf of 1: (81 + 1) / 10 expected matches.
    assert store.get(("r", 2)).squares == [82, 10]
    assert store.selectivity("r", 2, [0]) == 10.0 * (82 / 10 / 10)
    assert store.selectivity("r", 2, [0]) == JoinStatistics().refresh(store).selectivity(
        "r", 2, [0]
    )


def test_a_recursive_view_commit_calls_no_join_statistics_method(monkeypatch):
    """The ``tc_view`` commit shape — cut one chain, restore another —
    on a transitive-closure view: maintenance plans on the live sums and
    touches no histogram snapshot."""
    program = transitive_closure_program(chains=6, length=6)
    database = EpistemicDatabase([fact.atom for fact in program.facts])
    view = database.datalog_view(rules=list(program.rules))
    restore = atom("edge", "c1_n3", "c1_n4")
    database.retract(restore)
    calls = Counter()

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name, member in list(vars(JoinStatistics).items()):
        if callable(member):
            monkeypatch.setattr(JoinStatistics, name, counted(name, member))
    cut = atom("edge", "c0_n3", "c0_n4")
    for _ in range(2):
        transaction = database.transaction()
        transaction.retract(cut)
        transaction.tell(restore)
        transaction.commit()
        cut, restore = restore, cut
    monkeypatch.undo()
    assert not calls, dict(calls)
    assert view.materialized.statistics.rebuilds == 1
    # Two commits: chain 0 was cut and restored, chain 1 restored and cut.
    assert view.holds(atom("path", "c0_n0", "c0_n6"))
    assert not view.holds(atom("path", "c1_n0", "c1_n6"))
