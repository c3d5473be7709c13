"""Materialized Datalog views over an :class:`~repro.db.database.EpistemicDatabase`.

The paper's Section 5.1 observes that Σ "could be a Datalog program"; a
:class:`DatalogView` takes that reading literally and keeps it *hot*: the
database's ground atomic sentences are the EDB, the caller supplies the
rules, and a :class:`~repro.datalog.incremental.MaterializedModel` maintains
the least model.  The EDB is the database's, not the view's: one
:class:`~repro.datalog.columnar.EdbStore` per database (built when the
first view attaches) interns the ground atoms once, every view's program
reads it as its fact list, and each view's index shares its relations, so a
view holds only what its rules derive.  The view is one of the database's
*maintained views* (:class:`MaintainedView`): every ``tell`` / ``retract``
/ transaction commit writes its net EDB change to the store once, stages
it on every view before the base changes and commits them right after, so
the materialized closure is updated at delta cost — the engine never
re-runs its fixpoint for fact traffic.

Two properties matter for correctness under transactional traffic:

* a write changes the view only when it changes the base: a rejected
  batch, a write that raises before the base changes (in any view's
  staging too) and an explicit ``rollback`` leave the view (and the engine
  cache behind it) untouched;
* looking at pending state goes through :meth:`DatalogView.preview`, which
  peeks side-effect-free instead of applying-then-undoing against the live
  view, so a peek can never poison the maintained model.

Non-atomic sentences (disjunctions, existentials, arbitrary FOPCE) are not
part of the Prolog-like reading and are ignored by the view; ask the
database itself about those.
"""

from repro.datalog.incremental import MaterializedModel
from repro.datalog.program import DatalogProgram
from repro.db.base import is_ground_atom


def _ground_atoms(sentences):
    """The sentences that take part in the Datalog reading."""
    return [sentence for sentence in sentences if is_ground_atom(sentence)]


class MaintainedView:
    """A materialized model the database keeps in step with its base.

    Built from *rules* over the database's EDB store (*outputs*, ``(name,
    arity)`` pairs, are declared on the program for the static analyzer),
    the view attaches itself to *database*; from then on every write stages
    its net EDB change on :attr:`materialized` before the base changes,
    commits it once the base holds the write, and rolls it back when the
    write fails first (:meth:`EpistemicDatabase._update
    <repro.db.database.EpistemicDatabase._update>`).  :meth:`_deliver`
    receives each committed batch's
    :class:`~repro.datalog.incremental.UpdateResult`, after every view has
    committed."""

    def __init__(self, database, rules=(), outputs=()):
        program = DatalogProgram(rules=rules)
        for predicate, arity in outputs:
            program.declare_output(predicate, arity)
        program.facts = database._edb_store()
        self._database = database
        self._materialized = MaterializedModel(program)
        database._views.append(self)

    @property
    def materialized(self):
        """The underlying :class:`~repro.datalog.incremental.MaterializedModel`."""
        return self._materialized

    def close(self):
        """Detach from the database; the view stops updating and keeps the
        EDB as it stands (its model reads a private copy of the store)."""
        views = self._database._views
        if self in views:
            views.remove(self)
            self._materialized._detach()

    def _deliver(self, result):
        """Announce a committed batch; a plain view has no one to tell."""


class DatalogView(MaintainedView):
    """A continuously maintained Datalog reading of a database.

    Example::

        db = EpistemicDatabase.from_text("edge(a, b); edge(b, c)")
        view = db.datalog_view(rules=path_rules)
        view.holds(parse("path(a, c)"))        # True
        with db.transaction() as txn:
            txn.retract("edge(b, c)")
        view.holds(parse("path(a, c)"))        # False — maintained, not recomputed

    The view stays attached to the database until :meth:`close` is called.
    The maintaining :class:`~repro.datalog.incremental.MaterializedModel`
    keeps the materialized state in dense-id columnar relations
    (:class:`~repro.datalog.columnar.RowStore`, read through
    :class:`~repro.datalog.columnar.ColumnarFactIndex`): its derived ones of
    its own, the extensional ones shared with the database's EDB store.
    """

    # -- reading ------------------------------------------------------------
    @property
    def engine(self):
        """The wrapped :class:`~repro.datalog.engine.DatalogEngine`."""
        return self._materialized.engine

    def model(self):
        """The maintained least model as a
        :class:`~repro.semantics.worlds.World`."""
        return self._materialized.model()

    def holds(self, atom):
        """Return True when the ground atom is in the maintained model."""
        return self._materialized.holds(self._as_atom(atom))

    def query(self, atom, mode="materialized"):
        """Answer a goal *atom* (a formula or source text, possibly with
        variables) against the view; returns a
        :class:`~repro.datalog.engine.QueryResult` — the binding dicts plus
        counters.

        ``mode="materialized"`` (default) probes the incrementally
        maintained index — goal-directed reads at O(candidate bucket) cost.
        ``"magic"`` / ``"auto"`` / ``"full"`` are delegated to the
        underlying engine, so a magic-set evaluation can be run against the
        view's current EDB (e.g. to cross-check the maintained state, or
        after a rule change invalidated it).
        """
        return self._materialized.query(self._as_atom(atom), mode=mode)

    def preview(self, transaction):
        """The :class:`~repro.semantics.worlds.World` the view would show if
        *transaction* committed — computed as a side-effect-free peek, so the
        maintained state survives a subsequent rollback untouched."""
        arriving, gone = self._database.base.net_change(*transaction.pending)
        return self._materialized.peek(
            insertions=_ground_atoms(arriving), deletions=_ground_atoms(gone)
        )

    def _as_atom(self, value):
        if isinstance(value, str):
            from repro.db.database import _as_formula

            value = _as_formula(value)
        return value

    def __repr__(self):
        return f"DatalogView({self._materialized!r})"
