"""Transactional updates for :class:`~repro.db.database.EpistemicDatabase`.

The paper's discussion of incremental integrity maintenance (Section 8,
item 4) presumes updates arrive as units: a batch of assertions and
retractions whose *net* effect must leave the constraints satisfied, even if
intermediate states would not (recording a new employee and her social
security number is one update, regardless of the order of the two facts).
:class:`Transaction` provides exactly that:

* ``tell`` / ``retract`` stage changes without touching the database;
* ``commit`` applies the whole batch through the database's one update
  path: the batch's net change is staged on the maintained violation view,
  whose report on the post-commit state decides (Definition 3.5); triggers
  fire once, and everything is rolled back if a constraint fails — or if any
  maintained view raises while it stages the batch: the base and every view
  take the batch together or not at all;
* the object is also a context manager — leaving the ``with`` block commits,
  an exception inside it discards the staged changes.
"""

from repro.logic.printer import to_text


class Transaction:
    """A staged batch of assertions and retractions against one database."""

    def __init__(self, database):
        self._database = database
        self._additions = []
        self._retractions = []
        self._committed = False
        self._committed_epoch = None

    # -- staging ---------------------------------------------------------
    def tell(self, sentence):
        """Stage an assertion (string or formula)."""
        from repro.db.database import _as_formula

        self._additions.append(_as_formula(sentence))
        return self

    def retract(self, sentence):
        """Stage a retraction."""
        from repro.db.database import _as_formula

        self._retractions.append(_as_formula(sentence))
        return self

    @property
    def pending(self):
        """The staged (additions, retractions) as tuples."""
        return tuple(self._additions), tuple(self._retractions)

    @property
    def committed_epoch(self):
        """The database's ``revision_epoch`` this commit created, or ``None``
        while uncommitted / after a rollback — the handle revision history
        keeps to order belief states."""
        return self._committed_epoch

    # -- lifecycle --------------------------------------------------------
    def commit(self):
        """Apply the batch atomically.

        Raises :class:`~repro.exceptions.ConstraintViolationError` (and leaves
        the database untouched) when the *net* state violates a registered
        constraint; anything else raised before the base changes (say, by a
        maintained view while it stages the batch) leaves it untouched too.

        The check is an O(delta) staged update of the database's maintained
        :meth:`~repro.db.database.EpistemicDatabase.violation_view`,
        committed with the base when the batch is accepted and rolled back
        when it is not.  Returns its report, with witnesses from the view
        and fallback reasons (``None`` when the database has no
        constraints).
        """
        if self._committed:
            raise RuntimeError("transaction already committed")
        database = self._database
        with database.tracer.span(
            "txn.commit",
            additions=len(self._additions),
            retractions=len(self._retractions),
        ):
            return database._update(
                self._additions, self._retractions, True, True, "db.commits",
                lambda: "transaction [" + ", ".join(
                    to_text(s) for s in self._additions + self._retractions
                ) + "]",
                applied=self._applied,
            )

    def _applied(self, epoch):
        self._committed = True
        self._committed_epoch = epoch

    def rollback(self):
        """Discard the staged changes.

        Nothing was staged on any view, so any derived state — in particular
        a :class:`~repro.db.view.DatalogView`'s materialized model and the
        engine cache behind it — is left exactly as it was before the
        transaction started, and no listener is called.  Code that wants to *look* at the
        pending state without committing should use
        :meth:`~repro.db.view.DatalogView.preview` (a side-effect-free peek)
        rather than applying and rolling back.
        """
        self._additions.clear()
        self._retractions.clear()
        self._committed = True

    # -- context manager ----------------------------------------------------
    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        if exc_type is not None:
            self.rollback()
            return False
        if not self._committed:
            self.commit()
        return False
