"""``BeliefBase`` — the one copy of a database's content.

Reiter's database is a theory, but updates make it a *multiset*: a sentence
told twice must be retracted twice before it is gone, and each retraction
removes the **earliest** surviving occurrence.  :class:`BeliefBase` is that
multiset, and every layer that needs to know what the database holds reads
it here instead of keeping a shadow copy:

* iteration yields the occurrences in the order they were told, which is
  :meth:`~repro.db.database.EpistemicDatabase.sentences`;
* membership, :meth:`count`, :meth:`add` and :meth:`remove` are O(1);
* :attr:`sequences` maps each sentence to the sequence number of its first
  surviving occurrence — the recency the entrenchment policies of
  :mod:`repro.revision` rank by — and :attr:`counts` to its occurrences;
* each distinct sentence is classified once, when it arrives: the
  non-atomic ones (anything but a ground atom) are kept apart and counted
  per predicate, which is when the Datalog views' atomic reading stops
  being exact, and :meth:`ground_atoms` is the rest;
* :meth:`net_change` and :meth:`updated` say what a staged batch *would* do,
  so commit-time previews never replay the removal rule themselves.

Storage is one dict entry per occurrence (sequence number → sentence, whose
insertion order is the iteration order) plus one per distinct sentence
(sentence → first surviving sequence number).  Only a sentence told more
than once gets a queue of its later occurrences.
"""

from collections import deque
from collections.abc import Mapping
from itertools import islice
from types import MappingProxyType

from repro.logic.syntax import Atom, predicates_of
from repro.logic.terms import Parameter


def is_ground_atom(sentence):
    """Whether *sentence* takes part in the Datalog (Prolog-like) reading:
    a ground, non-equality atom."""
    return isinstance(sentence, Atom) and all(
        isinstance(arg, Parameter) for arg in sentence.args
    )


def _predicate_names(sentence):
    return {name for name, _ in predicates_of(sentence)}


class _Counts(Mapping):
    """Read-only ``{sentence: occurrences}`` view of a base."""

    __slots__ = ("_base",)

    def __init__(self, base):
        self._base = base

    def __getitem__(self, sentence):
        count = self._base.count(sentence)
        if not count:
            raise KeyError(sentence)
        return count

    def __iter__(self):
        return iter(self._base.sequences)

    def __len__(self):
        return len(self._base.sequences)


class BeliefBase:
    """An insertion-ordered multiset of closed FOPCE sentences.

    Example::

        base = BeliefBase([p, q, p])
        list(base)              # [p, q, p]
        base.remove(p)          # True — the first p goes
        list(base), base.count(p), base.sequences[p]    # [q, p], 1, 2
    """

    __slots__ = ("_by_sequence", "_first", "_later", "_next_sequence",
                 "_nonatomic", "_nonatomic_sentences", "counts", "sequences")

    def __init__(self, sentences=()):
        self._by_sequence = {}
        self._first = {}
        self._later = {}
        self._next_sequence = 0
        self._nonatomic = {}
        self._nonatomic_sentences = {}
        #: ``{sentence: sequence number of its first surviving occurrence}``.
        self.sequences = MappingProxyType(self._first)
        #: ``{sentence: number of occurrences}``.
        self.counts = _Counts(self)
        for sentence in sentences:
            self.add(sentence)

    # -- reading --------------------------------------------------------------
    def __iter__(self):
        return iter(self._by_sequence.values())

    def __len__(self):
        return len(self._by_sequence)

    def __contains__(self, sentence):
        return sentence in self._first

    def count(self, sentence):
        """How many occurrences of *sentence* the base holds."""
        if sentence not in self._first:
            return 0
        return 1 + len(self._later.get(sentence, ()))

    @property
    def has_nonatomic(self):
        """Whether any sentence is not a ground atom."""
        return bool(self._nonatomic_sentences)

    def nonatomic(self):
        """The distinct sentences that are not ground atoms, in the order
        they first arrived."""
        return list(self._nonatomic_sentences)

    def ground_atoms(self):
        """The distinct ground atoms, in the order of :attr:`sequences` —
        the EDB of the Datalog reading."""
        nonatomic = self._nonatomic_sentences
        return [sentence for sentence in self._first if sentence not in nonatomic]

    def nonatomic_predicates(self, arriving=(), gone=()):
        """Names of the predicates some non-atomic sentence mentions — after
        the net change ``(arriving, gone)`` of :meth:`net_change`, if given."""
        counts = self._nonatomic
        if arriving or gone:
            counts = dict(counts)
            for sentences, step in ((arriving, 1), (gone, -1)):
                for sentence in sentences:
                    if not is_ground_atom(sentence):
                        for name in _predicate_names(sentence):
                            counts[name] = counts.get(name, 0) + step
        return {name for name, count in counts.items() if count > 0}

    # -- staged batches ---------------------------------------------------------
    def net_change(self, additions=(), retractions=()):
        """The distinct sentences a batch would make appear and disappear,
        as ``(arriving, gone)``: each retraction removes one occurrence and
        the additions land afterwards, as a commit applies them.  O(batch)."""
        staged = {}
        for sentence in retractions:
            staged[sentence] = staged.get(sentence, 0) + 1
        added = dict.fromkeys(additions)
        gone = [
            sentence for sentence, retracted in staged.items()
            if sentence not in added and 0 < self.count(sentence) <= retracted
        ]
        arriving = [sentence for sentence in added if sentence not in self._first]
        return arriving, gone

    def updated(self, additions=(), retractions=()):
        """The sentence list a batch would leave, in order, without applying
        it — for the from-scratch checks of a hypothetical state.  O(base)."""
        staged = {}
        for sentence in retractions:
            staged[sentence] = staged.get(sentence, 0) + 1
        dropped = set()
        for sentence, retracted in staged.items():
            if sentence in self._first:
                dropped.add(self._first[sentence])
                dropped.update(islice(self._later.get(sentence, ()), retracted - 1))
        kept = [
            sentence for sequence, sentence in self._by_sequence.items()
            if sequence not in dropped
        ]
        return kept + list(additions)

    # -- updating -----------------------------------------------------------------
    def add(self, sentence):
        """Append one occurrence of *sentence*."""
        sequence = self._next_sequence
        self._next_sequence += 1
        self._by_sequence[sequence] = sentence
        if sentence not in self._first:
            self._first[sentence] = sequence
            if not is_ground_atom(sentence):
                self._nonatomic_sentences[sentence] = None
                self._count_nonatomic(sentence, 1)
            return
        later = self._later.get(sentence)
        if later is None:
            later = self._later[sentence] = deque()
        later.append(sequence)

    def remove(self, sentence):
        """Remove the earliest occurrence of *sentence*; ``False`` when the
        base holds none."""
        first = self._first.get(sentence)
        if first is None:
            return False
        del self._by_sequence[first]
        later = self._later.get(sentence)
        if later:
            self._first[sentence] = later.popleft()
            if not later:
                del self._later[sentence]
            return True
        del self._first[sentence]
        if sentence in self._nonatomic_sentences:
            del self._nonatomic_sentences[sentence]
            self._count_nonatomic(sentence, -1)
        return True

    def _count_nonatomic(self, sentence, step):
        for name in _predicate_names(sentence):
            count = self._nonatomic.get(name, 0) + step
            if count:
                self._nonatomic[name] = count
            else:
                del self._nonatomic[name]

    def __repr__(self):
        return f"BeliefBase({len(self)} occurrences, {len(self._first)} distinct)"
