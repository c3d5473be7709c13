"""Worlds: the paper's semantic structures.

Section 2 defines a world as a set of atomic sentences that contains ``p = p``
for every parameter *p* and never ``p1 = p2`` for distinct parameters — i.e.
the equality atoms are fixed once and for all by the unique-names discipline.
We therefore store only the non-equality atoms and let the truth recursion
evaluate equalities by parameter identity; the two presentations are
interchangeable and ours avoids materialising an infinite set.
"""

from repro.logic.syntax import Atom, Equals
from repro.logic.terms import Parameter


class World:
    """An immutable set of true ground atoms.

    Worlds are hashable so that sets of worlds (the ``𝒮`` of the truth
    recursion, and the model sets ``ℳ(Σ)``) are ordinary Python sets.
    """

    __slots__ = ("_atoms", "_hash", "_by_predicate")

    def __init__(self, atoms=()):
        checked = []
        for atom in atoms:
            if isinstance(atom, Equals):
                self._check_equality(atom)
                continue
            if not isinstance(atom, Atom):
                raise TypeError(f"worlds contain ground atoms, got {atom!r}")
            if any(not isinstance(arg, Parameter) for arg in atom.args):
                raise ValueError(f"worlds contain ground atoms only, got {atom!r}")
            checked.append(atom)
        self._atoms = frozenset(checked)
        self._hash = hash(self._atoms)
        self._by_predicate = None

    @staticmethod
    def _check_equality(atom):
        if atom.left != atom.right:
            raise ValueError(
                f"a world may not contain {atom!r}: distinct parameters are never equal"
            )

    @classmethod
    def empty(cls):
        """The world in which no atom is true."""
        return cls(())

    @property
    def atoms(self):
        """The frozenset of true non-equality atoms."""
        return self._atoms

    def holds(self, atom):
        """Return True when the ground atom (or equality) is true here."""
        if isinstance(atom, Equals):
            return atom.left == atom.right
        return atom in self._atoms

    def with_atom(self, atom):
        """Return a new world with *atom* added."""
        return World(self._atoms | {atom})

    def without_atom(self, atom):
        """Return a new world with *atom* removed."""
        return World(self._atoms - {atom})

    def restrict(self, atoms):
        """Return a new world keeping only the atoms in *atoms*."""
        wanted = set(atoms)
        return World(a for a in self._atoms if a in wanted)

    def parameters(self):
        """Return every parameter mentioned by some true atom."""
        found = set()
        for atom in self._atoms:
            found.update(atom.args)
        return found

    def _predicate_index(self):
        """A lazily built per-predicate bucket index (a cache; worlds stay
        semantically immutable)."""
        if self._by_predicate is None:
            buckets = {}
            for atom in self._atoms:
                buckets.setdefault(atom.predicate, []).append(atom)
            self._by_predicate = {
                predicate: tuple(bucket) for predicate, bucket in buckets.items()
            }
        return self._by_predicate

    def atoms_for(self, predicate):
        """Return the atoms of the given predicate name true in this world."""
        return self._predicate_index().get(predicate, ())

    def facts_for(self, predicate):
        """Return the tuples of the given predicate name true in this world."""
        return {atom.args for atom in self.atoms_for(predicate)}

    def __contains__(self, atom):
        return self.holds(atom)

    def __iter__(self):
        return iter(sorted(self._atoms, key=lambda a: (a.predicate, tuple(p.name for p in a.args))))

    def __len__(self):
        return len(self._atoms)

    def __eq__(self, other):
        if not isinstance(other, World):
            return NotImplemented
        return self._atoms == other._atoms

    def __hash__(self):
        return self._hash

    def __le__(self, other):
        """Subset ordering on true atoms — used by the minimal-model
        reasoners (GCWA, circumscription)."""
        if not isinstance(other, World):
            return NotImplemented
        return self._atoms <= other._atoms

    def __lt__(self, other):
        if not isinstance(other, World):
            return NotImplemented
        return self._atoms < other._atoms

    def __repr__(self):
        rendered = ", ".join(
            f"{a.predicate}({', '.join(p.name for p in a.args)})" for a in self
        )
        return f"World({{{rendered}}})"
