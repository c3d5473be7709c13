"""Model enumeration over the relevant ground atoms.

``ℳ(Σ)`` — the set of worlds satisfying every first-order sentence of Σ — is
what Definition 2.1 quantifies over.  Enumerating *all* worlds over the full
Herbrand base is hopeless even for toy databases (``Teach/2`` over eight
parameters already gives 2⁶⁴ candidate worlds), but the truth of Σ and of any
fixed query only depends on the ground atoms that actually appear in their
quantifier expansions.  Atoms outside that *relevant* set can be fixed
arbitrarily (we fix them to false) without changing which queries are
entailed, so enumerating assignments over the relevant atoms yields a
faithful, finite stand-in for ``ℳ(Σ)``.

This module is the exact-but-exponential oracle of the package; the prover
based reduction (:mod:`repro.semantics.reduction`) scales much further and is
cross-checked against this oracle in the test suite.
"""

from repro.exceptions import UniverseTooLargeError
from repro.logic.builders import forall
from repro.logic.syntax import atoms_of, free_variables
from repro.logic.transform import ground_quantifiers
from repro.logic.signature import signature_of
from repro.semantics.config import DEFAULT_CONFIG
from repro.semantics.truth import theory_holds_in_world
from repro.semantics.worlds import World


def active_universe(theory, queries=(), config=DEFAULT_CONFIG):
    """Return the active parameter universe for *theory* and *queries*."""
    signature = signature_of(theory, queries)
    return signature.universe(extra_parameters=config.extra_parameters)


def relevant_atoms(theory, queries=(), universe=None, config=DEFAULT_CONFIG):
    """Return the ground atoms mentioned by the quantifier expansion of the
    theory and the queries over the active universe, in a deterministic
    order."""
    if universe is None:
        universe = active_universe(theory, queries, config)
    atoms = set()
    for formula in list(theory) + list(queries):
        # Open queries contribute the atoms of every instantiation, which is
        # what grounding their universal closure produces.
        free = sorted(free_variables(formula), key=lambda v: v.name)
        closed = forall([v.name for v in free], formula) if free else formula
        atoms |= atoms_of(ground_quantifiers(closed, universe))
    return tuple(sorted(atoms, key=lambda a: (a.predicate, tuple(p.name for p in a.args))))


def enumerate_worlds(atoms, config=DEFAULT_CONFIG):
    """Yield every world over the given ground *atoms* (all 2^n subsets).

    Raises :class:`UniverseTooLargeError` when there are more atoms than
    ``config.max_relevant_atoms``.
    """
    atoms = tuple(atoms)
    if len(atoms) > config.max_relevant_atoms:
        raise UniverseTooLargeError(
            f"refusing to enumerate 2^{len(atoms)} candidate worlds "
            f"(limit is 2^{config.max_relevant_atoms}); "
            "use the prover-based strategy instead"
        )
    total = 1 << len(atoms)
    for mask in range(total):
        true_atoms = [atoms[i] for i in range(len(atoms)) if mask & (1 << i)]
        yield World(true_atoms)


def enumerate_models(theory, queries=(), universe=None, config=DEFAULT_CONFIG):
    """Return ``(models, universe)`` where *models* is the set of worlds over
    the relevant atoms that satisfy every sentence of *theory*.

    The *queries* are only used to widen the relevant-atom set so that the
    returned models decide every atom the queries talk about.
    """
    if universe is None:
        universe = active_universe(theory, queries, config)
    atoms = relevant_atoms(theory, queries, universe=universe, config=config)
    models = set()
    for world in enumerate_worlds(atoms, config=config):
        if theory_holds_in_world(theory, world, universe):
            models.add(world)
            if len(models) > config.max_models:
                raise UniverseTooLargeError(
                    f"theory has more than {config.max_models} models over its relevant atoms"
                )
    return models, universe


def minimal_models(models):
    """Return the subset-minimal worlds of *models* (used by the generalized
    closed-world assumption and circumscription, Example 7.2)."""
    models = list(models)
    result = []
    for candidate in models:
        if not any(other.atoms < candidate.atoms for other in models):
            result.append(candidate)
    return set(result)

