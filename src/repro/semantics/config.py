"""Configuration of the finite-universe semantics.

The paper's languages have a countably infinite supply of parameters; every
computable procedure in this package works over the *active universe* — the
parameters mentioned by the database and the query plus ``extra_parameters``
fresh witnesses.  The configuration also carries the resource limits that stop
the exhaustive procedures (model enumeration, KFOPCE validity checking) from
running away on inputs that are too large for them; callers then fall back to
the prover-based reduction.
"""

from dataclasses import dataclass, replace

from repro.logic.signature import DEFAULT_EXTRA_PARAMETERS


@dataclass(frozen=True)
class SemanticsConfig:
    """Knobs for the finite-universe semantics.

    Attributes:
        extra_parameters: number of fresh "unknown individual" witnesses
            added to the active universe.  Two is enough for every example in
            the paper; raise it when queries quantify over more unknown
            individuals than that at once.
        max_relevant_atoms: model enumeration refuses to enumerate
            assignments over more ground atoms than this (the number of
            candidate worlds is ``2 ** atoms``).
        max_models: upper bound on the number of models materialised by the
            enumeration strategy.
        max_validity_atoms: KFOPCE validity checking enumerates pairs
            ``(W, 𝒮)`` and is doubly exponential in the number of relevant
            atoms; it refuses inputs with more atoms than this.
        max_prove_tuples: upper bound on the number of answer tuples the
            prover enumerates for a single first-order subgoal.
    """

    extra_parameters: int = DEFAULT_EXTRA_PARAMETERS
    max_relevant_atoms: int = 22
    max_models: int = 1_000_000
    max_validity_atoms: int = 4
    max_prove_tuples: int = 100_000

    def with_extra_parameters(self, extra_parameters):
        """Return a copy with a different number of fresh witnesses."""
        return replace(self, extra_parameters=extra_parameters)


#: The configuration used when callers do not supply one.
DEFAULT_CONFIG = SemanticsConfig()
