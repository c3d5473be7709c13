"""Integrity constraints (Section 3 of the paper).

The paper's central conceptual claim: integrity constraints are statements
about what the database *knows*, not about the external world, so they are
KFOPCE sentences and checking them is exactly query evaluation
(Definition 3.5).  This subpackage provides:

* :mod:`repro.constraints.definitions` — all five notions of a database
  satisfying a constraint that the paper compares (consistency, entailment,
  completion-consistency, completion-entailment, epistemic entailment), so
  the Section 3 counter-examples can be reproduced mechanically;
* :mod:`repro.constraints.modalize` — the systematic first-order → modal
  rewriting that produces the paper's readings (Examples 3.1–3.5);
* :mod:`repro.constraints.library` — ready-made constraint templates
  (mandatory attributes, disjointness, totality, typed relations, functional
  dependencies);
* :mod:`repro.constraints.checker` — an :class:`IntegrityChecker` that
  validates a database against a constraint set from scratch and reports
  violations with witnesses — the violation view's fallback evaluator and
  the test oracle;
* :mod:`repro.constraints.compile` — the translation of modalized
  admissible constraints into stratified Datalog *violation rules*
  (``__violation__<id>(witness...)``), with a machine-readable fragment
  boundary for everything that cannot be compiled;
* :mod:`repro.constraints.views` — :class:`ViolationView`, the compiled
  rules materialized and incrementally maintained over a database's update
  stream: every database's one constraint check, an O(delta) staged read.
"""

from repro.constraints.definitions import (
    SatisfactionDefinition,
    satisfies,
    satisfies_completion_consistency,
    satisfies_completion_entailment,
    satisfies_consistency,
    satisfies_entailment,
    satisfies_epistemic,
)
from repro.constraints.modalize import modalize_constraint
from repro.constraints.library import (
    disjoint_properties,
    known_instances_typed,
    mandatory_attribute,
    mandatory_known_attribute,
    total_property,
    unique_attribute,
)
from repro.constraints.checker import (
    ConstraintReport,
    ConstraintViolation,
    IntegrityChecker,
)
from repro.constraints.compile import (
    CompilationFallback,
    CompiledConstraint,
    CompiledConstraintSet,
    compile_constraint,
    compile_constraints,
    is_compilable,
)
from repro.constraints.views import ViolationView

__all__ = [
    "CompilationFallback",
    "CompiledConstraint",
    "CompiledConstraintSet",
    "ConstraintReport",
    "ConstraintViolation",
    "IntegrityChecker",
    "SatisfactionDefinition",
    "ViolationView",
    "compile_constraint",
    "compile_constraints",
    "is_compilable",
    "disjoint_properties",
    "known_instances_typed",
    "mandatory_attribute",
    "mandatory_known_attribute",
    "modalize_constraint",
    "satisfies",
    "satisfies_completion_consistency",
    "satisfies_completion_entailment",
    "satisfies_consistency",
    "satisfies_entailment",
    "satisfies_epistemic",
    "total_property",
    "unique_attribute",
]
