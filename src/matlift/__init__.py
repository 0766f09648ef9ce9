"""Matroid lifts, non-representability certificates, and gain-graph lifts."""

from matlift.core import (
    CircuitAxiomError,
    HyperplaneAxiomError,
    Mask,
    Matroid,
    SearchBudgetExceeded,
    SparsePaving,
    ValidationReport,
    canonical_circuits,
    elements_of,
    find_isomorphism,
    is_quotient,
    is_sparse_paving,
    mask_of,
    matroid_from_hyperplanes,
    one_based,
    relax,
    uniform_matroid,
    validate_circuits,
    validate_hyperplanes,
)

__version__ = "0.1.0"

__all__ = [
    "CircuitAxiomError",
    "HyperplaneAxiomError",
    "Mask",
    "Matroid",
    "SearchBudgetExceeded",
    "SparsePaving",
    "ValidationReport",
    "canonical_circuits",
    "elements_of",
    "find_isomorphism",
    "is_quotient",
    "is_sparse_paving",
    "mask_of",
    "matroid_from_hyperplanes",
    "one_based",
    "relax",
    "uniform_matroid",
    "validate_circuits",
    "validate_hyperplanes",
    "__version__",
]
