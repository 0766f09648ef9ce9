"""Matroid lifts, non-representability certificates, and gain-graph lifts."""

from matlift.core import (
    CheckFailedError,
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
    is_sparse_paving,
    mask_of,
    matroid_from_hyperplanes,
    one_based,
    uniform_matroid,
    validate_circuits,
    validate_hyperplanes,
)

__version__ = "0.1.0"

__all__ = [
    "CheckFailedError",
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
    "is_sparse_paving",
    "mask_of",
    "matroid_from_hyperplanes",
    "one_based",
    "uniform_matroid",
    "validate_circuits",
    "validate_hyperplanes",
    "__version__",
]
