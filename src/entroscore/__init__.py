"""Proper scoring rules, Bregman divergences, and convex entropy geometry.

The package builds scoring rules as subgradients of convex entropies on a
finite measure space, extends them homogeneously to the positive cone,
evaluates the induced Bregman divergences, and numerically verifies the
structural facts that make the construction work: propriety, the Euler
identity, symmetry classification, and subgradient uniqueness on the
quasi-interior of a convex domain.  A periodic-grid Hyvarinen rule covers
the unnormalised-model use case.
"""

from .errors import ConstructionError, DomainError, EntroscoreError, StructureError
from .measure import (
    DENSITY_MASS_TOL,
    ConeVector,
    Density,
    DualVector,
    MeasureSpace,
    normalize,
    pair,
    pair_rows,
    total_mass,
)
from .geometry import (
    ConvexDomainSpec,
    SubgradientProbeResult,
    annihilator_basis,
    direction_cone_membership,
    is_quasi_interior,
    lineality_space,
    subdifferential_probe,
)
from .entropies import (
    CATALOG_NAMES,
    CompositeEntropySpec,
    Entropy,
    canonical_extension_value,
    catalog_entropy,
    composite_entropy,
    directional_derivative_fd,
    extended_subgradient,
    parse_rule_spec,
)
from .scoring import (
    EulerReport,
    ProprietyReport,
    ScoringRule,
    expected_score,
    linear_score,
    make_psr,
    score_divergence,
    score_divergence_rows,
    verify_euler,
    verify_propriety,
    zero_homog_extend,
)
from .bregman import (
    ASYMMETRIC_WITH_WITNESS,
    INCONCLUSIVE,
    SYMMETRIC_GENERALIZED_QUADRATIC,
    AffineScore,
    DivergenceReport,
    affine_score_at,
    bregman_divergence,
    linearity_check,
    quadratic_discrimination_bound,
    rebase_entropy,
    symmetry_defect,
)
from .grid import (
    GridDensity,
    PeriodicGrid,
    fisher_entropy,
    grid_diff,
    hyvarinen_divergence,
    hyvarinen_score,
    log_slope,
)
from .sampling import sample_cone_point, sample_density, sample_positive_box

__version__ = "0.1.0"

__all__ = [
    "EntroscoreError", "StructureError", "DomainError", "ConstructionError",
    "MeasureSpace", "ConeVector", "Density", "DualVector",
    "pair", "pair_rows", "total_mass", "normalize", "DENSITY_MASS_TOL",
    "ConvexDomainSpec", "SubgradientProbeResult",
    "direction_cone_membership", "lineality_space", "is_quasi_interior",
    "annihilator_basis", "subdifferential_probe",
    "Entropy", "CompositeEntropySpec", "CATALOG_NAMES",
    "catalog_entropy", "parse_rule_spec", "canonical_extension_value", "extended_subgradient",
    "directional_derivative_fd", "composite_entropy",
    "ScoringRule", "ProprietyReport", "EulerReport",
    "make_psr", "linear_score", "zero_homog_extend",
    "expected_score", "score_divergence", "score_divergence_rows", "verify_propriety", "verify_euler",
    "AffineScore", "DivergenceReport",
    "SYMMETRIC_GENERALIZED_QUADRATIC", "ASYMMETRIC_WITH_WITNESS", "INCONCLUSIVE",
    "bregman_divergence", "affine_score_at", "linearity_check",
    "rebase_entropy", "symmetry_defect", "quadratic_discrimination_bound",
    "PeriodicGrid", "GridDensity",
    "grid_diff", "log_slope", "hyvarinen_score", "fisher_entropy", "hyvarinen_divergence",
    "sample_density", "sample_cone_point", "sample_positive_box",
    "__version__",
]
