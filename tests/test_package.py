"""The package surface: each module's ``__all__`` is the one list of its public names."""

import entroscore
from entroscore import bregman, entropies, errors, geometry, grid, measure, sampling, scoring

MODULES = (errors, measure, geometry, entropies, scoring, bregman, grid, sampling)

# The package's public names before ``__all__`` was built from the module lists;
# every one must still import from ``entroscore``.
EARLIER_NAMES = (
    "ASYMMETRIC_WITH_WITNESS", "AffineScore", "CATALOG_NAMES", "CompositeEntropySpec", "ConeVector",
    "ConstructionError", "ConvexDomainSpec", "DENSITY_MASS_TOL", "Density", "DivergenceReport",
    "DomainError", "DualVector", "Entropy", "EntroscoreError", "EulerReport", "GridDensity",
    "INCONCLUSIVE", "MeasureSpace", "PeriodicGrid", "ProprietyReport",
    "SYMMETRIC_GENERALIZED_QUADRATIC", "ScoringRule", "StructureError", "SubgradientProbeResult",
    "__version__", "affine_score_at", "annihilator_basis", "bregman_divergence",
    "bregman_divergence_rows", "canonical_extension_value", "catalog_entropy", "composite_entropy",
    "direction_cone_membership", "directional_derivative_fd", "expected_score",
    "extended_subgradient", "fisher_entropy", "grid_diff", "hyvarinen_divergence", "hyvarinen_score",
    "is_quasi_interior", "lineality_space", "linear_score", "linearity_check", "log_slope",
    "make_psr", "normalize", "pair", "pair_rows", "parse_rule_spec",
    "quadratic_discrimination_bound", "rebase_entropy", "sample_cone_point", "sample_density",
    "sample_positive_box", "score_divergence", "score_divergence_rows", "subdifferential_probe",
    "symmetry_defect", "verify_euler", "verify_propriety", "zero_homog_extend",
)


def test_package_all_joins_the_module_lists():
    joined = [name for module in MODULES for name in module.__all__] + ["__version__"]
    assert entroscore.__all__ == joined
    assert len(set(joined)) == len(joined)


def test_earlier_public_names_still_import():
    namespace = {}
    exec(f"from entroscore import {', '.join(EARLIER_NAMES)}", namespace)
    assert set(EARLIER_NAMES) <= set(namespace)
    assert set(EARLIER_NAMES) <= set(entroscore.__all__)
