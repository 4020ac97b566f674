"""Shared helpers for the test suite."""

import os
from pathlib import Path

import numpy as np

import entroscore
from entroscore import (
    CompositeEntropySpec,
    ConvexDomainSpec,
    MeasureSpace,
    catalog_entropy,
    composite_entropy,
    make_psr,
    parse_rule_spec,
)

# The six named rules the verification suites exercise.
CATALOG_SPECS = (
    "quadratic",
    "spherical",
    "shannon",
    "power(1.5)",
    "power(3)",
    "pseudospherical(3)",
)


def entropy_from_spec(spec: str, space: MeasureSpace):
    """Build a catalog entropy from a spec string like ``power(1.5)``."""
    name, gamma = parse_rule_spec(spec)
    return catalog_entropy(name, space, gamma=gamma)


def rule_from_spec(spec: str, space: MeasureSpace):
    return make_psr(entropy_from_spec(spec, space))


def child_env() -> dict:
    """Environment for a child interpreter that imports this checkout's package."""
    src = str(Path(entroscore.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def unit_space(n: int) -> MeasureSpace:
    return MeasureSpace(np.ones(n))


def power_law_composite(space, gamma, nu=None):
    """Separable entropy sum q^gamma nu via the composite machinery."""
    return composite_entropy(
        CompositeEntropySpec(
            outer=lambda x: x,
            outer_derivative=lambda x: 1.0,
            inner=lambda v: np.power(v, gamma),
            inner_derivative=lambda v: gamma * np.power(v, gamma - 1.0),
            nu_weights=space.weights if nu is None else nu,
        ),
        ConvexDomainSpec.nonnegative_orthant(space),
        name=f"separable_power({gamma:g})",
    )


def integrated_square_composite(space, nu):
    """Non-separable entropy (sum q nu)^2 via the composite machinery."""
    return composite_entropy(
        CompositeEntropySpec(
            outer=lambda x: x * x,
            outer_derivative=lambda x: 2.0 * x,
            inner=lambda v: v,
            inner_derivative=lambda v: np.ones_like(v),
            nu_weights=nu,
        ),
        ConvexDomainSpec.nonnegative_orthant(space),
        name="integrated_square",
    )
