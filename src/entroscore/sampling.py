"""Seeded random points on the simplex and the positive cone.

Shared by the verification loops: densities are Dirichlet(1,...,1) draws
(mapped through the atom weights so the weighted mass is 1), cone points are
densities scaled by a log-uniform mass.
"""

from __future__ import annotations

import numpy as np

from .measure import ConeVector, Density, MeasureSpace

__all__ = ["sample_density", "sample_cone_point", "sample_positive_box"]

# Cone points carry a log-uniform mass in [_MASS_LOW, _MASS_HIGH]; box points
# have coordinates below _BOX_HIGH.
_MASS_LOW, _MASS_HIGH = 0.1, 10.0
_BOX_HIGH = 2.0


def sample_density(space: MeasureSpace, rng: np.random.Generator) -> Density:
    """Uniform (Dirichlet(1,...,1)) random density on ``space``."""
    d = rng.dirichlet(np.ones(space.size))
    return space.density(d / space.weights)


def sample_cone_point(space: MeasureSpace, rng: np.random.Generator) -> ConeVector:
    """Random positive cone point: Dirichlet direction, log-uniform mass."""
    mass = float(np.exp(rng.uniform(np.log(_MASS_LOW), np.log(_MASS_HIGH))))
    return space.cone(sample_density(space, rng).values * mass)


def sample_positive_box(
    space: MeasureSpace, rng: np.random.Generator, low: float = 0.05
) -> ConeVector:
    """Componentwise uniform point in [low, 2), bounded away from the boundary."""
    return space.cone(rng.uniform(low, _BOX_HIGH, size=space.size))
