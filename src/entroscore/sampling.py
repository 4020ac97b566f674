"""Seeded random points on the simplex and the positive cone.

Shared by the verification loops: densities are Dirichlet(1,...,1) draws
(mapped through the atom weights so the weighted mass is 1), cone points are
densities scaled by a log-uniform mass.  The ``*_rows`` samplers make the
rng calls of as many one-point draws, in order, and return the points as rows.
"""

from __future__ import annotations

import numpy as np

from .measure import ConeVector, Density, MeasureSpace, require_density_rows

__all__ = ["sample_density", "sample_cone_point", "sample_positive_box", "density_rows", "cone_rows"]

# Cone points carry a log-uniform mass in [_MASS_LOW, _MASS_HIGH]; box points
# have coordinates below _BOX_HIGH.
_MASS_LOW, _MASS_HIGH = 0.1, 10.0
_BOX_HIGH = 2.0


def density_rows(space: MeasureSpace, rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` uniform (Dirichlet(1,...,1)) random densities on ``space``, as rows."""
    return require_density_rows(rng.dirichlet(np.ones(space.size), size=count) / space.weights,
                                space.weights)


def cone_rows(space: MeasureSpace, rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` random positive cone points (Dirichlet direction, log-uniform mass), as rows."""
    masses, draws = zip(*[  # one mass, then one direction, per point
        (float(np.exp(rng.uniform(np.log(_MASS_LOW), np.log(_MASS_HIGH)))),
         rng.dirichlet(np.ones(space.size))) for _ in range(count)])
    directions = require_density_rows(np.array(draws) / space.weights, space.weights)
    return directions * np.array(masses)[:, None]


def sample_density(space: MeasureSpace, rng: np.random.Generator) -> Density:
    """Uniform (Dirichlet(1,...,1)) random density on ``space``."""
    return space.density(density_rows(space, rng, 1)[0])


def sample_cone_point(space: MeasureSpace, rng: np.random.Generator) -> ConeVector:
    """Random positive cone point: Dirichlet direction, log-uniform mass."""
    return space.cone(cone_rows(space, rng, 1)[0])


def sample_positive_box(
    space: MeasureSpace, rng: np.random.Generator, low: float = 0.05
) -> ConeVector:
    """Componentwise uniform point in [low, 2), bounded away from the boundary."""
    return space.cone(rng.uniform(low, _BOX_HIGH, size=space.size))
