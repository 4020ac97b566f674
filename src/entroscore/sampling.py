"""Seeded random points: every draw the package makes, ``geometry``'s domains' included.

Shared by the verification loops: densities are Dirichlet(1,...,1) draws
(mapped through the atom weights so the weighted mass is 1), cone points are
densities scaled by a log-uniform mass.  The ``*_rows`` samplers make the
same bit-generator draws, in the same order, as that many one-point draws
(so ``k`` rows then ``l`` are ``k + l`` rows in one draw), and return rows.

Each suite seeds a generator of its own, so rules that share ``seed`` and
``samples`` are checked on the same points; one ``verify`` command draws them
once (:func:`_shared_draws`) and hands them out read-only.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar

import numpy as np

from .measure import ConeVector, Density, MeasureSpace, require_density_rows

__all__ = ["sample_density", "sample_cone_point", "sample_positive_box", "density_rows", "cone_rows",
           "box_rows"]

# Cone points carry a log-uniform mass in [_MASS_LOW, _MASS_HIGH]; box points
# have coordinates in [_BOX_LOW, _BOX_HIGH).
_MASS_LOW, _MASS_HIGH = 0.1, 10.0
_BOX_LOW, _BOX_HIGH = 0.05, 2.0

_DRAWS: ContextVar[dict | None] = ContextVar("entroscore_draws", default=None)


@contextmanager
def _shared_draws():
    """Within the block, :func:`_seeded` makes each distinct draw once."""
    token = _DRAWS.set({})
    try:
        yield
    finally:
        _DRAWS.reset(token)


def _seeded(sampler, space: MeasureSpace, seed: int, count: int):
    """``sampler(space, np.random.default_rng(seed), count)``, made once and read-only in a block."""
    memo = _DRAWS.get()
    if memo is None:
        return sampler(space, np.random.default_rng(seed), count)
    key = (sampler, space, seed, count)
    if key not in memo:
        draw = memo[key] = sampler(space, np.random.default_rng(seed), count)
        for rows in draw if isinstance(draw, tuple) else (draw,):
            rows.flags.writeable = False
    return memo[key]


def density_rows(space: MeasureSpace, rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` uniform (Dirichlet(1,...,1)) random densities on ``space``, as rows."""
    return require_density_rows(rng.dirichlet(np.ones(space.size), size=count) / space.weights,
                                space.weights)


def cone_rows(space: MeasureSpace, rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` random positive cone points (Dirichlet direction, log-uniform mass), as rows."""
    low, high = float(np.log(_MASS_LOW)), float(np.log(_MASS_HIGH))
    unit = np.empty(count)
    gammas = np.empty((count, space.size))
    for k in range(count):  # one mass, then Dirichlet(1)'s gamma(1) = exponential draws, per point
        unit[k] = rng.random()
        rng.standard_exponential(out=gammas[k])
    # rng.dirichlet's normalisation: a left-to-right sum, then a product with its reciprocal
    draws = gammas * (1.0 / np.add.accumulate(gammas, axis=1)[:, -1])[:, None]
    directions = require_density_rows(draws / space.weights, space.weights)
    # each point's rng.uniform(low, high) as numpy computes it, low + (high - low) * rng.random()
    return directions * np.exp(low + (high - low) * unit)[:, None]


def box_rows(space: MeasureSpace, rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` componentwise uniform points in [0.05, 2), as rows."""
    return rng.uniform(_BOX_LOW, _BOX_HIGH, size=(count, space.size))


def _hull_rows(generators: np.ndarray, rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` points of the generators' conical hull: one ``e @ generators`` per exponential
    row ``e``, since one matrix product of all rows rounds differently."""
    weights = rng.exponential(1.0, size=(count, generators.shape[0]))
    return np.array([e @ generators for e in weights]).reshape(count, generators.shape[1])


def _normal_rows(space: MeasureSpace, rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` standard normal points of the whole space, as rows."""
    return rng.normal(0.0, 1.0, size=(count, space.size))


def sample_density(space: MeasureSpace, rng: np.random.Generator) -> Density:
    """Uniform (Dirichlet(1,...,1)) random density on ``space``."""
    return space.density(density_rows(space, rng, 1)[0])


def sample_cone_point(space: MeasureSpace, rng: np.random.Generator) -> ConeVector:
    """Random positive cone point: Dirichlet direction, log-uniform mass."""
    return space.cone(cone_rows(space, rng, 1)[0])


def sample_positive_box(space: MeasureSpace, rng: np.random.Generator) -> ConeVector:
    """Componentwise uniform point in [0.05, 2): one row of :func:`box_rows`."""
    return space.cone(box_rows(space, rng, 1)[0])
