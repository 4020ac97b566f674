"""Hyvarinen scoring on a uniform periodic 1-D grid.

The rule evaluates unnormalised models: it depends on the predictive density
only through the discrete log-slope

    r = (D q) / q,

where D is the centered difference on the periodic grid: it is the rule of
the catalog's ``fisher`` entropy on the grid's space.  D is antisymmetric
under the uniform-weight pairing, so discrete summation by parts is exact,
and the ratio form (rather than differencing log q) makes the structural
identities exact at machine precision rather than up to discretisation error:

* scale invariance  S(lam q) = S(q);
* the Euler identity  pair(q, S(q)) = fisher_entropy(q);
* the divergence identity  pair(p, S(p) - S(q)) = sum p (r_p - r_q)^2 h.

Scores are oriented so that larger is better: S(q) = -2 D r - r^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .entropies import Entropy, _periodic_differences, catalog_entropy
from .errors import ConstructionError, DomainError
from .measure import (DENSITY_MASS_TOL, DualVector, MeasureSpace, fsum_rows, quiet_floats,
                      require_float_range, row_list)

__all__ = [
    "PeriodicGrid",
    "GridDensity",
    "hyvarinen_score",
    "fisher_entropy",
    "hyvarinen_divergence",
]


@dataclass(frozen=True)
class PeriodicGrid:
    """Uniform grid of N >= 4 points on [0, 1) with periodic wraparound."""

    n: int

    def __post_init__(self):
        if not math.isfinite(self.n) or int(self.n) != self.n or self.n < 4:
            raise ConstructionError("a periodic grid needs an integer size of at least 4")
        object.__setattr__(self, "n", int(self.n))

    @property
    def spacing(self) -> float:
        return 1.0 / self.n

    @cached_property
    def points(self) -> np.ndarray:
        pts = np.arange(self.n) * self.spacing
        pts.flags.writeable = False
        return pts

    @cached_property
    def space(self) -> MeasureSpace:
        return MeasureSpace(np.full(self.n, self.spacing))

    @cached_property
    def entropy(self) -> Entropy:
        """The catalog's ``fisher`` entropy on the grid's space: its rule is the grid rule."""
        return catalog_entropy("fisher", self.space)


@dataclass(frozen=True, eq=False)
class GridDensity:
    """Strictly positive values on a periodic grid; normalisation optional."""

    grid: PeriodicGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.shape != (self.grid.n,):
            raise ConstructionError("grid density length does not match the grid")
        bad = np.flatnonzero(~(np.isfinite(v) & (v > 0.0))) + 1
        if bad.size:
            raise DomainError(f"nonpositive or non-finite grid density values in {row_list(bad.tolist())}")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def mass(self) -> float:
        return float(fsum_rows(self.values * self.grid.spacing))

    def normalized(self) -> "GridDensity":
        return GridDensity(self.grid, self.values / self.mass)


def hyvarinen_score(q: GridDensity) -> DualVector:
    """Gridwise score S(q) = -2 D r - r^2, oriented so larger is better: one row of fisher's scores.

    Exactly 0-homogeneous: any positive rescaling of q cancels inside r.
    :class:`DomainError` names the grid points whose score leaves the float range.
    """
    scores = q.grid.entropy.closed_form_rows(q.values[None])[0]
    return q.grid.space.dual(require_float_range("hyvarinen scores", scores))


def fisher_entropy(q: GridDensity) -> float:
    """Discrete Fisher information sum q r^2 h, 1-homogeneous in q: one value of the fisher row.

    Zero exactly for constant densities, and the expected self-score of the
    grid rule (the Euler identity).  :class:`DomainError` if it leaves the float range.
    """
    value = float(q.grid.entropy.value_rows(q.values[None])[0])
    if not math.isfinite(value):
        raise DomainError("the Fisher entropy leaves the float range")
    return value


@quiet_floats
def hyvarinen_divergence(p: GridDensity, q: GridDensity) -> float:
    """Fisher divergence sum p (r_p - r_q)^2 h for a normalised truth p.

    Equal to ``pair(p, S(p)) - pair(p, S(q))`` by exact summation by parts;
    zero precisely when the log-slopes agree, in particular for q = lam p.  A sum of squares, it
    cannot go negative; the Bregman form can.  :class:`DomainError` names terms past the float range.
    """
    if p.grid != q.grid:
        raise DomainError("grid densities live on different grids")
    if abs(p.mass - 1.0) > DENSITY_MASS_TOL:
        raise DomainError("the first argument must be a normalised density")
    r_p, r_q = (_periodic_differences(v.values, v.grid.spacing) / v.values for v in (p, q))
    diff = r_p - r_q
    terms = require_float_range("Fisher divergence terms", p.values * diff * diff * p.grid.spacing)
    return float(fsum_rows(terms))
