"""Finite measure spaces, densities, and the weighted duality pairing.

Everything downstream reduces to weighted sums over a finite outcome set:
expected scores, entropies, divergences.  This module owns the three vector
roles (cone vectors, probability densities, dual vectors) and the pairing

    pair(p, f) = sum_i p_i * f_i * mu_i

computed with exact (compensated) summation so that identities asserted at
1e-12 survive outcome sets up to ~10^4 atoms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConstructionError, DomainError, StructureError

__all__ = [
    "MeasureSpace",
    "ConeVector",
    "Density",
    "DualVector",
    "DENSITY_MASS_TOL",
    "pair",
    "total_mass",
    "normalize",
]

# Densities must carry unit mass to within this tolerance; off-mass inputs
# are rejected, never silently renormalized.
DENSITY_MASS_TOL = 1e-9


def _frozen_array(values, *, name: str) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != 1:
        raise StructureError(f"{name} must be one-dimensional, got shape {arr.shape}")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class MeasureSpace:
    """Finite outcome set with strictly positive atom weights."""

    weights: np.ndarray

    def __post_init__(self):
        w = _frozen_array(self.weights, name="weights")
        if w.size < 1:
            raise ConstructionError("a measure space needs at least one atom")
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise ConstructionError("atom weights must be finite and strictly positive")
        object.__setattr__(self, "weights", w)

    @property
    def size(self) -> int:
        return int(self.weights.size)

    def __eq__(self, other) -> bool:
        return isinstance(other, MeasureSpace) and np.array_equal(self.weights, other.weights)

    def __hash__(self) -> int:
        return hash(self.weights.tobytes())

    def __repr__(self) -> str:
        return f"MeasureSpace(n={self.size})"

    # -- constructors for the vector roles ---------------------------------

    def cone(self, values) -> "ConeVector":
        return ConeVector(values, self)

    def density(self, values) -> "Density":
        return Density(values, self)

    def dual(self, values, *, allow_infinite: bool = False) -> "DualVector":
        return DualVector(values, self, allow_infinite=allow_infinite)

    def ones_dual(self) -> "DualVector":
        return DualVector(np.ones(self.size), self)

    def uniform_density(self) -> "Density":
        total = math.fsum(self.weights.tolist())
        return Density(np.full(self.size, 1.0 / total), self)


@dataclass(frozen=True, eq=False)
class ConeVector:
    """Real-valued function on the outcome set (an element of span P)."""

    values: np.ndarray
    space: MeasureSpace

    def __post_init__(self):
        v = _frozen_array(self.values, name="values")
        if v.size != self.space.size:
            raise StructureError(
                f"vector of length {v.size} does not fit a space of size {self.space.size}"
            )
        if not np.all(np.isfinite(v)):
            raise ConstructionError("cone vectors must have finite entries")
        object.__setattr__(self, "values", v)

    def __add__(self, other: "ConeVector") -> "ConeVector":
        _require_same_space(self, other)
        return ConeVector(self.values + other.values, self.space)

    def __sub__(self, other: "ConeVector") -> "ConeVector":
        _require_same_space(self, other)
        return ConeVector(self.values - other.values, self.space)

    def __neg__(self) -> "ConeVector":
        return ConeVector(-self.values, self.space)

    def __mul__(self, scalar: float) -> "ConeVector":
        return ConeVector(self.values * float(scalar), self.space)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"{type(self).__name__}({np.array2string(self.values, precision=6)})"


class Density(ConeVector):
    """Nonnegative cone vector of unit total mass."""

    def __post_init__(self):
        super().__post_init__()
        if np.any(self.values < 0.0):
            raise DomainError("densities must be nonnegative")
        mass = total_mass(self)
        if abs(mass - 1.0) > DENSITY_MASS_TOL:
            raise DomainError(f"density mass {mass!r} is not 1 within {DENSITY_MASS_TOL}")


@dataclass(frozen=True, eq=False)
class DualVector:
    """P-integrable test function; the object scores and subgradients live in.

    Entries must be finite unless ``allow_infinite`` is set, which marks the
    vector as carrying an infinite-score sentinel (e.g. ``log 0`` entries of
    the logarithmic score).  NaNs are never allowed.
    """

    values: np.ndarray
    space: MeasureSpace
    allow_infinite: bool = field(default=False, compare=False)

    def __post_init__(self):
        v = _frozen_array(self.values, name="values")
        if v.size != self.space.size:
            raise StructureError(
                f"vector of length {v.size} does not fit a space of size {self.space.size}"
            )
        if np.any(np.isnan(v)):
            raise ConstructionError("dual vectors must not contain NaN")
        if not self.allow_infinite and not np.all(np.isfinite(v)):
            raise ConstructionError(
                "dual vectors must be finite unless flagged as infinite-score sentinels"
            )
        object.__setattr__(self, "values", v)

    def __repr__(self) -> str:
        return f"DualVector({np.array2string(self.values, precision=6)})"


def _require_same_space(a, b) -> None:
    if a.space != b.space:
        raise StructureError("operands live on different measure spaces")


def pair(p: ConeVector, f: DualVector) -> float:
    """Expected-score pairing ``sum_i p_i f_i mu_i`` with compensated summation.

    Atoms where ``p_i = 0`` contribute nothing even if ``f_i`` is infinite
    (the 0 * inf := 0 convention for sets of measure zero).  If an infinite
    entry of ``f`` meets positive weight the result is the matching signed
    infinity; opposing infinities yield NaN.
    """
    _require_same_space(p, f)
    w = p.space.weights
    fv = f.values
    if np.all(np.isfinite(fv)):
        return math.fsum((p.values * fv * w).tolist())
    base = p.values * w
    charged = base != 0.0
    terms = base[charged] * fv[charged]
    infinite = np.isinf(terms)
    if np.any(infinite):
        with np.errstate(invalid="ignore"):  # inf + (-inf) is the documented NaN
            return float(np.sum(terms[infinite]))
    return math.fsum(terms.tolist())


def total_mass(q: ConeVector) -> float:
    """Total mass ``sum_i q_i mu_i`` (the normalising constant of ``q``)."""
    return math.fsum((q.values * q.space.weights).tolist())


def normalize(q: ConeVector) -> Density:
    """Rescale a nonnegative cone vector to unit mass.

    Raises :class:`DomainError` for negative entries or nonpositive mass;
    callers that want renormalization of an off-mass density must go through
    here explicitly.
    """
    if np.any(q.values < 0.0):
        raise DomainError("cannot normalize a vector with negative entries")
    mass = total_mass(q)
    if mass <= 0.0:
        raise DomainError("cannot normalize a vector with nonpositive total mass")
    return Density(q.values / mass, q.space)
