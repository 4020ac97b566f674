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
    "pair_rows",
    "fsum_rows",
    "require_density_rows",
    "normalize_rows",
    "row_list",
    "total_mass",
    "normalize",
]

# Densities must carry unit mass to within this tolerance; off-mass inputs
# are rejected, never silently renormalized.
DENSITY_MASS_TOL = 1e-9

# Row kernels leave out-of-range floats to the checks that name their rows,
# without warnings.  A decorator: it nests, a ``with`` on it does not.
quiet_floats = np.errstate(over="ignore", invalid="ignore", divide="ignore")


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
        if not np.isfinite(v).all():
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
        require_density_rows(self.values[None], self.space.weights)


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
        if not np.isfinite(v).all():
            if np.isnan(v).any():
                raise ConstructionError("dual vectors must not contain NaN")
            if not self.allow_infinite:
                raise ConstructionError(
                    "dual vectors must be finite unless flagged as infinite-score sentinels"
                )
        object.__setattr__(self, "values", v)

    def __repr__(self) -> str:
        return f"DualVector({np.array2string(self.values, precision=6)})"


def _require_same_space(a, b) -> None:
    if a.space != b.space:
        raise StructureError("operands live on different measure spaces")


def row_list(rows: list[int]) -> str:
    """``row 3`` or ``rows 1, 4``: 1-based row numbers for error messages."""
    return ("row " if len(rows) == 1 else "rows ") + ", ".join(map(str, rows))


def fsum_rows(terms: np.ndarray) -> np.ndarray:
    """Exact sum of each row (``math.fsum``, rounded once).

    :class:`DomainError` names the rows whose finite terms sum past the float
    range or that add opposing infinities.
    """
    sums, bad = [], []
    for i, row in enumerate(terms.tolist(), start=1):
        try:
            sums.append(math.fsum(row))
        except (OverflowError, ValueError):
            bad.append(i)
    if bad:
        raise DomainError(f"sums leave the float range in {row_list(bad)}")
    return np.array(sums, dtype=float)


@quiet_floats
def pair_rows(q_rows: np.ndarray, f_rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Row-wise pairing ``sum_i q_i f_i mu_i`` of broadcastable (m, n) arrays.

    Rows of ``f`` with finite entries sum ``(q f) mu`` exactly.  On the others
    atoms where ``q_i mu_i = 0`` contribute nothing (0 * inf := 0 on sets of
    measure zero), the rest ``(q mu) f``: an infinite term makes the signed
    infinity, opposing infinities NaN.
    """
    terms = q_rows * f_rows * weights
    if np.isfinite(f_rows).all():
        return fsum_rows(terms)
    q_rows, f_rows = np.broadcast_arrays(q_rows, f_rows)
    infinite = ~np.isfinite(f_rows).all(axis=1)
    base = q_rows[infinite] * weights
    terms[infinite] = np.where(base != 0.0, base * f_rows[infinite], 0.0)
    charged = infinite & np.isinf(terms).any(axis=1)
    signed = np.where(np.isinf(terms[charged]), terms[charged], 0.0).sum(axis=1)
    terms[charged] = 0.0
    sums = fsum_rows(terms)
    sums[charged] = signed
    return sums


def pair(p: ConeVector, f: DualVector) -> float:
    """Expected-score pairing ``sum_i p_i f_i mu_i``: one row of :func:`pair_rows`."""
    _require_same_space(p, f)
    return float(pair_rows(p.values[None], f.values[None], p.space.weights)[0])


@quiet_floats
def require_density_rows(q_rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``q_rows`` itself, once every row is a density.

    A density row has finite, nonnegative entries and a total mass within
    ``DENSITY_MASS_TOL`` of 1; :class:`DomainError` names each row that is not.
    """
    finite = np.isfinite(q_rows).all(axis=1)
    negative = (q_rows < 0.0).any(axis=1)
    mass = fsum_rows(np.where(finite[:, None], q_rows, 0.0) * weights)
    bad = ~finite | negative | ~(np.abs(mass - 1.0) <= DENSITY_MASS_TOL)
    if bad.any():
        raise DomainError("invalid density rows: " + "; ".join(
            f"row {i + 1}: " + ("cone vectors must have finite entries" if not finite[i]
                                else "densities must be nonnegative" if negative[i]
                                else f"density mass {float(mass[i])!r} is not 1 within {DENSITY_MASS_TOL}")
            for i in np.flatnonzero(bad).tolist()))
    return q_rows


def total_mass(q: ConeVector) -> float:
    """Total mass ``sum_i q_i mu_i`` (the normalising constant of ``q``)."""
    return math.fsum((q.values * q.space.weights).tolist())


@quiet_floats
def normalize_rows(q_rows: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row rescaled to unit mass (a checked density), and the masses.

    Raises :class:`DomainError` for negative entries or nonpositive mass;
    callers that want renormalization of an off-mass density must go through
    here explicitly.
    """
    if (q_rows < 0.0).any():
        raise DomainError("cannot normalize a vector with negative entries")
    mass = fsum_rows(q_rows * weights)
    if (mass <= 0.0).any():
        raise DomainError("cannot normalize a vector with nonpositive total mass")
    return require_density_rows(q_rows / mass[:, None], weights), mass


def normalize(q: ConeVector) -> Density:
    """Rescale a nonnegative cone vector to unit mass: one row of :func:`normalize_rows`."""
    return Density(normalize_rows(q.values[None], q.space.weights)[0][0], q.space)
