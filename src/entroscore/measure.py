"""Finite measure spaces, densities, and the weighted duality pairing.

Everything downstream reduces to weighted sums over a finite outcome set:
expected scores, entropies, divergences.  This module owns the three vector
roles (cone vectors, probability densities, dual vectors) and the pairing

    pair(p, f) = sum_i p_i * f_i * mu_i

computed exactly and rounded once (the bits of ``math.fsum``; large batches
certified on arrays, :func:`exact_row_sums`) so that identities asserted at
1e-12 survive outcome sets up to ~10^4 atoms.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, is_dataclass

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


def _space_values(values, space: MeasureSpace) -> np.ndarray:
    """``values`` as a frozen 1-D array with one entry per atom of ``space``."""
    v = _frozen_array(values, name="values")
    if v.size != space.size:
        raise StructureError(f"vector of length {v.size} does not fit a space of size {space.size}")
    return v


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


@dataclass(frozen=True, eq=False)
class ConeVector:
    """Real-valued function on the outcome set (an element of span P)."""

    values: np.ndarray
    space: MeasureSpace

    def __post_init__(self):
        v = _space_values(self.values, self.space)
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
        v = _space_values(self.values, self.space)
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


def report_dict(report) -> dict:
    """A report's dataclass fields by name, ``passed`` as ``pass``, as plain JSON:
    vectors become lists of floats, lists and nested reports are converted in turn."""
    def plain(value):
        if isinstance(value, (ConeVector, DualVector)):
            return value.values.tolist()
        if isinstance(value, list):
            return [plain(item) for item in value]
        return report_dict(value) if is_dataclass(value) else value

    out = {f.name: plain(getattr(report, f.name)) for f in fields(report)}
    if hasattr(report, "passed"):
        out["pass"] = out.pop("passed", report.passed)
    return out


def row_list(rows: list[int]) -> str:
    """``row 3`` or ``rows 1, 4``: 1-based row numbers for error messages."""
    return ("row " if len(rows) == 1 else "rows ") + ", ".join(map(str, rows))


class FloatRangeError(DomainError):
    """``what`` leave the float range in the 0-based ``rows`` of a batch."""

    def __init__(self, what: str, rows: list[int]):
        super().__init__(f"{what} leave the float range in {row_list([i + 1 for i in rows])}")
        self.what, self.rows = what, rows


@contextmanager
def counted_among(count: int, noun: str, per: int = 1):
    """For a batch that no report shows: a :class:`FloatRangeError` becomes a
    :class:`DomainError` that counts the ``count`` sampled ``noun`` it hits, each
    ``per`` consecutive rows of the batch, instead of naming rows."""
    try:
        yield
    except FloatRangeError as exc:
        hit = len({i // per for i in exc.rows})
        raise DomainError(f"{exc.what} leave the float range at {hit} of {count} sampled {noun}") from None


def require_float_range(what: str, values: np.ndarray, sentinel: bool = False) -> np.ndarray:
    """``values`` itself, unless a row holds NaN or an infinity (``-inf`` is
    allowed as a ``sentinel``): then :class:`FloatRangeError` names every such row."""
    if not np.isfinite(values).all():
        bad = np.isnan(values) | (values == math.inf) | ((values == -math.inf) & (not sentinel))
        rows = np.flatnonzero(bad if bad.ndim == 1 else bad.any(axis=1))
        if rows.size:
            raise FloatRangeError(what, rows.tolist())
    return values


def _first_min(values: np.ndarray) -> tuple[int, float]:
    """Index and value of the first strict minimum, NaN counting as ``+inf``."""
    values = np.where(np.isnan(values), np.inf, values)
    return int(np.argmin(values)), float(values.min())


# Batches of fewer terms go to the math.fsum loop: on a 2-core Xeon (CPython
# 3.11, numpy 2.4) the array path costs 22 us a batch, the loop 0.025 us a term
# and 0.1 us a row, and they cross at 600 (3 atoms a row) to 1,000 terms.
_MIN_ARRAY_TERMS = 1024
# Larger batches run in blocks of whole rows of at most this many terms (one
# row if it is longer), whose two scratch arrays stay in cache: on the same
# host a 400 x 500 batch took 2.8 ms in one block and 1.5 ms in blocks of 2^15.
_BLOCK_TERMS = 2 ** 15
# Rows whose sum of |terms| is outside this range (zeros, infinities, NaN,
# extreme scales) go to math.fsum; inside it extraction is exact and no sum overflows.
_SAFE_LOW, _SAFE_HIGH = 2.0 ** -900, 2.0 ** 900


@quiet_floats
def _distilled_sums(terms: np.ndarray, q: np.ndarray, rest: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row ``s = fl(t1 + t2)`` and whether ``s`` is certified to be the exact sum rounded once.

    ``q`` and ``rest`` are scratch arrays of ``terms``' shape, overwritten.
    ExtractVector (Rump, Ogita & Oishi, SIAM J. Sci. Comput. 2008): with
    ``sigma = 2^(k+2)`` and ``2^k`` above the rounded sum of ``|x|``, every
    ``q = (sigma + x) - sigma`` is a multiple of ``2^-53 sigma`` and every sum
    of them stays below ``sigma``, so ``t = sum q`` is exact in any order (a
    matrix-vector product), as is ``r = x - q``.  Two rounds give
    ``sum x = t1 + t2 + sum r``, and TwoSum (Shewchuk 1997) ``t1 + t2 = s + e``.
    ``s`` is the rounded sum when every ``r`` is zero, or when ``|e| + sum |r|``
    is below half the float gap at ``s`` on the side the remainder lies on.
    """
    ones = np.ones(terms.shape[1])
    top = scale = np.abs(terms, out=q) @ ones
    parts = []
    for _ in range(2):
        sigma = np.ldexp(4.0, np.frexp(scale)[1])[:, None]
        np.add(terms, sigma, out=q)
        q -= sigma
        parts.append(q @ ones)
        terms = np.subtract(terms, q, out=rest)
        scale = np.abs(rest, out=q) @ ones
    (t1, t2), bound = parts, 2.0 * scale  # twice the rounded sum: above sum |r|
    s = t1 + t2
    back = s - t1
    e = (t1 - (s - back)) + (t2 - back)
    # past the bound the remainder lies on e's side; else take the smaller gap, toward zero
    side = np.where(np.abs(e) > bound, e, -s)
    gap = np.abs(np.nextafter(s, np.copysign(np.inf, side)) - s)
    certified = (bound == 0.0) | (gap / 2 - np.abs(e) > bound)
    return s, certified & (top >= _SAFE_LOW) & (top < _SAFE_HIGH)


def exact_row_sums(terms: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Each row's exact sum rounded once (the bits of ``math.fsum``), and the
    0-based rows ``math.fsum`` rejects, which hold NaN.  Batches of
    ``_MIN_ARRAY_TERMS`` terms or more run on arrays, in blocks of at most
    ``_BLOCK_TERMS``; rows without a certificate, and smaller batches, go to
    ``math.fsum``."""
    sums = None
    if terms.size >= _MIN_ARRAY_TERMS:
        m, n = terms.shape
        rows = min(m, max(1, _BLOCK_TERMS // n))
        q, rest = np.empty((rows, n)), np.empty((rows, n))
        sums, certified = np.empty(m), np.empty(m, dtype=bool)
        for start in range(0, m, rows):
            block = terms[start:start + rows]
            k = len(block)
            sums[start:start + k], certified[start:start + k] = _distilled_sums(block, q[:k], rest[:k])
        left = np.flatnonzero(~certified)
        terms = terms[left]
    exact, bad = [], []
    for i, row in enumerate(terms.tolist()):
        try:
            exact.append(math.fsum(row))
        except (OverflowError, ValueError):
            exact.append(math.nan)
            bad.append(i)
    if sums is None:
        return np.array(exact, dtype=float), bad
    sums[left] = exact
    return sums, left[bad].tolist()


def fsum_rows(terms: np.ndarray) -> np.ndarray:
    """Exact sum of each row, rounded once (the bits of ``math.fsum``).

    :class:`FloatRangeError` names the rows whose finite terms sum past the
    float range or that add opposing infinities.
    """
    sums, bad = exact_row_sums(terms)
    if bad:
        raise FloatRangeError("sums", bad)
    return sums


@quiet_floats
def pair_rows(q_rows: np.ndarray, f_rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Row-wise pairing ``sum_i q_i f_i mu_i`` of broadcastable (m, n) arrays.

    Rows whose terms ``(q f) mu`` are all finite sum them exactly.  On the
    others atoms where ``q_i mu_i = 0`` contribute nothing (0 * inf := 0 on
    sets of measure zero), the rest ``(q mu) f``: an infinite term makes the
    signed infinity, opposing infinities NaN.
    """
    terms = q_rows * f_rows * weights
    if np.isfinite(terms).all():
        return fsum_rows(terms)
    q_rows, f_rows = np.broadcast_arrays(q_rows, f_rows)
    infinite = ~np.isfinite(terms).all(axis=1)
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
