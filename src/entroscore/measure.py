"""Finite measure spaces, densities, and the weighted duality pairing.

Everything downstream reduces to weighted sums over a finite outcome set:
expected scores, entropies, divergences.  This module owns the three vector
roles (cone vectors, probability densities, dual vectors) and the pairing

    pair(p, f) = sum_i p_i * f_i * mu_i

computed exactly and rounded once (the bits of ``math.fsum``; large batches
on arrays, narrow rows by TwoSum cascades down the columns and long rows by
one round of extraction, each certified: :func:`exact_row_sums`) so that
identities asserted at 1e-12 survive outcome sets up to ~10^4 atoms.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, is_dataclass
from itertools import chain

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
        _require_same_space(self.space, other)
        return ConeVector(self.values + other.values, self.space)

    def __sub__(self, other: "ConeVector") -> "ConeVector":
        _require_same_space(self.space, other)
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


def _require_same_space(space: MeasureSpace, *operands) -> None:
    if any(x.space != space for x in operands):
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


def require_float_range(what: str, values: np.ndarray, sentinel: np.ndarray | bool = False) -> np.ndarray:
    """``values`` itself, unless a row holds NaN or an infinity (``-inf`` is allowed
    where the mask ``sentinel`` is true): then :class:`FloatRangeError` names every such row."""
    if not np.isfinite(values).all():
        bad = np.isnan(values) | (values == math.inf) | ((values == -math.inf) & np.logical_not(sentinel))
        rows = np.flatnonzero(bad if bad.ndim == 1 else bad.any(axis=1))
        if rows.size:
            raise FloatRangeError(what, rows.tolist())
    return values


def _first_min(values: np.ndarray) -> tuple[int, float]:
    """Index and value of the first strict minimum, NaN counting as ``+inf``."""
    values = np.where(np.isnan(values), np.inf, values)
    return int(np.argmin(values)), float(values.min())


# Batches of fewer terms go to the math.fsum loop: on a 2-core Xeon (CPython
# 3.11, numpy 2.4) the arrays cost 24 us a batch of 3-atom rows and 35-40 us
# on longer rows, the loop 0.075 us a term on 3 atoms, 0.035 us on 20: they
# cross at about 300 terms on 3 atoms, 750 on 5 and 1,100 on 20.
_MIN_ARRAY_TERMS = 512
# Rows of at most this many atoms are summed by cascades down the columns,
# longer rows by extraction: on the same host the two cost the same at 7
# atoms in batches of 3,000 terms, 8 in 12,000 and about 12 in 48,000.
_CASCADE_ATOMS = 8
# Longer rows run in blocks of whole rows of at most this many terms (one row
# if it is longer), whose scratch array stays in cache: on the same host a
# 400 x 500 batch took 0.84-0.99 ms in one block, 0.75-0.88 ms in blocks of
# 2^15, and the peak stays below the batch's size.
_BLOCK_TERMS = 2 ** 15
# Narrow rows with a term of magnitude _SAFE_HIGH or more, long rows whose sum
# of |terms| is outside this range, and rows with NaN or an infinity go to
# math.fsum: inside, nothing overflows and extraction is exact.
_SAFE_LOW, _SAFE_HIGH = 2.0 ** -900, 2.0 ** 900


def _two_sum(a, b):
    """``s = fl(a + b)`` and its error ``a + b - s``: exact, or NaN or infinite
    if a step overflows (TwoSum: Knuth; Shewchuk 1997)."""
    s = a + b
    back = s - a
    return s, (a - (s - back)) + (b - back)


def _cascaded_sums(terms: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row ``t1``, ``t2`` and a bound on ``|sum x - t1 - t2|``.  Two TwoSum
    cascades run down the columns (Ogita, Rump & Oishi, SIAM J. Sci. Comput.
    2005): ``t1`` is the float sum, ``t2`` the float sum of its exact errors,
    and the bound twice the rounded sum of ``|d|`` over the exact errors ``d`` of ``t2``."""
    t1, t2 = _two_sum(terms[:, 0], terms[:, 1] if terms.shape[1] > 1 else 0.0)
    bound = np.zeros(len(terms))
    for x in terms.T[2:]:
        t1, e = _two_sum(t1, x)
        t2, d = _two_sum(t2, e)
        bound += np.abs(d)
    if not (terms.max() < _SAFE_HIGH and terms.min() > -_SAFE_HIGH):  # a whole-array test first
        bound[~(np.abs(terms) < _SAFE_HIGH).all(axis=1)] = math.inf
    return t1, t2, 2.0 * bound


def _extracted_sums(terms: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row ``t1``, ``t2`` and a bound on ``|sum x - t1 - t2|``; ``q`` is scratch.

    ExtractVector (Rump, Ogita & Oishi, SIAM J. Sci. Comput. 2008): with
    ``sigma = 2^(k+2)`` and ``2^k`` above the rounded sum of ``|x|``, every
    ``q = (sigma + x) - sigma`` is a multiple of ``2^-53 sigma`` and every sum
    of them stays below ``sigma``, so ``t1 = sum q`` is exact in any order (a
    matrix-vector product), as is ``r = x - q``.  ``t2`` rounds ``sum r`` in
    any order, and ``|r| <= 2^-53 sigma`` bounds its error a priori:
    ``gamma_(n-1) n 2^-53 sigma``, below ``n^2 2^-104 sigma``.
    """
    n = terms.shape[1]
    ones = np.ones(n)
    top = np.abs(terms, out=q) @ ones
    sigma = np.ldexp(4.0, np.frexp(top)[1])
    np.add(terms, sigma[:, None], out=q)
    q -= sigma[:, None]
    t1 = q @ ones
    t2 = np.subtract(terms, q, out=q) @ ones
    safe = (top >= _SAFE_LOW) & (top < _SAFE_HIGH)
    return t1, t2, np.where(safe, sigma * (n * n * 2.0 ** -104), math.inf)


@quiet_floats
def exact_row_sums(terms: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Each row's exact sum rounded once (the bits of ``math.fsum``), and the
    0-based rows ``math.fsum`` rejects, which hold NaN.

    Batches of ``_MIN_ARRAY_TERMS`` terms or more run on arrays: rows of up to
    ``_CASCADE_ATOMS`` atoms by cascades, longer ones by extraction in blocks
    of at most ``_BLOCK_TERMS``.  Either gives ``sum x = t1 + t2 + delta`` with
    ``|delta| <= bound``, and ``s = fl(t1 + t2)`` is that sum rounded once: at
    once where ``bound`` is 0, ties included; else if TwoSum's ``t1 + t2 - s``
    and ``bound`` together stay below half the float gap at ``s`` on the side
    the remainder lies on (a zero sum only at ``bound`` 0, as ``+0.0``).  Once
    every row is certified the sums return; other rows and smaller batches go
    to ``math.fsum``, the other rows converted one block of rows at a time.
    """
    sums = None
    if terms.size >= _MIN_ARRAY_TERMS:
        m, n = terms.shape
        rows = min(m, max(1, _BLOCK_TERMS // n))
        if n <= _CASCADE_ATOMS:
            t1, t2, bound = _cascaded_sums(terms)
        else:
            q, parts = np.empty((rows, n)), np.empty((3, m))
            for start in range(0, m, rows):
                block = terms[start:start + rows]
                parts[:, start:start + len(block)] = _extracted_sums(block, q[:len(block)])
            t1, t2, bound = parts
        sums = t1 + t2  # at bound 0 a zero is +0.0, as in math.fsum: no TwoSum error is -0.0
        certified = np.isfinite(sums)
        if bound.any():
            check = np.flatnonzero(certified & (bound != 0.0))
            s, e = _two_sum(t1[check], t2[check])
            bound = bound[check]
            # past the bound the remainder lies on e's side; else take the smaller gap, toward zero
            side = np.where(np.abs(e) > bound, e, -s)
            gap = np.abs(np.nextafter(s, np.copysign(np.inf, side)) - s)
            certified[check] = gap / 2 - np.abs(e) > bound
        if certified.all():
            return sums, []
        left = np.flatnonzero(~certified)
        # as Python floats one block at a time: a cancelling wide batch would hold every term
        lists = chain.from_iterable(terms[left[start:start + rows]].tolist()
                                    for start in range(0, len(left), rows))
    else:
        lists = terms.tolist()
    exact, bad = [], []
    for i, row in enumerate(lists):
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
    """Exact sum of each row along the last axis, rounded once (the bits of ``math.fsum``).

    :class:`FloatRangeError` names the rows, by their flattened leading index,
    whose finite terms sum past the float range or that add opposing infinities.
    """
    sums, bad = exact_row_sums(terms.reshape(math.prod(terms.shape[:-1]), terms.shape[-1]))
    if bad:
        raise FloatRangeError("sums", bad)
    return sums.reshape(terms.shape[:-1])


def _times(terms: np.ndarray, factor) -> np.ndarray:
    terms *= factor  # in place: no second (rows x atoms) temporary
    return terms


@quiet_floats
def pair_rows(q_rows: np.ndarray, f_rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Row-wise pairing ``sum_i q_i f_i mu_i`` of broadcastable arrays of any leading shape,
    rows of atoms on the last axis: ``(b, 1, n)`` against ``(m, n)`` gives a ``(b, m)`` table.

    Rows whose terms ``(q f) mu`` are all finite sum them exactly.  On the
    others atoms where ``q_i mu_i = 0`` contribute nothing (0 * inf := 0 on
    sets of measure zero), the rest ``(q mu) f``: an infinite term makes the
    signed infinity, opposing infinities NaN.  A :class:`FloatRangeError`
    names rows of the flattened leading index.
    """
    terms = _times(q_rows * f_rows, weights)
    finite = np.isfinite(terms)
    if finite.all():  # a whole-array test first: per-row masks only when it fails
        return fsum_rows(terms)
    stand = finite.all(axis=-1)
    kept = terms[stand]  # rows whose terms stand keep their bits; the others become (q mu) f
    base = q_rows * weights
    np.multiply(base, f_rows, out=terms)
    # 0 * inf := 0 where q mu = 0, by a blend over the bits (a masked write branches per entry);
    # the mask takes base's place
    mask = np.negative(base != 0.0, dtype=np.int64, out=base.view(np.int64))
    np.bitwise_and(terms.view(np.int64), mask, out=terms.view(np.int64))
    terms[stand] = kept
    charged = np.isinf(terms).any(axis=-1)
    # a charged row sums its infinite terms: -inf + inf is NaN
    signed = (np.where((terms == -math.inf).any(axis=-1), -math.inf, 0.0)
              + np.where((terms == math.inf).any(axis=-1), math.inf, 0.0))
    terms[charged] = 0.0
    return np.where(charged, signed, fsum_rows(terms))


def pair(p: ConeVector, f: DualVector) -> float:
    """Expected-score pairing ``sum_i p_i f_i mu_i``: one row of :func:`pair_rows`."""
    _require_same_space(p.space, f)
    return float(pair_rows(p.values[None], f.values[None], p.space.weights)[0])


@quiet_floats
def require_density_rows(q_rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``q_rows`` itself, once every row is a density.

    A density row has finite, nonnegative entries and a total mass within
    ``DENSITY_MASS_TOL`` of 1; :class:`DomainError` names each row that is not.
    """
    # whole-array tests first: the per-row masks only name the rows that fail
    if np.isfinite(q_rows).all() and not (q_rows < 0.0).any():
        if (np.abs(fsum_rows(q_rows * weights) - 1.0) <= DENSITY_MASS_TOL).all():
            return q_rows
    finite = np.isfinite(q_rows).all(axis=1)
    negative = (q_rows < 0.0).any(axis=1)
    mass = fsum_rows(_times(np.where(finite[:, None], q_rows, 0.0), weights))
    bad = ~finite | negative | ~(np.abs(mass - 1.0) <= DENSITY_MASS_TOL)
    raise DomainError("invalid density rows: " + "; ".join(
        f"row {i + 1}: " + ("cone vectors must have finite entries" if not finite[i]
                            else "densities must be nonnegative" if negative[i]
                            else f"density mass {float(mass[i])!r} is not 1 within {DENSITY_MASS_TOL}")
        for i in np.flatnonzero(bad).tolist()))


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
