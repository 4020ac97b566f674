"""Polyhedral convex domains and their first-order geometry.

A :class:`ConvexDomainSpec` describes a convex set K inside a finite measure
space: the probability simplex, the nonnegative orthant, the conical hull of
finitely many points, or an intersection of half-spaces (the empty
intersection doubles as the whole space).  Each constructor works out one
constraint description of K, and every query reads only that.  Points and
directions are the rows of (rows x atoms) arrays; the one-point functions are
their public calls on vector objects:

* membership, and random points of K (``draw``);
* feasible directions at a point (``Cone(K - q)``), decided exactly from the
  active constraints;
* the lineality space ``O(q)`` of two-sided feasible directions;
* annihilators under the weighted pairing, and the algebraic quasi-interior
  test ``dim O(q) == dim(affine hull of K)``;
* extrapolated finite-difference derivatives, and the subgradient probe on them.

Lower-dimensional sets (the simplex) are treated relative to their affine
hull, so quasi-interior coincides with the relative interior there.

scipy is imported only when a cone hull of rank >= 2 (Qhull facets) or a
half-space intersection with at least one row (the implicit-equality LP) is
constructed, so importing the package (and so every CLI call) does not load
it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .errors import ConstructionError, DomainError
from .measure import (ConeVector, DualVector, FloatRangeError, MeasureSpace, _first_min, _require_same_space,
                      pair_rows, quiet_floats, report_dict)
from .sampling import _hull_rows, _normal_rows, box_rows, density_rows

__all__ = [
    "ConvexDomainSpec",
    "SubgradientProbeResult",
    "RejectedCandidate",
    "direction_cone_membership",
    "lineality_space",
    "is_quasi_interior",
    "annihilator_basis",
    "subdifferential_probe",
    "directional_derivative_fd",
    "directional_derivative_fd_rows",
    "FD_STEP",
]

_SV_TOL = 1e-10  # singular-value threshold for rank decisions
_MEMBER_TOL = 1e-9  # slack allowed in membership and active-constraint tests
# A subgradient candidate is rejected when the supporting-hyperplane inequality
# fails by more than _INEQ_TOL (relative), or a directional derivative bound
# by more than _DERIV_TOL (absolute): the accuracy of one Richardson
# refinement of one-sided finite differences at step FD_STEP.
_INEQ_TOL = 1e-9
_DERIV_TOL = 1e-6
FD_STEP = 1e-5
# subdifferential_probe draws this many points of K, then the points behind its random directions.
_PROBE_POINTS = 200
_PROBE_DIRECTIONS = 32

# One-sided difference quotients of a convex function decrease as the step
# shrinks.  If the decrements stay this large and fail to contract, the
# quotient is diverging to -inf rather than converging.
_DIVERGE_MIN_DECREMENT = 0.05
_DIVERGE_CONTRACTION = 0.75


def _rank(mat: np.ndarray) -> int:
    """Numerical rank (singular values above ``_SV_TOL``); 0 for an empty block."""
    return int(np.sum(np.linalg.svd(mat, compute_uv=False) > _SV_TOL)) if mat.size else 0


def _null_space_basis(mat: np.ndarray, dim: int) -> np.ndarray:
    """Orthonormal basis (columns) of the null space of ``mat``."""
    if mat.size == 0:
        return np.eye(dim)
    _, sv, vt = np.linalg.svd(mat, full_matrices=True)
    rank = int(np.sum(sv > _SV_TOL))
    return vt[rank:].T


def _no_rows(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.zeros((0, n)), np.zeros(0)


def _cannot_sample(rng: np.random.Generator, count: int) -> np.ndarray:
    raise DomainError("sampling a general half-space intersection is not supported")


@dataclass(frozen=True, eq=False)
class ConvexDomainSpec:
    """Finite-dimensional convex set held as one constraint description::

        K = {x : x >= 0 if nonnegative,  A x <= b,  E x = e}

    with plain coordinate dot products.  ``inequalities`` is ``(A, b)``:
    half-space rows, or the facets of a conical hull.  ``equalities`` is
    ``(E, e)``: rows that hold with equality on all of K (the simplex mass
    row, implicit half-space equalities, the span complement of cone
    generators).  Sign bounds stay a flag, so no n x n block of rows is ever
    built for them.  ``draw(rng, count)`` returns ``count`` random points of K
    as rows.  Build domains with the classmethods; ``kind`` is a display name.
    """

    kind: str
    space: MeasureSpace
    nonnegative: bool
    inequalities: tuple[np.ndarray, np.ndarray]
    equalities: tuple[np.ndarray, np.ndarray]
    draw: Callable[[np.random.Generator, int], np.ndarray]

    # -- constructors -------------------------------------------------------

    @classmethod
    def simplex(cls, space: MeasureSpace) -> "ConvexDomainSpec":
        n = space.size
        return cls("simplex", space, True, _no_rows(n),
                   (space.weights.reshape(1, n), np.ones(1)), partial(density_rows, space))

    @classmethod
    def nonnegative_orthant(cls, space: MeasureSpace) -> "ConvexDomainSpec":
        n = space.size
        return cls("nonnegative_orthant", space, True, _no_rows(n), _no_rows(n),
                   partial(box_rows, space))

    @classmethod
    def cone_hull(cls, space: MeasureSpace, points) -> "ConvexDomainSpec":
        g = np.atleast_2d(np.asarray(points, dtype=float))
        if g.shape[1] != space.size:
            raise ConstructionError("generator points do not match the space size")
        if g.shape[0] < 1:
            raise ConstructionError("a conical hull needs at least one generator")
        facets = _cone_facets(g)
        # the span complement of the generators pins the cone
        comp = _null_space_basis(g, space.size)
        return cls("cone_hull_of_points", space, False, (facets, np.zeros(facets.shape[0])),
                   (comp.T, np.zeros(comp.shape[1])), partial(_hull_rows, g))

    @classmethod
    def halfspace_intersection(cls, space: MeasureSpace, normals, offsets) -> "ConvexDomainSpec":
        a = np.atleast_2d(np.asarray(normals, dtype=float))
        b = np.atleast_1d(np.asarray(offsets, dtype=float))
        if a.size == 0:  # the whole space: no LP, Gaussian samples
            return cls("halfspace_intersection", space, False, _no_rows(space.size), _no_rows(space.size),
                       partial(_normal_rows, space))
        if a.shape[1] != space.size or a.shape[0] != b.size:
            raise ConstructionError("half-space rows do not match the space size")
        return cls("halfspace_intersection", space, False, (a, b),
                   _implicit_equalities(a, b), _cannot_sample)

    @classmethod
    def whole_space(cls, space: MeasureSpace) -> "ConvexDomainSpec":
        """Span of the densities: the empty half-space intersection."""
        return cls.halfspace_intersection(space, np.zeros((0, space.size)), np.zeros(0))

    # -- queries ------------------------------------------------------------

    def contains_rows(self, rows: np.ndarray) -> np.ndarray:
        """Mask of the rows of an (m, n) array that are finite points of K."""
        (a, b), (e_rows, e) = self.inequalities, self.equalities
        slack = _MEMBER_TOL * (1.0 + np.abs(rows).max(axis=1))[:, None]
        inside = (np.isfinite(rows).all(axis=1) & (rows @ a.T <= b + slack).all(axis=1)
                  & (np.abs(rows @ e_rows.T - e) <= _MEMBER_TOL).all(axis=1))
        return inside & (rows.min(axis=1) >= -_MEMBER_TOL) if self.nonnegative else inside

    def contains(self, q: ConeVector) -> bool:
        """Whether q lies in K: one row of :meth:`contains_rows`."""
        return q.space == self.space and bool(self.contains_rows(q.values[None])[0])

    def base_row(self, q: ConeVector) -> np.ndarray:
        """The values of q, a base point of a query; :class:`DomainError` if q is not in K."""
        if not self.contains(q):
            raise DomainError("base point is not in the domain")
        return q.values

    def negative_rows(self, rows: np.ndarray) -> np.ndarray:
        """Mask of the rows with an entry below 0 (no tolerance) if K is sign-bounded: off any entropy's domain."""
        negative = self.nonnegative and (rows < 0.0).any()  # a whole-array test first
        return (rows < 0.0).any(axis=-1) if negative else np.zeros(len(rows), dtype=bool)

    def affine_hull_dimension(self) -> int:
        """Dimension of the affine hull of K: the space size minus the rank of its equalities."""
        return self.space.size - _rank(self.equalities[0])


def _implicit_equalities(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Half-space rows that hold with equality on the whole set (via LP)."""
    from scipy.optimize import linprog

    def minimize(c: np.ndarray):
        return linprog(c, A_ub=a, b_ub=b, bounds=[(None, None)] * a.shape[1], method="highs")

    # HiGHS may report an unbounded LP as infeasible; only a zero objective,
    # which cannot be unbounded, tells an empty set apart
    if minimize(np.zeros(a.shape[1])).status == 2:
        raise ConstructionError("half-space intersection is empty")
    lows = [minimize(row) for row in a]
    tight = [r.status == 0 and r.fun >= off - 1e-9 * (1.0 + abs(off)) for r, off in zip(lows, b)]
    return a[tight], b[tight]


def _cone_facets(generators: np.ndarray) -> np.ndarray:
    """Facet normals F of a conical hull, as rows with F x <= 0 on the cone.

    Works in the linear span of the generators; a cone that fills its span
    has no facets there.  Facets are read off the convex hull of the origin
    and the normalized generators: exactly the hull facets through 0.
    """
    n = generators.shape[1]
    norms = np.linalg.norm(generators, axis=1)
    rays = generators[norms > _SV_TOL] / norms[norms > _SV_TOL, None]
    if rays.shape[0] == 0:
        return np.zeros((0, n))
    _, sv, vt = np.linalg.svd(rays, full_matrices=False)
    rank = int(np.sum(sv > _SV_TOL))
    span = vt[:rank].T                       # n x r, orthonormal
    coords = rays @ span                     # rays in span coordinates
    if rank == 1:
        if np.all(coords[:, 0] >= -_SV_TOL):
            return -span.T
        if np.all(coords[:, 0] <= _SV_TOL):
            return span.T
        return np.zeros((0, n))              # the cone is the whole line
    from scipy.spatial import ConvexHull, QhullError
    points = np.vstack([np.zeros(rank), coords])
    try:
        hull = ConvexHull(points)
    except QhullError as exc:                # pragma: no cover - rank guard above
        raise ConstructionError(f"cannot enumerate cone facets: {exc}") from exc
    eqs = hull.equations                     # rows (a, b): a . x + b <= 0 inside
    return eqs[np.abs(eqs[:, -1]) <= 1e-9, :-1] @ span.T


def _active_rows(domain: ConvexDomainSpec, v: np.ndarray) -> np.ndarray:
    """Constraint rows ``r . x <= c`` of K that the point ``v`` meets with equality.

    Sign bounds give a row ``-e_i`` only for each zero coordinate ``i``,
    ahead of the active general rows.
    """
    tol = _MEMBER_TOL * (1.0 + float(np.max(np.abs(v))))
    a, b = domain.inequalities
    general = a[b - a @ v <= tol] if b.size else a
    if not domain.nonnegative:
        return general
    zero = np.flatnonzero(v <= tol)
    bounds = np.zeros((zero.size, v.size))
    bounds[np.arange(zero.size), zero] = -1.0
    return np.vstack([bounds, general])


def _feasible_rows(domain: ConvexDomainSpec, v: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """Mask of the direction rows ``d`` with ``v + lam * d`` in K for some ``lam > 0``: none
    may leave an active inequality, and each must be parallel to every equality."""
    tol = _MEMBER_TOL * (1.0 + np.abs(directions).max(axis=1))[:, None]
    return ((directions @ _active_rows(domain, v).T <= tol).all(axis=1)
            & (np.abs(directions @ domain.equalities[0].T) <= tol).all(axis=1))


def _lineality_rows(domain: ConvexDomainSpec, v: np.ndarray) -> np.ndarray:
    """Orthonormal basis of ``O(v)`` as rows: the null space of the stacked active constraints."""
    stacked = np.vstack([_active_rows(domain, v), domain.equalities[0]])
    return _null_space_basis(stacked, domain.space.size).T


def direction_cone_membership(domain: ConvexDomainSpec, q: ConeVector, d: ConeVector) -> bool:
    """Whether ``q + lam * d`` stays in K for some ``lam > 0``: one row of the row test."""
    v = domain.base_row(q)
    _require_same_space(domain.space, d)
    return bool(_feasible_rows(domain, v, d.values[None])[0])


def lineality_space(domain: ConvexDomainSpec, q: ConeVector) -> list[ConeVector]:
    """Orthonormal basis of ``O(q)``, the two-sided feasible directions at q.

    A direction is two-sided exactly when it is orthogonal to every active
    inequality row and every equality row, so the basis is the null space of
    the stacked active constraints.
    """
    return [domain.space.cone(row) for row in _lineality_rows(domain, domain.base_row(q))]


def _quasi_interior_row(domain: ConvexDomainSpec, v: np.ndarray) -> bool:
    """:func:`is_quasi_interior` at the point row ``v``."""
    equalities = domain.equalities[0]
    return _rank(np.vstack([_active_rows(domain, v), equalities])) == _rank(equalities)


def is_quasi_interior(domain: ConvexDomainSpec, q: ConeVector) -> bool:
    """Algebraic quasi-interior test, relative to the affine hull of K.

    ``q`` qualifies when its two-sided direction space O(q) fills the affine
    hull's direction space, i.e. the annihilator of O(q) within that hull is
    trivial.  In finite dimensions this is the relative interior of K.  Both
    dimensions are the space size minus a rank, so the ranks are compared.
    """
    return _quasi_interior_row(domain, domain.base_row(q))


def annihilator_basis(
    vectors: Sequence[ConeVector], space: MeasureSpace | None = None
) -> list[DualVector]:
    """Orthonormal basis of ``{f : pair(v, f) = 0 for every input v}``.

    Computed by rank factorization of the pairing matrix with singular-value
    threshold 1e-10.  The annihilator of the empty collection is the full
    dual space.
    """
    vectors = list(vectors)
    if space is None:
        if not vectors:
            raise ConstructionError("pass a space to take the annihilator of nothing")
        space = vectors[0].space
    _require_same_space(space, *vectors)
    stacked = np.array([v.values for v in vectors]).reshape(len(vectors), space.size)
    basis = _null_space_basis(stacked * space.weights, space.size)  # the identity for no vectors
    return [space.dual(basis[:, j]) for j in range(basis.shape[1])]


# -- subgradient probing -----------------------------------------------------


@dataclass(frozen=True)
class RejectedCandidate:
    """A candidate subgradient together with a point where it fails."""

    candidate: DualVector
    witness: ConeVector
    gap: float

    as_dict = report_dict


@dataclass(frozen=True)
class SubgradientProbeResult:
    """Outcome of sampled subgradient verification at one base point."""

    verified: list[DualVector]
    rejected: list[RejectedCandidate]
    unique_claim: bool

    as_dict = report_dict


def _signed(rows: np.ndarray) -> np.ndarray:
    """Each row followed by its negation."""
    return np.stack([rows, -rows], axis=1).reshape(-1, rows.shape[1])


def _structured_points(domain: ConvexDomainSpec, v: np.ndarray) -> np.ndarray:
    """Perturbations of q along coordinate-type directions (each, then each step), inside K."""
    n, w, eye = v.size, domain.space.weights, np.eye(v.size)
    i, j = np.triu_indices(n, 1)  # mass-preserving moves e_i / w_i - e_j / w_j, i < j
    dirs = _signed(np.vstack([eye, eye[i] / w[i, None] - eye[j] / w[j, None]]))
    points = (v + np.array([1e-3, 1e-2, 0.1, 0.5])[:, None] * dirs[:, None]).reshape(-1, n)
    return points[domain.contains_rows(points)]


def _feasible_probe_directions(domain: ConvexDomainSpec, v: np.ndarray, points: np.ndarray,
                               lineality: np.ndarray, sampled: np.ndarray) -> np.ndarray:
    """Coordinate, point, lineality and ``sampled`` point directions at q that stay in K, as rows."""
    def moving(rows: np.ndarray) -> np.ndarray:
        offsets = rows - v
        return offsets[np.abs(offsets).max(axis=1) > 1e-12]

    directions = np.vstack([_signed(np.eye(v.size)), moving(points[: 4 * v.size]),
                            _signed(lineality), moving(sampled)])
    return directions[_feasible_rows(domain, v, directions)]


def _inf_outside(fn: Callable, rows: np.ndarray, defined: np.ndarray) -> np.ndarray:
    """``fn`` of the ``defined`` rows in one call, ``+inf`` on the rest (no call if none is defined)."""
    out = np.full(len(rows), np.inf)
    if defined.any():
        out[defined] = fn(rows[defined])
    return out


def _values(entropy, rows: np.ndarray) -> np.ndarray:
    """Values of the rows; ``+inf`` on the domain's :meth:`~ConvexDomainSpec.negative_rows`."""
    return _inf_outside(entropy.value_rows, rows, ~entropy.domain.negative_rows(rows))


def _fd_steps(entropy, v: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """Mask of the directions ``d`` an FD estimate at ``v`` may step along: ``v`` and ``v + FD_STEP * d``
    lie in the entropy's domain K, and the step is not one of K's :meth:`~ConvexDomainSpec.negative_rows`."""
    dom, stepped = entropy.domain, v + FD_STEP * directions
    return dom.contains_rows(v[None]) & dom.contains_rows(stepped) & ~dom.negative_rows(stepped)


def _fd_estimates(entropy, v: np.ndarray, p_rows: np.ndarray) -> np.ndarray:
    """The estimates of :func:`directional_derivative_fd_rows` at the point row ``v``, unchecked."""
    steps = FD_STEP / np.array([1.0, 2.0, 4.0])  # h, h/2, h/4 exactly
    stepped = (v + steps[:, None] * p_rows[:, None]).reshape(-1, v.size)  # each row, then each step
    values = entropy.value_rows(np.vstack([v, stepped]))
    d1, d2, d4 = ((values[1:].reshape(-1, 3) - values[0]) / steps).T
    dec1, dec2 = d2 - d1, d4 - d2
    diverging = (dec2 < -_DIVERGE_MIN_DECREMENT) & (dec2 <= _DIVERGE_CONTRACTION * dec1)
    return np.where(diverging, -np.inf, 2.0 * d4 - d2)


@quiet_floats
def directional_derivative_fd_rows(entropy, q: ConeVector, p_rows: np.ndarray) -> np.ndarray:
    """One-sided directional derivative estimates at ``q`` along each row of ``p_rows``.

    Richardson-extrapolates the forward difference quotients at steps h/2
    and h/4, with ``h = FD_STEP``, from one ``value_rows`` call on ``q`` and
    the three steps along every row.  Where the quotients keep dropping by
    non-contracting decrements (the signature of a boundary direction like
    shannon toward a zero atom), the estimate is ``-inf`` instead of a number.
    :class:`DomainError` if q or a step is off the entropy's domain, or below 0 where it is sign-bounded.
    """
    if not entropy.domain.contains(q):
        raise DomainError("base point is outside the entropy domain")
    if not _fd_steps(entropy, q.values, p_rows).all():
        raise DomainError("q + h p leaves the entropy domain")
    return _fd_estimates(entropy, q.values, p_rows)


def directional_derivative_fd(entropy, q: ConeVector, p: ConeVector) -> float:
    """One row of :func:`directional_derivative_fd_rows`."""
    _require_same_space(q.space, p)
    return float(directional_derivative_fd_rows(entropy, q, p.values[None])[0])


def _slopes(entropy, v: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """FD right derivatives at ``v``, ``+inf`` along the directions :func:`_fd_steps` refuses."""
    return _inf_outside(partial(_fd_estimates, entropy, v), directions, _fd_steps(entropy, v, directions))


def _ray_witness(entropy, domain: ConvexDomainSpec, v: np.ndarray, base_value: float,
                 direction: np.ndarray, rate: float) -> tuple[np.ndarray, float]:
    """The most violating point on the ray ``v + lam * d``, ``lam = scale * 2**-k`` for k < 40,
    and its gap; ``(v + d, nan)`` if no point of K on the ray has a value."""
    scale = (1.0 + float(np.max(np.abs(v)))) / (1.0 + float(np.max(np.abs(direction))))
    lam = np.ldexp(scale, -np.arange(40))
    ray = v + lam[:, None] * direction
    gaps = _inf_outside(partial(_values, entropy), ray, domain.contains_rows(ray)) - base_value - lam * rate
    index, gap = _first_min(gaps)
    if gap == np.inf:
        return v + direction, float("nan")
    return ray[index], gap


@quiet_floats
def subdifferential_probe(
    entropy,
    domain: ConvexDomainSpec,
    q: ConeVector,
    candidates: Sequence[DualVector],
    *,
    seed: int = 0,
) -> SubgradientProbeResult:
    """Sampled verification of candidate subgradients of ``entropy`` at ``q``.

    Each candidate f is screened two ways:

    * the supporting-hyperplane inequality ``value(p) >= value(q) +
      pair(p - q, f)`` over sampled points of K (plus coordinate-type
      perturbations of q, which catch boundary subdifferential facets);
    * the one-sided derivative bound ``pair(d, f) <= d+ value(q; d)`` along
      sampled feasible directions.  A derivative breach is converted into a
      concrete violating point by walking down the offending ray.

    ``unique_claim`` is set when q is quasi-interior (O(q) fills K's affine hull directions) and every
    verified candidate matches the two-sided directional derivative along each lineality basis
    direction.  Two-sided derivatives along a basis make a convex function differentiable on its
    span (Rockafellar 1970, Thm 25.2), so the claim covers the whole lineality space up to the FD
    tolerance: the equality condition under which the subgradient is unique.

    The entropy is ``+inf`` off its domain: a point with an entry below 0 on a
    sign-bounded one never violates, and a direction the FD estimate refuses is
    never a breach and blocks the uniqueness claim.  Each witness is the first strict minimum.
    :class:`DomainError` if q has no finite value, or a sampled value or pairing sum overflows.
    """
    if not domain.contains(q):
        raise DomainError("probe base point is not in the domain")
    _require_same_space(domain.space, entropy.domain, *candidates)
    v, w = q.values, domain.space.weights
    try:
        base_value = float(_values(entropy, v[None])[0])
    except FloatRangeError:  # finite terms summing past the float range
        base_value = np.inf
    if not np.isfinite(base_value):
        raise DomainError("the entropy has no finite value at the probe base point")
    lineality = _lineality_rows(domain, v)
    drawn = domain.draw(np.random.default_rng(seed), _PROBE_POINTS + _PROBE_DIRECTIONS)
    points = np.vstack([_structured_points(domain, v), drawn[:_PROBE_POINTS]])
    directions = _feasible_probe_directions(domain, v, points, lineality, drawn[_PROBE_POINTS:])
    try:  # the sums' own errors name rows of batches that the caller never sees
        values = _values(entropy, points)
        right_slopes = _slopes(entropy, v, directions)

        verified: list[DualVector] = []
        rejected: list[RejectedCandidate] = []
        for cand in candidates:
            index, gap = _first_min(values - base_value - pair_rows(points - v, cand.values, w))
            if gap < -_INEQ_TOL * (1.0 + abs(base_value)):
                rejected.append(RejectedCandidate(cand, domain.space.cone(points[index]), gap))
                continue
            rates = pair_rows(directions, cand.values, w)
            breach = np.flatnonzero(rates > right_slopes + _DERIV_TOL)
            if breach.size:
                witness, gap = _ray_witness(entropy, domain, v, base_value, directions[breach[0]],
                                            float(rates[breach[0]]))
                rejected.append(RejectedCandidate(cand, domain.space.cone(witness), gap))
            else:
                verified.append(cand)

        unique = bool(verified) and _quasi_interior_row(domain, v)
        if unique:
            two_sided = _signed(lineality)
            both_slopes = _slopes(entropy, v, two_sided)
            unique = bool(np.isfinite(both_slopes).all()) and not any(
                (np.abs(pair_rows(two_sided, f.values, w) - both_slopes) > _DERIV_TOL).any()
                for f in verified)
    except FloatRangeError:
        raise DomainError("values or pairings at the probe's sampled points leave the float range") from None
    return SubgradientProbeResult(verified, rejected, unique)
