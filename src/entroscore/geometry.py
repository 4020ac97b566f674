"""Polyhedral convex domains and their first-order geometry.

A :class:`ConvexDomainSpec` describes a convex set K inside a finite measure
space: the probability simplex, the nonnegative orthant, the conical hull of
finitely many points, or an intersection of half-spaces (the empty
intersection doubles as the whole space).  Each constructor works out one
constraint description of K, and every query reads only that:

* membership;
* feasible directions at a point (``Cone(K - q)``), decided exactly from the
  active constraints;
* the lineality space ``O(q)`` of two-sided feasible directions;
* annihilators under the weighted pairing, and the algebraic quasi-interior
  test ``dim O(q) == dim(affine hull of K)``.

Lower-dimensional sets (the simplex) are treated relative to their affine
hull, so quasi-interior coincides with the relative interior there.

scipy is imported only when a cone hull of rank >= 2 (Qhull facets) or a
half-space intersection with at least one row (the implicit-equality LP) is
constructed, so importing the package (and so every CLI call) does not load
it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .errors import ConstructionError, DomainError
from .measure import ConeVector, DualVector, MeasureSpace, pair
from .sampling import sample_density, sample_positive_box

__all__ = [
    "ConvexDomainSpec",
    "SubgradientProbeResult",
    "RejectedCandidate",
    "direction_cone_membership",
    "lineality_space",
    "is_quasi_interior",
    "annihilator_basis",
    "subdifferential_probe",
]

_SV_TOL = 1e-10  # singular-value threshold for rank decisions
_MEMBER_TOL = 1e-9  # slack allowed in membership and active-constraint tests
# A subgradient candidate is rejected when the supporting-hyperplane inequality
# fails by more than _INEQ_TOL (relative), or a directional derivative bound
# by more than _DERIV_TOL (absolute, the finite-difference accuracy).
_INEQ_TOL = 1e-9
_DERIV_TOL = 1e-6
# subdifferential_probe samples this many points of K and random directions.
_PROBE_POINTS = 200
_PROBE_DIRECTIONS = 32


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


def _sample_normal(space: MeasureSpace, rng: np.random.Generator) -> ConeVector:
    return space.cone(rng.normal(0.0, 1.0, size=space.size))


def _cannot_sample(rng: np.random.Generator) -> ConeVector:
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
    built for them.  ``draw`` returns one random point of K.  Build domains
    with the classmethods; ``kind`` is only a display name.
    """

    kind: str
    space: MeasureSpace
    nonnegative: bool
    inequalities: tuple[np.ndarray, np.ndarray]
    equalities: tuple[np.ndarray, np.ndarray]
    draw: Callable[[np.random.Generator], ConeVector]

    # -- constructors -------------------------------------------------------

    @classmethod
    def simplex(cls, space: MeasureSpace) -> "ConvexDomainSpec":
        n = space.size
        return cls("simplex", space, True, _no_rows(n),
                   (space.weights.reshape(1, n), np.ones(1)), partial(sample_density, space))

    @classmethod
    def nonnegative_orthant(cls, space: MeasureSpace) -> "ConvexDomainSpec":
        n = space.size
        return cls("nonnegative_orthant", space, True, _no_rows(n), _no_rows(n),
                   partial(sample_positive_box, space))

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

        def draw(rng: np.random.Generator) -> ConeVector:
            return space.cone(rng.exponential(1.0, size=g.shape[0]) @ g)

        return cls("cone_hull_of_points", space, False, (facets, np.zeros(facets.shape[0])),
                   (comp.T, np.zeros(comp.shape[1])), draw)

    @classmethod
    def halfspace_intersection(cls, space: MeasureSpace, normals, offsets) -> "ConvexDomainSpec":
        a = np.atleast_2d(np.asarray(normals, dtype=float))
        b = np.atleast_1d(np.asarray(offsets, dtype=float))
        if a.size == 0:  # the whole space: no LP, Gaussian samples
            return cls("halfspace_intersection", space, False, _no_rows(space.size),
                       _no_rows(space.size), partial(_sample_normal, space))
        if a.shape[1] != space.size or a.shape[0] != b.size:
            raise ConstructionError("half-space rows do not match the space size")
        return cls("halfspace_intersection", space, False, (a, b),
                   _implicit_equalities(a, b), _cannot_sample)

    @classmethod
    def whole_space(cls, space: MeasureSpace) -> "ConvexDomainSpec":
        """Span of the densities: the empty half-space intersection."""
        return cls.halfspace_intersection(space, np.zeros((0, space.size)), np.zeros(0))

    # -- queries ------------------------------------------------------------

    def contains(self, q: ConeVector) -> bool:
        if q.space != self.space:
            return False
        v = q.values
        a, b = self.inequalities
        e_rows, e = self.equalities
        return bool(  # the size tests only skip empty row blocks
            (not self.nonnegative or v.min() >= -_MEMBER_TOL)
            and (not e.size or np.all(np.abs(e_rows @ v - e) <= _MEMBER_TOL))
            and (not b.size or np.all(a @ v <= b + _MEMBER_TOL * (1.0 + float(np.max(np.abs(v))))))
        )

    def sample(self, rng: np.random.Generator, count: int = 1) -> list[ConeVector]:
        """Random points of the domain (interior-biased), for sampled checks."""
        return [self.draw(rng) for _ in range(count)]

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


def _active_rows(domain: ConvexDomainSpec, q: ConeVector) -> np.ndarray:
    """Constraint rows ``r . x <= c`` of K that q meets with equality.

    Sign bounds give a row ``-e_i`` only for each zero coordinate ``i``,
    ahead of the active general rows.
    """
    v = q.values
    tol = _MEMBER_TOL * (1.0 + float(np.max(np.abs(v))))
    a, b = domain.inequalities
    general = a[b - a @ v <= tol] if b.size else a
    if not domain.nonnegative:
        return general
    zero = np.flatnonzero(v <= tol)
    bounds = np.zeros((zero.size, v.size))
    bounds[np.arange(zero.size), zero] = -1.0
    return np.vstack([bounds, general])


def direction_cone_membership(domain: ConvexDomainSpec, q: ConeVector, d: ConeVector) -> bool:
    """Whether ``q + lam * d`` stays in K for some ``lam > 0``.

    Decided exactly from the constraints: the direction must not leave any
    active inequality and must be parallel to every equality.
    """
    if not domain.contains(q):
        raise DomainError("base point is not in the domain")
    tol = _MEMBER_TOL * (1.0 + float(np.max(np.abs(d.values))))
    return bool(np.all(_active_rows(domain, q) @ d.values <= tol)
                and np.all(np.abs(domain.equalities[0] @ d.values) <= tol))


def lineality_space(domain: ConvexDomainSpec, q: ConeVector) -> list[ConeVector]:
    """Orthonormal basis of ``O(q)``, the two-sided feasible directions at q.

    A direction is two-sided exactly when it is orthogonal to every active
    inequality row and every equality row, so the basis is the null space of
    the stacked active constraints.
    """
    if not domain.contains(q):
        raise DomainError("base point is not in the domain")
    stacked = np.vstack([_active_rows(domain, q), domain.equalities[0]])
    basis = _null_space_basis(stacked, domain.space.size)
    return [domain.space.cone(basis[:, j]) for j in range(basis.shape[1])]


def is_quasi_interior(domain: ConvexDomainSpec, q: ConeVector) -> bool:
    """Algebraic quasi-interior test, relative to the affine hull of K.

    ``q`` qualifies when its two-sided direction space O(q) fills the affine
    hull's direction space, i.e. the annihilator of O(q) within that hull is
    trivial.  In finite dimensions this is the relative interior of K.  Both
    dimensions are the space size minus a rank, so the ranks are compared.
    """
    if not domain.contains(q):
        raise DomainError("base point is not in the domain")
    equalities = domain.equalities[0]
    return _rank(np.vstack([_active_rows(domain, q), equalities])) == _rank(equalities)


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
    if not vectors:
        basis = np.eye(space.size)
    else:
        stacked = np.array([v.values for v in vectors])
        basis = _null_space_basis(stacked * space.weights, space.size)
    return [space.dual(basis[:, j]) for j in range(basis.shape[1])]


# -- subgradient probing -----------------------------------------------------


@dataclass(frozen=True)
class RejectedCandidate:
    """A candidate subgradient together with a point where it fails."""

    candidate: DualVector
    witness: ConeVector
    gap: float

    def as_dict(self) -> dict:
        return {
            "candidate": self.candidate.values.tolist(),
            "witness": self.witness.values.tolist(),
            "gap": float(self.gap),
        }


@dataclass(frozen=True)
class SubgradientProbeResult:
    """Outcome of sampled subgradient verification at one base point."""

    verified: list[DualVector]
    rejected: list[RejectedCandidate]
    unique_claim: bool

    def as_dict(self) -> dict:
        return {
            "verified": [f.values.tolist() for f in self.verified],
            "rejected": [r.as_dict() for r in self.rejected],
            "unique_claim": self.unique_claim,
        }


def _structured_points(domain: ConvexDomainSpec, q: ConeVector) -> list[ConeVector]:
    """Perturbations of q along coordinate-type directions, kept inside K."""
    space = domain.space
    n = space.size
    dirs: list[np.ndarray] = []
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        dirs.extend([e, -e])
    w = space.weights
    for i in range(n):
        for j in range(i + 1, n):
            d = np.zeros(n)
            d[i], d[j] = 1.0 / w[i], -1.0 / w[j]
            dirs.extend([d, -d])
    points = []
    for d in dirs:
        for eps in (1e-3, 1e-2, 0.1, 0.5):
            p = space.cone(q.values + eps * d)
            if domain.contains(p):
                points.append(p)
    return points


def _feasible_probe_directions(
    domain: ConvexDomainSpec,
    q: ConeVector,
    points: Sequence[ConeVector],
    rng: np.random.Generator,
) -> list[ConeVector]:
    space = domain.space
    n = space.size
    cands: list[ConeVector] = []
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        cands.append(space.cone(e))
        cands.append(space.cone(-e))
    for p in points[: 4 * n]:
        d = p - q
        if float(np.max(np.abs(d.values))) > 1e-12:
            cands.append(d)
    for basis_vec in lineality_space(domain, q):
        cands.append(basis_vec)
        cands.append(-basis_vec)
    for p in domain.sample(rng, _PROBE_DIRECTIONS):
        d = p - q
        if float(np.max(np.abs(d.values))) > 1e-12:
            cands.append(d)
    return [d for d in cands if direction_cone_membership(domain, q, d)]


def _violation_witness(entropy, domain, q, candidate, direction):
    """Walk down the ray q + lam*d looking for a concrete inequality breach."""
    base = entropy.value(q)
    rate = pair(direction, candidate)
    scale = (1.0 + float(np.max(np.abs(q.values)))) / (1.0 + float(np.max(np.abs(direction.values))))
    best_p, best_gap = None, np.inf
    lam = scale
    for _ in range(40):
        p = q + lam * direction
        if domain.contains(p):
            try:
                gap = entropy.value(p) - base - lam * rate
            except DomainError:
                gap = np.inf
            if gap < best_gap:
                best_p, best_gap = p, gap
        lam *= 0.5
    return best_p, best_gap


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

    ``unique_claim`` is set when q is quasi-interior (relative to the affine
    hull of K) and every verified candidate matches the two-sided directional
    derivative on the sampled lineality directions - the sampled version of
    the equality condition under which the subgradient is unique.  The claim
    certifies sampled directions only.
    """
    from .entropies import directional_derivative_fd

    if not domain.contains(q):
        raise DomainError("probe base point is not in the domain")
    rng = np.random.default_rng(seed)
    points = _structured_points(domain, q) + domain.sample(rng, _PROBE_POINTS)
    directions = _feasible_probe_directions(domain, q, points, rng)

    base_value = entropy.value(q)
    fd_cache: dict[int, float] = {}

    def right_derivative(idx: int) -> float:
        if idx not in fd_cache:
            try:
                fd_cache[idx] = directional_derivative_fd(entropy, q, directions[idx])
            except DomainError:
                fd_cache[idx] = np.inf  # direction unusable: never flags a violation
        return fd_cache[idx]

    verified: list[DualVector] = []
    rejected: list[RejectedCandidate] = []
    for cand in candidates:
        worst_p, worst_gap = None, np.inf
        for p in points:
            try:
                gap = entropy.value(p) - base_value - pair(p - q, cand)
            except DomainError:
                continue
            if gap < worst_gap:
                worst_p, worst_gap = p, gap
        scale = 1.0 + abs(base_value)
        if worst_gap < -_INEQ_TOL * scale:
            rejected.append(RejectedCandidate(cand, worst_p, float(worst_gap)))
            continue
        breach = None
        for di, d in enumerate(directions):
            fd = right_derivative(di)
            if pair(d, cand) > fd + _DERIV_TOL:
                breach = d
                break
        if breach is not None:
            witness, gap = _violation_witness(entropy, domain, q, cand, breach)
            if witness is None:
                witness, gap = q + breach, float("nan")
            rejected.append(RejectedCandidate(cand, witness, float(gap)))
        else:
            verified.append(cand)

    unique = False
    if verified and is_quasi_interior(domain, q):
        basis = lineality_space(domain, q)
        two_sided = []
        for v in basis:
            two_sided.extend([v, -v])
        if len(basis) > 1:
            for _ in range(8):
                coeff = rng.normal(size=len(basis))
                coeff /= np.linalg.norm(coeff)
                combo = domain.space.cone(
                    np.sum([c * v.values for c, v in zip(coeff, basis)], axis=0)
                )
                two_sided.extend([combo, -combo])
        unique = True
        for cand in verified:
            for d in two_sided:
                try:
                    fd = directional_derivative_fd(entropy, q, d)
                except DomainError:
                    unique = False
                    break
                if not math.isfinite(fd) or abs(pair(d, cand) - fd) > _DERIV_TOL:
                    unique = False
                    break
            if not unique:
                break
    return SubgradientProbeResult(verified, rejected, unique)
