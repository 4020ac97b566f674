"""Convex entropy functions with analytic subgradient oracles.

The catalog carries the standard forecasting entropies on a finite measure
space (integrals are weighted sums):

==================  =============================  ==========================
name                value                          subgradient
==================  =============================  ==========================
quadratic           sum q^2 mu                     2 q
spherical           (sum q^2 mu)^(1/2)             q / (sum q^2 mu)^(1/2)
power(g)            sum q^g mu                     g q^(g-1)
shannon             sum q log q mu                 log q + 1
pseudospherical(g)  (sum q^g mu)^(1/g)             q^(g-1) / (...)^((g-1)/g)
weighted_quadratic  q^T Q q                        2 Q q / mu
==================  =============================  ==========================

Subgradients are represented in the weighted dual: ``pair(d, grad)`` equals
the directional derivative, which is why the matrix and composite forms
divide by the atom weights.  Shannon uses the 0*log 0 := 0 convention and
refuses boundary subgradients (they do not exist as finite test functions);
its scoring rule instead carries the closed form ``log q`` with -inf
sentinels.

Beyond the catalog: the canonical 1-homogeneous extension to the positive
cone and its 0-homogeneous subgradient, one-sided directional derivatives by
extrapolated finite differences, and composite entropies
``phi(sum f(q) nu)`` for symmetry analysis.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .errors import ConstructionError, DomainError
from .geometry import ConvexDomainSpec
from .measure import (ConeVector, DualVector, MeasureSpace, _require_same_space, exact_row_sums, fsum_rows,
                      normalize_rows, quiet_floats)
from .scoring import make_psr, zero_homog_extend

__all__ = [
    "Entropy",
    "CompositeEntropySpec",
    "catalog_entropy",
    "parse_rule_spec",
    "CATALOG_NAMES",
    "canonical_extension_value",
    "canonical_extension_rows",
    "extended_subgradient",
    "directional_derivative_fd",
    "directional_derivative_fd_rows",
    "composite_entropy",
    "FD_STEP",
]

CATALOG_NAMES = (
    "quadratic",
    "spherical",
    "power",
    "shannon",
    "pseudospherical",
    "weighted_quadratic",
)

# A catalog name with an optional parenthesised exponent, as in ``power(1.5)``
_RULE_SPEC = re.compile(r"^([a-z_]+)(?:\(([^()]*)\))?$")

# One-sided finite-difference step; one Richardson refinement on top of it
# sets the 1e-6 tolerance used by the derivative checks.
FD_STEP = 1e-5

# One-sided difference quotients of a convex function decrease as the step
# shrinks.  If the decrements stay this large and fail to contract, the
# quotient is diverging to -inf rather than converging.
_DIVERGE_MIN_DECREMENT = 0.05
_DIVERGE_CONTRACTION = 0.75

# composite_entropy checks convexity on this many seeded midpoint pairs.
_COMPOSITE_CHECKS = 32
_COMPOSITE_SEED = 7


@dataclass(frozen=True)
class Entropy:
    """Convex function on a declared domain, with row oracles.

    Each oracle maps an (m, n) array of cone vectors (made C-ordered) to m results without float
    warnings, refusing (:class:`DomainError`) a row with an entry below 0 if the domain is
    sign-bounded: ``value_rows`` to values; ``grad_rows`` to dual representers of a subgradient
    (None if there is none; :class:`DomainError` where no finite one exists, e.g. shannon on the
    boundary); the optional ``closed_form_rows`` to the associated scores, for rules the generic
    construction cannot extend to boundary points.  ``value``, ``subgradient`` and
    ``closed_form_score`` are their one-row calls on vector objects.
    """

    name: str
    domain: ConvexDomainSpec
    value_rows: Callable[[np.ndarray], np.ndarray]
    grad_rows: Callable[[np.ndarray], np.ndarray] | None
    closed_form_rows: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        @quiet_floats
        def checked(oracle, q):
            q = np.ascontiguousarray(q)  # numpy's strided pow and log round differently
            if self.domain.nonnegative and (q < 0.0).any():
                raise DomainError(f"{self.name} requires nonnegative input")
            return oracle(q)

        value_rows, grad_rows, closed_form_rows = (oracle and partial(checked, oracle) for oracle in (
            self.value_rows, self.grad_rows, self.closed_form_rows))
        object.__setattr__(self, "value_rows", value_rows)
        object.__setattr__(self, "grad_rows", grad_rows)
        object.__setattr__(self, "closed_form_rows", closed_form_rows)
        object.__setattr__(self, "value", lambda q: float(value_rows(q.values[None])[0]))
        object.__setattr__(self, "subgradient", grad_rows and (
            lambda q: self.domain.space.dual(grad_rows(q.values[None])[0])))
        object.__setattr__(self, "closed_form_score", closed_form_rows and (
            lambda q: self.domain.space.dual(closed_form_rows(q.values[None])[0], allow_infinite=True)))

    def __repr__(self) -> str:
        return f"Entropy({self.name!r}, domain={self.domain.kind})"


def _quadratic(space: MeasureSpace) -> Entropy:
    w = space.weights

    def value_rows(q: np.ndarray) -> np.ndarray:
        return fsum_rows(q * q * w)

    def grad_rows(q: np.ndarray) -> np.ndarray:
        return 2.0 * q

    return Entropy("quadratic", ConvexDomainSpec.whole_space(space), value_rows, grad_rows)


def _positive_sums(terms: np.ndarray) -> np.ndarray:
    """Exact row sums of nonnegative terms, ``inf`` where finite terms sum past the largest float."""
    sums, overflowed = exact_row_sums(terms)
    sums[overflowed] = math.inf
    return sums


def _scaled(q: np.ndarray, terms: Callable[[np.ndarray], np.ndarray]) -> tuple:
    """``(v, top, sum terms(v))`` by row, with ``q = top * v``.

    ``top`` is 1 unless the sum of a nonzero row leaves the normal float
    range; then it is the row's largest magnitude.  That is exact for an
    entropy whose value is 1-homogeneous and whose subgradient is
    0-homogeneous, and rows inside the range keep their bits.
    """
    total = _positive_sums(terms(q))
    rescale = ~((sys.float_info.min <= total) & (total < math.inf))
    top = np.ones(len(q))
    if rescale.any():
        rescale &= q.any(axis=1)
        top[rescale] = np.abs(q[rescale]).max(axis=1)
        q = q.copy()
        q[rescale] /= top[rescale, None]
        total[rescale] = _positive_sums(terms(q[rescale]))
    return q, top, total


def _spherical(space: MeasureSpace) -> Entropy:
    w = space.weights

    def squares(v: np.ndarray) -> np.ndarray:
        return v * v * w

    def value_rows(q: np.ndarray) -> np.ndarray:
        _, top, total = _scaled(q, squares)
        return top * np.sqrt(total)

    def grad_rows(q: np.ndarray) -> np.ndarray:
        v, _, total = _scaled(q, squares)
        if (total <= 0.0).any():
            raise DomainError("spherical subgradient is undefined at the origin")
        return v / np.sqrt(total)[:, None]

    return Entropy("spherical", ConvexDomainSpec.whole_space(space), value_rows, grad_rows)


def _power(space: MeasureSpace, gamma: float) -> Entropy:
    w = space.weights

    def value_rows(q: np.ndarray) -> np.ndarray:
        return fsum_rows(np.power(q, gamma) * w)

    def grad_rows(q: np.ndarray) -> np.ndarray:
        return gamma * np.power(q, gamma - 1.0)

    return Entropy(f"power({gamma:g})", ConvexDomainSpec.nonnegative_orthant(space),
                   value_rows, grad_rows)


def _shannon(space: MeasureSpace) -> Entropy:
    w = space.weights

    def value_rows(q: np.ndarray) -> np.ndarray:
        # 0 log 0 := 0; libm log per element, as numpy's SIMD log can differ in the last bit
        charged = q != 0.0
        logs = np.zeros(q.shape)
        logs[charged] = np.fromiter(map(math.log, q[charged].tolist()), float)
        return fsum_rows(np.where(charged, q * logs * w, 0.0))

    def grad_rows(q: np.ndarray) -> np.ndarray:
        if (q <= 0.0).any():
            raise DomainError("shannon subgradient does not exist at boundary points (zero atoms)")
        return np.log(q) + 1.0

    return Entropy("shannon", ConvexDomainSpec.nonnegative_orthant(space), value_rows, grad_rows,
                   closed_form_rows=np.log)  # the logarithmic score, -inf at zero atoms


def _pseudospherical(space: MeasureSpace, gamma: float) -> Entropy:
    w = space.weights

    def powers(v: np.ndarray) -> np.ndarray:
        return np.power(v, gamma) * w

    def value_rows(q: np.ndarray) -> np.ndarray:
        _, top, total = _scaled(q, powers)
        # Python float pow: numpy's array pow can differ in the last bit
        return np.array([t * s ** (1.0 / gamma) for t, s in zip(top.tolist(), total.tolist())], dtype=float)

    def grad_rows(q: np.ndarray) -> np.ndarray:
        v, _, total = _scaled(q, powers)
        if (total <= 0.0).any():
            raise DomainError("pseudospherical subgradient is undefined at the origin")
        norm = np.array([s ** ((gamma - 1.0) / gamma) for s in total.tolist()], dtype=float)
        return np.power(v, gamma - 1.0) / norm[:, None]

    return Entropy(f"pseudospherical({gamma:g})",
                   ConvexDomainSpec.nonnegative_orthant(space), value_rows, grad_rows)


def _weighted_quadratic(space: MeasureSpace, matrix) -> Entropy:
    q_mat = np.asarray(matrix, dtype=float)
    n = space.size
    if q_mat.shape != (n, n):
        raise ConstructionError(f"weighted_quadratic needs a {n}x{n} matrix")
    scale = float(np.max(np.abs(q_mat))) or 1.0
    if float(np.max(np.abs(q_mat - q_mat.T))) > 1e-10 * scale:
        raise ConstructionError("weighted_quadratic needs a symmetric matrix")
    if float(np.min(np.linalg.eigvalsh(q_mat))) <= 0.0:
        raise ConstructionError("weighted_quadratic needs a positive-definite matrix")
    w = space.weights

    def form_rows(q: np.ndarray) -> np.ndarray:
        # one matrix-vector product per row: Q @ M.T rounds differently
        return np.array([q_mat @ row for row in q], dtype=float).reshape(q.shape)

    def value_rows(q: np.ndarray) -> np.ndarray:
        return fsum_rows(q * form_rows(q))

    def grad_rows(q: np.ndarray) -> np.ndarray:
        # dual representer under the weighted pairing, hence the division
        return 2.0 * form_rows(q) / w

    return Entropy("weighted_quadratic", ConvexDomainSpec.whole_space(space), value_rows, grad_rows)


def catalog_entropy(
    name: str,
    space: MeasureSpace,
    *,
    gamma: float | None = None,
    matrix=None,
) -> Entropy:
    """Look up a catalog entropy by name.

    ``power`` and ``pseudospherical`` take a finite exponent ``gamma > 1``
    (convexity breaks at or below 1); ``weighted_quadratic`` takes a
    symmetric positive-definite matrix that already includes any desired
    atom weighting.
    """
    if name in ("power", "pseudospherical"):
        if gamma is None or not 1.0 < gamma < math.inf:
            raise ConstructionError(f"{name} entropy needs a finite exponent gamma > 1")
        return _power(space, float(gamma)) if name == "power" else _pseudospherical(space, float(gamma))
    if gamma is not None:
        raise ConstructionError(f"{name} entropy takes no exponent")
    if name == "weighted_quadratic":
        if matrix is None:
            raise ConstructionError("weighted_quadratic needs a matrix")
        return _weighted_quadratic(space, matrix)
    if matrix is not None:
        raise ConstructionError(f"{name} entropy takes no matrix")
    plain = {"quadratic": _quadratic, "spherical": _spherical, "shannon": _shannon}
    if name not in plain:
        raise ConstructionError(f"unknown entropy {name!r}; catalog: {', '.join(CATALOG_NAMES)}")
    return plain[name](space)


def parse_rule_spec(spec: str) -> tuple[str, float | None]:
    """Split a rule spec like ``power(1.5)`` into ``("power", 1.5)``.

    A bare name gives ``gamma = None``.  Only the syntax is checked here;
    :func:`catalog_entropy` decides whether the name exists and takes gamma.
    """
    match = _RULE_SPEC.match(spec.strip())
    if not match:
        raise ConstructionError(f"malformed rule spec {spec!r}")
    name, argument = match.groups()
    try:
        return name, None if argument is None else float(argument)
    except ValueError:
        raise ConstructionError(f"bad parameter in rule spec {spec!r}") from None


@quiet_floats
def canonical_extension_rows(entropy: Entropy, q_rows: np.ndarray) -> np.ndarray:
    """The 1-homogeneous extension ``mass(q) * value(q / mass(q))`` of each row.

    Undefined at zero mass, and the cone only contains nonnegative vectors.
    For an already 1-homogeneous entropy this reproduces ``value(q)``.
    """
    unit_rows, mass = normalize_rows(q_rows, entropy.domain.space.weights)
    return mass * entropy.value_rows(unit_rows)


def canonical_extension_value(entropy: Entropy, q: ConeVector) -> float:
    """One row of :func:`canonical_extension_rows`."""
    return float(canonical_extension_rows(entropy, q.values[None])[0])


def extended_subgradient(entropy: Entropy, q: ConeVector) -> DualVector:
    """0-homogeneous subgradient of the canonical extension at ``q``.

    This is the associated proper scoring rule evaluated at the normalised
    argument; it pairs with ``q`` to the extended entropy value (Euler).
    """
    return zero_homog_extend(make_psr(entropy), q)


@quiet_floats
def directional_derivative_fd_rows(entropy: Entropy, q: ConeVector, p_rows: np.ndarray) -> np.ndarray:
    """One-sided directional derivative estimates at ``q`` along each row of ``p_rows``.

    Richardson-extrapolates the forward difference quotients at steps h/2
    and h/4, with ``h = FD_STEP``, from one ``value_rows`` call on ``q`` and
    the three steps along every row.  Where the quotients keep dropping by
    non-contracting decrements (the signature of a boundary direction like
    shannon toward a zero atom), the estimate is ``-inf`` instead of a number.
    """
    h, v = FD_STEP, q.values
    if not entropy.domain.contains(q):
        raise DomainError("base point is outside the entropy domain")
    if not entropy.domain.contains_rows(v + h * p_rows).all():
        raise DomainError("q + h p leaves the entropy domain")
    steps = np.array([h, h / 2.0, h / 4.0])
    stepped = (v + steps[:, None] * p_rows[:, None]).reshape(-1, v.size)  # each row, then each step
    values = entropy.value_rows(np.vstack([v, stepped]))
    d1, d2, d4 = ((values[1:].reshape(-1, 3) - values[0]) / steps).T
    dec1, dec2 = d2 - d1, d4 - d2
    diverging = (dec2 < -_DIVERGE_MIN_DECREMENT) & (dec2 <= _DIVERGE_CONTRACTION * dec1)
    return np.where(diverging, -np.inf, 2.0 * d4 - d2)


def directional_derivative_fd(entropy: Entropy, q: ConeVector, p: ConeVector) -> float:
    """One row of :func:`directional_derivative_fd_rows`."""
    _require_same_space(p, q)
    return float(directional_derivative_fd_rows(entropy, q, p.values[None])[0])


@dataclass(frozen=True)
class CompositeEntropySpec:
    """Ingredients of a composite entropy ``phi(sum f(q_i) nu_i)``.

    The scalar callables must accept numpy arrays elementwise.  ``phi`` and
    ``f`` each need a first-derivative oracle; ``nu`` is the inner weighting,
    which may differ from the space's atom weights.
    """

    outer: Callable
    outer_derivative: Callable
    inner: Callable
    inner_derivative: Callable
    nu_weights: np.ndarray

    def __post_init__(self):
        nu = np.asarray(self.nu_weights, dtype=float)
        if nu.ndim != 1 or np.any(nu <= 0.0) or not np.all(np.isfinite(nu)):
            raise ConstructionError("nu weights must be a vector of positive reals")
        object.__setattr__(self, "nu_weights", nu)


def composite_entropy(
    spec: CompositeEntropySpec,
    domain: ConvexDomainSpec,
    *,
    name: str = "composite",
) -> Entropy:
    """Build ``phi(sum f(q_i) nu_i)`` with its first-derivative subgradient.

    The subgradient representer is ``phi'(I) f'(q) nu / mu`` so that pairing
    against a direction reproduces the chain rule under the weighted
    pairing.  Construction samples the domain to confirm that phi increases
    on the realised inner integrals and that the composition is midpoint
    convex; violations raise :class:`ConstructionError`.
    """
    space = domain.space
    if spec.nu_weights.size != space.size:
        raise ConstructionError("nu weights do not match the space size")
    nu = spec.nu_weights
    w = space.weights

    def inner_integrals(q: np.ndarray) -> list[float]:
        return fsum_rows(np.asarray(spec.inner(q), dtype=float) * nu).tolist()

    def value_rows(q: np.ndarray) -> np.ndarray:
        return np.array([float(spec.outer(x)) for x in inner_integrals(q)], dtype=float)

    def grad_rows(q: np.ndarray) -> np.ndarray:
        slope = np.array([float(spec.outer_derivative(x)) for x in inner_integrals(q)])
        return slope[:, None] * np.asarray(spec.inner_derivative(q), dtype=float) * nu / w

    rng = np.random.default_rng(_COMPOSITE_SEED)
    points = domain.draw(rng, 2 * _COMPOSITE_CHECKS)
    if any(float(spec.outer_derivative(x)) < -1e-12 for x in inner_integrals(points)):
        raise ConstructionError("outer function is not increasing on the sampled range")
    left, right = points[:_COMPOSITE_CHECKS], points[_COMPOSITE_CHECKS:]
    mid_value = value_rows((left + right) * 0.5)
    chord = 0.5 * (value_rows(left) + value_rows(right))
    if (mid_value > chord + 1e-10 * (1.0 + np.abs(chord))).any():
        raise ConstructionError("sampled midpoint check found a non-convex composition")

    return Entropy(name, domain, value_rows, grad_rows)
