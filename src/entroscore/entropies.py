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
from typing import Callable

import numpy as np

from .errors import ConstructionError, DomainError
from .geometry import ConvexDomainSpec
from .measure import ConeVector, Density, DualVector, MeasureSpace, total_mass
from .scoring import make_psr, zero_homog_extend

__all__ = [
    "Entropy",
    "CompositeEntropySpec",
    "catalog_entropy",
    "parse_rule_spec",
    "CATALOG_NAMES",
    "canonical_extension_value",
    "extended_subgradient",
    "directional_derivative_fd",
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
    """Convex function on a declared domain, with oracles.

    ``value`` maps cone vectors to reals; ``subgradient`` returns the dual
    representer of the derivative (may raise :class:`DomainError` where no
    finite subgradient exists, e.g. shannon on the boundary).
    ``closed_form_score`` optionally supplies the associated scoring rule
    directly when the generic construction cannot reach boundary points.
    """

    name: str
    domain: ConvexDomainSpec
    value: Callable[[ConeVector], float]
    subgradient: Callable[[ConeVector], DualVector] | None
    closed_form_score: Callable[[Density], DualVector] | None = None

    def __repr__(self) -> str:
        return f"Entropy({self.name!r}, domain={self.domain.kind})"


def _require_nonnegative(values: np.ndarray, what: str) -> None:
    if np.any(values < 0.0):
        raise DomainError(f"{what} requires nonnegative input")


def _quadratic(space: MeasureSpace) -> Entropy:
    w = space.weights

    def value(q: ConeVector) -> float:
        return math.fsum((q.values * q.values * w).tolist())

    def grad(q: ConeVector) -> DualVector:
        return space.dual(2.0 * q.values)

    return Entropy("quadratic", ConvexDomainSpec.whole_space(space), value, grad)


def _spherical(space: MeasureSpace) -> Entropy:
    w = space.weights

    def value(q: ConeVector) -> float:
        return math.sqrt(math.fsum((q.values * q.values * w).tolist()))

    def grad(q: ConeVector) -> DualVector:
        norm = value(q)
        if norm <= 0.0:
            raise DomainError("spherical subgradient is undefined at the origin")
        return space.dual(q.values / norm)

    return Entropy("spherical", ConvexDomainSpec.whole_space(space), value, grad)


def _power(space: MeasureSpace, gamma: float) -> Entropy:
    w = space.weights

    def value(q: ConeVector) -> float:
        _require_nonnegative(q.values, "power entropy")
        return math.fsum((np.power(q.values, gamma) * w).tolist())

    def grad(q: ConeVector) -> DualVector:
        _require_nonnegative(q.values, "power entropy subgradient")
        return space.dual(gamma * np.power(q.values, gamma - 1.0))

    return Entropy(f"power({gamma:g})", ConvexDomainSpec.nonnegative_orthant(space), value, grad)


def _shannon(space: MeasureSpace) -> Entropy:
    weights = space.weights.tolist()

    def value(q: ConeVector) -> float:
        _require_nonnegative(q.values, "shannon entropy")
        # 0 log 0 := 0; libm log per element, as numpy's SIMD log can differ in the last bit
        return math.fsum(x * math.log(x) * w if x else 0.0
                         for x, w in zip(q.values.tolist(), weights))

    def grad(q: ConeVector) -> DualVector:
        if np.any(q.values <= 0.0):
            raise DomainError(
                "shannon subgradient does not exist at boundary points (zero atoms)"
            )
        return space.dual(np.log(q.values) + 1.0)

    def log_score(q: Density) -> DualVector:
        _require_nonnegative(q.values, "logarithmic score")
        with np.errstate(divide="ignore"):
            return space.dual(np.log(q.values), allow_infinite=True)

    return Entropy("shannon", ConvexDomainSpec.nonnegative_orthant(space), value, grad,
                   closed_form_score=log_score)


def _pseudospherical(space: MeasureSpace, gamma: float) -> Entropy:
    w = space.weights

    @np.errstate(over="ignore")  # as a decorator it costs next to nothing per call
    def power_sum(v: np.ndarray) -> float:
        try:
            return math.fsum((np.power(v, gamma) * w).tolist())
        except OverflowError:  # finite terms whose sum exceeds the largest float
            return math.inf

    def scaled(q: ConeVector) -> tuple[np.ndarray, float, float]:
        """``(v, top, sum v^gamma mu)`` with ``q = top * v``.

        ``top`` is 1 unless the power sum of a nonzero q leaves the normal
        float range; then it is ``max q``.  That is exact, as the value is
        1-homogeneous and the subgradient 0-homogeneous.
        """
        v = q.values
        _require_nonnegative(v, "pseudospherical entropy")
        total = power_sum(v)
        if sys.float_info.min <= total < math.inf or not np.any(v):
            return v, 1.0, total
        top = float(np.max(v))
        return v / top, top, power_sum(v / top)

    def value(q: ConeVector) -> float:
        _, top, total = scaled(q)
        return top * total ** (1.0 / gamma)

    def grad(q: ConeVector) -> DualVector:
        v, _, total = scaled(q)
        if total <= 0.0:
            raise DomainError("pseudospherical subgradient is undefined at the origin")
        return space.dual(np.power(v, gamma - 1.0) / total ** ((gamma - 1.0) / gamma))

    return Entropy(f"pseudospherical({gamma:g})",
                   ConvexDomainSpec.nonnegative_orthant(space), value, grad)


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

    def value(q: ConeVector) -> float:
        return math.fsum((q.values * (q_mat @ q.values)).tolist())

    def grad(q: ConeVector) -> DualVector:
        # dual representer under the weighted pairing, hence the division
        return space.dual(2.0 * (q_mat @ q.values) / w)

    return Entropy("weighted_quadratic", ConvexDomainSpec.whole_space(space), value, grad)


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
    if name == "quadratic":
        return _quadratic(space)
    if name == "spherical":
        return _spherical(space)
    if name == "shannon":
        return _shannon(space)
    raise ConstructionError(f"unknown entropy {name!r}; catalog: {', '.join(CATALOG_NAMES)}")


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


def canonical_extension_value(entropy: Entropy, q: ConeVector) -> float:
    """The 1-homogeneous extension ``mass(q) * value(q / mass(q))``.

    Undefined at zero mass, and the cone only contains nonnegative vectors.
    For an already 1-homogeneous entropy this reproduces ``value(q)``.
    """
    _require_nonnegative(q.values, "the canonical extension")
    mass = total_mass(q)
    if mass <= 0.0:
        raise DomainError("the canonical extension is undefined at zero total mass")
    return mass * entropy.value(q.space.cone(q.values / mass))


def extended_subgradient(entropy: Entropy, q: ConeVector) -> DualVector:
    """0-homogeneous subgradient of the canonical extension at ``q``.

    This is the associated proper scoring rule evaluated at the normalised
    argument; it pairs with ``q`` to the extended entropy value (Euler).
    """
    return zero_homog_extend(make_psr(entropy), q)


def directional_derivative_fd(entropy: Entropy, q: ConeVector, p: ConeVector) -> float:
    """One-sided directional derivative estimate at ``q`` along ``p``.

    Richardson-extrapolates the forward difference quotients at steps h/2
    and h/4, with ``h = FD_STEP``.  When the quotients keep dropping by non-contracting decrements
    (the signature of a boundary direction like shannon toward a zero atom),
    returns ``-inf`` instead of a number.
    """
    h = FD_STEP
    if not entropy.domain.contains(q):
        raise DomainError("base point is outside the entropy domain")
    if not entropy.domain.contains(q + h * p):
        raise DomainError("q + h p leaves the entropy domain")
    base = entropy.value(q)
    d1, d2, d4 = (
        (entropy.value(q + step * p) - base) / step
        for step in (h, h / 2.0, h / 4.0)
    )
    dec1, dec2 = d2 - d1, d4 - d2
    if dec2 < -_DIVERGE_MIN_DECREMENT and dec2 <= _DIVERGE_CONTRACTION * dec1:
        return -math.inf
    return 2.0 * d4 - d2


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

    def inner_integral(q: ConeVector) -> float:
        return math.fsum((np.asarray(spec.inner(q.values), dtype=float) * nu).tolist())

    def value(q: ConeVector) -> float:
        return float(spec.outer(inner_integral(q)))

    def grad(q: ConeVector) -> DualVector:
        slope = float(spec.outer_derivative(inner_integral(q)))
        return space.dual(slope * np.asarray(spec.inner_derivative(q.values), dtype=float) * nu / w)

    rng = np.random.default_rng(_COMPOSITE_SEED)
    points = domain.sample(rng, 2 * _COMPOSITE_CHECKS)
    for point in points:
        if float(spec.outer_derivative(inner_integral(point))) < -1e-12:
            raise ConstructionError("outer function is not increasing on the sampled range")
    for left, right in zip(points[:_COMPOSITE_CHECKS], points[_COMPOSITE_CHECKS:]):
        mid_value = value((left + right) * 0.5)
        chord = 0.5 * (value(left) + value(right))
        if mid_value > chord + 1e-10 * (1.0 + abs(chord)):
            raise ConstructionError("sampled midpoint check found a non-convex composition")

    return Entropy(name, domain, value, grad)
