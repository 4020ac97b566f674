"""Convex entropy functions with analytic subgradient oracles.

The catalog carries the standard forecasting entropies on a finite measure
space (integrals are weighted sums):

==================  =============================  =========================  =======================
name                value H(q)                     subgradient                score S(q)
==================  =============================  =========================  =======================
quadratic           sum q^2 mu                     2 q                        2 q - H(q)
spherical           (sum q^2 mu)^(1/2)             q / (sum q^2 mu)^(1/2)     the subgradient
power(g)            sum q^g mu                     g q^(g-1)                  g q^(g-1) - (g-1) H(q)
shannon             sum q log q mu                 log q + 1                  log q
pseudospherical(g)  (sum q^g mu)^(1/g)             q^(g-1) / (...)^((g-1)/g)  the subgradient
weighted_quadratic  q^T Q q                        2 Q q / mu                 2 Q q / mu - H(q)
fisher              sum (D q)^2 / q mu             -2 D r - r^2, r = D q / q  the subgradient
==================  =============================  =========================  =======================

Each entropy has a ``value_rows`` oracle and a ``value_grad_rows`` oracle that
gives values and subgradients from one pass.  Subgradients live in the weighted
dual (``pair(d, grad)`` is the directional derivative), hence the division by
atom weights in the matrix and composite forms.  Shannon uses 0 log 0 := 0 and
refuses boundary subgradients, as fisher does.  Array ``pow`` and ``log`` keep zeros
off numpy's slow special-value path.

Each catalog entropy also gives its score in closed form (``closed_form_rows``),
from the pass that gives its value and subgradient: the gradient of its
sublinear extension ``|q| H(q / |q|)`` at a density.  An entropy homogeneous of
degree k has ``pair(q, grad) = k H(q)`` (Euler), so its score is
``grad - (k - 1) H(q)``; shannon's is the logarithmic score ``log q``, -inf at
zeros.

The catalog is one table, and adding an entropy is one row of it plus the
row's constructor.  An entropy with an exponent is named with the exponent's
shortest round-trip form, as in ``power(1.5)``, which ``parse_rule_spec`` reads back.

Beyond the catalog: the canonical 1-homogeneous extension to the positive
cone, and composite entropies ``phi(sum f(q) nu)`` for symmetry analysis.
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
from .measure import (ConeVector, MeasureSpace, _require_same_space, _times, exact_row_sums, fsum_rows,
                      normalize_rows, quiet_floats, require_float_range, row_list)

__all__ = [
    "Entropy",
    "CompositeEntropySpec",
    "catalog_entropy",
    "catalog_symmetric",
    "parse_rule_spec",
    "CATALOG_NAMES",
    "canonical_extension_value",
    "canonical_extension_rows",
    "composite_entropy",
]

# A catalog name with an optional parenthesised exponent, as in ``power(1.5)``
_RULE_SPEC = re.compile(r"^([a-z_]+)(?:\(([^()]*)\))?$")

# composite_entropy checks convexity on this many seeded midpoint pairs.
_COMPOSITE_CHECKS = 32
_COMPOSITE_SEED = 7


@dataclass(frozen=True)
class Entropy:
    """Convex function on a declared domain, with row oracles.

    Each oracle maps an (m, n) array of cone vectors (made C-ordered) to m results without float
    warnings, refusing (:class:`DomainError`) a row with an entry below 0 if the domain is
    sign-bounded: ``value_rows`` to values; ``value_grad_rows`` to values and dual subgradient
    representers from one pass (None if there is none; :class:`DomainError` where no finite one
    exists, e.g. shannon on the boundary); the optional ``closed_form_rows`` to the scores of the
    entropy's rule in closed form, which :func:`scoring.make_psr` then uses in place of the generic
    construction (each catalog entropy has one: module docstring); ``sentinel_scores`` if those
    scores may be -inf on atoms a row does not charge, as the log score is.  ``value``,
    ``subgradient`` and ``closed_form_score`` are their one-row calls on vector objects.
    """

    name: str
    domain: ConvexDomainSpec
    value_rows: Callable[[np.ndarray], np.ndarray]
    value_grad_rows: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] | None
    closed_form_rows: Callable[[np.ndarray], np.ndarray] | None = None
    sentinel_scores: bool = False

    def __post_init__(self):
        @quiet_floats
        def checked(oracle, q):
            q = np.ascontiguousarray(q)  # numpy's strided pow and log round differently
            if self.domain.negative_rows(q).any():
                raise DomainError(f"{self.name} requires nonnegative input")
            return oracle(q)

        def row(q):  # a vector of the entropy's space as a one-row batch
            _require_same_space(self.domain.space, q)
            return q.values[None]

        for oracle in ("value_rows", "value_grad_rows", "closed_form_rows"):
            object.__setattr__(self, oracle, getattr(self, oracle) and partial(checked, getattr(self, oracle)))
        value_rows, value_grad_rows, closed_form_rows = self.value_rows, self.value_grad_rows, self.closed_form_rows
        object.__setattr__(self, "value", lambda q: float(value_rows(row(q))[0]))
        object.__setattr__(self, "subgradient", value_grad_rows and (lambda q: self.domain.space.dual(
            require_float_range(f"{self.name} subgradients", value_grad_rows(row(q))[1])[0])))
        object.__setattr__(self, "closed_form_score", closed_form_rows and (
            lambda q: self.domain.space.dual(closed_form_rows(row(q))[0], allow_infinite=self.sentinel_scores)))

    def __repr__(self) -> str:
        return f"Entropy({self.name!r}, domain={self.domain.kind})"


@quiet_floats
def _zero_safe(ufunc, q: np.ndarray, *args) -> np.ndarray:
    """``np.power(q, exponent > 0)`` or ``np.log(q)`` of C-ordered ``q``, bit for bit.  numpy's SIMD
    kernels take a slow special-value path on zeros, so the ufunc runs on ``q + (q == 0)`` and the zeros
    are mended in place by arithmetic (a masked write branches per entry): ``1 ** e - 1 = +0`` and
    ``(log 1 - 1) / 0 = -inf``."""
    zero = q == 0.0
    if not zero.any():
        return ufunc(q, *args)
    out = q + zero
    ufunc(out, *args, out=out)
    out -= zero
    if ufunc is np.log:
        out /= ~zero
    elif np.signbit(ufunc(np.array([-0.0]), *args))[0] and (negative := zero & np.signbit(q)).any():
        out[negative] = -0.0  # numpy's -0 ** e: -0 for odd integers, and for 0.5 (sqrt)
    return out


_pow, _log = partial(_zero_safe, np.power), partial(_zero_safe, np.log)


def _euler_scores(value_grad_rows: Callable, degree: float) -> Callable:
    """Scores ``grad - (degree - 1) H`` by row for an entropy homogeneous of ``degree`` other than 1:
    Euler's ``pair(q, grad) = degree H`` makes them the generic ``grad + (H - pair(q, grad))`` on
    every row, with no pairing.  A 1-homogeneous entropy scores with its subgradient alone."""
    def score_rows(q: np.ndarray) -> np.ndarray:
        value, grad = value_grad_rows(q)
        grad -= (degree - 1.0) * value[:, None]  # grad is the oracle's own array
        return grad

    return score_rows


def _quadratic(name: str, space: MeasureSpace) -> Entropy:
    w = space.weights

    def value_rows(q: np.ndarray) -> np.ndarray:
        return fsum_rows(_times(q * q, w))

    def value_grad_rows(q: np.ndarray) -> tuple:
        return value_rows(q), 2.0 * q

    return Entropy(name, ConvexDomainSpec.whole_space(space), value_rows, value_grad_rows,
                   _euler_scores(value_grad_rows, 2.0))


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


def _spherical(name: str, space: MeasureSpace) -> Entropy:
    w = space.weights

    def squares(v: np.ndarray) -> np.ndarray:
        return _times(v * v, w)

    def value_rows(q: np.ndarray, scaled: tuple | None = None) -> np.ndarray:
        _, top, total = scaled or _scaled(q, squares)
        return top * np.sqrt(total)

    def gradient_rows(q: np.ndarray, scaled: tuple | None = None) -> np.ndarray:
        v, _, total = scaled or _scaled(q, squares)
        if (total <= 0.0).any():
            raise DomainError("spherical subgradient is undefined at the origin")
        return v / np.sqrt(total)[:, None]

    def value_grad_rows(q: np.ndarray) -> tuple:
        scaled = _scaled(q, squares)
        return value_rows(q, scaled), gradient_rows(q, scaled)

    return Entropy(name, ConvexDomainSpec.whole_space(space), value_rows, value_grad_rows, gradient_rows)


def _power(name: str, space: MeasureSpace, gamma: float) -> Entropy:
    w = space.weights

    def value_rows(q: np.ndarray) -> np.ndarray:
        return fsum_rows(_times(_pow(q, gamma), w))

    def value_grad_rows(q: np.ndarray) -> tuple:
        return value_rows(q), _times(_pow(q, gamma - 1.0), gamma)

    return Entropy(name, ConvexDomainSpec.nonnegative_orthant(space), value_rows, value_grad_rows,
                   _euler_scores(value_grad_rows, gamma))


def _shannon(name: str, space: MeasureSpace) -> Entropy:
    w = space.weights

    def value_rows(q: np.ndarray) -> np.ndarray:
        charged = q != 0.0  # 0 log 0 := 0
        logs = np.zeros(q.shape)
        logs[charged] = np.fromiter(map(math.log, q[charged].tolist()), float)  # libm's bits, not numpy's SIMD ones
        return fsum_rows(np.where(charged, _times(q * logs, w), 0.0))

    def value_grad_rows(q: np.ndarray) -> tuple:
        if (q <= 0.0).any():
            raise DomainError("shannon subgradient does not exist at boundary points (zero atoms)")
        return value_rows(q), _log(q) + 1.0

    return Entropy(name, ConvexDomainSpec.nonnegative_orthant(space), value_rows, value_grad_rows,
                   _log, sentinel_scores=True)  # the logarithmic score, -inf at zero atoms


def _pseudospherical(name: str, space: MeasureSpace, gamma: float) -> Entropy:
    w = space.weights

    def powers(v: np.ndarray) -> np.ndarray:
        return _times(_pow(v, gamma), w)

    def value_rows(q: np.ndarray, scaled: tuple | None = None) -> np.ndarray:
        _, top, total = scaled or _scaled(q, powers)
        # numpy's generic float_power loop calls libm's pow, as Python's ** does; np.power's SIMD kernel
        # rounds differently
        return top * np.float_power(total, 1.0 / gamma)

    def gradient_rows(q: np.ndarray, scaled: tuple | None = None) -> np.ndarray:
        v, _, total = scaled or _scaled(q, powers)
        if (total <= 0.0).any():
            raise DomainError("pseudospherical subgradient is undefined at the origin")
        grad = _pow(v, gamma - 1.0)
        grad /= np.float_power(total, (gamma - 1.0) / gamma)[:, None]
        return grad

    def value_grad_rows(q: np.ndarray) -> tuple:
        scaled = _scaled(q, powers)
        return value_rows(q, scaled), gradient_rows(q, scaled)

    return Entropy(name, ConvexDomainSpec.nonnegative_orthant(space), value_rows, value_grad_rows, gradient_rows)


def _weighted_quadratic(name: str, space: MeasureSpace, matrix) -> Entropy:
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

    def value_grad_rows(q: np.ndarray) -> tuple:
        form = form_rows(q)
        return fsum_rows(q * form), 2.0 * form / w  # the dual representer, hence the division

    return Entropy(name, ConvexDomainSpec.whole_space(space), value_rows, value_grad_rows,
                   _euler_scores(value_grad_rows, 2.0))


def _periodic_differences(rows: np.ndarray, h: float) -> np.ndarray:
    """The centred difference ``(v[i+1] - v[i-1]) / (2h)`` of rows read as periodic grids of spacing h."""
    return (np.roll(rows, -1, axis=-1) - np.roll(rows, 1, axis=-1)) / (2.0 * h)


def _fisher(name: str, space: MeasureSpace) -> Entropy:
    w = space.weights
    if space.size < 4 or (w != w[0]).any():
        raise ConstructionError("fisher entropy needs at least 4 atoms of equal weight")
    h = float(w[0])  # the grid's spacing

    def value_rows(q: np.ndarray) -> np.ndarray:
        differences = _periodic_differences(q, h)
        r = differences / q  # the log slope
        # at a zero atom, where r is 0 / 0 or infinite, the perspective's closure: 0 where D q = 0, else +inf
        terms = np.where(q == 0.0, np.where(differences == 0.0, 0.0, math.inf), q * r * r * h)
        return _positive_sums(terms)

    def gradient_rows(q: np.ndarray) -> np.ndarray:
        if (zero := (q == 0.0).any(axis=1)).any():
            rows = row_list((np.flatnonzero(zero) + 1).tolist())
            raise DomainError(f"fisher subgradient does not exist at zero atoms, in {rows}")
        r = _periodic_differences(q, h) / q
        return -2.0 * _periodic_differences(r, h) - r * r

    def value_grad_rows(q: np.ndarray) -> tuple:
        return value_rows(q), gradient_rows(q)

    return Entropy(name, ConvexDomainSpec.nonnegative_orthant(space), value_rows, value_grad_rows, gradient_rows)


# The catalog, name -> (its constructor, called as (name, space) or (name, space, parameter); the
# kind of parameter it takes: None, "exponent" or "matrix"; whether its Bregman divergence is
# symmetric at gamma on a space of that many atoms: only those of generalized quadratic entropies
# are, and on one atom those of the spherical ones, linear there: (q^g mu)^(1/g) = q mu^(1/g)).
_CATALOG = {
    "quadratic": (_quadratic, None, lambda gamma, atoms: True),
    "spherical": (_spherical, None, lambda gamma, atoms: atoms == 1),
    "power": (_power, "exponent", lambda gamma, atoms: gamma == 2.0),  # power(2) is the quadratic entropy
    "shannon": (_shannon, None, lambda gamma, atoms: False),
    # pseudospherical(2) is the spherical entropy
    "pseudospherical": (_pseudospherical, "exponent", lambda gamma, atoms: atoms == 1),
    "weighted_quadratic": (_weighted_quadratic, "matrix", lambda gamma, atoms: True),
    "fisher": (_fisher, None, lambda gamma, atoms: False),
}
CATALOG_NAMES = tuple(_CATALOG)


def _catalog_row(name: str) -> tuple:
    if name not in _CATALOG:
        raise ConstructionError(f"unknown entropy {name!r}; catalog: {', '.join(CATALOG_NAMES)}")
    return _CATALOG[name]


def catalog_entropy(name: str, space: MeasureSpace, *, gamma: float | None = None, matrix=None) -> Entropy:
    """Look up a catalog entropy by name.

    ``power`` and ``pseudospherical`` take a finite exponent ``gamma > 1``
    (convexity breaks at or below 1) and are named with its shortest
    round-trip form, as in ``power(1.5)``; ``weighted_quadratic`` takes a
    symmetric positive-definite matrix that already includes any desired
    atom weighting; ``fisher`` needs at least 4 atoms of equal weight, which
    it reads in order as a periodic grid.  Adding an entropy is one row of
    the catalog table plus its constructor.
    """
    build, parameter, _ = _catalog_row(name)
    for kind, value in (("exponent", gamma), ("matrix", matrix)):
        if value is not None and kind != parameter:
            raise ConstructionError(f"{name} entropy takes no {kind}")
    if parameter == "exponent":
        if gamma is None or not 1.0 < gamma < math.inf:
            raise ConstructionError(f"{name} entropy needs a finite exponent gamma > 1")
        return build(f"{name}({repr(float(gamma)).removesuffix('.0')})", space, float(gamma))
    if parameter == "matrix":
        if matrix is None:
            raise ConstructionError(f"{name} needs a matrix")
        return build(name, space, matrix)
    return build(name, space)


def catalog_symmetric(name: str, gamma: float | None = None, atoms: int | None = None) -> bool:
    """Whether the Bregman divergence of catalog entropy ``name`` at exponent ``gamma`` on a space of
    ``atoms`` atoms (None: more than one) is symmetric: true for ``quadratic``, ``weighted_quadratic``
    and ``power(2)``, the generalized quadratics, and on one atom also for ``spherical`` and
    ``pseudospherical``, which are linear there, so that their divergence is 0."""
    return _catalog_row(name)[2](gamma, atoms)


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
    _require_same_space(entropy.domain.space, q)
    return float(canonical_extension_rows(entropy, q.values[None])[0])


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

    def value_rows(q: np.ndarray, integrals: list[float] | None = None) -> np.ndarray:
        return np.array([float(spec.outer(x)) for x in integrals or inner_integrals(q)], dtype=float)

    def value_grad_rows(q: np.ndarray) -> tuple:
        integrals = inner_integrals(q)
        slope = np.array([float(spec.outer_derivative(x)) for x in integrals])[:, None]
        return value_rows(q, integrals), slope * np.asarray(spec.inner_derivative(q), dtype=float) * nu / w

    rng = np.random.default_rng(_COMPOSITE_SEED)
    points = domain.draw(rng, 2 * _COMPOSITE_CHECKS)
    if any(float(spec.outer_derivative(x)) < -1e-12 for x in inner_integrals(points)):
        raise ConstructionError("outer function is not increasing on the sampled range")
    left, right = points[:_COMPOSITE_CHECKS], points[_COMPOSITE_CHECKS:]
    mid_value = value_rows((left + right) * 0.5)
    chord = 0.5 * (value_rows(left) + value_rows(right))
    if (mid_value > chord + 1e-10 * (1.0 + np.abs(chord))).any():
        raise ConstructionError("sampled midpoint check found a non-convex composition")

    return Entropy(name, domain, value_rows, value_grad_rows)
