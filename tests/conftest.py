"""Shared helpers for the test suite, and the scalar reference formulas."""

import math
import os
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

import entroscore
from entroscore import (
    CompositeEntropySpec,
    ConstructionError,
    ConvexDomainSpec,
    DomainError,
    MeasureSpace,
    catalog_entropy,
    composite_entropy,
    make_psr,
    parse_rule_spec,
)

# The six named rules the verification suites exercise.
CATALOG_SPECS = (
    "quadratic",
    "spherical",
    "shannon",
    "power(1.5)",
    "power(3)",
    "pseudospherical(3)",
)


def entropy_from_spec(spec: str, space: MeasureSpace):
    """Build a catalog entropy from a spec string like ``power(1.5)``."""
    name, gamma = parse_rule_spec(spec)
    return catalog_entropy(name, space, gamma=gamma)


def rule_from_spec(spec: str, space: MeasureSpace):
    return make_psr(entropy_from_spec(spec, space))


def child_env() -> dict:
    """Environment for a child interpreter that imports this checkout's package."""
    src = str(Path(entroscore.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def unit_space(n: int) -> MeasureSpace:
    return MeasureSpace(np.ones(n))


def power_law_composite(space, gamma, nu=None):
    """Separable entropy sum q^gamma nu via the composite machinery."""
    return composite_entropy(
        CompositeEntropySpec(
            outer=lambda x: x,
            outer_derivative=lambda x: 1.0,
            inner=lambda v: np.power(v, gamma),
            inner_derivative=lambda v: gamma * np.power(v, gamma - 1.0),
            nu_weights=space.weights if nu is None else nu,
        ),
        ConvexDomainSpec.nonnegative_orthant(space),
        name=f"separable_power({gamma:g})",
    )


def integrated_square_composite(space, nu):
    """Non-separable entropy (sum q nu)^2 via the composite machinery."""
    return composite_entropy(
        CompositeEntropySpec(
            outer=lambda x: x * x,
            outer_derivative=lambda x: 2.0 * x,
            inner=lambda v: v,
            inner_derivative=lambda v: np.ones_like(v),
            nu_weights=nu,
        ),
        ConvexDomainSpec.nonnegative_orthant(space),
        name="integrated_square",
    )


# -- scalar reference ---------------------------------------------------------
#
# The per-vector formulas the row kernel replaced, kept as a test-only oracle
# for the differential tests: same operand order, same reductions, and the
# same errors (``ref_dual`` performs the checks of ``MeasureSpace.dual``).
# Every function takes and returns plain float arrays and never warns.

def ref_dual(values, allow_infinite=False) -> np.ndarray:
    v = np.array(values, dtype=float)
    if np.any(np.isnan(v)):
        raise ConstructionError("dual vectors must not contain NaN")
    if not allow_infinite and not np.all(np.isfinite(v)):
        raise ConstructionError("dual vectors must be finite")
    return v


def ref_pair(q, f, w) -> float:
    if np.all(np.isfinite(f)):
        return math.fsum((q * f * w).tolist())
    base = q * w
    charged = base != 0.0
    terms = base[charged] * f[charged]
    infinite = np.isinf(terms)
    if np.any(infinite):
        return float(np.sum(terms[infinite]))
    return math.fsum(terms.tolist())


def _ref_nonnegative(q) -> None:
    if np.any(q < 0.0):
        raise DomainError("requires nonnegative input")


class RefEntropy(NamedTuple):
    value: Callable
    grad: Callable
    closed: Callable | None = None


def ref_catalog(name: str, w, gamma=None, matrix=None) -> RefEntropy:
    if name == "quadratic":
        return RefEntropy(lambda q: math.fsum((q * q * w).tolist()), lambda q: ref_dual(2.0 * q))
    if name == "spherical":
        def norm(q):
            return math.sqrt(math.fsum((q * q * w).tolist()))

        def grad(q):
            if norm(q) <= 0.0:
                raise DomainError("spherical subgradient is undefined at the origin")
            return ref_dual(q / norm(q))

        return RefEntropy(norm, grad)
    if name == "power":
        def value(q):
            _ref_nonnegative(q)
            return math.fsum((np.power(q, gamma) * w).tolist())

        def grad(q):
            _ref_nonnegative(q)
            return ref_dual(gamma * np.power(q, gamma - 1.0))

        return RefEntropy(value, grad)
    if name == "shannon":
        def value(q):
            _ref_nonnegative(q)
            return math.fsum(x * math.log(x) * u if x else 0.0 for x, u in zip(q.tolist(), w.tolist()))

        def grad(q):
            if np.any(q <= 0.0):
                raise DomainError("no subgradient at zero atoms")
            return ref_dual(np.log(q) + 1.0)

        def log_score(q):
            _ref_nonnegative(q)
            return ref_dual(np.log(q), allow_infinite=True)

        return RefEntropy(value, grad, log_score)
    if name == "pseudospherical":
        def power_sum(v):
            try:
                return math.fsum((np.power(v, gamma) * w).tolist())
            except OverflowError:
                return math.inf

        def scaled(v):
            _ref_nonnegative(v)
            total = power_sum(v)
            if sys.float_info.min <= total < math.inf or not np.any(v):
                return v, 1.0, total
            top = float(np.max(v))
            return v / top, top, power_sum(v / top)

        def value(q):
            _, top, total = scaled(q)
            return top * total ** (1.0 / gamma)

        def grad(q):
            v, _, total = scaled(q)
            if total <= 0.0:
                raise DomainError("pseudospherical subgradient is undefined at the origin")
            return ref_dual(np.power(v, gamma - 1.0) / total ** ((gamma - 1.0) / gamma))

        return RefEntropy(value, grad)
    if name == "weighted_quadratic":
        return RefEntropy(lambda q: math.fsum((q * (matrix @ q)).tolist()),
                          lambda q: ref_dual(2.0 * (matrix @ q) / w))
    raise ValueError(name)


def ref_composite(spec: CompositeEntropySpec, w) -> RefEntropy:
    def inner_integral(q):
        return math.fsum((np.asarray(spec.inner(q), dtype=float) * spec.nu_weights).tolist())

    def grad(q):
        slope = float(spec.outer_derivative(inner_integral(q)))
        return ref_dual(slope * np.asarray(spec.inner_derivative(q), dtype=float) * spec.nu_weights / w)

    return RefEntropy(lambda q: float(spec.outer(inner_integral(q))), grad)


def ref_rebased(base: RefEntropy, a, w) -> RefEntropy:
    grad_a, value_a = base.grad(a), base.value(a)
    return RefEntropy(lambda p: base.value(p) - ref_pair(p - a, grad_a, w) - value_a,
                      lambda p: ref_dual(base.grad(p) - grad_a))


def ref_score(entropy: RefEntropy | None, w) -> Callable:
    """The rule's score at one density; ``None`` gives the linear rule."""
    if entropy is None:
        return ref_dual
    if entropy.closed is not None:
        return entropy.closed

    def score(q):
        grad = entropy.grad(q)
        return ref_dual(grad + (entropy.value(q) - ref_pair(q, grad, w)))

    return score


def ref_call(fn, *args):
    """``fn(*args)`` without float warnings, or the exception it raises."""
    with np.errstate(all="ignore"):
        try:
            return fn(*args)
        except Exception as exc:  # the oracle's own errors are what gets compared
            return exc
