"""Shared helpers for the test suite, and the scalar reference formulas."""

import math
import os
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

import entroscore
from entroscore import (
    ASYMMETRIC_WITH_WITNESS,
    INCONCLUSIVE,
    SYMMETRIC_GENERALIZED_QUADRATIC,
    CompositeEntropySpec,
    ConstructionError,
    ConvexDomainSpec,
    DivergenceReport,
    DomainError,
    EulerReport,
    MeasureSpace,
    RejectedCandidate,
    SubgradientProbeResult,
    affine_score_at,
    bregman_divergence_rows,
    canonical_extension_rows,
    catalog_entropy,
    composite_entropy,
    direction_cone_membership,
    directional_derivative_fd,
    is_quasi_interior,
    lineality_space,
    make_psr,
    normalize_rows,
    pair,
    pair_rows,
    parse_rule_spec,
    sampling,
)
from entroscore.measure import FloatRangeError

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
# Every function takes and returns plain float arrays and never warns.  A
# catalog rule scores with its closed form, as ``make_psr`` does: the gradient
# of the sublinear extension, ``grad - (k - 1) value`` for an entropy
# homogeneous of degree k, and the log score for shannon.

def ref_dual(values, allow_infinite=False) -> np.ndarray:
    v = np.array(values, dtype=float)
    if np.any(np.isnan(v)):
        raise ConstructionError("dual vectors must not contain NaN")
    if not allow_infinite and not np.all(np.isfinite(v)):
        raise ConstructionError("dual vectors must be finite")
    return v


def ref_pair(q, f, w) -> float:
    terms = q * f * w
    if np.all(np.isfinite(terms)):
        return math.fsum(terms.tolist())
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


def _ref_homogeneous(value: Callable, grad: Callable, degree: float) -> RefEntropy:
    """An entropy homogeneous of ``degree``, scored by ``grad - (degree - 1) value``."""
    if degree == 1.0:
        return RefEntropy(value, grad, grad)
    return RefEntropy(value, grad, lambda q: ref_dual(grad(q) - (degree - 1.0) * value(q)))


def ref_catalog(name: str, w, gamma=None, matrix=None) -> RefEntropy:
    if name == "quadratic":
        return _ref_homogeneous(lambda q: math.fsum((q * q * w).tolist()), lambda q: ref_dual(2.0 * q), 2.0)
    if name == "spherical":
        def square_sum(v):
            try:
                return math.fsum((v * v * w).tolist())
            except OverflowError:
                return math.inf

        def scaled(v):
            total = square_sum(v)
            if sys.float_info.min <= total < math.inf or not np.any(v):
                return v, 1.0, total
            top = float(np.max(np.abs(v)))
            return v / top, top, square_sum(v / top)

        def norm(q):
            _, top, total = scaled(q)
            return top * math.sqrt(total)

        def grad(q):
            v, _, total = scaled(q)
            if total <= 0.0:
                raise DomainError("spherical subgradient is undefined at the origin")
            return ref_dual(v / math.sqrt(total))

        return _ref_homogeneous(norm, grad, 1.0)
    if name == "power":
        def value(q):
            _ref_nonnegative(q)
            return math.fsum((np.power(q, gamma) * w).tolist())

        def grad(q):
            _ref_nonnegative(q)
            return ref_dual(gamma * np.power(q, gamma - 1.0))

        return _ref_homogeneous(value, grad, gamma)
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

        return _ref_homogeneous(value, grad, 1.0)
    if name == "weighted_quadratic":
        return _ref_homogeneous(lambda q: math.fsum((q * (matrix @ q)).tolist()),
                                lambda q: ref_dual(2.0 * (matrix @ q) / w), 2.0)
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


def ref_divergence(entropy: RefEntropy, p, q, w) -> float:
    return entropy.value(p) - ref_pair(p - q, entropy.grad(q), w) - entropy.value(q)


def ref_call(fn, *args):
    """``fn(*args)`` without float warnings, or the exception it raises."""
    with np.errstate(all="ignore"):
        try:
            return fn(*args)
        except Exception as exc:  # the oracle's own errors are what gets compared
            return exc


# -- sampled-suite reference ----------------------------------------------------
#
# The per-point loops of ``symmetry_defect`` and ``linearity_check`` before
# they ran on rows: points drawn one at a time, one-row oracle and pairing
# calls on library vector objects, the first failing point returning early;
# and the per-point draw of the cone points behind Euler and linearity.

# The third difference's coefficients (1, -3, 3, -1), over 8 as the suite scales them.
THIRD_DIFFERENCE = (0.125, -0.375, 0.375, -0.125)


def ref_third_difference(values) -> float:
    """``|sum t| / sum |t|`` for the terms ``t`` of one segment's third difference, 0 if all are 0."""
    terms = [c * v for c, v in zip(THIRD_DIFFERENCE, values)]
    scale = math.fsum(abs(t) for t in terms)
    return abs(math.fsum(terms)) / scale if scale > 0.0 else 0.0


def ref_symmetry_defect(entropy, seed: int = 0, samples: int = 200) -> DivergenceReport:
    def divergence(p, q):
        grad = entropy.subgradient(q)
        return entropy.value(p) - pair(p - q, grad) - entropy.value(q)

    rng = np.random.default_rng(seed)
    space = entropy.domain.space
    worst = -math.inf
    witness = None
    third = 0.0
    for _ in range(samples):
        p = space.cone(rng.uniform(0.05, 2.0, size=space.size))
        q = space.cone(rng.uniform(0.05, 2.0, size=space.size))
        defect = abs(divergence(p, q) - divergence(q, p))
        if defect > worst:
            worst = defect
            witness = (p, q)
        d = (q.values - p.values) / 3.0
        inner = [entropy.value(space.cone(p.values + k * d)) for k in (1.0, 2.0)]
        third = max(third, ref_third_difference([entropy.value(p), *inner, entropy.value(q)]))
    if worst > 1e-8:
        label = ASYMMETRIC_WITH_WITNESS
    elif worst <= 1e-10 and third <= 1e-12:
        label = SYMMETRIC_GENERALIZED_QUADRATIC
    else:
        label = INCONCLUSIVE
    return DivergenceReport(entropy.name, samples, worst, witness[0], witness[1], third, label)


def ref_cone_rows(space: MeasureSpace, rng, count: int) -> np.ndarray:
    """``sampling.cone_rows`` before it drew on arrays: per point, one
    ``rng.uniform`` log-mass and one ``rng.dirichlet`` direction."""
    masses, draws = [], []
    for _ in range(count):
        masses.append(float(np.exp(rng.uniform(np.log(0.1), np.log(10.0)))))
        draws.append(rng.dirichlet(np.ones(space.size)))
    return np.reshape(draws, (count, space.size)) / space.weights * np.array(masses)[:, None]


def ref_linearity_check(entropy, seed: int = 0, samples: int = 100) -> bool:
    rng = np.random.default_rng(seed)
    space = entropy.domain.space

    def sample_cone_point():
        return space.cone(ref_cone_rows(space, rng, 1)[0])

    for _ in range(samples):
        q = sample_cone_point()
        score = affine_score_at(entropy, q)
        if abs(score.offset) > 1e-10:
            return False
        p1 = sample_cone_point()
        p2 = sample_cone_point()
        additivity_gap = score(p1 + p2) - score(p1) - score(p2)
        if abs(additivity_gap) > 1e-10 * (1.0 + abs(score(p1)) + abs(score(p2))):
            return False
        value = entropy.value(q)
        for lam in (0.5, 2.0, 10.0):
            if abs(entropy.value(lam * q) - lam * value) > 1e-10 * (1.0 + abs(lam * value)):
                return False
    return True


# -- single-evaluation suite reference -------------------------------------------
#
# ``symmetry_defect`` and ``verify_euler`` before each evaluated its oracles once
# per point: every pair's divergence through ``bregman_divergence_rows`` on the
# swapped rows, third differences that call ``value_rows`` themselves, and Euler's
# extension through ``canonical_extension_rows``, which normalizes the points a
# second time.  Each draws from a fresh generator of its own.

_quiet = np.errstate(over="ignore", invalid="ignore", divide="ignore")


def _ref_counted(exc: FloatRangeError, points: int) -> DomainError:
    """A row check's error on a suite's draw, as the suite reports it: a count of its points."""
    return DomainError(f"{exc.what} leave the float range at {len(set(exc.rows))} of {points} sampled points")


def _ref_finite_values(entropy, rows: np.ndarray) -> np.ndarray:
    values = entropy.value_rows(rows)
    bad = np.count_nonzero(~np.isfinite(values))
    if bad:
        raise DomainError(f"{entropy.name} values leave the float range at {bad} of {len(rows)} sampled points")
    return values


@_quiet
def ref_rows_symmetry_defect(entropy, seed: int = 0, samples: int = 200) -> DivergenceReport:
    space = entropy.domain.space
    points = sampling.box_rows(space, np.random.default_rng(seed), 2 * samples)
    swapped = points.reshape(samples, 2, space.size)[:, ::-1].reshape(points.shape)
    p, q = points[0::2], points[1::2]
    d = (q - p) / 3.0
    try:
        try:
            divergences = bregman_divergence_rows(entropy, points, swapped)
        except FloatRangeError as exc:
            raise _ref_counted(exc, 2 * samples) from None
        ends = _ref_finite_values(entropy, points)
        inner = _ref_finite_values(entropy, np.vstack([p + d, p + 2.0 * d]))  # all p + d, then all p + 2d
        third = max(ref_third_difference(row)
                    for row in zip(ends[0::2], inner[:samples], inner[samples:], ends[1::2]))
    except DomainError as exc:
        raise DomainError(f"{exc}; the sample points lie in the box [0.05, 2)^{space.size}") from None
    defects = np.abs(divergences[0::2] - divergences[1::2])
    if np.isnan(defects).all():
        raise DomainError(f"no sampled symmetry defect of {entropy.name} is a number")
    k = int(np.argmax(np.where(np.isnan(defects), -math.inf, defects)))
    worst = float(defects[k])
    if worst > 1e-8:
        label = ASYMMETRIC_WITH_WITNESS
    elif worst <= 1e-10 and third <= 1e-12:
        label = SYMMETRIC_GENERALIZED_QUADRATIC
    else:
        label = INCONCLUSIVE
    return DivergenceReport(entropy.name, samples, worst, space.cone(points[2 * k]),
                            space.cone(points[2 * k + 1]), third, label)


@_quiet
def ref_rows_verify_euler(rule, entropy, seed: int = 0, samples: int = 1000,
                          tol: float = 1e-10) -> EulerReport:
    weights = rule.space.weights
    points = sampling.cone_rows(rule.space, np.random.default_rng(seed), samples)
    try:
        extended = canonical_extension_rows(entropy, points)
        defects = (np.abs(pair_rows(points, rule.score_rows(normalize_rows(points, weights)[0]), weights)
                          - extended) / (1.0 + np.abs(extended)))
    except FloatRangeError as exc:
        raise _ref_counted(exc, samples) from None
    k = int(np.argmax(np.where(np.isnan(defects), -math.inf, defects)))
    return EulerReport(rule.name, samples, float(defects[k]), rule.space.cone(points[k]), tol,
                       float(defects[k]) <= tol)


# -- subgradient-probe reference ------------------------------------------------
#
# ``subdifferential_probe`` before it ran on rows: points drawn one at a time,
# one ``ConeVector`` per perturbation and direction, one-row ``contains``,
# ``value``, ``pair`` and finite-difference calls, and a lazily filled cache of
# one derivative per direction.

def _ref_structured_points(domain, q):
    space = domain.space
    n = space.size
    dirs = []
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


def _ref_sample(domain, rng, count):
    return [domain.space.cone(domain.draw(rng, 1)[0]) for _ in range(count)]


def _ref_feasible_probe_directions(domain, q, points, rng):
    space = domain.space
    n = space.size
    cands = []
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
    for p in _ref_sample(domain, rng, 32):
        d = p - q
        if float(np.max(np.abs(d.values))) > 1e-12:
            cands.append(d)
    return [d for d in cands if direction_cone_membership(domain, q, d)]


def _ref_violation_witness(entropy, domain, q, candidate, direction):
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


def ref_subdifferential_probe(entropy, domain, q, candidates, *, seed=0) -> SubgradientProbeResult:
    if not domain.contains(q):
        raise DomainError("probe base point is not in the domain")
    rng = np.random.default_rng(seed)
    points = _ref_structured_points(domain, q) + _ref_sample(domain, rng, 200)
    directions = _ref_feasible_probe_directions(domain, q, points, rng)

    base_value = entropy.value(q)
    fd_cache = {}

    def right_derivative(idx):
        if idx not in fd_cache:
            try:
                fd_cache[idx] = directional_derivative_fd(entropy, q, directions[idx])
            except DomainError:
                fd_cache[idx] = np.inf
        return fd_cache[idx]

    verified, rejected = [], []
    for cand in candidates:
        worst_p, worst_gap = None, np.inf
        for p in points:
            try:
                gap = entropy.value(p) - base_value - pair(p - q, cand)
            except DomainError:
                continue
            if gap < worst_gap:
                worst_p, worst_gap = p, gap
        if worst_gap < -1e-9 * (1.0 + abs(base_value)):
            rejected.append(RejectedCandidate(cand, worst_p, float(worst_gap)))
            continue
        breach = None
        for di, d in enumerate(directions):
            if pair(d, cand) > right_derivative(di) + 1e-6:
                breach = d
                break
        if breach is not None:
            witness, gap = _ref_violation_witness(entropy, domain, q, cand, breach)
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
                combo = domain.space.cone(np.sum([c * v.values for c, v in zip(coeff, basis)], axis=0))
                two_sided.extend([combo, -combo])
        unique = True
        for cand in verified:
            for d in two_sided:
                try:
                    fd = directional_derivative_fd(entropy, q, d)
                except DomainError:
                    unique = False
                    break
                if not math.isfinite(fd) or abs(pair(d, cand) - fd) > 1e-6:
                    unique = False
                    break
            if not unique:
                break
    return SubgradientProbeResult(verified, rejected, unique)
