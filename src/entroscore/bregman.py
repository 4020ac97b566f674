"""Affine scores and functional Bregman divergences beyond the simplex.

The divergence of an entropy pair is the vertical gap between the entropy
and its supporting hyperplane at the second argument,

    D(p, q) = value(p) - pair(p - q, grad(q)) - value(q),

which on densities coincides with the score divergence of the associated
proper scoring rule.  :func:`bregman_divergence_rows` computes it for (m, n)
arrays of point rows, and :func:`bregman_divergence` is its one-row call.
This module also carries:

* affine scores (one supporting hyperplane per basepoint, proper as a
  family) and a sampled check, on rows, that they are linear functionals;
* the rebasing construction ``p -> D(p, a)``, which shifts the entropy by an
  affine functional and therefore regenerates the same divergence;
* a numerical symmetry classifier.  Only generalized quadratic divergences
  are symmetric, so the classifier pairs a sampled symmetry defect with a
  least-squares fit of the entropy against the quadratic-affine basis
  {q_i q_j, q_i, 1}; everything else is reported asymmetric with a witness
  pair.  The verdict is sampled evidence, not a proof.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EntroscoreError
from .measure import (ConeVector, DualVector, _first_min, _require_same_space, counted_among, exact_row_sums,
                      pair, pair_rows, quiet_floats, report_dict)
from .entropies import Entropy
from .sampling import _BOX_HIGH, _BOX_LOW, _seeded, box_rows, cone_rows

__all__ = [
    "AffineScore",
    "DivergenceReport",
    "SYMMETRIC_GENERALIZED_QUADRATIC",
    "ASYMMETRIC_WITH_WITNESS",
    "INCONCLUSIVE",
    "bregman_divergence",
    "bregman_divergence_rows",
    "affine_score_at",
    "linearity_check",
    "rebase_entropy",
    "symmetry_defect",
    "quadratic_discrimination_bound",
]

SYMMETRIC_GENERALIZED_QUADRATIC = "symmetric_generalized_quadratic"
ASYMMETRIC_WITH_WITNESS = "asymmetric_with_witness"
INCONCLUSIVE = "inconclusive"

_SYMMETRIC_DEFECT_TOL = 1e-10
_ASYMMETRIC_DEFECT_TOL = 1e-8
_FIT_RESIDUAL_TOL = 1e-10


def _finite_subgradients(entropy: Entropy, grad: np.ndarray) -> np.ndarray:
    """``grad`` itself, once every row is finite; :class:`DomainError` counts the rows that are not."""
    bad = np.count_nonzero(~np.isfinite(grad).all(axis=1))
    if bad:
        raise DomainError(f"the subgradient of {entropy.name} leaves the float range "
                          f"at {bad} of {len(grad)} points")
    return grad


@quiet_floats
def bregman_divergence_rows(entropy: Entropy, p_rows: np.ndarray, q_rows: np.ndarray) -> np.ndarray:
    """``D(p, q)`` for each pair of rows; :class:`DomainError` where a subgradient is not finite."""
    grad = _finite_subgradients(entropy, entropy.grad_rows(q_rows))
    return (entropy.value_rows(p_rows) - pair_rows(p_rows - q_rows, grad, entropy.domain.space.weights)
            - entropy.value_rows(q_rows))


def bregman_divergence(entropy: Entropy, p: ConeVector, q: ConeVector) -> float:
    """One row of :func:`bregman_divergence_rows`."""
    return float(bregman_divergence_rows(entropy, p.values[None], q.values[None])[0])


@dataclass(frozen=True)
class AffineScore:
    """Supporting hyperplane of an entropy at one basepoint.

    Evaluates as ``pair(p, gradient_part) + offset``; at the basepoint this
    touches the entropy value, elsewhere it stays below (propriety of the
    affine family).
    """

    gradient_part: DualVector
    offset: float
    basepoint: ConeVector

    def __call__(self, p: ConeVector) -> float:
        return pair(p, self.gradient_part) + self.offset


def affine_score_at(entropy: Entropy, q: ConeVector) -> AffineScore:
    """The affine score ``s(., q)``: gradient part grad(q), offset value(q) - pair(q, grad(q))."""
    grad = entropy.subgradient(q)
    return AffineScore(grad, entropy.value(q) - pair(q, grad), q)


@quiet_floats
def linearity_check(entropy: Entropy, seed: int = 0, samples: int = 100) -> bool:
    """Whether the affine score family consists of linear functionals.

    Equivalent to 1-homogeneity of the entropy on the cone: all offsets
    vanish, the score functionals are additive in their argument, and
    ``value(lam q) = lam value(q)``.  Checked on seeded positive cone
    points ``q, p1, p2``; any failure returns False.  A non-finite
    subgradient at ``q`` before the first failure raises :class:`DomainError`.
    """
    if samples < 1:
        raise DomainError("linearity check needs at least one sample")
    weights = entropy.domain.space.weights
    points = cone_rows(entropy.domain.space, np.random.default_rng(seed), 3 * samples)
    q, p1, p2 = points[0::3], points[1::3], points[2::3]
    grad = entropy.grad_rows(q)
    value = entropy.value_rows(q)
    offset = value - pair_rows(q, grad, weights)
    s12, s1, s2 = (pair_rows(p, grad, weights) + offset for p in (p1 + p2, p1, p2))
    failed = (np.abs(offset) > 1e-10) | (np.abs(s12 - s1 - s2) > 1e-10 * (1.0 + np.abs(s1) + np.abs(s2)))
    for lam in (0.5, 2.0, 10.0):
        failed |= np.abs(entropy.value_rows(lam * q) - lam * value) > 1e-10 * (1.0 + np.abs(lam * value))
    if not failed[:np.argmax(~np.isfinite(grad).all(axis=1))].any():
        _finite_subgradients(entropy, grad)
    return not failed.any()


def rebase_entropy(entropy: Entropy, a: ConeVector) -> Entropy:
    """The entropy ``p -> D(p, a)``, which generates the same divergence.

    Rebasing subtracts the supporting hyperplane at ``a``, an affine change
    that cancels out of the divergence; the new subgradient is
    ``grad(p) - grad(a)`` and the new entropy vanishes at ``a``.
    """
    grad_a = entropy.subgradient(a).values
    value_a = entropy.value(a)
    weights = entropy.domain.space.weights

    def value_rows(p: np.ndarray) -> np.ndarray:
        return entropy.value_rows(p) - pair_rows(p - a.values, grad_a, weights) - value_a

    def grad_rows(p: np.ndarray) -> np.ndarray:
        return entropy.grad_rows(p) - grad_a

    return Entropy(f"{entropy.name}@rebased", entropy.domain, value_rows, grad_rows)


@dataclass(frozen=True)
class DivergenceReport:
    """Evidence from the sampled symmetry classification of a divergence."""

    entropy: str
    pair_count: int
    max_symmetry_defect: float
    witness_p: ConeVector
    witness_q: ConeVector
    fit_residual: float
    classification: str

    @property
    def passed(self) -> bool:
        return self.classification != INCONCLUSIVE

    as_dict = report_dict


@quiet_floats
def symmetry_defect(entropy: Entropy, seed: int = 0, samples: int = 200) -> DivergenceReport:
    """Sampled symmetry classification of the entropy's divergence.

    Pairs are drawn componentwise Uniform(0.05, 2) - bounded away from the
    boundary so every catalog subgradient exists.  Classified symmetric
    generalized quadratic when the worst defect stays below 1e-10 *and* the
    entropy fits the quadratic-affine basis to 1e-10; asymmetric once any
    pair's defect exceeds 1e-8; inconclusive in between.
    """
    if samples < 1:
        raise DomainError("symmetry classification needs at least one sample")
    space = entropy.domain.space
    points = _seeded(box_rows, space, seed, 2 * samples)  # rows p, q, p, q, ...
    swap = np.arange(2 * samples) ^ 1  # each row's partner
    try:  # the oracles are row-wise: one call per point serves D(p, q) and D(q, p)
        with counted_among(2 * samples, "points"):
            grad = _finite_subgradients(entropy, entropy.grad_rows(points))[swap]
            values = entropy.value_rows(points)
            divergences = values - pair_rows(points - points[swap], grad, space.weights) - values[swap]
    except DomainError as exc:
        box = f"[{_BOX_LOW:g}, {_BOX_HIGH:g})^{space.size}"
        raise DomainError(f"{exc}; the sample points lie in the box {box}") from None
    # max residual of a least-squares fit of the entropy to {q_i q_j, q_i, 1} at the points
    a, b = np.triu_indices(space.size)
    design = np.hstack([points[:, a] * points[:, b], points, np.ones((len(points), 1))])
    coef, *_ = np.linalg.lstsq(design, values, rcond=None)
    fit_residual = float(np.max(np.abs(design @ coef - values)))
    defects = np.abs(divergences[0::2] - divergences[1::2])
    if np.isnan(defects).all():
        raise DomainError(f"no sampled symmetry defect of {entropy.name} is a number")
    i, _ = _first_min(-defects)  # the first strict maximum
    worst = float(defects[i])
    if worst > _ASYMMETRIC_DEFECT_TOL:
        label = ASYMMETRIC_WITH_WITNESS
    elif worst <= _SYMMETRIC_DEFECT_TOL and fit_residual <= _FIT_RESIDUAL_TOL:
        label = SYMMETRIC_GENERALIZED_QUADRATIC
    else:
        label = INCONCLUSIVE
    return DivergenceReport(
        entropy=entropy.name,
        pair_count=samples,
        max_symmetry_defect=worst,
        witness_p=space.cone(points[2 * i]),
        witness_q=space.cone(points[2 * i + 1]),
        fit_residual=fit_residual,
        classification=label,
    )


@quiet_floats
def quadratic_discrimination_bound(p: ConeVector, q: ConeVector, nu) -> tuple[float, float]:
    """The two symmetric divergences and their Cauchy-Schwarz ordering.

    Returns ``(D1, (sum nu) * D2)`` where ``D1 = (sum (p-q) nu)^2`` and
    ``D2 = sum (p-q)^2 nu``; the first never exceeds the second, which is
    why the pointwise quadratic divergence discriminates more finely.
    :class:`StructureError` for points on different spaces,
    :class:`DomainError` when either divergence leaves the float range.
    """
    _require_same_space(p, q)
    weights = np.asarray(nu, dtype=float)
    if weights.shape != (p.space.size,) or not np.isfinite(weights).all() or np.any(weights <= 0.0):
        raise DomainError("nu must be a finite positive vector matching the space")
    diff = p.values - q.values
    # a sum past the float range is NaN, and so is d1 or the bound
    (mean_term, d2, mass), _ = exact_row_sums(np.stack([diff * weights, diff * diff * weights, weights]))
    d1, bound = mean_term ** 2, mass * d2
    if not (np.isfinite(d1) and np.isfinite(bound)):
        raise DomainError("the discrimination bound leaves the float range")
    if d1 > bound + 1e-9 * (1.0 + bound):
        raise EntroscoreError("Cauchy-Schwarz ordering violated; inputs are corrupt")
    return float(d1), float(bound)
