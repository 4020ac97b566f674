"""Affine scores and functional Bregman divergences beyond the simplex.

The divergence of an entropy pair is the vertical gap between the entropy
and its supporting hyperplane at the second argument,

    D(p, q) = value(p) - pair(p - q, grad(q)) - value(q),

which on densities coincides with the score divergence of the associated
proper scoring rule.  This module also carries:

* affine scores (one supporting hyperplane per basepoint, proper as a
  family);
* the rebasing construction ``p -> D(p, a)``, which shifts the entropy by an
  affine functional and therefore regenerates the same divergence;
* a numerical symmetry classifier.  Only generalized quadratic divergences
  are symmetric, so the classifier pairs a sampled symmetry defect with a
  least-squares fit of the entropy against the quadratic-affine basis
  {q_i q_j, q_i, 1}; everything else is reported asymmetric with a witness
  pair.  The verdict is sampled evidence, not a proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EntroscoreError
from .measure import ConeVector, DualVector, pair, pair_rows
from .entropies import Entropy
from .sampling import sample_cone_point, sample_positive_box

__all__ = [
    "AffineScore",
    "DivergenceReport",
    "SYMMETRIC_GENERALIZED_QUADRATIC",
    "ASYMMETRIC_WITH_WITNESS",
    "INCONCLUSIVE",
    "bregman_divergence",
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


def bregman_divergence(entropy: Entropy, p: ConeVector, q: ConeVector) -> float:
    """Divergence of ``entropy`` between two domain points (zero at p = q)."""
    grad = entropy.subgradient(q)
    return entropy.value(p) - pair(p - q, grad) - entropy.value(q)


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


def linearity_check(entropy: Entropy, seed: int = 0, samples: int = 100) -> bool:
    """Whether the affine score family consists of linear functionals.

    Equivalent to 1-homogeneity of the entropy on the cone: all offsets
    vanish, the score functionals are additive in their argument, and
    ``value(lam q) = lam value(q)``.  Checked on seeded positive cone
    points; any failure returns False.
    """
    rng = np.random.default_rng(seed)
    space = entropy.domain.space
    for _ in range(samples):
        q = sample_cone_point(space, rng)
        score = affine_score_at(entropy, q)
        if abs(score.offset) > 1e-10:
            return False
        p1 = sample_cone_point(space, rng)
        p2 = sample_cone_point(space, rng)
        additivity_gap = score(p1 + p2) - score(p1) - score(p2)
        if abs(additivity_gap) > 1e-10 * (1.0 + abs(score(p1)) + abs(score(p2))):
            return False
        value = entropy.value(q)
        for lam in (0.5, 2.0, 10.0):
            if abs(entropy.value(lam * q) - lam * value) > 1e-10 * (1.0 + abs(lam * value)):
                return False
    return True


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

    def as_dict(self) -> dict:
        return {
            "entropy": self.entropy,
            "pair_count": self.pair_count,
            "max_symmetry_defect": self.max_symmetry_defect,
            "witness_p": self.witness_p.values.tolist(),
            "witness_q": self.witness_q.values.tolist(),
            "fit_residual": self.fit_residual,
            "classification": self.classification,
            "pass": self.classification != INCONCLUSIVE,
        }


def _quadratic_affine_fit_residual(entropy: Entropy, points: list[ConeVector]) -> float:
    """Max residual of a least-squares fit of the entropy to {q_i q_j, q_i, 1}."""
    n = points[0].space.size
    rows, targets = [], []
    for point in points:
        v = point.values
        features = [v[i] * v[j] for i in range(n) for j in range(i, n)]
        features.extend(v.tolist())
        features.append(1.0)
        rows.append(features)
        targets.append(entropy.value(point))
    design = np.array(rows)
    target = np.array(targets)
    coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    return float(np.max(np.abs(design @ coef - target)))


def symmetry_defect(entropy: Entropy, seed: int = 0, samples: int = 200) -> DivergenceReport:
    """Sampled symmetry classification of the entropy's divergence.

    Pairs are drawn componentwise Uniform(0.05, 2) - bounded away from the
    boundary so every catalog subgradient exists.  Classified symmetric
    generalized quadratic when the worst defect stays below 1e-10 *and* the
    entropy fits the quadratic-affine basis to 1e-10; asymmetric once any
    pair's defect exceeds 1e-8; inconclusive in between.
    """
    rng = np.random.default_rng(seed)
    space = entropy.domain.space
    worst = -math.inf
    witness = None
    points = []
    for _ in range(samples):
        p = sample_positive_box(space, rng)
        q = sample_positive_box(space, rng)
        points.extend([p, q])
        defect = abs(bregman_divergence(entropy, p, q) - bregman_divergence(entropy, q, p))
        if defect > worst:
            worst = defect
            witness = (p, q)
    fit_residual = _quadratic_affine_fit_residual(entropy, points)
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
        witness_p=witness[0],
        witness_q=witness[1],
        fit_residual=fit_residual,
        classification=label,
    )


def quadratic_discrimination_bound(p: ConeVector, q: ConeVector, nu) -> tuple[float, float]:
    """The two symmetric divergences and their Cauchy-Schwarz ordering.

    Returns ``(D1, (sum nu) * D2)`` where ``D1 = (sum (p-q) nu)^2`` and
    ``D2 = sum (p-q)^2 nu``; the first never exceeds the second, which is
    why the pointwise quadratic divergence discriminates more finely.
    """
    if p.space != q.space:
        raise DomainError("discrimination bound needs points on a shared space")
    weights = np.asarray(nu, dtype=float)
    if weights.shape != (p.space.size,) or np.any(weights <= 0.0):
        raise DomainError("nu must be a positive vector matching the space")
    diff = p.values - q.values
    d1 = math.fsum((diff * weights).tolist()) ** 2
    d2 = math.fsum((diff * diff * weights).tolist())
    bound = math.fsum(weights.tolist()) * d2
    if d1 > bound + 1e-9 * (1.0 + bound):
        raise EntroscoreError("Cauchy-Schwarz ordering violated; inputs are corrupt")
    return d1, bound
