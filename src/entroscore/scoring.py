"""Proper scoring rules built from convex entropies, and their verification.

A scoring rule maps a predictive density q to the outcome-indexed score
vector S(q).  Given an entropy with a subgradient oracle, the rule

    S(q) = grad(q) + (value(q) - pair(q, grad(q))) * 1

is proper by construction: its expected self-score reproduces the entropy,
and reporting the true density maximises the expected score.  The rule
extends 0-homogeneously to the positive cone by normalising its argument,
which makes it a subgradient of the 1-homogeneous extension of the entropy
(the Euler identity ``pair(q, S(q)) = extended value(q)`` checked by
:func:`verify_euler`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .errors import DomainError
from .measure import ConeVector, Density, DualVector, MeasureSpace, normalize, pair
from .sampling import sample_cone_point, sample_density

if TYPE_CHECKING:  # pragma: no cover
    from .entropies import Entropy

__all__ = [
    "ScoringRule",
    "ProprietyReport",
    "EulerReport",
    "make_psr",
    "linear_score",
    "zero_homog_extend",
    "expected_score",
    "score_divergence",
    "verify_propriety",
    "verify_euler",
]

# A pair counts against strictness when the densities are separated by more
# than this but the margin is still below the margin floor.
STRICT_SEPARATION = 1e-6
STRICT_MARGIN = 1e-12


@dataclass(frozen=True)
class ScoringRule:
    """Outcome-indexed score oracle on a measure space."""

    name: str
    score: Callable[[Density], DualVector]
    space: "MeasureSpace"

    def __repr__(self) -> str:
        return f"ScoringRule({self.name!r}, n={self.space.size})"


def make_psr(entropy: "Entropy") -> ScoringRule:
    """Build the proper scoring rule of an entropy from its subgradient.

    Uses the entropy's closed-form score when one is attached (the
    logarithmic rule, whose subgradient oracle refuses boundary points while
    ``log q`` itself extends there as a -inf sentinel).
    """
    if entropy.subgradient is None and entropy.closed_form_score is None:
        raise DomainError(f"entropy {entropy.name!r} has no subgradient oracle")

    if entropy.closed_form_score is not None:
        score = entropy.closed_form_score
    else:
        def score(q: Density) -> DualVector:
            grad = entropy.subgradient(q)
            offset = entropy.value(q) - pair(q, grad)
            return q.space.dual(grad.values + offset)

    return ScoringRule(entropy.name, score, entropy.domain.space)


def linear_score(space: "MeasureSpace") -> ScoringRule:
    """The improper linear rule S(q) = q, a stock counterexample.

    Its self-expected score is the quadratic entropy, but the rule is not a
    subgradient selection, so propriety fails with explicit witnesses.
    """
    return ScoringRule("linear", lambda q: q.space.dual(q.values), space)


def zero_homog_extend(rule: ScoringRule, q: ConeVector) -> DualVector:
    """Evaluate the 0-homogeneous extension S(q) = S(q / mass(q))."""
    return rule.score(normalize(q))


def expected_score(rule: ScoringRule, p: Density, q: Density) -> float:
    """Expected score pair(p, S(q)); -inf when p charges an infinite penalty."""
    return pair(p, rule.score(q))


def score_divergence(rule: ScoringRule, p: Density, q: Density) -> float:
    """Score divergence pair(p, S(p)) - pair(p, S(q)).

    Nonnegative for proper rules; +inf when the reported density earns an
    infinite penalty under p.
    """
    return expected_score(rule, p, p) - expected_score(rule, p, q)


@dataclass(frozen=True)
class ProprietyReport:
    """Evidence from a sampled propriety check."""

    rule: str
    samples: int
    min_margin: float
    witness_p: Density
    witness_q: Density
    strict_violations: int
    infinite_favorable: int
    infinite_unfavorable: int
    tol: float
    passed: bool

    def as_dict(self) -> dict:
        return {
            "rule": self.rule,
            "samples": self.samples,
            "min_margin": self.min_margin,
            "witness_p": self.witness_p.values.tolist(),
            "witness_q": self.witness_q.values.tolist(),
            "strict_violations": self.strict_violations,
            "infinite_favorable": self.infinite_favorable,
            "infinite_unfavorable": self.infinite_unfavorable,
            "tol": self.tol,
            "pass": self.passed,
        }


def verify_propriety(
    rule: ScoringRule,
    seed: int = 0,
    samples: int = 1000,
    tol: float = 1e-10,
) -> ProprietyReport:
    """Check ``pair(p, S(p)) >= pair(p, S(q))`` on seeded Dirichlet pairs.

    Records the smallest observed margin and the pair realising it.  +inf
    margins (q earns an infinite penalty) count as favorable and are tallied
    separately; -inf or undefined margins fail the check outright.  Distinct
    pairs whose margin collapses below the strictness floor are counted as
    strictness violations.
    """
    if samples < 1:
        raise DomainError("propriety verification needs at least one sample")
    space = rule.space
    rng = np.random.default_rng(seed)
    min_margin = math.inf
    witness_p = witness_q = None
    strict_violations = 0
    inf_favorable = inf_unfavorable = 0
    for _ in range(samples):
        p = sample_density(space, rng)
        q = sample_density(space, rng)
        margin = score_divergence(rule, p, q)
        if math.isnan(margin) or margin == -math.inf:
            inf_unfavorable += 1
            min_margin = -math.inf
            witness_p, witness_q = p, q
            continue
        if margin == math.inf:
            inf_favorable += 1
            continue
        separation = float(np.max(np.abs(p.values - q.values)))
        if separation > STRICT_SEPARATION and margin < STRICT_MARGIN:
            strict_violations += 1
        if margin < min_margin:
            min_margin = margin
            witness_p, witness_q = p, q
    if witness_p is None:  # every margin was +inf
        witness_p = witness_q = sample_density(space, np.random.default_rng(seed))
        min_margin = math.inf
    passed = inf_unfavorable == 0 and min_margin >= -tol
    return ProprietyReport(
        rule=rule.name,
        samples=samples,
        min_margin=min_margin,
        witness_p=witness_p,
        witness_q=witness_q,
        strict_violations=strict_violations,
        infinite_favorable=inf_favorable,
        infinite_unfavorable=inf_unfavorable,
        tol=tol,
        passed=passed,
    )


@dataclass(frozen=True)
class EulerReport:
    """Evidence from a sampled Euler-identity check on the positive cone."""

    rule: str
    samples: int
    max_defect: float
    witness: ConeVector
    tol: float
    passed: bool

    def as_dict(self) -> dict:
        return {
            "rule": self.rule,
            "samples": self.samples,
            "max_defect": self.max_defect,
            "witness": self.witness.values.tolist(),
            "tol": self.tol,
            "pass": self.passed,
        }


def verify_euler(
    rule: ScoringRule,
    entropy: "Entropy",
    seed: int = 0,
    samples: int = 1000,
    tol: float = 1e-10,
) -> EulerReport:
    """Check ``pair(q, S(q)) = extended value(q)`` over random cone points.

    Defects are measured relative to ``1 + |extended value|`` so near-zero
    entropies do not inflate the report.  Cone points carry masses in
    [0.1, 10] to exercise the extension away from the simplex.
    """
    from .entropies import canonical_extension_value

    if samples < 1:
        raise DomainError("Euler verification needs at least one sample")
    rng = np.random.default_rng(seed)
    max_defect = -math.inf
    witness = None
    for _ in range(samples):
        q = sample_cone_point(rule.space, rng)
        extended = canonical_extension_value(entropy, q)
        defect = abs(pair(q, zero_homog_extend(rule, q)) - extended) / (1.0 + abs(extended))
        if defect > max_defect:
            max_defect = defect
            witness = q
    return EulerReport(
        rule=rule.name,
        samples=samples,
        max_defect=max_defect,
        witness=witness,
        tol=tol,
        passed=max_defect <= tol,
    )
