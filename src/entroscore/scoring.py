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
from .measure import (ConeVector, Density, DualVector, MeasureSpace, _first_min, _require_same_space,
                      counted_among, normalize, normalize_rows, pair, pair_rows, quiet_floats, report_dict,
                      require_float_range)
from .sampling import _seeded, cone_rows, density_rows

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
    "score_divergence_rows",
    "verify_propriety",
    "verify_euler",
]

# A pair counts against strictness when the densities are separated by more
# than this but the margin is still below the margin floor.
STRICT_SEPARATION = 1e-6
STRICT_MARGIN = 1e-12


@dataclass(frozen=True)
class ScoringRule:
    """Outcome-indexed score oracle: ``score_rows`` maps (m, n) density rows
    to their score vectors, ``score`` is its one-row call on a :class:`Density`."""

    name: str
    score_rows: Callable[[np.ndarray], np.ndarray]
    space: "MeasureSpace"

    def score(self, q: Density) -> DualVector:
        # score_rows has already rejected every infinite entry its rule does not allow
        return q.space.dual(self.score_rows(q.values[None])[0], allow_infinite=True)

    def __repr__(self) -> str:
        return f"ScoringRule({self.name!r}, n={self.space.size})"


def _in_float_range(name: str, rows: Callable, sentinel: bool = False) -> Callable:
    return lambda q: require_float_range(f"{name} scores", rows(q), sentinel)


def make_psr(entropy: "Entropy") -> ScoringRule:
    """Build the proper scoring rule of an entropy from its subgradient.

    Row by row, ``S(q) = grad(q) + (value(q) - pair(q, grad(q))) * 1``.
    Uses the entropy's closed-form score when one is attached (the
    logarithmic rule, whose subgradient oracle refuses boundary points while
    ``log q`` itself extends there as a -inf sentinel).
    """
    if entropy.closed_form_rows is not None:
        return ScoringRule(entropy.name,
                           _in_float_range(entropy.name, entropy.closed_form_rows, sentinel=True),
                           entropy.domain.space)
    if entropy.grad_rows is None:
        raise DomainError(f"entropy {entropy.name!r} has no subgradient oracle")
    weights = entropy.domain.space.weights

    @quiet_floats
    def score_rows(q: np.ndarray) -> np.ndarray:
        grad = entropy.grad_rows(q)
        return grad + (entropy.value_rows(q) - pair_rows(q, grad, weights))[:, None]

    return ScoringRule(entropy.name, _in_float_range(entropy.name, score_rows), entropy.domain.space)


def linear_score(space: "MeasureSpace") -> ScoringRule:
    """The improper linear rule S(q) = q, a stock counterexample.

    Its self-expected score is the quadratic entropy, but the rule is not a
    subgradient selection, so propriety fails with explicit witnesses.
    """
    return ScoringRule("linear", _in_float_range("linear", np.array), space)


def zero_homog_extend(rule: ScoringRule, q: ConeVector) -> DualVector:
    """Evaluate the 0-homogeneous extension S(q) = S(q / mass(q))."""
    return rule.score(normalize(q))


def expected_score(rule: ScoringRule, p: Density, q: Density) -> float:
    """Expected score pair(p, S(q)); -inf when p charges an infinite penalty."""
    return pair(p, rule.score(q))


@quiet_floats
def score_divergence_rows(p_rows: np.ndarray, p_scores: np.ndarray, q_scores: np.ndarray,
                          weights: np.ndarray) -> np.ndarray:
    """Score divergence ``pair(p, S(p)) - pair(p, S(q))`` by row, from score rows.

    Nonnegative for proper rules; +inf when the reported density earns an
    infinite penalty under p.  The arrays broadcast, so one p row can meet
    many q rows.
    """
    return pair_rows(p_rows, p_scores, weights) - pair_rows(p_rows, q_scores, weights)


def score_divergence(rule: ScoringRule, p: Density, q: Density) -> float:
    """One row of :func:`score_divergence_rows`."""
    p_rows = p.values[None]
    return float(score_divergence_rows(p_rows, rule.score_rows(p_rows), rule.score_rows(q.values[None]),
                                       p.space.weights)[0])


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

    as_dict = report_dict


@quiet_floats
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
    strictness violations.  Scores or pairings past the float range raise
    :class:`DomainError` with the number of sampled pairs they hit.
    """
    if samples < 1:
        raise DomainError("propriety verification needs at least one sample")
    space = rule.space
    draws = _seeded(density_rows, space, seed, 2 * samples)
    p_rows, q_rows = draws[0::2], draws[1::2]
    with counted_among(samples, "pairs", per=2):
        scores = rule.score_rows(draws)  # rows p, q, p, q, ...
    with counted_among(samples, "pairs"):
        margins = score_divergence_rows(p_rows, scores[0::2], scores[1::2], space.weights)
    unfavorable = np.isnan(margins) | (margins == -math.inf)
    favorable = margins == math.inf
    finite = ~unfavorable & ~favorable
    separation = np.max(np.abs(p_rows - q_rows), axis=1)
    strict_violations = int(np.count_nonzero(
        finite & (separation > STRICT_SEPARATION) & (margins < STRICT_MARGIN)))
    inf_unfavorable = int(np.count_nonzero(unfavorable))
    inf_favorable = int(np.count_nonzero(favorable))
    if inf_unfavorable:  # the last unfavorable pair
        i, min_margin = int(np.flatnonzero(unfavorable)[-1]), -math.inf
    else:  # the first smallest margin; if every margin is +inf, the first density drawn, twice
        i, min_margin = _first_min(margins)
        q_rows = p_rows if min_margin == math.inf else q_rows
    passed = inf_unfavorable == 0 and min_margin >= -tol
    return ProprietyReport(
        rule=rule.name,
        samples=samples,
        min_margin=min_margin,
        witness_p=space.density(p_rows[i]),
        witness_q=space.density(q_rows[i]),
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

    as_dict = report_dict


def _unit_cone_rows(space: MeasureSpace, rng: np.random.Generator, count: int) -> tuple:
    """Euler's draw: ``count`` cone points, their unit-mass rows and their masses."""
    points = cone_rows(space, rng, count)
    return (points, *normalize_rows(points, space.weights))


@quiet_floats
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
    [0.1, 10] to exercise the extension away from the simplex.  A rule and
    an entropy on different spaces raise :class:`StructureError`.  Values,
    scores or pairings past the float range raise :class:`DomainError` with the
    number of sampled points they hit.
    """
    if samples < 1:
        raise DomainError("Euler verification needs at least one sample")
    _require_same_space(rule, entropy.domain)
    points, unit_rows, mass = _seeded(_unit_cone_rows, rule.space, seed, samples)
    with counted_among(samples, "points"):
        extended = mass * entropy.value_rows(unit_rows)  # canonical_extension_rows on the drawn points
        scores = rule.score_rows(unit_rows)
        defects = (np.abs(pair_rows(points, scores, rule.space.weights) - extended)
                   / (1.0 + np.abs(extended)))
    i, _ = _first_min(-defects)  # the first strict maximum; NaN only when every defect is NaN
    max_defect = float(defects[i])
    return EulerReport(
        rule=rule.name,
        samples=samples,
        max_defect=max_defect,
        witness=rule.space.cone(points[i]),
        tol=tol,
        passed=max_defect <= tol,
    )
