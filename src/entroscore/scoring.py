"""Proper scoring rules built from convex entropies, and their verification.

A scoring rule maps a predictive density q to the outcome-indexed score
vector S(q).  The rule of an entropy H is the gradient of its sublinear
(1-homogeneous) extension H~(x) = |x| H(x / |x|) to the positive cone:

    S(q) = grad H~(q) = grad(q) + (value(q) - pair(q, grad(q))) * 1

It is proper by construction: its expected self-score reproduces the
entropy, and reporting the true density maximises the expected score.  Being
0-homogeneous, the rule extends to the cone by normalising its argument, and
it pairs with every cone point to the extended entropy (the Euler identity
``pair(q, S(q)) = extended value(q)`` checked by :func:`verify_euler`).

Each catalog entropy gives S in closed form, from the pass that gives its
value and subgradient, with no pairing (``Entropy.closed_form_rows``; the
``entropies`` docstring tables them).  Other entropies (composite, rebased,
user-built) take the generic formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .entropies import Entropy
from .errors import DomainError
from .measure import (ConeVector, Density, DualVector, MeasureSpace, _first_min, _require_same_space,
                      counted_among, normalize_rows, pair_rows, quiet_floats, report_dict,
                      require_float_range)
from .sampling import _seeded, cone_rows, density_rows

__all__ = [
    "ScoringRule",
    "ProprietyReport",
    "EulerReport",
    "make_psr",
    "linear_score",
    "zero_homog_extend",
    "extended_subgradient",
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
    to their score vectors, ``score`` is its one-row call on a :class:`Density`.
    A rule from :func:`make_psr` takes other rows of its entropy's domain too:
    :func:`make_psr` says what it gives there."""

    name: str
    score_rows: Callable[[np.ndarray], np.ndarray]
    space: MeasureSpace

    def score(self, q: Density) -> DualVector:
        _require_same_space(self.space, q)
        # score_rows has already rejected every infinite entry its rule does not allow
        return q.space.dual(self.score_rows(q.values[None])[0], allow_infinite=True)

    def __repr__(self) -> str:
        return f"ScoringRule({self.name!r}, n={self.space.size})"


def _in_float_range(name: str, rows: Callable, sentinel: bool = False) -> Callable:
    # a sentinel -inf (the log score's) is allowed only on the atoms a row does not charge
    return lambda q: require_float_range(f"{name} scores", rows(q), sentinel and q == 0.0)


def make_psr(entropy: Entropy) -> ScoringRule:
    """Build the proper scoring rule of an entropy: the gradient of its sublinear extension.

    ``score_rows`` maps each density row q to ``grad(q) + (value(q) - pair(q, grad(q))) * 1``.
    A catalog entropy computes it in closed form (``closed_form_rows``), with no pairing.  For
    the homogeneous ones, every catalog entropy but shannon, the closed form equals that
    expression in exact arithmetic on every row of the domain, densities or not.  Shannon's
    ``log q`` equals it on densities only, and elsewhere is the expression less ``1 - mass(q)``;
    it extends to zero atoms as a -inf sentinel, where shannon's subgradient oracle refuses
    them.  Other entropies take the expression itself, on every row of their domain.
    """
    if entropy.closed_form_rows is not None:
        return ScoringRule(entropy.name,
                           _in_float_range(entropy.name, entropy.closed_form_rows, entropy.sentinel_scores),
                           entropy.domain.space)
    if entropy.value_grad_rows is None:
        raise DomainError(f"entropy {entropy.name!r} has no subgradient oracle")
    weights = entropy.domain.space.weights

    @quiet_floats
    def score_rows(q: np.ndarray) -> np.ndarray:
        value, grad = entropy.value_grad_rows(q)
        return grad + (value - pair_rows(q, grad, weights))[:, None]

    return ScoringRule(entropy.name, _in_float_range(entropy.name, score_rows), entropy.domain.space)


def linear_score(space: MeasureSpace) -> ScoringRule:
    """The improper linear rule S(q) = q, a stock counterexample.

    Its self-expected score is the quadratic entropy, but the rule is not a
    subgradient selection, so propriety fails with explicit witnesses.
    """
    return ScoringRule("linear", _in_float_range("linear", np.array), space)


def zero_homog_extend(rule: ScoringRule, q: ConeVector) -> DualVector:
    """Evaluate the 0-homogeneous extension S(q) = S(q / mass(q))."""
    _require_same_space(rule.space, q)
    unit_rows, _ = normalize_rows(q.values[None], q.space.weights)
    return q.space.dual(rule.score_rows(unit_rows)[0], allow_infinite=True)  # infinities its rule allows


def extended_subgradient(entropy: Entropy, q: ConeVector) -> DualVector:
    """0-homogeneous subgradient of the canonical extension at ``q``.

    This is the associated proper scoring rule evaluated at the normalised
    argument; it pairs with ``q`` to the extended entropy value (Euler).
    """
    return zero_homog_extend(make_psr(entropy), q)


def expected_score(rule: ScoringRule, p: Density, q: Density) -> float:
    """Expected score pair(p, S(q)); -inf when p charges an infinite penalty."""
    _require_same_space(rule.space, p, q)
    return float(pair_rows(p.values[None], rule.score_rows(q.values[None]), p.space.weights)[0])


@quiet_floats
def score_divergence_rows(p_rows: np.ndarray, p_scores: np.ndarray, q_scores: np.ndarray,
                          weights: np.ndarray) -> np.ndarray:
    """Score divergence ``pair(p, S(p)) - pair(p, S(q))`` by row, from score rows.

    Nonnegative for proper rules; +inf when the reported density earns an
    infinite penalty under p.  The arrays broadcast over any leading shape:
    ``(b, 1, n)`` p rows and scores against ``(m, n)`` q scores give the
    ``(b, m)`` table of every pair.
    """
    return pair_rows(p_rows, p_scores, weights) - pair_rows(p_rows, q_scores, weights)


def score_divergence(rule: ScoringRule, p: Density, q: Density) -> float:
    """One row of :func:`score_divergence_rows`."""
    _require_same_space(rule.space, p, q)
    p_rows = p.values[None]
    return float(score_divergence_rows(p_rows, rule.score_rows(p_rows), rule.score_rows(q.values[None]),
                                       p.space.weights)[0])


@dataclass(frozen=True)
class ProprietyReport:
    """Evidence from a sampled propriety check."""

    rule: str
    samples: int
    min_margin: float
    margin_scale: float
    witness_p: Density
    witness_q: Density
    strict_violations: int
    infinite_favorable: int
    infinite_unfavorable: int
    tol: float
    passed: bool

    as_dict = report_dict


def _density_pairs(space: MeasureSpace, rng: np.random.Generator, count: int) -> tuple:
    """Propriety's draw: density rows p, q, p, q, ... and, per pair, ``max |p - q|``."""
    draws = density_rows(space, rng, count)
    return draws, np.abs(draws[0::2] - draws[1::2]).max(axis=1)


@quiet_floats
def verify_propriety(
    rule: ScoringRule,
    seed: int = 0,
    samples: int = 1000,
    tol: float = 1e-10,
) -> ProprietyReport:
    """Check ``pair(p, S(p)) >= pair(p, S(q))`` on seeded Dirichlet pairs.

    Each margin must reach ``-tol * scale``, relative to the magnitudes its
    rounding grows with: ``scale = 1 + |pair(p, S(p))| + |pair(p, S(q))| +
    |pair(q, S(q))|``.  Records the pair whose margin is smallest relative to
    its scale, its margin and its scale (``margin_scale``).  +inf margins (q
    earns an infinite penalty) count as favorable and are tallied separately;
    -inf or undefined margins fail the check outright.  Distinct pairs whose
    margin collapses below the strictness floor are counted as strictness
    violations.  Scores or pairings past the float range raise
    :class:`DomainError` with the number of sampled pairs they hit.
    """
    if samples < 1:
        raise DomainError("propriety verification needs at least one sample")
    space = rule.space
    draws, separation = _seeded(_density_pairs, space, seed, 2 * samples)
    p_rows, q_rows = draws[0::2], draws[1::2]
    with counted_among(samples, "pairs", per=2):
        scores = rule.score_rows(draws)  # rows p, q, p, q, ...
    with counted_among(samples, "pairs"):
        own = pair_rows(p_rows, scores[0::2], space.weights)
        cross = pair_rows(p_rows, scores[1::2], space.weights)
        entropy_q = pair_rows(q_rows, scores[1::2], space.weights)
    margins = own - cross  # score_divergence_rows, from the pairings the scale reuses
    scales = 1.0 + np.abs(own) + np.abs(cross) + np.abs(entropy_q)
    unfavorable = np.isnan(margins) | (margins == -math.inf)
    favorable = margins == math.inf
    finite = ~unfavorable & ~favorable
    strict_violations = int(np.count_nonzero(
        finite & (separation > STRICT_SEPARATION) & (margins < STRICT_MARGIN)))
    inf_unfavorable = int(np.count_nonzero(unfavorable))
    inf_favorable = int(np.count_nonzero(favorable))
    if inf_unfavorable:  # the last unfavorable pair
        i, min_margin = int(np.flatnonzero(unfavorable)[-1]), -math.inf
    else:  # the first smallest relative margin; if every margin is +inf, the first density drawn, twice
        i, _ = _first_min(np.where(finite, margins / scales, margins))
        min_margin = float(margins[i])
        q_rows = p_rows if min_margin == math.inf else q_rows
    margin_scale = float(scales[i])
    passed = inf_unfavorable == 0 and min_margin >= -tol * margin_scale
    return ProprietyReport(
        rule=rule.name,
        samples=samples,
        min_margin=min_margin,
        margin_scale=margin_scale,
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
    entropy: Entropy,
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
    _require_same_space(rule.space, entropy.domain)
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
