"""Catalog scores, and the grid's Fisher divergence, against an exact reference: 60-digit
``decimal`` arithmetic, at fixed cases.

Each float result must lie within ``k * u * scale`` of the exact value, with
``u = 2^-53``, ``scale`` the sum of the magnitudes of the terms that make up
the value (the numerator of its condition number) and ``k`` stated per
quantity, a little above what the closed forms reach on these cases.  Where an
exact score may lie below the smallest subnormal, the bound adds half of it.
"""

import math
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest

from entroscore import (GridDensity, MeasureSpace, PeriodicGrid, catalog_entropy, hyvarinen_divergence, make_psr,
                        score_divergence_rows)
from entroscore.measure import FloatRangeError

U = 2.0 ** -53
PRECISION = 60

# (name, gamma) of each catalog rule the cases cover; weighted_quadratic takes MATRIX, and fisher,
# which needs equal weights, has cases of its own
RULES = (("quadratic", None), ("spherical", None), ("shannon", None), ("power", 1.5), ("power", 3.0),
         ("pseudospherical", 3.0), ("pseudospherical", 11.0), ("weighted_quadratic", None))
MATRIX = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, -0.25], [0.0, -0.25, 3.0]])

# k for every catalog score: the cases below reach 1.55 (weighted_quadratic), 1.35 (power), 1.25
# (quadratic) and at most 1.07 for the others; the generic offset reached 6.3 for power(3) and
# left nonzero scores where spherical and pseudospherical's are exactly 0
SCORE_K = 2
# k for the score divergence of the 1-homogeneous case: it reaches 6.6, the offset 7.8e8
DIVERGENCE_K = 8


def _exact(x: float) -> Decimal:
    return Decimal(float(x))  # a float converts exactly


def exact_scores(name: str, gamma, weights, q) -> tuple[list, list]:
    """The exact score of each atom (None for -inf) and the scale of its terms, as Decimals."""
    w, q = [_exact(x) for x in weights], [_exact(x) for x in q]
    with localcontext() as ctx:
        ctx.prec = PRECISION
        if name == "shannon":
            scores = [x.ln() if x else None for x in q]
            return scores, [abs(s) if s is not None else None for s in scores]
        if name in ("spherical", "pseudospherical"):
            g = Decimal(2) if name == "spherical" else _exact(gamma)
            total = sum(x ** g * u for x, u in zip(q, w))
            scores = [x ** (g - 1) / total ** ((g - 1) / g) for x in q]  # 1-homogeneous: the gradient
            # the float exponent (g - 1) / g is rounded, which moves total ** ((g - 1) / g) by up
            # to |ln total| (g - 1) / g units of roundoff; sqrt, spherical's power, is exact
            condition = 1 + (abs(total.ln()) * (g - 1) / g if name == "pseudospherical" else 0)
            return scores, [abs(s) * condition for s in scores]
        if name == "weighted_quadratic":
            m = [[_exact(x) for x in row] for row in MATRIX]
            form = [sum(a * x for a, x in zip(row, q)) for row in m]
            form_scale = [sum(abs(a * x) for a, x in zip(row, q)) for row in m]
            value = sum(x * f for x, f in zip(q, form))
            value_scale = sum(abs(x) * f for x, f in zip(q, form_scale))
            return ([2 * f / u - value for f, u in zip(form, w)],
                    [2 * f / u + value_scale for f, u in zip(form_scale, w)])
        g = Decimal(2) if name == "quadratic" else _exact(gamma)
        value = sum(x ** g * u for x, u in zip(q, w))  # nonnegative terms: its own scale
        grads = [g * x ** (g - 1) for x in q]
        return [d - (g - 1) * value for d in grads], [d + (g - 1) * value for d in grads]


def exact_pair(p, scores, weights) -> tuple[Decimal, Decimal]:
    """``pair(p, scores)`` and the sum of its terms' magnitudes; atoms p does not charge add 0."""
    with localcontext() as ctx:
        ctx.prec = PRECISION
        terms = [_exact(x) * s * _exact(u) for x, s, u in zip(p, scores, weights) if x]
        return sum(terms, Decimal(0)), sum((abs(t) for t in terms), Decimal(0))


def build(name: str, gamma, space: MeasureSpace):
    matrix = MATRIX if name == "weighted_quadratic" else None
    return make_psr(catalog_entropy(name, space, gamma=gamma, matrix=matrix))


def test_the_one_homogeneous_offset_cancellation_is_gone():
    # pseudospherical(11) at q = (1e7, 0, 0, 0), the point mass on the light atom: G(q) = 2.3e6,
    # and D(p, q) for p = (0, 0, 0, 0.1) is 0.1 * 10^(1/11) = 0.12328467394...  The offset
    # H - pair(q, grad), 0 in exact arithmetic, cancelled two numbers of size G(q) and left
    # -1.07e-8 on the atoms q does not charge: a relative error of 8.7e-8 in D(p, q)
    weights = [1e-7, 1.0, 1.0, 10.0]
    p, q = np.array([[0.0, 0.0, 0.0, 0.1]]), np.array([[1e7, 0.0, 0.0, 0.0]])
    rule = build("pseudospherical", 11.0, MeasureSpace(weights))
    p_scores, q_scores = rule.score_rows(p), rule.score_rows(q)
    assert (q_scores[0, 1:] == 0.0).all()
    divergence = float(score_divergence_rows(p, p_scores, q_scores, np.array(weights))[0])
    own, own_scale = exact_pair(p[0], exact_scores("pseudospherical", 11.0, weights, p[0])[0], weights)
    cross, cross_scale = exact_pair(p[0], exact_scores("pseudospherical", 11.0, weights, q[0])[0], weights)
    exact = own - cross
    assert str(exact).startswith("0.12328467394")
    assert abs(_exact(divergence) - exact) <= DIVERGENCE_K * Decimal(U) * (own_scale + cross_scale)


# Shares of the mass of densities on 3 atoms that charge every atom, leave one out, or sit on one
SHARES = np.array([[0.5, 0.3, 0.2], [0.2, 0.0, 0.8], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.1, 0.8, 0.1]])
EXTREME_WEIGHTS = {"light_first": [1e-8, 1.0, 1e8], "heavy_first": [1e8, 1e-8, 1.0]}


@pytest.mark.parametrize("name, gamma", RULES, ids=[f"{n}({g})" if g else n for n, g in RULES])
@pytest.mark.parametrize("weights", EXTREME_WEIGHTS.values(), ids=EXTREME_WEIGHTS)
def test_catalog_scores_at_extreme_weights(name, gamma, weights):
    # the SHARES densities under weights 1e-8 and 1e8: the light atom's density reaches 1e8, the
    # heavy one's 1e-8
    space = MeasureSpace(weights)
    rows = SHARES / np.array(weights)
    scores = build(name, gamma, space).score_rows(rows)
    k = SCORE_K * Decimal(U)
    for q, row_scores in zip(rows, scores):
        exact, scale = exact_scores(name, gamma, weights, q)
        for got, want, size in zip(row_scores.tolist(), exact, scale):
            if want is None:  # the log score's sentinel on an atom q does not charge
                assert got == -math.inf
            else:
                assert abs(_exact(got) - want) <= k * size, (q.tolist(), got, want)


# Exponents at the ends of what the catalog allows: near 1, and large
EXTREME_GAMMAS = [(name, gamma) for name in ("power", "pseudospherical") for gamma in (1.0 + 1e-6, 50.0)]
# Half the smallest subnormal: an exact score nearer 0 reads as 0, which no relative bound allows
UNDERFLOW = Decimal(2) ** -1075


@pytest.mark.parametrize("name, gamma", EXTREME_GAMMAS, ids=[f"{n}({g})" for n, g in EXTREME_GAMMAS])
@pytest.mark.parametrize("weights", [[1.0, 1.0, 1.0], *EXTREME_WEIGHTS.values()], ids=["unit", *EXTREME_WEIGHTS])
def test_catalog_scores_at_extreme_exponents(name, gamma, weights):
    # the SHARES densities at gamma = 1 + 1e-6, where the cases reach k = 1.48 (power) and 1.43
    # (pseudospherical), and at 50, where they reach 1.67 and 0.19 on unit weights.  At weights
    # 1e-8 and 1e8 some exact scores lie below the smallest subnormal (9.3e-396 reads as 0.0),
    # and power(50)'s rows that put a share on the light atom score past the largest float:
    # score_rows refuses those rows
    rule = build(name, gamma, MeasureSpace(weights))
    k, largest = SCORE_K * Decimal(U), _exact(sys.float_info.max)
    refused = []
    for q in SHARES / np.array(weights):
        exact, scale = exact_scores(name, gamma, weights, q)
        if any(abs(want) > largest for want in exact):
            with pytest.raises(FloatRangeError):
                rule.score_rows(q[None])
            refused.append(q.tolist())
            continue
        for got, want, size in zip(rule.score_rows(q[None])[0].tolist(), exact, scale):
            assert abs(_exact(got) - want) <= k * size + UNDERFLOW, (q.tolist(), got, want)
    assert bool(refused) == (name == "power" and gamma == 50.0 and weights[0] != weights[1])


# k for the fisher scores and the Fisher divergence, where ``scale`` is the exact value with each
# difference replaced by the sum of its terms' magnitudes: the log slope r = D q / q becomes
# rho = (q[i+1] + q[i-1]) / (2h q), the score -(r[i+1] - r[i-1]) / h - r^2 becomes
# (rho[i+1] + rho[i-1]) / h + rho^2, and the divergence sum p (r_p - r_q)^2 h becomes
# sum p (rho_p + rho_q)^2 h.  The scores' cases reach 1.96 (at h = 1e-8, where 2h is no power of
# 2), 1.42 and 0.75; the divergence's reach 0.08, its scale being loose where the slopes differ
FISHER_SCORE_K = 3
FISHER_DIVERGENCE_K = 1

# 8-atom rows: smooth, rough across 16 orders of magnitude, constant to 1e-12 (D q cancels), and
# a smooth row scaled by 1e6
_X = np.arange(8) / 8
FISHER_ROWS = np.array([np.exp(np.sin(2.0 * np.pi * _X)),
                        [1e8, 1e-8, 1.0, 1e4, 1e-4, 3.0, 0.5, 7.0],
                        1.0 + 1e-12 * np.cos(2.0 * np.pi * _X),
                        1e6 * np.exp(0.8 * np.cos(2.0 * np.pi * _X))])


def exact_log_slopes(h, q) -> tuple[list, list]:
    """r = D q / q on the periodic grid of spacing ``h``, and rho, its scale, as Decimals."""
    h, q, n = _exact(h), [_exact(x) for x in q], len(q)
    with localcontext() as ctx:
        ctx.prec = PRECISION
        return ([(q[(i + 1) % n] - q[i - 1]) / (2 * h * q[i]) for i in range(n)],
                [(q[(i + 1) % n] + q[i - 1]) / (2 * h * q[i]) for i in range(n)])


@pytest.mark.parametrize("h", [0.125, 1e-8, 1e8], ids=["grid", "light", "heavy"])
def test_fisher_scores_at_eight_atoms(h):
    rule = build("fisher", None, MeasureSpace(np.full(8, h)))
    k = FISHER_SCORE_K * Decimal(U)
    for q, row_scores in zip(FISHER_ROWS, rule.score_rows(FISHER_ROWS)):
        r, rho = exact_log_slopes(h, q)
        with localcontext() as ctx:
            ctx.prec = PRECISION
            for i, got in enumerate(row_scores.tolist()):
                want = -(r[(i + 1) % 8] - r[i - 1]) / _exact(h) - r[i] ** 2
                scale = (rho[(i + 1) % 8] + rho[i - 1]) / _exact(h) + rho[i] ** 2
                assert abs(_exact(got) - want) <= k * scale, (q.tolist(), i, got, want)


@pytest.mark.parametrize("n", [8, 64])
def test_the_fisher_divergence(n):
    grid = PeriodicGrid(n)
    x = grid.points
    rows = [np.exp(np.sin(2.0 * np.pi * x)), np.exp(0.8 * np.cos(2.0 * np.pi * x)),
            1.0 + 1e-12 * np.cos(2.0 * np.pi * x), np.exp(np.sin(2.0 * np.pi * x) + 1e-9 * np.cos(6.0 * np.pi * x)),
            np.where(np.arange(n) % 2 == 0, 1e4, 1e-4)]
    k = FISHER_DIVERGENCE_K * Decimal(U)
    for p_values in rows:
        p = GridDensity(grid, p_values).normalized()
        r_p, rho_p = exact_log_slopes(grid.spacing, p.values)
        for q_values in rows:
            q = GridDensity(grid, q_values)
            got = hyvarinen_divergence(p, q)
            r_q, rho_q = exact_log_slopes(grid.spacing, q.values)
            with localcontext() as ctx:
                ctx.prec = PRECISION
                terms = [(_exact(x), a - b, c + d) for x, a, b, c, d in zip(p.values, r_p, r_q, rho_p, rho_q)]
                want = sum(x * diff ** 2 for x, diff, _ in terms) * _exact(grid.spacing)
                scale = sum(x * size ** 2 for x, _, size in terms) * _exact(grid.spacing)
            assert abs(_exact(got) - want) <= k * scale, (p_values.tolist(), q_values.tolist(), got, want)
