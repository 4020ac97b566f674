"""Discrete Hyvarinen rule: exact identities on the periodic grid."""

import math

import numpy as np
import pytest

from entroscore import (
    ConstructionError,
    DomainError,
    GridDensity,
    PeriodicGrid,
    catalog_entropy,
    fisher_entropy,
    hyvarinen_divergence,
    hyvarinen_score,
    make_psr,
    pair,
)
from entroscore.entropies import _periodic_differences


def smooth_positive_field(grid, rng, modes=3, amplitude=0.6):
    """exp of a random low-order trigonometric polynomial: a generic
    strictly positive grid density with controlled roughness."""
    x = grid.points
    log_q = np.zeros(grid.n)
    for k in range(1, modes + 1):
        a, b = rng.normal(size=2) * amplitude / k
        log_q += a * np.sin(2.0 * np.pi * k * x) + b * np.cos(2.0 * np.pi * k * x)
    return GridDensity(grid, np.exp(log_q))


def scaled(q, factor):
    return GridDensity(q.grid, q.values * factor)


def log_slope(q):
    return _periodic_differences(q.values, q.grid.spacing) / q.values


class TestGridBasics:
    def test_grid_needs_at_least_four_points(self):
        for n in (3, math.inf, math.nan):
            with pytest.raises(ConstructionError):
                PeriodicGrid(n)

    def test_grids_are_equal_by_size(self):
        grid = PeriodicGrid(8)
        assert grid == PeriodicGrid(8.0) and hash(grid) == hash(PeriodicGrid(8))
        assert grid != PeriodicGrid(16)
        assert grid.points is grid.points  # cached on the frozen instance

    def test_density_must_be_strictly_positive(self):
        grid = PeriodicGrid(4)
        with pytest.raises(DomainError):
            GridDensity(grid, [1.0, 2.0, 0.0, 1.0])
        with pytest.raises(DomainError):
            GridDensity(grid, [1.0, 2.0, -1.0, 1.0])

    def test_weights_are_the_spacing(self):
        grid = PeriodicGrid(8)
        np.testing.assert_array_equal(grid.space.weights, np.full(8, 0.125))


class TestPeriodicDifferences:
    def test_constants_vanish(self):
        np.testing.assert_array_equal(_periodic_differences(np.full((2, 16), 3.7), 1 / 16), np.zeros((2, 16)))

    def test_sine_derivative_with_taylor_bound(self):
        grid = PeriodicGrid(64)
        x = grid.points
        v = np.sin(2.0 * np.pi * x)
        exact = 2.0 * np.pi * np.cos(2.0 * np.pi * x)
        err = np.max(np.abs(_periodic_differences(v, grid.spacing) - exact))
        # centered-difference remainder: max |f'''| h^2 / 6
        assert err <= (2.0 * np.pi) ** 3 * grid.spacing ** 2 / 6.0 * (1.0 + 1e-6)

    def test_summation_by_parts_is_exact(self):
        grid = PeriodicGrid(64)
        rng = np.random.default_rng(100)
        sp = grid.space
        for _ in range(20):
            v = rng.uniform(-1.0, 1.0, size=64)
            w = rng.uniform(-1.0, 1.0, size=64)
            lhs = pair(sp.cone(_periodic_differences(v, grid.spacing)), sp.dual(w))
            rhs = pair(sp.cone(v), sp.dual(_periodic_differences(w, grid.spacing)))
            assert abs(lhs + rhs) <= 1e-14


class TestHyvarinenScore:
    def test_score_and_entropy_are_one_row_calls_into_the_fisher_row(self):
        # hyvarinen_score and fisher_entropy are one-row calls into the fisher row on the grid's space
        grid = PeriodicGrid(48)
        rng = np.random.default_rng(112)
        densities = [smooth_positive_field(grid, rng, amplitude=3.0) for _ in range(20)]
        rows = np.array([q.values for q in densities])
        entropy = catalog_entropy("fisher", grid.space)
        assert grid.entropy is grid.entropy and grid.entropy.name == entropy.name
        scores = make_psr(entropy).score_rows(rows)
        np.testing.assert_array_equal(scores, [hyvarinen_score(q).values for q in densities])
        np.testing.assert_array_equal(entropy.value_rows(rows), [fisher_entropy(q) for q in densities])

    def test_constant_density_scores_zero(self):
        grid = PeriodicGrid(32)
        q = GridDensity(grid, np.full(32, 2.5))
        np.testing.assert_array_equal(hyvarinen_score(q).values, np.zeros(32))

    def test_exact_scale_invariance_for_binary_factors(self):
        grid = PeriodicGrid(64)
        rng = np.random.default_rng(101)
        q = smooth_positive_field(grid, rng)
        for lam in (0.5, 2.0, 8.0):
            np.testing.assert_array_equal(
                hyvarinen_score(scaled(q, lam)).values, hyvarinen_score(q).values
            )

    def test_scale_invariance_up_to_input_rounding(self):
        grid = PeriodicGrid(64)
        rng = np.random.default_rng(102)
        q = smooth_positive_field(grid, rng)
        base = hyvarinen_score(q).values
        for lam in (3.0, 10.0):
            rescaled = hyvarinen_score(scaled(q, lam)).values
            np.testing.assert_allclose(rescaled, base, rtol=1e-13, atol=1e-13)

    def test_independent_discretization_oracle(self):
        # one-sided differences give an O(h) re-implementation; agreement
        # must be first order, checked by halving the spacing
        def one_sided_score(q):
            h = q.grid.spacing
            forward = (np.roll(q.values, -1) - q.values) / h
            r = forward / q.values
            backward_diff = (r - np.roll(r, 1)) / h
            return -2.0 * backward_diff - r * r

        gaps = {}
        for n in (64, 128, 256):
            grid = PeriodicGrid(n)
            q = GridDensity(grid, np.exp(np.sin(2.0 * np.pi * grid.points)))
            gaps[n] = float(np.max(np.abs(hyvarinen_score(q).values - one_sided_score(q))))
            assert np.all(np.isfinite(hyvarinen_score(q).values))
        assert gaps[128] <= 0.75 * gaps[64]
        assert gaps[256] <= 0.75 * gaps[128]


class TestFisherEntropy:
    def test_constant_density_minimises(self):
        grid = PeriodicGrid(32)
        assert fisher_entropy(GridDensity(grid, np.full(32, 1.0))) == 0.0

    def test_one_homogeneous(self):
        grid = PeriodicGrid(64)
        rng = np.random.default_rng(103)
        q = smooth_positive_field(grid, rng)
        value = fisher_entropy(q)
        for lam in (0.5, 2.0, 3.0, 10.0):
            assert fisher_entropy(scaled(q, lam)) == pytest.approx(lam * value, rel=1e-12)

    def test_grid_refinement_stabilises(self):
        values = {}
        for n in (64, 128, 256):
            grid = PeriodicGrid(n)
            q = GridDensity(grid, np.exp(np.sin(2.0 * np.pi * grid.points))).normalized()
            values[n] = fisher_entropy(q)
        assert values[128] / values[64] == pytest.approx(1.0, abs=0.02)
        assert values[256] / values[128] == pytest.approx(1.0, abs=0.02)
        # refinement error shrinks
        assert abs(values[256] - values[128]) <= abs(values[128] - values[64])


class TestHyvarinenDivergence:
    def test_scalings_are_indistinguishable(self):
        grid = PeriodicGrid(64)
        rng = np.random.default_rng(104)
        p = smooth_positive_field(grid, rng).normalized()
        for lam in (0.5, 1.0, 3.0, 17.0):
            assert abs(hyvarinen_divergence(p, scaled(p, lam))) <= 1e-14

    def test_positive_off_the_scaling_class(self):
        grid = PeriodicGrid(64)
        rng = np.random.default_rng(105)
        p = smooth_positive_field(grid, rng).normalized()
        for _ in range(20):
            q = smooth_positive_field(grid, rng)
            if np.max(np.abs(log_slope(p) - log_slope(q))) > 1e-8:
                assert hyvarinen_divergence(p, q) > 0.0

    def test_perturbations_always_cost(self):
        # the minimum over non-collinear perturbed pairs stays positive;
        # only pure rescalings achieve zero
        grid = PeriodicGrid(64)
        rng = np.random.default_rng(106)
        p = smooth_positive_field(grid, rng).normalized()
        smallest = math.inf
        for _ in range(50):
            bump = 1.0 + 0.05 * rng.uniform(-1.0, 1.0, size=64)
            q = GridDensity(grid, p.values * bump)
            smallest = min(smallest, hyvarinen_divergence(p, q))
        assert smallest > 0.0
        assert hyvarinen_divergence(p, scaled(p, 2.0)) == 0.0

    def test_first_argument_must_be_normalised(self):
        grid = PeriodicGrid(64)
        rng = np.random.default_rng(107)
        p = smooth_positive_field(grid, rng)
        if abs(p.mass - 1.0) < 1e-6:  # pragma: no cover - generic draw
            p = scaled(p, 2.0)
        with pytest.raises(DomainError):
            hyvarinen_divergence(p, p)

    def test_divergence_identity_exact(self):
        # pair(p, S(p)) - pair(p, S(q)) equals the explicit quadratic form
        grid = PeriodicGrid(64)
        sp = grid.space
        rng = np.random.default_rng(108)
        for _ in range(100):
            p = smooth_positive_field(grid, rng).normalized()
            q = smooth_positive_field(grid, rng)
            p_cone = sp.cone(p.values)
            lhs = pair(p_cone, hyvarinen_score(p)) - pair(p_cone, hyvarinen_score(q))
            assert abs(lhs - hyvarinen_divergence(p, q)) <= 1e-12


class TestGridEulerAndPropriety:
    def test_euler_identity_exact_for_unnormalised_input(self):
        grid = PeriodicGrid(64)
        sp = grid.space
        rng = np.random.default_rng(109)
        for _ in range(100):
            q = scaled(smooth_positive_field(grid, rng), float(rng.uniform(0.1, 10.0)))
            lhs = pair(sp.cone(q.values), hyvarinen_score(q))
            rhs = fisher_entropy(q)
            assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))

    def test_propriety_on_normalised_pairs(self):
        grid = PeriodicGrid(64)
        sp = grid.space
        rng = np.random.default_rng(110)
        for _ in range(500):
            p = smooth_positive_field(grid, rng).normalized()
            q = smooth_positive_field(grid, rng).normalized()
            p_cone = sp.cone(p.values)
            margin = pair(p_cone, hyvarinen_score(p)) - pair(p_cone, hyvarinen_score(q))
            assert margin >= -1e-12

    def test_subgradient_inequality_on_cone_pairs(self):
        # fisher_entropy(p) >= pair(p, S(q)) for positive cone pairs
        grid = PeriodicGrid(64)
        sp = grid.space
        rng = np.random.default_rng(111)
        for _ in range(200):
            p = scaled(smooth_positive_field(grid, rng), float(rng.uniform(0.1, 10.0)))
            q = scaled(smooth_positive_field(grid, rng), float(rng.uniform(0.1, 10.0)))
            support = pair(sp.cone(p.values), hyvarinen_score(q))
            assert fisher_entropy(p) - support >= -1e-12


@pytest.mark.parametrize("call, error, message", [
    (lambda grid: GridDensity(grid, np.ones(7)), ConstructionError,
     "grid density length does not match the grid"),
    (lambda grid: hyvarinen_divergence(GridDensity(grid, np.ones(8)).normalized(),
                                       GridDensity(PeriodicGrid(16), np.ones(16))),
     DomainError, "grid densities live on different grids"),
], ids=["density-length", "divergence-across-grids"])
def test_grid_operations_refuse_values_of_another_grid(call, error, message):
    with pytest.raises(error) as info:
        call(PeriodicGrid(8))
    assert str(info.value) == message
