"""Pairing and normalization on finite measure spaces."""

import math
import warnings

import numpy as np
import pytest

from entroscore import (
    ConstructionError,
    Density,
    DomainError,
    MeasureSpace,
    StructureError,
    normalize,
    pair,
)

from conftest import unit_space


class TestConstruction:
    def test_weights_must_be_positive(self):
        with pytest.raises(ConstructionError):
            MeasureSpace([1.0, 0.0])
        with pytest.raises(ConstructionError):
            MeasureSpace([1.0, -2.0])
        with pytest.raises(ConstructionError):
            MeasureSpace([])

    def test_vector_length_must_match(self):
        sp = unit_space(2)
        with pytest.raises(StructureError):
            sp.cone([1.0, 2.0, 3.0])

    def test_density_invariants(self):
        sp = unit_space(2)
        sp.density([0.5, 0.5])  # fine
        with pytest.raises(DomainError):
            sp.density([0.6, 0.5])  # mass 1.1
        with pytest.raises(DomainError):
            sp.density([1.2, -0.2])  # negative entry, mass 1

    def test_density_mass_uses_weights(self):
        sp = MeasureSpace([2.0, 2.0])
        sp.density([0.25, 0.25])
        with pytest.raises(DomainError):
            sp.density([0.5, 0.5])

    def test_dual_infinite_entries_need_flag(self):
        sp = unit_space(2)
        with pytest.raises(ConstructionError):
            sp.dual([1.0, -math.inf])
        flagged = sp.dual([1.0, -math.inf], allow_infinite=True)
        assert flagged.values[1] == -math.inf
        with pytest.raises(ConstructionError):
            sp.dual([1.0, math.nan], allow_infinite=True)

    def test_values_are_immutable(self):
        sp = unit_space(2)
        q = sp.cone([1.0, 2.0])
        with pytest.raises(ValueError):
            q.values[0] = 5.0


class TestPair:
    def test_weighted_sum(self):
        sp = unit_space(2)
        assert pair(sp.density([0.5, 0.5]), sp.dual([1.0, 2.0])) == 1.5

    def test_indicator_selects_entry(self):
        sp = unit_space(2)
        assert pair(sp.density([1.0, 0.0]), sp.dual([0.5, 0.5])) == 0.5

    def test_nonunit_weights(self):
        # by hand: 0.25*1*2 + 0.25*1*2 = 1.0
        sp = MeasureSpace([2.0, 2.0])
        assert pair(sp.density([0.25, 0.25]), sp.dual([1.0, 1.0])) == 1.0

    def test_space_mismatch(self):
        with pytest.raises(StructureError):
            pair(unit_space(2).cone([1.0, 0.0]), unit_space(3).dual([1.0, 1.0, 1.0]))

    def test_zero_weight_kills_infinite_entry(self):
        sp = unit_space(2)
        f = sp.dual([0.0, -math.inf], allow_infinite=True)
        assert pair(sp.density([1.0, 0.0]), f) == 0.0
        assert pair(sp.density([0.5, 0.5]), f) == -math.inf

    def test_positive_infinity_and_sign_interaction(self):
        sp = unit_space(2)
        f = sp.dual([math.inf, 1.0], allow_infinite=True)
        assert pair(sp.density([0.5, 0.5]), f) == math.inf
        # a negative weight flips the contribution's sign
        assert pair(sp.cone([-1.0, 0.0]), f) == -math.inf

    def test_opposing_infinities_are_undefined(self):
        sp = unit_space(2)
        f = sp.dual([math.inf, -math.inf], allow_infinite=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isnan(pair(sp.density([0.5, 0.5]), f))

    def test_bilinearity(self):
        rng = np.random.default_rng(42)
        sp = MeasureSpace(rng.uniform(0.5, 2.0, size=7))
        for _ in range(200):
            a, b = rng.normal(size=2)
            p = sp.cone(rng.normal(size=7))
            r = sp.cone(rng.normal(size=7))
            f = sp.dual(rng.normal(size=7))
            lhs = pair(a * p + b * r, f)
            rhs = a * pair(p, f) + b * pair(r, f)
            assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))

    def test_bilinearity_large_space(self):
        # compensated summation keeps the identity at n = 10^4
        rng = np.random.default_rng(7)
        sp = MeasureSpace(rng.uniform(0.5, 2.0, size=10_000))
        p = sp.cone(rng.normal(size=10_000))
        r = sp.cone(rng.normal(size=10_000))
        f = sp.dual(rng.normal(size=10_000))
        lhs = pair(2.0 * p + 3.0 * r, f)
        rhs = 2.0 * pair(p, f) + 3.0 * pair(r, f)
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))


class TestNormalize:
    def test_rescales_to_unit_mass(self):
        sp = unit_space(2)
        np.testing.assert_array_equal(normalize(sp.cone([2.0, 2.0])).values, [0.5, 0.5])
        np.testing.assert_array_equal(normalize(sp.cone([3.0, 1.0])).values, [0.75, 0.25])

    def test_zero_mass_rejected(self):
        with pytest.raises(DomainError):
            normalize(unit_space(2).cone([0.0, 0.0]))

    def test_negative_entries_rejected(self):
        with pytest.raises(DomainError):
            normalize(unit_space(2).cone([2.0, -0.5]))

    def test_idempotent_on_densities(self):
        rng = np.random.default_rng(11)
        sp = MeasureSpace(rng.uniform(0.5, 2.0, size=6))
        for _ in range(100):
            p = sp.density(rng.dirichlet(np.ones(6)) / sp.weights)
            again = normalize(p)
            assert isinstance(again, Density)
            np.testing.assert_allclose(again.values, p.values, rtol=0, atol=1e-15)
