"""Bregman divergences, affine scores, rebasing, and symmetry classification."""

import json
import math

import numpy as np
import pytest

from entroscore import (
    ASYMMETRIC_WITH_WITNESS,
    SYMMETRIC_GENERALIZED_QUADRATIC,
    ConvexDomainSpec,
    DomainError,
    Entropy,
    MeasureSpace,
    StructureError,
    affine_score_at,
    bregman_divergence,
    catalog_entropy,
    linearity_check,
    quadratic_discrimination_bound,
    rebase_entropy,
    sample_positive_box,
    symmetry_defect,
)

from conftest import (
    CATALOG_SPECS,
    entropy_from_spec,
    integrated_square_composite,
    power_law_composite,
    unit_space,
)


class TestBregmanDivergence:
    def test_quadratic_known_value(self):
        sp = unit_space(2)
        E = catalog_entropy("quadratic", sp)
        assert bregman_divergence(E, sp.density([1.0, 0.0]), sp.density([0.5, 0.5])) == pytest.approx(
            0.5, abs=1e-15
        )

    @pytest.mark.parametrize("spec", CATALOG_SPECS)
    def test_zero_at_equal_arguments(self, spec):
        sp = unit_space(3)
        E = entropy_from_spec(spec, sp)
        rng = np.random.default_rng(70)
        for _ in range(20):
            p = sample_positive_box(sp, rng)
            assert abs(bregman_divergence(E, p, p)) <= 1e-13

    def test_power_three_asymmetry_witness(self):
        # independent oracle: D(q, p) - D(p, q) = sum (p - q)^3 for the cubic
        sp = unit_space(3)
        E = catalog_entropy("power", sp, gamma=3.0)
        p = sp.cone([0.6, 0.3, 0.1])
        q = sp.cone([1.0 / 3.0] * 3)
        oracle = math.fsum(((p.values - q.values) ** 3).tolist())  # = 7/1125
        assert oracle == pytest.approx(7.0 / 1125.0, abs=1e-15)
        gap = bregman_divergence(E, q, p) - bregman_divergence(E, p, q)
        assert gap == pytest.approx(oracle, abs=1e-14)

    @pytest.mark.parametrize("spec", CATALOG_SPECS)
    def test_nonnegative_on_sampled_pairs(self, spec):
        sp = unit_space(3)
        E = entropy_from_spec(spec, sp)
        rng = np.random.default_rng(71)
        for _ in range(1000):
            p = sample_positive_box(sp, rng)
            q = sample_positive_box(sp, rng)
            assert bregman_divergence(E, p, q) >= -1e-12

    @pytest.mark.parametrize("spec", CATALOG_SPECS)
    def test_strict_entropies_are_positive_definite(self, spec):
        sp = unit_space(3)
        E = entropy_from_spec(spec, sp)
        rng = np.random.default_rng(72)
        for _ in range(300):
            p = sample_positive_box(sp, rng)
            q = sample_positive_box(sp, rng)
            if float(np.max(np.abs(p.values - q.values))) > 1e-6:
                assert bregman_divergence(E, p, q) > 1e-12


class TestAffineScore:
    def test_quadratic_components(self):
        sp = unit_space(2)
        E = catalog_entropy("quadratic", sp)
        score = affine_score_at(E, sp.cone([0.5, 0.5]))
        np.testing.assert_allclose(score.gradient_part.values, [1.0, 1.0], atol=1e-15)
        assert score.offset == pytest.approx(-0.5, abs=1e-15)
        # the hyperplane touches the entropy at the basepoint
        assert score(sp.cone([0.5, 0.5])) == pytest.approx(0.5, abs=1e-15)

    def test_spherical_offset_vanishes(self):
        sp = unit_space(3)
        E = catalog_entropy("spherical", sp)
        rng = np.random.default_rng(73)
        for _ in range(20):
            q = sample_positive_box(sp, rng)
            assert abs(affine_score_at(E, q).offset) <= 1e-13

    def test_affine_in_the_argument(self):
        sp = unit_space(3)
        E = catalog_entropy("shannon", sp)
        rng = np.random.default_rng(74)
        for _ in range(50):
            score = affine_score_at(E, sample_positive_box(sp, rng))
            p1 = sp.cone(rng.normal(size=3))
            p2 = sp.cone(rng.normal(size=3))
            t = rng.uniform()
            lhs = score(t * p1 + (1.0 - t) * p2)
            rhs = t * score(p1) + (1.0 - t) * score(p2)
            assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))

    @pytest.mark.parametrize("spec", CATALOG_SPECS)
    def test_family_is_proper(self, spec):
        # s(p, q) <= s(p, p) = value(p)
        sp = unit_space(3)
        E = entropy_from_spec(spec, sp)
        rng = np.random.default_rng(75)
        for _ in range(300):
            p = sample_positive_box(sp, rng)
            q = sample_positive_box(sp, rng)
            assert affine_score_at(E, q)(p) <= E.value(p) + 1e-12


class TestLinearityCheck:
    def test_sublinear_entropies_are_linear_families(self):
        sp = unit_space(3)
        assert linearity_check(catalog_entropy("spherical", sp), seed=1, samples=50)
        assert linearity_check(catalog_entropy("pseudospherical", sp, gamma=3.0), seed=1, samples=50)

    def test_quadratic_is_not(self):
        assert not linearity_check(catalog_entropy("quadratic", unit_space(3)), seed=1, samples=50)

    def test_shannon_is_not(self):
        assert not linearity_check(catalog_entropy("shannon", unit_space(3)), seed=1, samples=50)


@pytest.mark.parametrize("check", [linearity_check, symmetry_defect])
@pytest.mark.parametrize("samples", [0, -2])
def test_sampled_checks_need_at_least_one_sample(check, samples):
    with pytest.raises(DomainError, match="needs at least one sample"):
        check(catalog_entropy("quadratic", unit_space(3)), seed=1, samples=samples)


class TestRebase:
    def test_zero_basepoint_reproduces_quadratic(self):
        sp = unit_space(2)
        E = catalog_entropy("quadratic", sp)
        rebased = rebase_entropy(E, sp.cone([0.0, 0.0]))
        rng = np.random.default_rng(76)
        for _ in range(20):
            p = sp.cone(rng.normal(size=2))
            assert rebased.value(p) == pytest.approx(E.value(p), abs=1e-14)

    def test_vanishes_at_the_basepoint(self):
        sp = unit_space(3)
        rng = np.random.default_rng(77)
        for spec in CATALOG_SPECS:
            E = entropy_from_spec(spec, sp)
            a = sample_positive_box(sp, rng)
            assert abs(rebase_entropy(E, a).value(a)) <= 1e-13

    def test_quadratic_shifted_center(self):
        sp = unit_space(2)
        E = catalog_entropy("quadratic", sp)
        a = sp.cone([0.5, 0.5])
        rebased = rebase_entropy(E, a)
        rng = np.random.default_rng(78)
        for _ in range(50):
            p = sp.cone(rng.normal(size=2))
            oracle = math.fsum(((p.values - 0.5) ** 2).tolist())
            assert rebased.value(p) == pytest.approx(oracle, abs=1e-13)

    @pytest.mark.parametrize("spec", CATALOG_SPECS)
    def test_divergence_is_invariant(self, spec):
        sp = unit_space(3)
        E = entropy_from_spec(spec, sp)
        rng = np.random.default_rng(79)
        rebased = rebase_entropy(E, sample_positive_box(sp, rng))
        for _ in range(100):
            p = sample_positive_box(sp, rng)
            q = sample_positive_box(sp, rng)
            assert bregman_divergence(rebased, p, q) == pytest.approx(
                bregman_divergence(E, p, q), abs=1e-12
            )


class TestSymmetryClassification:
    def test_separable_square_is_symmetric(self):
        sp = unit_space(3)
        nu = np.array([0.7, 1.3, 0.5])
        report = symmetry_defect(power_law_composite(sp, 2.0, nu=nu), seed=5)
        assert report.classification == SYMMETRIC_GENERALIZED_QUADRATIC
        assert report.max_symmetry_defect <= 1e-12
        assert report.fit_residual <= 1e-10

    def test_integrated_square_is_symmetric(self):
        sp = unit_space(3)
        nu = np.array([1.0, 2.0, 0.5])
        E = integrated_square_composite(sp, nu)
        report = symmetry_defect(E, seed=5)
        assert report.classification == SYMMETRIC_GENERALIZED_QUADRATIC
        assert report.max_symmetry_defect <= 1e-12
        assert report.fit_residual <= 1e-10
        # and its divergence is literally (sum (p-q) nu)^2
        rng = np.random.default_rng(80)
        for _ in range(50):
            p = sample_positive_box(sp, rng)
            q = sample_positive_box(sp, rng)
            oracle = math.fsum(((p.values - q.values) * nu).tolist()) ** 2
            assert bregman_divergence(E, p, q) == pytest.approx(oracle, abs=1e-12)

    @pytest.mark.parametrize("gamma", [1.5, 3.0])
    def test_separable_power_laws_are_asymmetric(self, gamma):
        sp = unit_space(3)
        report = symmetry_defect(power_law_composite(sp, gamma), seed=5)
        assert report.classification == ASYMMETRIC_WITH_WITNESS
        # the witness reproduces the reported defect
        E = power_law_composite(sp, gamma)
        defect = abs(
            bregman_divergence(E, report.witness_p, report.witness_q)
            - bregman_divergence(E, report.witness_q, report.witness_p)
        )
        assert defect == report.max_symmetry_defect

    def test_catalog_power_three_matches_composite_verdict(self):
        report = symmetry_defect(catalog_entropy("power", unit_space(3), gamma=3.0), seed=5)
        assert report.classification == ASYMMETRIC_WITH_WITNESS

    def test_quadratic_is_symmetric(self):
        report = symmetry_defect(catalog_entropy("quadratic", unit_space(3)), seed=5)
        assert report.classification == SYMMETRIC_GENERALIZED_QUADRATIC

    def test_weighted_quadratic_random_matrices(self):
        rng = np.random.default_rng(81)
        for trial in range(20):
            n = int(rng.integers(2, 9))
            sp = MeasureSpace(rng.uniform(0.5, 2.0, size=n))
            a = rng.normal(size=(n, n))
            Q = a.T @ a + n * np.eye(n)
            E = catalog_entropy("weighted_quadratic", sp, matrix=Q)
            report = symmetry_defect(E, seed=trial, samples=150)
            assert report.classification == SYMMETRIC_GENERALIZED_QUADRATIC
            assert report.max_symmetry_defect <= 1e-12
            # divergence equals the quadratic form (p - q)^T Q (p - q)
            for _ in range(20):
                p = sample_positive_box(sp, rng)
                q = sample_positive_box(sp, rng)
                diff = p.values - q.values
                oracle = float(diff @ Q @ diff)
                assert bregman_divergence(E, p, q) == pytest.approx(oracle, rel=1e-11, abs=1e-12)

    def test_all_nan_defects_raise_a_domain_error_naming_the_entropy(self):
        sp = unit_space(3)
        E = Entropy("nan", ConvexDomainSpec.whole_space(sp), lambda q: np.full(len(q), np.nan),
                    lambda q: np.zeros_like(q))
        with pytest.raises(DomainError, match="symmetry defect of nan"):
            symmetry_defect(E, seed=5, samples=20)

    def test_report_serializes(self):
        report = symmetry_defect(catalog_entropy("quadratic", unit_space(2)), seed=5, samples=50)
        payload = json.loads(json.dumps(report.as_dict()))
        assert set(payload) == {"entropy", "pair_count", "max_symmetry_defect", "witness_p",
                                "witness_q", "fit_residual", "classification", "pass"}
        assert payload["pass"] is report.passed is True  # a symmetric verdict is conclusive


class TestDiscriminationBound:
    def test_equal_mass_points_kill_the_mean_term(self):
        sp = unit_space(2)
        d1, bound = quadratic_discrimination_bound(
            sp.density([1.0, 0.0]), sp.density([0.5, 0.5]), [1.0, 1.0]
        )
        assert d1 == 0.0
        assert bound == pytest.approx(1.0, abs=1e-15)

    def test_zero_at_equal_points(self):
        sp = unit_space(2)
        p = sp.density([0.3, 0.7])
        assert quadratic_discrimination_bound(p, p, [1.0, 1.0]) == (0.0, 0.0)

    def test_off_simplex_hand_value(self):
        sp = unit_space(2)
        d1, bound = quadratic_discrimination_bound(
            sp.cone([2.0, 0.0]), sp.cone([0.0, 0.0]), [1.0, 1.0]
        )
        assert d1 == pytest.approx(4.0, abs=1e-15)
        assert bound == pytest.approx(8.0, abs=1e-15)

    def test_ordering_holds_at_random(self):
        rng = np.random.default_rng(82)
        sp = unit_space(4)
        for _ in range(200):
            p = sp.cone(rng.normal(size=4))
            q = sp.cone(rng.normal(size=4))
            nu = rng.uniform(0.1, 3.0, size=4)
            d1, bound = quadratic_discrimination_bound(p, q, nu)
            assert d1 <= bound + 1e-12 * (1.0 + bound)

    def test_bad_nu_rejected(self):
        sp = unit_space(2)
        with pytest.raises(DomainError):
            quadratic_discrimination_bound(sp.cone([1.0, 0.0]), sp.cone([0.0, 1.0]), [1.0, -1.0])

    @pytest.mark.parametrize("p, nu", [([1e200, 0.0], [1.0, 1.0]), ([1.0, 0.0], [1.0, math.nan]),
                                       ([1.0, 0.0], [math.inf, 1.0]), ([1.0, 0.0], [1e308, 1e308])],
                             ids=["square-overflows", "nu-nan", "nu-inf", "mass-overflows"])
    def test_out_of_range_is_a_domain_error(self, p, nu):
        sp = unit_space(2)
        with pytest.raises(DomainError):
            quadratic_discrimination_bound(sp.cone(p), sp.cone([0.0, 1.0]), nu)

    def test_points_on_different_spaces_are_a_structure_error(self):
        p, q = MeasureSpace([1.0, 1.0]).cone([1.0, 0.0]), MeasureSpace([1.0, 2.0]).cone([0.0, 1.0])
        with pytest.raises(StructureError, match="different measure spaces"):
            quadratic_discrimination_bound(p, q, [1.0, 1.0])
