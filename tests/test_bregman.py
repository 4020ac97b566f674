"""Bregman divergences, affine scores, rebasing, and symmetry classification."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from entroscore import (
    ASYMMETRIC_WITH_WITNESS,
    INCONCLUSIVE,
    SYMMETRIC_GENERALIZED_QUADRATIC,
    ConvexDomainSpec,
    DomainError,
    Entropy,
    MeasureSpace,
    StructureError,
    affine_score_at,
    bregman_divergence,
    bregman_divergence_rows,
    catalog_entropy,
    linearity_check,
    quadratic_discrimination_bound,
    rebase_entropy,
    sample_positive_box,
    sampling,
    symmetry_defect,
)
from entroscore.measure import FloatRangeError

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


def test_divergence_rows_name_the_rows_without_a_finite_subgradient():
    # power(1100)'s subgradient 1100 q^1099 overflows at q_i = 2, as every row function says
    sp = unit_space(3)
    power = catalog_entropy("power", sp, gamma=1100.0)
    q_rows = np.array([[1.0, 1.0, 1.0], [2.0, 1.0, 1.0], [1.0, 0.5, 1.0], [1.0, 2.0, 2.0]])
    with pytest.raises(FloatRangeError) as info:
        bregman_divergence_rows(power, np.ones((4, 3)), q_rows)
    assert str(info.value) == "power(1100) subgradients leave the float range in rows 2, 4"
    assert info.value.rows == [1, 3]
    with pytest.raises(FloatRangeError, match="^power\\(1100\\) subgradients leave the float range in row 1$"):
        bregman_divergence(power, sp.cone([1.0, 1.0, 1.0]), sp.cone(q_rows[1]))



@pytest.mark.parametrize("call", [
    lambda power, a: power.subgradient(a),
    lambda power, a: affine_score_at(power, a),
    lambda power, a: bregman_divergence(power, a, a),
    lambda power, a: rebase_entropy(power, a),
], ids=["subgradient", "affine_score_at", "bregman_divergence", "rebase_entropy"])
def test_each_vector_entry_point_names_an_overflowed_subgradient(call):
    # power(1100)'s subgradient 1100 * 2^1099 at a = (2, 1, 1) is past the float range; no
    # infinite-score sentinel is involved, so the error names the overflow, as the row functions do
    sp = unit_space(3)
    power = catalog_entropy("power", sp, gamma=1100.0)
    with pytest.raises(FloatRangeError) as info:
        call(power, sp.cone([2.0, 1.0, 1.0]))
    assert str(info.value) == "power(1100) subgradients leave the float range in row 1"


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

    def test_non_finite_subgradients_are_counted_among_the_sampled_points(self):
        # a linear entropy whose subgradient is infinite where q_1 > 1: the check counts
        # those of its sampled points, whose rows no report shows
        sp = unit_space(3)
        linear = Entropy("linear", ConvexDomainSpec.whole_space(sp), lambda q: q.sum(axis=1),
                         lambda q: (q.sum(axis=1), np.where(q[:, :1] > 1.0, np.inf, np.ones_like(q))))
        hit = np.count_nonzero(sampling.cone_rows(sp, np.random.default_rng(1), 60)[0::3, 0] > 1.0)
        assert 0 < hit < 20
        with pytest.raises(DomainError) as info:
            linearity_check(linear, seed=1, samples=20)
        assert str(info.value) == f"linear subgradients leave the float range at {hit} of 20 sampled points"


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
        assert report.max_third_difference <= 1e-12

    def test_integrated_square_is_symmetric(self):
        sp = unit_space(3)
        nu = np.array([1.0, 2.0, 0.5])
        E = integrated_square_composite(sp, nu)
        report = symmetry_defect(E, seed=5)
        assert report.classification == SYMMETRIC_GENERALIZED_QUADRATIC
        assert report.max_symmetry_defect <= 1e-12
        assert report.max_third_difference <= 1e-12
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

    def test_nan_values_are_refused_by_the_values_float_range_check(self):
        sp = unit_space(3)
        E = Entropy("nan", ConvexDomainSpec.whole_space(sp), lambda q: np.full(len(q), np.nan),
                    lambda q: (np.full(len(q), np.nan), np.zeros_like(q)))
        with pytest.raises(DomainError, match="^nan values leave the float range at 40 of 40 sampled points;"):
            symmetry_defect(E, seed=5, samples=20)

    def test_defects_that_are_all_nan_raise_a_domain_error_naming_the_entropy(self):
        # finite values and subgradients whose every pairing adds opposing infinities: each
        # term (p - q) f mu on 20 atoms of weight 1e10, f = +-1e300 by turns, overflows
        sp = MeasureSpace(np.full(20, 1e10))
        f = np.where(np.arange(20) % 2, -1e300, 1e300)
        opposed = Entropy("opposed", ConvexDomainSpec.whole_space(sp), lambda q: np.zeros(len(q)),
                          lambda q: (np.zeros(len(q)), np.broadcast_to(f, q.shape).copy()))
        with pytest.raises(DomainError, match=r"^opposed divergences leave the float range at 40 of 40 sampled "
                                              r"points; the sample points lie in the box \[0.05, 2\)\^20$"):
            symmetry_defect(opposed, seed=5, samples=20)

    def test_nan_divergences_are_counted_not_dropped(self):
        # as above, but only where q_1 > 1.8, 50 of the 400 points: every other pairing gives
        # a defect of 0, so skipping the NaN ones would call the entropy symmetric
        sp = MeasureSpace(np.full(20, 1e10))
        f = np.where(np.arange(20) % 2, -1e300, 1e300)
        patchy = Entropy("patchy", ConvexDomainSpec.whole_space(sp), lambda q: np.zeros(len(q)),
                         lambda q: (np.zeros(len(q)), np.where(q[:, :1] > 1.8, f, 0.0)))
        inside = sampling.box_rows(sp, np.random.default_rng(5), 400)[:, 0] > 1.8
        hit = np.count_nonzero(inside[np.arange(400) ^ 1])  # D(p, q) reads the subgradient at q
        assert np.count_nonzero(inside) == hit == 50
        with pytest.raises(DomainError, match=rf"^patchy divergences leave the float range at {hit} of 400 "
                                              r"sampled points; the sample points lie in the box \[0.05, 2\)\^20$"):
            symmetry_defect(patchy, seed=5, samples=200)

    def test_non_finite_values_are_counted_not_dropped(self):
        # a quadratic without a value where q_1 > 1.9, about 5% of the box: every other
        # pair's defect is below 1e-10, so dropping those points would call it symmetric
        sp = unit_space(3)
        quadratic = catalog_entropy("quadratic", sp)
        def values(q):
            return np.where(q[:, 0] > 1.9, np.nan, quadratic.value_rows(q))

        holed = Entropy("holed", ConvexDomainSpec.whole_space(sp), values, lambda q: (values(q), 2.0 * q))
        hit = np.count_nonzero(sampling.box_rows(sp, np.random.default_rng(5), 400)[:, 0] > 1.9)
        assert 0 < hit < 40
        with pytest.raises(DomainError, match=rf"^holed values leave the float range at {hit} of 400 sampled "
                                              r"points; the sample points lie in the box \[0.05, 2\)\^3$"):
            symmetry_defect(holed, seed=5)

    @pytest.mark.parametrize("n", [3, 27, 200, 1000])
    def test_third_differences_separate_the_catalog_at_every_size(self, n):
        sp = MeasureSpace(np.linspace(0.5, 2.0, n))
        for spec in CATALOG_SPECS:
            report = symmetry_defect(entropy_from_spec(spec, sp), seed=0, samples=200)
            if spec == "quadratic":
                assert report.max_third_difference <= 1e-15
                assert report.classification == SYMMETRIC_GENERALIZED_QUADRATIC
            else:
                assert report.max_third_difference >= 1e-4, spec
                assert report.classification == ASYMMETRIC_WITH_WITNESS, spec
        # 0 / 0 reads 0: the zero entropy is a (degenerate) generalized quadratic
        zero = Entropy("zero", ConvexDomainSpec.whole_space(sp), lambda q: np.zeros(len(q)),
                       lambda q: (np.zeros(len(q)), np.zeros_like(q)))
        report = symmetry_defect(zero, seed=0, samples=200)
        assert report.max_symmetry_defect == report.max_third_difference == 0.0
        assert report.classification == SYMMETRIC_GENERALIZED_QUADRATIC

    def test_a_tiny_cubic_is_not_called_quadratic(self):
        # defects of 1e-19 pass the absolute defect bound; the relative third difference
        # does not depend on the entropy's scale, so the verdict stays open
        cubic = catalog_entropy("power", unit_space(3), gamma=3.0)
        tiny = Entropy("tiny_cubic", cubic.domain, lambda q: 1e-20 * cubic.value_rows(q),
                       lambda q: tuple(1e-20 * rows for rows in cubic.value_grad_rows(q)))
        report = symmetry_defect(tiny, seed=5)
        assert report.max_symmetry_defect <= 1e-18
        assert report.max_third_difference >= 1e-2
        assert report.classification == INCONCLUSIVE

    def test_third_differences_have_power_where_a_quadratic_fit_has_none(self):
        # 27 atoms give 27 * 28 / 2 + 27 + 1 = 406 quadratic-affine features for 400 points,
        # so a least-squares fit interpolates spherical to about 3e-14, as it would a quadratic
        sp = unit_space(27)
        spherical = catalog_entropy("spherical", sp)
        points = sampling.box_rows(sp, np.random.default_rng(0), 400)
        i, j = np.triu_indices(sp.size)
        design = np.hstack([points[:, i] * points[:, j], points, np.ones((len(points), 1))])
        values = spherical.value_rows(points)
        coef, *_ = np.linalg.lstsq(design, values, rcond=None)
        assert design.shape == (400, 406)
        assert np.max(np.abs(design @ coef - values)) <= 1e-10
        report = symmetry_defect(spherical, seed=0, samples=200)
        assert report.max_third_difference >= 1e-3
        assert report.classification == ASYMMETRIC_WITH_WITNESS

    def test_memory_stays_bounded_at_250_atoms(self):
        # a 400 x 31,626 quadratic-affine design matrix alone would take 101 MB here
        sp = MeasureSpace(np.linspace(0.5, 2.0, 250))
        tracemalloc.start()
        try:
            for spec in CATALOG_SPECS:
                symmetry_defect(entropy_from_spec(spec, sp), seed=0, samples=200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20

    def test_report_serializes(self):
        report = symmetry_defect(catalog_entropy("quadratic", unit_space(2)), seed=5, samples=50)
        payload = json.loads(json.dumps(report.as_dict()))
        assert set(payload) == {"entropy", "pair_count", "max_symmetry_defect", "witness_p",
                                "witness_q", "max_third_difference", "classification", "pass"}
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
