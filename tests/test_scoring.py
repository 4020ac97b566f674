"""Scoring-rule construction, propriety, and the Euler identity."""

import json
import math

import numpy as np
import pytest

from entroscore import (
    DomainError,
    MeasureSpace,
    ScoringRule,
    StructureError,
    bregman_divergence,
    canonical_extension_value,
    expected_score,
    linear_score,
    make_psr,
    pair,
    sample_cone_point,
    sampling,
    sample_density,
    score_divergence,
    verify_euler,
    verify_propriety,
    zero_homog_extend,
)
from entroscore.measure import require_float_range

from conftest import CATALOG_SPECS, entropy_from_spec, rule_from_spec, unit_space


class TestMakePsr:
    def test_quadratic_rule_closed_form(self):
        # S(q) = 2q - (q.q) 1
        sp = unit_space(2)
        S = rule_from_spec("quadratic", sp)
        np.testing.assert_allclose(S.score(sp.density([0.5, 0.5])).values, [0.5, 0.5], atol=1e-15)
        np.testing.assert_allclose(
            S.score(sp.density([0.8, 0.2])).values,
            2.0 * np.array([0.8, 0.2]) - 0.68,
            atol=1e-15,
        )

    def test_spherical_correction_term_vanishes(self):
        sp = unit_space(2)
        S = rule_from_spec("spherical", sp)
        q = sp.density([0.6, 0.4])
        np.testing.assert_allclose(
            S.score(q).values, q.values / math.sqrt(0.52), atol=1e-15
        )

    def test_shannon_rule_is_log(self):
        sp = unit_space(2)
        S = rule_from_spec("shannon", sp)
        q = sp.density([0.25, 0.75])
        np.testing.assert_allclose(S.score(q).values, np.log(q.values), atol=1e-15)

    def test_shannon_rule_reaches_the_boundary(self):
        sp = unit_space(2)
        S = rule_from_spec("shannon", sp)
        values = S.score(sp.density([1.0, 0.0])).values
        assert values[0] == 0.0
        assert values[1] == -math.inf

    def test_power_rule_matches_published_form(self):
        # S(q) = g q^(g-1) - (g-1) (sum q^g mu) 1
        sp = unit_space(3)
        gamma = 3.0
        S = rule_from_spec("power(3)", sp)
        q = sp.density([0.5, 0.3, 0.2])
        expected = gamma * q.values ** (gamma - 1.0) - (gamma - 1.0) * np.sum(q.values ** gamma)
        np.testing.assert_allclose(S.score(q).values, expected, atol=1e-15)

    def test_shannon_closed_form_matches_generic_construction_inside(self):
        # away from the boundary the attached closed form and the generic
        # subgradient construction are the same rule
        sp = unit_space(3)
        E = entropy_from_spec("shannon", sp)
        S = make_psr(E)
        rng = np.random.default_rng(56)
        for _ in range(50):
            q = sample_density(sp, rng)
            grad = E.subgradient(q)
            generic = grad.values + (E.value(q) - pair(q, grad))
            np.testing.assert_allclose(S.score(q).values, generic, atol=1e-12)

    def test_oracle_free_entropy_rejected(self):
        from entroscore import ConvexDomainSpec, Entropy

        sp = unit_space(2)
        bare = Entropy("bare", ConvexDomainSpec.whole_space(sp), lambda q: 0.0, None)
        with pytest.raises(DomainError):
            make_psr(bare)

    @pytest.mark.parametrize("spec", CATALOG_SPECS)
    def test_self_score_reproduces_entropy(self, spec):
        sp = unit_space(3)
        E = entropy_from_spec(spec, sp)
        S = make_psr(E)
        rng = np.random.default_rng(50)
        for _ in range(100):
            q = sample_density(sp, rng)
            value = E.value(q)
            assert abs(pair(q, S.score(q)) - value) <= 1e-10 * (1.0 + abs(value))


class TestZeroHomogExtend:
    def test_normalizes_then_scores(self):
        sp = unit_space(2)
        S = rule_from_spec("quadratic", sp)
        np.testing.assert_allclose(
            zero_homog_extend(S, sp.cone([1.0, 1.0])).values, [0.5, 0.5], atol=1e-15
        )
        np.testing.assert_allclose(
            zero_homog_extend(S, sp.cone([5.0, 5.0])).values, [0.5, 0.5], atol=1e-15
        )

    def test_zero_mass_rejected(self):
        sp = unit_space(2)
        S = rule_from_spec("quadratic", sp)
        with pytest.raises(DomainError):
            zero_homog_extend(S, sp.cone([0.0, 0.0]))
        with pytest.raises(DomainError):
            zero_homog_extend(S, sp.cone([2.0, -0.5]))


class TestExpectedScore:
    def test_quadratic_cross_score(self):
        sp = unit_space(2)
        S = rule_from_spec("quadratic", sp)
        assert expected_score(S, sp.density([1.0, 0.0]), sp.density([0.5, 0.5])) == 0.5

    @pytest.mark.parametrize("spec", CATALOG_SPECS)
    def test_self_score_equals_entropy(self, spec):
        sp = unit_space(3)
        E = entropy_from_spec(spec, sp)
        S = make_psr(E)
        rng = np.random.default_rng(51)
        for _ in range(25):
            q = sample_density(sp, rng)
            assert expected_score(S, q, q) == pytest.approx(E.value(q), rel=1e-12, abs=1e-12)

    def test_shannon_degenerate_self_score(self):
        # 1 * log 1 plus the 0 * log 0 convention on the dead atom
        sp = unit_space(2)
        S = rule_from_spec("shannon", sp)
        point = sp.density([1.0, 0.0])
        assert expected_score(S, point, point) == 0.0

    def test_shannon_infinite_cross_score(self):
        sp = unit_space(2)
        S = rule_from_spec("shannon", sp)
        assert expected_score(S, sp.density([0.5, 0.5]), sp.density([1.0, 0.0])) == -math.inf


class TestScoreDivergence:
    def test_quadratic_is_squared_distance(self):
        sp = unit_space(2)
        S = rule_from_spec("quadratic", sp)
        p, q = sp.density([1.0, 0.0]), sp.density([0.5, 0.5])
        # independent oracle: sum (p - q)^2 mu
        assert score_divergence(S, p, q) == pytest.approx(0.5, abs=1e-15)
        rng = np.random.default_rng(52)
        for _ in range(50):
            p, q = sample_density(sp, rng), sample_density(sp, rng)
            oracle = math.fsum(((p.values - q.values) ** 2 * sp.weights).tolist())
            assert score_divergence(S, p, q) == pytest.approx(oracle, abs=1e-13)

    def test_shannon_is_kullback_leibler(self):
        sp = unit_space(2)
        S = rule_from_spec("shannon", sp)
        assert score_divergence(S, sp.density([1.0, 0.0]), sp.density([0.5, 0.5])) == pytest.approx(
            math.log(2.0), abs=1e-15
        )
        rng = np.random.default_rng(53)
        for _ in range(50):
            p, q = sample_density(sp, rng), sample_density(sp, rng)
            oracle = math.fsum((p.values * np.log(p.values / q.values) * sp.weights).tolist())
            assert score_divergence(S, p, q) == pytest.approx(oracle, abs=1e-12)

    def test_infinite_penalty_gives_infinite_divergence(self):
        sp = unit_space(2)
        S = rule_from_spec("shannon", sp)
        assert score_divergence(S, sp.density([0.5, 0.5]), sp.density([1.0, 0.0])) == math.inf

    @pytest.mark.parametrize("spec", CATALOG_SPECS)
    def test_zero_at_equal_arguments(self, spec):
        sp = unit_space(3)
        S = rule_from_spec(spec, sp)
        rng = np.random.default_rng(54)
        for _ in range(20):
            p = sample_density(sp, rng)
            assert abs(score_divergence(S, p, p)) <= 1e-14

    @pytest.mark.parametrize("spec", CATALOG_SPECS)
    def test_matches_bregman_divergence_on_densities(self, spec):
        sp = unit_space(3)
        E = entropy_from_spec(spec, sp)
        S = make_psr(E)
        rng = np.random.default_rng(55)
        for _ in range(100):
            p, q = sample_density(sp, rng), sample_density(sp, rng)
            assert score_divergence(S, p, q) == pytest.approx(
                bregman_divergence(E, p, q), abs=1e-12
            )


class TestVerifyPropriety:
    @pytest.mark.parametrize("spec", CATALOG_SPECS)
    def test_catalog_rules_pass(self, spec):
        S = rule_from_spec(spec, unit_space(3))
        report = verify_propriety(S, seed=42, samples=1000, tol=1e-10)
        assert report.passed
        assert report.min_margin >= -1e-10
        assert report.strict_violations == 0
        assert report.infinite_unfavorable == 0

    @pytest.mark.parametrize("cut", [0.6, 0.8, 0.95])
    def test_scores_past_the_float_range_count_the_pairs_they_hit(self, cut):
        # a rule whose scores are +inf wherever an atom holds more than ``cut``:
        # the error counts each pair with such a p or q once, and names no row
        sp = unit_space(3)
        S = ScoringRule("cut", lambda q: require_float_range("cut scores", np.where(q > cut, np.inf, q)), sp)
        draws = sampling.density_rows(sp, np.random.default_rng(5), 2 * 40)
        hit = int(np.count_nonzero((draws > cut).reshape(40, -1).any(axis=1)))
        assert 0 < hit < 40
        with pytest.raises(DomainError) as info:
            verify_propriety(S, seed=5, samples=40)
        assert str(info.value) == f"cut scores leave the float range at {hit} of 40 sampled pairs"

    def test_witness_reproduces_min_margin(self):
        S = rule_from_spec("quadratic", unit_space(3))
        report = verify_propriety(S, seed=7, samples=200)
        margin = expected_score(S, report.witness_p, report.witness_p) - expected_score(
            S, report.witness_p, report.witness_q
        )
        assert margin == report.min_margin

    def test_linear_rule_fails_with_witness(self):
        sp = unit_space(2)
        S = linear_score(sp)
        report = verify_propriety(S, seed=42, samples=500)
        assert not report.passed
        assert report.min_margin < -1e-3
        assert report.strict_violations > 0
        # the witness is a concrete counterexample
        margin = expected_score(S, report.witness_p, report.witness_p) - expected_score(
            S, report.witness_p, report.witness_q
        )
        assert margin == report.min_margin < 0

    def test_linear_rule_brute_force_oracle(self):
        # independent oracle: exhaustive grid over simplex pairs on n = 2;
        # the margin p.p - p.q attains its minimum -1/8 at p = (3/4, 1/4),
        # q = (1, 0) (minimize 2a^2 - 2a + 1 - a over a >= 1/2)
        sp = unit_space(2)
        S = linear_score(sp)
        worst = math.inf
        grid = np.linspace(0.0, 1.0, 41)
        for a in grid:
            p = sp.density([a, 1.0 - a])
            for b in grid:
                q = sp.density([b, 1.0 - b])
                worst = min(worst, expected_score(S, p, p) - expected_score(S, p, q))
        assert worst == pytest.approx(-0.125, abs=1e-12)

    def test_zero_samples_rejected(self):
        with pytest.raises(DomainError):
            verify_propriety(rule_from_spec("quadratic", unit_space(2)), samples=0)

    def test_report_serializes_with_required_fields(self):
        report = verify_propriety(rule_from_spec("quadratic", unit_space(2)), samples=10)
        payload = json.loads(json.dumps(report.as_dict()))
        assert set(payload) == {"rule", "samples", "min_margin", "witness_p", "witness_q",
                                "strict_violations", "infinite_favorable", "infinite_unfavorable",
                                "tol", "pass"}
        assert payload["witness_p"] == report.witness_p.values.tolist()
        assert payload["pass"] is report.passed


class TestVerifyEuler:
    @pytest.mark.parametrize("spec", CATALOG_SPECS)
    def test_catalog_rules_pass(self, spec):
        sp = unit_space(3)
        E = entropy_from_spec(spec, sp)
        report = verify_euler(make_psr(E), E, seed=42, samples=1000, tol=1e-10)
        assert report.passed
        assert report.max_defect <= 1e-10

    def test_report_serializes_with_exact_fields(self):
        sp = unit_space(2)
        E = entropy_from_spec("quadratic", sp)
        report = verify_euler(make_psr(E), E, samples=10)
        payload = json.loads(json.dumps(report.as_dict()))
        assert set(payload) == {"rule", "samples", "max_defect", "witness", "tol", "pass"}
        assert payload["witness"] == report.witness.values.tolist()
        assert payload["pass"] is report.passed

    @pytest.mark.parametrize("entropy_weights", [[1.0, 2.0, 1.0], [1.0, 1.0]], ids=["weights", "atoms"])
    def test_rule_and_entropy_on_different_spaces_raise(self, entropy_weights):
        # once with the rule's atom count and other weights, once with fewer atoms
        rule = make_psr(entropy_from_spec("quadratic", unit_space(3)))
        E = entropy_from_spec("quadratic", MeasureSpace(entropy_weights))
        with pytest.raises(StructureError, match="operands live on different measure spaces"):
            verify_euler(rule, E, samples=10)

    def test_spherical_defect_is_roundoff(self):
        sp = unit_space(3)
        E = entropy_from_spec("spherical", sp)
        report = verify_euler(make_psr(E), E, seed=1, samples=200)
        assert report.max_defect <= 1e-14

    def test_scaling_keeps_the_identity(self):
        sp = unit_space(3)
        E = entropy_from_spec("quadratic", sp)
        S = make_psr(E)
        rng = np.random.default_rng(60)
        for _ in range(20):
            q = sample_cone_point(sp, rng)
            for lam in (1.0, 10.0):
                scaled = lam * q
                lhs = pair(scaled, zero_homog_extend(S, scaled))
                rhs = canonical_extension_value(E, scaled)
                assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(rhs))


class TestConeSubgradientProperty:
    @pytest.mark.parametrize("spec", CATALOG_SPECS)
    def test_extension_supports_the_extended_entropy(self, spec):
        # value~(p) >= pair(p, S~(q)) with equality at p = q
        sp = unit_space(3)
        E = entropy_from_spec(spec, sp)
        S = make_psr(E)
        rng = np.random.default_rng(61)
        for _ in range(1000):
            p = sample_cone_point(sp, rng)
            q = sample_cone_point(sp, rng)
            support = pair(p, zero_homog_extend(S, q))
            assert canonical_extension_value(E, p) - support >= -1e-10
        for _ in range(50):
            q = sample_cone_point(sp, rng)
            equality_gap = canonical_extension_value(E, q) - pair(q, zero_homog_extend(S, q))
            assert abs(equality_gap) <= 1e-10 * (1.0 + abs(equality_gap))
