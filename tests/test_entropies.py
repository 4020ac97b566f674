"""Catalog entropies, homogeneous extensions, and derivative oracles."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from entroscore import (
    CompositeEntropySpec,
    ConstructionError,
    ConvexDomainSpec,
    DomainError,
    MeasureSpace,
    StructureError,
    canonical_extension_value,
    catalog_entropy,
    composite_entropy,
    directional_derivative_fd,
    extended_subgradient,
    make_psr,
    pair,
    parse_rule_spec,
    rebase_entropy,
    sample_positive_box,
)
from entroscore import entropies

from conftest import CATALOG_SPECS, entropy_from_spec, integrated_square_composite, unit_space


class TestCatalogValues:
    def test_quadratic(self):
        sp = unit_space(2)
        E = catalog_entropy("quadratic", sp)
        q = sp.density([0.5, 0.5])
        assert E.value(q) == 0.5
        np.testing.assert_array_equal(E.subgradient(q).values, [1.0, 1.0])

    def test_spherical_on_unit_circle(self):
        sp = unit_space(2)
        E = catalog_entropy("spherical", sp)
        q = sp.cone([0.6, 0.8])  # q.q = 1
        assert E.value(q) == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose(E.subgradient(q).values, [0.6, 0.8], atol=1e-15)

    def test_shannon(self):
        sp = unit_space(2)
        E = catalog_entropy("shannon", sp)
        q = sp.density([0.5, 0.5])
        assert E.value(q) == pytest.approx(-math.log(2.0), abs=1e-15)
        np.testing.assert_allclose(
            E.subgradient(q).values, np.log(0.5) + 1.0, atol=1e-15
        )

    def test_shannon_zero_convention_and_boundary_refusal(self):
        sp = unit_space(2)
        E = catalog_entropy("shannon", sp)
        assert E.value(sp.density([1.0, 0.0])) == 0.0  # 0 log 0 := 0
        with pytest.raises(DomainError):
            E.subgradient(sp.density([1.0, 0.0]))

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 100, 1000, 10_000])
    def test_shannon_value_matches_xlogy_bit_for_bit(self, n):
        from scipy.special import xlogy  # reference implementation

        rng = np.random.default_rng([17, n])
        w = rng.uniform(0.1, 10.0, size=n)
        sp = MeasureSpace(w)
        E = catalog_entropy("shannon", sp)
        edge = [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 0.5, 1.0]
        # numpy's SIMD log differs from libm in a few entries per thousand; a
        # one-ulp change in one term shows in the sum only when n is small, so
        # small n gets many trials.
        for trial in range(max(40, 2000 // n)):
            q = rng.dirichlet(np.ones(n)) * math.exp(rng.uniform(-5.0, 5.0))
            mask = rng.random(n) < 0.2
            pool = edge + [1e300] if trial % 4 == 0 else edge
            q[mask] = rng.choice(pool, size=int(mask.sum()))
            q = sp.cone(q)
            assert E.value(q) == math.fsum((xlogy(q.values, q.values) * w).tolist())

    def test_power_two_matches_quadratic(self):
        sp = unit_space(3)
        E2 = catalog_entropy("power", sp, gamma=2.0)
        Eq = catalog_entropy("quadratic", sp)
        rng = np.random.default_rng(0)
        for _ in range(20):
            q = sample_positive_box(sp, rng)
            assert E2.value(q) == pytest.approx(Eq.value(q), rel=1e-14)
            np.testing.assert_allclose(
                E2.subgradient(q).values, Eq.subgradient(q).values, rtol=1e-14
            )

    def test_pseudospherical_formula(self):
        sp = MeasureSpace([0.5, 1.5])
        E = catalog_entropy("pseudospherical", sp, gamma=3.0)
        q = sp.cone([1.0, 2.0])
        raw = 1.0 ** 3 * 0.5 + 2.0 ** 3 * 1.5
        assert E.value(q) == pytest.approx(raw ** (1 / 3), rel=1e-15)
        np.testing.assert_allclose(
            E.subgradient(q).values,
            np.array([1.0, 4.0]) / raw ** (2 / 3),
            rtol=1e-14,
        )

    def test_pseudospherical_large_gamma_leaves_no_float_range(self):
        # sum q^2000 mu underflows at densities (0.7^2000 is subnormal) and
        # overflows at 2^2000; both are read at q / max q instead
        sp = unit_space(3)
        E = catalog_entropy("pseudospherical", sp, gamma=2000.0)
        rule = make_psr(E)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q = sp.density([0.5, 0.25, 0.25])
            assert rule.score(q).values[0] == 1.0
            assert pair(q, rule.score(q)) == 0.5
            np.testing.assert_allclose(rule.score(sp.density([0.1, 0.2, 0.7])).values,
                                       [0.0, 0.0, 1.0], rtol=0.0, atol=1e-15)
            assert rule.score(sp.density([0.7, 0.15, 0.15])).values.tolist() == [1.0, 0.0, 0.0]
            big = sp.cone([2.0, 1.0, 2.0])
            assert E.value(big) == 2.0 * 2.0 ** (1 / 2000)
            np.testing.assert_array_equal(E.subgradient(big).values,
                                          np.array([1.0, 0.0, 1.0]) / 2.0 ** (1999 / 2000))

    @pytest.mark.parametrize("scale", [2.9e-303, 1e160, -1e160])
    def test_spherical_leaves_no_float_range(self, scale):
        # sum q^2 mu underflows to 0 at 2.9e-303 and overflows at 1e160; both
        # are read at q / max |q|, as pseudospherical(2) reads them
        sp = MeasureSpace([0.5, 1.0, 2.0])
        E = catalog_entropy("spherical", sp)
        q = sp.cone([scale] * 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert E.value(q) == pytest.approx(abs(scale) * 3.5 ** 0.5, rel=1e-15)
            np.testing.assert_allclose(E.subgradient(q).values, [math.copysign(3.5 ** -0.5, scale)] * 3,
                                       rtol=1e-15)
        if scale > 0:
            pseudo = catalog_entropy("pseudospherical", sp, gamma=2.0)
            assert E.value(q) == pytest.approx(pseudo.value(q), rel=1e-15)
            np.testing.assert_allclose(E.subgradient(q).values, pseudo.subgradient(q).values, rtol=1e-15)

    def test_weighted_quadratic_is_the_quadratic_form(self):
        rng = np.random.default_rng(5)
        sp = MeasureSpace(rng.uniform(0.5, 2.0, size=4))
        a = rng.normal(size=(4, 4))
        Q = a.T @ a + 4.0 * np.eye(4)
        E = catalog_entropy("weighted_quadratic", sp, matrix=Q)
        q = sp.cone(rng.normal(size=4))
        assert E.value(q) == pytest.approx(float(q.values @ Q @ q.values), rel=1e-13)
        # the dual representer reproduces the directional derivative
        d = sp.cone(rng.normal(size=4))
        assert pair(d, E.subgradient(q)) == pytest.approx(
            float(2.0 * d.values @ Q @ q.values), rel=1e-12
        )

    def test_norm_entropies_refuse_the_origin(self):
        sp = unit_space(2)
        origin = sp.cone([0.0, 0.0])
        with pytest.raises(DomainError):
            catalog_entropy("spherical", sp).subgradient(origin)
        with pytest.raises(DomainError):
            catalog_entropy("pseudospherical", sp, gamma=3.0).subgradient(origin)

    def test_power_entropies_reject_negative_input(self):
        sp = unit_space(2)
        point = sp.cone([0.5, -0.1])
        for E in (
            catalog_entropy("power", sp, gamma=1.5),
            catalog_entropy("shannon", sp),
            catalog_entropy("pseudospherical", sp, gamma=3.0),
        ):
            with pytest.raises(DomainError):
                E.value(point)

    def test_parameter_validation(self):
        sp = unit_space(2)
        with pytest.raises(ConstructionError):
            catalog_entropy("power", sp, gamma=1.0)
        with pytest.raises(ConstructionError):
            catalog_entropy("pseudospherical", sp, gamma=0.5)
        for name in ("power", "pseudospherical"):
            with pytest.raises(ConstructionError):
                catalog_entropy(name, sp, gamma=math.inf)
        with pytest.raises(ConstructionError):
            catalog_entropy("frobnicate", sp)
        with pytest.raises(ConstructionError):
            catalog_entropy("weighted_quadratic", sp, matrix=[[1.0, 2.0], [2.0, 1.0]])  # indefinite
        with pytest.raises(ConstructionError):
            catalog_entropy("weighted_quadratic", sp, matrix=[[1.0, 0.5], [0.0, 1.0]])  # asymmetric
        with pytest.raises(ConstructionError):
            catalog_entropy("quadratic", sp, gamma=2.0)

    @pytest.mark.parametrize("spec, parsed", [
        ("quadratic", ("quadratic", None)),
        ("power(1.5)", ("power", 1.5)),
        (" pseudospherical(3) ", ("pseudospherical", 3.0)),
    ])
    def test_parse_rule_spec(self, spec, parsed):
        assert parse_rule_spec(spec) == parsed

    @pytest.mark.parametrize("spec", ["", "Power(2)", "power(1.5", "power((2))", "power(x)", "power()"])
    def test_parse_rule_spec_rejects_malformed(self, spec):
        with pytest.raises(ConstructionError):
            parse_rule_spec(spec)

    @pytest.mark.parametrize("name", ["power", "pseudospherical"])
    @pytest.mark.parametrize("gamma, text", [
        (1.5, "1.5"), (3.0, "3"), (1100.0, "1100"), (2000.0, "2000"), (1.0000001, "1.0000001"),
        (1.00000012, "1.00000012"), (123456789.0, "123456789"), (1e20, "1e+20"), (1.0 + 2 ** -52, None),
    ])
    def test_an_exponent_keeps_its_shortest_round_trip_form_in_the_name(self, name, gamma, text):
        # the form of %g kept 6 digits: power(1.0000001) was named power(1), an exponent refused
        entropy = catalog_entropy(name, unit_space(2), gamma=gamma)
        assert parse_rule_spec(entropy.name) == (name, gamma)
        assert text is None or entropy.name == f"{name}({text})"


class TestFisher:
    # 4 atoms of weight h = 0.5, so (D q)_i = q[i+1] - q[i-1] and F(q) = sum (D q)^2 / q h
    SPACE = MeasureSpace([0.5] * 4)

    def test_a_zero_atom_takes_the_perspectives_closure(self):
        rows = np.array([[0.0, 1.0, 2.0, 1.0],  # D q = (0, 2, 0, -2): the zero atom's term is 0
                         [0.0, 1.0, 3.0, 2.0],  # D q = -1 at the zero atom: its term is +inf
                         [0.0, 0.0, 0.0, 0.0],  # every term is 0
                         [1.0, 2.0, 2.0, 1.0]])  # D q = (1, 1, -1, -1): 1/1 h + 1/2 h + 1/2 h + 1/1 h
        values = catalog_entropy("fisher", self.SPACE).value_rows(rows)
        np.testing.assert_array_equal(values, [4.0, math.inf, 0.0, 1.5])

    def test_zero_atoms_have_no_subgradient_and_no_score(self):
        E = catalog_entropy("fisher", self.SPACE)
        rows = np.array([[1.0, 1.0, 1.0, 1.0], [0.0, 1.0, 2.0, 1.0], [1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 0.0, 0.0]])
        for oracle in (E.value_grad_rows, make_psr(E).score_rows):
            with pytest.raises(DomainError) as info:
                oracle(rows)
            assert str(info.value) == "fisher subgradient does not exist at zero atoms, in rows 2, 4"


_SIGN_SPACE = MeasureSpace([0.5, 1.0, 2.0])
_SIGN_SUBJECTS = (*CATALOG_SPECS, "weighted_quadratic", "shannon@rebased", "composite@orthant")


def _sign_subject(name: str):
    if name == "weighted_quadratic":
        return catalog_entropy(name, _SIGN_SPACE, matrix=np.diag([1.0, 2.0, 3.0]) + 0.5)
    if name == "shannon@rebased":
        return rebase_entropy(catalog_entropy("shannon", _SIGN_SPACE), _SIGN_SPACE.cone([0.5, 1.0, 1.5]))
    if name == "composite@orthant":  # (sum q nu)^2: its own oracles accept any row
        return integrated_square_composite(_SIGN_SPACE, np.array([1.0, 2.0, 0.5]))
    return entropy_from_spec(name, _SIGN_SPACE)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_SIGN_SUBJECTS), st.sampled_from(["value_rows", "value_grad_rows", "closed_form_rows"]),
       st.lists(st.one_of(st.floats(-2.0, 2.0), st.sampled_from([0.0, -0.0])), min_size=3, max_size=3))
def test_value_rows_is_undefined_exactly_off_a_sign_bounded_domain(name, oracle, row):
    # every oracle of an entropy on a sign-bounded domain refuses a row with an entry
    # below 0, the rule the subgradient probe applies up front instead of calling it
    E = _sign_subject(name)
    rows_of = getattr(E, oracle)
    assume(rows_of is not None)
    rows = np.array([row])
    if E.domain.nonnegative and (rows < 0.0).any():
        with pytest.raises(DomainError, match="requires nonnegative input"):
            rows_of(rows)
    elif oracle == "value_rows":
        assert np.isfinite(E.value_rows(rows)).all()
    else:
        try:
            results = rows_of(rows)
            assert not any(np.isnan(part).any() for part in (results if oracle == "value_grad_rows" else [results]))
        except DomainError as exc:  # no finite subgradient, e.g. shannon at a zero atom, spherical at 0
            assert oracle != "value_rows" and "requires nonnegative input" not in str(exc)


# Entries that send numpy's SIMD pow and log off their fast path: signed zeros, subnormals,
# the float maximum and its neighbourhood, infinities and NaN of either sign.
_SPECIAL_ENTRIES = np.array([0.0, -0.0, 5e-324, 1e-310, -1e-310, 2.2250738585072014e-308, 1.0,
                             1.7976931348623157e308, 1e308, 1e300, math.inf, -math.inf, math.nan, -math.nan])


def _bits(values: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(values).view(np.int64)


@pytest.mark.parametrize("gamma", [1.0 + 1e-6, 1.5, 2.0, 2.5, 3.0, 50.0])
def test_zero_safe_pow_and_log_keep_numpys_bits(gamma):
    # every entry, NaN payloads and signed zeros included, against numpy's own kernels, on
    # batches with and without zeros, of lengths inside one SIMD vector and across many
    rng = np.random.default_rng(int(gamma * 1000))
    for shape in [(1, 1), (1, 7), (3, 5), (4, 64), (40, 250)]:
        for share in (0.0, 0.1, 0.5, 1.0):
            q = rng.uniform(0.0, 2.0, size=shape) * 10.0 ** rng.integers(-300, 300, size=shape)
            special = rng.random(shape) < share
            q[special] = rng.choice(_SPECIAL_ENTRIES, size=int(special.sum()))
            with np.errstate(all="ignore"):
                for exponent in (gamma, gamma - 1.0):
                    assert (_bits(entropies._pow(q, exponent)) == _bits(np.power(q, exponent))).all(), exponent
                assert (_bits(entropies._log(q)) == _bits(np.log(q))).all()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(min_value=0.0, allow_infinity=False), min_size=1, max_size=64),
       st.one_of(st.sampled_from([1.0 + 1e-6, 1.5, 3.0, 11.0, 50.0]), st.floats(1.0, 1e3, exclude_min=True)))
def test_float_power_is_pythons_pow_bit_for_bit(bases, gamma):
    # pseudospherical's row powers: numpy's generic float_power loop calls libm's pow, as ** does
    # (np.power's SIMD kernel does not); a numpy whose float_power is vectorised fails here
    x = np.array(bases)
    for exponent in (1.0 / gamma, (gamma - 1.0) / gamma):
        assert (_bits(np.float_power(x, exponent)) == _bits(np.array([b ** exponent for b in bases]))).all()


@pytest.mark.parametrize("spec, owner, helper", [("spherical", np, "sqrt"), ("pseudospherical(3)", np, "float_power"),
                                                 ("fisher", entropies, "_positive_sums")])
def test_one_homogeneous_scores_compute_no_value(monkeypatch, spec, owner, helper):
    # a 1-homogeneous entropy scores with its subgradient: its closed form gives the bits of
    # value_grad_rows' subgradient and makes none of the call (here counted) that ends its value
    entropy = entropy_from_spec(spec, MeasureSpace(np.full(8, 0.125)))
    rows = np.random.default_rng(5).dirichlet(np.ones(8), size=20) * 8.0
    calls, original = [], getattr(owner, helper)
    monkeypatch.setattr(owner, helper, lambda *args, **kwargs: calls.append(helper) or original(*args, **kwargs))
    scores = entropy.closed_form_rows(rows)
    scored = len(calls)
    _, grad = entropy.value_grad_rows(rows)
    assert len(calls) - scored == scored + 1
    assert (_bits(scores) == _bits(grad)).all()


class TestConvexityAndHomogeneity:
    @pytest.mark.parametrize("spec", CATALOG_SPECS)
    def test_midpoint_convexity_sampled(self, spec):
        sp = unit_space(3)
        E = entropy_from_spec(spec, sp)
        rng = np.random.default_rng(21)
        for _ in range(200):
            p = sample_positive_box(sp, rng)
            q = sample_positive_box(sp, rng)
            t = rng.uniform(0.05, 0.95)
            mix = t * p + (1.0 - t) * q
            chord = t * E.value(p) + (1.0 - t) * E.value(q)
            assert E.value(mix) <= chord + 1e-10

    @pytest.mark.parametrize("spec", ["spherical", "pseudospherical(3)"])
    def test_degree_one_homogeneity(self, spec):
        sp = unit_space(3)
        E = entropy_from_spec(spec, sp)
        rng = np.random.default_rng(22)
        for _ in range(50):
            q = sample_positive_box(sp, rng)
            v = E.value(q)
            for lam in (0.5, 2.0, 10.0):
                assert abs(E.value(lam * q) - lam * v) <= 1e-12 * (1.0 + abs(lam * v))

    @pytest.mark.parametrize("spec", CATALOG_SPECS)
    def test_subgradient_inequality(self, spec):
        # value(p) - value(q) >= pair(p - q, grad(q)), the defining property
        sp = unit_space(3)
        E = entropy_from_spec(spec, sp)
        rng = np.random.default_rng(23)
        for _ in range(1000):
            p = sample_positive_box(sp, rng)
            q = sample_positive_box(sp, rng)
            gap = E.value(p) - E.value(q) - pair(p - q, E.subgradient(q))
            assert gap >= -1e-10

    @pytest.mark.parametrize("spec", ["spherical", "pseudospherical(3)"])
    def test_euler_identity_for_sublinear_entropies(self, spec):
        sp = unit_space(4)
        E = entropy_from_spec(spec, sp)
        rng = np.random.default_rng(24)
        for _ in range(200):
            q = sample_positive_box(sp, rng)
            v = E.value(q)
            assert abs(pair(q, E.subgradient(q)) - v) <= 1e-10 * (1.0 + abs(v))


class TestCanonicalExtension:
    def test_doubling_mass_doubles_value(self):
        sp = unit_space(2)
        E = catalog_entropy("quadratic", sp)
        assert canonical_extension_value(E, sp.cone([1.0, 1.0])) == pytest.approx(1.0, abs=1e-15)
        assert canonical_extension_value(E, sp.cone([2.0, 2.0])) == pytest.approx(2.0, abs=1e-15)

    @pytest.mark.parametrize("spec", CATALOG_SPECS)
    def test_density_is_a_fixed_point(self, spec):
        sp = unit_space(3)
        E = entropy_from_spec(spec, sp)
        rng = np.random.default_rng(31)
        for _ in range(20):
            p = sp.density(rng.dirichlet(np.ones(3)))
            assert canonical_extension_value(E, p) == pytest.approx(E.value(p), rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("spec", CATALOG_SPECS)
    def test_one_homogeneity_of_extension(self, spec):
        sp = unit_space(3)
        E = entropy_from_spec(spec, sp)
        rng = np.random.default_rng(32)
        for _ in range(50):
            q = sample_positive_box(sp, rng)
            v = canonical_extension_value(E, q)
            for lam in (0.5, 2.0, 10.0):
                scaled = canonical_extension_value(E, lam * q)
                assert abs(scaled - lam * v) <= 1e-12 * (1.0 + abs(lam * v))

    def test_zero_mass_rejected(self):
        sp = unit_space(2)
        E = catalog_entropy("quadratic", sp)
        with pytest.raises(DomainError):
            canonical_extension_value(E, sp.cone([0.0, 0.0]))
        with pytest.raises(DomainError):
            canonical_extension_value(E, sp.cone([1.0, -1.0]))


class TestExtendedSubgradient:
    def test_quadratic_cone_point(self):
        sp = unit_space(2)
        E = catalog_entropy("quadratic", sp)
        g = extended_subgradient(E, sp.cone([1.0, 1.0]))
        np.testing.assert_allclose(g.values, [0.5, 0.5], atol=1e-15)
        assert pair(sp.cone([1.0, 1.0]), g) == pytest.approx(1.0, abs=1e-15)

    def test_spherical_is_its_own_extension(self):
        sp = unit_space(2)
        E = catalog_entropy("spherical", sp)
        g = extended_subgradient(E, sp.cone([3.0, 4.0]))
        np.testing.assert_allclose(g.values, [0.6, 0.8], atol=1e-15)

    @pytest.mark.parametrize("spec", CATALOG_SPECS)
    def test_scale_invariance(self, spec):
        sp = unit_space(3)
        E = entropy_from_spec(spec, sp)
        rng = np.random.default_rng(33)
        for _ in range(30):
            q = sample_positive_box(sp, rng)
            g = extended_subgradient(E, q).values
            for lam in (0.5, 2.0, 7.0, 10.0):
                g_scaled = extended_subgradient(E, lam * q).values
                np.testing.assert_allclose(g_scaled, g, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("spec", CATALOG_SPECS)
    def test_euler_identity_on_cone(self, spec):
        sp = unit_space(3)
        E = entropy_from_spec(spec, sp)
        rng = np.random.default_rng(34)
        for _ in range(100):
            q = sample_positive_box(sp, rng)
            lhs = pair(q, extended_subgradient(E, q))
            rhs = canonical_extension_value(E, q)
            assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(rhs))


class TestDirectionalDerivative:
    def test_quadratic_analytic_value(self):
        sp = unit_space(2)
        E = catalog_entropy("quadratic", sp)
        fd = directional_derivative_fd(E, sp.density([0.5, 0.5]), sp.cone([1.0, 0.0]))
        assert fd == pytest.approx(1.0, abs=1e-6)  # 2 sum q_i p_i mu_i

    def test_power_two_matches_quadratic(self):
        sp = unit_space(2)
        E = catalog_entropy("power", sp, gamma=2.0)
        fd = directional_derivative_fd(E, sp.density([0.5, 0.5]), sp.cone([1.0, 0.0]))
        assert fd == pytest.approx(1.0, abs=1e-6)

    def test_shannon_boundary_diverges(self):
        sp = unit_space(2)
        E = catalog_entropy("shannon", sp)
        fd = directional_derivative_fd(E, sp.cone([1.0, 0.0]), sp.cone([0.0, 1.0]))
        assert fd == -math.inf

    def test_step_leaving_domain_rejected(self):
        sp = unit_space(2)
        E = catalog_entropy("shannon", sp)
        with pytest.raises(DomainError):
            directional_derivative_fd(E, sp.cone([1.0, 0.0]), sp.cone([0.0, -1.0]))

    def test_direction_on_another_space_rejected(self):
        E = catalog_entropy("quadratic", unit_space(2))
        with pytest.raises(StructureError):
            directional_derivative_fd(E, unit_space(2).cone([1.0, 1.0]), MeasureSpace([1.0, 2.0]).cone([1.0, 0.0]))

    @pytest.mark.parametrize("spec", ["quadratic", "power(1.5)", "power(3)", "spherical", "pseudospherical(3)"])
    def test_two_sided_match_with_subgradient(self, spec):
        # at interior points the one-sided derivatives agree in both
        # directions and reproduce the pairing against the subgradient
        sp = unit_space(3)
        E = entropy_from_spec(spec, sp)
        rng = np.random.default_rng(35)
        for _ in range(100):
            q = sp.cone(rng.uniform(0.1, 2.0, size=3))
            d = sp.cone(rng.normal(size=3))
            forward = directional_derivative_fd(E, q, d)
            backward = directional_derivative_fd(E, q, -d)
            analytic = pair(d, E.subgradient(q))
            assert forward == pytest.approx(analytic, abs=1e-6)
            assert backward == pytest.approx(-analytic, abs=1e-6)


class TestCompositeEntropy:
    def _quadratic_spec(self, nu):
        return CompositeEntropySpec(
            outer=lambda x: x,
            outer_derivative=lambda x: 1.0,
            inner=lambda v: v * v,
            inner_derivative=lambda v: 2.0 * v,
            nu_weights=nu,
        )

    def test_identity_outer_reproduces_quadratic(self):
        sp = unit_space(3)
        E = composite_entropy(
            self._quadratic_spec(sp.weights), ConvexDomainSpec.nonnegative_orthant(sp)
        )
        Eq = catalog_entropy("quadratic", sp)
        rng = np.random.default_rng(41)
        for _ in range(100):
            p = sp.density(rng.dirichlet(np.ones(3)))
            assert abs(E.value(p) - Eq.value(p)) <= 1e-12
            np.testing.assert_allclose(
                E.subgradient(p).values, Eq.subgradient(p).values, atol=1e-12
            )

    def test_sqrt_outer_reproduces_spherical(self):
        sp = unit_space(3)
        spec = CompositeEntropySpec(
            outer=np.sqrt,
            outer_derivative=lambda x: 0.5 / np.sqrt(x),
            inner=lambda v: v * v,
            inner_derivative=lambda v: 2.0 * v,
            nu_weights=sp.weights,
        )
        E = composite_entropy(spec, ConvexDomainSpec.nonnegative_orthant(sp))
        Es = catalog_entropy("spherical", sp)
        rng = np.random.default_rng(42)
        for _ in range(50):
            q = sample_positive_box(sp, rng)
            assert E.value(q) == pytest.approx(Es.value(q), rel=1e-12)
            np.testing.assert_allclose(
                E.subgradient(q).values, Es.subgradient(q).values, rtol=1e-11
            )

    def test_cubic_inner_on_simplex_is_convex(self):
        sp = unit_space(3)
        spec = CompositeEntropySpec(
            outer=lambda x: x,
            outer_derivative=lambda x: 1.0,
            inner=lambda v: v ** 3,
            inner_derivative=lambda v: 3.0 * v * v,
            nu_weights=np.ones(3),
        )
        E = composite_entropy(spec, ConvexDomainSpec.simplex(sp))
        rng = np.random.default_rng(43)
        for _ in range(100):
            p = sp.density(rng.dirichlet(np.ones(3)))
            q = sp.density(rng.dirichlet(np.ones(3)))
            mid = (p + q) * 0.5
            assert E.value(mid) <= 0.5 * (E.value(p) + E.value(q)) + 1e-10

    def test_concave_composition_rejected(self):
        sp = unit_space(3)
        spec = CompositeEntropySpec(
            outer=np.sqrt,
            outer_derivative=lambda x: 0.5 / np.sqrt(x),
            inner=lambda v: v,
            inner_derivative=lambda v: np.ones_like(v),
            nu_weights=np.ones(3),
        )
        with pytest.raises(ConstructionError):
            composite_entropy(spec, ConvexDomainSpec.nonnegative_orthant(sp))

    def test_decreasing_outer_rejected(self):
        sp = unit_space(3)
        spec = CompositeEntropySpec(
            outer=lambda x: -x,
            outer_derivative=lambda x: -1.0,
            inner=lambda v: v * v,
            inner_derivative=lambda v: 2.0 * v,
            nu_weights=np.ones(3),
        )
        with pytest.raises(ConstructionError):
            composite_entropy(spec, ConvexDomainSpec.nonnegative_orthant(sp))

    def test_nu_must_be_positive(self):
        with pytest.raises(ConstructionError):
            self._quadratic_spec(np.array([1.0, -1.0, 1.0]))


@pytest.mark.parametrize("build, message", [
    (lambda sp: catalog_entropy("weighted_quadratic", sp, matrix=np.eye(2)),
     "weighted_quadratic needs a 3x3 matrix"),
    (lambda sp: catalog_entropy("weighted_quadratic", sp), "weighted_quadratic needs a matrix"),
    (lambda sp: catalog_entropy("quadratic", sp, matrix=np.eye(3)), "quadratic entropy takes no matrix"),
    (lambda sp: catalog_entropy("power", sp, gamma=1.5, matrix=np.eye(3)), "power entropy takes no matrix"),
    (lambda sp: catalog_entropy("frobnicate", sp, gamma=2.0),
     "unknown entropy 'frobnicate'; catalog: quadratic, spherical, power, shannon, pseudospherical, "
     "weighted_quadratic, fisher"),
    (lambda sp: integrated_square_composite(sp, np.ones(2)), "nu weights do not match the space size"),
    (lambda sp: catalog_entropy("fisher", sp), "fisher entropy needs at least 4 atoms of equal weight"),
    (lambda sp: catalog_entropy("fisher", MeasureSpace([1.0, 1.0, 1.0, 2.0])),
     "fisher entropy needs at least 4 atoms of equal weight"),
    (lambda sp: catalog_entropy("fisher", MeasureSpace([1.0] * 4), gamma=2.0), "fisher entropy takes no exponent"),
], ids=["matrix-shape", "matrix-missing", "matrix-to-quadratic", "matrix-to-power", "unknown-with-exponent",
        "nu-size", "fisher-on-three-atoms", "fisher-on-unequal-weights", "fisher-with-exponent"])
def test_entropy_constructions_refuse_ingredients_that_do_not_fit(build, message):
    with pytest.raises(ConstructionError) as info:
        build(unit_space(3))
    assert str(info.value) == message
