"""Direction cones, lineality spaces, quasi-interior, and subgradient probes."""

import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from entroscore import (
    FD_STEP,
    ConstructionError,
    ConvexDomainSpec,
    DomainError,
    Entropy,
    MeasureSpace,
    annihilator_basis,
    catalog_entropy,
    direction_cone_membership,
    directional_derivative_fd,
    is_quasi_interior,
    lineality_space,
    pair,
    sample_density,
    subdifferential_probe,
)
from entroscore import geometry
from entroscore.geometry import _feasible_rows

from conftest import CATALOG_SPECS, entropy_from_spec, ref_subdifferential_probe, unit_space


def random_orthant_point(space, rng, allow_boundary=True):
    """Random orthant point; with probability ~1/2 some coordinates are exactly 0."""
    values = rng.uniform(0.0, 2.0, size=space.size)
    if allow_boundary and rng.uniform() < 0.5:
        mask = rng.uniform(size=space.size) < 0.5
        if mask.all():
            mask[rng.integers(space.size)] = False
        values[mask] = 0.0
    return space.cone(values)


def random_simplex_point(space, rng, allow_boundary=True):
    values = rng.dirichlet(np.ones(space.size)) / space.weights
    if allow_boundary and rng.uniform() < 0.5:
        mask = rng.uniform(size=space.size) < 0.5
        if mask.all():
            mask[rng.integers(space.size)] = False
        values[mask] = 0.0
        values = values / math.fsum((values * space.weights).tolist())
    return space.cone(values)


class TestMembership:
    def test_simplex(self):
        sp = unit_space(2)
        K = ConvexDomainSpec.simplex(sp)
        assert K.contains(sp.density([0.5, 0.5]))
        assert K.contains(sp.cone([1.0, 0.0]))
        assert not K.contains(sp.cone([0.7, 0.7]))
        assert not K.contains(sp.cone([1.5, -0.5]))

    def test_orthant(self):
        sp = unit_space(2)
        K = ConvexDomainSpec.nonnegative_orthant(sp)
        assert K.contains(sp.cone([0.0, 3.0]))
        assert not K.contains(sp.cone([-0.1, 3.0]))

    def test_whole_space(self):
        sp = unit_space(2)
        K = ConvexDomainSpec.whole_space(sp)
        assert K.contains(sp.cone([-5.0, 7.0]))

    def test_cone_hull(self):
        sp = unit_space(2)
        K = ConvexDomainSpec.cone_hull(sp, [[1.0, 0.0], [1.0, 1.0]])
        assert K.contains(sp.cone([2.0, 1.0]))
        assert K.contains(sp.cone([0.0, 0.0]))
        assert not K.contains(sp.cone([0.0, 1.0]))
        assert not K.contains(sp.cone([-1.0, 0.0]))

    def test_halfspaces(self):
        sp = unit_space(2)
        K = ConvexDomainSpec.halfspace_intersection(sp, [[1.0, 1.0]], [1.0])
        assert K.contains(sp.cone([0.2, 0.3]))
        assert not K.contains(sp.cone([0.8, 0.8]))


    def test_simplex_mass_tolerance_is_not_scaled(self):
        # mass 1 + 1e-6 with a huge coordinate on the light atom: a tolerance
        # scaled by the point's size (5e7 * 1e-9) would accept it
        sp = MeasureSpace([1e-8, 1.0])
        K = ConvexDomainSpec.simplex(sp)
        assert K.contains(sp.cone([5e7, 0.5]))
        assert not K.contains(sp.cone([5e7, 0.5 + 1e-6]))


_FAMILIES = ("simplex", "orthant", "cone_hull", "halfspaces", "whole_space")


@st.composite
def _domain_point_direction(draw):
    """A domain of one family, a point of it (often on the boundary), a direction.

    Integer data and weights in {0.5, 1, 2} keep every constraint either met
    exactly by ``d`` or violated by far more than ``1e-6 * d`` can hide.
    """
    family = draw(st.sampled_from(_FAMILIES))
    n = draw(st.integers(2, 4))

    def ints(lo, hi):
        return np.array(draw(st.lists(st.integers(lo, hi), min_size=n, max_size=n)), dtype=float)

    sp = MeasureSpace(draw(st.lists(st.sampled_from([0.5, 1.0, 2.0]), min_size=n, max_size=n)))
    d = ints(-2, 2)
    if family == "simplex":
        k = ints(0, 3)
        assume(k.sum() > 0)
        return ConvexDomainSpec.simplex(sp), sp.cone(k / k.sum() / sp.weights), sp.cone(d / sp.weights)
    if family == "orthant":
        return ConvexDomainSpec.nonnegative_orthant(sp), sp.cone(ints(0, 3)), sp.cone(d)
    if family == "whole_space":
        return ConvexDomainSpec.whole_space(sp), sp.cone(ints(-3, 3)), sp.cone(d)
    rows = np.array([ints(-2, 2) for _ in range(draw(st.integers(1, 4)))])
    if family == "cone_hull":
        coeff = np.array(draw(st.lists(st.integers(0, 2), min_size=len(rows), max_size=len(rows))))
        return ConvexDomainSpec.cone_hull(sp, rows), sp.cone(coeff @ rows), sp.cone(d)
    q = ints(-2, 2)
    slack = np.array(draw(st.lists(st.sampled_from([0, 0, 1, 2]), min_size=len(rows), max_size=len(rows))))
    return ConvexDomainSpec.halfspace_intersection(sp, rows, rows @ q + slack), sp.cone(q), sp.cone(d)


class TestDirectionCone:
    @settings(max_examples=300, deadline=None)
    @given(_domain_point_direction())
    def test_agrees_with_membership_along_the_direction(self, case):
        K, q, d = case
        assert K.contains(q)
        assert direction_cone_membership(K, q, d) == K.contains(q + 1e-6 * d)
        # row i of the row tests is the one-point answer for row i
        rows = np.vstack([q.values + t * d.values for t in (0.0, 1e-6, -1e-6, 1.0, -1.0)])
        assert K.contains_rows(rows).tolist() == [K.contains(K.space.cone(r)) for r in rows]
        directions = np.vstack([d.values, -d.values, 2.0 * d.values, q.values, np.zeros(q.values.size)])
        assert (_feasible_rows(K, q.values, directions).tolist()
                == [direction_cone_membership(K, q, K.space.cone(r)) for r in directions])

    @pytest.mark.parametrize("make", [ConvexDomainSpec.nonnegative_orthant, ConvexDomainSpec.simplex])
    def test_large_n_queries_build_no_dense_block(self, make):
        # sign bounds are a flag: an n x n block of bound rows would take 32 MB
        n = 2000
        sp = unit_space(n)
        K = make(sp)
        q = sp.cone(np.r_[np.zeros(10), np.full(n - 10, 1.0 / (n - 10))])
        d = sp.cone(np.r_[np.ones(10), np.full(n - 10, -10.0 / (n - 10))])
        tracemalloc.start()
        try:
            assert K.contains(q)
            assert direction_cone_membership(K, q, d)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_orthant_boundary_direction(self):
        sp = unit_space(2)
        K = ConvexDomainSpec.nonnegative_orthant(sp)
        q = sp.cone([1.0, 0.0])
        assert direction_cone_membership(K, q, sp.cone([0.0, 1.0]))
        assert not direction_cone_membership(K, q, sp.cone([0.0, -1.0]))

    def test_interior_point_accepts_everything(self):
        sp = unit_space(2)
        K = ConvexDomainSpec.nonnegative_orthant(sp)
        rng = np.random.default_rng(90)
        q = sp.cone([1.0, 1.0])
        for _ in range(50):
            assert direction_cone_membership(K, q, sp.cone(rng.normal(size=2)))

    def test_simplex_needs_mass_preservation(self):
        sp = unit_space(2)
        K = ConvexDomainSpec.simplex(sp)
        q = sp.density([0.5, 0.5])
        assert direction_cone_membership(K, q, sp.cone([1.0, -1.0]))
        assert not direction_cone_membership(K, q, sp.cone([1.0, 0.0]))

    def test_base_point_must_be_inside(self):
        sp = unit_space(2)
        K = ConvexDomainSpec.nonnegative_orthant(sp)
        with pytest.raises(DomainError):
            direction_cone_membership(K, sp.cone([-1.0, 0.0]), sp.cone([1.0, 0.0]))

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_densities_are_feasible_directions(self, n):
        # for K = orthant or the cone hull of the simplex, every density is a
        # non-exterior direction at every simplex point
        rng = np.random.default_rng(91)
        sp = MeasureSpace(rng.uniform(0.5, 2.0, size=n))
        vertices = np.diag(1.0 / sp.weights)
        for K in (
            ConvexDomainSpec.nonnegative_orthant(sp),
            ConvexDomainSpec.cone_hull(sp, vertices),
        ):
            for _ in range(10):
                q = sample_density(sp, rng)
                assert K.contains(q)
                for _ in range(10):
                    p = sample_density(sp, rng)
                    assert direction_cone_membership(K, q, p)


class TestLinealitySpace:
    def test_orthant_boundary(self):
        sp = unit_space(2)
        K = ConvexDomainSpec.nonnegative_orthant(sp)
        basis = lineality_space(K, sp.cone([1.0, 0.0]))
        assert len(basis) == 1
        np.testing.assert_allclose(np.abs(basis[0].values), [1.0, 0.0], atol=1e-12)

    def test_orthant_interior_is_full(self):
        sp = unit_space(2)
        K = ConvexDomainSpec.nonnegative_orthant(sp)
        assert len(lineality_space(K, sp.cone([1.0, 1.0]))) == 2

    def test_simplex_interior_keeps_mass_constant(self):
        sp = unit_space(2)
        K = ConvexDomainSpec.simplex(sp)
        basis = lineality_space(K, sp.density([0.5, 0.5]))
        assert len(basis) == 1
        np.testing.assert_allclose(np.abs(basis[0].values), np.array([1.0, 1.0]) / math.sqrt(2.0), atol=1e-12)

    def test_orthonormal(self):
        rng = np.random.default_rng(92)
        sp = MeasureSpace(rng.uniform(0.5, 2.0, size=5))
        K = ConvexDomainSpec.simplex(sp)
        q = random_simplex_point(sp, rng)
        basis = lineality_space(K, q)
        mat = np.array([b.values for b in basis])
        np.testing.assert_allclose(mat @ mat.T, np.eye(len(basis)), atol=1e-12)


class TestQuasiInterior:
    def test_orthant_examples(self):
        sp = unit_space(2)
        K = ConvexDomainSpec.nonnegative_orthant(sp)
        assert is_quasi_interior(K, sp.cone([1.0, 1.0]))
        assert not is_quasi_interior(K, sp.cone([1.0, 0.0]))

    def test_simplex_relative_interior(self):
        sp = unit_space(2)
        K = ConvexDomainSpec.simplex(sp)
        assert is_quasi_interior(K, sp.density([0.5, 0.5]))
        assert not is_quasi_interior(K, sp.density([1.0, 0.0]))

    @pytest.mark.parametrize("make", [ConvexDomainSpec.nonnegative_orthant, ConvexDomainSpec.simplex])
    @pytest.mark.parametrize("zeros", [0, 10], ids=["interior", "boundary"])
    def test_large_n_builds_no_basis(self, make, zeros):
        # the two dimensions are ranks counted from singular values alone; the
        # null-space bases (n x n identities for empty blocks) took 64 MB at n = 2000
        n = 2000
        sp = unit_space(n)
        K = make(sp)
        q = sp.cone(np.r_[np.zeros(zeros), np.full(n - zeros, 1.0 / (n - zeros))])
        tracemalloc.start()
        try:
            assert is_quasi_interior(K, q) == (zeros == 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.parametrize("kind", ["orthant", "simplex"])
    def test_matches_direct_relative_interior_test(self, kind):
        # direct oracle: strict positivity of every non-affine constraint
        rng = np.random.default_rng(93)
        disagreements = 0
        for trial in range(500):
            n = int(rng.integers(2, 7))
            sp = MeasureSpace(rng.uniform(0.5, 2.0, size=n))
            if kind == "orthant":
                K = ConvexDomainSpec.nonnegative_orthant(sp)
                q = random_orthant_point(sp, rng)
            else:
                K = ConvexDomainSpec.simplex(sp)
                q = random_simplex_point(sp, rng)
            direct = bool(np.all(q.values > 0.0))
            if is_quasi_interior(K, q) != direct:
                disagreements += 1
        assert disagreements == 0

    def test_segment_property(self):
        # the open segment from a quasi-interior point stays quasi-interior
        rng = np.random.default_rng(94)
        sp = unit_space(4)
        for K, inner, outer in (
            (
                ConvexDomainSpec.nonnegative_orthant(sp),
                lambda: random_orthant_point(sp, rng, allow_boundary=False),
                lambda: random_orthant_point(sp, rng),
            ),
            (
                ConvexDomainSpec.simplex(sp),
                lambda: random_simplex_point(sp, rng, allow_boundary=False),
                lambda: random_simplex_point(sp, rng),
            ),
        ):
            for _ in range(50):
                q1, q2 = inner(), outer()
                assert is_quasi_interior(K, q1)
                for t in (0.25, 0.5, 0.75):
                    assert is_quasi_interior(K, t * q1 + (1.0 - t) * q2)

    def test_quasi_interior_is_convex(self):
        rng = np.random.default_rng(95)
        sp = unit_space(3)
        K = ConvexDomainSpec.nonnegative_orthant(sp)
        for _ in range(50):
            q1 = random_orthant_point(sp, rng, allow_boundary=False)
            q2 = random_orthant_point(sp, rng, allow_boundary=False)
            t = rng.uniform()
            assert is_quasi_interior(K, t * q1 + (1.0 - t) * q2)


class TestAnnihilator:
    def test_single_vector(self):
        sp = unit_space(2)
        basis = annihilator_basis([sp.cone([1.0, 0.0])])
        assert len(basis) == 1
        np.testing.assert_allclose(np.abs(basis[0].values), [0.0, 1.0], atol=1e-12)

    def test_full_basis_has_trivial_annihilator(self):
        sp = unit_space(2)
        assert annihilator_basis([sp.cone([1.0, 0.0]), sp.cone([0.0, 1.0])]) == []

    def test_empty_collection_gives_full_dual(self):
        sp = unit_space(2)
        basis = annihilator_basis([], sp)
        assert len(basis) == 2

    def test_annihilates_under_the_weighted_pairing(self):
        rng = np.random.default_rng(96)
        sp = MeasureSpace(rng.uniform(0.5, 2.0, size=5))
        vectors = [sp.cone(rng.normal(size=5)) for _ in range(2)]
        for f in annihilator_basis(vectors):
            for v in vectors:
                assert abs(pair(v, f)) <= 1e-10


_PROBE_DOMAINS = {"simplex": ConvexDomainSpec.simplex, "orthant": ConvexDomainSpec.nonnegative_orthant,
                  "whole_space": ConvexDomainSpec.whole_space}


@st.composite
def _probe_cases(draw):
    """A catalog entropy, a whole-space, orthant or simplex domain on drawn weights, a
    point with zero atoms, its gradient (a stand-in where there is none) and perturbations."""
    n = draw(st.integers(2, 4))
    sp = MeasureSpace(draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n)))
    family = draw(st.sampled_from(sorted(_PROBE_DOMAINS)))
    q = np.array(draw(st.lists(st.one_of(st.just(0.0), st.floats(0.1, 2.0)), min_size=n, max_size=n)))
    assume(q.any())
    if family == "simplex":
        q = q / (q @ sp.weights)
    E = entropy_from_spec(draw(st.sampled_from(CATALOG_SPECS)), sp)
    try:
        grad = E.subgradient(sp.cone(q)).values
    except DomainError:  # shannon at a zero atom
        grad = np.log(np.maximum(q, 1e-3)) + 1.0
    steps = st.lists(st.sampled_from([0.0, 0.0, 1e-5, -0.5, 0.3]), min_size=n, max_size=n)
    offsets = draw(st.lists(steps, min_size=1, max_size=3))
    candidates = [sp.dual(grad + np.array(d) / sp.weights) for d in offsets]
    return E, _PROBE_DOMAINS[family](sp), sp.cone(q), candidates, draw(st.integers(0, 2**32 - 1))


class TestSubdifferentialProbe:
    def test_orthant_corner_facet(self):
        # at q = (1, 0) the quadratic subdifferential relative to the orthant
        # is {(2, t) : t <= 0}; candidates with t > 0 must be rejected with a
        # concrete violating point
        sp = unit_space(2)
        E = catalog_entropy("quadratic", sp)
        K = ConvexDomainSpec.nonnegative_orthant(sp)
        q = sp.cone([1.0, 0.0])
        candidates = [sp.dual([2.0, t]) for t in (-2.0, -1.0, 0.0, 0.1, 1.0)]
        result = subdifferential_probe(E, K, q, candidates, seed=3)
        verified_t = sorted(c.values[1] for c in result.verified)
        rejected_t = sorted(r.candidate.values[1] for r in result.rejected)
        assert verified_t == [-2.0, -1.0, 0.0]
        assert rejected_t == [0.1, 1.0]
        assert not result.unique_claim
        for rejection in result.rejected:
            # witness reproduces a strict inequality violation
            gap = (
                E.value(rejection.witness)
                - E.value(q)
                - pair(rejection.witness - q, rejection.candidate)
            )
            assert gap < 0.0
            assert gap == rejection.gap

    def test_interior_point_unique_gradient(self):
        sp = unit_space(2)
        E = catalog_entropy("quadratic", sp)
        K = ConvexDomainSpec.nonnegative_orthant(sp)
        result = subdifferential_probe(E, K, sp.cone([1.0, 1.0]), [sp.dual([2.0, 2.0])], seed=3)
        assert len(result.verified) == 1
        assert result.unique_claim

    def test_shannon_on_simplex_relative_uniqueness(self):
        sp = unit_space(2)
        E = catalog_entropy("shannon", sp)
        K = ConvexDomainSpec.simplex(sp)
        q = sp.density([0.5, 0.5])
        candidate = sp.dual(np.log(q.values) + 1.0)
        result = subdifferential_probe(E, K, q, [candidate], seed=3)
        assert len(result.verified) == 1
        assert result.unique_claim

    def test_shifted_log_candidate_agrees_on_the_simplex(self):
        # log q + c differs from log q + 1 by an annihilator of the simplex
        # directions, so it verifies too; uniqueness is relative to the hull
        sp = unit_space(2)
        E = catalog_entropy("shannon", sp)
        K = ConvexDomainSpec.simplex(sp)
        q = sp.density([0.5, 0.5])
        result = subdifferential_probe(E, K, q, [sp.dual(np.log(q.values) + 7.0)], seed=3)
        assert len(result.verified) == 1

    def test_verified_candidates_respect_derivative_bound(self):
        # every verified candidate obeys pair(d, f) <= right derivative
        sp = unit_space(2)
        E = catalog_entropy("quadratic", sp)
        K = ConvexDomainSpec.nonnegative_orthant(sp)
        q = sp.cone([1.0, 0.0])
        candidates = [sp.dual([2.0, t]) for t in (-1.0, 0.0)]
        result = subdifferential_probe(E, K, q, candidates, seed=3)
        rng = np.random.default_rng(4)
        directions = [sp.cone([1.0, 0.0]), sp.cone([-1.0, 0.0]), sp.cone([0.0, 1.0])]
        directions += [sp.cone(p) - q for p in K.draw(rng, 30)]
        for cand in result.verified:
            for d in directions:
                fd = directional_derivative_fd(E, q, d)
                assert pair(d, cand) <= fd + 1e-6

    def test_default_probe_rejects_a_small_facet_violation(self):
        # the default probe (seed 0) finds the facet direction (0, 1) that the
        # slope 0.1 violates, though (2, 0.1) is close to the subdifferential
        sp = unit_space(2)
        E = catalog_entropy("quadratic", sp)
        K = ConvexDomainSpec.nonnegative_orthant(sp)
        result = subdifferential_probe(E, K, sp.cone([1.0, 0.0]), [sp.dual([2.0, 0.1])])
        assert result.verified == []
        assert len(result.rejected) == 1

    def test_probe_rejects_outside_base_point(self):
        sp = unit_space(2)
        E = catalog_entropy("quadratic", sp)
        K = ConvexDomainSpec.nonnegative_orthant(sp)
        with pytest.raises(DomainError):
            subdifferential_probe(E, K, sp.cone([-1.0, 0.0]), [sp.dual([1.0, 1.0])])

    def test_result_serializes(self):
        sp = unit_space(2)
        E = catalog_entropy("quadratic", sp)
        K = ConvexDomainSpec.nonnegative_orthant(sp)
        result = subdifferential_probe(E, K, sp.cone([1.0, 0.0]), [sp.dual([2.0, 1.0])], seed=3)
        payload = json.loads(json.dumps(result.as_dict()))
        assert set(payload) == {"verified", "rejected", "unique_claim"}
        assert [set(r) for r in payload["rejected"]] == [{"candidate", "witness", "gap"}]
        assert payload["rejected"][0]["candidate"] == [2.0, 1.0]
        assert isinstance(payload["unique_claim"], bool)

    def test_witness_is_the_first_of_tied_minima(self):
        # gap(p) = -pair(p - q, (1, 1)) for the zero entropy: the steps +0.5 e_1 and
        # +0.5 e_2 tie at -0.5, and every box sample (p < q) has a positive gap
        sp = unit_space(2)
        K = ConvexDomainSpec.nonnegative_orthant(sp)
        zero = Entropy("zero", K, lambda q: np.zeros(len(q)), lambda q: (np.zeros(len(q)), np.zeros_like(q)))
        result = subdifferential_probe(zero, K, sp.cone([10.0, 10.0]), [sp.dual([1.0, 1.0])])
        assert result.as_dict()["rejected"] == [{"candidate": [1.0, 1.0], "witness": [10.5, 10.0], "gap": -0.5}]

    def test_a_ray_without_a_valued_point_gives_its_far_end_and_a_nan_gap(self):
        # power(2) at (2e7, 1.5e-5) on weights (1e-20, 1): the candidate (4e7, 0) lacks the
        # gradient's 3e-5 on the second atom, so it breaches the derivative bound along -e_2.
        # The FD step 1e-5 stays in the orthant, but the ray walk's shortest step,
        # (1 + 2e7) / 2 * 2**-39 = 1.8e-5, leaves it: no point of the ray has a value
        sp = MeasureSpace([1e-20, 1.0])
        power = catalog_entropy("power", sp, gamma=2.0)
        result = subdifferential_probe(power, ConvexDomainSpec.whole_space(sp), sp.cone([2e7, 1.5e-5]),
                                       [sp.dual([4e7, 0.0])])
        (rejected,) = result.rejected
        assert result.verified == [] and rejected.witness.values.tolist() == [2e7, 1.5e-5 - 1.0]
        assert math.isnan(rejected.gap)

    @pytest.mark.parametrize("family", ["simplex", "orthant", "whole_space", "cone_hull"])
    def test_matches_the_per_point_probe(self, family):
        # Whole-space samples have negative atoms, where power and shannon raise:
        # those rows take the per-row fallback.  The candidate 1e-5 off the
        # gradient along an atom passes every sampled point but breaches the
        # derivative bound, so its witness comes from the ray walk.
        sp = MeasureSpace([0.5, 1.0, 2.0])
        rng = np.random.default_rng(len(family))
        for index, spec in enumerate(CATALOG_SPECS):
            for boundary in (False, True):
                if family == "cone_hull":
                    generators = np.abs(rng.normal(size=(3, 3))) + 0.1
                    K = ConvexDomainSpec.cone_hull(sp, generators)
                    q = rng.uniform(0.2, 1.0, size=3) * [1.0, 0.0 if boundary else 1.0, 1.0] @ generators
                else:
                    K = _PROBE_DOMAINS[family](sp)
                    q = rng.uniform(0.2, 2.0, size=3) * [1.0, 1.0, 0.0 if boundary else 1.0]
                    if family == "simplex":
                        q = q / (q @ sp.weights)
                E = entropy_from_spec(spec, sp)
                try:
                    grad = E.subgradient(sp.cone(q)).values
                except DomainError:  # shannon at a zero atom
                    grad = np.log(np.maximum(q, 1e-3)) + 1.0
                step = np.array([1.0 / sp.weights[0], 0.0, 0.0])
                candidates = [sp.dual(f) for f in (grad, grad + 1e-5 * step,
                                                  grad + 0.3 * rng.normal(size=3), grad - 0.5 * step)]
                seed = 2 * index + boundary
                got = subdifferential_probe(E, K, sp.cone(q), candidates, seed=seed)
                want = ref_subdifferential_probe(E, K, sp.cone(q), candidates, seed=seed)
                assert json.dumps(got.as_dict()) == json.dumps(want.as_dict()), (spec, boundary)

    @settings(max_examples=60, deadline=None)
    @given(_probe_cases())
    def test_matches_the_per_point_probe_on_drawn_cases(self, case):
        E, K, q, candidates, seed = case
        got = subdifferential_probe(E, K, q, candidates, seed=seed)
        want = ref_subdifferential_probe(E, K, q, candidates, seed=seed)
        assert json.dumps(got.as_dict()) == json.dumps(want.as_dict())

    def test_whole_space_probe_calls_each_oracle_once_per_batch(self):
        # sampled points with a negative atom are +inf for power without a call; one
        # value_rows call each for the base point, the sampled points, and the FD
        # steps of the one-sided and of the two-sided directions
        sp = MeasureSpace([0.5, 1.0, 2.0])
        power = catalog_entropy("power", sp, gamma=1.5)
        calls = []

        def counted(rows):
            calls.append(len(rows))
            return power.value_rows(rows)

        E = Entropy("counted power(1.5)", power.domain, counted, power.value_grad_rows)
        q = sp.cone([0.5, 1.0, 1.5])
        result = subdifferential_probe(E, ConvexDomainSpec.whole_space(sp), q, [power.subgradient(q)])
        assert len(result.verified) == 1 and result.unique_claim
        assert len(calls) == 4

    @pytest.mark.parametrize("point", [[2e154, 1.0, 1.0], [1.3e154, 1.3e154, 1.0]],
                             ids=["infinite-term", "finite-terms"])
    def test_a_base_point_without_a_finite_value_raises(self, point):
        # q q mu is inf at (2e154, 1, 1), and sums past the float range at the other
        # point; with value(q) = inf every gap would be NaN and every candidate verified
        sp = unit_space(3)
        E = catalog_entropy("quadratic", sp)
        candidates = [sp.dual([0.0, 0.0, 0.0]), sp.dual([1.0, 5.0, -3.0])]
        with pytest.raises(DomainError, match="no finite value at the probe base point"):
            subdifferential_probe(E, ConvexDomainSpec.whole_space(sp), sp.cone(point), candidates, seed=1)

    def test_a_value_sum_past_the_float_range_raises(self):
        # q q mu sums past the float range on some sampled points near q: the probe
        # raises rather than judge the true gradient on the other points
        sp = unit_space(3)
        E = catalog_entropy("quadratic", sp)
        q = sp.cone([1.1e154, 6e153, 1.0])
        with pytest.raises(DomainError, match="float range"):
            subdifferential_probe(E, ConvexDomainSpec.whole_space(sp), q, [E.subgradient(q)], seed=1)


class TestHalfspaceGeometry:
    def test_implicit_equality_lowers_the_affine_hull(self):
        # x1 <= 0 and -x1 <= 0 force x1 = 0: a line inside the plane
        sp = unit_space(2)
        K = ConvexDomainSpec.halfspace_intersection(
            sp, [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]], [0.0, 0.0, 1.0]
        )
        assert K.affine_hull_dimension() == 1
        q = sp.cone([0.0, 0.5])
        assert K.contains(q)
        assert is_quasi_interior(K, q)
        edge = sp.cone([0.0, 1.0])
        assert not is_quasi_interior(K, edge)
        assert not direction_cone_membership(K, q, sp.cone([1.0, 0.0]))
        assert direction_cone_membership(K, q, sp.cone([0.0, 1.0]))

    def test_whole_space_is_all_quasi_interior(self):
        sp = unit_space(3)
        K = ConvexDomainSpec.whole_space(sp)
        rng = np.random.default_rng(97)
        for point in map(sp.cone, K.draw(rng, 20)):
            assert is_quasi_interior(K, point)
            assert len(lineality_space(K, point)) == 3

    def test_unbounded_intersection_is_not_empty(self):
        # minimising x3 over this set is unbounded, which HiGHS can report as
        # infeasible; the set contains the origin and fills the space
        sp = unit_space(3)
        K = ConvexDomainSpec.halfspace_intersection(
            sp, [[1.0, 1.0, 1.0], [0.0, 0.0, 1.0], [-1.0, -1.0, -1.0]], [0.0, 0.0, 1.0]
        )
        assert K.affine_hull_dimension() == 3
        assert is_quasi_interior(K, sp.cone([0.0, 0.0, -0.5]))

    def test_empty_intersection_raises_at_construction(self):
        with pytest.raises(ConstructionError):
            ConvexDomainSpec.halfspace_intersection(unit_space(2), [[1.0, 0.0], [-1.0, 0.0]], [-1.0, 0.0])

    def test_general_halfspace_sampling_unsupported(self):
        sp = unit_space(2)
        K = ConvexDomainSpec.halfspace_intersection(sp, [[1.0, 1.0]], [1.0])
        with pytest.raises(DomainError):
            K.draw(np.random.default_rng(0), 1)


_HULL = [[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.5, 0.25, 3.0]]
_DRAWN_DOMAINS = {"simplex": ConvexDomainSpec.simplex, "orthant": ConvexDomainSpec.nonnegative_orthant,
                  "whole_space": ConvexDomainSpec.whole_space,
                  "cone_hull": lambda sp: ConvexDomainSpec.cone_hull(sp, _HULL)}


class TestDraws:
    @pytest.mark.parametrize("kind", sorted(_DRAWN_DOMAINS))
    def test_the_probe_draws_one_stream(self, kind):
        # the probe's points and then its direction points are one draw of both counts
        K = _DRAWN_DOMAINS[kind](MeasureSpace([0.5, 1.0, 2.0]))
        points, directions = geometry._PROBE_POINTS, geometry._PROBE_DIRECTIONS
        for seed in range(20):
            rng = np.random.default_rng(seed)
            apart = np.vstack([K.draw(rng, points), K.draw(rng, directions)])
            together = K.draw(np.random.default_rng(seed), points + directions)
            assert np.array_equal(apart.view(np.int64), together.view(np.int64))

    @pytest.mark.parametrize("kind, digests", [
        ("cone_hull", ["09cdd90bc16076c4", "45d44f7ad62779f5", "25d0ce97aa1e2c3c"]),
        ("whole_space", ["9c815f9a43da429e", "56007edf33de4bd4", "93f0f7877ff38d93"]),
    ])
    def test_draws_keep_their_bits(self, kind, digests):
        # sha256 prefixes of 232 rows at seeds 0-2, as drawn before sampling made these draws
        K = _DRAWN_DOMAINS[kind](MeasureSpace([0.5, 1.0, 2.0]))
        got = [hashlib.sha256(K.draw(np.random.default_rng(seed), 232).tobytes()).hexdigest()[:16]
               for seed in range(3)]
        assert got == digests


class TestConeHullGeometry:
    def test_halfplane_cone_has_line_lineality(self):
        # cone spanned by (1,0), (-1,0), (0,1) is the upper half-plane; at an
        # x-axis point the two-sided directions are the x-axis itself
        sp = unit_space(2)
        K = ConvexDomainSpec.cone_hull(sp, [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        basis = lineality_space(K, sp.cone([0.5, 0.0]))
        assert len(basis) == 1
        np.testing.assert_allclose(np.abs(basis[0].values), [1.0, 0.0], atol=1e-10)
        assert not is_quasi_interior(K, sp.cone([0.5, 0.0]))
        assert is_quasi_interior(K, sp.cone([0.0, 1.0]))

    def test_lower_dimensional_cone_uses_relative_hull(self):
        # a ray in the plane: affine hull is the line it spans
        sp = unit_space(2)
        K = ConvexDomainSpec.cone_hull(sp, [[1.0, 1.0]])
        assert K.affine_hull_dimension() == 1
        assert is_quasi_interior(K, sp.cone([2.0, 2.0]))
        assert not direction_cone_membership(K, sp.cone([1.0, 1.0]), sp.cone([1.0, 0.0]))
        assert direction_cone_membership(K, sp.cone([1.0, 1.0]), sp.cone([-0.5, -0.5]))


def test_fd_refuses_a_step_below_zero_that_membership_allows():
    # the step's entry 1e-6 - 1e-5 * 0.10001 = -1e-11 is inside contains_rows' 1e-9 slack,
    # but power(1.5) has no value below 0: the guard refuses it, not the oracle
    space = unit_space(3)
    entropy = catalog_entropy("power", space, gamma=1.5)
    q, p = space.cone([1.0, 1e-6, 0.5]), space.cone([0.0, -0.10001, 0.0])
    assert entropy.domain.contains_rows((q.values + FD_STEP * p.values)[None])[0]
    with pytest.raises(DomainError, match=r"^q \+ h p leaves the entropy domain$"):
        directional_derivative_fd(entropy, q, p)


def test_a_base_point_off_the_entropys_domain_refuses_every_direction():
    # the entropy lives on {x_1 <= 0}; q is just outside it, q - FD_STEP e_1 just inside
    space = unit_space(2)
    quadratic = catalog_entropy("quadratic", space)
    half = Entropy("half", ConvexDomainSpec.halfspace_intersection(space, [[1.0, 0.0]], [0.0]),
                   quadratic.value_rows, quadratic.value_grad_rows)
    whole = ConvexDomainSpec.whole_space(space)
    q = space.cone([5e-6, 1.0])
    # the gradient, and one that breaches the derivative bound along e_1 only
    candidates = [space.dual(2.0 * q.values), space.dual(2.0 * q.values + [1e-5, 0.0])]
    assert len(subdifferential_probe(quadratic, whole, q, candidates, seed=1).rejected) == 1
    result = subdifferential_probe(half, whole, q, candidates, seed=1)
    assert result.verified == candidates and result.rejected == []
    assert result.unique_claim is False


@pytest.mark.parametrize("build, message", [
    (lambda sp: ConvexDomainSpec.cone_hull(sp, [[1.0, 0.0]]), "generator points do not match the space size"),
    (lambda sp: ConvexDomainSpec.cone_hull(sp, np.zeros((0, 3))),
     "a conical hull needs at least one generator"),
    (lambda sp: ConvexDomainSpec.halfspace_intersection(sp, [[1.0, 0.0]], [1.0]),
     "half-space rows do not match the space size"),
    (lambda sp: ConvexDomainSpec.halfspace_intersection(sp, [[1.0, 0.0, 0.0]], [1.0, 2.0]),
     "half-space rows do not match the space size"),
    (lambda sp: annihilator_basis([]), "pass a space to take the annihilator of nothing"),
], ids=["cone-size", "cone-no-generators", "halfspace-size", "halfspace-offsets", "annihilator-of-nothing"])
def test_domain_constructions_refuse_what_fits_no_space(build, message):
    with pytest.raises(ConstructionError) as info:
        build(unit_space(3))
    assert str(info.value) == message


def test_rank_one_generators_on_both_sides_of_the_origin_span_a_line():
    sp = unit_space(3)
    line = ConvexDomainSpec.cone_hull(sp, [[1.0, 2.0, 0.0], [-2.0, -4.0, 0.0]])
    ray = ConvexDomainSpec.cone_hull(sp, [[1.0, 2.0, 0.0], [2.0, 4.0, 0.0]])
    assert line.inequalities[0].shape == (0, 3) and ray.inequalities[0].shape == (1, 3)
    assert line.contains(sp.cone([-3.0, -6.0, 0.0])) and not ray.contains(sp.cone([-3.0, -6.0, 0.0]))
    assert not line.contains(sp.cone([1.0, 0.0, 0.0]))
    assert line.affine_hull_dimension() == 1
    origin = sp.cone([0.0, 0.0, 0.0])
    assert is_quasi_interior(line, origin) and not is_quasi_interior(ray, origin)


def test_the_zero_generator_spans_the_origin_alone():
    # no ray to normalize, so no facets: the equalities pin every coordinate to 0
    sp = unit_space(3)
    origin = ConvexDomainSpec.cone_hull(sp, [[0.0, 0.0, 0.0]])
    assert origin.inequalities[0].shape == (0, 3) and origin.affine_hull_dimension() == 0
    assert origin.contains(sp.cone([0.0, 0.0, 0.0])) and not origin.contains(sp.cone([1e-6, 0.0, 0.0]))
    assert is_quasi_interior(origin, sp.cone([0.0, 0.0, 0.0]))
    assert lineality_space(origin, sp.cone([0.0, 0.0, 0.0])) == []


def test_the_probe_lets_an_oracles_own_domain_error_through():
    # an entropy without a value past q_1 = 2, which some sampled points reach: the probe
    # counts only float-range faults, so the oracle's own message comes through
    sp = unit_space(3)
    quadratic = catalog_entropy("quadratic", sp)

    def values(q):
        if (q[:, 0] > 2.0).any():
            raise DomainError("capped: no value past q_1 = 2")
        return quadratic.value_rows(q)

    capped = Entropy("capped", ConvexDomainSpec.whole_space(sp), values, lambda q: (values(q), 2.0 * q))
    q = sp.cone([1.0, 1.0, 1.0])
    with pytest.raises(DomainError) as info:
        subdifferential_probe(capped, ConvexDomainSpec.whole_space(sp), q, [sp.dual([2.0, 2.0, 2.0])], seed=1)
    assert str(info.value) == "capped: no value past q_1 = 2"


@pytest.mark.parametrize("entropy, domain, point, candidates, seed", [
    # the gradient verified, at a quasi-interior point: the uniqueness claim runs
    ("spherical", ConvexDomainSpec.whole_space, [1.0, 0.0, 0.0],
     [[2 ** 0.5, 0.0, 0.0], [2 ** 0.5, 1.0, 0.0]], 7),
    # the orthant corner of the verify golden config: verified candidates, not quasi-interior
    ("quadratic", ConvexDomainSpec.nonnegative_orthant, [1.0, 0.0, 0.5],
     [[2.0, 0.0, 1.0], [2.0, -1.0, 1.0], [2.0, 1.0, 1.0]], 7),
], ids=["spherical-whole-space", "quadratic-orthant-corner"])
def test_the_probe_checks_its_base_point_once_and_reads_one_lineality_basis(
        monkeypatch, entropy, domain, point, candidates, seed):
    sp = MeasureSpace([0.5, 1.0, 2.0])
    E, K, q = catalog_entropy(entropy, sp), domain(sp), sp.cone(point)
    duals = [sp.dual(c) for c in candidates]
    calls = []
    contains, lineality = ConvexDomainSpec.contains, geometry._lineality_rows
    monkeypatch.setattr(ConvexDomainSpec, "contains", lambda *a: calls.append("contains") or contains(*a))
    monkeypatch.setattr(geometry, "_lineality_rows", lambda *a: calls.append("lineality") or lineality(*a))
    result = subdifferential_probe(E, K, q, duals, seed=seed)
    assert result.verified == duals[:-1] and len(result.rejected) == 1
    assert sorted(calls) == ["contains", "lineality"]


def test_quasi_interior_refuses_a_point_outside_the_domain():
    sp = unit_space(2)
    with pytest.raises(DomainError) as info:
        is_quasi_interior(ConvexDomainSpec.simplex(sp), sp.cone([1.0, 1.0]))
    assert str(info.value) == "base point is not in the domain"


def test_fd_refuses_a_base_point_outside_the_entropys_domain():
    # the public FD call's one check on its base point: power(1.5) lives on the orthant
    sp = unit_space(2)
    power = catalog_entropy("power", sp, gamma=1.5)
    with pytest.raises(DomainError) as info:
        directional_derivative_fd(power, sp.cone([-1.0, 1.0]), sp.cone([1.0, 0.0]))
    assert str(info.value) == "base point is outside the entropy domain"
