"""Direction cones, lineality spaces, quasi-interior, and subgradient probes."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from entroscore import (
    ConstructionError,
    ConvexDomainSpec,
    DomainError,
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

from conftest import unit_space


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
        directions += [p - q for p in K.sample(rng, 30)]
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
        payload = result.as_dict()
        assert payload["rejected"][0]["candidate"] == [2.0, 1.0]
        assert isinstance(payload["unique_claim"], bool)


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
        for point in K.sample(rng, 20):
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
            K.sample(np.random.default_rng(0), 1)


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
