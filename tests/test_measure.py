"""Pairing and normalization on finite measure spaces."""

import itertools
import math
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entroscore import (
    ConstructionError,
    ConvexDomainSpec,
    DomainError,
    MeasureSpace,
    StructureError,
    affine_score_at,
    annihilator_basis,
    bregman_divergence,
    canonical_extension_value,
    catalog_entropy,
    direction_cone_membership,
    expected_score,
    extended_subgradient,
    fsum_rows,
    lineality_space,
    make_psr,
    measure,
    normalize_rows,
    pair,
    pair_rows,
    rebase_entropy,
    require_density_rows,
    sampling,
    score_divergence,
    score_divergence_rows,
    subdifferential_probe,
    symmetry_defect,
)

from conftest import entropy_from_spec, ref_call, ref_pair, rule_from_spec, unit_space


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

    def test_mixed_batch_matches_the_per_row_reference_bit_for_bit(self):
        # one batch of finite rows and of rows whose log score is -inf on a zero atom, which
        # the row does (0) or does not (-inf) charge, or meets +inf too (NaN); then one p row
        # against every score row, the broadcast of score_divergence_rows
        rng = np.random.default_rng(23)
        n = 9
        w = rng.uniform(0.5, 2.0, n)
        q = rng.dirichlet(np.ones(n), 30) / w
        q[1::3, 2] = 0.0
        q[2::5, [0, 5]] = 0.0
        with np.errstate(divide="ignore"):
            f = np.log(q)
        f[0::3] = rng.normal(size=(10, n))  # all-finite rows
        f[4::6, 7] = -math.inf  # charged: -inf
        f[5::6, [3, 6]] = [math.inf, -math.inf]  # charged both ways: NaN
        for f_rows in (f, f[::-1].copy()):
            assert _bits(pair_rows(q, f_rows, w)) == _bits([ref_call(ref_pair, a, b, w) for a, b in zip(q, f_rows)])
        for p in (q[1], q[3]):  # with and without a zero atom
            assert _bits(pair_rows(p[None], f, w)) == _bits([ref_call(ref_pair, p, b, w) for b in f])
            assert _bits(score_divergence_rows(p[None], f[:1], f, w)) == _bits(
                [ref_call(ref_pair, p, f[0], w) - ref_call(ref_pair, p, b, w) for b in f])


# The vector API on a unit-weight space of 3 atoms, called with vectors of another space
_HOME = unit_space(3)
_QUADRATIC = catalog_entropy("quadratic", _HOME)
_ORTHANT = ConvexDomainSpec.nonnegative_orthant(_HOME)
_POINT = _HOME.cone([1.0, 1.0, 1.0])


def _cone(space):
    return space.cone(np.ones(space.size))


def _density(space):
    return space.density(np.full(space.size, 1.0 / math.fsum(space.weights)))


_MIXED_SPACE_CALLS = {
    "Entropy.value": lambda sp: _QUADRATIC.value(_cone(sp)),
    "Entropy.subgradient": lambda sp: _QUADRATIC.subgradient(_cone(sp)),
    "Entropy.closed_form_score": lambda sp: catalog_entropy("shannon", _HOME).closed_form_score(_density(sp)),
    "ScoringRule.score": lambda sp: make_psr(_QUADRATIC).score(_density(sp)),
    "expected_score": lambda sp: expected_score(make_psr(_QUADRATIC), _density(sp), _density(sp)),
    "score_divergence": lambda sp: score_divergence(make_psr(_QUADRATIC), _density(sp), _density(sp)),
    "extended_subgradient": lambda sp: extended_subgradient(_QUADRATIC, _cone(sp)),
    "canonical_extension_value": lambda sp: canonical_extension_value(_QUADRATIC, _cone(sp)),
    "bregman_divergence": lambda sp: bregman_divergence(_QUADRATIC, _cone(sp), _cone(sp)),
    "affine_score_at": lambda sp: affine_score_at(_QUADRATIC, _cone(sp)),
    "rebase_entropy": lambda sp: rebase_entropy(_QUADRATIC, _cone(sp)),
    "direction_cone_membership": lambda sp: direction_cone_membership(_ORTHANT, _POINT, _cone(sp)),
    "annihilator_basis": lambda sp: annihilator_basis([_cone(sp)], _HOME),
    "probe entropy": lambda sp: subdifferential_probe(
        catalog_entropy("quadratic", sp), _ORTHANT, _POINT, [_HOME.dual([2.0, 0.0, 1.0])]),
    "probe candidates": lambda sp: subdifferential_probe(
        _QUADRATIC, _ORTHANT, _POINT, [sp.dual(np.full(sp.size, 2.0))]),
}


@pytest.mark.parametrize("weights", [[0.5, 1.0, 2.0], [1.0, 1.0, 1.0, 1.0]],
                         ids=["other-weights", "other-size"])
@pytest.mark.parametrize("call", _MIXED_SPACE_CALLS.values(), ids=_MIXED_SPACE_CALLS.keys())
def test_vector_entry_points_refuse_vectors_of_another_space(call, weights):
    with pytest.raises(StructureError, match="^operands live on different measure spaces$"):
        call(MeasureSpace(weights))


def test_a_base_point_of_another_space_keeps_its_typed_answer():
    other = _cone(MeasureSpace([0.5, 1.0, 2.0]))
    assert _ORTHANT.contains(other) is False
    with pytest.raises(DomainError, match="base point is not in the domain"):
        lineality_space(_ORTHANT, other)


class TestNormalize:
    def test_rescales_to_unit_mass(self):
        rows, mass = normalize_rows(np.array([[2.0, 2.0], [3.0, 1.0]]), np.ones(2))
        np.testing.assert_array_equal(rows, [[0.5, 0.5], [0.75, 0.25]])
        np.testing.assert_array_equal(mass, [4.0, 4.0])

    def test_zero_mass_rejected(self):
        with pytest.raises(DomainError):
            normalize_rows(np.array([[1.0, 1.0], [0.0, 0.0]]), np.ones(2))

    def test_negative_entries_rejected(self):
        with pytest.raises(DomainError):
            normalize_rows(np.array([[1.0, 1.0], [2.0, -0.5]]), np.ones(2))

    def test_idempotent_on_densities(self):
        rng = np.random.default_rng(11)
        weights = rng.uniform(0.5, 2.0, size=6)
        densities = rng.dirichlet(np.ones(6), size=100) / weights
        again, _ = normalize_rows(densities, weights)
        np.testing.assert_allclose(again, densities, rtol=0, atol=1e-15)


def _signs(rng, shape):
    return rng.choice([-1.0, 1.0], size=shape)


def _cancelling(rng, m, n):
    """Shuffled ``x, -x`` pairs whose first ``x`` is nudged by a tiny residue."""
    half = rng.normal(size=(m, n // 2)) * 10.0 ** rng.integers(-20, 21, size=(m, n // 2))
    rows = np.concatenate([half, -half, rng.normal(size=(m, n % 2)) * 1e-30], axis=1)
    rows[:, 0] *= 1.0 + rng.normal(size=m) * 1e-15
    return rng.permuted(rows, axis=1)


def _ties(rng, m, n):
    """A leading 1 (or a power of two near it) and signed 2^-53, 2^-54, 3 2^-54:
    exact ties, which terms far below them (2^-106, 2^-160) may break."""
    small = [0.0, 2.0 ** -53, 2.0 ** -54, 3 * 2.0 ** -54, 2.0 ** -106, 2.0 ** -160]
    rows = _signs(rng, (m, n)) * rng.choice(small, size=(m, n))
    rows[:, 0] = _signs(rng, m) * rng.choice([0.5, 1.0, 2.0], size=m)
    return rows


def _subnormals(rng, m, n):
    """Subnormal terms and, from two atoms on, a cancelling pair of short
    normal ones: those rows reach the array path and sum to a subnormal."""
    rows = rng.integers(-2 ** 20, 2 ** 20, size=(m, n)) * 5e-324
    if n > 1:
        rows[:, 0] = np.ldexp(rng.integers(2 ** 10, 2 ** 11, size=m) * 1.0, rng.integers(-910, -810, size=m))
        rows[:, 1] = -rows[:, 0]
    return rng.permuted(rows, axis=1)


# Row families for the differential test: (rng, m, n) -> (m, n) terms.
_ROW_FAMILIES = {
    "normal": lambda rng, m, n: rng.normal(size=(m, n)) * 10.0 ** rng.integers(-3, 4, size=(m, 1)),
    "mixed_scales": lambda rng, m, n: rng.normal(size=(m, n)) * 10.0 ** rng.integers(-300, 301, size=(m, n)),
    "cancelling": _cancelling,
    "ties": _ties,
    "powers_of_two": lambda rng, m, n: _signs(rng, (m, n)) * np.ldexp(1.0, rng.integers(-80, 81, size=(m, n))),
    "subnormals": _subnormals,
    "huge": lambda rng, m, n: _signs(rng, (m, n)) * np.ldexp(rng.uniform(1.0, 2.0, size=(m, n)),
                                                            rng.integers(900, 1024, size=(m, n))),
    "non_finite": lambda rng, m, n: np.where(rng.random((m, n)) < 0.1,
                                             rng.choice([math.inf, -math.inf, math.nan], size=(m, n)),
                                             rng.normal(size=(m, n))),
    "zeros": lambda rng, m, n: np.full((m, n), 1.0) * rng.choice([0.0, -0.0], size=(m, 1)),
}


def _fsum_oracle(terms):
    """Per-row math.fsum; the 1-based rows it rejects."""
    sums, bad = [], []
    for i, row in enumerate(terms.tolist(), start=1):
        try:
            sums.append(math.fsum(row))
        except (OverflowError, ValueError):
            sums.append(math.nan)
            bad.append(i)
    return np.array(sums), bad


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


class TestExactRowSums:
    """``fsum_rows`` runs batches of ``_MIN_ARRAY_TERMS`` terms or more on whole
    arrays; it must give the bits and the errors of one ``math.fsum`` per row."""

    @settings(max_examples=200, deadline=None)
    @given(families=st.lists(st.sampled_from(sorted(_ROW_FAMILIES)), min_size=1, max_size=3, unique=True),
           n=st.integers(1, 48), extra_rows=st.integers(0, 64), seed=st.integers(0, 2 ** 32 - 1),
           data=st.data())
    def test_matches_math_fsum_bit_for_bit(self, families, n, extra_rows, seed, data):
        rng = np.random.default_rng(seed)
        m = -(-measure._MIN_ARRAY_TERMS // n) + extra_rows
        kinds = rng.integers(0, len(families), size=m)
        terms = np.empty((m, n))
        for k, family in enumerate(families):
            terms[kinds == k] = _ROW_FAMILIES[family](rng, int((kinds == k).sum()), n)
        # one row of arbitrary floats, to let hypothesis look for edge cases
        row = data.draw(st.lists(st.floats(width=64), min_size=n, max_size=n))
        terms[int(rng.integers(0, m))] = row
        expected, bad = _fsum_oracle(terms)
        sums, rejected = measure.exact_row_sums(terms)
        assert rejected == [i - 1 for i in bad]
        assert _bits(sums) == _bits(expected)
        if bad:
            with pytest.raises(DomainError) as info:
                fsum_rows(terms)
            assert str(info.value) == f"sums leave the float range in {measure.row_list(bad)}"
        else:
            assert _bits(fsum_rows(terms)) == _bits(expected)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("blocks", [2, 3])
    @pytest.mark.parametrize("n", [3, measure._CASCADE_ATOMS, measure._CASCADE_ATOMS + 1, 500])
    def test_batches_over_several_blocks_match_math_fsum_bit_for_bit(self, n, blocks, seed):
        # the last block partly filled; rows that need math.fsum on each side of every block edge,
        # on both sides of the crossover from column cascades (unblocked) to blocked extraction
        rng = np.random.default_rng(seed)
        per_block = measure._BLOCK_TERMS // n
        m = (blocks - 1) * per_block + per_block // 2
        families = sorted(_ROW_FAMILIES)
        kinds = rng.integers(0, len(families), size=m)
        terms = np.empty((m, n))
        for k, family in enumerate(families):
            terms[kinds == k] = _ROW_FAMILIES[family](rng, int((kinds == k).sum()), n)
        edges = sorted({0, m - 1} | {i for b in range(1, blocks) for i in (b * per_block - 1, b * per_block)})
        for i, family in zip(edges, itertools.cycle(["huge", "non_finite", "zeros", "mixed_scales"])):
            terms[i] = _ROW_FAMILIES[family](rng, 1, n)
        expected, bad = _fsum_oracle(terms)
        sums, rejected = measure.exact_row_sums(terms)
        assert rejected == [i - 1 for i in bad]
        assert _bits(sums) == _bits(expected)

    def test_zero_float_sums_are_exact_only_without_an_error_bound(self):
        # both rows' cascades sum to 0; the first row's errors sum exactly (bound 0) and it sums
        # to +0.0, the second's round off 2^-110 (bound 2^-109), which only math.fsum finds
        rows = np.array([[1.0, 2.0 ** -53, -1.0, 0.0, -2.0 ** -53],
                         [1.0, 2.0 ** -53, -1.0, 2.0 ** -110, -2.0 ** -53]])
        terms = np.tile(rows, (measure._MIN_ARRAY_TERMS // 5, 1))
        sums, rejected = measure.exact_row_sums(terms)
        assert rejected == [] and _bits(sums[:2]) == _bits([0.0, 2.0 ** -110])
        assert _bits(sums) == _bits(_fsum_oracle(terms)[0])

    def test_wide_batch_peaks_below_its_own_size(self):
        # the kernel's scratch is one block, reused: no temporary of the batch's size
        terms = np.random.default_rng(6).random((400, 500))
        tracemalloc.start()
        try:
            fsum_rows(terms)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < terms.nbytes

    def test_rows_left_to_math_fsum_go_one_block_at_a_time(self):
        # each row is h then -h reversed: it sums to exactly 0, but the extraction bound is
        # not 0, so every row falls back.  The fallback's Python floats are one block's, not
        # the batch's 327,680 (14 MB when they were converted at once).
        h = np.random.default_rng(7).random((4096, 40))
        terms = np.hstack([h, -h[:, ::-1]])
        tracemalloc.start()
        try:
            sums, rejected = measure.exact_row_sums(terms)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rejected == [] and _bits(sums) == _bits(np.zeros(len(terms)))
        assert peak < 4 * 2 ** 20

    def test_intermediate_overflow_names_the_rows(self):
        terms = np.random.default_rng(3).normal(size=(1000, 3))
        terms[[4, 699]] = [1e308, 1e308, -1e308]
        assert terms.size >= measure._MIN_ARRAY_TERMS
        with pytest.raises(DomainError, match=r"^sums leave the float range in rows 5, 700$"):
            fsum_rows(terms)

    def test_an_overflow_only_math_fsum_meets_names_the_rows(self):
        # every float partial sum of the row is finite, but math.fsum's exact partial
        # max + 5 * 2^968 overflows: the row must leave the array path
        terms = np.random.default_rng(3).normal(size=(1000, 4))
        terms[[4, 699]] = [sys.float_info.max, 2.0 ** 969, 3 * 2.0 ** 968, -sys.float_info.max]
        with pytest.raises(DomainError, match=r"^sums leave the float range in rows 5, 700$"):
            fsum_rows(terms)

    def test_workload_shaped_batches_need_no_fallback(self, monkeypatch):
        # 400 x 500 weighted with half the atoms of each row zero, 1500 x 5, and verify's
        # batches: 1000 densities on 3 atoms weighted in [0.5, 2], its cone points, and
        # quadratic's third differences, many of which sum to exactly zero.  One row may leave
        # the array path: row 26 (index 25) of power(3)'s 400 x 500 self-pairing sits on a tie (its
        # array sums t1 + t2 lie within their error bound of the midpoint between two floats: t2
        # is 1.5 float gaps at the sum, exactly), which only an exact sum can round
        rng = np.random.default_rng(8)
        weights = rng.uniform(0.25, 4.0, size=500)
        wide = np.zeros((400, 500))
        for row in wide:
            support = rng.permutation(500)[:250]
            row[support] = rng.dirichlet(np.ones(250)) / weights[support]
        narrow = MeasureSpace(rng.uniform(0.5, 2.0, size=3))
        batches = [(wide, weights, None), (rng.dirichlet(np.ones(5), size=1500), np.ones(5), None),
                   (sampling.density_rows(narrow, rng, 1000), narrow.weights,
                    sampling.cone_rows(narrow, rng, 1000))]
        specs = ("quadratic", "spherical", "shannon", "power(1.5)", "power(3)", "pseudospherical(3)")
        scored = [(q, w, cone, [rule_from_spec(spec, MeasureSpace(w)).score_rows(q) for spec in specs])
                  for q, w, cone in batches]
        pseudospherical = entropy_from_spec("pseudospherical(3)", MeasureSpace(weights))
        quadratic = entropy_from_spec("quadratic", narrow)

        tie = np.array([(wide[25] * scored[0][3][specs.index("power(3)")][25]) * weights])
        t1, t2, bound = measure._extracted_sums(tie, np.empty_like(tie))
        s, exact = t1[0] + t2[0], Fraction(t1[0]) + Fraction(t2[0])
        midpoint = (Fraction(s) + Fraction(np.nextafter(s, math.inf if exact > s else -math.inf))) / 2
        assert 0 < bound[0] and abs(exact - midpoint) <= Fraction(bound[0])
        fsum, ties = math.fsum, []

        def fell_back(row):
            if ties or row != tie[0].tolist():
                raise AssertionError("a row fell back to math.fsum")
            ties.append(row)
            return fsum(row)

        monkeypatch.setattr(measure.math, "fsum", fell_back)
        for q, w, cone, scores in scored:
            require_density_rows(q, w)
            fsum_rows(q * w)
            for f in scores:
                pair_rows(q, f, w)
                if cone is not None:
                    pair_rows(cone, f, w)
        pseudospherical.value_rows(wide)  # its power sums run on the same kernel
        symmetry_defect(quadratic, samples=500)

    def test_math_fsum_gives_exact_zero_sums_a_clear_sign_bit(self):
        # exact_row_sums certifies an exact zero sum as +0.0 without calling math.fsum
        for terms in ([-0.0, -0.0], [0.45, -0.45], [1e300, -1e300, -0.0]):
            assert math.copysign(1.0, math.fsum(terms)) == 1.0, terms


def test_a_measure_space_refuses_weights_that_are_not_a_vector():
    with pytest.raises(StructureError) as info:
        MeasureSpace(np.ones((2, 2)))
    assert str(info.value) == "weights must be one-dimensional, got shape (2, 2)"
