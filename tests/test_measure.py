"""Pairing and normalization on finite measure spaces."""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entroscore import (
    ConstructionError,
    Density,
    DomainError,
    MeasureSpace,
    StructureError,
    fsum_rows,
    measure,
    normalize,
    pair,
    pair_rows,
    require_density_rows,
)

from conftest import entropy_from_spec, rule_from_spec, unit_space


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
    @pytest.mark.parametrize("n", [3, 500])
    def test_batches_over_several_blocks_match_math_fsum_bit_for_bit(self, n, blocks, seed):
        # the last block partly filled; rows that need math.fsum on each side of every block edge
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

    def test_wide_batch_peaks_below_its_own_size(self):
        # the kernel's scratch is two blocks, reused: no temporary of the batch's size
        terms = np.random.default_rng(6).random((400, 500))
        tracemalloc.start()
        try:
            fsum_rows(terms)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < terms.nbytes

    def test_intermediate_overflow_names_the_rows(self):
        terms = np.random.default_rng(3).normal(size=(1000, 3))
        terms[[4, 699]] = [1e308, 1e308, -1e308]
        assert terms.size >= measure._MIN_ARRAY_TERMS
        with pytest.raises(DomainError, match=r"^sums leave the float range in rows 5, 700$"):
            fsum_rows(terms)

    def test_workload_shaped_batches_need_no_fallback(self, monkeypatch):
        # 400 x 500 weighted with half the atoms of each row zero, and 1500 x 5
        rng = np.random.default_rng(8)
        weights = rng.uniform(0.25, 4.0, size=500)
        wide = np.zeros((400, 500))
        for row in wide:
            support = rng.permutation(500)[:250]
            row[support] = rng.dirichlet(np.ones(250)) / weights[support]
        batches = [(wide, weights), (rng.dirichlet(np.ones(5), size=1500), np.ones(5))]
        specs = ("quadratic", "spherical", "shannon", "power(1.5)", "power(3)", "pseudospherical(3)")
        scored = [(q, w, [rule_from_spec(spec, MeasureSpace(w)).score_rows(q) for spec in specs])
                  for q, w in batches]
        pseudospherical = entropy_from_spec("pseudospherical(3)", MeasureSpace(weights))

        def fell_back(row):
            raise AssertionError("a row fell back to math.fsum")

        monkeypatch.setattr(measure.math, "fsum", fell_back)
        for q, w, scores in scored:
            require_density_rows(q, w)
            fsum_rows(q * w)
            for f in scores:
                pair_rows(q, f, w)
        pseudospherical.value_rows(wide)  # its power sums run on the same kernel
