"""The batched (rows x atoms) kernel against the scalar reference, bit for bit.

For every rule, row ``i`` of an m-row ``score_rows``, ``value_rows``,
``pair_rows`` or ``bregman_divergence_rows`` call must equal the one-row call
(``rule.score``, ``entropy.value``, ``pair``, ``bregman_divergence``) and the
pre-kernel scalar formula kept in ``conftest`` as an oracle.  Where the oracle
raises, the kernel must raise an :class:`EntroscoreError`.  The suite turns
float warnings into errors, so a kernel that warns on zero atoms or
overflowing rows fails here as well.  The sampled suites that run on rows
(``symmetry_defect``, ``linearity_check``) must report what their per-point
loops, kept in ``conftest``, reported, and ``cone_rows`` must draw the bits
and leave the generator where per-point ``rng.uniform`` and ``rng.dirichlet``
calls did.  ``symmetry_defect`` and ``verify_euler``, which evaluate each
oracle once per point on draws a ``verify`` command shares, must report what
their earlier row formulas, also in ``conftest``, reported.
"""

import contextlib
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from entroscore import (
    CompositeEntropySpec,
    ConvexDomainSpec,
    DomainError,
    Entropy,
    EntroscoreError,
    MeasureSpace,
    bregman,
    bregman_divergence,
    bregman_divergence_rows,
    catalog_entropy,
    composite_entropy,
    geometry,
    linear_score,
    linearity_check,
    make_psr,
    measure,
    pair,
    pair_rows,
    rebase_entropy,
    sampling,
    score_divergence_rows,
    subdifferential_probe,
    symmetry_defect,
    verify_euler,
)
from entroscore.entropies import canonical_extension_rows
from entroscore.geometry import FD_STEP, directional_derivative_fd, directional_derivative_fd_rows

from conftest import (CATALOG_SPECS, entropy_from_spec, ref_call, ref_catalog, ref_composite,
                      ref_cone_rows, ref_divergence, ref_linearity_check, ref_pair, ref_rebased,
                      ref_rows_symmetry_defect, ref_rows_verify_euler, ref_score, ref_symmetry_defect)


def kernel_call(fn, *args):
    try:
        return fn(*args)
    except EntroscoreError as exc:
        return exc


def assert_same(actual, expected):
    """``actual`` raised where ``expected`` did, else equals it to the last bit."""
    if isinstance(expected, Exception):
        assert isinstance(actual, EntroscoreError), f"oracle raised {expected!r}, kernel gave {actual!r}"
        return
    assert not isinstance(actual, Exception), f"kernel raised {actual!r}, oracle gave {expected!r}"
    actual, expected = np.asarray(actual, dtype=float), np.asarray(expected, dtype=float)
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected, equal_nan=True)
    signed = ~np.isnan(expected)
    assert np.array_equal(np.signbit(actual[signed]), np.signbit(expected[signed]))


def assert_rows(batched, one_row, expected):
    """Row i of the batched call, the i-th one-row call and the oracle agree."""
    for one, exp in zip(one_row, expected):
        assert_same(one, exp)
    if any(isinstance(exp, Exception) for exp in expected):
        assert isinstance(batched, EntroscoreError), f"oracle raised on a row, kernel gave {batched!r}"
    else:
        assert_same(batched, np.array(expected))


def catalog_subjects(gamma: float) -> tuple:
    """``(name, gamma)`` of the six default rules, and of power and pseudospherical at ``gamma``."""
    return (("quadratic", None), ("spherical", None), ("shannon", None), ("power", 1.5), ("power", 3.0),
            ("pseudospherical", 3.0), ("power", gamma), ("pseudospherical", gamma))


def subjects(space: MeasureSpace, gamma: float, seed: int, with_matrix: bool = True):
    """``(label, entropy, rule, reference entropy)`` for every kind of rule."""
    w = space.weights
    rng = np.random.default_rng(seed)
    out = []
    for name, g in catalog_subjects(gamma):
        entropy = catalog_entropy(name, space, gamma=g)
        out.append((f"{name}({g})", entropy, make_psr(entropy), ref_catalog(name, w, gamma=g)))
    out.append(("linear", None, linear_score(space), None))
    if with_matrix:
        a = rng.normal(size=(space.size, space.size))
        matrix = a @ a.T / space.size + np.diag(rng.uniform(0.5, 2.0, size=space.size))
        entropy = catalog_entropy("weighted_quadratic", space, matrix=matrix)
        out.append(("weighted_quadratic", entropy, make_psr(entropy),
                    ref_catalog("weighted_quadratic", w, matrix=matrix)))
    spec = CompositeEntropySpec(
        outer=lambda x: x * x, outer_derivative=lambda x: 2.0 * x,
        inner=lambda v: np.power(v, gamma), inner_derivative=lambda v: gamma * np.power(v, gamma - 1.0),
        nu_weights=rng.uniform(0.5, 2.0, size=space.size),
    )
    entropy = composite_entropy(spec, ConvexDomainSpec.nonnegative_orthant(space))
    out.append(("composite", entropy, make_psr(entropy), ref_composite(spec, w)))
    base = rng.uniform(0.05, 2.0, size=space.size)
    for name in ("shannon", "spherical"):
        entropy = rebase_entropy(catalog_entropy(name, space), space.cone(base))
        ref = ref_rebased(ref_catalog(name, w), base, w)
        out.append((f"{name}@rebased", entropy, make_psr(entropy), ref))
    return out


def check_rows(space: MeasureSpace, rows: np.ndarray, gamma: float, seed: int, with_matrix=True):
    w = space.weights
    densities = [space.density(q) for q in rows]
    for label, entropy, rule, ref in subjects(space, gamma, seed, with_matrix):
        scores = kernel_call(rule.score_rows, rows)
        oracle = [ref_call(ref_score(ref, w), q) for q in rows]
        assert_rows(scores, [kernel_call(lambda d: rule.score(d).values, d) for d in densities],
                    oracle)
        if entropy is not None:
            assert_rows(kernel_call(entropy.value_rows, rows),
                        [kernel_call(entropy.value, d) for d in densities],
                        [ref_call(ref.value, q) for q in rows])
            for q_rows in (rows, rows[::-1]):
                assert_rows(kernel_call(bregman_divergence_rows, entropy, rows, q_rows),
                            [kernel_call(bregman_divergence, entropy, d, space.cone(q))
                             for d, q in zip(densities, q_rows)],
                            [ref_call(ref_divergence, ref, p, q, w) for p, q in zip(rows, q_rows)])
        if isinstance(scores, Exception):
            continue
        # the self-score, and each row against another row's scores (-inf terms
        # meet positive mass where a row charges another's zero atoms)
        for f_rows in (scores, scores[::-1]):
            duals = [space.dual(f, allow_infinite=True) for f in f_rows]
            assert_rows(kernel_call(pair_rows, rows, f_rows, w),
                        [kernel_call(pair, d, f) for d, f in zip(densities, duals)],
                        [ref_call(ref_pair, q, f, w) for q, f in zip(rows, f_rows)])


def density_row(raw: np.ndarray, weights: np.ndarray) -> np.ndarray:
    return raw / math.fsum((raw * weights).tolist())


def draw_weights(draw, max_atoms: int) -> np.ndarray:
    """Atom weights log-uniform in [1e-8, 1e8]."""
    n = draw(st.integers(1, max_atoms))
    return 10.0 ** np.array(draw(st.lists(st.floats(-8.0, 8.0), min_size=n, max_size=n)))


def draw_densities(draw, weights: np.ndarray, count: int, zero_atoms: bool = True) -> np.ndarray:
    n, rows = weights.size, []
    for _ in range(count):
        # zero atoms are common, unless left out: then no atom underflows to 0 when divided by the mass
        atom = st.one_of(st.just(0.0), st.floats(0.0, 1.0)) if zero_atoms else st.floats(1e-300, 1.0)
        raw = np.array(draw(st.lists(atom, min_size=n, max_size=n)))
        if not math.fsum((raw * weights).tolist()) > 1e-300:  # a density needs positive mass
            raw[draw(st.integers(0, n - 1))] = 1.0
        rows.append(density_row(raw, weights))
    return np.array(rows)


GAMMAS = st.one_of(st.floats(1.0, 1.0 + 1e-6, exclude_min=True), st.floats(1.0, 50.0, exclude_min=True))


@st.composite
def problems(draw):
    weights = draw_weights(draw, 64)
    rows = draw_densities(draw, weights, draw(st.integers(1, 3)))
    return MeasureSpace(weights), rows, draw(GAMMAS), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None)
@given(problems())
# rows whose scores leave the float range: q^49 overflows at q = 5e7 for power(50);
# under weights (1e-300, 1) the density row (1e300, 0) overflows most rules
@example((MeasureSpace([1e-8, 1e-8]), np.array([[5e7, 5e7], [1e8, 0.0]]), 50.0, 1))
@example((MeasureSpace([1e-300, 1.0]), np.array([[0.0, 1.0], [1e300, 0.0]]), 3.0, 2))
# one atom: the reversed rows are a strided column, where numpy's pow rounds
# differently from its contiguous loop
@example((MeasureSpace([float.fromhex("0x1.94c583ada5b53p+1")]),
          np.full((2, 1), float.fromhex("0x1.43d136248490fp-2")), float.fromhex("0x1.0000000000001p+0"), 0))
def test_rows_match_one_row_calls_and_the_scalar_reference(problem):
    check_rows(*problem)


def test_rows_match_at_ten_thousand_atoms():
    # weighted_quadratic is left out: its 10^4 x 10^4 matrix would take 800 MB
    n = 10_000
    rng = np.random.default_rng(11)
    weights = 10.0 ** rng.uniform(-8.0, 8.0, size=n)
    raw = rng.uniform(size=(2, n)) * (rng.uniform(size=(2, n)) < 0.7)
    rows = np.array([density_row(r, weights) for r in raw])
    for gamma in (1.0 + 1e-7, 50.0):
        check_rows(MeasureSpace(weights), rows, gamma, seed=5, with_matrix=False)


def same_bits(actual: np.ndarray, expected: np.ndarray) -> bool:
    return actual.shape == expected.shape and np.array_equal(actual.view(np.int64), expected.view(np.int64))


@st.composite
def broadcast_pairings(draw):
    """Weights, density rows ``P`` with zero atoms, and rows ``F`` of every float class."""
    weights = draw_weights(draw, 40)
    p_rows = draw_densities(draw, weights, draw(st.integers(1, 4)))
    top = sys.float_info.max
    entry = st.one_of(st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, -1e308, top, -top]),
                      st.floats(-2.0 ** -1022, 2.0 ** -1022, exclude_min=True, exclude_max=True),  # subnormals
                      st.floats(-1e6, 1e6), st.floats(-top, top))
    return weights, p_rows, draw(arrays(float, (draw(st.integers(1, 8)), weights.size), elements=entry))


_WIDE_F = np.random.default_rng(3).normal(size=(8, 64)) * 10.0 ** np.arange(-8, 8, 0.25)
_WIDE_F[2, 5], _WIDE_F[5, 9:11] = math.inf, (math.inf, -math.inf)


@settings(max_examples=150, deadline=None)
@given(broadcast_pairings())
# 2,048 terms of 64 atoms: the array sums, with infinite and opposing terms
@example((np.ones(64), np.vstack([np.full(64, 1 / 64), np.eye(64)[:3]]), _WIDE_F))
# finite terms summing past the float range, and NaN, on some rows of some blocks only
@example((np.ones(2), np.array([[0.5, 0.5], [1.0, 0.0]]),
          np.array([[sys.float_info.max, sys.float_info.max], [1.0, math.nan], [0.0, 1.0]])))
def test_broadcast_pairing_matches_row_by_row_calls(case):
    # pair_rows(P[:, None], F) is the (b, m) table of one (m, n) call per row of P, bit for bit,
    # and a FloatRangeError names the rows p-major: i * m + j
    weights, p_rows, f_rows = case
    m = len(f_rows)
    one_row = [kernel_call(pair_rows, p[None], f_rows, weights) for p in p_rows]
    table = kernel_call(pair_rows, p_rows[:, None], f_rows, weights)
    if any(isinstance(row, Exception) for row in one_row):
        assert isinstance(table, measure.FloatRangeError)
        assert all(isinstance(row, measure.FloatRangeError) for row in one_row if isinstance(row, Exception))
        assert table.rows == [i * m + j for i, row in enumerate(one_row) if isinstance(row, Exception)
                              for j in row.rows]
    else:
        assert not isinstance(table, Exception), table
        assert same_bits(table, np.array(one_row))


@st.composite
def divergence_tables(draw):
    weights = draw_weights(draw, 20)
    p_rows = draw_densities(draw, weights, draw(st.integers(1, 8)))
    m = draw(st.integers(1, 8))
    q_rows = draw_densities(draw, weights, m)
    positive_q_rows = draw_densities(draw, weights, m, zero_atoms=False)
    return MeasureSpace(weights), p_rows, q_rows, positive_q_rows, draw(GAMMAS)


@settings(max_examples=60, deadline=None)
@given(divergence_tables())
@example((MeasureSpace([1e-8, 1.0, 1e8]), np.array([[1e8, 0.0, 0.0], [0.0, 0.5, 5e-9]]),
          np.array([[0.0, 1.0, 0.0], [1e8, 0.0, 0.0]]), np.array([[2e7, 0.4, 4e-9], [5e7, 0.1, 4e-9]]), 3.0))
# G(q) = 2.3e6 for the point mass on the light atom: both sides cancel it, and they differ by 1.6e-10
# where D(p, q) = 0.12
@example((MeasureSpace([1e-7, 1.0, 1.0, 10.0]), np.array([[1e7, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.1]]),
          np.array([[1e7, 0.0, 0.0, 0.0]]), np.array([[1e6, 0.3, 0.3, 0.03]]), 11.0))
def test_score_divergence_tables_are_bregman_divergences(case):
    # the paper's identity: D_S(p, q) = pair(p, S(p)) - pair(p, S(q)) is the Bregman divergence of the
    # entropy, for every cell of the divergence command's table, up to rounding at the scale of the
    # summands: the two pairings, and G(q), which the Bregman side subtracts and each side cancels;
    # shannon's q rows charge every atom, since the Bregman side has no subgradient at a zero atom
    space, p_rows, q_rows, positive_q_rows, gamma = case
    w = space.weights
    b, m = len(p_rows), len(q_rows)
    for name, g in catalog_subjects(gamma):
        entropy = catalog_entropy(name, space, gamma=g)
        rule, q = make_psr(entropy), positive_q_rows if name == "shannon" else q_rows
        try:
            p_scores, q_scores = rule.score_rows(p_rows)[:, None], rule.score_rows(q)
            table = score_divergence_rows(p_rows[:, None], p_scores, q_scores, w)
            bregman = bregman_divergence_rows(entropy, np.repeat(p_rows, m, axis=0), np.tile(q, (b, 1)))
            scale = (1.0 + np.abs(pair_rows(p_rows[:, None], p_scores, w))
                     + np.abs(pair_rows(p_rows[:, None], q_scores, w)) + np.abs(entropy.value_rows(q)))
        except EntroscoreError:  # a typed refusal, e.g. power(50)'s scores past the float range
            continue
        finite = np.isfinite(table)
        gap = np.abs(table[finite] - bregman.reshape(b, m)[finite])
        assert (gap <= 1e-10 * scale[finite]).all(), (name, g, gap.max())


def propriety_breaches(rule, p_rows: np.ndarray, q_rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The cells of the table D(p, q) = pair(p, S(p)) - pair(p, S(q)) that are neither +inf nor above
    -1e-10 times their summands' scale: the two pairings, and G(q) = pair(q, S(q)); NaN is a breach."""
    p_scores, q_scores = rule.score_rows(p_rows)[:, None], rule.score_rows(q_rows)
    table = score_divergence_rows(p_rows[:, None], p_scores, q_scores, weights)
    scale = (1.0 + np.abs(pair_rows(p_rows[:, None], p_scores, weights))
             + np.abs(pair_rows(p_rows[:, None], q_scores, weights)) + np.abs(pair_rows(q_rows, q_scores, weights)))
    return table[~((table == np.inf) | (table >= -1e-10 * scale))]


def assert_euler(entropy, rule, x_rows: np.ndarray, weights: np.ndarray) -> None:
    """pair(x, S(x / m)) is the 1-homogeneous extension m H(x / m) at each cone row x of mass m, up to
    1e-10 times (1 + |extension| + sum x |S| mu); where either side is not finite, both are the same."""
    unit_rows, _ = measure.normalize_rows(x_rows, weights)
    scores = rule.score_rows(unit_rows)
    paired, extended = pair_rows(x_rows, scores, weights), canonical_extension_rows(entropy, x_rows)
    finite = np.isfinite(paired) & np.isfinite(extended)
    assert np.array_equal(paired[~finite], extended[~finite]), (entropy.name, paired, extended)
    scale = 1.0 + np.abs(extended) + pair_rows(x_rows, np.abs(scores), weights)
    gap = np.abs(paired - extended)[finite]
    assert (gap <= 1e-10 * scale[finite]).all(), (entropy.name, gap.max())


@settings(max_examples=60, deadline=None)
@given(divergence_tables())
def test_catalog_rules_are_proper(case):
    # propriety (Gneiting & Raftery 2007): under p no forecast q scores more than p itself, so each
    # cell of the divergence command's table is +inf or nonnegative up to rounding; zero atoms included
    space, p_rows, q_rows, _, gamma = case
    for name, g in catalog_subjects(gamma):
        try:
            breaches = propriety_breaches(make_psr(catalog_entropy(name, space, gamma=g)), p_rows, q_rows,
                                          space.weights)
        except EntroscoreError:  # a typed refusal, e.g. power(50)'s scores past the float range
            continue
        assert breaches.size == 0, (name, g, breaches)


def test_the_propriety_property_catches_the_linear_rule():
    # S(q) = q rewards the mode: under p = (0.6, 0.4) the point mass scores 0.6 against p's own 0.52
    space = MeasureSpace([1.0, 1.0])
    breaches = propriety_breaches(linear_score(space), np.array([[0.6, 0.4]]), np.array([[1.0, 0.0]]),
                                  space.weights)
    assert breaches.tolist() == [pytest.approx(-0.08)]


@st.composite
def cone_tables(draw):
    """Densities of ``divergence_tables``' kind, each scaled by a mass log-uniform in [1e-8, 1e8]."""
    weights = draw_weights(draw, 20)
    count = draw(st.integers(1, 8))
    masses = 10.0 ** np.array(draw(st.lists(st.floats(-8.0, 8.0), min_size=count, max_size=count)))
    return MeasureSpace(weights), draw_densities(draw, weights, count) * masses[:, None], draw(GAMMAS)


@settings(max_examples=60, deadline=None)
@given(cone_tables())
def test_the_euler_identity_holds_on_cone_rows(case):
    # the paper's Euler identity: the 0-homogeneous score pairs with x to the 1-homogeneous entropy
    space, x_rows, gamma = case
    for name, g in catalog_subjects(gamma):
        entropy = catalog_entropy(name, space, gamma=g)
        try:
            assert_euler(entropy, make_psr(entropy), x_rows, space.weights)
        except EntroscoreError:  # a typed refusal, e.g. power(50)'s scores past the float range
            continue


@pytest.mark.parametrize("gamma", [1.000001, 50.0])
def test_propriety_and_euler_hold_at_ten_thousand_atoms(gamma):
    n = 10_000
    rng = np.random.default_rng(12)
    weights = 10.0 ** rng.uniform(-8.0, 8.0, size=n)
    raw = rng.uniform(size=(4, n)) * (rng.uniform(size=(4, n)) < 0.7)
    rows = np.array([density_row(r, weights) for r in raw])
    masses = 10.0 ** rng.uniform(-8.0, 8.0, size=(4, 1))
    for name, g in catalog_subjects(gamma):
        entropy = catalog_entropy(name, MeasureSpace(weights), gamma=g)
        rule = make_psr(entropy)
        assert propriety_breaches(rule, rows[:2], rows[2:], weights).size == 0, (name, g)
        assert_euler(entropy, rule, rows * masses, weights)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 300), st.integers(1, 600), st.integers(0, 2**32 - 1))
# 9 atoms and more than 128: numpy's pairwise sum departs from a left-to-right one
@example(seed=1, count=300, n=9, weight_seed=9)
@example(seed=2, count=40, n=600, weight_seed=600)
@example(seed=3, count=0, n=5, weight_seed=5)
@example(seed=4, count=1000, n=3, weight_seed=3)  # verify's shape
@example(seed=5, count=7, n=1, weight_seed=1)
def test_cone_rows_match_per_point_dirichlet_draws(seed, count, n, weight_seed):
    # weights log-uniform in [1e-3, 1e3]
    space = MeasureSpace(10.0 ** np.random.default_rng(weight_seed).uniform(-3.0, 3.0, size=n))
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert same_bits(sampling.cone_rows(space, rng, count), ref_cone_rows(space, ref_rng, count))
    assert rng.random() == ref_rng.random()  # the stream continues where it did


def test_samplers_return_no_rows_for_no_points():
    space = MeasureSpace([0.5, 1.0, 2.0])
    for rows in (sampling.density_rows, sampling.cone_rows, sampling.box_rows):
        assert rows(space, np.random.default_rng(0), 0).shape == (0, 3)


@st.composite
def shannon_batches(draw):
    n = draw(st.integers(1, 40))
    weights = 10.0 ** np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)))
    entry = st.one_of(st.sampled_from([0.0, -0.0, math.inf]), st.floats(0.0, 1.0),
                      st.floats(0.0, 2.0 ** -1022, exclude_max=True),  # subnormals
                      st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e))
    rows = np.array(draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=4)))
    if draw(st.integers(0, 7)) == 0:  # now and then one negative entry
        rows[draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, n - 1))] = -draw(
            st.floats(5e-324, 1e300))
    return MeasureSpace(weights), rows


@settings(max_examples=150, deadline=None)
@given(shannon_batches())
@example((MeasureSpace([1.0, 2.0]), np.array([[-0.0, 5e-324], [1e-300, 1e300], [math.inf, 0.0]])))
@example((MeasureSpace([1.0, 1.0]), np.array([[0.5, -1e-300]])))
@example((MeasureSpace([1.0, 1.0]), np.array([[0.5, 0.5], [2e305, 2e305]])))  # the sum overflows
def test_shannon_value_rows_match_the_per_row_fsum(batch):
    # row i of the batch, and of the batch tiled past the array row sums'
    # minimum, has the bits of one libm-log math.fsum over the row; a negative
    # entry, or a row sum past the float range, is a DomainError
    space, rows = batch
    entropy, ref = catalog_entropy("shannon", space), ref_catalog("shannon", space.weights)
    expected = [ref_call(ref.value, q) for q in rows]
    tiled = np.tile(rows, (-(-measure._MIN_ARRAY_TERMS // rows.size), 1))
    for q_rows, reps in ((rows, 1), (tiled, len(tiled) // len(rows))):
        if any(isinstance(e, Exception) for e in expected):
            with pytest.raises(DomainError):
                entropy.value_rows(q_rows)
        else:
            assert same_bits(entropy.value_rows(q_rows), np.tile(expected, reps))


def suite_subjects(space: MeasureSpace):
    """The six default rules' entropies, a weighted quadratic and a rebased spherical."""
    rng = np.random.default_rng(space.size)
    a = rng.normal(size=(space.size, space.size))
    matrix = a @ a.T / space.size + np.diag(rng.uniform(0.5, 2.0, size=space.size))
    base = space.cone(rng.uniform(0.05, 2.0, size=space.size))
    return [entropy_from_spec(spec, space) for spec in CATALOG_SPECS] + [
        catalog_entropy("weighted_quadratic", space, matrix=matrix),
        rebase_entropy(catalog_entropy("spherical", space), base),
    ]


SUITE_SPACES = {
    "unit3": [1.0, 1.0, 1.0],
    "bench_verify": [0.6541994224472271, 0.9799199296271267, 1.9986222874032822],  # seed 3
    "n20": np.random.default_rng(20).uniform(0.5, 2.0, size=20).tolist(),
    "n2": [1.0, 1.0],
}


@pytest.mark.parametrize("weights", SUITE_SPACES.values(), ids=SUITE_SPACES.keys())
def test_sampled_suites_match_their_per_point_loops(weights):
    space = MeasureSpace(weights)
    for entropy in suite_subjects(space):
        for samples in (1, 50, 500):
            seed = samples + 3
            assert (json.dumps(symmetry_defect(entropy, seed=seed, samples=samples).as_dict())
                    == json.dumps(ref_symmetry_defect(entropy, seed=seed, samples=samples).as_dict()))
            assert (linearity_check(entropy, seed=seed, samples=samples)
                    is ref_linearity_check(entropy, seed=seed, samples=samples))


@st.composite
def suite_problems(draw):
    n = draw(st.integers(1, 64))
    weights = 10.0 ** np.array(draw(st.lists(st.floats(-8.0, 8.0), min_size=n, max_size=n)))
    return (MeasureSpace(weights), draw(st.integers(1, 12)), draw(st.floats(1.0, 50.0, exclude_min=True)),
            draw(st.integers(0, 2**32 - 1)))


def report_or_error(suite, *args):
    """The report as JSON text, or the type and message of the error the suite raised."""
    try:
        return json.dumps(suite(*args).as_dict())
    except Exception as exc:  # the reference's own errors are what gets compared
        return f"{type(exc).__name__}: {exc}"


@settings(max_examples=60, deadline=None)
@given(suite_problems())
@example((MeasureSpace([1.0]), 1, 1.5, 0))
@example((MeasureSpace([1e-8, 1.0, 1e8]), 2, 3.0, 1))
@example((MeasureSpace(10.0 ** np.linspace(-8.0, 8.0, 64)), 12, 50.0, 2))
def test_single_evaluation_suites_match_their_earlier_formulas(problem):
    # on fresh draws, and on draws shared read-only by every subject after the first
    space, samples, gamma, seed = problem
    pairs = [(entropy, rule) for _, entropy, rule, _ in subjects(space, gamma, seed) if entropy is not None]
    pairs.append((catalog_entropy("quadratic", space), linear_score(space)))
    for shared in (False, True):
        with sampling._shared_draws() if shared else contextlib.nullcontext():
            for entropy, rule in pairs:
                assert (report_or_error(symmetry_defect, entropy, seed, samples)
                        == report_or_error(ref_rows_symmetry_defect, entropy, seed, samples))
                assert (report_or_error(verify_euler, rule, entropy, seed, samples)
                        == report_or_error(ref_rows_verify_euler, rule, entropy, seed, samples))


def test_linearity_check_stops_at_its_first_failing_point():
    # power(1100)'s subgradient overflows at 8 of these 50 cone points, but the first
    # point already fails; a subgradient that is infinite at the first point raises
    space = MeasureSpace([1.0, 1.0, 1.0])
    power = catalog_entropy("power", space, gamma=1100.0)
    assert linearity_check(power, seed=1, samples=50) is False
    assert ref_linearity_check(power, seed=1, samples=50) is False
    infinite = Entropy("infinite", ConvexDomainSpec.whole_space(space), lambda q: np.zeros(len(q)),
                       lambda q: (np.zeros(len(q)), np.full_like(q, np.inf)))
    for check in (linearity_check, ref_linearity_check):
        with pytest.raises(EntroscoreError):
            check(infinite, seed=1, samples=5)


def test_sampled_suites_make_no_one_row_calls(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("one-row call from a sampled suite")

    for module, name in ((bregman, "pair"), (measure, "pair"), (bregman, "bregman_divergence"),
                         (geometry, "directional_derivative_fd"), (sampling, "sample_density"),
                         (sampling, "sample_positive_box"), (sampling, "sample_cone_point")):
        monkeypatch.setattr(module, name, refuse)
    space = MeasureSpace([0.5, 1.0, 2.0])
    # an interior and a boundary point; whole-space samples take the per-row fallback
    points = [space.cone([0.5, 1.0, 1.5]), space.cone([0.5, 1.0, 0.0])]
    domains = [ConvexDomainSpec.nonnegative_orthant(space), ConvexDomainSpec.whole_space(space)]
    step = np.array([1.0, 0.0, 0.0])
    unique_claims = 0
    for entropy in suite_subjects(space):
        grad = entropy.value_grad_rows(points[0].values[None])[1][0]
        # verified, breaching the derivative bound only (the ray walk), breaching at points
        candidates = [space.dual(f) for f in (grad, grad + 1e-5 * step, grad + 0.5)]
        object.__setattr__(entropy, "value", refuse)
        object.__setattr__(entropy, "subgradient", refuse)
        symmetry_defect(entropy, seed=1, samples=20)
        linearity_check(entropy, seed=1, samples=20)
        for domain in domains:
            for q in points:
                unique_claims += subdifferential_probe(entropy, domain, q, candidates, seed=1).unique_claim
    assert unique_claims > 0


@pytest.mark.parametrize("weights", SUITE_SPACES.values(), ids=SUITE_SPACES.keys())
def test_fd_rows_match_their_one_row_calls(weights):
    # q has zero atoms, so shannon's slopes toward them diverge to -inf
    space = MeasureSpace(weights)
    rng = np.random.default_rng(space.size)
    q = space.cone(rng.uniform(0.05, 2.0, size=space.size) * (np.arange(space.size) % 3 > 0))
    for entropy in suite_subjects(space):
        directions = np.vstack([np.eye(space.size), rng.normal(size=(20, space.size))])
        directions = directions[entropy.domain.contains_rows(q.values + FD_STEP * directions)]
        rows = directional_derivative_fd_rows(entropy, q, directions)
        ones = [directional_derivative_fd(entropy, q, space.cone(d)) for d in directions]
        assert rows.tobytes() == np.array(ones).tobytes(), entropy.name
