"""The batched (rows x atoms) kernel against the scalar reference, bit for bit.

For every rule, row ``i`` of an m-row ``score_rows``, ``value_rows`` or
``pair_rows`` call must equal the one-row call (``rule.score``,
``entropy.value``, ``pair``) and the pre-kernel scalar formula kept in
``conftest`` as an oracle.  Where the oracle raises, the kernel must raise an
:class:`EntroscoreError`.  The suite turns float warnings into errors, so a
kernel that warns on zero atoms or overflowing rows fails here as well.
"""

import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from entroscore import (
    CompositeEntropySpec,
    ConvexDomainSpec,
    EntroscoreError,
    MeasureSpace,
    catalog_entropy,
    composite_entropy,
    linear_score,
    make_psr,
    pair,
    pair_rows,
    rebase_entropy,
)

from conftest import ref_call, ref_catalog, ref_composite, ref_pair, ref_rebased, ref_score


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


def subjects(space: MeasureSpace, gamma: float, seed: int, with_matrix: bool = True):
    """``(label, entropy, rule, reference entropy)`` for every kind of rule."""
    w = space.weights
    rng = np.random.default_rng(seed)
    out = []
    for name, g in (("quadratic", None), ("spherical", None), ("shannon", None),
                    ("power", 1.5), ("power", 3.0), ("pseudospherical", 3.0),
                    ("power", gamma), ("pseudospherical", gamma)):
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


@st.composite
def problems(draw):
    n = draw(st.integers(1, 64))
    weights = 10.0 ** np.array(draw(st.lists(st.floats(-8.0, 8.0), min_size=n, max_size=n)))
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        atom = st.one_of(st.just(0.0), st.floats(0.0, 1.0))  # zero atoms are common
        raw = np.array(draw(st.lists(atom, min_size=n, max_size=n)))
        if not math.fsum((raw * weights).tolist()) > 1e-300:  # a density needs positive mass
            raw[draw(st.integers(0, n - 1))] = 1.0
        rows.append(density_row(raw, weights))
    gamma = draw(st.one_of(st.floats(1.0, 1.0 + 1e-6, exclude_min=True),
                           st.floats(1.0, 50.0, exclude_min=True)))
    return MeasureSpace(weights), np.array(rows), gamma, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None)
@given(problems())
# rows whose scores leave the float range: q^49 overflows at q = 5e7 for power(50);
# under weights (1e-300, 1) the density row (1e300, 0) overflows most rules
@example((MeasureSpace([1e-8, 1e-8]), np.array([[5e7, 5e7], [1e8, 0.0]]), 50.0, 1))
@example((MeasureSpace([1e-300, 1.0]), np.array([[0.0, 1.0], [1e300, 0.0]]), 3.0, 2))
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
