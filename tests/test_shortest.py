"""The array formatter against its oracle, ``repr``: over raw bit patterns and hypothesis floats,
at the fixed cases where shortest round-trip printing goes wrong, on tables of every shape the
blocks can cut, and in bounded memory."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entroscore.shortest import BLOCK, format_rows


def _reprs(table: np.ndarray) -> str:
    return "".join(",".join(map(repr, row)) + "\n" for row in table.tolist())


def _check_cells(values) -> None:
    cells = np.asarray(values, dtype=float)
    assert format_rows(cells[None]) == _reprs(cells[None])


def _with_neighbours(values: np.ndarray) -> np.ndarray:
    """Each value and the floats 1 ulp below and above it, with either sign."""
    values = np.concatenate([values, np.nextafter(values, -math.inf), np.nextafter(values, math.inf)])
    return np.concatenate([values, -values])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=300))
def test_raw_bit_patterns_print_as_repr(patterns):
    _check_cells(np.array(patterns, dtype=np.uint64).view(np.float64))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=300))
def test_hypothesis_floats_print_as_repr(values):
    _check_cells(values)


def test_powers_of_two_and_ten_and_their_neighbours():
    # a power of two has the narrow gap below it (Schubfach's irregular case), and a power of
    # ten is where the digit count and the decimal exponent step
    _check_cells(_with_neighbours(np.ldexp(1.0, np.arange(-1074, 1024))))
    _check_cells(_with_neighbours(np.array([float(f"1e{k}") for k in range(-323, 309)])))


def test_subnormals_of_1_to_5000_ulps():
    # 5e-324 is one digit (Java writes 4.9E-324), and the smallest subnormals are where the
    # Java reference takes its 10 c path
    _check_cells(np.arange(1, 5001, dtype=np.uint64).view(np.float64))


def test_signed_zeros_infinities_and_nans():
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001, 0xFFFFFFFFFFFFFFFF],
                    dtype=np.uint64).view(np.float64)
    _check_cells([0.0, -0.0, math.inf, -math.inf, *nans])
    assert format_rows(np.array([[0.0, -0.0, -math.inf, math.nan]])) == "0.0,-0.0,-inf,nan\n"


def test_the_layout_switches():
    # repr writes 1e-05 but 0.0001, and 9999999999999998.0 but 1e+16
    _check_cells(_with_neighbours(np.array([1e-5, 1e-4, 9999999999999998.0, 1e16, 1e100, 1e-100])))
    assert format_rows(np.array([[1e-5, 1e-4, 9999999999999998.0, 1e16]])) == "1e-05,0.0001,9999999999999998.0,1e+16\n"


@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (3, BLOCK // 2 + 1), (7, 1001), (BLOCK + 3, 1), (2, BLOCK + 5),
                                   (0, 4)])
def test_tables_of_every_shape_the_blocks_cut(shape):
    # cell counts that are no multiple of the block, one-row tables, rows that straddle blocks or
    # are longer than one; -inf, nan and both zeros among the cells
    rng = np.random.default_rng(shape[0] * 10_007 + shape[1])
    table = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20, size=shape)
    table.flat[::5] = rng.choice([-math.inf, math.nan, 0.0, -0.0, 1.0, 5e-324], size=table.flat[::5].shape)
    assert format_rows(table) == _reprs(table)
    assert format_rows(np.asfortranarray(table)) == _reprs(table)


def test_a_table_needs_two_axes_and_a_column():
    for table in (np.zeros(3), np.zeros((2, 0)), np.zeros((1, 2, 3))):
        with pytest.raises(ValueError):
            format_rows(table)


@pytest.mark.parametrize("rows", [2_000, 20_000])
def test_memory_is_set_by_the_block_not_the_table(rows):
    # the text is held twice, as the blocks' pieces and as their join; beyond that, one block's
    # working arrays, whatever the number of rows
    table = np.random.default_rng(rows).dirichlet(np.ones(12), size=rows)
    format_rows(table[:1])  # the tables built on first use are not the block's
    tracemalloc.start()
    try:
        text = format_rows(table)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - 2 * len(text) < 1_000_000, peak - 2 * len(text)
