"""Float tables as CSV text, each cell with exactly the bytes ``repr`` gives it, at array speed.

:func:`format_rows` writes a 2-D float array as lines of comma-separated cells.
It works on blocks of ``BLOCK`` cells, and each block takes three steps:

1. Schubfach (Giulietti, "The Schubfach way to render doubles", 2020) finds each
   float's shortest decimal ``f 10^k`` that reads back as the float.  Where there
   are several, it takes the closest, and on a tie the one with even ``f``.  It
   works from the float's bits in uint64 arithmetic only: numpy turns uint64
   mixed with int64 into float64, so the two are kept apart.  Python's digits
   need two changes to the Java reference.  Java writes at least two digits, and
   Python as few as reading back needs (Java's 4.9E-324 is Python's 5e-324).  So
   Java's ``s >= 100`` guard and its ``10 c`` path for the smallest subnormals are
   left out.
2. The 17 digits of ``f`` padded with zeros, the exponent's digits and the
   constant characters make one 32-byte row per cell.  A template gathers the
   cell's text from that row, padded to a fixed width.  The template is chosen by
   the float's sign, its digit count and its layout.  The layout is where the
   point goes in plain notation (``repr`` writes plain from 1e-4 to below 1e16),
   or else the sign and width of the exponent.  0.0, -0.0, inf, -inf and nan have
   templates of their own.  A template is built the first time a block needs it,
   and none is built per exponent.
3. One ``bytes.translate`` deletes the padding.

``repr`` itself is the tests' oracle; no cell goes through it here.
"""

from __future__ import annotations

from functools import cache

import numpy as np

# Cells per block: the working arrays stay under 1 MB, whatever the size of the table.
BLOCK = 2 ** 11

_WIDTH = 24  # the longest repr, as -2.2250738585072014e-308

# A cell's row, as 8 uint32 words: "000" and the first digit; the other 16 digits (or the text of
# inf and nan); "0" and the exponent's 3 digits; ".-e+"; then a padding byte and the separator.
_ROW = 32
_ZERO, _DIGITS, _EXPONENT = 0, 3, 21
_POINT, _MINUS, _E, _PLUS, _PAD, _SEPARATOR = range(24, 30)
_SIGNS, _COMMA, _NEWLINE = (np.frombuffer(text, np.uint32)[0] for text in (b".-e+", b"\x00,\x00\x00",
                                                                          b"\x00\n\x00\x00"))
_INF, _NAN = np.frombuffer(b"inf\x00nan\x00", np.uint32)

# Template keys: (sign, digit count, layout) of the nonzero finite floats, then the specials.
# Layouts 0-19 are plain, with the point after 3 leading zeros (0.000ddd) up to after 16 digits;
# 20-23 are scientific, by the exponent's sign and whether it has 3 digits.
_LAYOUTS = 24
_SPECIALS = {"0.0": [_ZERO, _POINT, _ZERO], "-0.0": [_MINUS, _ZERO, _POINT, _ZERO],
             "inf": [4, 5, 6], "-inf": [_MINUS, 4, 5, 6], "nan": [4, 5, 6]}
_ZERO_KEY = 2 * 17 * _LAYOUTS
# Each key's template, written the first time a block needs it: a cache of _template, which
# depends on the key alone, so no caller sees another's use of it
_TEMPLATES = np.zeros((_ZERO_KEY + len(_SPECIALS), _WIDTH + 1), np.intp)
_BUILT = np.zeros(len(_TEMPLATES), bool)
_OFFSETS = np.arange(0, BLOCK * _ROW, _ROW)[:, None]

_LOW_63 = 2 ** 63 - 1
_LOW_32 = 2 ** 32 - 1
_POW10 = 10 ** np.arange(18, dtype=np.uint64)
_K_MIN, _K_MAX = -324, 292  # the decimal exponents k of the doubles' Schubfach intervals
_ONE_BITS, _INF_BITS = 0x3FF << 52, 0x7FF << 52


def _template(key: int) -> list[int]:
    """The row columns that spell the cells of ``key``, padded, then the separator."""
    if key >= _ZERO_KEY:
        columns = list(_SPECIALS.values())[key - _ZERO_KEY]
    else:
        signed, layout = divmod(key, _LAYOUTS)
        negative, count = divmod(signed, 17)
        digits = list(range(_DIGITS, _DIGITS + count + 1))
        columns = [_MINUS] * negative
        if layout < 20:  # plain: the point follows the first `point` digits
            point = layout - 3
            if point <= 0:
                columns += [_ZERO, _POINT] + [_ZERO] * -point + digits
            elif point < len(digits):
                columns += digits[:point] + [_POINT] + digits[point:]
            else:
                columns += digits + [_ZERO] * (point - len(digits)) + [_POINT, _ZERO]
        else:
            below, wide = divmod(layout - 20, 2)
            columns += digits[:1] + ([_POINT] + digits[1:]) * (len(digits) > 1)
            columns += [_E, _MINUS if below else _PLUS] + list(range(_EXPONENT + 1 - wide, _EXPONENT + 3))
    return columns + [_PAD] * (_WIDTH - len(columns)) + [_SEPARATOR]


@cache
def _tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``g1, g0`` by ``k - _K_MIN``: ``g = g1 2^63 + g0 = floor(10^-k 2^-r) + 1``, with r the
    integer that puts g in [2^125, 2^126] (Giulietti's table); the ASCII digits of 0..9999 as
    uint32 words; and the number of trailing zeros of each as 4 digits (4 for 0)."""
    g = []
    for k in range(_K_MIN, _K_MAX + 1):
        r = ((-k * 913_124_641_741) >> 38) - 125  # floor(log2(10^-k)) - 125
        # floor(10^-k 2^-r): a shifted integer where k <= 0, else a quotient
        g.append((10 ** -k >> r if r >= 0 else 10 ** -k << -r) + 1 if k <= 0 else (1 << -r) // 10 ** k + 1)
    quads = np.arange(10_000, dtype=np.uint16)
    places = quads[:, None] // np.array([1000, 100, 10, 1], np.uint16) % 10
    zeros = sum(quads % 10 ** i == 0 for i in range(1, 5))
    return (np.array([x >> 63 for x in g], np.uint64), np.array([x & _LOW_63 for x in g], np.uint64),
            (places + ord("0")).astype(np.uint8).view(np.uint32).ravel(), zeros)


def _halves(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return x & _LOW_32, x >> 32


def _high(a: tuple, b: tuple) -> np.ndarray:
    """The high 64 bits of each 128-bit product ``a b``, from the halves of a below 2^63 and b below 2^60."""
    (a0, a1), (b0, b1) = a, b
    return a1 * b1 + ((a0 * b0 >> 32) + a0 * b1 + a1 * b0 >> 32)  # the middle sum stays below 2^64


def _rop(g: tuple, cp: np.ndarray) -> np.ndarray:
    """``g cp / 2^127`` rounded to odd (Giulietti's r_o'), from ``g = (g1, g1's halves, g0's halves)``."""
    g1, g1_halves, g0_halves = g
    halves = _halves(cp)
    z = (g1 * cp >> 1) + _high(g0_halves, halves)
    return (_high(g1_halves, halves) + (z >> 63)) | ((z & _LOW_63) + _LOW_63) >> 63


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(f, k)`` by cell: the shortest decimal ``f 10^k`` that reads back as the positive finite
    float of those bits, the closest one where there are several, on a tie the one with even f."""
    g1_table, g0_table, _, _ = _tables()
    fraction, biased = bits & (2 ** 52 - 1), (bits >> 52).astype(np.int64)
    c = fraction | (biased > 0).astype(np.uint64) << 52
    q = np.maximum(biased, 1) - 1075
    irregular = (fraction == 0) & (biased > 1)  # a power of two: the gap below is half the one above
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41  # floor(log10(2^q)), or of 3/4 2^q
    h = (q + ((-k * 913_124_641_741) >> 38) + 2).astype(np.uint64)
    g1 = g1_table.take(k - _K_MIN)
    g = g1, _halves(g1), _halves(g0_table.take(k - _K_MIN))
    odd = c & 1  # an odd c's interval excludes its ends
    cb = c << 2
    vb, vbl, vbr = (_rop(g, cp << h) for cp in (cb, cb - 2 + irregular, cb + 2))
    s = vb >> 2
    sp10 = s // 10 * 10  # the candidates one digit shorter: sp10 and sp10 + 10
    upin, wpin = vbl + odd <= sp10 << 2, (sp10 + 10 << 2) + odd <= vbr
    uin, win = vbl + odd <= s << 2, (s + 1 << 2) + odd <= vbr
    middle = 2 * s + 1 << 1  # 4 (s + 1/2), the midpoint of s and s + 1 on vb's scale
    closer = (vb < middle) | (vb == middle) & (s & 1 == 0)
    lower = uin & ~win | ~(uin ^ win) & closer  # s, not s + 1
    longer, shorter = s + ~lower, sp10 + np.uint64(10) * ~upin
    return longer + (shorter - longer) * (upin ^ wpin), k


def _digit_rows(f: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each cell's row, but for its separator, and its digit count and point: ``f 10^k`` is
    ``0.DIGITS 10^point``."""
    _, _, quads, zeros = _tables()
    length = np.searchsorted(_POW10, f, side="right")
    f = f * _POW10.take(17 - length)  # 17 digits, the first nonzero
    lead = f // 10 ** 16
    upper = (f - lead * 10 ** 16) // 10 ** 8
    lower = (f - lead * 10 ** 16 - upper * 10 ** 8).astype(np.intp)
    upper = upper.astype(np.intp)
    parts = (lead.astype(np.intp), upper // 10_000, upper - upper // 10_000 * 10_000, lower // 10_000,
             lower - lower // 10_000 * 10_000)
    rows = np.empty((len(f), _ROW // 4), np.uint32)
    for i, part in enumerate(parts):
        rows[:, i] = quads.take(part)
    point = k + length
    rows[:, 5] = quads.take(np.abs(point - 1))
    rows[:, 6] = _SIGNS
    _, first, second, third, fourth = parts  # the count drops the trailing zeros of the four quads
    count = 17 - zeros.take(fourth) - (fourth == 0) * (zeros.take(third) + (third == 0) * (
        zeros.take(second) + (second == 0) * zeros.take(first)))
    return rows, count, point


def _block_text(cells: np.ndarray, first: int, columns: int) -> str:
    """The text of the C-ordered float cells from flat index ``first`` of a table with ``columns``
    columns: each cell's repr, then a comma, or a newline after a row's last cell."""
    bits = cells.view(np.uint64)
    magnitude = bits & _LOW_63
    regular = (magnitude != 0) & (magnitude < _INF_BITS)  # neither zero, nor inf, nor nan
    rows, count, point = _digit_rows(*_shortest(magnitude + (_ONE_BITS - magnitude) * ~regular))  # 1.0 stands in
    rows[:, 7] = _COMMA
    rows[columns - 1 - first % columns::columns, 7] = _NEWLINE
    negative = (bits >> 63).astype(np.intp)
    exponent = np.abs(point - 1)
    scientific = 20 + 2 * (point < 1) + (exponent >= 100)
    plain = (-3 <= point) & (point <= 16)
    key = (negative * 17 + count - 1) * _LAYOUTS + scientific + (point + 3 - scientific) * plain
    if not regular.all():
        special = ~regular
        nan = magnitude[special] > _INF_BITS
        rows[special, 1] = np.where(nan, _NAN, _INF)
        key[special] = np.where(magnitude[special] == 0, _ZERO_KEY + negative[special],
                                np.where(nan, _ZERO_KEY + 4, _ZERO_KEY + 2 + negative[special]))
    for fresh in set(key[~_BUILT.take(key)].tolist()):
        _TEMPLATES[fresh] = _template(fresh)
        _BUILT[fresh] = True
    spans = _TEMPLATES.take(key, axis=0)
    spans += _OFFSETS[:len(cells)]
    return rows.view(np.uint8).ravel().take(spans).tobytes().translate(None, b"\x00").decode("ascii")


def format_rows(table: np.ndarray) -> str:
    """The rows of a 2-D float array as text: each cell with ``repr``'s bytes, cells separated by
    commas, each row ended by a newline."""
    table = np.asarray(table, dtype=float)
    if table.ndim != 2 or not table.shape[1]:
        raise ValueError("format_rows needs a 2-D array with at least one column")
    cells = np.ascontiguousarray(table).ravel()
    return "".join(_block_text(cells[start:start + BLOCK], start, table.shape[1])
                   for start in range(0, cells.size, BLOCK))
