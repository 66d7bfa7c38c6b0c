"""Result tables: the Table a runner returns, and its CSV and plot-data
writers.

Tables are written a column and CHUNK_ROWS rows at a time.  Each column
chunk becomes a NUL-padded (rows, width) uint8 matrix with a mask of the
bytes to keep; one hstack puts a chunk's matrices between separator and
newline columns, and one boolean compress makes the bytes of one write.
Floats are written as repr spells them, and no float64 cell goes through
repr: values k/2^s with at most 15 significant digits (a dyadic grid)
from int64 digit arithmetic, since that exact decimal is the only string
as short that reads back as the value (_dyadic), and any other float64
value by a vectorised shortest-digit search (Schubfach, _shortest), exact
by construction and checked against repr by the tests.  A column mirrored
on the grid, col[j] and col[n - j] the same double as in an even profile,
formats its first n/2 + 1 values once into 24-byte cells, held as the
formatter made them, CHUNK_ROWS rows a block.  While rows are written, the
memory held beyond the columns is those cells, one chunk's matrices and
the formatter's temporaries for 8,192 values.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Table:
    """A CSV-ready table by column: data holds one equal-length sequence
    per header in columns; plot picks the two columns for plot data."""

    name: str
    columns: tuple
    data: tuple
    plot: tuple | None = None

    def __post_init__(self):
        if len(self.data) != len(self.columns) or len({len(c) for c in self.data}) > 1:
            raise ValueError(f"table {self.name}: need one equal-length column per header")

    @classmethod
    def from_rows(cls, name: str, columns: tuple, rows: list) -> Table:
        """The table of rows, each a tuple of one cell per header; with no
        rows, every column is empty."""
        return cls(name, columns, tuple(zip(*rows, strict=True)) or ((),) * len(columns))


# Table rows formatted and written per write call.  A chunk's cell
# matrices, masks and stacked rows are what the write holds beyond its
# columns and the mirrored cells: at 2^15 rows the 2^20-row `wide` profile
# write peaks 19.4 MB above its start (tracemalloc), against 26.3 MB at
# 2^16, and so stays under the solve before it; it is no slower (medians
# of 8 writes alternated in one process, 2^15 against 2^16: 0.395 against
# 0.404 s and 0.275 against 0.283 s of process time)
CHUNK_ROWS = 1 << 15

# The shortest-digit writer, Schubfach (R. Giulietti, "The Schubfach way to
# render doubles", 2020), in uint64 arrays.  A double v = c 2^q reads back
# from every decimal within half an ulp 2^q of it (ends included for an
# even c; below a power of two the gap is half as wide).  With k =
# floor(log10 2^q), or floor(log10 3/4 2^q) for a power of two, that
# interval is 1 to 10 units of 10^k wide, so it holds at most one multiple
# of 10^(k+1): the shortest decimal where there is one.  Else the shortest
# are multiples of 10^k, and repr writes the one nearest v (ties to even),
# s 10^k or (s + 1) 10^k for s = floor(v 10^-k).  4 v 10^-k and the ends
# are compared with those integers exactly, from products with a 126-bit
# power of ten rounded to odd (_rop).
_MASK32, _MASK63 = (1 << 32) - 1, (1 << 63) - 1
_C_MIN = 1 << 52  # significand of a power of two: its lower neighbour is closer
_K_MIN, _K_MAX = -324, 292  # the scales k of the least and largest doubles
_POW10 = 10 ** np.arange(18, dtype=np.uint64)  # 10^0 to 10^17
_BLOCK = 8192  # values per pass: the uint64 temporaries stay in cache
# Cells of 24 bytes are held as three rows of little-endian uint64 words,
# a column per cell.  Column i of _LOW keeps the first i bytes, of _DOT is
# a '.' at byte i; _HEAD keeps byte 0.
_LOW = np.array([[(1 << 8 * i) - 1 >> 64 * w & (1 << 64) - 1 for i in range(25)]
                 for w in range(3)], np.uint64)
_DOT = (_LOW[:, 1:] ^ _LOW[:, :-1]) & 0x2E2E2E2E2E2E2E2E
_HEAD = _LOW[:, 1:2]
_ZEROS = 0x3030303030303030  # eight ASCII '0'
_SPECIAL = np.frombuffer(b"inf".ljust(24, b"\0") + b"-inf".ljust(24, b"\0")
                         + b"nan".ljust(24, b"\0"), "<u8").reshape(3, 3).T
_X_MIN, _X_MAX = -324, 308  # the decimal exponents of the least and largest doubles


def _flog2pow10(e):
    return e * 913124641741 >> 38  # floor(e log2 10), exact for |e| <= 330


@functools.cache
def _g_table():
    """g(k) = floor(10^-k 2^-r) + 1, with r such that 2^125 <= 10^-k 2^-r <
    2^126, for k from _K_MIN to _K_MAX, as rows of uint64: its high and
    low 63 bits, and their 32-bit halves (low first).  Built from Python
    ints on first use."""
    table = []
    for k in range(_K_MIN, _K_MAX + 1):
        r = _flog2pow10(-k) - 125
        num, den = (10**-k, 1) if k <= 0 else (1, 10**k)
        num, den = (num, den << r) if r >= 0 else (num << -r, den)
        g = num // den + 1
        g1, g0 = g >> 63, g & _MASK63
        table.append((g1, g0, g1 & _MASK32, g1 >> 32, g0 & _MASK32, g0 >> 32))
    return np.array(table, np.uint64).T.copy()


def _mulhi(a0, a1, b0, b1):
    """floor(a b / 2^64) of uint64 arrays a and b, given as 32-bit halves."""
    mid1, mid2 = a1 * b0, a0 * b1
    carry = (a0 * b0 >> 32) + (mid1 & _MASK32) + (mid2 & _MASK32)
    return a1 * b1 + (mid1 >> 32) + (mid2 >> 32) + (carry >> 32)


def _rop(g, cp):
    """g cp / 2^127 rounded to odd, for g = g1 2^63 + g0 (the columns of
    _g_table), as Schubfach takes it: the bits of g cp under 2^64, which
    g's rounding up can set, take no part in the last bit."""
    g1, g0, *halves = g
    cp0, cp1 = cp & _MASK32, cp >> 32
    z = (g1 * cp >> 1) + _mulhi(*halves[2:], cp0, cp1)  # g1 cp wraps to 64 bits
    return _mulhi(*halves[:2], cp0, cp1) + (z >> 63) | (z & _MASK63 != 0)


def _digits(part):
    """The shortest decimal d 10^e that reads back as each value of a
    float64 chunk, d as uint64 with no trailing zero and e as int64; 0.0,
    inf and nan are given 1 10^0."""
    bits = part.view(np.uint64)
    biased = bits >> 52 & 0x7FF
    regular = (biased != 0x7FF) & (bits << 1 != 0)
    c = np.where(biased > 0, bits & _C_MIN - 1 | _C_MIN, bits & _C_MIN - 1)
    c = np.where(regular, c, _C_MIN)
    q = np.where(regular, np.maximum(biased, 1).astype(np.int64) - 1075, -52)
    symmetric = (c != _C_MIN) | (q == -1074)  # the least normal's too
    # floor(log10 2^q), or floor(log10 3/4 2^q): exact for |q| <= 1080
    k = q * 661971961083 - np.where(symmetric, 0, 274743187321) >> 41
    h = (q + _flog2pow10(-k) + 2).astype(np.uint64)
    g = np.take(_g_table(), k - _K_MIN, axis=1)
    # 4 v 10^-k and the interval ends, rounded to odd
    cb = c << 2
    vb = _rop(g, cb << h)
    vbl = _rop(g, cb - np.where(symmetric, np.uint64(2), np.uint64(1)) << h)
    vbr = _rop(g, cb + 2 << h)
    odd = c & 1  # an odd significand's interval leaves out its ends
    # the candidates one digit shorter, sp10 and sp10 + 10, and at this
    # length, s and s + 1; *in says a candidate lies in the interval
    s = vb >> 2
    sp10 = s // 10 * 10
    upin = vbl + odd <= sp10 << 2
    wpin = (sp10 + 10 << 2) + odd <= vbr
    uin = vbl + odd <= s << 2
    win = (s + 1 << 2) + odd <= vbr
    low = vb & 3
    nearer_s = (low < 2) | (low == 2) & (s & 1 == 0)
    d = np.where(upin != wpin, np.where(upin, sp10, sp10 + 10),
                 np.where(np.where(uin != win, uin, nearer_s), s, s + 1))
    for step in (16, 8, 4, 2, 1):  # a d has at most 17 trailing zeros
        quot = d // 10**step
        zeros = quot * 10**step == d
        d = np.where(zeros, quot, d)
        k = k + zeros * step
    return d, k


@functools.cache
def _exponent_words():
    """Word 2 of an exponent-form cell, for each exponent X from _X_MIN:
    e, the sign and the hundreds (NUL under 100), tens and units of |X| in
    bytes 19 to 23.  Built on first use."""
    words = []
    for x in range(_X_MIN, _X_MAX + 1):
        text = b"e" + (b"-" if x < 0 else b"+") + str(abs(x)).zfill(2).rjust(3, "\0").encode()
        words.append(int.from_bytes(b"\0" * 3 + text, "little"))
    return np.array(words, np.uint64)


def _ascii8(x):
    """Eight ASCII digits of each x < 10^8 as a word, the first in its
    lowest byte: x is split into 4-, 2- and 1-digit halves held in 32-, 16-
    and 8-bit lanes, the lane quotients by 100 and 10 taken by multiplying
    and shifting (exact under 10^4 and 100)."""
    hi = x // 10000
    x = hi | x - hi * 10000 << 32
    hi = x * 10486 >> 20 & 0x0000007F0000007F
    x = hi | x - hi * 100 << 16
    hi = x * 103 >> 10 & 0x000F000F000F000F
    return hi | x - hi * 10 << 8 | _ZEROS


def _ascii17(x):
    """The 17 digits of each x < 10^17 as ASCII in bytes 0 to 16 of a cell."""
    top = x // 10**16
    x = x - top * 10**16
    mid = x // 10**8
    a, b = _ascii8(mid), _ascii8(x - mid * 10**8)
    return np.stack([top | 48 | a << 8, a >> 56 | b << 8, b >> 56])


def _shl(cells, bits):
    """Cells moved bits (0 to 63) toward their last byte; numpy shifts a
    uint64 by 64 to 0, so no bits cross a word when bits is 0."""
    out = cells << bits
    out[1:] |= cells[:-1] >> 64 - bits
    return out


def _shortest(part):
    """The repr of each value of a float64 chunk, as a (rows, 24) uint8
    matrix padded with NUL (24 bytes hold the longest float64 repr) and
    the mask of its other bytes, made _BLOCK values at a time."""
    cells = np.empty((part.size, 3), "<u8")
    for a in range(0, part.size, _BLOCK):
        cells[a : a + _BLOCK] = _cells(np.ascontiguousarray(part[a : a + _BLOCK])).T
    m = cells.view(np.uint8)
    return m, m != 0


def _cells(part):
    """The cells of the shortest decimals d 10^e of _digits, laid out as
    repr does: positionally for a leading-digit exponent X with
    -4 <= X < 16, else as d.ddde+XX."""
    d, e = _digits(part)
    n = np.searchsorted(_POW10, d, side="right")  # digits in d
    exp = e + n - 1
    # the n digits from the first byte; 0.0 has the one digit 0
    full = np.where(np.isfinite(part) & (part != 0), d * _POW10[17 - n], 0)
    digits = _ascii17(full) & np.take(_LOW, n, axis=1)
    positional = (exp >= -4) & (exp < 16)
    if positional.all():
        cells = _positional(digits, n, exp)
    elif not positional.any():
        cells = _exponent(digits, n, exp)
    else:
        cells = np.where(positional, _positional(digits, n, exp),
                         _exponent(digits, n, exp))
    cells[0] |= np.where(np.signbit(part), np.uint64(ord("-")), np.uint64(0))
    special = ~np.isfinite(part)
    if special.any():
        values = part[special]
        cells[:, special] = _SPECIAL[:, np.where(np.isnan(values), 2, np.signbit(values))]
    return cells


def _exponent(digits, n, exp):
    """d[.ddd]e+XX from byte 1: the point only after more than one digit,
    and at least two digits of X."""
    head = digits & _HEAD
    cells = _shl(head, 8) | _shl(digits ^ head, 16) | _DOT[:, 2:3] * (n > 1)
    cells[2] |= _exponent_words()[exp - _X_MIN]
    return cells


def _positional(digits, n, exp):
    """ddd.ddd from byte 1, with a digit on each side of the point: the
    digits of 0.000ddd move right past the zeros, which fill every byte up
    to the last digit or the first after the point."""
    shift = np.clip(-exp, 0, 4)  # clipped for the rows that take _exponent
    point = np.clip(exp, 0, 15)
    digits = _shl(digits, 8 * shift.astype(np.uint64))
    digits |= _ZEROS & np.take(_LOW, np.maximum(n + shift, point + 2), axis=1)
    whole = digits & np.take(_LOW, point + 1, axis=1)
    return _shl(whole, 8) | _shl(digits ^ whole, 16) | np.take(_DOT, point + 2, axis=1)


def _dyadic(part):
    """The cells of a float64 chunk written from its digits, or None where
    that might not be repr.

    Every value must be k/2^s with W + s <= 15 (W the digit count of the
    largest integer part), and none nonzero under 1e-4 in magnitude.  Such
    a value is exactly the decimal of its integer part and the s fraction
    digits j 5^s, j its fraction times 2^s: at most 15 significant digits.
    Two decimals of at most 15 significant digits never round to the same
    double, so no other string as short lies within half an ulp: this is
    repr's shortest round trip, written positionally as repr does for
    1e-4 <= |v| < 1e16.  The sign comes from signbit, so -0.0 keeps it.
    """
    size = np.abs(part)
    if not size.max() < 1e15:
        return None  # also inf and nan
    whole = np.trunc(size)
    frac = (size - whole) * 2.0**14  # exact; W >= 1 digit, so s <= 14
    if not np.array_equal(frac, np.trunc(frac)):
        return None
    k = frac.astype(np.int64)
    low = int(np.bitwise_or.reduce(k))
    s = 15 - (low & -low).bit_length() if low else 0  # 14 less k's trailing zeros
    whole = whole.astype(np.int64)
    width = len(str(int(whole.max())))
    if width + s > 15 or np.any((size > 0) & (size < 1e-4)):
        return None
    m = np.zeros((part.size, width + max(s, 1) + 2), np.uint8)
    m[:, 0] = np.where(np.signbit(part), ord("-"), 0)
    m[:, width + 1] = ord(".")
    # right to left, NUL for a blank: integer digit j is blank where
    # |v| < 10^(width - j), fraction digit i where it and every digit after
    # it are 0; the units and the first fraction digit always stay
    rest = whole
    for j in range(width, 0, -1):
        rest, digit = rest // 10, rest % 10 + 48
        m[:, j] = digit if j == width else np.where(whole >= 10 ** (width - j), digit, 0)
    rest, seen = (k >> 14 - s) * 5**s, False
    for i in range(max(s, 1), 0, -1):
        rest, digit = rest // 10, rest % 10
        seen = seen | (digit > 0)
        m[:, width + 1 + i] = digit + 48 if i == 1 else np.where(seen, digit + 48, 0)
    return m, m != 0


def _column(col):
    """cells(a, b): rows a..b-1 of one column as a (rows, width) uint8
    matrix and the mask of its bytes to write.

    A float64 column mirrored on the grid (an even profile: col[j] and
    col[n - j] the same bit pattern, so -0.0 and NaN payloads keep their
    spelling) formats rows 0..n/2 once, CHUNK_ROWS at a time, into blocks
    of (CHUNK_ROWS, 24) bytes, kept apart: no (n/2 + 1, 24) array is made,
    which at 2^20 rows is 12.6 MB that the heap a solve leaves behind has
    no free span for.  Row j gathers from min(j, n - j).  Another
    float64 column's chunks are written by _dyadic where it can, as on a
    grid with a dyadic step, unless its first 64 values fail, and by
    _shortest where it cannot.  Any other column is str per cell (labels,
    ints, floats and float64 scalars: str spells a float as repr does),
    masked by length: a label may hold a NUL.
    """
    if not (isinstance(col, np.ndarray) and col.dtype == np.float64):
        def cells(a, b):
            text = [str(v).encode() for v in col[a:b]]
            padded = np.array(text, "S")
            m = padded.view(np.uint8).reshape(padded.size, padded.itemsize)
            size = np.fromiter(map(len, text), np.intp, len(text))
            return m, np.arange(m.shape[1]) < size[:, None]
        return cells
    n, bits = col.size, col.view(np.uint64)
    if n and np.array_equal(bits[1 : (n + 1) // 2], bits[: n // 2 : -1]):
        size = CHUNK_ROWS
        blocks = [_shortest(col[a : min(a + size, n // 2 + 1)])[0]
                  for a in range(0, n // 2 + 1, size)]

        def cells(a, b):
            j = np.arange(a, b)
            rows = np.minimum(j, n - j)
            first = rows.min() // size
            m = np.concatenate(blocks[first : rows.max() // size + 1])[rows - first * size]
            return m, m != 0
        return cells
    if n and _dyadic(col[:64]) is not None:
        def cells(a, b):
            dyadic = _dyadic(col[a:b])
            return dyadic if dyadic is not None else _shortest(col[a:b])
        return cells
    return lambda a, b: _shortest(col[a:b])


def _write_table(path: str, config_hash: str, header: str, cols, sep: str) -> None:
    """Write the comment and header lines, then the rows of equal-length
    columns, CHUNK_ROWS rows at a time: a chunk's rows are one hstack of
    its column matrices between separator and newline columns, and one
    boolean mask drops the padding before a single write."""
    columns = [_column(c) for c in cols]
    rows = len(cols[0])
    with open(path, "wb") as fh:
        fh.write(f"# config-hash: {config_hash}\n{header}\n".encode())
        for start in range(0, rows, CHUNK_ROWS):
            count = min(CHUNK_ROWS, rows - start)
            between = (np.full((count, 1), ord(sep), np.uint8), np.ones((count, 1), bool))
            parts = []
            for cells_of in columns:
                parts += [cells_of(start, start + count), between]
            parts[-1] = (np.full((count, 1), ord("\n"), np.uint8), between[1])
            matrix, keep = (np.hstack(p) for p in zip(*parts))
            fh.write(matrix[keep])


def write_csv(path: str, table: Table, config_hash: str) -> None:
    _write_table(path, config_hash, ",".join(table.columns), table.data, ",")


def write_plotdata(path: str, table: Table, config_hash: str) -> None:
    xi, yi = table.plot
    header = f"# {table.columns[xi]} vs {table.columns[yi]}"
    _write_table(path, config_hash, header, (table.data[xi], table.data[yi]), " ")
