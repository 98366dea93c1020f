"""The table writer: named float64 columns as CSV or JSON, each value as the
bytes of its ``repr``.  How a float becomes text in an output table is
decided here and nowhere else; ``write_table`` is the one public name.

A table is written one block of ``_BLOCK_ROWS`` values per column at a
time, each block's values formatted where they stand, so the memory a write
takes is one block's, a few megabytes, at any row count.  A write allocates
one buffer of cells, a sign, a text and a separator per value of a block,
and fills its separators once; every block's texts are copied into it once,
and its bytes, NULs dropped, are the block's text.  A column that is a
broadcast view, such as a sweep's axis column, is formatted once along the
axes it varies on (24 bytes per value there).  The texts come from
``shortest_repr``, Ryu's shortest round-trip digits run over up to 4096
values at a time in numpy, which gives the bytes of ``repr``.  It hands the
values Ryu's general case takes, zero, the subnormals and the values from
2^49 up to ``repr`` itself, and a group of fewer than ``_VECTOR_MIN``
values, such as all of a small table's, goes to ``repr`` whole; either way
``_repr_rows`` packs the texts of ``repr``.

Ryu (Adams, "Ryu: fast float-to-string conversion", PLDI 2018) finds the
digits CPython's ``repr`` writes: the shortest decimal that reads back as the
same double, and the nearest one among those.  Its common case needs only a
64x128-bit multiply-and-shift and a loop that drops decimal digits, so it runs
here on whole uint64 arrays, the multiply's high words summed from 32-bit
halves.  It runs only below 2^49, where Ryu's binary exponent e2 is below
-5: every double in [2^49, 2^54) takes Ryu's general case anyway (its
q <= 2, and 2^q divides the 4 m that Ryu scales), and from 2^54 up Ryu
needs a second table of multipliers and checks of divisibility by 5^q, for
values no reference run writes.  One product gives the scaled value vr and
the bits below it; the interval bounds vp and vm are vr plus or minus fixed
steps of the exponent, with the carry those bits decide.  A lane that Ryu
sends to its general case (a product with trailing decimal zeros, or an
interval bound that is itself a candidate), a lane whose carry the 64 bits
kept cannot decide, zero and the subnormals are formatted with ``repr``
instead.  The digit count needs no search: a normal double's mv lies in
[2^54, 2^55), so its vr has as many digits as its exponent's least vr, or
one more where it reaches the next power of ten, less those dropped.  The
digits are then laid out as ``repr`` does: positional for decimal points
from -3 to 16 (``0.0001``, ``1000000000000000.0``), scientific below them
(``1e-05``); no double below 2^49 has its point past 15.

Each lane reads what depends only on its binary exponent or on its text's
layout with one gather from a table.  The exponent table has a row per
biased exponent below 2^49: Ryu's multiplier and shift, the steps from vr to
the bounds, the bits whose zeros send a lane to the general case, the
decimal exponent, and the digit count of the least vr with the power of ten
above it.  The layout table has a row per layout class, a decimal
point's place and a digit count: which bytes stay and which move past the
point, how far, the bytes around the digits, and the scale that left-aligns
the digits, for points -4 to 15.  Texts are built as 24-byte little-endian
strings, three uint64 words per value, so that moving digits to their places
is a shift, not a gather; a scientific text's exponent then goes in after its
digits with one byte scatter.  The two tables, and the texts of the numbers
below 10^4 and of the exponents, are built from Python ints on first use.
"""

from __future__ import annotations

import functools
import itertools
import json

import numpy as np

# The longest repr of a float's magnitude, as 2.2250738585072014e-308's
REPR_WIDTH = 23
# Values per column in a table block, and at most per shortest_repr call:
# large enough that numpy's per-call cost is small, small enough that the
# kernel's temporaries (about 300 bytes a value) take about a megabyte.
_BLOCK_ROWS = 4096
_MAGNITUDE = np.uint64(2 ** 63 - 1)  # a float64's bits but its sign
_MINUS = np.uint8(ord("-"))  # the sign byte of a negative value
# Values below which a group of a block's columns (_groups) goes to repr,
# in one pass, rather than to shortest_repr, whose fixed cost is about a
# hundred numpy calls.  The measured break-even is near 250 values on a
# 2-core host, but lowering the constant would move stability's 123-483-
# value tables, one group each, onto the kernel: a change of its own, to be
# made with paired benchmark runs.
_VECTOR_MIN = 1024

_POW5_BITS = 125  # bits kept of 5^i (Ryu's table width)
# The biased exponent of 2^49: the kernel runs on the doubles below it
_EXP_2_49 = 1023 + 49
# bits - 2^52 of a double that shortest_repr gives to repr: below 2^52
# (zero and the subnormals) it wraps past this, and from 2^49 up it reaches it
_SLOW = np.uint64(_EXP_2_49 - 1 << 52)
_ONE_BITS = np.float64(1.0).view(np.uint64)
_U1 = np.uint64(1)
_U32 = np.uint64(32)
_M32 = np.uint64(2 ** 32 - 1)
_MANTISSA = np.uint64(2 ** 52 - 1)
_POW10 = np.array([10 ** k for k in range(20)], dtype=np.uint64)
_HIDDEN = np.uint64(1 << 52)
# The exponent table has a row per biased exponent below 2^49: the mask of
# the q bits whose zeros send a lane to Ryu's general case; the decimal
# exponent of vr; the shift j - 64 of vr = floor(4 m c / 2^j), 54 to 57, and
# 64 less it; c as four 32-bit limbs and as two 64-bit words (_mul_shift);
# the whole part and the top 64 bits of the fraction of c / 2^j and of
# 2 c / 2^j, the steps from vr to its bounds (both 2 c / 2^j at the least
# normal exponent, where a power of two's lower bound is not nearer); and
# the digit count L of vr at mv = 2^54, 18 or 19, with 10^L.
# The layout table has a row per layout class, (point + 4) * 17 + count - 1
# for a decimal point after ``point`` of ``count`` digits, from -4 to 15,
# where -4 stands for every scientific text; a whole number's row (point >=
# count) is zeros, as every integer-valued double takes Ryu's general case
# and gets repr's text.  A row holds the bytes the first digits keep
# and the bytes the rest move from, three words each; the bytes around the
# digits ("0.00", "." or "0.0"), three words; the move in bits, and 64 less
# it; and 10^(17 - count), which left-aligns the digits in 17 places.
_LAYOUT_COLUMNS = 12


def _pow5bits(e):
    """ceil(log2(5^e)) for 1 <= e <= 3528, and 1 for e = 0."""
    return ((e * 1217359) >> 19) + 1


def _layouts() -> bytes:
    """The layout table's rows, as little-endian bytes."""
    rows = []
    for point in range(-4, 16):
        for count in range(1, 18):
            if point < -3:  # the first digit, a point if more follow
                split, move, text = 1, 1, b"\0." if count > 1 else b""
            elif point <= 0:
                split, move, text = 0, 2 - point, b"0." + b"0" * -point
            elif point < count:
                split, move, text = point, 1, b"\0" * point + b"."
            else:  # a whole number: Ryu's general case, so repr writes it
                rows.append(bytes(8 * _LAYOUT_COLUMNS))
                continue
            head = (1 << 8 * split) - 1
            rows += [head.to_bytes(24, "little"),
                     ((1 << 8 * count) - 1 - head).to_bytes(24, "little"),
                     text.ljust(24, b"\0")]
            rows += [v.to_bytes(8, "little")
                     for v in (8 * move, 64 - 8 * move, 10 ** (17 - count))]
    return b"".join(rows)


@functools.cache
def _tables() -> dict:
    """Every table, built on first use and read-only."""
    # Ryu's multipliers c of 125 bits for e2 < 0: 5^i, by i, as two words
    pow5 = [5 ** i << _POW5_BITS >> _pow5bits(i) for i in range(326)]
    words = np.frombuffer(b"".join(v.to_bytes(16, "little") for v in pow5),
                          dtype="<u8").reshape(-1, 2)
    exponent = np.arange(_EXP_2_49)
    e2 = np.maximum(exponent, 1) - (1023 + 52 + 2)
    # floor(log10(5^-e2)), less one; at least 3 here
    q = (-e2 * 732923 >> 20) - (e2 < -1)
    # each biased exponent's c, as _mul_shift takes it
    words = words[-e2 - q]
    c = np.stack([words[:, 0] & _M32, words[:, 0] >> _U32,
                  words[:, 1] & _M32, words[:, 1] >> _U32,
                  words[:, 0], words[:, 1]])
    shift = (q - _pow5bits(-e2 - q) + _POW5_BITS - 64).astype(np.uint64)
    left = np.uint64(64) - shift
    steps = [_mul_shift(np.full(e2.size, d, dtype=np.uint64), c, shift, left)
             for d in (1, 2)]
    # the step to the lower bound at a power of two, half the upper one,
    # except at the least normal exponent: the double below it is as near
    lower = [np.where(exponent > 1, one, two)
             for one, two in zip(steps[0], steps[1])]
    # the digits of vr at mv = 2^54, the least of its exponent's, which is
    # c / 2^(j - 54): c's high word shifted.  Any vr there is below twice
    # it, so it has as many digits or one more.
    least = words[:, 1] >> (shift - np.uint64(54))
    length = np.searchsorted(_POW10, least, side="right")
    zero = np.uint64(0)
    # the low q bits of mv, which Ryu tests for zeros only for q < 63
    trailing = np.where(q < 63, (_U1 << np.minimum(q, 63).astype(np.uint64))
                        - _U1, ~zero)
    exponents = np.stack([trailing, (q + e2).astype(np.uint64), shift, left,
                          *c, *lower, *steps[1],
                          length.astype(np.uint64), _POW10[length]], axis=1)
    digits = np.arange(10_000, dtype=np.uint16)[:, None] \
        // np.array([1000, 100, 10, 1], dtype=np.uint16) % 10 + ord("0")
    tables = {
        "exponent": exponents,
        "layout": np.frombuffer(_layouts(), dtype="<u8")
        .reshape(-1, _LAYOUT_COLUMNS).copy(),
        # the text of each number below 10^4, first digit in the low byte
        "quads": digits.astype(np.uint8).view("<u4")[:, 0].copy(),
        # "e-05" ... "e-324", by -4 less the decimal point
        "scientific": np.frombuffer(b"".join(
            (b"e-%02d" % e).ljust(5, b"\0") for e in range(5, 325)),
            dtype=np.uint8).reshape(-1, 5).copy(),
    }
    for table in tables.values():
        table.flags.writeable = False
    return tables


def _mul_shift(m: np.ndarray, c: np.ndarray, shift: np.ndarray,
               left: np.ndarray):
    """floor(m c / 2^(64 + shift)) and the 64 bits of m c below it, for
    m < 2^56 and c < 2^126 given as rows c0, c1, c2, c3 of 32 bits and
    c0 + 2^32 c1, c2 + 2^32 c3, with 0 < shift < 64, ``left`` 64 - shift
    and a quotient below 2^64.
    The products' low 64 bits are uint64 products, which wrap; their high
    ones are summed from 32-bit halves, no sum reaching 2^64."""
    m0, m1 = m & _M32, m >> _U32

    def high(y0, y1):
        """floor(m y / 2^64) for y = y0 + 2^32 y1"""
        t = m0 * y0 >> _U32
        t += m0 * y1
        u = m1 * y0
        u += t & _M32
        u >>= _U32
        u += m1 * y1
        u += t >> _U32
        return u

    spill = high(c[0], c[1])
    middle = spill + m * c[5]
    top = high(c[2], c[3]) + (middle < spill)
    low = m * c[4]
    return middle >> shift | top << left, low >> shift | middle << left


def _divmod(x: np.ndarray, c: int) -> tuple:
    """``divmod`` of uint64 ``x`` by the constant ``c``: numpy divides an
    array by a scalar with a multiply, but its remainder by a scalar takes
    a divide per value, several times slower."""
    q = x // np.uint64(c)
    return q, x - q * np.uint64(c)


def _digits(bits: np.ndarray) -> tuple:
    """Ryu's common case for normal doubles below 2^49 given as uint64
    ``bits``: each lane's shortest digits as an integer, how many they are,
    the decimal point's place after ``point`` of them, and whether the lane
    needs Ryu's general case instead (whose digits are then not used)."""
    (trailing, e10, shift, left, *c, whole1, fraction1, whole2, fraction2,
     length, tenth) = np.take(_tables()["exponent"], bits >> np.uint64(52),
                              axis=0).T
    mantissa = bits & _MANTISSA
    mv = (mantissa | _HIDDEN) << np.uint64(2)
    vr, below = _mul_shift(mv, c, shift, left)
    # The bounds (mv + 2) c and (mv - 2) c over 2^j, as vr plus or minus the
    # whole part of 2 c / 2^j, and one more where the fractions carry; for a
    # power of two the lower bound is nearer, (mv - 1) c / 2^j.  Of the j
    # bits below vr only the top 64 are kept, so a sum of 2^64 - 1, or equal
    # words, leaves the carry to the bits below: such a lane goes to the
    # general case.
    upper = below + fraction2
    vp = vr + whole2 + (upper < below)
    nearer = mantissa == 0
    whole = np.where(nearer, whole1, whole2)
    lower = np.where(nearer, fraction1, fraction2)
    vm = vr - whole - (below < lower)
    # Ryu's general case: the exact product has q trailing zeros, or an
    # interval bound is exact.  For a binary exponent e2 < 0 that is a
    # matter of 2^q dividing mv (never so for q >= 63).
    general = (upper == np.uint64(2 ** 64 - 1)) | (below == lower) \
        | (mv & trailing == 0)

    # Drop the digits the interval (vm, vp] lets go: the k-th goes where it
    # holds a multiple of 10^k.  It is 30 to 400 wide (the steps' whole
    # parts are 10 to 199), so the first always goes.  Once one does not go,
    # no later one does, so the next steps run on every lane, and the loop
    # takes the few whose interval holds rounder numbers still.
    p, m = vp // np.uint64(10), vm // np.uint64(10)
    removed = np.ones(bits.size, dtype=np.int64)
    for _ in range(2):
        p //= np.uint64(10)
        m //= np.uint64(10)
        removed += p > m
    lanes = np.flatnonzero(p > m)
    p, m = p[lanes], m[lanes]
    while lanes.size:
        p //= np.uint64(10)
        m //= np.uint64(10)
        more = p > m
        lanes, p, m = lanes[more], p[more], m[more]
        removed[lanes] += 1
    cut = _POW10[removed]
    digits = vr // cut
    floor = digits * cut
    dropped = vr - floor
    # round half up on the digits dropped, or up off an excluded vm
    digits += (dropped >= cut - dropped) | (vm >= floor)
    # vr has its exponent's digit count or one more, less those dropped; if
    # all drop, the digits round up to 1 (1e-20's vr is 999999999999999945)
    count = length.view(np.int64) + (vr >= tenth)
    count -= removed
    np.maximum(count, 1, out=count)
    point = e10.view(np.int64) + removed
    point += count
    return digits, count, point, general


def _text(digits: np.ndarray, count: np.ndarray, point: np.ndarray):
    """The repr of ``digits``, ``count`` of them, with the decimal point
    after ``point`` of them, as (n, 3) little-endian words."""
    tables = _tables()
    quads = tables["quads"]
    layout = np.take(tables["layout"],
                     np.maximum(point, -4) * 17 + (4 * 17 - 1) + count,
                     axis=0).T
    head, tail, around = layout[0:3], layout[3:6], layout[6:9]
    bits, right, scale = layout[9:]
    # the digits left-aligned in 17 places, as text from byte 0 on
    first, rest = _divmod(digits * scale, 10 ** 16)
    first += np.uint64(ord("0"))
    top, bottom = _divmod(rest, 10 ** 8)
    low, high = (np.take(quads, q) | np.take(quads, r) << _U32
                 for q, r in (_divmod(top, 10 ** 4), _divmod(bottom, 10 ** 4)))
    raw = (first | low << np.uint64(8),
           low >> np.uint64(56) | high << np.uint64(8),
           high >> np.uint64(56))
    # the first digits stay and the rest move past the point: one byte, or
    # below 1 past "0.", "0.0", ...; no move passes a word.  The words are
    # taken one at a time: numpy runs a (n, 3) operand three values a call.
    text = np.empty((digits.size, 3), dtype=np.uint64)
    for w in range(3):
        moving = raw[w] & tail[w]
        word = raw[w] & head[w]
        word |= around[w]
        word |= moving << bits
        if w:  # what the word before passes on
            word |= carry >> right
        text[:, w] = word
        carry = moving
    return text


def _repr_rows(bits: np.ndarray) -> np.ndarray:
    """``repr`` itself of float64 magnitudes given as their uint64 ``bits``,
    as NUL-padded bytes shaped (n, REPR_WIDTH), as ``shortest_repr`` gives
    them: the one place a Python text of a float becomes a row."""
    texts = np.array(list(map(repr, bits.view(np.float64).tolist())),
                     dtype=f"S{REPR_WIDTH}")
    return texts.view(np.uint8).reshape(bits.size, REPR_WIDTH)


def shortest_repr(bits: np.ndarray) -> np.ndarray:
    """``repr`` of non-negative finite float64 magnitudes given as their
    uint64 ``bits``, as NUL-padded bytes shaped (n, REPR_WIDTH)."""
    # zero, the subnormals and the doubles from 2^49 up go to repr, in one
    # compare: below the least normal double, bits - 2^52 wraps past it.
    # The kernel reads 1.0 in their place, whose text repr then overwrites.
    slow = bits - _HIDDEN >= _SLOW
    digits, count, point, general = _digits(np.where(slow, _ONE_BITS, bits))
    slow |= general
    text = _text(digits, count, point).astype(
        "<u8", copy=False).view(np.uint8)[:, :REPR_WIDTH]
    lanes = np.flatnonzero(point < -3)  # scientific: the exponent follows
    if lanes.size:  # the digits, and a point if more than one
        start = count[lanes] + (count[lanes] > 1)
        text[lanes[:, None], start[:, None] + np.arange(5)] = \
            _tables()["scientific"][-4 - point[lanes]]
    lanes = np.flatnonzero(slow)
    if lanes.size:
        text[lanes] = _repr_rows(bits[lanes])
    return text


def _blocks(shape: tuple) -> list:
    """The index of each block of at most ``_BLOCK_ROWS`` values of a 2-D
    array of ``shape``, in C order: whole rows, or pieces of one row when a
    row is longer than a block.  There is always at least one block."""
    n1, n2 = shape
    if n2 > _BLOCK_ROWS:
        return [(i, slice(j, j + _BLOCK_ROWS))
                for i in range(n1) for j in range(0, n2, _BLOCK_ROWS)]
    step = _BLOCK_ROWS // max(n2, 1)
    return [slice(i, i + step) for i in range(0, max(n1, 1), step)]


def _groups(fixed: list, n: int) -> list:
    """The columns of a block of ``n`` rows that have no ``fixed`` texts, as
    slices of the cells' column axis: each run of adjacent such columns cut
    into balanced groups of whole columns of at most ``_BLOCK_ROWS`` values,
    so that a column that fills a block is a group alone."""
    per = max(_BLOCK_ROWS // max(n, 1), 1)
    groups = []
    for own, run in itertools.groupby(range(len(fixed)),
                                      lambda c: fixed[c] is None):
        if own:
            run = list(run)
            start, size = run[0], len(run)
            count = -(-size // per)
            groups += [slice(start + i * size // count,
                             start + (i + 1) * size // count)
                       for i in range(count)]
    return groups


def _texts(values: np.ndarray, cells: np.ndarray) -> None:
    """Write float64 ``values``, shaped (g, n), as text into ``cells``, their
    (n, g, 1 + REPR_WIDTH) cells: a NUL or ``-`` for the sign, then the
    magnitude's ``repr`` padded with NULs.  ``repr(-x)`` is ``'-' +
    repr(x)`` for every finite x, so -0.0 gets its sign like any other
    value.  The values, at most ``_BLOCK_ROWS``, take one ``shortest_repr``
    call, or one ``repr`` pass if fewer than ``_VECTOR_MIN``, whose texts
    are copied once, into the cells."""
    bits = values.view(np.uint64)
    np.multiply(np.signbit(values).T, _MINUS, out=cells[..., 0])
    magnitudes = (bits & _MAGNITUDE).reshape(-1)
    text = shortest_repr(magnitudes) if magnitudes.size >= _VECTOR_MIN \
        else _repr_rows(magnitudes)
    cells[..., 1:] = text.reshape(values.shape + (REPR_WIDTH,)) \
        .transpose(1, 0, 2)


def _broadcast_texts(grids: list) -> list:
    """For each 2-D grid, its text cells if it is a broadcast view, shaped
    (n1, n2, 1 + REPR_WIDTH) and formatted once along the axes where its
    stride is not zero; None for any other grid.  The values of all such
    grids are formatted together, in equal chunks of at most
    ``_BLOCK_ROWS``, so that a small table's take one ``repr`` pass."""
    varying = [grid[tuple(slice(None) if stride else slice(0, 1)
                          for stride in grid.strides)] for grid in grids]
    broadcast = [v.reshape(-1) for v, grid in zip(varying, grids)
                 if v.size < grid.size]
    if not broadcast:
        return [None] * len(grids)
    values = np.concatenate(broadcast)[None]
    texts = np.empty((values.size, 1, 1 + REPR_WIDTH), dtype=np.uint8)
    step = -(-values.size // -(-values.size // _BLOCK_ROWS))
    for start in range(0, values.size, step):
        _texts(values[:, start:start + step], texts[start:start + step])
    fixed, start = [], 0
    for v, grid in zip(varying, grids):
        if v.size == grid.size:
            fixed.append(None)
            continue
        fixed.append(np.broadcast_to(
            texts[start:start + v.size].reshape(v.shape + (1 + REPR_WIDTH,)),
            grid.shape + (1 + REPR_WIDTH,)))
        start += v.size
    return fixed


def _block_text(grids: list, fixed: list, cells: np.ndarray, index) -> bytes:
    """One block of ``grids`` as text, written into the first rows of
    ``cells``, (rows, columns, cell width) bytes whose separators after each
    value's text are in place: each value's cell and its separator, NULs
    dropped.  A column with ``fixed`` texts (``_broadcast_texts``) takes
    them; the others are formatted a group of whole columns at a time
    (``_groups``), so that a small table costs few numpy calls."""
    n = grids[0][index].size
    block = cells[:n]
    for cols in _groups(fixed, n):
        group = grids[cols]
        values = group[0][index].reshape(1, n) if len(group) == 1 else \
            np.stack([grid[index].reshape(n) for grid in group])
        _texts(values, block[:, cols, :1 + REPR_WIDTH])
    for c, texts in enumerate(fixed):
        if texts is not None:
            part = texts[index]  # split the rows into the part's own shape
            block[:, c, :1 + REPR_WIDTH].reshape(part.shape)[...] = part
    return block.tobytes().translate(None, b"\0")


def write_table(out, header, columns, fmt: str) -> None:
    """Write named float64 columns as CSV or JSON to ``out``, a file open
    for binary writing (or an ``io.BytesIO``): ASCII bytes, each value as
    ``repr(float(v))``.

    The columns are arrays of one shape, 1-D or 2-D (a broadcast view
    serves), each written in C order.  The rows are formatted and written
    one block of ``_BLOCK_ROWS`` values per column at a time (``_blocks``);
    JSON writes its columns one after another, each block by block.  Every
    block is formatted into one cell buffer the write allocates once, with
    its separators filled once, each text copied into its cell once.  A
    broadcast column is formatted once along the axes it varies on, 24
    bytes per value there (``_broadcast_texts``).  So the memory a write
    takes is one block's, under 3 MB for five columns, and does not grow
    with the rows.  JSON holds the bytes of ``json.dumps(table,
    sort_keys=True, indent=1)``, which also writes a float as its ``repr``:
    one sorted key per column, and ``[]`` for an empty one.
    """
    grids = [col if col.ndim == 2 else col.reshape(1, -1) for col in columns]
    blocks = _blocks(grids[0].shape)
    fixed = _broadcast_texts(grids)
    rows = grids[0][blocks[0]].size  # the first block is the largest
    if fmt == "json":
        sep = b",\n  "
        cells = np.empty((rows, 1, 1 + REPR_WIDTH + len(sep)), dtype=np.uint8)
        cells[:, :, 1 + REPR_WIDTH:] = np.frombuffer(sep, np.uint8)
        out.write(b"{")
        for i, c in enumerate(sorted(range(len(header)),
                                     key=header.__getitem__)):
            out.write(f"{',' if i else ''}\n {json.dumps(header[c])}: ["
                      .encode())
            if grids[c].size:
                out.write(b"\n  ")
                for k, index in enumerate(blocks):
                    text = _block_text(grids[c:c + 1], fixed[c:c + 1],
                                       cells, index)
                    out.write(text[:-len(sep)] if k == len(blocks) - 1
                              else text)
                out.write(b"\n ")
            out.write(b"]")
        out.write(b"\n}\n")
        return
    cells = np.empty((rows, len(grids), 2 + REPR_WIDTH), dtype=np.uint8)
    cells[:, :, 1 + REPR_WIDTH] = np.frombuffer(
        b"," * (len(grids) - 1) + b"\n", np.uint8)
    out.write((",".join(header) + "\n").encode())
    for index in blocks:
        out.write(_block_text(grids, fixed, cells, index))
