"""The table writer: named float64 columns as CSV or JSON, each value as the
bytes of its ``repr``.  How a float becomes text in an output table is
decided here and nowhere else; ``write_table`` is the one public name.

A table is written one block of ``_BLOCK_ROWS`` values per column at a
time, each block's values formatted where they stand, so the memory a write
takes is one block's, a few megabytes, at any row count.  A column that is
a broadcast view, such as a sweep's axis column, is formatted once along
the axes it varies on (24 bytes per value there).  The texts come from
``shortest_repr``, Ryu's shortest round-trip digits run over up to 4096
values at a time in numpy, which gives the bytes of ``repr``.  It hands the
values Ryu's general case takes, zero, and the values from 2^49 up to
``repr`` itself, and a block of fewer than ``_VECTOR_MIN`` values, such as
all of a small table's, goes to ``repr`` whole; either way ``_repr_rows``
packs the texts of ``repr``.

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
kept cannot decide, and zero are formatted with ``repr`` instead.  The
digits are then laid out as ``repr`` does: positional for decimal points
from -3 to 16 (``0.0001``, ``1000000000000000.0``), scientific below them
(``1e-05``); no double below 2^49 has its point past 15.

Each lane reads what depends only on its binary exponent or on its text's
layout with one gather from a table.  The exponent table has a row per
biased exponent below 2^49: Ryu's multiplier and shift, the steps from vr to
the bounds, the bits whose zeros send a lane to the general case, and the
decimal exponent.  The layout table has a row per layout class, a decimal
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
import json

import numpy as np

# The longest repr of a float's magnitude, as 2.2250738585072014e-308's
REPR_WIDTH = 23
# Values per column in a table block, and at most per shortest_repr call:
# large enough that numpy's per-call cost is small, small enough that the
# kernel's temporaries (about 300 bytes a value) take about a megabyte.
_BLOCK_ROWS = 4096
_MAGNITUDE = np.uint64(2 ** 63 - 1)  # a float64's bits but its sign
# Values below which a block goes to repr rather than to shortest_repr,
# whose fixed cost is about a hundred numpy calls.  The measured break-even
# is near 250 values on a 2-core host, but lowering the constant would move
# stability's 123-483-value tables onto the kernel: a change of its own, to
# be made with paired benchmark runs.
_VECTOR_MIN = 1024

_POW5_BITS = 125  # bits kept of 5^i (Ryu's table width)
# The biased exponent of 2^49: the kernel runs on the doubles below it
_EXP_2_49 = 1023 + 49
_BITS_2_49 = np.uint64(_EXP_2_49 << 52)
_ONE_BITS = np.float64(1.0).view(np.uint64)
_U1 = np.uint64(1)
_U32 = np.uint64(32)
_M32 = np.uint64(2 ** 32 - 1)
_MANTISSA = np.uint64(2 ** 52 - 1)
_POW10 = np.array([10 ** k for k in range(20)], dtype=np.uint64)
_HIDDEN = np.uint64(1 << 52)
# The exponent table has a row per biased exponent below 2^49: the hidden
# bit; 2^52 where the exponent is above 1, so that a power of two's
# mantissa | it is 2^52; the mask of the q bits whose zeros send a lane to
# Ryu's general case; the decimal exponent of vr; the shift j - 64 of
# vr = floor(4 m c / 2^j), 54 to 57, and 64 less it; c as four 32-bit limbs
# and as two 64-bit words (_mul_shift); and the whole part and the top 64
# bits of the fraction of c / 2^j and of 2 c / 2^j, the steps from vr to
# its bounds.
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
    steps = [_mul_shift(np.full(e2.size, d, dtype=np.uint64), c, shift,
                        np.uint64(64) - shift) for d in (1, 2)]
    zero = np.uint64(0)
    # the low q bits of mv, which Ryu tests for zeros only for q < 63
    trailing = np.where(q < 63, (_U1 << np.minimum(q, 63).astype(np.uint64))
                        - _U1, ~zero)
    exponents = np.stack([np.where(exponent > 0, _HIDDEN, zero),
                          np.where(exponent > 1, _HIDDEN, zero), trailing,
                          (q + e2).astype(np.uint64), shift,
                          np.uint64(64) - shift, *c,
                          *steps[0], *steps[1]], axis=1)
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
    """Ryu's common case for positive doubles below 2^49 given as uint64
    ``bits``: each lane's shortest digits as an integer, its decimal
    exponent, and whether it needs Ryu's general case instead (whose digits
    are then not used)."""
    (hidden, power, trailing, e10, shift, left, *c, whole1, fraction1, whole2,
     fraction2) = np.take(_tables()["exponent"], bits >> np.uint64(52),
                          axis=0).T
    mantissa = bits & _MANTISSA
    mv = (mantissa | hidden) << np.uint64(2)
    vr, below = _mul_shift(mv, c, shift, left)
    # The bounds (mv + 2) c and (mv - 2) c over 2^j, as vr plus or minus the
    # whole part of 2 c / 2^j, and one more where the fractions carry; for a
    # power of two the lower bound is nearer, (mv - 1) c / 2^j.  Of the j
    # bits below vr only the top 64 are kept, so a sum of 2^64 - 1, or equal
    # words, leaves the carry to the bits below: such a lane goes to the
    # general case.
    upper = below + fraction2
    vp = vr + whole2 + (upper < below)
    nearer = (mantissa | power) == _HIDDEN
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
    return digits, e10.view(np.int64) + removed, general


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
    # zero and the doubles from 2^49 up go to repr; the kernel reads 1.0 in
    # their place, whose text repr then overwrites
    slow = (bits == 0) | (bits >= _BITS_2_49)
    digits, exponent, general = _digits(np.where(slow, _ONE_BITS, bits))
    slow |= general
    count = np.searchsorted(_POW10, digits, side="right")
    point = exponent + count
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


def _texts(values: np.ndarray) -> np.ndarray:
    """Float64 ``values`` as text cells, (n, 1 + REPR_WIDTH) bytes: a NUL or
    ``-`` for the sign, then the magnitude's ``repr`` padded with NULs.
    ``repr(-x)`` is ``'-' + repr(x)`` for every finite x, so -0.0 gets its
    sign like any other value.  Fewer than ``_VECTOR_MIN`` values go to
    ``repr`` at once, and more to ``shortest_repr`` in equal chunks of at
    most ``_BLOCK_ROWS``, so that no chunk is smaller than ``_VECTOR_MIN``."""
    bits = values.reshape(-1).view(np.uint64)
    cells = np.empty((bits.size, 1 + REPR_WIDTH), dtype=np.uint8)
    cells[:, 0] = (bits >> 63) * ord("-")
    magnitudes = bits & _MAGNITUDE
    if bits.size < _VECTOR_MIN:
        cells[:, 1:] = _repr_rows(magnitudes)
        return cells
    chunks = -(-bits.size // _BLOCK_ROWS)
    step = -(-bits.size // chunks)
    for start in range(0, bits.size, step):
        cells[start:start + step, 1:] = \
            shortest_repr(magnitudes[start:start + step])
    return cells


def _broadcast_texts(grid: np.ndarray):
    """The text cells of a 2-D ``grid`` that is a broadcast view, shaped
    (n1, n2, 1 + REPR_WIDTH) and formatted once along the axes where its
    stride is not zero; None for any other grid."""
    varying = grid[tuple(slice(None) if stride else slice(0, 1)
                         for stride in grid.strides)]
    if varying.size == grid.size:
        return None
    return np.broadcast_to(
        _texts(varying).reshape(varying.shape + (1 + REPR_WIDTH,)),
        grid.shape + (1 + REPR_WIDTH,))


def _block_text(grids: list, fixed: list, seps: np.ndarray, index) -> bytes:
    """One block of ``grids`` as text: each value's cell, then its column's
    separator from ``seps`` (one row of bytes per column), NULs dropped.
    A column with ``fixed`` texts (``_broadcast_texts``) takes them; the
    others' values are formatted in one ``_texts`` call, so that a small
    table costs few numpy calls."""
    own = [c for c, texts in enumerate(fixed) if texts is None]
    n = grids[0][index].size
    cells = np.empty((n, len(grids), 1 + REPR_WIDTH + seps.shape[1]),
                     dtype=np.uint8)
    cells[:, :, 1 + REPR_WIDTH:] = seps
    if own:
        values = np.stack([grids[c][index] for c in own]).reshape(-1)
        cells[:, own, :1 + REPR_WIDTH] = _texts(values) \
            .reshape(len(own), n, 1 + REPR_WIDTH).transpose(1, 0, 2)
    for c, texts in enumerate(fixed):
        if texts is not None:
            cells[:, c, :1 + REPR_WIDTH] = \
                texts[index].reshape(n, 1 + REPR_WIDTH)
    return cells.tobytes().translate(None, b"\0")


def write_table(out, header, columns, fmt: str) -> None:
    """Write named float64 columns as CSV or JSON to ``out``, a file open
    for binary writing (or an ``io.BytesIO``): ASCII bytes, each value as
    ``repr(float(v))``.

    The columns are arrays of one shape, 1-D or 2-D (a broadcast view
    serves), each written in C order.  The rows are formatted and written
    one block of ``_BLOCK_ROWS`` values per column at a time (``_blocks``);
    JSON writes its columns one after another, each block by block.  A
    broadcast column is formatted once along the axes it varies on, 24
    bytes per value there (``_broadcast_texts``).  So the memory a write
    takes is one block's, under 3 MB for five columns, and does not grow
    with the rows.  JSON holds the bytes of ``json.dumps(table,
    sort_keys=True, indent=1)``, which also writes a float as its ``repr``:
    one sorted key per column, and ``[]`` for an empty one.
    """
    grids = [col if col.ndim == 2 else col.reshape(1, -1) for col in columns]
    blocks = _blocks(grids[0].shape)
    fixed = [_broadcast_texts(grid) for grid in grids]
    if fmt == "json":
        sep = b",\n  "
        seps = np.frombuffer(sep, np.uint8)[None]
        out.write(b"{")
        for i, c in enumerate(sorted(range(len(header)),
                                     key=header.__getitem__)):
            out.write(f"{',' if i else ''}\n {json.dumps(header[c])}: ["
                      .encode())
            if grids[c].size:
                out.write(b"\n  ")
                for k, index in enumerate(blocks):
                    text = _block_text(grids[c:c + 1], fixed[c:c + 1],
                                       seps, index)
                    out.write(text[:-len(sep)] if k == len(blocks) - 1
                              else text)
                out.write(b"\n ")
            out.write(b"]")
        out.write(b"\n}\n")
        return
    seps = np.frombuffer(b"," * (len(grids) - 1) + b"\n", np.uint8)[:, None]
    out.write((",".join(header) + "\n").encode())
    for index in blocks:
        out.write(_block_text(grids, fixed, seps, index))
