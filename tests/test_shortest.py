"""The vectorised shortest round-trip formatter against ``repr``."""

import math
from decimal import Decimal

import numpy as np
import pytest

from spinclock import _table, cli
from spinclock._table import _VECTOR_MIN, REPR_WIDTH, shortest_repr

_TINY = 5e-324
_HUGE = 1.7976931348623157e308


def _neighbours(values) -> np.ndarray:
    """``values`` and the doubles one ulp either side of each, positive and
    finite."""
    values = np.asarray(values, dtype=np.float64)
    with np.errstate(over="ignore"):  # past the largest double
        every = np.concatenate([np.nextafter(values, 0.0), values,
                                np.nextafter(values, np.inf)])
    return every[(every > 0) & np.isfinite(every)]


def _assert_repr(values) -> None:
    values = np.abs(np.asarray(values, dtype=np.float64)).ravel()
    text = shortest_repr(values.view(np.uint64))
    assert text.shape == (values.size, REPR_WIDTH)
    got = [row.tobytes().rstrip(b"\0") for row in text]
    wrong = [(repr(v), g) for v, g in zip(values.tolist(), got)
             if repr(v).encode() != g]
    assert not wrong, (len(wrong), wrong[:5])


def _layout(value: float) -> tuple:
    """The decimal point and digit count of ``repr(value)``: the point after
    ``point`` digits, with -4 for every scientific text below 1e-04."""
    _, digits, exponent = Decimal(repr(value)).normalize().as_tuple()
    point = exponent + len(digits)
    return (-4 if "e-" in repr(value) else point), len(digits)


# The layout classes the kernel writes: -4 for scientific, and a point from
# -3 to 15 after fewer digits than there are.  A double whose repr is a whole
# number (point >= count) takes Ryu's general case, and one from 1e15 up
# (point 16) is past 2^49, so those classes meet repr's own text, not the
# kernel's, and are left out.
@pytest.mark.parametrize("point,count", [
    (point, count) for point in range(-4, 16) for count in range(1, 18)
    if point < count])
def test_every_layout_class(point, count):
    # a decimal of `count` digits ending in a non-zero one, then the doubles
    # beside it until one's repr has the layout asked for
    digits = ("123456789" * 2)[:count]
    value = float(f"0.{digits}e{point if point > -4 else -6}")
    for _ in range(400):
        if _layout(value) == (point, count):
            break
        value = math.nextafter(value, math.inf)
    else:
        pytest.fail("no double near the decimal has the layout")
    assert value < 2.0 ** 53
    _assert_repr([value])


def test_random_bit_patterns_of_every_exponent():
    rng = np.random.default_rng(1401)
    exponent = np.repeat(np.arange(2047, dtype=np.uint64), 48)
    mantissa = rng.integers(0, 2 ** 52, exponent.size, dtype=np.uint64)
    _assert_repr((exponent << np.uint64(52) | mantissa).view(np.float64))


def test_subnormals_and_the_ends_of_the_range():
    rng = np.random.default_rng(1402)
    subnormal = rng.integers(1, 2 ** 52, 20_000, dtype=np.uint64)
    _assert_repr(np.concatenate([
        subnormal.view(np.float64),
        np.arange(1, 200) * _TINY,
        # the 23-character 2.2250738585072014e-308, the smallest normal
        _neighbours([_TINY, _HUGE, 2.2250738585072014e-308]),
    ]))


def test_powers_of_two_and_their_neighbours():
    # at a power of two the interval below is half as wide as above
    _assert_repr(_neighbours(np.ldexp(1.0, np.arange(-1074, 1024))))


def test_powers_of_ten_and_their_neighbours():
    _assert_repr(_neighbours([float(f"1e{k}") for k in range(-323, 309)]))


@pytest.mark.parametrize("switch", [1e-5, 1e-4, 1e16])
def test_positional_and_scientific_switches(switch):
    # repr writes 0.0001 and 1000000000000000.0 positionally, 1e-05 and
    # 1e+16 in scientific form; the kernel hands 1e16, past 2^53, to repr
    steps = np.arange(-200, 201)
    _assert_repr(np.concatenate([
        _neighbours([switch]),
        switch + steps * np.spacing(switch),
        switch * np.array([1.5, 2.0, 0.5, 0.9999, 1.0001, 9.99, 0.1]),
    ]))


def test_short_decimals_where_the_binary_exponent_turns_positive():
    # from 2^54 up, a double is an even integer, and its short decimals,
    # such as 7e+22, need Ryu's checks on 5^q dividing the bounds: the
    # kernel hands every double from 2^53 up to repr
    rng = np.random.default_rng(1404)
    digits = rng.integers(1, 18, 20_000)
    mantissa = rng.integers(10 ** (digits - 1), 10 ** digits)
    exponent = rng.integers(10, 26, digits.size)
    _assert_repr([float(f"{m}e{e}") for m, e in zip(mantissa.tolist(),
                                                      exponent.tolist())])


def test_integers_up_to_two_to_the_53():
    rng = np.random.default_rng(1403)
    _assert_repr(np.concatenate([
        np.arange(1.0, 100_001.0),
        rng.integers(1, 2 ** 53, 50_000).astype(np.float64),
        _neighbours([2.0 ** 49, 2.0 ** 53, 1e15, 999999999999999.0]),
    ]))


def test_zero_takes_repr():
    _assert_repr([0.0, 1.0, 0.0, 0.5])


@pytest.mark.parametrize("argv,own,broadcast", [
    # three data columns of 301 x 301 values; the axis columns' 301 + 301
    (["spectrum", "--figure", "2a", "--points", "301"], 3 * 301 * 301,
     301 + 301),
    # 9,000 values from 5e-18 to 1e5, most of them in scientific form; one
    # value for each of the three floor columns
    (["stability", "--preset", "outlook", "--tau", "1e-3..1e5",
      "--tau-points", "3000"], 3 * 3000, 3),
], ids=["figure-2a", "stability-outlook"])
def test_table_magnitudes_take_the_vector_path(tmp_path, monkeypatch, argv,
                                               own, broadcast):
    # the speed-up must not turn off unseen: the kernel sees exactly the
    # values of the columns that are not broadcast views, in chunks of at
    # least _VECTOR_MIN, and fewer than 1% of them fall back to repr; a
    # broadcast column's values go to repr once each
    seen, fell_back, direct = [], [], []
    inside = []
    kernel, rows = _table.shortest_repr, _table._repr_rows

    def counting(bits):
        seen.append(bits.size)
        inside.append(True)
        try:
            return kernel(bits)
        finally:
            inside.pop()

    def counting_rows(bits):
        (fell_back if inside else direct).append(bits.size)
        return rows(bits)

    monkeypatch.setattr(_table, "shortest_repr", counting)
    monkeypatch.setattr(_table, "_repr_rows", counting_rows)
    assert cli.main([*argv, "--out", str(tmp_path / "table.csv")]) == 0
    assert sum(seen) == own and min(seen) >= _VECTOR_MIN, seen
    assert sum(direct) == broadcast, direct
    assert sum(fell_back) < 0.01 * sum(seen), (sum(fell_back), sum(seen))


def test_kernel_stops_below_two_to_the_49(monkeypatch):
    # from 2^49 up every double takes Ryu's general case, so such lanes go
    # to repr, and the kernel reads 1.0 in their place
    reached = []
    digits = _table._digits

    def recording(bits):
        reached.append(bits.copy())
        return digits(bits)

    monkeypatch.setattr(_table, "_digits", recording)
    values = _neighbours([2.0 ** 49, 2.0 ** 50, 2.0 ** 53, 1e300])
    _assert_repr(values)
    assert np.concatenate(reached).view(np.float64).tolist() \
        == np.where(values < 2.0 ** 49, values, 1.0).tolist()


def test_whole_numbers_take_the_general_case():
    # the layout rows of whole-number texts (point >= count) are zeros: every
    # integer-valued double below 2^49, of every exponent, and the 1.0 the
    # kernel reads in place of a slow lane, take Ryu's general case, so their
    # text is repr's
    rng = np.random.default_rng(1405)
    low = np.left_shift(1, np.repeat(np.arange(49), 200))
    whole = np.concatenate([[1.0],
                            rng.integers(low, 2 * low).astype(np.float64),
                            np.ldexp(1.0, np.arange(49)), [2.0 ** 49 - 1.0]])
    assert np.array_equal(whole, np.floor(whole)) and whole.max() < 2.0 ** 49
    _, _, general = _table._digits(whole.view(np.uint64))
    assert general.all(), whole[~general][:5]
