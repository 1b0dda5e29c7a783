"""The vectorised CSV cell formatters equal ``format(v, ".17g")`` and ``str(i)``.

Every comparison is of the bytes of each cell, so a single wrong digit,
a misplaced point or a stray trailing zero fails.
"""

from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmemsim import _csv


def cells_text(cells_and_keep):
    """The kept bytes of each row of a cell matrix."""
    cells, keep = cells_and_keep
    newline = np.full((cells.shape[0], 1), ord("\n"), np.uint8)
    joined = np.concatenate([cells, newline], axis=1)[
        np.concatenate([keep, np.ones_like(newline, bool)], axis=1)
    ]
    return joined.tobytes().split(b"\n")[:-1]


def assert_floats_match(values):
    values = np.asarray(values, dtype=np.float64)
    got = cells_text(_csv.float_cells(values))
    want = [format(v, ".17g").encode() for v in values.tolist()]
    wrong = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert not wrong, wrong[:5]
    assert len(got) == len(want)


def random_doubles(rng, size, biased_exponents):
    """Random sign and mantissa bits under exponent fields drawn from a range."""
    bits = rng.integers(0, 2**64, size=size, dtype=np.uint64, endpoint=False)
    exponent = rng.integers(*biased_exponents, size=size).astype(np.uint64)
    bits = (bits & np.uint64(0x800F_FFFF_FFFF_FFFF)) | (exponent << np.uint64(52))
    return bits.view(np.float64)


@settings(max_examples=2000, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_any_finite_float(value):
    assert_floats_match([value])


def test_million_random_bit_patterns():
    rng = np.random.default_rng(20_260_101)
    # every field but all-ones (NaN, infinity): mostly the format fallback
    assert_floats_match(random_doubles(rng, 200_000, (0, 0x7FF)))
    # 2**-40 ... 2**57 spans the exact range 1e-10 <= |v| < 1e16 and its edges
    assert_floats_match(random_doubles(rng, 1_000_000, (1023 - 40, 1023 + 57)))


def test_powers_of_ten_and_their_neighbours():
    values = []
    for exponent in range(-12, 18):
        power = 10.0**exponent
        below = above = power
        values.append(power)
        for _ in range(50):
            below = np.nextafter(below, 0.0)
            above = np.nextafter(above, np.inf)
            values += [below, above]
    values = np.array(values)
    assert_floats_match(np.concatenate([values, -values]))


def test_ties_round_half_even():
    """Doubles with exactly 18 significant digits, the last a 5."""
    rng = np.random.default_rng(7)
    values = []
    for x in range(-7, 16):  # below 1e-7 no m / 2**j has 18 digits
        j = 17 - x  # m / 2**j has j decimals; odd m ends in 5
        low = max(int(10**x * 2**j), 1)
        high = min(int(10 ** (x + 1) * 2**j), 2**53)
        m = rng.integers(low // 2, high // 2, size=200) * 2 + 1
        values += [int(k) / 2**j for k in m if low <= k < high]
    ties = [v for v in values if len(Decimal(v).as_tuple().digits) == 18]
    assert len(ties) > 4000
    assert_floats_match(ties + [-v for v in ties])
    # both directions occur: 17th digit even (down) and odd (up)
    assert {Decimal(v).as_tuple().digits[16] % 2 for v in ties} == {0, 1}


@pytest.mark.parametrize("value, text", [
    (0.0, b"0"), (-0.0, b"-0"),
    (5e-324, b"4.9406564584124654e-324"), (-5e-324, b"-4.9406564584124654e-324"),
    (1.7976931348623157e308, b"1.7976931348623157e+308"),
    (-1.7976931348623157e308, b"-1.7976931348623157e+308"),
    (1e-07, b"9.9999999999999995e-08"),
    (99999999999999.99, b"99999999999999.984"),
    (0.1, b"0.10000000000000001"),
    (1e-10, b"1e-10"),
    (0.5, b"0.5"), (123.0, b"123"), (1e15, b"1000000000000000"),
])
def test_named_values(value, text):
    assert cells_text(_csv.float_cells(np.array([value]))) == [text]
    assert format(value, ".17g").encode() == text


def assert_ints_match(values):
    values = np.asarray(values, dtype=np.int64)
    got = cells_text(_csv.int_cells(values))
    assert got == [str(i).encode() for i in values.tolist()]


def test_ints_whole_int64_range():
    rng = np.random.default_rng(11)
    edges = [-(2**63), -(2**63) + 1, 2**63 - 1, 0, -1, 1]
    powers = [s * (10**k + d) for k in range(19) for d in (-1, 0, 1) for s in (1, -1)]
    assert_ints_match(edges + powers)
    assert_ints_match(rng.integers(-(2**63), 2**63 - 1, size=200_000, endpoint=True))
    # dense small magnitudes, as of trial ids and histogram counts
    assert_ints_match(rng.integers(-(10**6), 10**6, size=50_000))


def test_text_cells():
    assert cells_text(_csv.text_cells(["a", "bcd", "", "ef"], "utf-8")) == [
        b"a", b"bcd", b"", b"ef"
    ]
    repeated = cells_text(_csv.text_cells(["p"] * 5, "utf-8"))
    assert repeated == [b"p"]  # one row, broadcast by the writer
    assert cells_text(_csv.text_cells([1, 2.5, True], "utf-8")) == [b"1", b"2.5", b"True"]
