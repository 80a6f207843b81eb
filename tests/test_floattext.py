"""The report writer's vector route for float arrays against json and repr.

json.dumps writes a finite float as float.__repr__ does and spells NaN,
Infinity and -Infinity, so the text of an array joined by ", " must equal
json.dumps(values.tolist())[1:-1] byte for byte.
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from bindens import floattext

_ALL_ONES = (1 << 52) - 1


def _from_bits(bits):
    return np.asarray(bits, dtype=np.uint64).view(np.float64)


def _text(values, separator):
    return b"".join(floattext.array_text(values, separator)).decode("ascii")


def _assert_matches_json(values):
    values = np.ascontiguousarray(values, dtype=np.float64)
    got = _text(values, ", ")
    want = json.dumps(values.tolist())[1:-1]
    if got != want:
        for value, mine, theirs in zip(values.tolist(), got.split(", "), want.split(", ")):
            assert mine == theirs, f"{value!r}: bits {np.float64(value).view(np.uint64):#018x}"
        assert got == want


def _binade_bits():
    """Per biased exponent, the smallest, next, second largest and largest
    significand fields: a power of two and the ends of every binade."""
    exponents = np.arange(2047, dtype=np.uint64) << np.uint64(52)
    fields = np.array([0, 1, _ALL_ONES - 1, _ALL_ONES], dtype=np.uint64)
    return (exponents[:, None] | fields).ravel()


def _ordinary(rng, size):
    """Normal doubles of any sign, exponent and nonzero fraction: blocks of
    them take none of the rare-case passes."""
    sign = rng.integers(0, 2, size=size, dtype=np.uint64) << np.uint64(63)
    exponent = rng.integers(1, 2047, size=size, dtype=np.uint64) << np.uint64(52)
    return _from_bits(sign | exponent | rng.integers(1, 1 << 52, size=size, dtype=np.uint64))


def test_blocks_of_ordinary_values():
    rng = np.random.default_rng(8)
    _assert_matches_json(_ordinary(rng, 8 * floattext.BLOCK))
    # Positive values near 2^-16, as in a full estimate at n = 16.
    _assert_matches_json(rng.random(4 * floattext.BLOCK) * 2.0**-15)


_RARE = {
    "subnormal": 2.5e-320,
    "least subnormal": 5e-324,
    "power of two": 2.0**-30,
    "integer": 9007199254740990.0,
    "zero": 0.0,
    "negative zero": -0.0,
    "nan": math.nan,
    "infinity": math.inf,
    "negative infinity": -math.inf,
}


@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("kind", list(_RARE))
def test_one_rare_value_in_a_block(kind, where):
    """Two full blocks and a short one: the first holds only ordinary values,
    the second and the short last one each one rare value."""
    block = floattext.BLOCK
    values = _ordinary(np.random.default_rng(len(kind)), 2 * block + block // 3)
    for start, size in ((block, block), (2 * block, block // 3)):
        values[start + {"first": 0, "middle": size // 2, "last": size - 1}[where]] = _RARE[kind]
    _assert_matches_json(values)


def test_random_bit_patterns():
    bits = np.random.default_rng(20181).integers(0, 2**64, size=10**6, dtype=np.uint64, endpoint=False)
    _assert_matches_json(_from_bits(bits))


@pytest.mark.parametrize("sign", [0, 1 << 63])
def test_binade_ends_and_powers_of_two(sign):
    _assert_matches_json(_from_bits(_binade_bits() | np.uint64(sign)))


def test_subnormals():
    rng = np.random.default_rng(7)
    fields = np.concatenate(
        [np.arange(1, 1 << 12), rng.integers(1, 1 << 52, size=2 * 10**4), _ALL_ONES - np.arange(1 << 10)]
    ).astype(np.uint64)
    _assert_matches_json(_from_bits(fields))
    tiny = np.array([5e-324, 1e-323, 2.225073858507201e-308, 2.2250738585072014e-308])
    assert _text(tiny, " ") == "5e-324 1e-323 2.225073858507201e-308 2.2250738585072014e-308"


def test_both_sides_of_the_format_switches():
    edges = np.array([9.999999999999999e-05, 0.0001, 9999999999999998.0, 1e16])
    assert _text(edges, " ") == "9.999999999999999e-05 0.0001 9999999999999998.0 1e+16"
    # A few doubles on either side of every power of ten a double reaches.
    powers = np.array([float(f"1e{p}") for p in range(-323, 309)])
    steps = np.arange(-4, 5)[:, None]
    around = (powers.view(np.int64) + steps).view(np.float64).ravel()
    _assert_matches_json(around[np.isfinite(around)])


def test_integral_values():
    rng = np.random.default_rng(53)
    top = 2**53
    integers = np.concatenate(
        [
            np.arange(2 * 10**4),
            rng.integers(0, top, size=2 * 10**4, endpoint=True),
            top - np.arange(1000),
            10 ** np.arange(16),
            10 ** np.arange(16) - 1,
        ]
    )
    values = integers.astype(np.float64)
    assert np.array_equal(values.astype(np.int64), integers)
    _assert_matches_json(values)
    _assert_matches_json(-values)
    _assert_matches_json(values * 2.0**-3)


def test_signed_zeros_and_non_finite_values():
    special = np.array([0.0, -0.0, math.nan, math.inf, -math.inf, -math.nan, 1.5, -2.5e-300])
    assert _text(special, " ") == "0.0 -0.0 NaN Infinity -Infinity NaN 1.5 -2.5e-300"
    assert _text(special[:6], " ") == "0.0 -0.0 NaN Infinity -Infinity NaN"
    _assert_matches_json(np.tile(special, 1000))


@pytest.mark.parametrize("size", [1, 6, 7, 8, 15, 29])
def test_blocks_join_with_the_separator(monkeypatch, size):
    monkeypatch.setattr(floattext, "BLOCK", 7)
    values = np.random.default_rng(size).standard_normal(size) * 10.0 ** np.arange(size)
    pieces = [bytes(piece) for piece in floattext.array_text(values, ",\n    ")]
    assert len(pieces) == -(-size // 7)
    assert b"".join(pieces).decode("ascii") == ",\n    ".join(map(repr, values.tolist()))


def _floor_log(base, value):
    """floor(log_base(value)) for a positive Fraction, exactly."""
    k = math.floor(math.log(value.numerator, base) - math.log(value.denominator, base))
    while Fraction(base) ** k > value:
        k -= 1
    while Fraction(base) ** (k + 1) <= value:
        k += 1
    return k


def test_integer_logarithms_are_exact():
    for e in range(-1100, 1100):
        assert floattext._flog10pow2(e) == _floor_log(10, Fraction(2) ** e), e
        assert floattext._flog10_three_quarters_pow2(e) == _floor_log(10, Fraction(3, 4) * Fraction(2) ** e), e
    for e in range(-400, 400):
        assert floattext._flog2pow10(e) == _floor_log(2, Fraction(10) ** e), e
