"""A float64 array as the text json.dumps writes for the list of its values.

json writes a float as repr does: the shortest decimal that reads back to
the same double, positional while its decimal point position decpt (the
exponent of 0.ddd x 10^decpt) satisfies -4 < decpt <= 16 and d.ddde±XX
beyond, with NaN, Infinity and -Infinity for the non-finite values.
CPython's repr finds those digits one value at a time. This module finds
them for a block of values at once with Schubfach (R. Giulietti, "The
Schubfach way to render doubles", 2020): the digits of a double follow from
its bits by 64-bit integer arithmetic over a table of 126-bit powers of ten,
which numpy runs elementwise in uint64, wrapping as the algorithm expects.

cli.write_report imports this module only for long arrays, so that a
command that writes none does not compile it.
"""

import numpy as np

U = np.uint64
_MASK32 = U(0xFFFFFFFF)
_MASK63 = U(2**63 - 1)
_C_MIN = 2**52  # the smallest significand of a normal double
_Q_MIN = -1074  # the binary exponent of the subnormals and the smallest normals
_K_MIN, _K_MAX = -324, 292  # floor(log10(2^q)) over the binary exponents q of doubles
_POW10 = np.array([10**i for i in range(18)], dtype=U)

# Values formatted together, so that the temporaries stay below a few MB.
BLOCK = 1 << 13

# A value's text is laid out in a row of slots; the slots a value does not
# print are masked out, and the kept slots read in row-major order are the
# text of the block:
#   _SIGN   '-'
#   _LEAD   "0.000", the lead of a positional value below 1 (2 to 5 slots)
#   _HEAD   17 digits: those before the point, or all of a value below 1
#   _POINT  '.'
#   _TAIL   the same 17 digits again: those after the point
#   _EXP    'e', the exponent's sign and three digits, the first of them
#           only for an exponent of 100 or more
#   _SEP    the separator that follows every value but the last
_SIGN, _LEAD, _HEAD, _POINT, _TAIL, _EXP, _SEP = 0, 1, 6, 23, 24, 41, 46

# Which slots a value prints depends only on its shape: (decpt, digit
# count) for a positional value, (digit count, three-digit exponent) for
# an exponential one, NaN or an infinity; and on its sign.
_POSITIONAL = 20 * 17  # decpt in -3..16 by 1..17 digits
_NAN = _POSITIONAL + 2 * 17
_INF = _NAN + 1
_SHAPES = _INF + 1


# Integer logarithms by fixed-point multiplication, exact for the exponents
# of doubles: tests/test_floattext.py checks |e| < 1100, and |e| < 400 for
# the last.


def _flog10pow2(e):
    """floor(log10(2^e))."""
    return (e * 661_971_961_083) >> 41


def _flog10_three_quarters_pow2(e):
    """floor(log10(3/4 2^e))."""
    return (e * 661_971_961_083 - 274_743_187_321) >> 41


def _flog2pow10(e):
    """floor(log2(10^e))."""
    return (e * 913_124_641_741) >> 38


def _digit_rows(width):
    """The zero-padded ASCII decimals of 0 .. 10^width - 1, one row each."""
    rows = np.empty((10,) * width + (width,), np.uint8)
    for place in range(width):
        rows[..., place] = (np.arange(10, dtype=np.uint8) + ord("0")).reshape((10,) + (1,) * (width - 1 - place))
    return rows.reshape(-1, width)


def _powers_of_ten():
    """g1 and g0 for k in [K_MIN, K_MAX]: g = g1 2^63 + g0 = floor(10^-k 2^-r) + 1,
    where r = floor(log2(10^-k)) - 125 puts g in [2^125, 2^126)."""
    pow10 = [1]
    for _ in range(-_K_MIN):
        pow10.append(pow10[-1] * 10)
    g = []
    for k in range(_K_MIN, _K_MAX + 1):
        r = _flog2pow10(-k) - 125
        if k > 0:
            g.append((1 << -r) // pow10[k] + 1)
        else:
            g.append((pow10[-k] << -r if r < 0 else pow10[-k] >> r) + 1)
    return np.array([x >> 63 for x in g], dtype=U), np.array([x & (2**63 - 1) for x in g], dtype=U)


def _digit_text():
    """The four ASCII digits of 0 .. 9999 as one uint32 each, and the three
    of 0 .. 999 as a row each."""
    return _digit_rows(4).view(np.uint32).ravel(), _digit_rows(3)


# Built when the module loads, which cli does only for a report with a
# long array.
_G1_TABLE, _G0_TABLE = _powers_of_ten()
_QUAD_TEXT, _EXPONENT_TEXT = _digit_text()


def _halves(x):
    return x >> U(32), x & _MASK32


def _mulhi(a, b):
    """The high 64 bits of the 128-bit products a b, given as 32-bit halves."""
    (a_hi, a_lo), (b_hi, b_lo) = a, b
    hi_lo = a_hi * b_lo
    lo_hi = a_lo * b_hi
    mid = ((a_lo * b_lo) >> U(32)) + (hi_lo & _MASK32) + (lo_hi & _MASK32)
    return a_hi * b_hi + (hi_lo >> U(32)) + (lo_hi >> U(32)) + (mid >> U(32))


def _shift_add(product, g, shift, sign):
    """product + sign (g << shift) for a 128-bit product (high, low), g < 2^63
    and 1 <= shift < 64."""
    high, low = product
    carry_out, g_low = g >> (U(64) - shift), g << shift
    if sign > 0:
        total = low + g_low
        return high + carry_out + (total < low), total
    return high - carry_out - (low < g_low), low - g_low


def _rop(g0_product, g1_product):
    """floor(g cp / 2^127) from g0 cp and g1 cp, rounded to odd (its last bit
    is set when the quotient is inexact): Schubfach's r_o' of g cp."""
    x1 = g0_product[0]
    y1, y0 = g1_product
    z = (y0 >> U(1)) + x1
    return (y1 + (z >> U(63))) | (((z & _MASK63) + _MASK63) >> U(63))


def _shortest(values):
    """(digits, exponent) with values == digits * 10^exponent for the shortest
    digits that read back to values, as repr picks them: of two equally
    short candidates the nearer, and of two equally near the even one.
    values must be finite and nonzero; digits may end in zeros."""
    bits = values.view(U)
    fraction = bits & U(_C_MIN - 1)
    bq = (bits >> U(52)).astype(np.int64) & 0x7FF
    normal = bq != 0
    c = np.where(normal, fraction | U(_C_MIN), fraction)
    q = np.where(normal, bq - 1075, _Q_MIN)
    # At a power of two above the smallest normal the gap below is half the gap above.
    irregular = (fraction == 0) & (bq > 1)

    k = np.where(irregular, _flog10_three_quarters_pow2(q), _flog10pow2(q))
    h = q + _flog2pow10(-k) + 2
    g1, g0 = _G1_TABLE[k - _K_MIN], _G0_TABLE[k - _K_MIN]

    # vb, vbl and vbr are 4 v 10^-k and the rounding interval's ends (cb + 2
    # and cb - 2, or cb - 1 when irregular, in units of 2^(q-2)) on the same
    # scale. Their three products with g share g cp, where cp = cb 2^h; h is
    # 2 to 5 for every double, so cp < 2^60.
    out = c & U(1)
    cb = c << U(2)
    cp = cb << h.astype(U)
    cp_halves = _halves(cp)
    g0_cp = _mulhi(_halves(g0), cp_halves), g0 * cp
    g1_cp = _mulhi(_halves(g1), cp_halves), g1 * cp
    vb = _rop(g0_cp, g1_cp)
    right = (h + 1).astype(U)
    vbr = _rop(_shift_add(g0_cp, g0, right, 1), _shift_add(g1_cp, g1, right, 1))
    left = np.where(irregular, h, h + 1).astype(U)
    vbl = _rop(_shift_add(g0_cp, g0, left, -1), _shift_add(g1_cp, g1, left, -1))

    # One digit fewer: of the multiples of 10^(k+1) around v, at most one
    # lies in the rounding interval.
    s = vb >> U(2)
    sp10 = (s // U(10)) * U(10)
    tp10 = sp10 + U(10)
    upin = vbl + out <= sp10 << U(2)
    wpin = (tp10 << U(2)) + out <= vbr
    shorter = (s >= U(10)) & (upin != wpin)

    # Else the multiples of 10^k around v: the one in the interval, or the
    # nearer when both are, the even one on a tie.
    t = s + U(1)
    uin = vbl + out <= s << U(2)
    win = (t << U(2)) + out <= vbr
    twice = (s + t) << U(1)
    pick_s = np.where(uin != win, uin, (vb < twice) | ((vb == twice) & ((s & U(1)) == 0)))
    digits = np.where(shorter, np.where(upin, sp10, tp10), np.where(pick_s, s, t))

    # An integer below 2^53 is its own shortest digits.
    small = (q <= 0) & (q > -53)
    mq = np.where(small, -q, 0).astype(U)
    integral = small & (((c >> mq) << mq) == c)
    return np.where(integral, c >> mq, digits), np.where(integral, 0, k)


def _strip_zeros(digits, exponent):
    """Drops the trailing zeros of nonzero digits, raising exponent to match;
    in place."""
    live = np.flatnonzero((digits % U(10) == 0) & (digits != 0))
    while live.size:
        digits[live] //= U(10)
        exponent[live] += 1
        live = live[digits[live] % U(10) == 0]


def _shape_masks(width):
    """The slots each shape prints, the signed shapes after the unsigned."""
    negative, shape = np.divmod(np.arange(2 * _SHAPES), _SHAPES)
    decpt, length = np.divmod(np.minimum(shape, _POSITIONAL - 1), 17)
    decpt, length = decpt - 3, length + 1
    positional = shape < _POSITIONAL
    exponential = ~positional & (shape < _NAN)
    wide = exponential & (shape % 2 == 1)
    length = np.where(exponential, (shape - _POSITIONAL) // 2 + 1, length)
    length = np.where(shape == _NAN, 3, np.where(shape == _INF, 8, length))
    below_one = positional & (decpt <= 0)
    above_one = positional & ~below_one

    point = np.where(above_one, decpt, exponential & (length > 1))
    head = np.where(above_one, decpt, np.where(exponential, 1, length))
    tail = np.where(above_one, np.maximum(length, decpt + 1), np.where(point > 0, length, 0))
    slot = np.arange(17)
    masks = np.zeros((negative.size, width), bool)
    masks[:, _SIGN] = negative
    masks[:, _LEAD:_HEAD] = np.arange(5) < np.where(below_one, 2 - decpt, 0)[:, None]
    masks[:, _HEAD:_POINT] = slot < head[:, None]
    masks[:, _POINT] = point > 0
    masks[:, _TAIL:_EXP] = (slot >= point[:, None]) & (slot < tail[:, None])
    masks[:, _EXP : _EXP + 5] = exponential[:, None]
    masks[:, _EXP + 2] = wide
    masks[:, _SEP:] = True
    return masks


class _Writer:
    """The slot rows of a block, and the shape masks, kept from block to block."""

    def __init__(self, separator, rows):
        sep = np.frombuffer(separator.encode("ascii"), np.uint8)
        width = _SEP + sep.size
        self.masks = _shape_masks(width)
        self.chars = np.zeros((rows, width), np.uint8)
        self.chars[:, _SIGN] = ord("-")
        self.chars[:, _LEAD:_HEAD] = np.frombuffer(b"0.000", np.uint8)
        self.chars[:, _POINT] = ord(".")
        self.chars[:, _EXP] = ord("e")
        self.chars[:, _SEP:] = sep
        self.mask = np.empty((rows, width), bool)
        self.quads = np.empty((rows, 5), np.uint32)

    def text(self, values, last):
        """The text of values, each followed by the separator unless last."""
        rows = values.size
        chars, mask, quads = self.chars[:rows], self.mask[:rows], self.quads[:rows]

        finite = np.isfinite(values)
        nonzero = finite & (values != 0)
        if nonzero.all():
            digits, exponent = _shortest(values)
        else:
            # Zero, NaN and the infinities take the shape of 0.0 here.
            digits, exponent = np.zeros(rows, U), np.zeros(rows, np.int64)
            if nonzero.any():
                digits[nonzero], exponent[nonzero] = _shortest(values[nonzero])
        _strip_zeros(digits, exponent)
        length = np.maximum(np.searchsorted(_POW10, digits, side="right"), 1)
        decpt = length + exponent

        # The digits left-aligned in 17 places, four by four from the table;
        # past the value's own they are zeros, which a positional integral
        # value prints before its ".0".
        aligned = digits * _POW10[17 - length]
        top = aligned // U(10**8)
        low = (aligned - top * U(10**8)).astype(np.uint32)
        first = (top // U(10**8)).astype(np.uint32)
        high = top.astype(np.uint32) - first * np.uint32(10**8)
        for column, part in enumerate((first, high // 10_000, high % 10_000, low // 10_000, low % 10_000)):
            quads[:, column] = _QUAD_TEXT[part]
        ascii_digits = quads.view(np.uint8)[:, 3:]
        chars[:, _HEAD:_POINT] = ascii_digits
        chars[:, _TAIL:_EXP] = ascii_digits

        power = decpt - 1
        chars[:, _EXP + 1] = np.where(power < 0, ord("-"), ord("+"))
        chars[:, _EXP + 2 : _SEP] = _EXPONENT_TEXT[np.abs(power)]

        positional = (decpt > -4) & (decpt <= 16)
        shape = np.where(
            positional,
            (decpt + 3) * 17 + length - 1,
            _POSITIONAL + 2 * (length - 1) + (np.abs(power) >= 100),
        )
        nan = np.isnan(values)
        if not finite.all():
            infinite = ~finite & ~nan
            chars[nan, _HEAD : _HEAD + 3] = np.frombuffer(b"NaN", np.uint8)
            chars[infinite, _HEAD : _HEAD + 8] = np.frombuffer(b"Infinity", np.uint8)
            shape[nan], shape[infinite] = _NAN, _INF
        shape += _SHAPES * (np.signbit(values) & ~nan)
        np.take(self.masks, shape, axis=0, out=mask, mode="clip")
        if last:
            mask[-1, _SEP:] = False
        return chars[mask].tobytes().decode("ascii")


def array_text(values, separator):
    """The json text of each value of a 1-D float64 array, joined by
    separator, as pieces of up to BLOCK values."""
    writer = _Writer(separator, min(values.size, BLOCK))
    for start in range(0, values.size, BLOCK):
        yield writer.text(values[start : start + BLOCK], start + BLOCK >= values.size)
