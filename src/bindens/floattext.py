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

An array_text call makes one set of working arrays, about 2.4 MB for a
block of 8192 values, and computes every block in it: each ufunc writes
into one of them, given as its last positional argument, which compiles
faster than out= (every process that writes a full estimate compiles this
module). Zeros, subnormals, non-finite values and exact powers of two each
take a pass of their own, which a block runs only when it holds one. An
integer below 2^53 needs none: its rounding interval is at most 1 wide, so
no decimal but the integer itself has as few digits and lies in it.

cli.write_report imports this module only for long arrays, so that a
command that writes none does not compile it.
"""

import numpy as np

U = np.uint64
_K_MIN, _K_MAX = -324, 292  # floor(log10(2^q)) over the binary exponents q of doubles
_POW10 = np.array([10**i for i in range(18)], dtype=U)

# Values formatted together: the working arrays are about 2.4 MB at this size.
BLOCK = 1 << 13

# A value's text is laid out in a row of slots; the slots a value does not
# print are masked out, and the kept slots read in row-major order are the
# text of the block:
#   _SIGN   '-'
#   _LEAD   "0.000", the lead of a positional value below 1 (2 to 5 slots)
#   _HEAD   17 digits: those before the point, or all of a value below 1
#   _POINT  '.'
#   _T0     the first digit again, then _P1 '.' and _T1 the other 16: the
#           text of an exponential value or of one in [1, 10), and the
#           digits after the point of a larger one
#   _EXP    'e', the exponent's sign and three digits, the first of them
#           only for an exponent of 100 or more
#   _SEP    the separator that follows every value but the last
_SIGN, _LEAD, _HEAD, _POINT, _T0, _P1, _T1, _EXP, _SEP = 0, 1, 6, 23, 24, 25, 26, 42, 47

# Which slots a value prints depends only on its shape, 17 (decpt group,
# digit count - 1) where the group is decpt + 3 for a positional value and
# 20 or 21 for an exponential one with a two- or three-digit exponent; NaN
# and the infinities are two more; and on its sign.
_POSITIONAL = 20 * 17
_NAN = _POSITIONAL + 2 * 17
_INF = _NAN + 1
_SHAPES = _INF + 1
_DECPT_MIN, _DECPT_MAX = -323, 309  # of 5e-324 and of the largest double


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
    """g0 and g1 for k in [K_MIN, K_MAX], a row each: g = g1 2^63 + g0 =
    floor(10^-k 2^-r) + 1, where r = floor(log2(10^-k)) - 125 puts g in
    [2^125, 2^126). With p = 10^|k|, floor(log2(10^-k)) is p.bit_length() - 1
    for k <= 0 and -p.bit_length() for k > 0."""
    pow10 = [1]
    for _ in range(-_K_MIN):
        pow10.append(pow10[-1] * 10)
    g = [(p << 126 >> p.bit_length()) + 1 for p in reversed(pow10)]
    g += [(1 << (125 + p.bit_length())) // p + 1 for p in pow10[1 : _K_MAX + 1]]
    return np.fromiter((x >> shift & (2**63 - 1) for shift in (0, 63) for x in g), U, 2 * len(g)).reshape(2, -1)


# Built when the module loads, which cli does only for a report with a
# long array.
_G_TABLE = _powers_of_ten()
_QUAD_TEXT = _digit_rows(4).view(np.uint32).ravel()  # the four ASCII digits of 0 .. 9999
# Per decpt from _DECPT_MIN: the exponent decpt - 1's sign and three digits,
# and the shape of one digit less one (a value's shape is this plus its
# digit count): exponential with three exponent digits, with two where
# |decpt - 1| < 100, and positional for decpt in -3 .. 16.
_EXPONENT_TEXT = np.frombuffer(b"".join(b"%+04d" % power for power in range(_DECPT_MIN - 1, _DECPT_MAX)), np.uint32)
_SHAPE_BASE = np.full(_DECPT_MAX - _DECPT_MIN + 1, _POSITIONAL + 16)
_SHAPE_BASE[-98 - _DECPT_MIN : 101 - _DECPT_MIN] = _POSITIONAL - 1
_SHAPE_BASE[-3 - _DECPT_MIN : 17 - _DECPT_MIN] = np.arange(-1, _POSITIONAL - 1, 17)


def _shape_masks(width):
    """The slots each shape prints, the signed shapes after the unsigned."""
    negative, shape = np.divmod(np.arange(2 * _SHAPES), _SHAPES)
    group, length = np.divmod(shape, 17)
    decpt, length = group - 3, length + 1
    exponential = (group == 20) | (group == 21)
    below_one, one, above_one = (group < 20) & (decpt <= 0), decpt == 1, (group < 20) & (decpt > 1)
    head = np.select([above_one, below_one, shape == _NAN, shape == _INF], [decpt, length, 3, 8])
    # The slots of _T0, _P1 and _T1 that a value prints are one run.
    tail = np.select(
        [above_one, one, exponential], [np.maximum(length, decpt + 1) + 1, np.maximum(length, 2) + 1, length + (length > 1)]
    )
    masks = np.zeros((negative.size, width), bool)
    masks[:, _SIGN] = negative
    masks[:, _LEAD:_HEAD] = np.arange(5) < np.where(below_one, 2 - decpt, 0)[:, None]
    masks[:, _HEAD:_POINT] = np.arange(17) < head[:, None]
    masks[:, _POINT] = above_one
    masks[:, _T0:_EXP] = (np.arange(18) > np.where(above_one, decpt, -1)[:, None]) & (np.arange(18) < tail[:, None])
    masks[:, _EXP:_SEP] = exponential[:, None]
    masks[:, _EXP + 2] = group == 21
    masks[:, _SEP:] = True
    return masks


def _rop(x1, y1, y0, out, z):
    """floor(g cp / 2^127) from the high half x1 of g0 cp and the halves y1,
    y0 of g1 cp, rounded to odd (its last bit is set when the quotient is
    inexact): Schubfach's r_o' of g cp, into out; z is scratch."""
    np.right_shift(y0, 1, z)
    z += x1
    np.right_shift(z, 63, out)
    out += y1
    z <<= 1
    np.minimum(z, 1, out=z)
    out |= z


def _shortest(bits, u, b):
    """(digits, decpt, tens, non_finite): bits' doubles are digits
    10^(decpt - 17) for the shortest digits that read back to them, as repr
    picks them (of two equally short candidates the nearer, and of two
    equally near the even one), written in 17 places: they end in zeros, at
    least one where tens is set and none where it is not. Zeros and
    non-finite values get digits 0 and decpt 1. u holds five blocks of 4
    uint64 working rows and b 7 bool ones; a pair of rows holds a value for
    g0 and for g1."""
    (e, c, q, k), (r, left, rc, cp), (cph, cpl, *_) = u[0], u[1], u[4]
    g, hi, lo, a, m, high_sum = u[2][:2], u[2][2:], u[3][:2], u[3][2:], u[4][2:], u[0][1:3]
    np.right_shift(bits, 52, e)
    e &= 0x7FF
    np.bitwise_and(bits, 2**52 - 1, c)
    low, high, fraction_min = e.min(), e.max(), c.min()
    c |= 2**52
    # k = floor(log10(2^q)) and r = h + 1 = q + floor(log2(10^-k)) + 3, where
    # a subnormal's q is that of the smallest normals.
    np.maximum(e, 1, out=q)
    q -= 1075  # wraps, and the int64 view reads the signed q
    q, k, signed_r = q.view(np.int64), k.view(np.int64), r.view(np.int64)
    np.copyto(k, _flog10pow2(q))
    np.add(q, _flog2pow10(-k), signed_r)
    signed_r += 3
    if fraction_min == 0 and (irregular := np.flatnonzero((c == 2**52) & (e > 1))).size:
        # At a power of two above the smallest normal the gap below is half
        # the gap above: k = floor(log10(3/4 2^q)) and h is one less.
        q_irregular = q[irregular]
        k[irregular] = k_irregular = _flog10_three_quarters_pow2(q_irregular)
        signed_r[irregular] = q_irregular + _flog2pow10(-k_irregular) + 3
        np.copyto(left, r)
        left[irregular] -= 1
    else:
        left = r
    k -= _K_MIN
    np.take(_G_TABLE, k, axis=1, out=g, mode="clip")
    k += _K_MIN + 17  # now decpt, for 17 digits
    if low == 0:
        c[e == 0] ^= 2**52  # subnormals and zeros

    # vb, vbl and vbr are 4 v 10^-k and the rounding interval's ends (cb + 2
    # and cb - 2, or cb - 1 when irregular, in units of 2^(q-2)) on the same
    # scale. Their three products with g share g cp, where cp = cb 2^h; h is
    # 2 to 5 for every double, so cp < 2^60 and the cross sum of the 32-bit
    # halves below stays under 2^64.
    np.left_shift(c, r, cp)
    cp <<= 1
    np.right_shift(cp, 32, cph)
    np.bitwise_and(cp, 0xFFFFFFFF, cpl)
    np.right_shift(g, 32, hi)
    np.bitwise_and(g, 0xFFFFFFFF, a)
    np.multiply(a, cpl, m)
    m >>= 32
    np.multiply(hi, cpl, lo)
    m += lo
    np.multiply(a, cph, lo)
    m += lo
    m >>= 32
    hi *= cph
    hi += m
    np.multiply(g, cp, lo)  # hi and lo now hold the 128-bit g cp
    vb, vbr, vbl = cp, cph, cpl
    _rop(hi[0], hi[1], lo[1], vb, rc)
    # g cp plus or minus g 2^shift, its halves into high_sum and m
    carry = b[:2]
    for shift, op, wrapped, out in ((r, np.add, np.less, vbr), (left, np.subtract, np.greater, vbl)):
        np.subtract(64, shift, rc)
        np.left_shift(g, shift, a)
        op(lo, a, m)
        wrapped(m, lo, carry)
        np.right_shift(g, rc, a)
        op(hi, a, high_sum)
        op(high_sum, carry, high_sum)
        _rop(high_sum[0], high_sum[1], m[1], out, rc)
    np.bitwise_and(bits, 1, rc)  # an odd c leaves out the interval's ends
    vbl += rc
    vbr -= rc

    # One digit fewer: of the multiples of 10^(k+1) around v, at most one
    # lies in the rounding interval.
    (s, sp10), (t, odd), digits = hi, lo, m[1]
    upin, wpin, tens, win, far = b[2:]
    np.right_shift(vb, 2, s)
    np.floor_divide(s, 10, sp10)
    sp10 *= 10
    np.left_shift(sp10, 2, t)
    np.less_equal(vbl, t, upin)
    t += 40
    np.less_equal(t, vbr, wpin)
    np.not_equal(upin, wpin, tens)
    if low == 0:
        tens &= s >= 10

    # Else the multiples of 10^k around v: s, or s + 1 when s is out of the
    # interval, or both are in and s + 1 is nearer, or as near and s is odd.
    s_out = upin
    np.left_shift(s, 2, t)
    np.greater(vbl, t, s_out)
    t += 4
    np.less_equal(t, vbr, win)
    np.bitwise_and(vb, 3, t)
    np.bitwise_and(s, 1, odd)
    t += odd
    np.greater(t, 2, far)
    far &= win
    far |= s_out
    np.add(s, far, digits)
    np.multiply(wpin, U(10), t)
    t += sp10
    t -= digits
    t *= tens
    digits += t  # sp10 + 10 wpin where tens is set
    short = win
    np.less(digits, 10**16, short)
    np.multiply(short, U(9), t)
    t += 1
    digits *= t
    k -= short
    tens |= short

    if low == 0:
        # A subnormal's digits may be fewer: scale them up to 17 places.
        at = np.flatnonzero(e == 0)
        some = digits[at]
        scale = 17 - np.searchsorted(_POW10, some, side="right")
        some *= _POW10[scale]
        digits[at], k[at], tens[at] = some, k[at] - scale, some % 10 == 0
    if low == 0 or high == 0x7FF:
        special = (e == 0x7FF) | (bits << 1 == 0)
        digits[special], k[special], tens[special] = 0, 1, True
    return digits, k, tens, high == 0x7FF


def _divmod(x, divisor, quotient, t):
    """x // divisor into quotient and x % divisor into x: numpy's floor_divide
    by a constant is several times faster than its divmod. t is scratch."""
    np.floor_divide(x, divisor, quotient)
    np.multiply(quotient, divisor, t)
    x -= t


class _Writer:
    """The working arrays of one array_text call, reused by every block."""

    def __init__(self, separator, rows):
        # The fixed characters of the slots from _SIGN on; the blanks are
        # written block by block.
        row = b"-0.000" + b" " * 17 + b". ." + b" " * 16 + b"e    " + separator.encode("ascii")
        self.chars = np.tile(np.frombuffer(row, np.uint8), (rows, 1))
        self.masks = _shape_masks(len(row))
        self.mask = np.empty(self.chars.shape, bool)
        # A column per value, so that a shorter last block takes the first
        # columns of each. Blocks of 256 KB rather than one array of 1.3 MB:
        # malloc can take them from memory the process has already touched,
        # where it maps the large one afresh (about 70 fewer page faults in
        # an estimate process).
        self.u = [np.empty((4, rows), U) for _ in range(5)]
        self.b = np.empty((7, rows), bool)
        self.quads = np.empty((4, rows), np.uint32)

    def text(self, values, last):
        """The ASCII text of values, each followed by the separator unless
        last, as a fresh uint8 array."""
        rows = values.size
        u, quads, chars, mask = [x[:, :rows] for x in self.u], self.quads[:, :rows], self.chars[:rows], self.mask[:rows]
        bits = values.view(U)
        digits, decpt, tens, non_finite = _shortest(bits, u, self.b[:, :rows])
        length, index, first, t, parts = u[1][0].view(np.int64), u[1][1].view(np.int64), u[1][2], u[2][:2], u[4]

        # The digit count: one zero off where tens is set, and the loop takes
        # off the others.
        np.subtract(17, tens, length)
        live = np.flatnonzero(tens)
        for power in _POW10[2:]:
            if not live.size:
                break
            some = digits[live]
            live = live[some // power * power == some]
            length[live] -= 1
        np.maximum(length, 1, out=length)

        # The first digit, then the others four by four from the table; past
        # a value's own they are zeros, which a positional integral value
        # prints before its ".0".
        _divmod(digits, 10**16, first, t[0])
        first += ord("0")
        chars[:, _HEAD] = chars[:, _T0] = first
        _divmod(digits, 10**8, parts[1], t[0])
        _divmod(parts[1::2], 10**4, parts[::2], t)
        np.take(_QUAD_TEXT, parts.view(np.int64), out=quads, mode="clip")
        chars[:, _HEAD + 1 : _POINT].view(np.uint32)[:] = quads.T
        chars[:, _T1:_EXP].view(np.uint32)[:] = quads.T
        np.subtract(decpt, _DECPT_MIN, index)
        np.take(_EXPONENT_TEXT, index, out=quads[0], mode="clip")
        chars[:, _EXP + 1 : _SEP].view(np.uint32)[:, 0] = quads[0]

        shape = decpt
        np.take(_SHAPE_BASE, index, out=shape, mode="clip")
        shape += length
        np.right_shift(bits, 63, first)
        first *= _SHAPES
        shape += first.view(np.int64)
        if non_finite:
            nan, infinite = np.isnan(values), np.isinf(values)
            chars[nan, _HEAD : _HEAD + 3] = np.frombuffer(b"NaN", np.uint8)
            chars[infinite, _HEAD : _HEAD + 8] = np.frombuffer(b"Infinity", np.uint8)
            shape[nan] = _NAN
            shape[infinite] = _INF + _SHAPES * np.signbit(values[infinite])
        np.take(self.masks, shape, axis=0, out=mask, mode="clip")
        if last:
            mask[-1, _SEP:] = False
        return chars[mask]


def array_text(values, separator):
    """The json text of each value of a 1-D float64 array, joined by
    separator, as ASCII pieces (uint8 arrays) of up to BLOCK values."""
    writer = _Writer(separator, min(values.size, BLOCK))
    for start in range(0, values.size, BLOCK):
        yield writer.text(values[start : start + BLOCK], start + BLOCK >= values.size)
