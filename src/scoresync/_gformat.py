"""``'%.<P>g' % x`` for a block of float64 values at once, exactly.

A feature CSV prints each value with C's ``%g`` at P = 6 or P = 17
significant digits. CPython's ``%`` gives every value its own call of the
correctly rounded dtoa, and at 17 digits dtoa takes its slow bignum path.
This module gets the same digits for a whole block with numpy. A normal
double is m * 2**e, with m an integer below 2**53. Its P digits are
x * 10**p rounded to an integer, where p = P - 1 - k and
k = floor(log10 x). For 0 <= p <= 27 that is m * 5**p, an exact product of
below 128 bits in two uint64 limbs, shifted right by s = -(e + p) bits and
rounded half to even on the bits shifted out. The k taken from
``np.log10`` is off by at most one near a power of ten. One pass checks
that the digits number exactly P and fixes such a k.

The text is laid out in one fixed-width slot per field. The slot holds
every character the field could need, and one boolean compress keeps the
ones ``%g`` prints. Which ones that is depends only on the decimal
exponent and on how many digits are left once the trailing zeros go, so
the masks come from a small table per P.

``format_rows`` returns None for a block it cannot format exactly, and
the caller then formats that block with ``%``. Such a block has a value
that is not +0.0 or a positive normal double with 1 <= s <= 127 and
0 <= p <= 27: -0.0, a negative or subnormal value, an infinity or a NaN,
or a value out of about 1e-22 <= x < 1e6 at P = 6 and 1e-10 <= x < 1e15
at P = 17. It also returns None for a frame number of more than P
digits, an empty block, a dtype other than float64 and any other P.

Every operand of the integer code is a uint64 array or scalar: numpy
before 2.0 turns uint64 mixed with int64 or a Python int into float64.
"""

import functools
from typing import Optional

import numpy as np

_U = np.uint64
_ONE = _U(1)
_LOW32 = _U(0xFFFFFFFF)
# 5**p for the scalings 10**p = 5**p * 2**p whose factor fits one limb
_POW5 = np.array([5 ** p for p in range(28)], dtype=np.uint64)
_POW10 = np.array([10 ** j for j in range(18)], dtype=np.uint64)


def _shift_right(hi: np.ndarray, lo: np.ndarray,
                 s: np.ndarray) -> np.ndarray:
    """The low 64 bits of (hi * 2**64 + lo) >> s, for 0 <= s <= 127;
    no shift count reaches 64."""
    a = np.minimum(s, _U(63))
    below = (lo >> a) | ((hi << _ONE) << (_U(63) - a))
    above = hi >> (np.maximum(s, _U(64)) - _U(64))
    return np.where(s < _U(64), below, above)


def _scaled(m: np.ndarray, biased_e: np.ndarray, p: np.ndarray):
    """floor(x * 10**p) for x = m * 2**(biased_e - 1075) and 0 <= p <= 27;
    1 where x * 10**p rounds half to even to one more, else 0; and
    whether the shift 1075 - biased_e - p lies in 1 .. 127, without which
    the first two are not exact."""
    f = _POW5[p]
    m0, m1 = m & _LOW32, m >> _U(32)
    f0, f1 = f & _LOW32, f >> _U(32)
    # the 128-bit product m * f as hi * 2**64 + lo, from 32-bit halves
    t = m0 * f0
    a = m1 * f0 + (t >> _U(32))
    b = m0 * f1 + (a & _LOW32)
    hi = m1 * f1 + (a >> _U(32)) + (b >> _U(32))
    lo = (b << _U(32)) | (t & _LOW32)
    # the round bit's position, the shift less one; a shift below 1 wraps
    c = _U(1074) - biased_e - p.astype(np.uint64)
    exact = c <= _U(126)
    c = np.minimum(c, _U(126))
    r = _shift_right(hi, lo, c)
    # 5**p is odd, so the bits of m * 5**p below c are 0 just where
    # those of m are
    sticky = np.minimum(m & ((_ONE << np.minimum(c, _U(63))) - _ONE), _ONE)
    n = r >> _ONE
    return n, r & (sticky | n) & _ONE, exact


def _swar8(v: np.ndarray) -> np.ndarray:
    """For v < 10**8, a uint64 whose 8 little-endian bytes are v's 8
    decimal digits, most significant first: each step splits every lane
    into its quotient and remainder by a power of ten, by multiplying and
    shifting."""
    q = v // _U(10000)
    x = q | ((v - q * _U(10000)) << _U(32))
    q = ((x * _U(10486)) >> _U(20)) & _U(0x0000007F0000007F)  # // 100
    x = q | ((x - q * _U(100)) << _U(16))
    q = ((x * _U(103)) >> _U(10)) & _U(0x000F000F000F000F)  # // 10
    return q | ((x - q * _U(10)) << _U(8))


def _digit_words(n: np.ndarray, precision: int) -> np.ndarray:
    """n < 10**precision as uint64 words per value, its decimal digits
    zero padded to a multiple of 8 in little-endian byte order."""
    words = 1 + (precision - 1) // 8
    out = np.empty(n.shape + (words,), np.uint64)
    for j in range(words - 1, 0, -1):
        q = n // _POW10[8]
        out[..., j] = _swar8(n - q * _POW10[8])
        n = q
    # a first word of one digit needs no splitting
    out[..., 0] = n << _U(56) if precision % 8 == 1 else _swar8(n)
    return out


def _digit_count(w: np.ndarray, pad: int) -> np.ndarray:
    """The number of digits up to the last nonzero one in each row of
    digit words ``w``, whose digits start at byte ``pad``. A word whose
    last nonzero byte is j has 2**(8j) <= w < 2**(8j + 4), as a digit is
    below 16 and the bytes after it are 0; so the float nearest w keeps j
    as its binary exponent // 8. The first word is never 0."""
    last, base = w[..., 0], np.zeros(w.shape[:-1], np.int64)
    for j in range(1, w.shape[-1]):
        nonzero = w[..., j] != _U(0)
        last = np.where(nonzero, w[..., j], last)
        base = np.where(nonzero, 8 * j, base)
    _, exp = np.frexp(last.astype(np.float64))
    return base + ((exp - 1) >> 3) - pad + 1


@functools.cache
def _layout(precision: int):
    """The slot of one field at ``precision`` P, and the characters and
    column masks of its classes.

    The slot is a separator and a prefix, the digits A, ".", the digits
    B after their first, and "e" with a sign and two exponent digits. A
    field of decimal exponent X with d digits left once the trailing
    zeros go prints these columns:
      -4 <= X < 0, fixed:  "," "0." and -X - 1 zeros, A[:d]
      0 <= X < P, fixed:   "," A[:X + 1], and if d > X + 1, "." B[X + 1:d]
      otherwise:           "," A[:1], and if d > 1, "." B[1:d]; "e-XX"/"e+XX"
    Each class puts its separator and prefix right before A, so that
    most fields are one run of columns, which the compress copies
    fastest. Class X - (P - 28) is exponent X, the next class is +0.0
    (",0"), and the P classes after that are frame numbers of 1 .. P
    digits, written from the start of A after a newline. The mask table
    holds a row per class and d.
    """
    a0 = 6  # the separator and "0.000"
    b0 = a0 + precision  # the "."; B's digit j is at b0 + j
    e0 = b0 + precision
    exponents = range(precision - 28, precision + 1)
    zero = len(exponents)
    classes = zero + 1 + precision
    chars = np.zeros((classes, e0 + 4), np.uint8)
    chars[:, b0] = ord(".")
    chars[:, e0] = ord("e")
    masks = np.zeros((classes, precision + 1, e0 + 4), bool)

    def lead(c, text):
        chars[c, a0 - len(text):a0] = np.frombuffer(text.encode(), np.uint8)
        masks[c, :, a0 - len(text):a0] = True

    for c, x in enumerate(exponents):
        chars[c, e0 + 1:] = np.frombuffer(f"{x:+03d}".encode(), np.uint8)
        if -4 <= x < 0:
            lead(c, ",0." + "0" * (-x - 1))
            for d in range(1, precision + 1):
                masks[c, d, a0:a0 + d] = True
            continue
        lead(c, ",")
        point = x if 0 <= x < precision else 0
        for d in range(1, precision + 1):
            mask = masks[c, d]
            mask[a0:a0 + point + 1] = True
            if d > point + 1:
                mask[b0] = True
                mask[b0 + point + 1:b0 + d] = True
        if point != x:
            masks[c, :, e0:] = True
    lead(zero, ",0")
    for length in range(1, precision + 1):
        lead(zero + length, "\n")
        masks[zero + length, :, a0:a0 + length] = True
    return (a0, b0, zero, chars,
            masks.reshape(classes * (precision + 1), e0 + 4))


def format_rows(t0: int, rows: np.ndarray,
                precision: int) -> Optional[str]:
    """``("%d," + ",".join(["%.<P>g"] * width) + "\\n") % (t, *row)`` for
    frames t = t0, t0 + 1, ... and the rows of ``rows``, joined, for
    precision P of 6 or 17; None where the module docstring says."""
    num_rows, width = rows.shape
    if (precision not in (6, 17) or rows.dtype != np.float64
            or not num_rows or not width
            or t0 + num_rows > 10 ** precision):
        return None
    x = np.ascontiguousarray(rows)
    bits = x.view(np.uint64)
    zero = bits == _U(0)
    biased_e = bits >> _U(52)
    # +0.0 or a positive normal: no sign bit, no zero or all-ones exponent
    if not np.all(zero | ((biased_e > _U(0)) & (biased_e < _U(0x7FF)))):
        return None
    a0, b0, zero_class, chars, masks = _layout(precision)
    low = precision - 28
    m = (bits & _U((1 << 52) - 1)) | _U(1 << 52)
    k = np.floor(np.log10(np.where(zero, 1.0, x)))
    k = np.clip(k, low, precision - 1).astype(np.int64)
    n, up, exact = _scaled(m, biased_e, precision - 1 - k)
    least, bound = _POW10[precision - 1], _POW10[precision]
    off = ~zero & ((n < least) | (n >= bound))
    if off.any():
        i = np.nonzero(off)
        k[i] = np.clip(k[i] + np.where(n[i] >= bound, 1, -1), low,
                       precision - 1)
        n[i], up[i], exact[i] = _scaled(m[i], biased_e[i],
                                        precision - 1 - k[i])
        if np.any((n[i] < least) | (n[i] >= bound)):
            return None
    if not np.all(exact | zero):
        return None
    n = np.where(zero, least, n + up)
    carry = n == bound
    n[carry] = least
    k += carry
    # frame numbers in column 0, then the values: one grid of fields
    frames = np.arange(t0, t0 + num_rows, dtype=np.uint64)
    lengths = 1 + np.searchsorted(_POW10[1:precision], frames, side="right")
    grid = np.empty((num_rows, width + 1), np.uint64)
    grid[:, 0] = frames * _POW10[precision - lengths]
    grid[:, 1:] = n
    digit_words = _digit_words(grid, precision)
    pad = 8 * digit_words.shape[-1] - precision
    cls = np.empty((num_rows, width + 1), np.intp)
    cls[:, 0] = zero_class + lengths
    cls[:, 1:] = np.where(zero, zero_class, k - low)
    row = cls * (precision + 1)
    row[:, 1:] += _digit_count(digit_words[:, 1:], pad)
    text = chars.take(cls, axis=0)
    digits = (digit_words | _U(0x3030303030303030)).astype(
        "<u8", copy=False).view(np.uint8)[..., pad:]
    text[..., a0:b0] = digits
    text[..., b0 + 1:b0 + precision] = digits[..., 1:]
    keep = masks.take(row, axis=0)
    keep[0, 0, a0 - 1] = False  # the newline ahead of the first line
    return text[keep].tobytes().decode("ascii") + "\n"
