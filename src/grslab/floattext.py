"""Shortest round-trip text of float64 arrays, byte for byte as ``repr``.

The fewest decimal digits that read back to the same double (the nearer of
two such), positional for decimal exponents -4 <= E < 16, else ``d.ddde±XX``,
from a double-double product of |x| with a power of ten good to about 1e-15
units of the 17th digit.  ``repr`` itself writes a value whose digit choice
lies within 1e-7 units of a boundary, and each nonzero |x| out of [1e-280, 1e280].
"""

import functools

import numpy as np

__all__ = ["WIDTH", "float_text"]

#: text slots per value: the sign and a "0.000" lead, 17 digits each followed
#: by a point slot, 6 unused, and "e", the exponent's sign and digits
WIDTH = 56
_DOUBT = 1e-7
_P_MIN, _P_MAX, _E_MIN = -270, 300, -300  # the powers 10^p and exponents of |x| in [1e-280, 1e280]
_POW10 = 10 ** np.arange(19, dtype=np.int64)


@functools.cache
def _tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """hi, its Dekker halves and lo of 10^p = hi + lo (int division rounds
    correctly); "0000" to "9999"; the text before and after the digits."""
    powers = []
    for p in range(_P_MIN, _P_MAX + 1):
        num, den = 10 ** max(p, 0), 10 ** max(-p, 0)
        hi = num / den
        a, b = hi.as_integer_ratio()
        t = hi * 134217729.0  # 2^27 + 1
        powers.append((hi, t - (t - hi), hi - (t - (t - hi)), (num * b - a * den) / (den * b)))
    digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    quads = np.stack(np.meshgrid(digit, digit, digit, digit, indexing="ij"), axis=-1)
    exponents = range(_E_MIN, -_E_MIN + 1)
    heads = np.array([sign + ("0." + "0" * (-e - 1) if -4 <= e < 0 else "") for e in exponents
                      for sign in ("", "-")], "S8").view(np.uint64)
    tails = np.array(["" if -4 <= e < 16 else f"e{e:+03d}" for e in exponents], "S8").view(np.uint64)
    return np.array(powers).T.copy(), quads.reshape(-1).view(np.uint32), heads, tails


def _digits(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Shortest round-trip digits of positive normal doubles (17 ASCII columns,
    "0" after the last), their count and exponent, and where they are in doubt."""
    # s = v 10^p in units of the 17th digit, in [1e16, 1e17) give or take the
    # log10 rounding, split exactly into the integer `whole` and `frac`
    p = 16 - np.floor(np.log10(v)).astype(np.int64)
    hi, high, low, lo = _tables()[0][:, p - _P_MIN]
    s_hi, t = v * hi, v * 134217729.0
    vh = t - (t - v)
    vl = v - vh
    s_lo = ((vh * high - s_hi) + vh * low + vl * high) + vl * low + v * lo
    whole = s_hi.astype(np.int64) + np.floor(s_lo).astype(np.int64)
    frac = s_lo - np.floor(s_lo)
    # a decimal reads back as v within half the gap to the next double (half
    # that below a power of two), at least 0.55 units, so an integer always
    # does; the interval's reach past `whole` is doubted if nearly an integer
    mant, ex = np.frexp(v)
    half_up = np.ldexp(hi, ex - 54)
    reach = [np.where(mant == 0.5, half_up / 2, half_up) - frac, half_up + frac]
    doubt = np.zeros(len(v), bool)
    for end in reach:
        doubt |= np.abs(end - np.rint(end)) < _DOUBT
    down_reach, up_reach = (np.floor(end).astype(np.int64) for end in reach)

    def candidates(k, rows=slice(None)):  # q 10^k <= s < (q + 1) 10^k; is each inside?
        unit = _POW10[k]
        q = whole[rows] // unit
        r = whole[rows] - q * unit
        return q, r, unit, r <= down_reach[rows], unit - r <= up_reach[rows]

    # the coarsest 10^k with a candidate inside; only values of 15 digits or fewer try k in [3, 16]
    k = np.logical_or(*candidates(1)[3:]).astype(np.int64)
    rest = np.flatnonzero(np.logical_or(*candidates(2)[3:]))
    k[rest] = 2 + np.sum(np.logical_or(*candidates(np.arange(3, 17), rest[:, None])[3:]), axis=1)
    q, r, unit, down, up = candidates(k)
    nearer_up = (2 * r - unit) + 2 * frac
    c = q + (up & (~down | (nearer_up > 0)))
    doubt |= down & up & (np.abs(nearer_up) < 2 * _DOUBT)
    carry = c == 10  # only at k = 16, where log10 fell just below a power of ten
    c, k = np.where(carry, 1, c), k + carry
    count = np.searchsorted(_POW10, c, side="right")
    # the digits of c 10^(17 - count): one, then four groups of four
    aligned = c * _POW10[np.maximum(17 - count, 0)]
    text = np.empty((len(v), 5), np.uint32)
    for j in range(4, 0, -1):
        head = aligned // 10**4
        text[:, j] = _tables()[1][aligned - head * 10**4]
        aligned = head
    digits = text.view(np.uint8)[:, 3:]
    digits[:, 0] = aligned + ord("0")
    return digits, count, count - 1 + k - p, doubt


def float_text(values: np.ndarray) -> np.ndarray:
    """A (len(values), WIDTH) uint8 matrix whose row k, without its NUL
    bytes, is the ASCII text of ``repr(float(values[k]))``."""
    x = np.asarray(values, dtype=np.float64).reshape(-1)
    ax = np.abs(x)
    fast = (ax >= 1e-280) & (ax <= 1e280)
    slow = ~fast & (ax != 0)
    out = np.zeros((len(x), WIDTH), np.uint8)
    out[:, 0] = np.signbit(x) * ord("-")
    out[:, 8:11] = (ord("0"), ord("."), ord("0"))  # +-0.0
    rows = np.flatnonzero(fast)
    if rows.size:
        digits, count, exp10, doubt = _digits(ax[rows])
        text = np.zeros((len(rows), WIDTH), np.uint8)
        text.view(np.uint64)[:, 0] = _tables()[2][2 * (exp10 - _E_MIN) + np.signbit(x[rows])]
        text.view(np.uint64)[:, -1] = _tables()[3][exp10 - _E_MIN]
        # positional: digits to the units place and one or more after the point
        positional = (exp10 >= -4) & (exp10 < 16)
        shown = np.where(positional & (exp10 >= 0), np.maximum(count, exp10 + 2), count)
        text.view("<u2")[:, 4:21] = digits * (np.arange(17, dtype=np.int8) < shown.astype(np.int8)[:, None])
        point = np.where(positional, exp10, np.where(count > 1, 0, -1))
        dotted = np.flatnonzero(point >= 0)
        text[dotted, 9 + 2 * point[dotted]] = ord(".")
        out[rows] = text
        slow[rows[doubt]] = True
    slow = np.flatnonzero(slow)
    out[slow] = 0
    out[slow, :24] = np.array([repr(v) for v in x[slow].tolist()], "S24")[:, None].view(np.uint8)
    return out
