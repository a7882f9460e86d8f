"""Shortest round-trip text of float64 arrays, byte for byte as ``repr``.

The fewest decimal digits that read back to the same double (the nearer of two such), positional
for decimal exponents -4 <= E < 16, else ``d.ddde±XX``, from a double-double product of |x| with a
power of ten good to about 1e-15 units of the 17th digit.  ``repr`` itself writes a value whose digit
choice lies within 1e-7 units of a boundary, and each nonzero |x| out of [1e-280, 1e280].

Each text ends its row of WIDTH bytes, NUL bytes before it, which a writer drops in one boolean gather.
"""

import functools

import numpy as np

__all__ = ["WIDTH", "float_text"]

#: bytes per text: the longest repr of a float64, "-1.2345678901234567e-300"
WIDTH = 24
_DOUBT, _P_MIN, _P_MAX, _E_MIN = 1e-7, -270, 300, -300  # the powers 10^p, exponents of |x| in [1e-280, 1e280]
_POW10 = 10 ** np.arange(19, dtype=np.int64)


@functools.cache
def _tables() -> tuple[np.ndarray, ...]:
    """hi, its Dekker halves and lo of 10^p = hi + lo (int division rounds correctly); "0000" to
    "9999"; the layout of each code; per exponent, its class's first code and its text."""
    powers = []
    for p in range(_P_MIN, _P_MAX + 1):
        num, den = 10 ** max(p, 0), 10 ** max(-p, 0)
        hi = num / den
        a, b = hi.as_integer_ratio()
        t = hi * 134217729.0  # 2^27 + 1
        powers.append((hi, t - (t - hi), hi - (t - (t - hi)), (num * b - a * den) / (den * b)))
    # per exponent class, digit count and sign: the power of ten padding the digits to those shown, the
    # bits the exponent moves them down, masks of the digits kept up to and after the point, bytes added
    codes = [(e, c, s) for e in [*range(-4, 16), 16, 100] for c in range(1, 18) for s in (0, 1)]
    pad, shift, masks = [], [], np.zeros((len(codes), 3, WIDTH), np.uint8)
    for (e, count, sign), (before, after, added) in zip(codes, masks):
        positional = -4 <= e < 16
        split = e + 1 if positional and e >= 0 else 0 if positional or count == 1 else 1  # one byte lower
        shown = max(count, e + 2) if positional and e >= 0 else count
        end = WIDTH - (0 if positional else len(f"e{e:+03d}"))  # digit j lands at end - shown + j
        start, head = end - shown - (split > 0), "-" * sign + ("0." + "0" * (-e - 1)) * (positional and e < 0)
        before[start : start + split] = after[end - shown + split : end] = 255
        added[start - len(head) : start], added[start + split] = list(head.encode()), ord(".") * (split > 0)
        pad.append(10 ** (shown - count))
        shift.append([8 * (WIDTH - end)] * 3)
    first = [34 * (e + 4 if -4 <= e < 16 else 20 if abs(e) < 100 else 21) - 2 for e in range(_E_MIN, 1 - _E_MIN)]
    tails = [(b"" if -4 <= e < 16 else b"e%+03d" % e).rjust(8, b"\0") for e in range(_E_MIN, 1 - _E_MIN)]
    quads = (np.arange(10**4)[:, None] // [1000, 100, 10, 1] % 10 + ord("0")).astype(np.uint8)
    return (np.array(powers).T.copy(), quads.reshape(-1).view(np.uint32), np.array(pad),
            np.array(shift, np.uint64), *masks.view(np.uint64).transpose(1, 0, 2).copy(),
            np.array(first), np.array(tails, "S8").view(np.uint64))


def float_text(values: np.ndarray) -> np.ndarray:
    """A (len(values), WIDTH) uint8 matrix whose row k, without its NUL
    bytes, is the ASCII text of ``repr(float(values[k]))``."""
    x = np.asarray(values, dtype=np.float64).reshape(-1)
    fast = (np.abs(x) >= 1e-280) & (np.abs(x) <= 1e280)
    v = np.where(fast, np.abs(x), 1.0)  # 1.0 stands in for the rest
    # s = v 10^p in units of the 17th digit, in [1e16, 1e17) give or take the
    # log10 rounding, split exactly into the integer `whole` and `frac`
    exp10 = (np.floor(np.log10(v)) - _E_MIN).astype(np.int16)  # counted from _E_MIN
    hi, high, low, lo = _tables()[0].take(16 - _P_MIN - _E_MIN - exp10, axis=1)  # at p - _P_MIN
    vh = v * 134217729.0 - (v * 134217729.0 - v)
    s_hi = v * hi
    frac = ((vh * high - s_hi) + vh * low + (v - vh) * high) + (v - vh) * low + v * lo
    whole = s_hi.astype(np.int64) + np.floor(frac).astype(np.int64)
    frac -= np.floor(frac)
    del vh, s_hi, high, low, lo
    # a decimal reads back as v within half the gap to the next double (half
    # that below a power of two), at least 0.55 units, so an integer always
    # does; each end's reach past `whole` is doubted if nearly an integer
    two = (v.view(np.uint64) & 0x7FF0000000000000).view(np.float64)  # 2^E <= v < 2^(E + 1)
    ends = two * hi / (2.0**53 * (1 + (v == two))) - frac, two * hi / 2.0**53 + frac
    del v, hi, two
    doubt = np.logical_or(*(np.abs(end - np.rint(end)) < _DOUBT for end in ends))
    lower, upper = (whole + sign * np.floor(end).astype(np.int64) for sign, end in zip((-1, 1), ends))
    # the coarsest 10^k with a multiple in [lower, upper]; values of 15 digits or fewer try k in [3, 16]
    k = (upper // _POW10[1:3, None] * _POW10[1:3, None] >= lower).sum(axis=0)
    rest, k = np.flatnonzero((k == 2) & fast), k + 14 * ~fast  # 1.0 has k = 16
    k[rest] += (upper[rest] // _POW10[3:17, None] * _POW10[3:17, None] >= lower[rest]).sum(axis=0)
    # of q 10^k <= s < (q + 1) 10^k, the one inside, or the nearer if both are
    unit = _POW10.take(k)
    digits = whole // unit
    down, up = digits * unit >= lower, (digits + 1) * unit <= upper
    del ends, lower, upper
    nearer_up = (2 * (whole - digits * unit) - unit) + 2 * frac
    doubt |= down & up & (np.abs(nearer_up) < 2 * _DOUBT)
    digits += up & (~down | (nearer_up > 0))
    # q 10^k has 17 digits unless log10 fell just beside a power of ten; repr writes those
    doubt |= (digits * unit < _POW10[16]) | (digits * unit >= _POW10[17])
    _, quads, pad, shift, before, after, added, first, tails = _tables()
    code = first.take(exp10) + 2 * (17 - k) + np.signbit(x)
    del whole, frac, unit, down, up, nearer_up, k
    digits *= pad.take(code) * (x != 0)  # and 0.0 writes a zero digit
    text = np.zeros((len(x), 3), np.uint64)
    for j in range(5, 0, -1):  # four groups in bytes 8 to 23, before them the lead digit as "000d"
        head = digits // 10**4
        text.view(np.uint32)[:, j] = quads.take(digits - head * 10**4)
        digits = head
    del digits, head
    # digits move down by the exponent's bytes, those up to the point one byte further: each word takes
    # the low bytes of the next (a row's last word the next row's, into bytes that are masked off)
    flat, by = text.reshape(-1), shift.take(code, axis=0).reshape(-1)
    moved = flat >> by
    np.left_shift(flat[1:], np.subtract(64, by[1:], out=by[1:]), out=by[1:])
    moved[:-1] |= by[1:]
    np.right_shift(moved, 8, out=flat)
    flat[:-1] |= np.left_shift(moved[1:], 56, out=by[1:])
    del by
    text &= before.take(code, axis=0)
    flat |= np.bitwise_and(moved, after.take(code, axis=0).reshape(-1), out=moved)
    text |= added.take(code, axis=0)
    text[:, 2] |= tails.take(exp10)
    slow = np.flatnonzero(doubt | ~fast & (x != 0))
    text[slow] = np.array([repr(v).encode().rjust(WIDTH, b"\0") for v in x[slow].tolist()],
                          f"S{WIDTH}").view(np.uint64).reshape(-1, 3)
    return text.view(np.uint8)
