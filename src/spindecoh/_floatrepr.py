"""float64 arrays to the bytes of `repr(float(v))`, without a Python call per value.

The digits are Schubfach's (R. Giulietti, "The Schubfach way to render doubles",
2020): the shortest decimal in a double's rounding interval, the closest of
several, ties to even, as CPython's dtoa gives `repr`. They come from uint64
arrays with 128-bit products from 32-bit limbs; numpy warns on uint64 *scalar*
overflow, so every operand stays an array. The layout is `repr`'s.
"""

import functools

import numpy as np

_BLOCK = 8192  # values per pass, which bounds the temporaries to about 3 MB
_TEXT = 24  # bytes of the longest text, '1.2345678901234567e-308', and a separator
_ROW = _TEXT + 4
_M32, _M63 = (1 << 32) - 1, (1 << 63) - 1
_INF, _ONE = 0x7FF << 52, 0x3FF << 52
_POW10 = 10 ** np.arange(18, dtype=np.uint64)
# Row p of _BEFORE picks the bytes of an output row before a decimal point at
# text byte p. Row m < _TEXT of _KEEP keeps the m bytes of a positional text
# and its separator; row _TEXT - 2 + 2 n + x (x = 1 for three exponent digits)
# keeps n digits, their point and the exponent and separator after digit 17.
_COL = np.arange(_ROW)
_BEFORE = np.where(_COL <= np.arange(_TEXT + 1)[:, None], 255, 0).astype(np.uint8)
_N, _X = np.arange(2, 36)[:, None] // 2, np.arange(34)[:, None] % 2
_KEEP = np.vstack((_COL <= np.arange(_TEXT)[:, None] + 1, (_COL <= _N + (_N > 1))
                   | (_COL >= 18 + (_N > 1)) & (_COL <= 22 + (_N > 1) + _X)))
_QUAD_START = 4 * np.arange(6, dtype=np.int8)[:, None]


def _flog2pow10(e):
    return (e * 913_124_641_741) >> 38  # floor(e log2 10) for |e| < 1233


@functools.cache
def _tables():
    """Built on first use, not at import. g: rows g1, g1 >> 32, g1 & M32,
    g0 >> 32, g0 & M32 of g = g1 2^63 + g0 = floor(10^-k 2^-r) + 1 for
    k = -324..292, with r = flog2pow10(-k) - 125 so that 2^125 <= g < 2^126.
    quads: 0..9999 as four ASCII digits in a uint32; tail: the digits of
    each up to its last non-zero one (-99 for 0). ends: bytes 1-7 of a
    uint64 hold 'e-324'..'e+308'."""
    powers = [1]
    while len(powers) <= 324:
        powers.append(powers[-1] * 10)
    g = []
    for k in range(-324, 293):
        r = _flog2pow10(-k) - 125  # < 0 whenever k > 0
        g.append(1 + ((1 << -r) // powers[k] if k > 0 else
                      powers[-k] << -r if r < 0 else powers[-k] >> r))
    g1 = np.array([x >> 63 for x in g], np.uint64)
    g0 = np.array([x & _M63 for x in g], np.uint64)
    digits = np.indices((10,) * 4, np.uint8).reshape(4, -1).T
    tail = np.where(digits.any(axis=1), 4 - np.argmax(digits[:, ::-1] != 0, axis=1), -99)
    ends = "".join(f"\0e{x:+03d}".ljust(8, "\0") for x in range(-324, 309)).encode()
    return (np.stack((g1, g1 >> 32, g1 & _M32, g0 >> 32, g0 & _M32)),
            (digits + ord("0")).copy().view(np.uint32).ravel(), tail.astype(np.int8),
            np.frombuffer(ends, np.uint64))


def _mulhi(a1, a0, b1, b0):
    """High 64 bits of (a1 2^32 + a0)(b1 2^32 + b0)."""
    mid = a1 * b0 + (a0 * b0 >> 32)
    return a1 * b1 + (mid >> 32) + (a0 * b1 + (mid & _M32) >> 32)


def _rop(g, cp):
    """floor(g cp 2^-127), its lowest bit set when the rest is not 0."""
    g1, g1h, g1l, g0h, g0l = g
    ch, cl = cp >> 32, cp & _M32
    z = (g1 * cp >> 1) + _mulhi(g0h, g0l, ch, cl)
    return (_mulhi(g1h, g1l, ch, cl) + (z >> 63)) | ((z & _M63) + _M63 >> 63)


def _shortest(mag):
    """(f, e): f 10^e is the shortest decimal that reads back as the finite,
    non-zero double with these magnitude bits."""
    biased = (mag >> 52).astype(np.int64)
    c = (mag & (1 << 52) - 1) | (biased > 0).astype(np.uint64) << 52
    q = np.maximum(biased, 1) - 1075
    irregular = (c == 1 << 52) & (q > -1074)  # the gap below a power of 2 is halved
    # k = floor(log10(2^q)), or of 3/4 2^q when irregular
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
    h = (q + _flog2pow10(-k) + 2).astype(np.uint64)
    g = np.take(_tables()[0], k + 324, axis=1)
    cb = c << 2  # the value and the ends of its rounding interval, in quarter units
    vb, vbl, vbr = _rop(g, np.stack((cb, cb - 2 + irregular, cb + 2)) << h)
    vbl += c & 1
    vbr -= c & 1
    s = vb >> 2
    sp10 = s // 10 * 10
    upin, wpin = vbl <= sp10 << 2, (sp10 << 2) + 40 <= vbr
    uin, win = vbl <= s << 2, (s << 2) + 4 <= vbr
    mid = (s << 2) + 2
    take_s = np.where(uin != win, uin, (vb < mid) | (vb == mid) & (s & 1 == 0))
    f = np.where(upin != wpin, np.where(upin, sp10, sp10 + 10), np.where(take_s, s, s + 1))
    return f, k


def _block(values, seps, line, text):
    """One block's bytes. Row r of `line` holds value r's sign byte, text,
    separator and spare bytes; a row of _KEEP picks its own."""
    n = len(values)
    _, quad_text, tail, ends = _tables()
    bits = values.view(np.uint64)
    mag = bits & _M63
    nan, inf, zero = mag > _INF, mag == _INF, mag == 0
    f, e = _shortest(np.where(nan | inf | zero, _ONE, mag))
    nd = np.searchsorted(_POW10[1:], f, side="right") + 1
    decpt = nd + e  # the value is 0.d1d2... 10^decpt
    sci = (decpt < -3) | (decpt > 16)  # repr's exponent form: below 1e-4, from 1e16 on
    pad = np.where(sci, 0, np.clip(1 - decpt, 0, 4))  # the zeros of 0.000ddd
    # Text row r: 4 spare bytes, then 24 digits, f's from digit pad on,
    # made of three 8-digit words and written four digits at a time.
    big = np.where(zero, 0, f * _POW10[17 - nd])
    high = big // 10**9
    scale = _POW10[4 - pad]
    low = (big - high * 10**9) * scale * 1000
    top = high * scale * 10**4 + low // 10**8
    words = np.stack((top // 10**8, top, low))
    words[1:] -= words[1:] // 10**8 * 10**8
    hi = words // 10**4
    quads = np.stack((hi, words - hi * 10**4), axis=1).reshape(6, n).astype(np.intp)
    text[:n].view(np.uint32)[:, 1:] = quad_text[quads.T]
    nsig = (tail[quads] + _QUAD_START).max(axis=0) - pad
    # In exponent form digits 18-24 are zeros; the exponent takes their place.
    end = text[:n, 20:].view(np.uint64)[:, 0]
    end[:] = np.where(sci, ends[decpt + 323] | end & 0xFF, end)
    point = np.where(sci, np.where(nsig > 1, 1, _TEXT), np.maximum(decpt, 1))
    three = np.abs(decpt - 1) >= 100
    # Exponent form: 1.5e-05 but 1e-05. Positional: a digit after the point, so 100.0.
    length = np.where(sci, 21 + (nsig > 1) + three, np.maximum(nsig + pad, point + 1) + 1)
    # Byte 1 + j of a row is digit j before the point and digit j - 1 after it.
    out, flat = line.reshape(-1), text.reshape(-1)
    after, before = flat[2:n * _ROW - 1], flat[3:n * _ROW]
    mask = np.take(_BEFORE, point, axis=0).reshape(-1)[:-3]
    out[:n * _ROW - 3] = after ^ ((before ^ after) & mask)
    rows = np.arange(0, n * _ROW, _ROW)
    out[rows] = ord("-")
    out[rows + 1 + point] = ord(".")
    if np.any(nan | inf):  # laid out as 1.0, which has their length
        line[:n][nan, 1:4] = np.frombuffer(b"nan", np.uint8)
        line[:n][inf, 1:4] = np.frombuffer(b"inf", np.uint8)
    out[rows + 1 + length] = seps
    keep = np.take(_KEEP, np.where(sci, _TEXT - 2 + 2 * nsig + three, length), axis=0)
    keep[:, 0] = (bits >> 63 == 1) & ~nan
    return line[:n][keep].tobytes()


def _repr_bytes(values, seps) -> bytes:
    """Each value's `repr(float(v))` followed by its separator byte.

    values: float64, any shape; seps: uint8 of the same size."""
    values = np.ascontiguousarray(values, np.float64).reshape(-1)
    seps = np.asarray(seps, np.uint8).reshape(-1)
    line = np.empty((min(values.size, _BLOCK), _ROW), np.uint8)
    text = np.empty_like(line)
    return b"".join(_block(values[i:i + _BLOCK], seps[i:i + _BLOCK], line, text)
                    for i in range(0, values.size, _BLOCK))
