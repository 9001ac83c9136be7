"""The exact `repr` text of float64 arrays, computed with integer array ops.

`float_text` writes each float as Python's `repr` does, as a row of ASCII
bytes padded with trailing NULs.  Normal doubles go through a port of
Schubfach (R. Giulietti, "The Schubfach way to render doubles", 2020; the
algorithm behind Java's `Double.toString`) to uint64 arrays: of the
decimals that round back to the double (the ends of its rounding interval
count when its significand is even) it takes one with the fewest digits,
and of those the closest, ties to an even last digit, which is what `repr`
prints.  Zeros, subnormals, NaN and +-inf go through `repr` itself (for
subnormals Java keeps two digits, `4.9E-324` against `5e-324`).  The text
is then laid out as `repr` does, from a template per sign, digit count
and decimal exponent.

Every constant that meets a uint64 array is a `np.uint64` scalar: under
numpy 1.x a uint64 array mixed with a Python int promotes to float64.
"""

from __future__ import annotations

import numpy as np

__all__ = ["CHUNK", "WIDTH", "float_text"]

CHUNK = 1 << 14  # values per kernel call; larger temporaries page-fault on every op
WIDTH = 24  # the longest repr of a double: -1.2345678901234567e-308

_U = np.uint64
_M32, _M63 = _U(2**32 - 1), _U(2**63 - 1)
_C_MIN = _U(2**52)
_K_MIN = -324  # the decimal exponents k of normal doubles lie in [_K_MIN, 292]
_POW10 = 10 ** np.arange(18, dtype=np.uint64)
# The two ASCII digits of 00 to 99 as uint16s in memory order, so that a
# uint16 view of a byte row writes both at once.
_PAIRS = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode(), np.uint16).copy()

# g(k) = floor(10^-k 2^-r) + 1 in [2^125, 2^126), split into 63-bit halves
# (g1, g0); a row is filled the first time a value needs its k.
_G = np.zeros((617, 2), np.uint64)
_G_KNOWN = np.zeros(617, bool)


def _missing(rows: np.ndarray, known: np.ndarray) -> list[int]:
    """The distinct entries of `rows` whose `known` flag is not set."""
    need = np.zeros(len(known), bool)
    need[rows] = True
    return np.flatnonzero(need & ~known).tolist()


def _flog2pow10(e: np.ndarray) -> np.ndarray:
    """floor(e log2 10), exact for |e| <= 1233."""
    return (e * np.int64(913124641741)) >> np.int64(38)


def _powers(k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(g1, g0) of each decimal exponent in `k`; Python integers compute
    the table rows not yet filled."""
    row = k - np.int64(_K_MIN)
    for i in _missing(row, _G_KNOWN):
        e = -(i + _K_MIN)
        r = int(_flog2pow10(np.int64(e))) - 125
        num, den = (10**e, 1) if e >= 0 else (1, 10**-e)
        num, den = (num, den << r) if r >= 0 else (num << -r, den)
        g = num // den + 1
        _G[i] = g >> 63, g & (2**63 - 1)
        _G_KNOWN[i] = True
    g = _G[row]
    return g[:, 0], g[:, 1]


def _mulhi(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The high 64 bits of the 128-bit products a b, from 32-bit limbs."""
    a0, a1, b0, b1 = a & _M32, a >> _U(32), b & _M32, b >> _U(32)
    cross = ((a0 * b0) >> _U(32)) + ((a1 * b0) & _M32) + a0 * b1
    return a1 * b1 + ((a1 * b0) >> _U(32)) + (cross >> _U(32))


def _rop(g1: np.ndarray, g0: np.ndarray, cp: np.ndarray) -> np.ndarray:
    """Round to odd of g cp / 2^127 (Schubfach's rop)."""
    z = ((g1 * cp) >> _U(1)) + _mulhi(g0, cp)
    return (_mulhi(g1, cp) + (z >> _U(63))) | (((z & _M63) + _M63) >> _U(63))


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The shortest decimal f 10^e of each positive normal double (bit
    patterns `bits`) that rounds back to it, the closest such when several
    do: returns f (uint64, at most 17 digits, maybe with trailing zeros)
    and e (int64)."""
    c = (bits & _U(2**52 - 1)) | _C_MIN
    q = (bits >> _U(52)).astype(np.int64) - np.int64(1075)
    pow2 = c == _C_MIN
    # k = floor(log10(2^q)), or floor(log10(3/4 2^q)) at a power of two.
    k = q * np.int64(661971961083) - np.where(pow2, np.int64(274743187321), np.int64(0))
    k >>= np.int64(41)
    h = (q + _flog2pow10(-k) + np.int64(2)).astype(np.uint64)
    g1, g0 = _powers(k)
    # 4 times the value (c 2^q) and the ends of its rounding interval, in
    # units of 10^k, rounded to odd: the low bit says "not exact".  The
    # ends belong to the interval only when c is even (`out` is 0).
    cb = c << _U(2)
    vb = _rop(g1, g0, cb << h)
    vbl = _rop(g1, g0, (cb - np.where(pow2, _U(1), _U(2))) << h)
    vbr = _rop(g1, g0, (cb + _U(2)) << h)
    out = c & _U(1)
    s = vb >> _U(2)
    # One digit fewer: the multiple of ten below or above s, if exactly one
    # of them is in the rounding interval.
    sp10 = s // _U(10) * _U(10)
    tp10 = sp10 + _U(10)
    upin = vbl + out <= sp10 << _U(2)
    wpin = (tp10 << _U(2)) + out <= vbr
    # Otherwise s or s + 1, whichever is in the interval, the closer one
    # (ties to even) when both are.
    t = s + _U(1)
    uin = vbl + out <= s << _U(2)
    win = (t << _U(2)) + out <= vbr
    cmp = vb.astype(np.int64) - ((s + t) << _U(1)).astype(np.int64)
    pick_s = np.where(uin != win, uin, (cmp < 0) | ((cmp == 0) & (s & _U(1) == _U(0))))
    f = np.where(upin != wpin, np.where(upin, sp10, tp10), np.where(pick_s, s, t))
    # Integers below 2^53 are their own shortest text.
    shift = np.clip(-q, 0, 63).astype(np.uint64)
    whole = (q > -53) & (q <= 0) & ((c >> shift) << shift == c)
    return np.where(whole, c >> shift, f), np.where(whole, np.int64(0), k)


def _kernel(values: np.ndarray) -> np.ndarray:
    """`float_text` of at most one chunk of values."""
    bits = values.view(np.uint64)
    biased = (bits >> _U(52)) & _U(0x7FF)
    normal = (biased != _U(0)) & (biased != _U(0x7FF))
    if normal.all():
        return _normal_text(bits)
    out = np.zeros((len(values), WIDTH), np.uint8)
    out[normal] = _normal_text(bits[normal])
    for i in np.flatnonzero(~normal).tolist():
        text = repr(float(values[i])).encode()
        out[i, : len(text)] = np.frombuffer(text, np.uint8)
    return out


def _normal_text(bits: np.ndarray) -> np.ndarray:
    """The repr text of normal doubles given by their bit patterns."""
    f, e = _shortest(bits & _U(2**63 - 1))
    size = np.searchsorted(_POW10, f, side="right")  # digits of f, 1..17
    x = e + size - 1  # the decimal exponent of the leading digit
    # The 17 leading digits of f, left aligned, as ASCII: two 32-bit halves
    # of 8 and 9 digits, written two digits at a time.
    m = len(bits)
    source = np.zeros((m, 18), np.uint8)  # column 17 stays NUL
    pairs = source.view(np.uint16)  # (m, 9): digits 2i and 2i + 1
    halves = np.divmod(f * _POW10[17 - size], _U(10**9))
    high, low = (h.astype(np.uint32) for h in halves)
    low_pairs, last = np.divmod(low, np.uint32(10))
    source[:, 16] = last + np.uint32(48)
    for i, part in ((0, high), (4, low_pairs)):
        for j in range(4):
            pairs[:, i + j] = _PAIRS.take(part // np.uint32(10 ** (6 - 2 * j)) % np.uint32(100))
    n = 17 - np.argmax(source[:, 16::-1] != ord("0"), axis=1)  # digits up to the last nonzero
    code = (bits >> _U(63)).astype(np.int64) + 2 * (n - 1) + 34 * (x + 324)
    slots, chars = _layouts(code)
    return source.ravel().take(slots + np.arange(0, 18 * m, 18)[:, None]) + chars


# The text of a value with sign s, n significant digits and decimal exponent
# x, as [digit slots, literal chars], filled the first time a value needs it;
# code = s + 2 (n - 1) + 34 (x + 324).
_SLOTS = np.zeros((34 * 633, WIDTH), np.uint8)
_CHARS = np.zeros((34 * 633, WIDTH), np.uint8)
_LAYOUT_KNOWN = np.zeros(34 * 633, bool)


def _layout(neg: int, n: int, x: int) -> list:
    """repr's text of a double, digits given by their index: positional for
    -4 <= x < 16 (with .0 on integers), d[.ddd]e+-XX otherwise."""
    digits = list(range(n))
    if not -4 <= x < 16:
        mantissa = [0] + (["."] + digits[1:] if n > 1 else [])
        text = mantissa + ["e", "-" if x < 0 else "+", *f"{abs(x):02d}"]
    elif x >= 0:
        text = digits[: x + 1] + ["0"] * (x + 1 - n) + ["."] + (digits[x + 1 :] or ["0"])
    else:
        text = ["0", "."] + ["0"] * (-x - 1) + digits
    return ["-"] * neg + text


def _layouts(code: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The digit slots and literal chars of each template in `code`, each
    row written in one assignment, so a concurrent reader sees it whole."""
    for c in _missing(code, _LAYOUT_KNOWN):
        text = _layout(c % 2, c // 2 % 17 + 1, c // 34 - 324)
        slots = [item if isinstance(item, int) else 17 for item in text]  # 17: the NUL column
        chars = [0 if isinstance(item, int) else ord(item) for item in text]
        _SLOTS[c] = slots + [17] * (WIDTH - len(text))
        _CHARS[c] = chars + [0] * (WIDTH - len(text))
        _LAYOUT_KNOWN[c] = True
    return _SLOTS[code], _CHARS[code]


def float_text(values: np.ndarray) -> np.ndarray:
    """repr of each float of the 1-d float64 array `values`: a uint8 matrix
    (len(values), WIDTH), row i the ASCII text of values[i] followed by NULs.

    Runs `_kernel` once per `CHUNK` values.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    out = np.empty((len(values), WIDTH), np.uint8)
    for start in range(0, len(values), CHUNK):
        out[start : start + CHUNK] = _kernel(values[start : start + CHUNK])
    return out
