"""CSV text of float tables, each value exactly as `'%.17g' % value` spells it.

`g17_rows` formats a whole block in numpy instead of one CPython dtoa
call per value.  For a finite nonzero value with decimal exponent k in
[-6, 16], 10**(16 - k) is an exact double, so Dekker's error-free product
gives |v| * 10**(16 - k) as hi + lo exactly.  hi is an even integer of
at least 2**53, so the 17 correctly rounded digits are hi + rint(lo),
round half to even as dtoa rounds.  k comes from log10 and is corrected
by comparing the exact hi + lo, before rounding, with 10**16 and 10**17.
Every character that `%g`'s fixed or exponent form could print has a
byte in a 48-byte slot per value; a mask chosen by the exponent, the
digit count left after stripping trailing zeros, and the sign clears the
bytes this value does not print, and deleting the zero bytes joins the
slots.  Zeros of either sign take the same path.  Only values that are
not finite or whose k lies outside [-6, 16] are formatted by `%` one at
a time.
"""

from __future__ import annotations

import numpy as np

# slot layout, six little-endian words of eight bytes:
#   "-0.000" d0 "."  |  four groups of "d.d.d.d." (digits 1..16, each
#   followed by a point)  |  "e-056" separator, two unused bytes
SLOT_WORDS = 6
_SLOT = 8 * SLOT_WORDS
_SEPARATOR = _SLOT - 3  # the separator's byte in a slot
# xor into a slot's last word: its ',' separator becomes a newline
NEWLINE = np.uint64((ord(",") ^ ord("\n")) << 8 * (_SEPARATOR - _SLOT + 8))
_MIN_K, _MAX_K = -6, 16


def _words(rows) -> np.ndarray:
    return np.ascontiguousarray(rows, dtype=np.uint8).view("<u8").ravel()


def _groups() -> tuple[np.ndarray, np.ndarray]:
    """Each four-digit group as the word "d.d.d.d.", and its trailing zero digits (4 for 0000)."""
    quad = np.arange(10000, dtype=np.int16)
    text = np.full((10000, 8), ord("."), np.uint8)
    trailing = np.zeros(10000, np.int8)
    for i, scale in enumerate((1000, 100, 10, 1)):
        text[:, 2 * i] = quad // scale % 10 + ord("0")
        trailing += quad % (10000 // scale) == 0
    return _words(text), trailing


_GROUP, _TRAILING = _groups()
_HEAD = np.tile(np.frombuffer(b"-0.0000.", np.uint8), (10, 1))
_HEAD[:, 6] = np.arange(10) + ord("0")
_HEAD = _words(_HEAD)
_TAIL = _words(np.frombuffer(b"e-056,\0\0", np.uint8))[0]

_POW10 = np.array([10 ** e for e in range(_MAX_K - _MIN_K + 1)], dtype=float)
_SPLITTER = 134217729.0  # 2**27 + 1: Veltkamp's split into two 26-bit halves


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    t = _SPLITTER * a
    high = t - (t - a)
    return high, a - high


_POW10_HIGH, _POW10_LOW = _split(_POW10)


def _masks() -> np.ndarray:
    """0xff for each byte a value prints, by (k + 6, trailing zero digits, sign); one
    more row prints none."""
    k = np.arange(_MIN_K, _MAX_K + 1)[:, None, None, None]
    digits = np.arange(17, 0, -1)[None, :, None, None]  # the ones printed, at most
    negative = np.arange(2)[None, None, :, None]
    col = np.arange(_SLOT)[None, None, None, :]
    fixed = k >= -4  # %g's fixed form for -4 <= k < 17, else the exponent form
    small = fixed & (k < 0)
    whole = fixed & (k >= 0)
    point = np.where(whole, k, 0)  # the point follows this digit
    index = (col - 6) // 2  # digit index of columns 6 and 8, 10, ..., 38
    digit = (col == 6) | ((col >= 8) & (col < 40) & (col % 2 == 0))
    dot = (col == 7) | ((col >= 9) & (col < 40) & (col % 2 == 1))
    keep = np.where(whole, np.maximum(k + 1, digits), digits)
    mask = ((col == 0) & (negative == 1)
            | small & ((col == 1) | (col == 2) | ((col >= 3) & (col < 2 - k)))
            | digit & (index < keep)
            | dot & ~small & (index == point) & (digits > point + 1)
            | ~fixed & ((col >= 40) & (col <= 42) | (col == 43) & (k == -5) | (col == 44) & (k == -6))
            | (col == 45))
    rows = np.concatenate([mask.reshape(-1, _SLOT), (np.arange(_SLOT) == 45)[None, :]])
    return _words(rows * np.uint8(0xFF)).reshape(-1, SLOT_WORDS)


_MASK = _masks()
_NONE = len(_MASK) - 1  # prints only the separator


def _exact_product(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * 10**e as hi + lo exactly: Dekker's product, no underflow or overflow here."""
    hi = a * _POW10[e]
    a_high, a_low = _split(a)
    p_high, p_low = _POW10_HIGH[e], _POW10_LOW[e]
    return hi, ((a_high * p_high - hi) + a_high * p_low + a_low * p_high) + a_low * p_low


def _decimal(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each value's decimal exponent k and its 17 digits d, and where k is in [-6, 16].

    Every other value, zero among them, reads as 1.0: k = 0, d = 10**16,
    or k = 17 where 17 digits of a value just below 10**17 round up.
    """
    a = np.abs(values)
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.floor(np.log10(a))
    exact = (k >= _MIN_K) & (k <= _MAX_K)
    a = np.where(exact, a, 1.0)
    k = np.where(exact, k, 0.0).astype(np.intp)
    hi, lo = _exact_product(a, 16 - k)
    # correct k where log10 missed: the exact product must lie in [1e16, 1e17)
    low = (hi < 1e16) | ((hi == 1e16) & (lo < 0.0))
    high = (hi > 1e17) | ((hi == 1e17) & (lo >= 0.0))
    missed = np.flatnonzero(low | high)
    if missed.size:
        k[missed] += high[missed].astype(np.intp) - low[missed]
        lost = missed[(k[missed] < _MIN_K) | (k[missed] > _MAX_K)]
        exact[lost], a[lost], k[lost] = False, 1.0, 0
        hi[missed], lo[missed] = _exact_product(a[missed], 16 - k[missed])
    # hi is an even integer, so hi + rint(lo) is hi + lo rounded half to even
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    carried = np.flatnonzero(d == 10 ** 17)
    if carried.size:  # rounded up to 18 digits: one more decade
        d[carried] = 10 ** 16
        k[carried] += 1
        exact[carried] &= k[carried] <= _MAX_K
    return k, d, exact


def g17_slots(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each value's text and a ',' after it, as a slot of SLOT_WORDS words.

    Bytes a value does not print are zero.  Returns the (n, SLOT_WORDS)
    slots and the indices of the values beyond the kernel's range, whose
    slots hold only the separator; `joined` puts their `%` text in.
    """
    k, d, exact = _decimal(values)
    zero = values == 0.0
    # the lead digit and four groups of four: upper keeps the first nine
    # digits, then the second group; d the last eight, then the fourth group
    upper = d // 10 ** 8
    d -= upper * 10 ** 8
    lead = upper // 10 ** 8
    upper -= lead * 10 ** 8
    lead -= zero  # a zero read as 1.0, and keeps one digit
    first, third = upper // 10 ** 4, d // 10 ** 4
    upper -= first * 10 ** 4
    d -= third * 10 ** 4
    groups = first, upper, third, d
    # trailing zeros of the 17 digits, from the last group back
    trailing = _TRAILING.take(groups[3])
    for group, full in zip(groups[2::-1], (4, 8, 12)):
        trailing += (trailing == full) * _TRAILING.take(group)
    key = ((k - _MIN_K) * 17 + trailing) * 2 + np.signbit(values)
    rest = np.flatnonzero(~(exact | zero))
    key[rest] = _NONE
    words = np.empty((values.size, SLOT_WORDS), np.uint64)
    words[:, 0] = _HEAD.take(lead)
    for col, group in enumerate(groups, 1):
        words[:, col] = _GROUP.take(group)
    words[:, 5] = _TAIL
    del lead, groups, first, upper, third, d  # before the masks' copy: a block's peak
    words &= _MASK.take(key, axis=0)
    return words, rest


def joined(rows: np.ndarray, rest: np.ndarray, values: np.ndarray) -> bytes:
    """The bytes of an (R, W) array of words without their zeros.

    Each row ends in a value's slot; `'%.17g' % values[j]` goes into the
    slot of row rest[j], before its separator.  rest ascends.
    """
    width = 8 * rows.shape[1]
    text = rows.tobytes()
    pieces, start = [], 0
    for row, value in zip(rest.tolist(), values.tolist()):
        at = (row + 1) * width - _SLOT + _SEPARATOR
        pieces += text[start:at].translate(None, b"\0"), b"%.17g" % value
        start = at
    pieces.append(text[start:].translate(None, b"\0"))
    return b"".join(pieces)


def g17_rows(table: np.ndarray) -> bytes:
    """The rows of a 2-D float table as CSV lines: each value as `'%.17g' % value`,
    a ',' between values and a newline after each row."""
    values = np.ascontiguousarray(table, dtype=float).ravel()
    words, rest = g17_slots(values)
    if values.size:
        words.reshape(len(table), -1, SLOT_WORDS)[:, -1, -1] ^= NEWLINE
    return joined(words, rest, values[rest])
