"""CSV tables written as numpy byte blocks.

``write_table`` cuts each block of a table into chunks of ``CHUNK_ROWS``
rows.  Every column of a chunk becomes a ``(rows, width)`` uint8 matrix
of its cells plus a boolean keep-mask of the same shape; side by side with
the separators, ``cells[keep]`` is the bytes of the chunk's ``a,b,c\\n``
rows, written with one ``fh.write``.

Floats are written exactly as ``format(v, ".17g")``.  For a normal value
``v = M 2**E`` with ``1e-10 <= |v| < 1e16`` the 17-digit decimal is the
integer ``M 5**p`` (at most 116 bits, held as two uint64 words) shifted by
``E + p`` with round-half-even, where ``p = 16 - floor(log10|v|)``; the
other values (zero, subnormals and the far ranges) go through ``format``
one at a time.  Integers are written as ``str(int)``.
"""

from __future__ import annotations

import itertools

import numpy as np

#: rows per chunk: one chunk's matrices stay within a few MiB
CHUNK_ROWS = 8192

_ONE = np.uint64(1)
_LOW32 = np.uint64(0xFFFF_FFFF)
_POW5 = 5 ** np.arange(28, dtype=np.uint64)  # 5**27 < 2**63
#: 10**1 ... 10**19, the digit counts of a uint64
_POW10 = 10 ** np.arange(1, 20, dtype=np.uint64)

#: the four ASCII digits of 0 ... 9999, as one uint32 each (built in uint8,
#: so that no large temporary raises the peak RSS of a small run)
_DIGIT_CHARS = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
_DIGITS4 = np.stack(
    np.broadcast_arrays(*(_DIGIT_CHARS.reshape((10,) + (1,) * k) for k in range(3, -1, -1))),
    axis=-1,
).view(np.uint32).ravel()

# A float row: a sign, the "0.000" of 1e-4 <= |v| < 0.1, 18 slots for the 17
# digits with the point among them, and "e-" with two exponent digits.  Only
# the exponents of the exact range, -10 ... 16, need a layout.
_FLOAT_TEMPLATE = np.frombuffer(b"-0.000" + b"0" * 18 + b"e-00", np.uint8)
_FLOAT_WIDTH = _FLOAT_TEMPLATE.size
_DIGITS_AT = 6
_MIN_EXP, _MAX_EXP = -10, 16
_EXPONENTS = np.arange(_MIN_EXP, _MAX_EXP + 1)


def _float_masks():
    """Keep-masks indexed by ``((exponent + 10) * 2 + negative) * 17 + t``.

    ``t`` (0 ... 16) counts the trailing zeros of the 17 digits.  As for
    ``format`` with ``g``, exponents -4 ... 16 are written in fixed point,
    the others in scientific notation, and trailing zeros after the point
    are dropped, with the point itself if no digit follows it.
    """
    x = _EXPONENTS[:, None, None, None]
    negative = np.arange(2)[None, :, None, None]
    t = np.arange(17)[None, None, :, None]
    col = np.arange(_FLOAT_WIDTH)
    fixed = x >= -4
    small = fixed & (x < 0)  # 0.000ddd, with no point among the digits
    before = np.where(fixed & (x >= 0), x + 1, 1)  # digits before the point
    kept = 17 - np.where(fixed & (x >= 0), np.minimum(t, 16 - x), t)
    slots = kept + (~small & (kept > before))  # the kept digits and point
    slot = col - _DIGITS_AT
    keep = (
        ((col == 0) & (negative == 1))
        | ((col >= 1) & (col <= 2) & small)
        | ((col >= 3) & (col < _DIGITS_AT) & small & (col - 3 < -x - 1))
        | ((slot >= 0) & (slot < slots))
        | ((slot >= 18) & ~fixed)
    )
    return keep.reshape(-1, _FLOAT_WIDTH)


_FLOAT_MASKS = _float_masks()
#: the slot of the point, by exponent: after digit x in fixed point, after the
#: first digit in scientific notation, and 17 (never kept) for 0.000ddd
_POINT_SLOT = np.where(
    _EXPONENTS >= 0, _EXPONENTS + 1, np.where(_EXPONENTS >= -4, 17, 1)
).astype(np.uint8)

_SEPARATOR = np.frombuffer(b",", np.uint8)[None]
_NEWLINE = np.frombuffer(b"\n", np.uint8)[None]
_KEEP = np.ones((1, 1), bool)


def write_table(path, table):
    """Write ``(header, block, ...)`` as CSV, one block at a time.

    A block is a tuple of columns: numpy arrays, ranges or other
    iterables such as a list of labels or ``itertools.repeat``; like
    ``zip``, it ends with its shortest column.  Float arrays are written as
    ``{:.17g}`` and every other value with ``str``; iterators are
    consumed, so a table is written once.  Raises ``ValueError`` on a NaN
    or infinity, before opening ``path``.
    """
    header, *blocks = table
    for column in (c for block in blocks for c in block):
        if _is_float(column) and not np.isfinite(column).all():
            raise ValueError(f"{column[~np.isfinite(column)][0]} in CSV output")
    with open(path, "w", newline="") as text:  # opened for its default encoding
        fh, encoding = text.buffer, text.encoding
        fh.write((",".join(header) + "\n").encode(encoding))
        for block in blocks:
            for pieces in zip(*map(_pieces, block)):
                rows = min(map(len, pieces))
                fh.write(_row_bytes([p[:rows] for p in pieces], encoding))


def _is_float(column):
    return isinstance(column, np.ndarray) and column.dtype.kind == "f"


def _pieces(column):
    """``column`` in chunks of up to ``CHUNK_ROWS`` values: float64 or int64
    arrays for numeric columns, lists of values for the rest."""
    if isinstance(column, range) and _fits_int64(column):
        for start in range(0, len(column), CHUNK_ROWS):
            r = column[start:start + CHUNK_ROWS]
            yield np.arange(r.start, r.stop, r.step, dtype=np.int64)
        return
    if isinstance(column, np.ndarray):
        if column.dtype.kind == "f":
            column = column.astype(np.float64, copy=False)
        elif column.dtype.kind in "iu" and np.can_cast(column.dtype, np.int64):
            column = column.astype(np.int64, copy=False)
        else:
            column = column.tolist()  # bool, uint64, ...: str of the Python value
    if isinstance(column, np.ndarray):
        for start in range(0, len(column), CHUNK_ROWS):
            yield column[start:start + CHUNK_ROWS]
        return
    values = iter(column)
    while piece := list(itertools.islice(values, CHUNK_ROWS)):
        yield piece


def _fits_int64(r):
    return not r or -(2**63) <= min(r[0], r[-1]) and max(r[0], r[-1]) < 2**63


def _row_bytes(pieces, encoding):
    """The bytes of the rows of one chunk, its columns given as ``pieces``."""
    rows = len(pieces[0])
    cells, keep = [], []
    for piece in pieces:
        if isinstance(piece, np.ndarray):
            c, k = (float_cells if piece.dtype.kind == "f" else int_cells)(piece)
        else:
            c, k = text_cells(piece, encoding)
        cells += [c, _SEPARATOR]
        keep += [k, _KEEP]
    cells[-1] = _NEWLINE
    cells = np.concatenate([np.broadcast_to(c, (rows, c.shape[1])) for c in cells], axis=1)
    keep = np.concatenate([np.broadcast_to(k, (rows, k.shape[1])) for k in keep], axis=1)
    return cells[keep]


def _digits(groups):
    """ASCII digits of ``groups`` (each below 10**4), four per group."""
    return _DIGITS4[np.stack(groups, axis=1)].view(np.uint8)


def _groups16(rest):
    """Four-digit groups of uint64 values below 10**16, most significant first."""
    high = (rest // 10**8).astype(np.uint32)
    low = (rest % 10**8).astype(np.uint32)
    return [high // 10_000, high % 10_000, low // 10_000, low % 10_000]


def _scaled(m, e, x):
    """``M 2**E * 10**(16 - x)`` truncated, and whether it rounds up (half-even).

    The product ``M 5**p`` takes 32-bit limbs: each partial product fits
    in 64 bits, and ``p <= 27`` keeps the whole below 2**116.
    """
    p = 16 - x
    f = _POW5[p]
    m_hi, m_lo = m >> np.uint64(32), m & _LOW32
    f_hi, f_lo = f >> np.uint64(32), f & _LOW32
    low = m_lo * f_lo
    mid = m_hi * f_lo + m_lo * f_hi  # < 2**53 + 2**63
    lo = low + (mid << np.uint64(32))
    hi = m_hi * f_hi + (mid >> np.uint64(32)) + (lo < low)
    shift = -(e + p)  # at most 60 for |v| >= 1e-10
    right = shift > 0
    rs = np.clip(shift, 1, 63).astype(np.uint64)
    ls = np.clip(-shift, 0, 63).astype(np.uint64)  # hi is 0 here
    q = np.where(right, (lo >> rs) | (hi << (np.uint64(64) - rs)), lo << ls)
    rem = lo & ((_ONE << rs) - _ONE)
    half = _ONE << (rs - _ONE)
    up = right & ((rem > half) | ((rem == half) & (q & _ONE == _ONE)))
    return q, up


def float_cells(values):
    """``format(v, ".17g")`` of each float64 value: cells and keep-mask."""
    v = np.asarray(values, dtype=np.float64)
    magnitude = np.abs(v)
    exact = (magnitude >= 1e-10) & (magnitude < 1e16)
    w = np.where(exact, v, 1.0)
    bits = w.view(np.uint64)
    m = (bits & np.uint64(2**52 - 1)) | np.uint64(2**52)
    e = (bits >> np.uint64(52) & np.uint64(0x7FF)).astype(np.int64) - 1075
    x = np.floor(np.log10(np.abs(w))).astype(np.int64)  # may be one off
    q, up = _scaled(m, e, x)
    wrong = (q < 10**16) | (q >= 10**17)
    if wrong.any():
        x[wrong] += np.where(q[wrong] < 10**16, -1, 1)
        q[wrong], up[wrong] = _scaled(m[wrong], e[wrong], x[wrong])
    d = q + up
    carry = d == 10**17  # 99999999999999999.5 and the like round to 10**17
    d[carry] = 10**16
    x += carry

    # the digits at 1 ... 17 of a row; the point's slot shifts the rest by one
    lead = d // 10**16
    digits = np.empty((v.size, 19), np.uint8)
    digits[:, 1] = lead + ord("0")
    digits[:, 2:18] = _digits(_groups16(d - lead * 10**16))
    point = _POINT_SLOT[x - _MIN_EXP]
    cells = np.empty((v.size, _FLOAT_WIDTH), np.uint8)
    cells[:] = _FLOAT_TEMPLATE
    slots = cells[:, _DIGITS_AT:_DIGITS_AT + 18]
    slots[:] = digits[:, :-1]
    np.copyto(slots, digits[:, 1:], where=np.arange(18, dtype=np.uint8) < point[:, None])
    slots[np.arange(v.size), point] = ord(".")
    exponent = np.abs(x)
    cells[:, -2] = exponent // 10 + ord("0")
    cells[:, -1] = exponent % 10 + ord("0")
    trailing = (digits[:, 17:0:-1] != ord("0")).argmax(axis=1)
    keep = _FLOAT_MASKS[((x - _MIN_EXP) * 2 + (w < 0)) * 17 + trailing]

    others = np.flatnonzero(~exact)
    for i, value in zip(others, v[others].tolist()):
        text = np.frombuffer(format(value, ".17g").encode(), np.uint8)
        cells[i, :text.size] = text
        keep[i] = np.arange(_FLOAT_WIDTH) < text.size
    return cells, keep


def int_cells(values):
    """``str(i)`` of each int64 value: cells and keep-mask."""
    v = np.asarray(values, dtype=np.int64)
    negative = v < 0
    magnitude = v.view(np.uint64)
    # negated in uint64: np.abs would overflow at -2**63
    magnitude = np.where(negative, -magnitude, magnitude)
    top = magnitude // 10**16  # below 1845
    n_digits = np.searchsorted(_POW10, magnitude, side="right") + 1
    # 20 digits, zero-padded, with the "-" in place of a negative's last pad
    cells = np.empty((v.size, 21), np.uint8)
    cells[:, 1:] = _digits([top.astype(np.uint32), *_groups16(magnitude - top * 10**16)])
    rows = np.flatnonzero(negative)
    cells[rows, 20 - n_digits[rows]] = ord("-")
    length = n_digits + negative
    width = length.max()  # the longest cell of the chunk
    return cells[:, 21 - width:], np.arange(width) >= width - length[:, None]


def text_cells(values, encoding):
    """``str(v)`` of each value, encoded: cells and keep-mask."""
    first = values[0]
    if type(first) is str and values.count(first) == len(values):  # one label
        text = np.frombuffer(first.encode(encoding), np.uint8)[None]
        return text, np.ones(text.shape, bool)
    encoded = [str(value).encode(encoding) for value in values]
    cells = np.array(encoded, dtype=bytes)  # NUL-padded to the longest
    lengths = np.fromiter(map(len, encoded), np.intp, len(encoded))
    width = cells.dtype.itemsize
    return (cells.view(np.uint8).reshape(-1, width),
            np.arange(width) < lengths[:, None])
