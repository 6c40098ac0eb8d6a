"""Exact decimal text of float64 arrays, as the bytes Python's format() gives.

scientific(v) is format(x, ".12e") and fixed(v, d) is format(x, f".{d}f")
for every x of v, as a (..., width) uint8 array of ASCII padded with zero
bytes; csv_rows joins such fields into CSV text without the padding.

The digits come from numpy arithmetic (Adams, "Ryu: fast float-to-string
conversion", PLDI 2018, makes the same split into a fast path and a rare
slow one). The digit count sets a target integer q = x * 10^k, and
q_hat = x * P[k] rounds twice: once in P[k], the correctly rounded 10^k,
and once in the product. So |q_hat - q| <= q * 2.3e-16 < 0.0023 while
q < 1e13, and round(q_hat) is round(q) unless q_hat lies within 0.0023 of
a .5. Python's format() formats instead each value whose q_hat lies within
0.005 of a .5 or of the ends of the range the digits cover ([1e12, 1e13)
for .12e, below 1e13 for fixed), each .12e value with a three-digit
exponent or equal to zero, and each negative or non-finite value.
"""

import numpy as np

# P[k - POW_MIN] is 10^k correctly rounded; float("1e{k}") is, 10.0 ** k
# need not be
POW_MIN, POW_MAX = -90, 112
POWERS = np.array([float(f"1e{k}") for k in range(POW_MIN, POW_MAX + 1)])
# entry i holds the four ASCII digits of i, as one 4-byte word
DIGITS4 = (np.arange(10000)[:, np.newaxis] // [1000, 100, 10, 1] % 10
           + ord("0")).astype(np.uint8).view(np.uint32).ravel()
# "0." to "9.", and "e-99" to "e+99", as words
LEADS = np.frombuffer("".join(f"{i}." for i in range(10)).encode(),
                      dtype=np.uint16)
EXPONENTS = np.frombuffer("".join(f"e{e:+03d}" for e in range(-99, 100))
                          .encode(), dtype=np.uint32)
# the 18 bytes of a .12e text: "d.", 12 digits, "e+xx"
SCIENTIFIC = np.dtype({"names": ["lead", "digits", "exponent"],
                       "formats": ["u2", ("u4", 3), "u4"],
                       "offsets": [0, 2, 14], "itemsize": 18})
DIGITS_BELOW = 1e13         # digits are exact while q < 1e13
TIE_MARGIN = 0.005          # > 0.0023, the most q_hat can miss q by


def _digit_words(r, count):
    """(n, count) words of the 4 * count zero-padded ASCII digits of
    non-negative int64 r < 10^(4 * count)."""
    groups = np.empty((len(r), count), dtype=np.int64)
    for col in reversed(range(count)):
        high = r // 10000       # several times faster than np.divmod
        groups[:, col] = r - high * 10000
        r = high
    return DIGITS4.take(groups)


def _power(k):
    return POWERS[np.clip(k, POW_MIN, POW_MAX) - POW_MIN]


def _near_tie(q_hat):
    return np.abs(q_hat - np.floor(q_hat) - 0.5) <= TIE_MARGIN


def _with_fallback(out, values, fallback, spec):
    """out, with the rows where fallback is set replaced by format(x, spec)
    (one join for all of them), widened if a text needs it."""
    rows = np.flatnonzero(fallback)
    if len(rows) == 0:
        return out
    texts = [format(x, spec) for x in values[rows].tolist()]
    width = max(out.shape[1], max(map(len, texts)))
    if width > out.shape[1]:
        out = np.pad(out, ((0, 0), (0, width - out.shape[1])))
    out[rows] = np.frombuffer(
        "".join(t.ljust(width, "\0") for t in texts).encode("ascii"),
        dtype=np.uint8).reshape(-1, width)
    return out


def scientific(values):
    """format(x, ".12e") of every value, as (*values.shape, width) bytes."""
    values = np.asarray(values, dtype=np.float64)
    v = values.ravel()
    ok = (v > 0) & (v < np.inf)
    v_ok = np.where(ok, v, 1.0)
    e = np.floor(np.log10(v_ok)).astype(np.int64)
    # log10 may put e one off near a power of ten: move it once either way
    q_hat = v_ok * _power(12 - e)
    e += (q_hat >= 1e13).astype(np.int64) - (q_hat < 1e12)
    q_hat = v_ok * _power(12 - e)
    fallback = (~ok | _near_tie(q_hat) | (q_hat < 1e12 + TIE_MARGIN)
                | (q_hat >= 1e13 - TIE_MARGIN))
    r = np.rint(np.where(fallback, 1e12, q_hat)).astype(np.int64)
    carry = r == 10 ** 13
    r[carry] = 10 ** 12
    e += carry
    fallback |= np.abs(e) >= 100
    lead = r // 10 ** 12
    out = np.empty(len(v), dtype=SCIENTIFIC)
    out["lead"] = LEADS[lead]
    out["digits"] = _digit_words(r - lead * 10 ** 12, 3)
    out["exponent"] = EXPONENTS[np.clip(e, -99, 99) + 99]
    out = out.view(np.uint8).reshape(len(v), SCIENTIFIC.itemsize)
    out = _with_fallback(out, v, fallback, ".12e")
    return out.reshape(values.shape + out.shape[-1:])


def fixed(values, decimals):
    """format(x, f".{decimals}f") of every value, 0 <= decimals <= 12, as
    (*values.shape, width) bytes."""
    values = np.asarray(values, dtype=np.float64)
    v = values.ravel()
    scale = POWERS[decimals - POW_MIN]
    ok = ~np.signbit(v) & (v < DIGITS_BELOW / scale)
    q_hat = np.where(ok, v, 0.0) * scale
    fallback = ~ok | _near_tie(q_hat)
    digits = _digit_words(np.rint(q_hat).astype(np.int64), 4).view(np.uint8)
    whole = digits[:, :16 - decimals]
    # zeros ahead of the integer part's first digit become padding
    shown = np.logical_or.accumulate(whole != ord("0"), axis=1)
    shown[:, -1] = True
    whole[~shown] = 0
    if decimals:
        digits = np.insert(digits, 16 - decimals, ord("."), axis=1)
    # columns that pad every row are dropped
    digits = digits[:, np.argmax(shown.any(axis=0)):]
    out = _with_fallback(digits, v, fallback, f".{decimals}f")
    return out.reshape(values.shape + out.shape[-1:])


def csv_rows(*fields):
    """CSV text of rows of numeric fields, "\r\n" line ends.

    Each field is a (..., width) byte array from scientific or fixed; their
    leading axes broadcast together, and the rows are those of the
    broadcast shape in C order.
    """
    shape = np.broadcast_shapes(*(field.shape[:-1] for field in fields))
    widths = [field.shape[-1] for field in fields]
    ends = np.cumsum([w + 1 for w in widths])      # each field and its ","
    row = np.dtype({"names": [f"f{i}" for i in range(len(fields))],
                    "formats": [f"V{w}" for w in widths],
                    "offsets": (ends - widths - 1).tolist(),
                    "itemsize": int(ends[-1]) + 1})
    text = np.full(shape + (row.itemsize,), ord(","), dtype=np.uint8)
    text[..., -2:] = np.frombuffer(b"\r\n", dtype=np.uint8)
    rows = text.view(row)[..., 0]
    for name, field in zip(row.names, fields):
        # each field's bytes copied as one item per row
        rows[name] = np.ascontiguousarray(field).view(row[name])[..., 0]
    return text.tobytes().replace(b"\0", b"").decode("ascii")
