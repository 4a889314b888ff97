"""The exact text CPython prints for float64 values, for whole arrays at once.

``join_floats`` writes a text made of given pieces and of the values of
float64 arrays, each value byte for byte as ``float.__repr__`` (shortest
round-trip digits) or ``'%.17g' %`` (17 correctly rounded digits) prints it,
without a Python call per value.  The arrays' fixed cost, about 0.3 ms a
batch, and the tables they need, about 2-3 ms a style on first use, are
repaid only by enough values: a batch takes the reference calls when it has
at most ``BULK_MIN`` values, or while no more than ``WARMUP`` values have
been asked for in its style since the process began (so a process that
prints one small output never builds the tables).

Shortest digits come from Schubfach (R. Giulietti, "The Schubfach way to
render doubles", 2020; the algorithm of JDK 19's ``Double.toString``): the
double ``c 2^q`` is scaled by a 126-bit power of ten ``g ~ 10^-k`` (617 of
them, k = -324..292; the 17-digit scaling also needs k = -341..323) and the
decimals of the rounding interval are read off three round-to-odd products.  The ``'%.17g'`` digits come from the same kind
of product, scaled so that the value has 18 integer digits, and are rounded
half-even to 17 from its low bits.  The 64 x 64 -> 128-bit products are split
into 32-bit halves on uint64 arrays; all wrapping arithmetic stays on arrays.
The tables (powers of ten per binary exponent, digit quads, text layouts)
are built on first use, not at import.

Three kinds of value take the reference call instead, one at a time:
non-finite values; subnormals whose mantissa is below 2^10 (Schubfach's
two-digit minimum would print ``7.9e-323`` where CPython prints ``8e-323``);
and ``'%.17g'`` values whose 63 low product bits are all zero, where the
product cannot tell an exact decimal such as 0.5 (a possible half-way case)
from its neighbours (the bound in ``_g17_digits`` shows that all ones, the
other edge, cannot hide one).  Zeros stay on the vectorized path.

Digits become text in chunks of at most ``CHUNK`` values: 17 digit characters
and the exponent from a 10^4 x 4 ASCII table, then one gather from a layout
precomputed per sign, decimal-point position and digit count, following
CPython's ``format_float_short``: ``repr`` switches to an exponent when
``decpt <= -4`` or ``decpt > 16`` and appends ``.0`` to integers, ``'%.17g'``
switches when ``decpt <= -4`` or ``decpt > 17`` and appends nothing, and
exponents keep at least two digits.
"""

from __future__ import annotations

import functools

import numpy as np

CHUNK = 8192
BULK_MIN = 512  # a batch of at most this many values takes the reference calls
WARMUP = 10_000  # and so do all batches of a style until it has asked for more
_asked = {True: 0, False: 0}  # values asked for per style (shortest or not)
WIDTH = 24  # the longest text, "-2.2250738585072014e-308"

_M32 = np.uint64(0xFFFFFFFF)
_M63 = np.uint64(2**63 - 1)
_MIN_MANTISSA = 1 << 10  # smaller subnormal mantissas take the reference call

# Columns of a value's source row: 17 digits (after the three leading zeros of
# the first quad), four characters of |exponent|, constants, and up to WIDTH
# characters of a reference text.
_DIG, _EXP = 3, 20
_MINUS, _DOT, _ZERO, _E, _PLUS, _NUL = range(24, 30)
_TEXT = 32
_ROW = _TEXT + WIDTH
_CONSTANTS = b"-.0e+\0"

# Layout keys: (form, sign, digit count) with forms 0..20 fixed point at
# decpt = form - 3, and 21..24 an exponent (negative?, three digits?); then
# one key per length of a reference text.
_FORMS, _DIGITS = 25, 18
_TEXT_KEY = _FORMS * 2 * _DIGITS
_KEYS = _TEXT_KEY + WIDTH + 1


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------


def _flog10pow2(e):
    """floor(log10(2^e)) for |e| <= 5456721 (Giulietti's MathUtils), e an
    int or an int64 array."""
    return (e * 661_971_961_083) >> 41


def _flog10_three_quarters_pow2(e):
    """floor(log10(3/4 2^e)) for |e| <= 5456721."""
    return (e * 661_971_961_083 - 274_743_187_321) >> 41


_K_MIN, _K_MAX = -341, 323  # every power of ten the tables use


@functools.cache
def _powers():
    """At index k - _K_MIN for k = _K_MIN.._K_MAX: F = floor(log2(10^-k))
    (int64), and the words of g = floor(10^-k 2^(125 - F)) + 1, so that
    2^125 < g <= 2^126: g1 and the 32-bit halves of g1 and of g0, where
    g = g1 2^63 + g0 (uint64, one row of the (5, n) array per word)."""
    fs, gs = [], []
    p = 10**-_K_MIN
    for _ in range(_K_MIN, 1):  # 10^-k = p
        f = p.bit_length() - 1
        fs.append(f)
        gs.append((p << 125 - f if f <= 125 else p >> f - 125) + 1)
        p //= 10
    p = 1
    for _ in range(_K_MAX):  # 10^-k = 1 / p
        p *= 10
        fs.append(-p.bit_length())
        gs.append((1 << 125 + p.bit_length()) // p + 1)
    g1 = np.array([g >> 63 for g in gs], dtype=np.uint64)
    g0 = np.array([g & 2**63 - 1 for g in gs], dtype=np.uint64)
    words = np.stack([g1, g1 & _M32, g1 >> 32, g0 & _M32, g0 >> 32])
    return np.array(fs, dtype=np.int64), words


def _scaling(q, k):
    """For int64 arrays of binary exponents q and decimal exponents k: the
    shift h = q + F + 2 and the words of g(k), with which (c 2^h) g 2^-127
    is c 2^q / 10^k (see _product)."""
    f, words = _powers()
    return (q + f[k - _K_MIN] + 2).astype(np.uint64), words[:, k - _K_MIN]


@functools.cache
def _shortest_table():
    """Per biased exponent, plus 2048 for the irregular spacing below a power
    of two: Schubfach's k (int64), its shift h and the words of g(k)."""
    q = np.maximum(np.arange(2048), 1) - 1075
    k = np.concatenate([_flog10pow2(q), _flog10_three_quarters_pow2(q)])
    return (k,) + _scaling(np.concatenate([q, q]), k)


_Q17 = 1128  # offset of the normalized binary exponent in the 17-digit table


@functools.cache
def _g17_table():
    """Per normalized binary exponent q of v = c 2^q (2^52 <= c < 2^53): the
    least c with floor(log10 v) one above its lower bound e; and at row
    2 (q + _Q17) + (0 or 1), for the two values e10 = e, e + 1 of
    floor(log10 v): e10 (int64), the shift and the words of g(e10 - 17),
    which scale v to 18 integer digits."""
    q = np.arange(-_Q17, 973)
    e = _flog10pow2(q + 52)
    # the least c is ceil(10^(e + 1) / 2^q) = ceil(X / 2^s) for X = 10^(e + 1)
    # 2^(125 - F) and s = 125 - F + q in 70..73, where floor(X) = g - 1 for
    # g = g(-(e + 1)); the quotient is whole only if 2^q divides 10^(e + 1)
    f, words = _powers()
    i = -(e + 1) - _K_MIN
    g1, g0 = words[0, i], words[3, i] | words[4, i]
    floor = (g1 - (g0 == 0)) >> (125 - f[i] + q - 63).astype(np.uint64)
    exact = (e + 1 >= 0) & (q <= e + 1)
    bound = np.minimum(floor + ~exact, 2**53)
    e10 = np.stack([e, e + 1], axis=1).ravel()
    return (bound, e10) + _scaling(np.repeat(q, 2), e10 - 17)


@functools.cache
def _quads():
    """The 10^4 x 4 ASCII digit table as uint32 words, and trailing-zero
    counts of each quad (4 for 0000)."""
    digits = np.stack(np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1), axis=1)
    zero = (digits == 0).astype(np.intp)
    trailing = zero[:, 3] * (1 + zero[:, 2] * (1 + zero[:, 1] * (1 + zero[:, 0])))
    return (digits + ord("0")).view(np.uint32).ravel(), trailing


def _text_columns(form: int, n: int, shortest: bool) -> list[int]:
    """The source columns of the text of a nonnegative value's layout
    (format_float_short)."""
    digits = list(range(_DIG, _DIG + n))
    if form < 21:
        decpt = form - 3
        if decpt <= 0:
            return [_ZERO, _DOT] + [_ZERO] * -decpt + digits
        if decpt < n:
            return digits[:decpt] + [_DOT] + digits[decpt:]
        return digits + [_ZERO] * (decpt - n) + ([_DOT, _ZERO] if shortest else [])
    exp_neg, three = divmod(form - 21, 2)
    cols = digits[:1] + ([_DOT] + digits[1:] if n > 1 else [])
    return cols + [_E, _MINUS if exp_neg else _PLUS] + list(range(_EXP + 2 - three, _EXP + 4))


@functools.cache
def _layouts(shortest: bool):
    """Per layout key, the source columns of each output character (padded
    with the NUL column) and the text length."""
    rows = [b""] * _KEYS  # every column is below 256: one byte each
    for form in range(_FORMS):
        for n in range(1, _DIGITS):
            cols = bytes(_text_columns(form, n, shortest))
            rows[form * 2 * _DIGITS + n] = cols
            rows[(form * 2 + 1) * _DIGITS + n] = bytes([_MINUS]) + cols
    for length in range(1, WIDTH + 1):
        rows[_TEXT_KEY + length] = bytes(range(_TEXT, _TEXT + length))
    lens = np.array(list(map(len, rows)), dtype=np.int64)
    lay = b"".join(row.ljust(WIDTH, bytes([_NUL])) for row in rows)
    return np.frombuffer(lay, dtype=np.uint8).reshape(_KEYS, WIDTH).astype(np.intp), lens


# ---------------------------------------------------------------------------
# digits
# ---------------------------------------------------------------------------


def _product(cp, g):
    """cp g 2^-127 for g = g1 2^63 + g0 given by its words (see _powers):
    (integer part, 63 fraction bits), the fraction truncated (Giulietti's
    rop before its sticky bit)."""
    g1, g1l, g1h, g0l, g0h = g
    c0, c1 = cp & _M32, cp >> 32

    def high(gl, gh):  # the high 64 bits of g cp, summed in place (mod 2^64)
        mid, m1, m2, hi = gl * c0, gl * c1, gh * c0, gh * c1
        mid >>= 32
        mid += m1 & _M32
        mid += m2 & _M32
        mid >>= 32
        m1 >>= 32
        m2 >>= 32
        hi += m1
        hi += m2
        hi += mid
        return hi

    z = g1 * cp  # wraps to its low 64 bits
    z >>= 1
    z += high(g0l, g0h)
    whole = high(g1l, g1h)
    whole += z >> 63
    z &= _M63
    return whole, z


def _shortest_digits(be, t):
    """Schubfach: the shortest decimal D 10^k in the rounding interval of
    each double c 2^q, the closest one (ties to even D) if several."""
    k_tab, h_tab, g_tab = _shortest_table()
    c = t | ((be != 0).astype(np.uint64) << 52)
    irregular = (t == 0) & (be > 1)
    row = be.astype(np.intp) | (irregular.astype(np.intp) << 11)
    odd = c & 1
    cb = c << 2
    # the value and the two ends of its rounding interval, round to odd
    ends = np.stack([cb, cb - 2 + irregular, cb + 2]) << h_tab[row]
    whole, frac = _product(ends, np.take(g_tab, row, axis=1))
    vb, vbl, vbr = whole | ((frac + _M63) >> 63)
    s = vb >> 2
    sp10 = s // 10 * 10
    upin = vbl + odd <= sp10 << 2
    wpin = ((sp10 + 10) << 2) + odd <= vbr
    shorter = upin != wpin  # Schubfach also asks s >= 100; here s >= 5058
    uin = vbl + odd <= s << 2
    win = ((s + 1) << 2) + odd <= vbr
    mid = (s << 2) + 2  # 2 (s + t) for t = s + 1
    up = np.where(uin != win, win, (vb > mid) | ((vb == mid) & (s & 1 == 1)))
    d = np.where(shorter, sp10 + (wpin.astype(np.uint64) * 10), s + up)
    nd = np.searchsorted(_POW10, d, side="right")
    return d * _POW10[17 - nd], k_tab[row] + nd


_POW10 = np.array([10**i for i in range(18)], dtype=np.uint64)


def _g17_digits(be, t):
    """'%.17g': the 17 correctly rounded digits D and decpt of each value, and
    where the product cannot decide (an exact decimal may be half-way)."""
    bound, e_tab, h_tab, g_tab = _g17_table()
    # a subnormal mantissa shifted up to 53 bits, with its exponent
    sub = be == 0
    log2 = (t.astype(np.float64).view(np.uint64) >> 52).astype(np.intp) - 1023
    shift = np.where(sub & (t != 0), 52 - log2, 0)
    c = np.where(sub, t << shift.astype(np.uint64), t | (1 << 52))
    p = np.where(sub, -1074 - shift, be.astype(np.intp) - 1075) + _Q17
    row = 2 * p + (c >= bound[p])
    whole, frac = _product(c << h_tab[row], np.take(g_tab, row, axis=1))  # v / 10^(e10 - 17)
    y = whole // 10
    y += whole - y * 10 >= 5
    carry = y == 10**17
    y[carry] = 10**16
    # whole 2^63 + frac is 2^63 v / 10^(e10 - 17) plus less than cp 2^-64 < 1
    # (g is rounded up) and less up to 1 - 2^-64 (the dropped bits; the shift
    # h >= 1 makes the low bit of g1 cp zero).  So frac > 0 proves that whole
    # is the integer part and the fraction is not zero: v is not half-way.
    return y, e_tab[row] + 1 + carry, frac == 0


# ---------------------------------------------------------------------------
# text
# ---------------------------------------------------------------------------


def join_floats(pieces, values, lengths, seps, shortest: bool, ref=None) -> str:
    """The text ``pieces[0] + T(s_0) + pieces[1] + ... + T(s_k-1) + pieces[k]``,
    where the 1-D float64 array ``values`` is cut into consecutive segments
    s_j of ``lengths[j]`` values and ``T(s)`` is the text of s's values, each
    followed by a separator from the matching ``seps`` triple: (after an even
    position, after an odd position, after the last value).

    A value's text is ``float.__repr__(x)`` when ``shortest``, else
    ``'%.17g' % x``: the reference call.  ``ref``, which may spell non-finite
    values differently but must agree with the reference call on finite ones,
    gives the text of the values that take the reference call (see the module
    docstring) and of every value of a batch that takes the reference calls
    (at most ``BULK_MIN`` values, or no more than ``WARMUP`` asked for in its
    style so far).

    Every value's separator and every segment's end are worked out for the
    whole batch at once; a chunk's text and the pieces that fall in it go out
    in one copy.  The text is written into one buffer sized for the longest
    possible text, whose pages are touched only as far as the text goes;
    nothing else holds more than a chunk of it."""
    reference = float.__repr__ if shortest else "%.17g".__mod__
    ref = ref or reference
    total = values.size
    _asked[shortest] += total
    if total <= BULK_MIN or _asked[shortest] <= WARMUP:
        # one % operation; '%r' is float.__repr__, and ref differs from the
        # reference call on non-finite values only
        spec, texts = ("%r" if shortest else "%.17g"), values.tolist()
        if ref is not reference and not np.isfinite(values).all():
            spec, texts = "%s", list(map(ref, texts))
        form = [pieces[0].replace("%", "%%")]
        for m, triple, piece in zip(np.asarray(lengths).tolist(), seps, pieces[1:]):
            even, odd, last = (sep.replace("%", "%%") for sep in triple)
            values_form = (spec + even + spec + odd) * (m // 2) + (spec + even) * (m % 2)
            form += [values_form[: len(values_form) - len(even if m % 2 else odd)] + last if m else ""]
            form += [piece.replace("%", "%%")]
        return "".join(form) % tuple(texts)
    lengths = np.asarray(lengths, dtype=np.intp)
    ends = np.cumsum(lengths)
    # separator rows (even, odd, odd, even) per distinct triple, then each
    # triple's last: a value's row is 4 t + 2 (parity of its segment's
    # start) + (parity of its index), or 4 T + t for a segment's last value
    numbers = {t: i for i, t in enumerate(dict.fromkeys(seps))}
    triple = np.fromiter(map(numbers.__getitem__, seps), dtype=np.intp, count=len(seps))
    sep_texts = [s.encode("ascii") for e, o, _ in numbers for s in (e, o, o, e)]
    sep_texts += [last.encode("ascii") for *_, last in numbers]
    sep_rows = np.zeros((len(sep_texts), max(map(len, sep_texts)) or 1), dtype=np.uint8)
    for i, sep in enumerate(sep_texts):
        sep_rows[i, : len(sep)] = np.frombuffer(sep, dtype=np.uint8)
    sep_lens = np.array(list(map(len, sep_texts)), dtype=np.intp)
    rows_of = (4 * triple + 2 * ((ends - lengths) & 1)).astype(np.min_scalar_type(5 * len(numbers)))
    sep = np.repeat(rows_of, lengths)
    sep[1::2] += 1
    filled = lengths > 0
    sep[ends[filled] - 1] = 4 * len(numbers) + triple[filled]
    # piece j + 1 is text_of_pieces[piece_ends[j]:piece_ends[j + 1]]
    text_of_pieces = np.frombuffer("".join(pieces).encode("ascii"), dtype=np.uint8)
    piece_ends = np.cumsum(np.fromiter(map(len, pieces), dtype=np.intp, count=len(pieces))).tolist()
    piece_parts = list(map(text_of_pieces.__getitem__, map(slice, piece_ends, piece_ends[1:])))

    lay, lens = _layouts(shortest)
    rows = min(total, CHUNK)
    src = np.empty((rows, _ROW), dtype=np.uint8)
    src[:, _MINUS : _MINUS + len(_CONSTANTS)] = np.frombuffer(_CONSTANTS, dtype=np.uint8)
    row_base = np.arange(rows, dtype=np.intp)[:, None] * _ROW
    index = np.empty((rows, WIDTH), dtype=np.intp)
    text = np.empty((rows, WIDTH + sep_rows.shape[1]), dtype=np.uint8)
    keep = np.empty(text.shape, dtype=bool)
    value_ends = np.zeros(rows + 1, dtype=np.intp)

    out = np.empty(piece_ends[-1] + total * text.shape[1], dtype=np.uint8)
    out[: piece_ends[0]] = text_of_pieces[: piece_ends[0]]
    pos, seg = piece_ends[0], 0
    for lo in range(0, total, CHUNK):
        hi = min(lo + CHUNK, total)
        m = hi - lo
        key = _chunk_keys(values[lo:hi], src[:m], shortest, ref)
        # mode="clip" lets take write straight into out (no index is clipped)
        np.take(lay, key, axis=0, out=index[:m], mode="clip")
        np.add(index[:m], row_base[:m], out=index[:m])
        np.take(src, index[:m], out=text[:m, :WIDTH], mode="clip")
        np.take(sep_rows, sep[lo:hi], axis=0, out=text[:m, WIDTH:], mode="clip")
        np.not_equal(text[:m], 0, out=keep[:m])
        chunk = text[:m][keep[:m]]
        # the segments that end in this chunk, each followed by its piece
        done = int(np.searchsorted(ends, hi, side="right"))
        np.cumsum(lens[key] + sep_lens[sep[lo:hi]], out=value_ends[1 : m + 1])
        cuts = value_ends[ends[seg:done] - lo].tolist()
        parts = [None] * (2 * (done - seg) + 1)
        parts[::2] = map(chunk.__getitem__, map(slice, [0] + cuts, cuts + [chunk.size]))
        parts[1::2] = piece_parts[seg:done]
        size = chunk.size + piece_ends[done] - piece_ends[seg]
        np.concatenate(parts, out=out[pos : pos + size])
        pos, seg = pos + size, done
    return str(memoryview(out)[:pos], "ascii")


def _chunk_keys(x, src, shortest: bool, ref) -> np.ndarray:
    """Fill the source rows of a chunk of values; return their layout keys."""
    words, quad_tz = _quads()
    bits = x.view(np.uint64)
    be = (bits >> 52) & 0x7FF
    t = bits & (2**52 - 1)
    zero = (be == 0) & (t == 0)
    refer = (be == 0x7FF) | ((be == 0) & (t < _MIN_MANTISSA) & ~zero)
    if shortest:
        digits, decpt = _shortest_digits(be, t)
    else:
        digits, decpt, undecided = _g17_digits(be, t)
        refer |= undecided & ~zero
    digits[zero] = 0
    decpt[zero] = 1
    a = digits // 10**16
    rest = digits - a * 10**16
    b = rest // 10**8
    c = rest - b * 10**8
    bh = b // 10_000
    bl = b - bh * 10_000
    ch = c // 10_000
    cl = c - ch * 10_000
    src32 = src.view(np.uint32)
    exp = decpt - 1
    # only a value that takes the reference call can have a quad out of range
    for col, quad in enumerate((a, bh, bl, ch, cl, np.abs(exp))):
        np.take(words, quad, out=src32[:, col], mode="clip")
    tz = quad_tz[bh]
    for quad in (bl, ch, cl):
        tz = np.where(quad == 0, tz + 4, quad_tz[quad])
    limit = 16 if shortest else 17
    form = np.where(
        (decpt <= -4) | (decpt > limit), 21 + 2 * (exp < 0) + (np.abs(exp) >= 100), decpt + 3
    )
    key = (form * 2 + (bits >> 63).astype(np.intp)) * _DIGITS + (17 - tz)
    for i in np.flatnonzero(refer):
        ref_text = ref(float(x[i])).encode("ascii")
        src[i, _TEXT : _TEXT + len(ref_text)] = np.frombuffer(ref_text, dtype=np.uint8)
        key[i] = _TEXT_KEY + len(ref_text)
    return key
