"""Bulk float text: byte for byte ``float.__repr__`` and ``'%.17g' %``."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opa import textfmt


def join_floats(pieces, segments, seps, shortest, ref=None):
    """textfmt.join_floats with the values given segment by segment."""
    values = np.concatenate(segments) if segments else np.zeros(0)
    return textfmt.join_floats(pieces, values, [len(x) for x in segments], seps, shortest, ref)

NAMED = [
    0.0,
    -0.0,
    5e-324,
    1e-323,
    8e-323,
    2.2250738585072014e-308,
    1.7976931348623157e308,
    1e16,
    9999999999999998.0,
    1e17,
    1e-4,
    1e-5,
    0.1,
    1e22,
    1e23,
    2.0**60,
    math.inf,
    -math.inf,
    math.nan,
    # subnormals at the 2^10 mantissa edge, exact decimals, carries to 10^17
    1023 * 5e-324,
    1024 * 5e-324,
    -2**52 * 5e-324,
    0.5,
    -0.25,
    1.0,
    123456789012345680.0,
    0.30000000000000004,
    99999999999999999e-17,
    9.999999999999999e22,
    2.0**-1022 * 1.5,
]
STYLES = [(True, float.__repr__), (False, "%.17g".__mod__)]


@pytest.fixture(autouse=True)
def bulk_path(monkeypatch):
    """Send every batch through the arrays, however small."""
    monkeypatch.setattr(textfmt, "BULK_MIN", 0)
    monkeypatch.setattr(textfmt, "WARMUP", 0)


def texts(values, shortest):
    """The text of each value, through one batch."""
    x = np.asarray(values, dtype=np.float64)
    text = join_floats(["", ""], [x], [("\n", "\n", "")], shortest)
    return text.split("\n") if x.size else []


@pytest.mark.parametrize("shortest, reference", STYLES)
def test_named_values(shortest, reference):
    values = NAMED + [-v for v in NAMED]
    assert texts(values, shortest) == [reference(v) for v in values]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
def test_any_bit_pattern(patterns):
    values = np.array(patterns, dtype=np.uint64).view(np.float64)
    for shortest, reference in STYLES:
        assert texts(values, shortest) == [reference(v) for v in values.tolist()]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
def test_any_finite_float(values):
    for shortest, reference in STYLES:
        assert texts(values, shortest) == [reference(v) for v in values]


def test_exact_half_way_cases():
    # c 2^q whose exact decimal has 18 significant digits is half-way between
    # two 17-digit decimals: '%.17g' rounds it to even
    ties = []
    for q in range(-70, 0):
        for c in range(2**53 - 1, 2**53 - 4000, -2):
            if len(str(c * 5**-q)) == 18:
                ties.append(math.ldexp(c, q))
    for c in range(2**52 + 1, 2**52 + 4000, 2):
        for q in range(-70, 0):
            if len(str(c * 5**-q)) == 18:
                ties.append(math.ldexp(c, q))
    assert len(ties) > 1000
    values = ties + [-v for v in ties]
    assert texts(values, False) == ["%.17g" % v for v in values]
    assert texts(values, True) == [repr(v) for v in values]


def test_powers_of_two_and_ten():
    # every binary exponent at both ends of its mantissa range, and decimal
    # powers and their neighbours, where digit counts and exponents change
    bits = np.arange(1, 2047, dtype=np.uint64) << np.uint64(52)
    values = np.concatenate([bits, bits - np.uint64(1), bits + np.uint64(1)]).view(np.float64)
    tens = np.array([10.0**k for k in range(-323, 309)])
    values = np.concatenate([values, tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf)])
    for shortest, reference in STYLES:
        assert texts(values, shortest) == [reference(v) for v in values.tolist()]


def reference_join(pieces, segments, seps, reference):
    out = [pieces[0]]
    for segment, (even, odd, last), piece in zip(segments, seps, pieces[1:]):
        after = [odd if i % 2 else even for i in range(len(segment))]
        if after:
            after[-1] = last
        out += [reference(v) + s for v, s in zip(segment.tolist(), after)] + [piece]
    return "".join(out)


@pytest.mark.parametrize("size", sorted({4095, 4096, 4097, 8195, textfmt.CHUNK - 1, textfmt.CHUNK, textfmt.CHUNK + 1, 2 * textfmt.CHUNK + 3}))
def test_chunk_boundaries(size):
    # segments of odd and even lengths, empty ones too, straddle the chunk
    # edges, with separators of several lengths in one batch
    rng = np.random.default_rng(size)
    values = rng.standard_normal(size) * 10.0 ** rng.integers(-30, 30, size)
    cuts = np.sort(np.concatenate([rng.integers(0, size, 7), [0, 100, 100, textfmt.CHUNK, textfmt.CHUNK]]))
    segments = np.split(values, cuts)
    seps = [(",", ";\n  ", "]") if i % 2 else (", ", " | ", "") for i in range(len(segments))]
    pieces = [f"<{i}>" for i in range(len(segments) + 1)]
    for shortest, reference in STYLES:
        want = reference_join(pieces, segments, seps, reference)
        assert join_floats(pieces, segments, seps, shortest) == want


@pytest.mark.parametrize("bulk_min", [0, 100])
def test_empty_segments_and_reference_text(monkeypatch, bulk_min):
    monkeypatch.setattr(textfmt, "BULK_MIN", bulk_min)
    x = np.array([1.5, math.inf, 0.5])
    ref = lambda v: repr(v) if math.isfinite(v) else f"<{v!r}>"  # noqa: E731
    got = join_floats(["(", "|", "|", ")"], [x[:0], x, x[:0]], [("a", "b", "c")] * 3, True, ref=ref)
    assert got == "(|1.5a<inf>b0.5c|)"
    assert join_floats(["x"], [], [], False) == "x"
    assert join_floats(["", "y"], [x[:0]], [("", "", "")], False) == "y"


@pytest.mark.parametrize("shortest, reference", STYLES)
def test_small_batches_take_the_reference_calls(monkeypatch, shortest, reference):
    rng = np.random.default_rng(7)
    segments = np.split(rng.standard_normal(40) * 1e-3, [0, 5, 6, 20])
    seps = [(",", ";", "."), ("", "  ", "]"), (",", ";", "."), ("a%", "%%b", "%c"), (",", ";", ".")]
    pieces = list("ABCDE") + ["%F"]
    bulk = join_floats(pieces, segments, seps, shortest)
    monkeypatch.setattr(textfmt, "BULK_MIN", 40)
    assert join_floats(pieces, segments, seps, shortest) == bulk
    assert bulk == reference_join(pieces, segments, seps, reference)


def test_exponent_helpers_are_exact():
    # the tables rest on floor(log10(2^e)) and floor(log10(3/4 2^e)) from
    # fixed-point formulas; check them over every exponent they are used for
    for e in range(-1200, 1100):
        num, den = (2**e, 1) if e >= 0 else (1, 2**-e)
        assert textfmt._flog10pow2(e) == _floor_log10(num, den)
        assert textfmt._flog10_three_quarters_pow2(e) == _floor_log10(3 * num, 4 * den)


def test_product_shifts_keep_the_fallback_sound():
    # '%.17g' falls back only on 63 zero fraction bits; the bound behind that
    # needs every shift h in 1..11 (see _g17_digits)
    _, _, shift, *_ = textfmt._g17_table()
    assert 1 <= shift.min() and shift.max() <= 11


def test_tables_match_exact_integers():
    # the powers of ten and the '%.17g' digit-count bounds, against big-int
    # arithmetic row by row
    f, words = textfmt._powers()
    f = f.tolist()
    for i, k in enumerate(range(textfmt._K_MIN, textfmt._K_MAX + 1)):
        num, den = (10**-k, 1) if k <= 0 else (1, 10**k)
        a, b = (num, den << f[i]) if f[i] >= 0 else (num << -f[i], den)
        assert b <= a < 2 * b  # f = floor(log2(10^-k))
        g = (num << 125 - f[i]) // den + 1 if f[i] <= 125 else num // (den << f[i] - 125) + 1
        g1, g0 = g >> 63, g & 2**63 - 1
        assert words[:, i].tolist() == [g1, g1 & 2**32 - 1, g1 >> 32, g0 & 2**32 - 1, g0 >> 32]
    bound = textfmt._g17_table()[0].tolist()
    for i, q in enumerate(range(-textfmt._Q17, 973)):
        e = textfmt._flog10pow2(q + 52)
        num, den = (10 ** (e + 1), 1) if e >= -1 else (1, 10 ** -(e + 1))
        num, den = (num, den << q) if q >= 0 else (num << -q, den)
        assert bound[i] == min(-(-num // den), 2**53)  # the least c with c 2^q >= 10^(e + 1)


def _floor_log10(num: int, den: int) -> int:
    """floor(log10(num / den)) for positive integers, exactly."""

    def at_most(k):  # 10^k <= num / den
        return 10**k * den <= num if k >= 0 else den <= num * 10**-k

    k = len(str(num)) - len(str(den))
    while not at_most(k):
        k -= 1
    while at_most(k + 1):
        k += 1
    return k


def test_tables_are_built_on_first_use():
    # importing the CLI builds no table (that would add to every job's set-up
    # time), nor does a first output of at most WARMUP values; the batch that
    # takes a style past WARMUP builds that style's tables
    probe = (
        "import numpy as np, opa.cli, opa.textfmt as t\n"
        "def built(): print([f.cache_info().currsize for f in (t._shortest_table, t._g17_table, t._layouts)])\n"
        "built()\n"
        "x = np.linspace(0.1, 1, t.WARMUP // 2)\n"
        "t.join_floats(['', ''], x, [x.size], [(',', ',', '')], True)\n"
        "built()\n"
        "t.join_floats(['', '', ''], np.append(x, x[:2]), [x.size, 2], [(',', ',', '')] * 2, True)\n"
        "built()\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(textfmt.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env)
    assert done.stdout.split("\n") == ["[0, 0, 0]", "[0, 0, 0]", "[1, 0, 1]", ""]
