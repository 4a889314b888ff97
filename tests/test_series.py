"""Polynomial arithmetic and certified truncated series."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import closed_forms
from opa.errors import CannotCertifyError, EnvelopeOverflowError
from opa.projection import blaschke_projection
from opa.series import (
    CPoly,
    _covering_M,
    _significant_length,
    TruncSeries,
    blaschke_factor,
    blaschke_product,
    geometric_series,
    needed_length,
    poly_mul,
    power_tail_bound,
    reciprocal_taylor,
    series_mul,
    smallest_certified,
    taylor_truncate,
)


def test_poly_mul_telescoping():
    # (1 - z)(1 + z + z^2) = 1 - z^3
    prod = poly_mul(CPoly([1, -1]), CPoly([1, 1, 1]))
    assert np.allclose(prod.coeffs, [1, 0, 0, -1])


def test_poly_mul_expanded_quadratic():
    # (z - 1/2)(z - 2) = z^2 - (5/2) z + 1
    prod = poly_mul(CPoly([-0.5, 1]), CPoly([-2, 1]))
    assert np.allclose(prod.coeffs, [1, -2.5, 1])


def test_poly_mul_zero():
    assert poly_mul(CPoly([0]), CPoly([1, 1])).is_zero


def test_poly_mul_matches_pointwise_products():
    # exact convolution: evaluation at sample points equals the product of
    # evaluations, for random small-integer polynomials
    rng = np.random.RandomState(7)
    zs = np.exp(2j * np.pi * np.arange(10) / 10.0) * 0.9
    for _ in range(25):
        a = CPoly(rng.randint(-4, 5, size=rng.randint(1, 10)).astype(complex))
        b = CPoly(rng.randint(-4, 5, size=rng.randint(1, 10)).astype(complex))
        prod = poly_mul(a, b)
        for z in zs:
            assert abs(prod(z) - a(z) * b(z)) < 1e-12 * (1 + abs(a(z) * b(z)))


def test_degree_and_trailing_zero_trim():
    p = CPoly([1, 2, 0, 0])
    assert p.degree == 1
    assert CPoly([0, 0]).degree == -1
    # small trailing values survive construction, only normalize trims them
    q = CPoly([1, 1e-16])
    assert q.degree == 1
    assert q.normalize().degree == 0


def test_repr_round_trips_through_eval():
    assert repr(CPoly([0.5, -1j])) == "CPoly([(0.5+0j), (-0-1j)])"
    rng = np.random.RandomState(3)
    for p in (CPoly([0]), CPoly([2.0]), CPoly([1e-310, -1e300 + 0.1j, np.pi, -0.0])):
        for q in (p, CPoly(rng.randn(5) * 10.0 ** rng.randint(-20, 20, 5) + 1j * rng.randn(5))):
            assert np.array_equal(eval(repr(q), {"CPoly": CPoly}).coeffs, q.coeffs)


def test_monic_and_shift_and_derivative():
    p = CPoly([1, -2.5, 0.5])
    m = p.monic()
    assert m.coeffs[-1] == 1
    assert np.allclose((p.shift(2)).coeffs, [0, 0, 1, -2.5, 0.5])
    assert np.allclose(p.derivative().coeffs, [-2.5, 1.0])


def test_reciprocal_taylor_geometric():
    r = reciprocal_taylor(CPoly([1, -1]), 6)
    assert np.allclose(r.coeffs, np.ones(7))
    r2 = reciprocal_taylor(CPoly([2, 1]), 4)
    # 1/(2 + z) = 1/2 - z/4 + z^2/8 - ...
    assert np.allclose(r2.coeffs, [0.5, -0.25, 0.125, -0.0625, 0.03125])


def test_truncation_identity_for_geometric_inverse():
    # T_n(1/(1-z)) (1-z) - 1 = -z^(n+1)
    f = CPoly([1, -1])
    for n in range(6):
        tn = reciprocal_taylor(f, n)
        res = tn * f - CPoly([1])
        expected = np.zeros(n + 2, dtype=complex)
        expected[n + 1] = -1
        assert np.allclose(res.padded(n + 2), expected)


def test_taylor_truncate_prefix_and_constant():
    s = TruncSeries([1, 1, 1, 1], 0.0, 0.0)
    assert np.allclose(taylor_truncate(s, 2).coeffs, [1, 1, 1])
    assert np.allclose(taylor_truncate(s, 0).coeffs, [1])
    # a series with no tail is its polynomial: zeros past the prefix
    assert np.array_equal(taylor_truncate(s, 9).coeffs, [1, 1, 1, 1])
    assert s.coefficient(9) == 0j
    assert np.array_equal(taylor_truncate(TruncSeries([1, 0, 0], 0.0, 0.0), 2).coeffs, [1])
    # past a tail's prefix the coefficients are unknown
    tailed = TruncSeries([1, 1, 1, 1], 1.0, 0.5)
    assert np.array_equal(taylor_truncate(tailed, 3).coeffs, [1, 1, 1, 1])
    with pytest.raises(IndexError):
        taylor_truncate(tailed, 4)
    for h in (tailed, s, CPoly([1, 2])):
        with pytest.raises(IndexError):
            taylor_truncate(h, -1)
    with pytest.raises(IndexError):
        tailed.coefficient(4)


def test_geometric_series_inverse_pair():
    g = geometric_series(0.5, eps=1e-12)
    prod = series_mul(g, TruncSeries.from_poly(CPoly([1, -0.5])))
    expected = np.zeros(len(prod), dtype=complex)
    expected[0] = 1
    assert np.allclose(prod.coeffs, expected, atol=1e-15)


def test_blaschke_factor_coefficients():
    # (1/2 - z)/(1 - z/2): hand convolution gives 1/2, -3/4, -3/8, -3/16, ...
    b = blaschke_factor(0.5, eps=1e-12)
    assert np.allclose(b.coeffs[:4], [0.5, -0.75, -0.375, -0.1875])
    # same numbers from an explicit polynomial times geometric product
    prod = geometric_series(0.5, length=len(b)).mul_poly(CPoly([0.5, -1]))
    assert np.allclose(prod.coeffs[:4], b.coeffs[:4])


def test_mul_poly_refuses_a_stored_length_within_the_degree():
    # the product keeps the stored length; a boundary kernel's (gamma < 0)
    # envelope needs it to exceed deg p, a gamma >= 0 envelope holds at any length
    from opa.spaces import KernelSpec, WeightSequence, kernel_series

    boundary = kernel_series(WeightSequence.dirichlet(2.0), KernelSpec(1.0, 0), length=8)
    assert boundary.tail_gamma < 0
    with pytest.raises(ValueError):
        boundary.mul_poly(CPoly([1] * 9))
    assert len(boundary.mul_poly(CPoly([1] * 8))) == 8
    # (1 + z^3) / (1 - z/2) has coefficients 1, 1/2, 1/4, then 9 / 2^k
    prod = geometric_series(0.5, length=3).mul_poly(CPoly([1, 0, 0, 1]))
    assert prod.coeffs.tolist() == [1, 0.5, 0.25]
    for k in range(3, 400):
        env = Fraction(prod.tail_M) * Fraction(prod.tail_r) ** k * (k + 1) ** int(prod.tail_gamma)
        assert Fraction(9, 2**k) <= env
    # a fast factor stores 48 coefficients: times a degree-59 p, its envelope
    # covers the exact product (40 digits) up to index 400
    import mpmath as mp

    b = blaschke_factor(1e-3, length=400)
    assert len(b) == 48
    p = CPoly(np.cos(np.arange(60.0)) + 1j * np.sin(np.arange(60.0) / 3))
    pb = b.mul_poly(p)
    assert len(pb) == 48 and pb.tail_gamma == 0
    with mp.workdps(40):
        rho = mp.mpf(b.tail_r)
        exact = [rho] + [(1 - rho**2) * rho ** (k - 1) for k in range(1, 400)]  # |b_k|
        for k in range(48, 400):
            val = abs(sum(mp.mpc(p.coeffs[j]) * exact[k - j] * (-1 if k - j else 1) for j in range(min(k, 59) + 1)))
            assert val <= mp.mpf(pb.tail_M) * mp.mpf(pb.tail_r) ** k


def test_shifted_products_envelopes_match_one_shift_at_a_time():
    # mul_poly's envelope, shifted after the product (as shift_products reads
    # a quotient space's data) or before it, covers the exact coefficients of
    # z^i p x beyond the stored length, from closed forms at 40 digits: a
    # Blaschke product, a factor whose r**k underflows in its stored prefix
    # (the covering in logarithms), and boundary kernels (gamma < 0), the
    # short one against a p whose terms add up, so that the envelope needs
    # its ((L - d + 1)/(L + 1))**gamma
    import mpmath as mp

    from opa.spaces import KernelSpec, WeightSequence, kernel_series

    D2 = WeightSequence.dirichlet(2.0)
    boundary, short = (kernel_series(D2, KernelSpec(1.0, 0), length=n) for n in (64, 8))
    # the library stops a factor where its envelope is below 2**-465, so the
    # long prefix is built in full; r**k underflows where it still stores
    # nonzero (subnormal) coefficients
    long = closed_forms.factor(0.15, 460)
    assert 0.15 ** (len(long) - 1) < np.finfo(float).tiny
    assert np.any((0.15 ** np.arange(len(long)) < np.finfo(float).tiny) & (long.coeffs != 0))
    with mp.workdps(40):

        def factor(beta, n):  # the Blaschke factor's first n coefficients
            b = mp.mpc(beta)
            rho = abs(b)
            return [rho] + [(rho / b) * mp.conj(b) ** (k - 1) * (rho**2 - 1) for k in range(1, n)]

        def times(a, c):  # the first len(a) coefficients of the product
            return [mp.fsum(c[j] * a[k - j] for j in range(min(k + 1, len(c)))) for k in range(len(a))]

        n = 160
        product = times(factor(0.5, n), factor(-0.3 + 0.4j, n))
        inverse_squares = [mp.mpf(1) / (k + 1) ** 2 for k in range(len(boundary) + 100)]
        p = CPoly([1, -0.5 + 0.2j, 0.1j])
        cases = [
            (blaschke_product([0.5, -0.3 + 0.4j], length=60), product, p),
            (long, factor(0.15, len(long) + 100), p),
            (boundary, inverse_squares, p),
            (short, inverse_squares[:100], CPoly([1, 1, 1])),
        ]
        for x, exact, p in cases:
            px = times(exact, [mp.mpc(c) for c in p.coeffs])
            for i in (0, 1, 7, 40):
                for y in (x.mul_poly(p).shift(i), x.shift(i).mul_poly(p)):
                    assert len(y) == len(x) + i
                    M, r, gamma = (mp.mpf(v) for v in (y.tail_M, y.tail_r, y.tail_gamma))
                    for k in range(len(y), len(px) + i):
                        assert abs(px[k - i]) <= M * r**k * (k + 1) ** gamma, (x, i, k)


def test_series_mul_zero_factor():
    g = geometric_series(0.5, length=20)
    z = TruncSeries.from_poly(CPoly([0]))
    assert series_mul(g, z).coeffs[0] == 0


def test_envelope_soundness_geometric_and_blaschke():
    # every stored and implied coefficient respects the declared envelope
    for c in (0.5, 0.8j, -0.3 + 0.4j):
        g = geometric_series(c, length=120)
        ks = np.arange(400)
        implied = np.abs(np.asarray(c, dtype=complex) ** ks)
        env = g.tail_M * g.tail_r**ks * (ks + 1.0) ** g.tail_gamma
        assert np.all(implied <= env * (1 + 1e-12))
    for beta in (0.5, 0.7j, -0.2 + 0.6j):
        b = blaschke_factor(beta, length=120)
        rho = abs(beta)
        ks = np.arange(1, 400)
        implied = (1 - rho**2) * rho ** (ks - 1.0)
        env = b.tail_M * b.tail_r**ks * (ks + 1.0) ** b.tail_gamma
        assert np.all(implied <= env * (1 + 1e-12))


def test_series_mul_envelope_covers_true_product():
    # multiply two geometric series and compare the envelope against the
    # exactly-known product coefficients (k+1) c^k
    g = geometric_series(0.6, length=80)
    prod = series_mul(g, g)
    ks = np.arange(300)
    true = (ks + 1.0) * 0.6**ks
    env = prod.tail_M * prod.tail_r**ks * (ks + 1.0) ** prod.tail_gamma
    assert np.all(true <= env * (1 + 1e-12))
    assert np.allclose(prod.coeffs[:5], [1, 1.2, 1.08, 0.864, 0.6480], atol=1e-12)


def test_series_add_and_shift_envelopes():
    g = geometric_series(0.5, length=50)
    h = geometric_series(0.25, length=30)
    s = g.add(h)
    assert len(s) == 30
    ks = np.arange(200)
    true = 0.5**ks + 0.25**ks
    env = s.tail_M * s.tail_r**ks * (ks + 1.0) ** s.tail_gamma
    assert np.all(true[31:] <= env[31:] * (1 + 1e-12))
    sh = g.shift(3)
    assert sh.coeffs[3] == 1.0
    assert np.all(np.abs(sh.coeffs[:3]) == 0)
    true_shift = 0.5 ** (ks[4:] - 3.0)
    env_shift = sh.tail_M * sh.tail_r ** ks[4:] * (ks[4:] + 1.0) ** sh.tail_gamma
    assert np.all(true_shift <= env_shift * (1 + 1e-12))


def test_a_tail_free_operand_does_not_shorten_a_sum():
    # (1 - z/2) - 1/(1 - 0.9 z): the polynomial is exactly zero beyond its two
    # coefficients, so the sum keeps the series' 400 (it kept 2, and its
    # envelope could not certify <h, h> in H2: err 3.45)
    from opa.spaces import WeightSequence, inner_series

    g = geometric_series(0.9, length=400)
    ks = np.arange(2000)
    true = -(0.9**ks)
    true[:2] += [1, -0.5]
    for p in (CPoly([1, -0.5]), TruncSeries.from_poly(CPoly([1, -0.5]))):
        for h in (TruncSeries.add(p, -g), (-g).add(p)):
            assert len(h) == 400
            assert np.allclose(h.coeffs, true[:400], rtol=0, atol=1e-15)
            env = h.tail_M * h.tail_r**ks * (ks + 1.0) ** h.tail_gamma
            assert np.all(np.abs(true[400:]) <= env[400:])
            assert inner_series(WeightSequence.dirichlet(0.0), h, h, 1e-12).err <= 1e-12
    # a polynomial stored beyond the series: its coefficients there are covered
    h = g.add(CPoly(np.ones(600)))
    assert len(h) == 400
    env = h.tail_M * h.tail_r**ks * (ks + 1.0) ** h.tail_gamma
    assert np.all((0.9**ks + (ks < 600))[400:] <= env[400:] * (1 + 1e-12))


def test_overflowing_shift_envelope_raises_typed_error():
    # M r^-k for r = 0.1 leaves the float range near k = 308
    b = blaschke_factor(0.1, length=40)
    assert np.isfinite(b.shift(300).tail_M)
    with pytest.raises(EnvelopeOverflowError):
        b.shift(400)


def test_certified_evaluation():
    g = geometric_series(0.5, eps=1e-12)
    for z in (0.3, -0.5, 0.9, 0.2 + 0.7j):
        value, err = g.eval_certified(z)
        truth = 1.0 / (1.0 - 0.5 * z)
        assert abs(value - truth) <= err + 1e-13


def test_power_tail_bound_is_an_upper_bound():
    # against brute-force sums over a long window
    cases = [(1.0, 0.5, 0.0, 10), (2.0, 0.7, 1.5, 25), (1.0, 0.9, -1.0, 40)]
    for M, q, gamma, N in cases:
        ks = np.arange(N + 1, N + 4000)
        brute = float(np.sum(M * q**ks * (ks + 1.0) ** gamma))
        assert power_tail_bound(M, q, gamma, N) >= brute
    # boundary case q = 1 with integrable decay
    ks = np.arange(101, 10**6)
    brute = float(np.sum((ks + 1.0) ** -2.0))
    bound = power_tail_bound(1.0, 1.0, -2.0, 100)
    assert brute <= bound <= brute * 1.05
    with pytest.raises(CannotCertifyError):
        power_tail_bound(1.0, 1.0, -0.5, 10)


def test_ratio_inseparable_from_one_raises_typed_error():
    # the ratio just below 1: (1 + q) / 2 rounds to 1, so no geometric bound
    # with polynomial growth can be formed, in Python or NumPy floats alike
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for q in (1 - 1e-16, np.nextafter(1.0, 0.0)):
            with pytest.raises(CannotCertifyError):
                power_tail_bound(1.0, q, 1.0, 10)
        with pytest.raises(CannotCertifyError):
            blaschke_product([0.9999999999999999])
        b = 1 - 1e-16
        with pytest.raises(CannotCertifyError):
            blaschke_projection(CPoly([b * b, -2 * b, 1]))


def test_needed_length_meets_eps():
    for M, r, gamma, eps in [(1, 0.5, 0, 1e-12), (3, 0.8, 2, 1e-9), (1, 0.99, 0, 1e-6)]:
        L = needed_length(M, r, gamma, eps)
        assert power_tail_bound(M, r, gamma, L - 1) <= eps
        if L > 1:
            assert power_tail_bound(M, r, gamma, L - 2) > eps


@settings(max_examples=300, deadline=None)
@given(
    peaked=st.booleans(),
    C=st.floats(1e-3, 1e3),
    p=st.floats(0.5, 4.0),
    q=st.floats(0.5, 0.99),
    lo=st.integers(0, 300),
    span=st.integers(0, 3000),
    log_eps=st.floats(-12.0, 0.0),
)
def test_smallest_certified_matches_linear_scan(peaked, C, p, q, lo, span, log_eps):
    # monotone bounds: C (K+1)^-p, and C (K+1)^p q^K searched from its peak
    if peaked:
        lo += max(0, math.ceil(p / -math.log(q)) - 1)

        def bound(K):
            return C * (K + 1.0) ** p * q**K
    else:

        def bound(K):
            return C * (K + 1.0) ** -p

    cap, eps = lo + span, 10.0**log_eps
    want = next((K for K in range(lo, cap + 1) if bound(K) <= eps), None)
    if want is None:
        assert bound(cap) > eps
        with pytest.raises(CannotCertifyError):
            smallest_certified(bound, eps, lo, cap)
    else:
        assert smallest_certified(bound, eps, lo, cap) == want


def test_envelope_validity_rules():
    with pytest.raises(EnvelopeOverflowError):
        TruncSeries([1, 1], 1.0, 1.2)
    with pytest.raises(EnvelopeOverflowError):
        TruncSeries([1, 1], 1.0, 1.0, -0.5)
    # boundary envelope with summable decay is legal
    TruncSeries([1, 0.25], 1.0, 1.0, -2.0)
    # products of boundary-envelope series are refused
    s = TruncSeries(np.ones(8), 1.0, 1.0, -2.0)
    with pytest.raises(EnvelopeOverflowError):
        series_mul(s, s)


def test_random_operation_chains_keep_envelopes_sound():
    # build random series from closed forms, apply random operation chains,
    # and verify against a long exact reference: stored coefficients must
    # match exactly and the envelope must dominate every unstored reference
    # coefficient
    REF = 600
    CHECK = 450
    rng = np.random.RandomState(97)

    def random_atom():
        kind = rng.randint(3)
        if kind == 0:
            c = (0.2 + 0.6 * rng.rand()) * np.exp(2j * np.pi * rng.rand())
            s = geometric_series(c, length=rng.randint(30, 80))
            ref = np.asarray(c, dtype=complex) ** np.arange(REF)
        elif kind == 1:
            b = (0.2 + 0.5 * rng.rand()) * np.exp(2j * np.pi * rng.rand())
            s = blaschke_factor(b, length=rng.randint(30, 80))
            ks = np.arange(1, REF)
            ref = np.empty(REF, dtype=complex)
            ref[0] = abs(b)
            ref[1:] = (abs(b) / b) * np.conj(b) ** (ks - 1) * (abs(b) ** 2 - 1)
        else:
            deg = rng.randint(1, 5)
            coeffs = rng.randn(deg + 1) + 1j * rng.randn(deg + 1)
            s = TruncSeries.from_poly(CPoly(coeffs))
            ref = np.zeros(REF, dtype=complex)
            ref[: deg + 1] = CPoly(coeffs).coeffs
        return s, ref

    def apply_op(s, ref):
        op = rng.randint(5)
        if op == 0:
            t, tref = random_atom()
            return series_mul(s, t), np.convolve(ref, tref)[:REF]
        if op == 1:
            t, tref = random_atom()
            return s.add(t), ref + tref
        if op == 2:
            deg = rng.randint(1, 4)
            p = CPoly(rng.randn(deg + 1))
            if len(s) <= deg + 1:
                return s, ref
            return s.mul_poly(p), np.convolve(p.coeffs, ref)[:REF]
        if op == 3:
            i = rng.randint(1, 4)
            return s.shift(i), np.concatenate([np.zeros(i, dtype=complex), ref[: REF - i]])
        c = rng.randn() + 1j * rng.randn()
        return s.scale(c), c * ref

    for _ in range(40):
        s, ref = random_atom()
        for _ in range(3):
            try:
                s, ref = apply_op(s, ref)
            except EnvelopeOverflowError:
                break
        n = len(s)
        assert np.allclose(s.coeffs, ref[:n], atol=1e-10 * (1 + np.max(np.abs(ref)))), "stored prefix"
        ks = np.arange(n, CHECK)
        if ks.size:
            env = s.tail_M * s.tail_r ** ks.astype(float) * (ks + 1.0) ** s.tail_gamma
            assert np.all(np.abs(ref[n:CHECK]) <= env + 1e-12), "envelope violated"


def test_blaschke_product_value_at_zero():
    bp = blaschke_product([0.5, 1 / 3])
    assert abs(bp.coeffs[0] - 0.5 / 3) < 1e-14
    # |B| = 1 on the circle, checked via certified evaluation well inside
    v, err = bp.eval_certified(0.0)
    assert abs(v - 1 / 6) <= err + 1e-13


def test_immutability():
    p = CPoly([1, 2])
    with pytest.raises(ValueError):
        p.coeffs[0] = 5
    g = geometric_series(0.5, length=10)
    with pytest.raises(ValueError):
        g.coeffs[0] = 5


def test_envelope_cover_where_the_power_underflows():
    # 0.18**k (k+1)**gamma underflows to 0 past k ~ 430, so the covering
    # constant of a long small-ratio prefix is taken in logarithms; the
    # length-460 product used to raise EnvelopeOverflowError (the library now
    # stops it at 194 coefficients, so it is built in full)
    b = closed_forms.product([0.15, -0.18j], 460)
    short = closed_forms.product([0.15, -0.18j], 400)
    assert b.tail_r ** (len(b) - 1) < np.finfo(float).tiny
    assert np.array_equal(b.coeffs[:400], short.coeffs)
    # where 0.18**k is subnormal (k = 425..434, a few bits left) or 0, the
    # cover is rounded up: it dominates the exact ratio of the doubles
    cases = [(k, 1e-300) for k in range(425, 435)] + [(500, 1e-300), (700, 5e-320)]
    for gamma in (-2, 0, 3):
        for k, v in cases:
            M = _covering_M(0.0, 0.18, float(gamma), [k], [v])
            exact = Fraction(v) / (Fraction(0.18) ** k * Fraction(k + 1) ** gamma)
            assert Fraction(M) >= exact
    # zero values need no cover, and r == 0 covers nothing past index 0
    assert _covering_M(1.0, 0.0, 0.0, [0, 5], [0.5, 0.0]) == 1.0
    with pytest.raises(EnvelopeOverflowError):
        _covering_M(1.0, 0.0, 0.0, [0, 5], [0.5, 1e-3])


def test_series_mul_takes_a_polynomial_as_a_tail_free_series():
    # a CPoly factor is the series TruncSeries.from_poly makes of it: the same
    # coefficients and envelope bit for bit, in both operand orders and through
    # TruncSeries.mul (a CPoly had no global majorant and raised AttributeError)
    s = geometric_series(0.5, length=20)
    p, p2 = CPoly([1, -0.5]), CPoly([2, 1j, 0.25])
    q, q2 = TruncSeries.from_poly(p), TruncSeries.from_poly(p2)

    def parts(x):
        return x.coeffs.tobytes(), x.tail_M, x.tail_r, x.tail_gamma

    pairs = [
        (series_mul(s, p), series_mul(s, q)),
        (series_mul(p, s), series_mul(q, s)),
        (s.mul(p), s.mul(q)),
        (series_mul(p, p2), series_mul(q, q2)),
    ]
    for got, want in pairs:
        assert parts(got) == parts(want)


# -- library-made series stop where their envelope falls below 2**-465 ----------


def test_constructors_stop_where_the_envelope_falls_below_the_floor():
    # stored length = min(length, first k with M r**k < 2**-465) (gamma = 0,
    # so the envelope's peak is at 0); the stored coefficients are the closed
    # form's, and every dropped one lies below the floor and the envelope (up
    # to the rounding of r = |beta| to a double, a relative 2**-53 a power)
    import mpmath as mp

    lengths = (1, 2, 40, 170, 600, 2000)
    for i, rho in enumerate((1e-3, 0.05, 0.15, 0.5, 0.9)):
        beta = rho * complex(math.cos(0.7 * i), math.sin(0.7 * i))
        built = [
            (blaschke_factor, closed_forms.factor, lambda k, r: (1 - r**2) * r ** (k - 1)),
            (geometric_series, closed_forms.geometric, lambda k, r: r**k),
        ]
        for make, full, exact in built:
            s = make(beta, length=max(lengths))
            with mp.workdps(40):
                M, r, floor = mp.mpf(s.tail_M), mp.mpf(s.tail_r), mp.mpf(2) ** -465
                first = next((k for k in range(max(lengths)) if M * r**k < floor), max(lengths))
                r_beta = abs(mp.mpc(beta))
                for k in range(len(s), max(lengths)):
                    assert exact(k, r_beta) <= M * r**k * (1 + mp.mpf(2.0**-50) * (k + 1))
                    assert exact(k, r_beta) < floor
            for length in lengths:
                s = make(beta, length=length)
                assert len(s) == min(length, first), (make.__name__, rho, length)
                assert np.array_equal(s.coeffs, full(beta, length).coeffs[: len(s)])
    assert len(blaschke_factor(0.15, length=2000)) == 171


def test_significant_length_searches_from_the_envelope_peak():
    # a product's envelope rises up to k + 1 = gamma / ln(1/r): the cut is the
    # first k past that peak from which it stays below 2**-465 (40 digits)
    import mpmath as mp

    for M, r, gamma in ((35.0, 0.18, 1.0), (1e-200, 0.9, 40.0), (1e-300, 0.5, 3.0), (2.0, 0.7, -2.0)):
        with mp.workdps(40):
            env = [mp.mpf(M) * mp.mpf(r) ** k * (k + 1) ** mp.mpf(gamma) for k in range(5000)]
            peak = max(0, math.ceil(gamma / -math.log(r) - 1))
            first = next(k for k in range(peak, 5000) if env[k] < mp.mpf(2) ** -465)
        assert all(e < mp.mpf(2) ** -465 for e in env[first:])
        for length in (1, first - 1, first, first + 1, 5000):
            assert _significant_length(M, r, gamma, length) == min(length, first), (M, r, gamma, length)
    # a boundary kernel (r = 1), r = 0 or M = 0 is never cut
    for M, r in ((1.0, 1.0), (1.0, 0.0), (0.0, 0.5)):
        assert _significant_length(M, r, -2.0, 700) == 700


def test_series_mul_counts_a_factor_below_the_floor_as_zero_beyond_its_end():
    # the fast factor stores 71 coefficients; the product keeps the slow
    # factor's 400, each within max|b| * (the fast factor's dropped tail sum)
    # of the product with that factor stored in full (up to rounding)
    a, g = blaschke_factor(0.01, length=400), geometric_series(0.6, length=400)
    assert len(a) == 71 and len(g) == 400
    prod, ref = series_mul(a, g), series_mul(closed_forms.factor(0.01, 400), g)
    assert len(prod) == len(ref) == 400
    assert len(blaschke_product([0.01, 0.6], length=400)) == 400
    bound = np.abs(g.coeffs).max() * power_tail_bound(a.tail_M, a.tail_r, a.tail_gamma, len(a) - 1)
    assert 0 < bound <= 2.0**-465 / (1 - a.tail_r)
    full = np.abs(closed_forms.factor(0.01, 400).coeffs)
    rounding = 800 * np.finfo(float).eps * np.convolve(full, np.abs(g.coeffs))[:400]
    assert np.all(np.abs(prod.coeffs - ref.coeffs) <= bound + rounding)


def test_series_of_small_zeros_are_built_without_underflow():
    # the benchmark's slowest series: their stored tails used to be subnormal
    # ("underflow encountered in power"), where x86 arithmetic takes microcode assists
    with np.errstate(under="raise"):
        for zeros, length in (([0.15, -0.18j], 460), ([0.29, -0.29j, 0.29 * np.exp(2.5j)], 540)):
            b = blaschke_product(zeros, length=length)
            bg = b.mul(geometric_series(0.12, length=540))
            assert len(b) < length and len(bg) < length
