"""Weighted spaces: inner products, kernels, reproducibility certificates."""

import cmath
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

import opa.spaces
from opa.errors import CannotCertifyError, NotReproducibleError
from opa.series import CPoly, TruncSeries, blaschke_factor, geometric_series
from opa.spaces import (
    KernelSpec,
    WeightSequence,
    falling_product_sum,
    inner_poly,
    inner_series,
    is_reproducible,
    kernel_coefficients,
    kernel_eval,
    kernel_inner,
    kernel_series,
    norm_sq_poly,
)

H2 = WeightSequence.dirichlet(0.0)
D1 = WeightSequence.dirichlet(1.0)
D2 = WeightSequence.dirichlet(2.0)


# -- weights ---------------------------------------------------------------


def test_dirichlet_weights():
    assert H2.weight(5) == 1.0
    assert D1.weight(4) == 5.0
    assert np.allclose(D2.weights(4), [1, 4, 9, 16])


def test_dirichlet_weights_overflow_quietly_past_the_double_range():
    # 1024^alpha passes 2^1024 between alpha = 102 and 102.4; the suite turns
    # an overflow warning into an error, so the power that overflows must run
    # with the warning off, and one that cannot may skip that
    for alpha, last in ((102.0, 2.0**1020), (102.4, math.inf), (103.0, math.inf)):
        assert WeightSequence.dirichlet(alpha).weights(1024)[-1] == last, alpha


def test_custom_weights_ratio_and_constant_extension():
    w = WeightSequence.custom([1, 2, 3, 3.3], extension="ratio")
    assert w.weight(0) == 1.0
    assert w.weight(3) == 3.3
    assert abs(w.weight(4) - 3.3 * 1.1) < 1e-12
    wc = WeightSequence.custom([1, 2, 3], extension="constant")
    assert wc.weight(10) == 3.0


def test_custom_weights_vectorized_from_any_start():
    # weights(n, start) continues the prefix in closed form, bit-equal to
    # weight(k) on both sides of the prefix end, and within rounding of the
    # rule w_{n-1} ratio**(k - n + 1).  Dirichlet weights from any start are
    # bit-equal to weight(k) too
    for space in (D2, WeightSequence.dirichlet(-1.0), WeightSequence.dirichlet(2.7)):
        assert space.weights(300, 7).tolist() == [space.weight(k) for k in range(7, 300)]
    for ext, ratio in (("ratio", 2.1 / 1.7), ("constant", 1.0)):
        w = WeightSequence.custom([1.0, 1.3, 1.7, 2.1], extension=ext)
        for start, n in [(0, 40), (2, 9), (3, 5), (4, 30), (17, 18), (5, 5)]:
            got = w.weights(n, start)
            assert got.tolist() == [w.weight(k) for k in range(start, n)], (ext, start)
            closed = [[1.0, 1.3, 1.7, 2.1][k] if k < 4 else 2.1 * ratio ** (k - 3) for k in range(start, n)]
            assert np.allclose(got, closed, rtol=1e-14, atol=0), (ext, start)
    with pytest.raises(OverflowError):  # 1.5**k leaves the double range
        WeightSequence.custom([1.0, 1.5, 2.25]).weights(2000, 1990)


def test_custom_weight_validation():
    with pytest.raises(ValueError):
        WeightSequence.custom([2, 2, 2])  # w_0 != 1
    with pytest.raises(ValueError):
        WeightSequence.custom([1, -1, 1])
    with pytest.raises(ValueError):
        WeightSequence.custom([1, 2, 8])  # final ratio far from 1


def test_custom_continuation_is_a_closed_form_rule():
    # a custom space is its stored prefix plus 'ratio' or 'constant'; a
    # callable (whose weights a stored prefix holds just as well) is refused
    with pytest.raises(ValueError, match="unknown extension rule"):
        WeightSequence.custom([1.0, 1.6, 1.616], extension=lambda k: 1.6 * 1.01 ** (k - 2))
    with pytest.raises(ValueError, match="unknown extension rule"):
        WeightSequence.custom([1.0, 1.6, 1.616], extension="geometric")


def test_multiplier_requires_zero_free_polynomial():
    WeightSequence.multiplier(CPoly([1, -0.5]))  # root 2, fine
    with pytest.raises(ValueError):
        WeightSequence.multiplier(CPoly([-0.5, 1]))  # root 1/2 inside


def test_tail_weight_majorant_takes_an_array_of_starts():
    spaces = [
        D2,
        WeightSequence.custom([1.0, 1.4, 1.5, 1.45]),  # decaying ratio
        WeightSequence.custom([1.0, 1.3, 1.2], extension="constant"),
        WeightSequence.custom([1.0, 1.3, 1.1, 1.25, 1.2, 1.22, 1.25, 1.28]),  # growing ratio
    ]
    for space in spaces:
        n = 8 if space.prefix is None else space.prefix.size
        # below, at and past the prefix's end, in any order and shape
        starts = np.array([[0, 1, n - 2, n - 1], [n, n + 1, 40, 3]])
        W, g, rho = space.tail_weight_majorant(starts)
        assert np.shape(W) in ((), starts.shape)
        for k0, Wk in zip(starts.ravel().tolist(), np.broadcast_to(W, starts.shape).ravel()):
            assert (Wk, g, rho) == space.tail_weight_majorant(k0)
            ks = np.arange(k0, k0 + 60)
            assert np.all(space.weights(k0 + 60, k0) <= Wk * (ks + 1.0) ** g * rho**ks * (1 + 1e-15))


def test_descriptor_round_trip():
    for space in (
        H2,
        WeightSequence.dirichlet(1.5),
        WeightSequence.custom([1, 2, 3], "ratio"),
        WeightSequence.multiplier(CPoly([1, -0.5])),
    ):
        desc = space.to_descriptor()
        again = WeightSequence.from_descriptor(desc)
        assert again.to_descriptor() == desc


# -- inner products ----------------------------------------------------------


def test_inner_poly_hand_values():
    # <1-z, z-z^2> in the unweighted space: only k=1 contributes, (-1)(1) = -1
    assert inner_poly(H2, CPoly([1, -1]), CPoly([0, 1, -1])) == -1
    # ||z^(n+1)||^2 with w_k = (k+1): single term w_{n+1} = n+2
    for n in range(5):
        mono = CPoly([0] * (n + 1) + [1])
        assert norm_sq_poly(D1, mono) == n + 2
    assert inner_poly(D2, CPoly([1, 2, 3]), CPoly([0])) == 0


def test_inner_poly_hermitian_and_positive():
    rng = np.random.RandomState(11)
    for space in (H2, D1, WeightSequence.custom([1, 2, 2.1, 2.2])):
        for _ in range(20):
            a = CPoly(rng.randn(5) + 1j * rng.randn(5))
            b = CPoly(rng.randn(4) + 1j * rng.randn(4))
            ab = inner_poly(space, a, b)
            ba = inner_poly(space, b, a)
            assert abs(ab - np.conj(ba)) < 1e-12 * (1 + abs(ab))
            assert inner_poly(space, a, a).real > 0


def test_multiplier_inner_is_isometric():
    # ||p f - 1|| in the quotient space equals ||p (m f) - m|| unweighted,
    # exactly (both reduce to the same finite sum); m is built from random
    # roots outside the closed disk
    rng = np.random.RandomState(3)
    for _ in range(10):
        roots = 1.3 + rng.rand(rng.randint(1, 4)) * 2 + 1j * rng.randn(1)
        m = CPoly([1.0])
        for r in roots:
            m = m * CPoly([1.0, -1.0 / r])
        quot = WeightSequence.multiplier(m)
        p = CPoly(rng.randn(4))
        f = CPoly(rng.randn(3))
        lhs = norm_sq_poly(quot, p * f - CPoly([1]))
        rhs = norm_sq_poly(H2, p * (m * f) - m)
        assert abs(lhs - rhs) < 1e-12 * (1 + abs(lhs))


def test_inner_series_blaschke_unit_norm():
    # ||(1/2 - z)/(1 - z/2)||^2 = 1/4 + (9/16) sum 4^-k = 1/4 + 3/4 = 1
    b = blaschke_factor(0.5, eps=1e-14)
    c = inner_series(H2, b, b, 1e-12)
    assert abs(c.value - 1.0) <= c.err + 1e-12
    assert c.err <= 1e-12


def test_inner_series_geometric_kernel_norm():
    # sum (1/4)^k = 4/3
    k = geometric_series(0.5, eps=1e-14)
    c = inner_series(H2, k, k, 1e-12)
    assert abs(c.value - 4.0 / 3.0) <= c.err + 1e-12


def test_inner_series_positive_on_random_data():
    rng = np.random.RandomState(5)
    for _ in range(10):
        coeffs = rng.randn(12) + 1j * rng.randn(12)
        s = TruncSeries(coeffs, 0.5, 0.4)
        c = inner_series(D1, s, s, 1.0)
        assert c.value.real >= -c.err


def test_inner_series_mixed_lengths_is_sound():
    # longer stored side against a shorter side with live envelope: the
    # certified interval must cover the exact value
    g_long = geometric_series(0.5, length=200)
    g_short = geometric_series(0.5, length=12)
    c = inner_series(H2, g_long, g_short, eps=1.0)
    exact = 4.0 / 3.0
    assert abs(c.value - exact) <= c.err


def test_inner_series_interval_contains_long_reference():
    # certified value +- err must cover a brute-force inner product computed
    # from long exact prefixes (closed forms decay fast enough that the
    # reference truncation beyond 2000 terms is immaterial)
    rng = np.random.RandomState(71)
    REF = 2000
    for space in (H2, D1):
        w = space.weights(REF)
        for _ in range(12):
            ca = (0.2 + 0.6 * rng.rand()) * np.exp(2j * np.pi * rng.rand())
            cb = (0.2 + 0.6 * rng.rand()) * np.exp(2j * np.pi * rng.rand())
            a = geometric_series(ca, length=rng.randint(25, 60))
            b = geometric_series(cb, length=rng.randint(25, 60))
            ref_a = np.asarray(ca, dtype=complex) ** np.arange(REF)
            ref_b = np.asarray(cb, dtype=complex) ** np.arange(REF)
            truth = complex(np.sum(w * ref_a * np.conj(ref_b)))
            got = inner_series(space, a, b, eps=10.0)
            assert abs(got.value - truth) <= got.err + 1e-10


def test_inner_series_cannot_certify_when_too_short():
    g = geometric_series(0.97, length=8)
    with pytest.raises(CannotCertifyError):
        inner_series(H2, g, g, 1e-12)


# -- reproducibility ---------------------------------------------------------


def test_nan_error_bound_is_never_certified():
    from opa.spaces import require_certified

    require_certified(1e-12, 1e-10)
    for err in (float("nan"), float("inf"), 1e-9):
        with pytest.raises(CannotCertifyError):
            require_certified(err, 1e-10)


def test_reproducibility_truth_table_dirichlet():
    # true iff |beta| < 1, or |beta| = 1 and alpha > 2*order + 1
    for alpha in (0.0, 1.0, 2.0, 3.5):
        space = WeightSequence.dirichlet(alpha)
        for mod in (0.5, 1.0, 2.0):
            for order in (0, 1):
                expected = mod < 1 or (mod == 1 and alpha > 2 * order + 1)
                cert = is_reproducible(space, mod, order)
                assert cert.reproducible is expected, (alpha, mod, order)


def test_reproducibility_boundary_phase_independent():
    beta = np.exp(0.7j)
    assert is_reproducible(D2, beta, 0).reproducible is True
    assert is_reproducible(D2, beta, 1).reproducible is False


def test_reproducibility_custom_ratio():
    w = WeightSequence.custom([1, 1.2, 1.44], extension="ratio")  # ratio 1.2
    assert is_reproducible(w, 1.0, 0).reproducible is True  # 1 < 1.2
    assert is_reproducible(w, 1.2, 0).reproducible is False  # 1.44 > 1.2
    wc = WeightSequence.custom([1, 2, 2], extension="constant")
    assert is_reproducible(wc, 1.0, 0).reproducible is False  # terms ~ 1/2


def test_reproducibility_is_always_decided():
    # every kind of space gives a bool verdict inside, on and outside the
    # circle: analytic for dirichlet and quotient weights, the exact ratio
    # limit |beta|^2 / ratio of the continuation for custom ones
    spaces = {
        "bergman": (WeightSequence.dirichlet(-1.0), None),
        "hardy": (WeightSequence.dirichlet(0.0), None),
        "dirichlet2": (WeightSequence.dirichlet(2.0), None),
        "growing": (WeightSequence.custom([1, 1.2, 1.44]), 1.2),
        "decaying": (WeightSequence.custom([1.0, 1.4, 1.5, 1.45]), 1.45 / 1.5),
        "constant": (WeightSequence.custom([1, 2, 2], extension="constant"), 1.0),
        "quotient": (WeightSequence.multiplier(CPoly([1, -0.5])), None),
    }
    for name, (space, ratio) in spaces.items():
        for mod in (0.5, 1.0, 2.0):
            beta = mod * cmath.exp(0.7j)
            for order in range(3):
                verdict = is_reproducible(space, beta, order).reproducible
                assert type(verdict) is bool, (name, mod, order)
                if ratio is not None:
                    expected = mod**2 < ratio
                elif space.kind == "multiplier":
                    expected = mod < 1
                else:
                    expected = mod < 1 or (mod == 1 and space.alpha > 2 * order + 1)
                assert verdict is expected, (name, mod, order)


def test_reproducibility_multiplier_kind():
    quot = WeightSequence.multiplier(CPoly([1, -0.5]))
    assert is_reproducible(quot, 0.5, 2).reproducible is True
    assert is_reproducible(quot, 1.0, 0).reproducible is False


# -- kernels -----------------------------------------------------------------


def test_kernel_series_geometric_case():
    k = kernel_series(H2, KernelSpec(0.5, 0), eps=1e-12)
    ks = np.arange(len(k))
    assert np.allclose(k.coeffs, 0.5**ks)


def test_kernel_series_boundary_power_decay():
    k = kernel_series(D2, KernelSpec(1.0, 0), length=64)
    ks = np.arange(64)
    assert np.allclose(k.coeffs, 1.0 / (ks + 1.0) ** 2)
    assert k.tail_r == 1.0 and k.tail_gamma == -2.0
    # value at 1 is the p-series sum
    v = kernel_eval(D2, KernelSpec(1.0, 0), 1.0, eps=1e-10)
    assert abs(v.value - np.pi**2 / 6) <= v.err + 1e-12


def test_kernel_at_origin_is_constant_one():
    for space in (H2, D1, D2):
        k = kernel_series(space, KernelSpec(0.0, 0))
        assert np.allclose(k.coeffs, [1.0])


def test_kernel_series_rejects_non_reproducible_point():
    with pytest.raises(NotReproducibleError):
        kernel_series(H2, KernelSpec(2.0, 0))
    with pytest.raises(NotReproducibleError):
        kernel_series(D2, KernelSpec(1.0, 1))


def test_reproducing_property_for_derivatives():
    # <p, k^n_beta> = p^(n)(beta) for polynomials, at interior points
    rng = np.random.RandomState(2)
    spaces = (H2, D1, D2, WeightSequence.dirichlet(-1.0))
    betas = (0.3, -0.9, 0.5j, 0.4 - 0.6j)
    for space in spaces:
        for beta in betas:
            for order in (0, 1, 2):
                k = kernel_series(space, KernelSpec(beta, order), eps=1e-13)
                p = CPoly(rng.randn(7) + 1j * rng.randn(7))
                got = inner_series(space, TruncSeries.from_poly(p), k, 1e-9)
                want = p
                for _ in range(order):
                    want = want.derivative()
                assert abs(got.value - want(beta)) <= got.err + 1e-9


def test_derivative_of_kernel_lies_in_kernel_span():
    # rising-factorial kernels decompose over falling-factorial kernels with
    # the integer conversion matrix and powers of conj(beta)
    from opa.projection import factorial_basis_matrix

    beta = 0.4 + 0.2j
    n = 2
    length = 40
    fb = factorial_basis_matrix(n)
    from opa.spaces import kernel_coefficients

    target = kernel_coefficients(D1, KernelSpec(beta, n, "derivative_of_kernel"), length)
    combo = np.zeros(length, dtype=complex)
    for j, a in enumerate(fb.row(n)):
        cj = a * np.conj(beta) ** (n + j)
        combo += cj * kernel_coefficients(D1, KernelSpec(beta, j), length)
    assert np.allclose(target, combo)


def test_kernels_at_zero_are_one_monomial_with_positive_zeros():
    # at beta = 0, whatever the signs of its zero parts, the general formulas
    # give n!/w_n z^n for the derivative kernel, 1 for derivative_of_kernel of
    # order 0 and 0 for its higher orders; every other coefficient is +0 + 0j
    custom = WeightSequence.custom([1.0, 1.4, 1.5, 1.45])
    for space in (WeightSequence.dirichlet(1.5), custom):
        w = space.weights(8)
        for beta in (0j, complex(0.0, -0.0), complex(-0.0, 0.0), complex(-0.0, -0.0)):
            for n in range(4):
                for flavor, value in (("kernel_for_derivatives", math.factorial(n) / w[n]),
                                      ("derivative_of_kernel", 1.0 if n == 0 else 0.0)):
                    want = np.zeros(8, dtype=complex)
                    want[n] = value
                    got = kernel_coefficients(space, KernelSpec(beta, n, flavor), 8)
                    assert got.tobytes() == want.tobytes(), (space, beta, n, flavor)
                    # a prefix that ends before z^n holds zeros only
                    short = kernel_coefficients(space, KernelSpec(beta, n, flavor), n)
                    assert short.tobytes() == np.zeros(n, dtype=complex).tobytes()


def test_derivative_flavor_kernel_series():
    # the rising-factorial flavor equals the z-derivative of the point kernel
    # in the unweighted space: coefficients (k+1)...(k+n) conj(beta)^(k+n)
    beta = 0.5
    k1 = kernel_series(H2, KernelSpec(beta, 1, "derivative_of_kernel"), eps=1e-12)
    ks = np.arange(len(k1))
    assert np.allclose(k1.coeffs, (ks + 1.0) * 0.5 ** (ks + 1))
    # envelope covers the implied coefficients
    ks = np.arange(500)
    implied = (ks + 1.0) * 0.5 ** (ks + 1)
    env = k1.tail_M * k1.tail_r**ks * (ks + 1.0) ** k1.tail_gamma
    assert np.all(implied <= env * (1 + 1e-12))


def test_kernel_inner_matches_direct_sums():
    # hand values in the unweighted space:
    # <k_a, k_b> = 1/(1 - conj(a) b)
    g = kernel_inner(H2, KernelSpec(0.5, 0), KernelSpec(1 / 3, 0), eps=1e-12)
    assert abs(g.value - 1.0 / (1 - 0.5 / 3)) <= g.err + 1e-12
    # order-1 diagonal at 1/2: sum k^2 (1/4)^(k-1) = 4 * sum k^2 4^-k = 80/27
    g11 = kernel_inner(H2, KernelSpec(0.5, 1), KernelSpec(0.5, 1), eps=1e-12)
    assert abs(g11.value - 80.0 / 27.0) <= g11.err + 1e-12
    # mixed order at 1/2: sum k (1/2)^(k-1) (1/2)^k = 8/9
    g01 = kernel_inner(H2, KernelSpec(0.5, 1), KernelSpec(0.5, 0), eps=1e-12)
    assert abs(g01.value - 8.0 / 9.0) <= g01.err + 1e-12


def test_falling_product_sum_oscillatory_boundary():
    # alpha=3 allows order 0 at a boundary point with a phase: compare the
    # certified sum against a very long partial sum
    space = WeightSequence.dirichlet(3.0)
    u = np.exp(1.1j)
    got = falling_product_sum(space, 0, 0, u, 1e-9)
    ks = np.arange(200000)
    brute = np.sum(u**ks / (ks + 1.0) ** 3)
    assert abs(got.value - brute) <= got.err + 1e-7


def test_falling_product_sum_interior_matches_closed_form():
    # sum k u^k = u/(1-u)^2 for the order-(1,0) falling product in H2
    u = 0.37 - 0.11j
    got = falling_product_sum(H2, 1, 0, u, 1e-12)
    want = u / (1 - u) ** 2
    assert abs(got.value - want) <= got.err + 1e-12


def test_boundary_truncation_is_the_smallest_that_certifies(monkeypatch, summed_terms):
    # on the circle, u = e^z, the sum stops at K = max(64, ceil(40/|z|), start)
    # with the smallest Euler-Maclaurin order p whose Bernoulli remainder
    # |B_2p|/(2p)! sum_i C(2p, i) |z|^(2p-i) A_i, where
    # A_i = sum_m |c_m (m - alpha)_(i)| (K+1)^(m-alpha-i+1) / (alpha+i-1-m),
    # is <= eps/2 at u = 1; off u = 1 it gets eps/4, and the number q of
    # integrations by parts is the smallest whose remainder A_q / |z|^q is <= eps/4
    eps, searched = 1e-10, []
    search = opa.spaces.smallest_certified

    def recording_search(*args):
        searched.append(search(*args))
        return searched[-1]

    monkeypatch.setattr(opa.spaces, "smallest_certified", recording_search)
    cases = [
        (2, 0, 0, 1.0, 0),
        (4, 1, 1, 1.0, 0),
        (3.5, 2, 0, 1.0, 300),
        (2.5, 0, 0, -1.0, 0),
        (3, 1, 0, np.exp(1j * np.pi / 3), 0),
        (4, 1, 1, np.exp(0.01j), 100),
        (5.5, 2, 1, 1j, 0),
    ]
    for alpha, j, l, u, start in cases:
        z = abs(cmath.log(u))
        K = max(64, math.ceil(40 / z) if z else 0, start)
        c = _shifted_falling_product(j, l)

        def A(i):
            return sum(
                abs(cm * math.prod(m - alpha - k for k in range(i)))
                * (K + 1.0) ** (m - alpha - i + 1) / (alpha + i - 1 - m)
                for m, cm in enumerate(c)
            )

        def remainder(p):
            coeff = abs(float(_bernoulli(2 * p) / math.factorial(2 * p)))
            return coeff * sum(math.comb(2 * p, i) * z ** (2 * p - i) * A(i) for i in range(2 * p + 1))

        summed_terms.clear()
        falling_product_sum(WeightSequence.dirichlet(alpha), j, l, u, eps, start)
        case = (alpha, j, l, u, start)
        assert [hi for _, hi in summed_terms][-1:] == ([K] if start < K else []), case
        p, share = searched[-1], (eps / 4 if z else eps / 2)
        assert remainder(p) <= share and (p == 1 or remainder(p - 1) > share), case
        if z:
            q = searched[-2]
            assert A(q) / z**q <= eps / 4 < A(q - 1) / z ** (q - 1), case


def _bernoulli(n):
    """The Bernoulli number B_n as an exact fraction (B_1 = -1/2)."""
    b = [Fraction(1)]
    for i in range(1, n + 1):
        b.append(-sum(math.comb(i + 1, k) * b[k] for k in range(i)) / (i + 1))
    return b[n]


def test_euler_maclaurin_coefficients_are_the_bernoulli_ratios():
    # the stored table is B_2i / (2i)! rounded to nearest, i = 1..30
    table = opa.spaces._EM_COEFFS
    assert table.size == 30
    for i, coeff in enumerate(table, start=1):
        assert coeff == float(_bernoulli(2 * i) / math.factorial(2 * i)), i


def test_boundary_sums_at_one_match_hurwitz_zeta(summed_terms):
    # sum_{k>=start} P_j(k) P_l(k) / (k+1)^alpha = sum_m c_m zeta(alpha - m, start + 1)
    # at 40 digits: every value within its err alone, err at most eps plus
    # rounding, and no u = 1 call evaluating more than 256 terms
    mp.mp.dps = 40
    for alpha in (2, 2.5, 3, 4, 5.5, 7):
        space = WeightSequence.dirichlet(alpha)
        for j in range(3):
            for l in range(3):
                if alpha <= j + l + 1:
                    continue
                c = _shifted_falling_product(j, l)
                for start in (0, 5, 64, 256, 1000):
                    want = mp.fsum(cm * mp.zeta(alpha - m, start + 1) for m, cm in enumerate(c))
                    for eps in (1e-10, 1e-13):
                        summed_terms.clear()
                        got = falling_product_sum(space, j, l, 1.0, eps, start=start)
                        case = (alpha, j, l, start, eps)
                        assert abs(mp.mpc(got.value) - want) <= got.err, case
                        assert got.err <= eps + 1e-14 * abs(got.value), case
                        assert sum(hi - lo for lo, hi in summed_terms) <= 256, case


def _shifted_falling_product(j, l):
    """Integer c_m with P_j(k) P_l(k) = sum_m c_m (k+1)**m."""
    c = [1]
    for nu in list(range(j)) + list(range(l)):
        # times ((k+1) - (nu+1))
        c = [a - (nu + 1) * b for a, b in zip([0] + c, c + [0])]
    return c


def test_falling_product_sum_from_start_matches_mpmath():
    # sum_{k>=L} P_j(k) P_l(k) u^k / w_k at 30 digits, in every regime: with
    # P_j P_l in powers of k + 1, u = 1 gives Hurwitz zetas zeta(alpha - m, L+1)
    # and unimodular u != 1 Lerch transcendents; geometric sums are summed
    mp.mp.dps = 30

    def summed(j, l, u, L, w):
        terms = (mp.ff(k, j) * mp.ff(k, l) * mp.mpc(u) ** k / w(k) for k in range(L, L + 400))
        return mp.fsum(terms)

    def lerch(j, l, u, L, alpha):
        u = mp.mpc(u)
        c = _shifted_falling_product(j, l)
        if u == 1:
            return mp.fsum(cm * mp.zeta(alpha - m, L + 1) for m, cm in enumerate(c))
        return u**L * mp.fsum(cm * mp.lerchphi(u, alpha - m, L + 1) for m, cm in enumerate(c))

    custom = WeightSequence.custom([1.0, 1.3, 1.6])
    ratio = mp.mpf(1.6) / mp.mpf(1.3)
    flat = WeightSequence.custom([1.0, 2.0, 2.0], extension="constant")
    cases = [
        # interior, dirichlet and custom weights
        (D1, 1, 2, 0.6 * np.exp(0.7j), 30, lambda k: mp.mpf(k + 1)),
        (flat, 2, 0, 0.5j, 12, lambda k: mp.mpf(1 if k == 0 else 2)),
        # a growing custom continuation on the circle
        (custom, 1, 1, np.exp(2j), 10, lambda k: mp.mpf(1.6) * ratio ** (k - 2)),
        # u = 1 and unimodular u != 1 over dirichlet weights
        (WeightSequence.dirichlet(4.0), 1, 1, 1.0, 100, 4.0),
        (WeightSequence.dirichlet(3.0), 1, 0, np.exp(1j * np.pi / 3), 200, 3.0),
        (WeightSequence.dirichlet(2.5), 0, 0, -1.0, 70, 2.5),
    ]
    for space, j, l, u, L, w in cases:
        got = falling_product_sum(space, j, l, u, 1e-10, start=L)
        want = summed(j, l, u, L, w) if callable(w) else lerch(j, l, u, L, w)
        assert abs(mp.mpc(got.value) - want) <= got.err, (space, j, l, u)
        assert got.err <= 1e-10 + 1e-14 * abs(got.value)


def test_circle_sums_match_polylog(summed_terms):
    # sum_{k>=start} P_j(k) P_l(k) u^k / (k+1)^alpha on the circle is
    # sum_m c_m (Li_{alpha-m}(u)/u - sum_{k<start} u^k (k+1)^(m-alpha)) at
    # 30 digits: every value within its err alone, err at most eps plus
    # rounding, and at most max(64, start) + ceil(40/|theta|) terms summed
    mp.mp.dps = 30
    refs, inverse_powers = {}, {}

    def shifted_sum(s, u, start):  # start is 0 or 100
        if (s, u) not in refs:
            w = mp.mpc(u) / abs(mp.mpc(u))
            if s not in inverse_powers:
                inverse_powers[s] = [mp.mpf(k + 1) ** -s for k in range(100)]
            head, wk = mp.mpf(0), mp.mpf(1)
            for inv in inverse_powers[s]:
                head, wk = head + wk * inv, wk * w
            refs[s, u] = mp.polylog(s, w) / w, head
        return refs[s, u][0] - (refs[s, u][1] if start else 0)

    for alpha in (2, 2.5, 3, 4, 5.5, 7):
        space = WeightSequence.dirichlet(alpha)
        for j, l in [(j, l) for j in range(3) for l in range(3) if alpha > j + l + 1]:
            c = _shifted_falling_product(j, l)
            for u in (-1.0, 1j, np.exp(0.01j), np.exp(0.001j)):
                for start in (0, 100):
                    summed_terms.clear()
                    got = falling_product_sum(space, j, l, u, 1e-10, start)
                    want = mp.fsum(cm * shifted_sum(alpha - m, u, start) for m, cm in enumerate(c))
                    case = (alpha, j, l, u, start)
                    assert abs(mp.mpc(got.value) - want) <= got.err, case
                    assert got.err <= 1e-10 + 1e-14 * abs(got.value), case
                    budget = max(64, start) + math.ceil(40 / abs(np.angle(u)))
                    assert sum(hi - lo for lo, hi in summed_terms) <= budget, case


def test_sums_near_one_cover_or_refuse():
    # S(u) is only Hoelder-continuous at u = 1, so u within 1e-12 of 1 is
    # summed where it is: a bar that covers the 40-digit polylog value, or a
    # CannotCertifyError (those u need about 40/|u - 1| terms), never S(1)
    mp.mp.dps = 40
    cases = [
        (WeightSequence.dirichlet(1.1), 0, 0, 1 - 1e-13),
        (WeightSequence.dirichlet(1.1), 0, 0, 1 - 1e-15),
        (WeightSequence.dirichlet(3.1), 1, 1, 1 - 1e-13),
        (WeightSequence.dirichlet(3.1), 1, 1, np.exp(1e-13j)),
    ]
    for space, j, l, u in cases:
        w = mp.mpc(u)
        want = mp.fsum(
            cm * mp.polylog(space.alpha - m, w) for m, cm in enumerate(_shifted_falling_product(j, l))
        ) / w
        try:
            if j == 0:  # the kernel at the boundary point 1, evaluated at u
                got = kernel_eval(space, KernelSpec(1.0, 0), u, eps=1e-12)
            else:
                got = falling_product_sum(space, j, l, u, 1e-12)
        except CannotCertifyError:
            continue
        assert abs(mp.mpc(got.value) - want) <= got.err, (space, j, l, u)
    # a boundary kernel paired with itself sums at exactly u = 1, although
    # conj(beta) beta rounds to below 1 here
    space, beta = WeightSequence.dirichlet(3.1), np.exp(1.6j)
    assert np.conj(beta) * beta != 1.0
    got = kernel_inner(space, KernelSpec(beta, 1), KernelSpec(beta, 1), eps=1e-12)
    want = mp.fsum(cm * mp.zeta(3.1 - m) for m, cm in enumerate(_shifted_falling_product(1, 1)))
    assert abs(mp.mpc(got.value) - want) <= got.err


def test_kernel_sums_refuse_bars_above_eps():
    # the terms P_8(k)^2 (-0.855i)^k reach about 1e27 and cancel: the
    # rounding bar (about 2e12, above the value) exceeds eps, so it is refused
    with pytest.raises(CannotCertifyError):
        kernel_inner(H2, KernelSpec(0.9j, 8), KernelSpec(0.95, 8), 1e-13)


def test_kernel_inner_from_start_matches_40_digit_sums():
    # <k_a, k_b> from index start on is sum_{k>=start} P_j(k) P_l(k)
    # conj(beta_a)^(k-j) beta_b^(k-l) / w_k; at u = conj(beta_a) beta_b = 1
    # it is the scale times Hurwitz zetas.  Each value must lie within err
    # alone: interior points, the u = 1 boundary, and a kernel at 0 with start
    # below its order (one term) and above it (nothing left)
    mp.mp.dps = 40

    def summed(space, a, b, start):
        ca, cb = mp.conj(mp.mpc(complex(a.beta))), mp.mpc(complex(b.beta))
        j, l = a.order, b.order
        return mp.fsum(
            mp.ff(k, j) * mp.ff(k, l) * ca ** (k - j) * cb ** (k - l) / mp.mpf(k + 1) ** space.alpha
            for k in range(max(start, j, l), 600)
        )

    def at_one(space, a, b, start):
        scale = mp.conj(mp.mpc(complex(a.beta))) ** -a.order * mp.mpc(complex(b.beta)) ** -b.order
        c = _shifted_falling_product(a.order, b.order)
        return scale * mp.fsum(cm * mp.zeta(space.alpha - m, start + 1) for m, cm in enumerate(c))

    edge = np.exp(0.3j)
    cases = [
        (D1, KernelSpec(0.5 + 0.2j, 1), KernelSpec(0.3 - 0.4j, 2), (0, 7, 40), summed),
        (H2, KernelSpec(-0.6j, 0), KernelSpec(0.5, 1), (0, 3, 25), summed),
        (WeightSequence.dirichlet(3.5), KernelSpec(edge, 1), KernelSpec(edge, 0), (0, 10, 300), at_one),
        (WeightSequence.dirichlet(4.0), KernelSpec(1.0, 1), KernelSpec(1.0, 1), (0, 100), at_one),
        (D1, KernelSpec(0.0, 2), KernelSpec(0.4 + 0.1j, 1), (0, 1, 2, 3), summed),
        (D2, KernelSpec(0.3j, 1), KernelSpec(0.0, 1), (1, 2), summed),
    ]
    for space, a, b, starts, reference in cases:
        for start in starts:
            got = kernel_inner(space, a, b, eps=1e-12, start=start)
            want = reference(space, a, b, start)
            assert abs(mp.mpc(got.value) - want) <= got.err, (space, a, b, start)
            assert got.err <= 1e-11 + 1e-13 * abs(got.value), (space, a, b, start)
    # a kernel at 0 has one nonzero coefficient, at its order: from past it, 0
    past = kernel_inner(D1, KernelSpec(0.0, 2), KernelSpec(0.4 + 0.1j, 1), start=3)
    assert past.value == 0 and past.err == 0


def test_kernel_values_match_coefficient_sums():
    # k(z) = sum_k P_n(k) conj(beta)^(k-n) z^k / w_k summed at 40 digits; the
    # value must lie within err alone.  Kernels at 0 and evaluation at 0 take
    # the one-term branch, whose error must scale with the value: n! / w_n is
    # large for Bergman weights and for a custom prefix of small weights
    mp.mp.dps = 40
    tiny = WeightSequence.custom([1.0, 1e-6, 1e-12, 1e-12])
    cases = [
        (D1, KernelSpec(0.4 + 0.3j, 2), 0.5 - 0.2j),
        (H2, KernelSpec(-0.6j, 1), 0.7),
        (D2, KernelSpec(0.0, 3), 0.7 + 0.1j),
        (D1, KernelSpec(0.5, 0), 0.0),
        (tiny, KernelSpec(0.0, 2), 0.7 + 0.1j),
        (tiny, KernelSpec(0.3 - 0.5j, 1), 0.0),
        (WeightSequence.dirichlet(-1.0), KernelSpec(0.0, 12), 0.9 - 0.3j),
    ]
    for space, spec, z in cases:
        v = kernel_eval(space, spec, z, eps=1e-13)
        beta, n, zz = mp.conj(mp.mpc(complex(spec.beta))), spec.order, mp.mpc(complex(z))

        def w(k):
            if space.kind == "custom":
                return mp.mpf(space.weight(k))
            return mp.mpf(k + 1) ** space.alpha

        exact = mp.fsum(mp.ff(k, n) * beta ** (k - n) * zz**k / w(k) for k in range(n, 600))
        assert abs(mp.mpc(v.value) - exact) <= v.err, (space, spec, z)
        assert v.err <= 1e-13 * max(1.0, abs(v.value)), (space, spec, z)


def test_kernel_series_over_growing_custom_weights_outside_the_disk():
    # 1/w_k <= M ratio^-k, so the kernel at |beta| = 1.05 < sqrt(1.2), which is
    # reproducible, has a geometric envelope with r = 1.05 / 1.2 < 1 (r = |beta|
    # would be no envelope at all); the envelope covers the unstored terms
    space = WeightSequence.custom([1.0, 1.2, 1.44])
    for spec in (KernelSpec(1.05, 0), KernelSpec(-1.05j, 1), KernelSpec(0.5, 2)):
        s = kernel_series(space, spec, eps=1e-12)
        assert s.tail_r < 1
        far = kernel_coefficients(space, spec, len(s) + 300)[len(s) :]
        ks = np.arange(len(s), len(s) + 300)
        assert np.all(np.abs(far) <= s.tail_M * s.tail_r**ks * (ks + 1.0) ** s.tail_gamma)


def test_kernel_series_on_the_circle_under_growing_custom_weights():
    # weights growing by 1.1 make |beta| = 1 an interior case with the
    # geometric ratio |beta| / 1.1, as they do the reproducible |beta| > 1
    space = WeightSequence.custom([1.0, 1.1, 1.21])
    for beta in (1.0, 1j, 1.02, -1.04):
        spec = KernelSpec(beta, 1)
        s = kernel_series(space, spec, eps=1e-10)
        assert s.tail_r == pytest.approx(abs(beta) / 1.1, rel=1e-15)
        assert s.coeffs.tobytes() == kernel_coefficients(space, spec, len(s)).tobytes()
        far = kernel_coefficients(space, spec, len(s) + 2000)[len(s) :]
        ks = np.arange(len(s), len(s) + 2000)
        assert np.all(np.abs(far) <= s.tail_M * s.tail_r**ks * (ks + 1.0) ** s.tail_gamma), beta


def test_kernel_series_refuses_a_multiplier_space_up_front():
    quot = WeightSequence.multiplier(CPoly([1, -0.5]))
    for spec in (KernelSpec(0.5, 0), KernelSpec(0.0, 1), KernelSpec(0.9j, 2, "derivative_of_kernel")):
        with pytest.raises(ValueError, match="non-orthogonal monomials"):
            kernel_series(quot, spec)
