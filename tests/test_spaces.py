"""Weighted spaces: inner products, kernels, reproducibility certificates."""

import numpy as np
import pytest

from opa.errors import CannotCertifyError, NotReproducibleError
from opa.series import CPoly, TruncSeries, blaschke_factor, geometric_series
from opa.spaces import (
    KernelSpec,
    WeightSequence,
    falling_product_sum,
    inner_poly,
    inner_series,
    is_reproducible,
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


def test_custom_weights_ratio_and_constant_extension():
    w = WeightSequence.custom([1, 2, 3, 3.3], extension="ratio")
    assert w.weight(0) == 1.0
    assert w.weight(3) == 3.3
    assert abs(w.weight(4) - 3.3 * 1.1) < 1e-12
    wc = WeightSequence.custom([1, 2, 3], extension="constant")
    assert wc.weight(10) == 3.0


def test_custom_weight_validation():
    with pytest.raises(ValueError):
        WeightSequence.custom([2, 2, 2])  # w_0 != 1
    with pytest.raises(ValueError):
        WeightSequence.custom([1, -1, 1])
    with pytest.raises(ValueError):
        WeightSequence.custom([1, 2, 8])  # final ratio far from 1


def test_multiplier_requires_zero_free_polynomial():
    WeightSequence.multiplier(CPoly([1, -0.5]))  # root 2, fine
    with pytest.raises(ValueError):
        WeightSequence.multiplier(CPoly([-0.5, 1]))  # root 1/2 inside


def test_growth_gamma():
    assert H2.growth_gamma == 0.0
    assert D2.growth_gamma == 2.0
    assert WeightSequence.dirichlet(-1.0).growth_gamma == 0.0
    w = WeightSequence.custom([1, 2, 3], extension="constant")
    assert w.growth_gamma >= 1.0


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


def test_reproducibility_callable_extension_undecidable():
    # oscillating continuation: the ratio window never settles
    wobble = WeightSequence.custom(
        [1, 1.5, 1.5], extension=lambda k: 1.5 + 0.4 * (-1) ** k
    )
    cert = is_reproducible(wobble, 1.0, 0)
    assert cert.reproducible is None
    with pytest.raises(Exception):
        cert.require()


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
