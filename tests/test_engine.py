"""Optimal systems, sweeps, stabilization, and structural certificates."""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import closed_forms
from band_reference import backward_reference, factor_reference, forward_reference, to_band, to_dense
from opa import engine
from opa.errors import (
    CannotCertifyError,
    EnvelopeOverflowError,
    NotPositiveDefiniteError,
    OpaError,
    OrthogonalDataError,
)
from opa.engine import (
    OpaResult,
    _series_shift_horizon,
    approximant_sweep,
    build_system,
    cyclicity_diagnostic,
    detect_stabilization,
    is_inner,
    optimal_approximant,
    orthogonal_to_shifts,
    orthogonality_residual,
    stabilization_dossier,
    taylor_residuals,
)
from opa.linalg import cholesky_band, cholesky_factor
from opa.series import (
    CPoly,
    TruncSeries,
    blaschke_factor,
    blaschke_product,
    geometric_series,
    power_tail_bound,
    reciprocal_taylor,
    series_mul,
)
from opa.spaces import (
    Certified,
    KernelSpec,
    WeightSequence,
    gram_band,
    inner_poly,
    kernel_series,
    lift,
    norm_sq_any,
    norm_sq_poly,
    shift_products,
)

H2 = WeightSequence.dirichlet(0.0)
D1 = WeightSequence.dirichlet(1.0)
D2 = WeightSequence.dirichlet(2.0)

ONE = CPoly([1])


def closed_form_dist_sq(alpha: float, n: int) -> float:
    """Independent oracle for f = 1 - z in the (k+1)^alpha-weighted space.

    Substituting b_k = (pf - 1)_k maps degree-n approximants bijectively onto
    the hyperplane sum b_k = -1 (k = 0..n+1); the weighted least-norm point
    gives dist^2 = 1 / sum_{k=0}^{n+1} w_k^{-1}.
    """
    return 1.0 / sum((k + 1.0) ** -alpha for k in range(n + 2))


# -- systems -----------------------------------------------------------------


def test_build_system_hand_values():
    G, rhs, _ = build_system(H2, CPoly([1, -1]), ONE, 1)
    assert np.allclose(G, to_band(np.array([[2, -1], [-1, 2]]), 1))
    assert np.allclose(rhs, [1, 0])
    G_d1, rhs_d1, _ = build_system(D1, CPoly([1, -1]), ONE, 0)
    assert np.allclose(G_d1, [[3]])
    assert np.allclose(rhs_d1, [1])


def test_build_system_constant_f_is_diagonal():
    for space in (H2, D1):
        G, rhs, _ = build_system(space, ONE, ONE, 3)
        assert G.shape == (4, 1)
        assert np.allclose(to_dense(G), np.diag(space.weights(4)))
        assert np.allclose(rhs, [1, 0, 0, 0])


def reference_shift(f, k):
    """z^k f, its envelope re-based scalar by scalar: |(z^k f)_t| = |f_{t-k}|
    <= M r^-k r^t (t+1)^gamma, times ((N+2)/(N+k+2))^gamma when gamma < 0."""
    if isinstance(f, CPoly) or f.tail_M == 0.0:
        return f.shift(k)
    M = f.tail_M * f.tail_r ** (-k)
    if f.tail_gamma < 0:
        M *= ((f.order + 2.0) / (f.order + k + 2.0)) ** f.tail_gamma
    return TruncSeries(np.concatenate([np.zeros(k), f.coeffs]), M, f.tail_r, f.tail_gamma)


def reference_inner(space, a, b, eps):
    """<a, b> for one pair: exact polynomial sums carry rounding only; stored
    series add to the rounding of the summed overlap the stretch where only
    the shorter prefix has ended and the tail beyond both prefixes."""
    if isinstance(a, CPoly) and isinstance(b, CPoly):
        v = inner_poly(space, a, b)
        return Certified(v, 1e-16 * (1.0 + abs(v)))
    a, b = (x if isinstance(x, TruncSeries) else TruncSeries.from_poly(x) for x in (a, b))
    if space.kind == "multiplier":
        a, b, space = a.mul_poly(space.m), b.mul_poly(space.m), H2
    L = min(len(a), len(b))
    w = space.weights(L)
    value = complex(np.sum(w * a.coeffs[:L] * np.conj(b.coeffs[:L])))
    err = 1e-16 * float(np.sum(np.abs(w * a.coeffs[:L] * b.coeffs[:L])))
    short, long_ = (a, b) if len(a) <= len(b) else (b, a)
    Lmax = len(long_)
    if short.tail_M > 0.0 and Lmax > L:
        ks = np.arange(L, Lmax)
        env = short.tail_M * short.tail_r**ks * (ks + 1.0) ** short.tail_gamma
        err += float(np.sum(space.weights(Lmax)[L:] * np.abs(long_.coeffs[L:]) * env))
    if a.tail_M > 0.0 and b.tail_M > 0.0:
        W, g, rho = space.tail_weight_majorant(Lmax)
        q = a.tail_r * b.tail_r * rho
        gamma = a.tail_gamma + b.tail_gamma + g
        err += power_tail_bound(a.tail_M * b.tail_M * W, q, gamma, Lmax - 1)
    if err > eps:
        raise CannotCertifyError(f"reference error {err:.3g} exceeds eps={eps:.3g}")
    return Certified(value, err)


def reference_lift(space, *xs):
    """A quotient space's data as the H2 data it is read through, m x for each
    x, lifted before any shift; any other space and its data as given."""
    if space.kind != "multiplier":
        return (space, *xs)
    return (H2, *(x.mul_poly(space.m) for x in xs))


def reference_system(space, f, g, n, eps):
    """The Gram system pair by pair: G[k, j] = <z^j f, z^k f>, rhs[k] = <g, z^k f>."""
    G = np.zeros((n + 1, n + 1), dtype=complex)
    rhs = np.zeros(n + 1, dtype=complex)
    err = 0.0
    for k in range(n + 1):
        for j in range(k, n + 1):
            c = reference_inner(space, reference_shift(f, j), reference_shift(f, k), eps)
            G[k, j], G[j, k] = c.value, np.conj(c.value)
            err = max(err, c.err)
        r = reference_inner(space, g, reference_shift(f, k), eps)
        rhs[k] = r.value
        err = max(err, r.err)
    return G, rhs, err


def _series_f(length):
    # a Blaschke product times 1/(1 - c z), both stored to the same length
    b = blaschke_product([0.5, -0.3 + 0.4j], length=length)
    return series_mul(b, geometric_series(0.4 - 0.2j, length=length))


def _certify_f():
    # the shape a certificate run on stored series meets: a slower Blaschke
    # product times 1/(1 - c z), stored to 600, shift horizon 186 at 1e-10
    b = blaschke_product([0.7, -0.5j], length=600)
    return series_mul(b, geometric_series(0.4 - 0.2j, length=600))


def test_build_system_matches_pairwise_reference(monkeypatch):
    monkeypatch.setattr(engine, "_ENTRY_EPS", 1e-9)  # the bound asked of series entries
    quot = WeightSequence.multiplier(CPoly([1, -0.5 + 0.2j]))
    custom = WeightSequence.custom([1.0, 1.4, 1.5, 1.45])
    f = CPoly([0.7, -1.1 + 0.3j, 0.4, 0.2j])
    g = CPoly([1.0, 0.5j, -0.25])
    # short enough that the certified tails, not rounding, set entry_err
    series = _series_f(80)
    cases = [(space, f, g, 14) for space in (H2, D1, custom, quot)]
    cases += [(space, series, ONE, 10) for space in (H2, quot)]
    cases += [(H2, f, series, 10), (quot, series, g, 8)]
    cases += [(H2, _certify_f(), ONE, 16)]  # a long series, J = K = 16
    for space, ff, gg, n in cases:
        G, rhs, err = reference_system(space, ff, gg, n, 1e-9)
        G_b, rhs_b, err_b = build_system(space, ff, gg, n)
        b = G_b.shape[1] - 1  # the entries beyond the band vanish
        assert np.max(np.abs(G_b - to_band(G, b))) <= 1e-14 * np.max(np.abs(G))
        assert np.max(np.abs(np.tril(G, -b - 1)), initial=0) <= 1e-14 * np.max(np.abs(G))
        assert np.max(np.abs(rhs_b - rhs)) <= 1e-14 * np.max(np.abs(rhs))
        assert abs(err_b - err) <= 1e-12 * err


def test_build_system_refuses_short_prefixes_like_reference(monkeypatch):
    quot = WeightSequence.multiplier(CPoly([1, -0.5]))
    outcomes = []
    for space in (H2, quot):
        for length in (40, 60, 80, 120):
            f = _series_f(length)
            for eps in (1e-12, 1e-9):
                monkeypatch.setattr(engine, "_ENTRY_EPS", eps)
                raised = []
                builds = (lambda: reference_system(space, f, ONE, 6, eps), lambda: build_system(space, f, ONE, 6))
                for build in builds:
                    try:
                        build()
                        raised.append(False)
                    except CannotCertifyError:
                        raised.append(True)
                assert raised[0] == raised[1], (space, length, eps)
                outcomes.append(raised[0])
    assert any(outcomes) and not all(outcomes)


def _shift_cases():
    """(space, h, f, K) over the weights, envelopes and lengths that the
    shift products distinguish."""
    D2 = WeightSequence.dirichlet(2.0)
    quot = WeightSequence.multiplier(CPoly([1, -0.5 + 0.2j]))
    decaying = WeightSequence.custom([1.0, 1.4, 1.5, 1.45])
    # growing, with a prefix longer than the short series below, so the
    # weight majorant depends on where the tail starts
    growing = WeightSequence.custom([1.0, 1.3, 1.1, 1.25, 1.2, 1.22, 1.25, 1.28])
    f = CPoly([0.7, -1.1 + 0.3j, 0.4, 0.2j])
    g = CPoly([1.0, 0.5j, -0.25])
    series = _series_f(80)  # gamma = 2
    b2 = blaschke_product([0.5, -0.3 + 0.4j], length=60)  # gamma = 1
    boundary = kernel_series(D2, KernelSpec(1.0, 0), length=64)  # r = 1, gamma = -2
    long_b = blaschke_product([0.6, -0.5j, 0.3 + 0.3j], length=400)
    certify_f = _certify_f()
    return [
        (H2, series, series, 12),
        (D1, series, series, 12),
        (D2, b2, b2, 10),
        (decaying, series, series, 10),
        (growing, geometric_series(0.3, length=3), blaschke_factor(0.4, length=5), 9),
        (growing, series, series, 6),
        (quot, b2, b2, 10),
        (quot, series, g, 8),
        (quot, g, series, 8),
        (quot, f, g, 8),
        (H2, f, g, 8),
        (D1, g, f, 8),
        (D2, boundary, boundary, 12),
        (D2, boundary, CPoly([-1, 1]), 20),
        (quot, boundary, boundary, 6),
        (H2, _series_f(50), _series_f(120), 10),
        (H2, _series_f(200), _series_f(60), 10),
        # slow envelopes on short prefixes: the one-sided stretch dominates
        (D1, geometric_series(0.9, length=20), geometric_series(0.8, length=200), 10),
        (D1, geometric_series(0.8, length=200), geometric_series(0.9, length=20), 10),
        (D1, TruncSeries.from_poly(g), series, 5),
        (H2, geometric_series(0.5, length=30), f, 10),
        (H2, long_b, long_b, 15),
        # long windows: a series against itself up to its shift horizon, where
        # z^k f is stored for k more indices after f has ended; an unequal pair
        # in both orders, where with h the longer both stretch windows (h ended
        # and f stored, f ended and h stored) are non-empty for every row
        (H2, certify_f, certify_f, _series_shift_horizon(H2, certify_f, certify_f, 1e-10)),
        (D1, _series_f(50), _series_f(120), 80),
        (D1, _series_f(120), _series_f(50), 80),
    ]


def test_shift_products_match_pairwise_reference():
    for space, h, f, K in _shift_cases():
        values, errs = shift_products(space, h, f, K)
        ref_space, h, f = reference_lift(space, h, f)
        refs = [reference_inner(ref_space, h, reference_shift(f, k), np.inf) for k in range(K + 1)]
        ref_values = np.array([c.value for c in refs])
        ref_errs = np.array([c.err for c in refs])
        assert np.max(np.abs(values - ref_values)) <= 1e-14 * np.max(np.abs(ref_values))
        assert np.all(np.abs(errs - ref_errs) <= 1e-12 * ref_errs), (space, K)


def test_shift_products_rows_match_pairwise_reference():
    # z^j h against z^k f for j >= 1: each row's envelope re-based like f's
    for space, h, f, K in _shift_cases():
        J = min(K, 6)
        values, errs = shift_products(space, h, f, K, J)
        assert values.shape == errs.shape == (J + 1, K + 1)
        ref_space, h, f = reference_lift(space, h, f)
        refs = [
            [reference_inner(ref_space, reference_shift(h, j), reference_shift(f, k), np.inf)
             for k in range(K + 1)]
            for j in range(J + 1)
        ]
        ref_values = np.array([[c.value for c in row] for row in refs])
        ref_errs = np.array([[c.err for c in row] for row in refs])
        assert np.max(np.abs(values - ref_values)) <= 1e-14 * np.max(np.abs(ref_values))
        assert np.all(np.abs(errs - ref_errs) <= 1e-12 * ref_errs), (space, K)


def test_build_system_makes_one_gram_build_and_one_shift_products_call(monkeypatch):
    # whatever the data: the Gram band, then the right-hand side
    calls = []

    def counted(name, fn):
        def call(*args):
            calls.append(name)
            return fn(*args)

        return call

    monkeypatch.setattr(engine, "gram_band", counted("gram_band", gram_band))
    monkeypatch.setattr(engine, "shift_products", counted("shift_products", shift_products))
    monkeypatch.setattr(engine, "_ENTRY_EPS", 1e-9)
    quot = WeightSequence.multiplier(CPoly([1, -0.5 + 0.2j]))
    f = CPoly([0.7, -1.1 + 0.3j, 0.4, 0.2j])
    cases = [(D1, f), (H2, _series_f(200)), (quot, f), (quot, _series_f(200)), (D1, TruncSeries.from_poly(f))]
    for space, ff in cases:
        for n in (0, 1, 12):
            calls.clear()
            build_system(space, ff, ONE, n)
            assert calls == ["gram_band", "shift_products"], (space, n)


def test_is_inner_makes_one_shift_products_call(monkeypatch):
    # the norm is the k = 0 entry of the row that checks the shifts
    import opa.engine
    import opa.spaces

    calls = []

    def counted(*args):
        calls.append(args)
        return shift_products(*args)

    monkeypatch.setattr(opa.engine, "shift_products", counted)
    monkeypatch.setattr(opa.spaces, "shift_products", counted)
    b = blaschke_factor(0.5, eps=1e-14, length=250)
    cases = [(H2, b, None), (H2, b, 7), (D1, CPoly([0, 1]), None), (QUOT, CPoly([0.6, -0.8j]), None)]
    for space, f, max_shift in cases:
        calls.clear()
        cert = is_inner(space, f, max_shift=max_shift)
        assert len(calls) == 1 and calls[0][3] == cert.max_shift_checked, (space, max_shift)


def test_shift_certificates_match_pairwise_reference():
    p = CPoly([0.3, -0.2 + 0.1j, 0.05])
    for space, h, f, K in _shift_cases():
        ref_space, ref_h, ref_f = reference_lift(space, h, f)
        refs = [reference_inner(ref_space, ref_h, reference_shift(ref_f, k), np.inf) for k in range(K + 1)]
        ortho = orthogonal_to_shifts(space, f, h, eps=1e6, k_max=K)
        assert ortho.max_abs == pytest.approx(max(abs(c.value) for c in refs[1:]), abs=1e-14)
        assert ortho.err == pytest.approx(max(c.err for c in refs[1:]), rel=1e-12)
        # h against its own shifts, after its norm
        own = [reference_inner(ref_space, ref_h, reference_shift(ref_h, j), np.inf) for j in range(K + 1)]
        cert = is_inner(space, h, max_shift=K, eps=1e6)
        assert cert.norm_sq == pytest.approx(own[0].value.real, rel=1e-14)
        assert cert.max_residual == pytest.approx(max(abs(c.value) for c in own[1:]), abs=1e-14)
        assert cert.err == pytest.approx(max(c.err for c in own), rel=1e-12)
        # the optimality conditions of p against g = h, refused alike
        pf = reference_lift(space, p * f if isinstance(f, CPoly) else f.mul_poly(p))[1]
        try:
            pairs = [
                (reference_inner(ref_space, pf, reference_shift(ref_f, k), 1e-9).value,
                 reference_inner(ref_space, ref_h, reference_shift(ref_f, k), 1e-9).value)
                for k in range(K + 1)
            ]
        except CannotCertifyError:
            with pytest.raises(CannotCertifyError):
                orthogonality_residual(space, f, h, OpaResult(K, p, 0.0))
            continue
        expected = max(abs(c - d) for c, d in pairs)
        scale = max(max(abs(c), abs(d)) for c, d in pairs)
        residual = orthogonality_residual(space, f, h, OpaResult(K, p, 0.0))
        assert abs(residual - expected) <= 1e-14 * scale


def test_overflowing_shift_envelope_is_refused():
    # M r^-k overflows near k = 300 for r = 0.1; the check must not go on with
    # an infinite or NaN bound
    b = blaschke_factor(0.1, length=40)
    with pytest.raises(EnvelopeOverflowError):
        orthogonal_to_shifts(H2, b, b, eps=1e-10, k_max=400)


def test_nan_data_never_passes_the_factor():
    with pytest.raises(NotPositiveDefiniteError):
        approximant_sweep(WeightSequence.dirichlet(0.0), CPoly([1, np.nan]), ONE, 2)
    with pytest.raises(ValueError):
        space = WeightSequence.custom([1.0, 1.1, 1.2], extension=lambda k: np.nan)
        approximant_sweep(space, CPoly([1, -0.5, 0.25, 0.1]), ONE, 2)


def test_overflowing_envelope_product_is_refused_without_warning():
    # each shifted envelope M r^-k is finite, their product for k, j near 200
    # is not; the bound used to turn into NaN with two RuntimeWarnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EnvelopeOverflowError):
            build_system(H2, blaschke_factor(0.1, length=40), ONE, 200)


QUOT = WeightSequence.multiplier(CPoly([1, -0.5 + 0.2j, 0.1j]))


@settings(max_examples=60, deadline=None)
@given(
    coeffs=st.lists(
        st.complex_numbers(max_magnitude=2.0, allow_subnormal=False), min_size=1, max_size=6
    ),
    space=st.sampled_from([WeightSequence.dirichlet(a) for a in (-1.0, 0.0, 1.0, 2.0, 3.0)] + [QUOT]),
    n=st.integers(0, 30),
)
def test_banded_sweep_matches_lapack_on_the_pairwise_gram(coeffs, space, n):
    f = CPoly(coeffs)
    assume(abs(f.coefficient(0)) >= 0.1)
    G, rhs, _ = reference_system(space, f, ONE, n, np.inf)
    gg = norm_sq_any(space, ONE).value
    cond = np.linalg.cond(G)
    assume(cond < 1e10)
    y = np.linalg.solve(np.linalg.cholesky(G), rhs)
    dist = gg - np.cumsum(np.abs(y) ** 2)
    sweep = approximant_sweep(space, f, ONE, n)
    solo = optimal_approximant(space, f, ONE, n)
    for r in sweep + [solo]:
        a = np.linalg.solve(G[: r.n + 1, : r.n + 1], rhs[: r.n + 1])
        tol = 1e-14 * cond
        assert abs(r.distance_sq - dist[r.n]) <= tol * gg, (r.n, cond)
        assert np.max(np.abs(r.p_star.padded(r.n + 1) - a)) <= tol * np.max(np.abs(a)), (r.n, cond)


def _sweep_reference(space, f, g, n_max):
    """(X, dist, errs) of the sweep as it stood before it shared its back
    substitution: L^H X = triu(y 1^T), the right-hand side filled in as each
    row is reached."""
    L, y, dist, norm_err, entry_err = engine._factored_system(space, f, g, n_max)
    band = L.shape[1] - 1
    L = to_dense(L)
    X = np.zeros_like(L)
    for i in range(n_max, -1, -1):
        hi = i + band + 1
        X[i, i:] = y[i]
        X[i] = (X[i] - np.conj(L[i + 1 : hi, i]) @ X[i + 1 : hi]) / np.conj(L[i, i])
    ns = np.arange(n_max + 1)
    errs = np.maximum(norm_err + np.abs(X).sum(axis=0) * 1e-12, entry_err * (ns + 2))
    return X, dist, errs


def test_sweep_is_bit_identical_to_the_fill_as_you_go_loop():
    f = CPoly([0.7, -1.1 + 0.3j, 0.4, 0.2j])
    g = CPoly([1.0, 0.5j, -0.25])
    cases = [(H2, f, ONE, 40), (D2, f, g, 40), (QUOT, f, ONE, 30), (H2, _series_f(200), ONE, 12)]
    for space, ff, gg, n_max in cases:
        X, dist, errs = _sweep_reference(space, ff, gg, n_max)
        for r in approximant_sweep(space, ff, gg, n_max):
            assert r.p_star.coeffs.tobytes() == CPoly(X[: r.n + 1, r.n]).coeffs.tobytes(), (space, r.n)
            assert (r.distance_sq, r.err) == (dist[r.n], errs[r.n]), (space, r.n)


def test_polynomial_gram_and_factor_vanish_outside_the_band():
    f = CPoly([0.7, -1.1 + 0.3j, 0.4, 0.2j])
    for space, d in ((H2, 3), (D2, 3), (QUOT, 5)):
        # the dense products of every pair, against build_system's band
        G = shift_products(space, f, f, 40, 40)[0].T
        assert np.all(np.tril(G, -d - 1) == 0) and np.all(np.triu(G, d + 1) == 0)
        assert np.count_nonzero(np.tril(G, -d)) > 0
        G_band = build_system(space, f, ONE, 40)[0]
        assert G_band.shape == (41, d + 1)
        assert np.max(np.abs(G_band - to_band(G, d))) <= 1e-15 * np.max(np.abs(G))
        L = to_dense(cholesky_band(G_band))
        assert np.all(np.tril(L, -d - 1) == 0)
        L_dense = to_dense(cholesky_factor(G))
        assert np.max(np.abs(L - L_dense)) <= 1e-13 * np.max(np.abs(L_dense))


def _dense_band_solves(L, b, rhs, ns):
    """y = L^-1 rhs and the back substitutions of the degrees ns, by the loops
    that a dense L with b diagonals below the main one took."""
    y = forward_reference(L, b, rhs)
    X = np.where(np.arange(y.size)[:, None] <= ns, y[:, None], 0)
    return y, backward_reference(L, b, X)


BAND_SPACES = [WeightSequence.dirichlet(a) for a in (-1.0, 0.0, 1.0, 2.0, 3.0)] + [
    WeightSequence.custom([1.0, 1.5, 1.2, 1.4, 1.35]),
    WeightSequence.multiplier(CPoly([1, -0.5 + 0.2j])),
]


@settings(max_examples=100, deadline=None)
@given(
    coeffs=st.lists(
        st.complex_numbers(max_magnitude=2.0, allow_subnormal=False), min_size=2, max_size=13
    ),
    space=st.sampled_from(BAND_SPACES),
    n=st.integers(0, 60),
)
# in the Bergman space the product of z^0 f with the part of z^-5 f at
# nonnegative powers, 2, exceeds every entry of G; it must not count
@example(coeffs=[1, 0, 0, 0, 0, 2], space=BAND_SPACES[0], n=20)
# a band of 12 in H2, and one of 8 in a quotient space as wide as its matrix
@example(coeffs=[1, -0.5, 0.25, 0, 0, 0, 0, 0, 0.1, 0, 0, 0, 0.3j], space=BAND_SPACES[1], n=40)
@example(coeffs=[1, 0.3, 0, 0, 0, 0, 0, 0.2], space=BAND_SPACES[-1], n=6)
# a one-entry system, whose entry and error the dense build sums by a correlation
@example(coeffs=[1, 1.5, -0.5j, 0.25, 2], space=BAND_SPACES[0], n=0)
def test_band_storage_is_bit_identical_to_the_dense_loops(coeffs, space, n):
    # a polynomial of any degree is kept as a band array from the Gram build
    # to the last solve; the loops its band took on dense G and L, fed from
    # build_system, give every output bit for bit: the scalar ones to band 5
    # (when narrower than the matrix), the numpy ones past it
    f = CPoly(coeffs)
    assume(abs(f.coefficient(0)) >= 0.1)
    G, rhs, entry_err = build_system(space, f, ONE, n)
    band = G.shape[1] - 1
    try:
        L = factor_reference(to_dense(G), band)
    except NotPositiveDefiniteError as exc:
        with pytest.raises(NotPositiveDefiniteError, match=re.escape(str(exc))):
            approximant_sweep(space, f, ONE, n)
        return
    ns = np.arange(n + 1)
    y, X = _dense_band_solves(L, band, rhs, ns)
    _, X1 = _dense_band_solves(L, band, rhs, ns[-1:])
    _, y_band, _, _, err_band = engine._factored_system(space, f, ONE, n)
    assert y_band.tobytes() == y.tobytes() and err_band == entry_err
    gg = norm_sq_any(space, ONE)
    dist = float(gg.value) - np.cumsum(y.real**2 + y.imag**2)
    errs = np.maximum(gg.err + np.abs(X).sum(axis=0) * 1e-12, entry_err * (ns + 2))
    for r in approximant_sweep(space, f, ONE, n):
        assert (r.distance_sq, r.err) == (dist[r.n], errs[r.n])
        assert r.p_star.coeffs.tobytes() == CPoly(X[: r.n + 1, r.n]).coeffs.tobytes(), r.n
    solo = optimal_approximant(space, f, ONE, n)
    assert solo.p_star.coeffs.tobytes() == CPoly(X1[:, 0]).coeffs.tobytes()
    if space.monomials_orthogonal:
        e0 = np.zeros(n + 1, dtype=complex)
        e0[0] = 1.0
        v = forward_reference(L, band, e0)
        pf0 = f.coefficient(0) * np.cumsum(np.conj(v) * y)
        rows = cyclicity_diagnostic(space, f, n).rows
        assert [alt for _, _, alt in rows] == (1.0 - pf0.real).tolist()


def test_band_storage_reaches_degree_two_hundred_thousand():
    # 1 - z in D2: dist^2_n = 1/sum_{m<=n+2} m^-2, which tends to 6/pi^2 with a
    # gap of about 1/n; a dense G would take 640 GB at this degree
    n = 200_000
    dist = cyclicity_diagnostic(D2, CPoly([1, -1]), n).rows[-1][1]
    exact = 1.0 / math.fsum(m**-2.0 for m in range(1, n + 3))
    assert abs(dist - exact) <= 1e-12 * exact
    assert 0 < dist - 6 / math.pi**2 < 2e-6


def test_band_arrays_keep_large_systems_small():
    # 16 bytes a band entry: G and L of 1 - z at n = 2*10^5 take 6.4 MB each,
    # and a degree-8 diagnostic at n = 3000 no dense matrix (they took 276 MiB)
    rng = np.random.default_rng(3)
    f8 = CPoly(np.poly(1.3 * np.exp(2j * np.pi * rng.random(8)))[::-1])
    runs = (
        (25, lambda: engine._factored_system(D2, CPoly([1, -1]), ONE, 200_000)),
        (5, lambda: cyclicity_diagnostic(D2, f8, 3000)),
    )
    for peak_mib, run in runs:
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= peak_mib * 2**20, (peak_mib, peak / 2**20)


def test_one_degree_in_h2_at_degree_ten_thousand():
    # 1 - z in H2: p_n*(z) = sum_k (1 - (k+1)/(n+2)) z^k and dist^2 = 1/(n+2);
    # the distance is 1 - sum_k |y_k|^2 over n + 1 terms of size up to 1
    n = 10_000
    r = optimal_approximant(H2, CPoly([1, -1]), n=n)
    assert abs(r.distance_sq - 1 / (n + 2)) <= min(r.err, (n + 1) * np.finfo(float).eps)
    k = np.arange(n + 1)
    assert np.max(np.abs(r.p_star.coeffs - (1 - (k + 1) / (n + 2)))) <= n * 1e-14


def test_build_system_rejects_orthogonal_data():
    with pytest.raises(OrthogonalDataError):
        build_system(H2, CPoly([0, 1]), ONE, 2)


def test_a_negative_degree_is_refused_on_every_path():
    # build_system refuses it for a polynomial, a stored series and a quotient
    # space alike; the diagnostic refuses a quotient space before any degree
    for space, f in ((H2, CPoly([1, -0.5])), (H2, _series_f(80)), (QUOT, CPoly([1, -0.5]))):
        runs = [
            lambda: approximant_sweep(space, f, ONE, -1),
            lambda: optimal_approximant(space, f, ONE, -1),
            lambda: detect_stabilization(space, f, ONE, -1),
        ]
        if space.monomials_orthogonal:
            runs.append(lambda: cyclicity_diagnostic(space, f, -1))
        else:
            with pytest.raises(ValueError, match="orthogonal monomials"):
                cyclicity_diagnostic(space, f, -1)
        for run in runs:
            with pytest.raises(ValueError, match="^degree must be non-negative$"):
                run()


def _outcomes(space, f, n):
    """What each entry point gives for f at degree n, every float by its repr
    and every coefficient array by its bytes, or the error it raises."""

    def run(fn):
        try:
            return repr(fn())
        except (OpaError, ValueError) as exc:
            return type(exc).__name__, str(exc)

    def rows(results):
        return [(r.n, r.distance_sq, r.err, r.p_star.coeffs.tobytes()) for r in results]

    def stabilization():
        r = detect_stabilization(space, f, ONE, n)
        return r.stabilized, r.M, r.certificate, None if r.p_M is None else r.p_M.coeffs.tobytes()

    return {
        "sweep": run(lambda: rows(approximant_sweep(space, f, ONE, n))),
        "one degree": run(lambda: rows([optimal_approximant(space, f, ONE, n)])),
        "diagnostic": run(lambda: cyclicity_diagnostic(space, f, n).rows),
        "stabilization": run(stabilization),
        "inner": run(lambda: is_inner(space, f)),
        "orthogonal": run(lambda: orthogonal_to_shifts(space, f, f)),
    }


def test_zero_tail_series_sweeps_as_its_polynomial():
    # a series with no tail is its polynomial: the same band, the same exact
    # certificates and the same bits, also when stored with trailing zeros
    rng = np.random.default_rng(23)
    spaces = (H2, D1, D2, WeightSequence.dirichlet(-1.0), WeightSequence.custom([1.0, 1.4, 1.5, 1.45]), QUOT)
    for space in spaces:
        for d in range(1, 9):
            coeffs = rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1)
            f = CPoly(coeffs)
            for zeros in (0, 2):
                series = TruncSeries(np.append(coeffs, np.zeros(zeros)), 0.0, 0.0)
                for n in (0, 3, 30):
                    assert _outcomes(space, series, n) == _outcomes(space, f, n), (space, d, zeros, n)
                band = build_system(space, f, ONE, 30)[0].shape[1] - 1
                assert band == min(len(reference_lift(space, f)[1]) - 1, 30)
                assert build_system(space, series, ONE, 30)[0].shape[1] - 1 == band
                assert engine._factored_system(space, series, ONE, 30)[0].shape[1] - 1 == band


def test_tail_free_series_are_certified_as_polynomials_at_large_degree():
    # the Gram entries of a tail-free cubic carry rounding only: in D2 at
    # n = 200 they were held to a series' 1e-12 and refused (5.38e-12), and in
    # H2 at n = 2000 its dense Gram matrix took 245 MiB
    cubic = CPoly([1, -0.5, 0.25, -0.125])
    series = TruncSeries.from_poly(cubic)
    assert cyclicity_diagnostic(D2, series, 200).rows == cyclicity_diagnostic(D2, cubic, 200).rows
    tracemalloc.start()
    try:
        cyclicity_diagnostic(H2, series, 2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20, peak / 2**20


def test_generalized_approximants_of_a_series_stabilize_at_its_projection():
    # g = f q + c k_{1/2} with f = z - 1/2: k_{1/2} is orthogonal to [f], so g
    # projects onto f q and p_M* = q from M = 2; h = p_M* f - g keeps g's
    # stored length, where it used to keep f q's 4 coefficients and be refused;
    # g's tail makes the optimality check envelope-certified, not exact
    f, q = CPoly([-0.5, 1]), CPoly([1, 0.3, -0.2])
    for c in (0.5, 1e-3):
        for length in (200, 600):
            k = np.arange(length)
            g = TruncSeries((f * q).padded(length) + c * 0.5**k, c, 0.5)
            report = detect_stabilization(H2, f, g, n_max=8)
            assert (report.stabilized, report.M, report.certificate) == (True, 2, "certified_orthogonality")
            assert np.max(np.abs(report.p_M.coeffs - q.coeffs)) <= 1e-15


def test_optimal_approximant_hand_solve():
    r = optimal_approximant(H2, CPoly([1, -1]), ONE, 1)
    assert np.allclose(r.p_star.coeffs, [2 / 3, 1 / 3], atol=1e-12)
    assert abs(r.distance_sq - 1 / 3) < 1e-12


def test_constant_f_gives_exact_inverse():
    c = 2.0 - 1.0j
    for n in (0, 3):
        r = optimal_approximant(H2, CPoly([c]), ONE, n)
        assert abs(r.p_star.coefficient(0) - 1 / c) < 1e-14
        assert abs(r.distance_sq) < 1e-14


def test_blaschke_series_constant_approximant():
    b = blaschke_factor(0.5, eps=1e-14, length=220)
    for n in (0, 2, 4):
        r = optimal_approximant(H2, b, ONE, n)
        padded = r.p_star.padded(n + 1)
        assert abs(padded[0] - 0.5) < 1e-10
        assert np.all(np.abs(padded[1:]) < 1e-10)


def test_sweep_matches_independent_solves():
    # optimal_approximant factors the degree-n system and solves for degree n alone
    f = CPoly([0.3, -1.1, 1])
    for space, ff in ((H2, f), (D2, f), (QUOT, f), (H2, _series_f(200))):
        sweep = approximant_sweep(space, ff, ONE, 8)
        for n in (0, 3, 8):
            solo = optimal_approximant(space, ff, ONE, n)
            assert solo.n == n
            assert np.allclose(
                sweep[n].p_star.padded(n + 1), solo.p_star.padded(n + 1), atol=1e-12
            )
            assert abs(sweep[n].distance_sq - solo.distance_sq) < 1e-12
    sweep = approximant_sweep(H2, f, ONE, 8)
    # each degree's bar, summed on its own: ||g||^2's error plus 1e-12 sum |a_k|,
    # or n + 2 entry errors
    gg_err, entry_err = norm_sq_any(H2, ONE).err, build_system(H2, f, ONE, 8)[2]
    for r in sweep:
        want = max(gg_err + float(np.sum(np.abs(r.p_star.coeffs))) * 1e-12, entry_err * (r.n + 2))
        assert r.err == pytest.approx(want, rel=1e-15)


def test_sweep_distance_closed_form_and_monotone():
    sweeps = []
    for alpha in (0.0, 1.0, 2.0):
        space = WeightSequence.dirichlet(alpha)
        sweep = approximant_sweep(space, CPoly([1, -1]), ONE, 12)
        for r in sweep:
            assert abs(r.distance_sq - closed_form_dist_sq(alpha, r.n)) < 1e-11
        sweeps.append(sweep)
    # nested subspaces: dist^2 never rises, not even by a rounding error
    sweeps.append(approximant_sweep(WeightSequence.dirichlet(-1.0), CPoly([0.3, -1.1, 1]), ONE, 40))
    for sweep in sweeps:
        dists = [r.distance_sq for r in sweep]
        assert all(b <= a for a, b in zip(dists, dists[1:]))


def test_orthogonality_residuals_random_complex_data():
    rng = np.random.RandomState(13)
    for space in (H2, D1, WeightSequence.custom([1.0, 1.4, 1.5, 1.45])):
        for _ in range(6):
            f = CPoly(rng.randn(4) + 1j * rng.randn(4))
            g = CPoly(rng.randn(3) + 1j * rng.randn(3))
            try:
                r = optimal_approximant(space, f, g, 5)
            except OrthogonalDataError:
                continue
            ng = np.sqrt(max(sum(abs(c) ** 2 for c in g.coeffs), 1.0))
            nf = np.sqrt(sum(abs(c) ** 2 for c in f.coeffs))
            assert orthogonality_residual(space, f, g, r) <= 1e-9 * ng * nf


def test_remark_identity_distance_vs_value_at_zero():
    # with g = 1 and w_0 = 1: dist^2 = 1 - Re (p_n* f)(0)
    rng = np.random.RandomState(19)
    for _ in range(8):
        f = CPoly(rng.randn(4))
        if f.coefficient(0) == 0:
            continue
        sweep = approximant_sweep(H2, f, ONE, 6)
        for r in sweep:
            pf0 = r.p_star.coefficient(0) * f.coefficient(0)
            assert abs(r.distance_sq - (1 - pf0.real)) < 1e-9
            assert abs(pf0.imag) < 1e-9


def test_truncation_is_optimal_when_f_is_one():
    # approximating g/1 simply truncates g
    g = CPoly([1.0, -0.5, 0.25, 2.0])
    sweep = approximant_sweep(D1, ONE, g, 3)
    for r in sweep:
        assert np.allclose(r.p_star.padded(r.n + 1), g.padded(r.n + 1), atol=1e-12)


def test_multiplier_correspondence():
    # approximants to 1/f in the quotient space equal approximants to
    # m/(m f) in the plain space, coefficient-wise
    m = CPoly([1, -0.5])
    quot = WeightSequence.multiplier(m)
    rng = np.random.RandomState(29)
    for _ in range(10):
        f = CPoly(np.concatenate([[1.0], 0.5 * rng.randn(4)]))
        for n in (0, 3, 6):
            lhs = optimal_approximant(quot, f, ONE, n)
            rhs = optimal_approximant(H2, m * f, m, n)
            assert np.allclose(
                lhs.p_star.padded(n + 1), rhs.p_star.padded(n + 1), atol=1e-10
            )


def test_quotient_space_results_are_the_h2_results_of_the_lift(monkeypatch):
    # a quotient space is H2 through lift: each result equals, bit for bit, the
    # H2 result on lift's output (m f, m g), for a polynomial, a gamma = 2
    # series and the gamma = -2 boundary kernel, whose bars are compared here,
    # not held to a series entry's eps
    monkeypatch.setattr(engine, "_ENTRY_EPS", 1.0)
    quot = WeightSequence.multiplier(CPoly([1, -0.5 + 0.2j]))
    g = CPoly([1.0, 0.5j, -0.25])
    boundary = kernel_series(D2, KernelSpec(1.0, 0), length=64)

    def run(fn):  # every float by its repr, every array by its bytes, or the error
        try:
            out = fn()
        except (OpaError, ValueError) as exc:
            return type(exc).__name__, str(exc)
        if isinstance(out, tuple):
            return [(np.shape(x), np.asarray(x).tobytes()) for x in out]
        return repr(out)

    raised = []
    for f in (CPoly([0.7, -1.1 + 0.3j, 0.4, 0.2j]), _series_f(80), boundary):
        space, mf, mg = lift(quot, f, g)
        assert space.to_descriptor() == H2.to_descriptor()
        outcomes = []
        for sp, ff, gg in ((quot, f, g), (space, mf, mg)):
            outcomes.append([
                run(lambda: build_system(sp, ff, gg, n)) for n in (0, 1, 6)
            ] + [
                run(lambda: engine.sweep_arrays(sp, ff, gg, n)) for n in (0, 6)
            ] + [
                run(lambda: is_inner(sp, ff, max_shift=k, eps=1e-4)) for k in (None, 6)
            ] + [
                run(lambda: orthogonal_to_shifts(sp, a, b, eps=1e-4, k_max=k))
                for a, b in ((ff, gg), (gg, ff)) for k in (None, 6)
            ])
        assert outcomes[0] == outcomes[1], f
        raised += [o for o in outcomes[0] if isinstance(o, tuple)]
    # the boundary kernel admits no shift horizon; every other outcome is a result
    assert [name for name, _ in raised] == ["CannotCertifyError"] * 2, raised


def test_lift_keeps_operands_and_lengths():
    quot = WeightSequence.multiplier(CPoly([1, -0.5 + 0.2j, 0.1j]))
    f, g = _series_f(80), CPoly([1.0, 0.5j, -0.25])
    boundary = kernel_series(D2, KernelSpec(1.0, 0), length=64)
    assert lift(D1, f, g, f) == (D1, f, g, f) and lift(D1, f)[1] is f
    space, a, b, c = lift(quot, f, g, f)
    assert space.kind == "dirichlet" and space.alpha == 0.0
    assert a is c and a is not b
    # a series with a tail keeps its stored length, a polynomial takes m's degree
    assert (len(a), len(b)) == (len(f), len(g) + 2)
    assert len(lift(quot, boundary)[1]) == len(boundary)
    assert a.coeffs.tobytes() == np.convolve(quot.m.coeffs, f.coeffs)[: len(f)].tobytes()
    # gamma < 0 needs a stored length beyond deg m, on every path as before
    short = kernel_series(D2, KernelSpec(1.0, 0), length=2)
    message = "^stored length must exceed the polynomial degree when gamma < 0$"
    for call in (
        lambda: lift(quot, short),
        lambda: shift_products(quot, short, short, 3),
        lambda: build_system(quot, short, ONE, 3),
        lambda: is_inner(quot, short, max_shift=3),
    ):
        with pytest.raises(ValueError, match=message):
            call()


def test_a_certificate_lifts_each_operand_once(monkeypatch):
    # orthogonal_to_shifts and is_inner sum the data _shift_range lifted: one
    # mul_poly per operand (a repeated one counts once), and the certificate
    # is the H2 certificate of lift's output bit for bit
    quot = WeightSequence.multiplier(CPoly([1, -(0.5 - 0.2j)]))
    f, h = geometric_series(0.5, length=400), CPoly([1, 0.5])
    calls = []
    for cls in (CPoly, TruncSeries):
        def counting(self, p, _mul=cls.mul_poly):
            calls.append(type(self).__name__)
            return _mul(self, p)

        monkeypatch.setattr(cls, "mul_poly", counting)
    check = orthogonal_to_shifts(quot, f, h)
    assert sorted(calls) == ["CPoly", "TruncSeries"]
    calls.clear()
    inner = is_inner(quot, f)
    assert calls == ["TruncSeries"]
    space, mf, mh = lift(quot, f, h)
    for got, want in ((check, orthogonal_to_shifts(space, mf, mh)), (inner, is_inner(space, mf))):
        assert repr(got) == repr(want)
        assert all(np.asarray(a).tobytes() == np.asarray(b).tobytes() for a, b in zip(vars(got).values(), vars(want).values()))


# -- inner certificates --------------------------------------------------------


def test_monomials_inner_in_unweighted_space():
    for k in (1, 3):
        mono = CPoly([0] * k + [1])
        cert = is_inner(H2, mono)
        assert cert.is_inner and cert.exact


def test_blaschke_factor_inner_within_tolerance():
    b = blaschke_factor(0.5, eps=1e-14, length=250)
    cert = is_inner(H2, b, eps=1e-10)
    assert cert.is_inner
    assert not cert.exact
    assert cert.max_residual < 1e-10


def test_blaschke_product_inner_with_a_long_stored_prefix():
    # from stored length ~1650 on rr**t underflows, so the shift horizon's
    # majorant of the stored coefficients must not divide by it (the library
    # stops the product where its envelope is below 2**-465, so it is built in full)
    f = closed_forms.product([0.3, -0.25j], 2000)
    rr = 0.5 * (1.0 + f.tail_r)  # the horizon's ratio
    assert rr ** (len(f) - 1) < np.finfo(float).tiny
    assert is_inner(H2, f).is_inner


def test_certificates_agree_on_series_stopped_at_the_floor():
    # the benchmark's slowest series stop where their envelope falls below
    # 2**-465; built in full (their tails subnormal), each certificate reads the same
    for zeros, length in (([0.15, -0.18j], 460), ([0.29, -0.29j, 0.29 * np.exp(2.5j)], 540)):
        for c in (None, 0.12):
            f = blaschke_product(zeros, length=length)
            full = closed_forms.product(zeros, length)
            if c is not None:
                f = f.mul(geometric_series(c, length=540))
                full = closed_forms.mul(full, closed_forms.geometric(c, 540))
            assert len(f) < len(full) == length
            (got, p), (want, q) = _certificates(f), _certificates(full)
            assert got == want and len(got) == 5, (zeros, c)
            assert np.abs(p.padded(13) - q.padded(13)).max() <= 1e-15


def _certificates(f):
    """The verdicts of the four certificates on f in H2, and p_M."""
    report = detect_stabilization(H2, f, n_max=12)
    verdicts = [report.stabilized, report.M, is_inner(H2, f).is_inner]
    if report.stabilized:
        verdicts.append(stabilization_dossier(H2, f, report).all_passed)
        verdicts.append(orthogonal_to_shifts(H2, f, f.mul_poly(report.p_M)).orthogonal)
    return verdicts, report.p_M


def test_series_shift_horizon_passes_the_majorant_peak():
    # in D2 the majorant S (j+1)^2 rr^j of |<f, z^j f>| rises up to j ~ 18 and
    # falls after; the horizon lies past every j where it exceeds eps
    f = blaschke_factor(0.8, length=300).scale(1e-7)
    rr = 0.9  # halfway between the envelope ratio 0.8 and 1
    Mhat = max(f.tail_M, max(abs(c) / rr**t for t, c in enumerate(f.coeffs)))
    S = power_tail_bound(Mhat**2, rr * rr, 2.0, -1)
    js = np.arange(2000)
    bound = S * (js + 1.0) ** 2 * rr**js
    J = _series_shift_horizon(D2, f, f, 1e-10)
    assert bound[18] > 1e-10
    assert bound[J - 1] > 1e-10 >= bound[J:].max()


def test_z_not_inner_in_dirichlet_weighting():
    cert = is_inner(D1, CPoly([0, 1]))
    assert not cert.is_inner
    assert abs(cert.norm_sq - 2.0) < 1e-14


def test_inner_implies_constant_approximants_and_converse():
    # certified inner f yields constant approximants conj(f(0)); and a
    # polynomial whose sweep is constant passes the exact inner certificate
    b = blaschke_factor(0.3 + 0.4j, eps=1e-14, length=300)
    sweep = approximant_sweep(H2, b, ONE, 6)
    target = np.conj(b.coeffs[0])
    for r in sweep:
        padded = r.p_star.padded(r.n + 1)
        assert abs(padded[0] - target) < 1e-9
        assert np.all(np.abs(padded[1:]) < 1e-9)
    # converse, trivial polynomial case: a unimodular constant
    c = np.exp(0.3j)
    sweepc = approximant_sweep(H2, CPoly([c]), ONE, 4)
    assert all(
        abs(r.p_star.coefficient(0) - np.conj(c)) < 1e-12 for r in sweepc
    )
    assert is_inner(H2, CPoly([c])).is_inner
    # and a non-inner polynomial has non-constant approximants
    sweepf = approximant_sweep(H2, CPoly([1, -1]), ONE, 4)
    assert abs(sweepf[4].p_star.coefficient(1)) > 1e-3
    assert not is_inner(H2, CPoly([1, -1])).is_inner


# -- shift orthogonality ---------------------------------------------------------


def test_constant_one_is_orthogonal_to_shifts():
    for space in (H2, D1):
        for f in (CPoly([1, -1]), CPoly([0.5, 0.3, 1])):
            assert orthogonal_to_shifts(space, f, ONE).orthogonal


def test_kernel_at_zero_of_f_is_orthogonal_to_shifts():
    # <k_{1/2}, z^k (z - 1/2)> = conj((z^k f)(1/2)) = 0 for all k
    f = CPoly([-0.5, 1])
    k = kernel_series(H2, KernelSpec(0.5, 0), eps=1e-14)
    check = orthogonal_to_shifts(H2, f, k, eps=1e-10)
    assert check.orthogonal


def test_shift_orthogonality_negative_case():
    # <z, z (1 - z)> = 1 != 0
    check = orthogonal_to_shifts(H2, CPoly([1, -1]), CPoly([0, 1]))
    assert not check.orthogonal
    assert check.max_abs == pytest.approx(1.0)


def test_shift_horizon_bounds_the_pair_not_h_alone():
    # |<h, z^j h>| is small for this h, but <h, z^5 1> = 1e-8: the horizon
    # must bound <h, z^k f>, with the size of f in it, and reach shift 5
    h = geometric_series(0.5, length=200).shift(5).add(CPoly([1])).scale(1e-8)
    check = orthogonal_to_shifts(H2, ONE, h, eps=1e-10)
    assert not check.orthogonal and check.shifts_checked >= 5
    assert check.max_abs == pytest.approx(1e-8)


def test_shift_orthogonality_refuses_weak_envelopes():
    # power-decay boundary envelopes admit no geometric shift horizon;
    # without an explicit k_max the check must refuse rather than guess
    from opa.errors import CannotCertifyError

    D2 = WeightSequence.dirichlet(2.0)
    k = kernel_series(D2, KernelSpec(1.0, 0), length=64)
    with pytest.raises(CannotCertifyError):
        orthogonal_to_shifts(D2, CPoly([-1, 1]), k, eps=1e-8)
    # the horizon-limited variant still runs the exact finite checks
    check = orthogonal_to_shifts(D2, CPoly([-1, 1]), k, eps=1e-10, k_max=20)
    assert check.orthogonal and not check.exact


# -- stabilization ----------------------------------------------------------------


def test_stabilization_blaschke_factor_at_zero():
    b = blaschke_factor(0.5, eps=1e-14, length=260)
    report = detect_stabilization(H2, b, n_max=5)
    assert report.stabilized and report.M == 0
    assert report.certificate == "tolerance_window"
    assert abs(report.p_M.coefficient(0) - 0.5) < 1e-9


def test_stabilization_quotient_case():
    # dividing the half-point factor by (1 - z/3) shifts stabilization to
    # degree 1 with approximant proportional to 1 - z/3
    b = blaschke_factor(0.5, eps=1e-14, length=300)
    f = series_mul(b, geometric_series(1 / 3, length=300))
    report = detect_stabilization(H2, f, n_max=8)
    assert report.stabilized and report.M == 1
    ratio = report.p_M.coefficient(1) / report.p_M.coefficient(0)
    assert abs(ratio - (-1 / 3)) < 1e-8
    dossier = stabilization_dossier(H2, f, report)
    assert dossier.all_passed
    assert abs(dossier.roots[0][0] - 3.0) < 1e-7


def test_no_stabilization_for_cyclic_polynomial():
    report = detect_stabilization(D1, CPoly([1, -1]), n_max=12)
    assert not report.stabilized
    assert report.M is None and report.p_M is None
    report2 = detect_stabilization(H2, CPoly([1, -1]), n_max=12)
    assert not report2.stabilized


def _per_M_window(results, eps):
    """Reference window scan: every M in turn against all later rows."""
    n = len(results)
    mat = np.zeros((n, n), dtype=complex)
    for i, r in enumerate(results):
        mat[i, : r.p_star.coeffs.size] = r.p_star.coeffs
    for M in range(n - 1):
        if float(np.abs(mat[M:] - mat[M]).max()) <= eps:
            return M
    return None


def _random_polynomial_cases(rng, count):
    spaces = (H2, D1, WeightSequence.dirichlet(-1.0), QUOT)
    for _ in range(count):
        size = rng.randint(1, 6)
        f = rng.randn(size) + 1j * rng.randn(size)
        yield spaces[rng.randint(len(spaces))], CPoly(f), rng.randint(1, 16)


def _random_series_cases(rng, count):
    # Blaschke products of 1-3 zeros, times 1/(1 - c z) in half the cases
    for _ in range(count):
        k = rng.randint(1, 4)
        zeros = 0.7 * np.sqrt(rng.rand(k)) * np.exp(2j * np.pi * rng.rand(k))
        length = rng.randint(300, 500)
        f = blaschke_product(zeros.tolist(), length=length)
        if rng.rand() < 0.5:
            f = series_mul(f, geometric_series(0.6 * rng.rand() * np.exp(2j * np.pi * rng.rand()), length=length))
        yield H2, f, rng.randint(1, 12)


def test_tolerance_window_M_matches_the_per_M_scan():
    # the tail of y bounds ||p_n* f - p_M* f||, the per-M scan the coefficients
    # of p_n* - p_M*: wherever the tail certifies a window, the scan finds it
    b = blaschke_factor(0.5, eps=1e-14, length=300)
    named = [
        (H2, b, 6),
        (H2, series_mul(b, geometric_series(1 / 3, length=300)), 8),
        (D1, CPoly([1, -1]), 12),
        (H2, CPoly([2.0]), 4),
        (H2, CPoly([1, -0.5]), 0),
    ]
    rng = np.random.RandomState(5)
    cases = named + list(_random_polynomial_cases(rng, 40)) + list(_random_series_cases(rng, 40))
    windows = 0
    for space, f, n_max in cases:
        for eps in (1e-10, 1e-8):
            report = detect_stabilization(space, f, n_max=n_max, eps=eps)
            if report.certificate == "tolerance_window":
                windows += 1
                assert report.M == _per_M_window(report.sweep, eps), (space, n_max, eps)
                assert report.p_M.coeffs.tobytes() == report.sweep[report.M].p_star.coeffs.tobytes()
    assert windows >= 40


def test_stabilization_edges_of_the_sweep():
    b = blaschke_factor(0.5, eps=1e-14, length=260)
    for space, f in ((H2, CPoly([2.0])), (H2, b)):
        # n_max = 0 leaves no later degree to stabilize at
        report = detect_stabilization(space, f, n_max=0)
        assert not report.stabilized and report.M is None and len(report.sweep) == 1
        report = detect_stabilization(space, f, n_max=1)
        assert report.stabilized and report.M == 0
        assert report.p_M.coeffs.tobytes() == report.sweep[0].p_star.coeffs.tobytes()
    for n_max in (0, 1):
        report = detect_stabilization(H2, CPoly([1, -1]), n_max=n_max)
        assert not report.stabilized and report.certificate == "none"
    # the report's sweep, built from its arrays, is approximant_sweep's bit for bit
    for space, f in ((H2, CPoly([1, -1])), (D1, CPoly([1, -0.5, 0.25])), (QUOT, CPoly([1, -0.5])), (H2, b)):
        for n_max in (0, 1, 7):
            sweep = approximant_sweep(space, f, ONE, n_max)
            report = detect_stabilization(space, f, n_max=n_max)
            assert len(report.sweep) == len(sweep) == n_max + 1
            for got, want in zip(report.sweep, sweep):
                assert got.n == want.n
                assert got.p_star.coeffs.tobytes() == want.p_star.coeffs.tobytes()
                assert (got.distance_sq, got.err) == (want.distance_sq, want.err)


DYADIC = st.tuples(st.integers(-256, 256), st.integers(-256, 256)).map(
    lambda p: complex(p[0] / 256, p[1] / 256)
)
STAB_SPACES = [WeightSequence.dirichlet(a) for a in (-1.0, 0.0, 1.0, 2.0, 3.0)] + [QUOT]


def _dyadic_poly(head, rest):
    coeffs = [head] + rest
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return CPoly(coeffs)


@settings(max_examples=500, deadline=None)
@given(
    f0=DYADIC.filter(lambda c: c != 0),
    f_rest=st.lists(DYADIC, max_size=5),
    q_rest=st.lists(DYADIC, max_size=5),
    q_top=DYADIC.filter(lambda c: abs(c) >= 0.1),
    space=st.sampled_from(STAB_SPACES),
)
def test_stabilization_at_the_degree_of_an_exact_quotient(f0, f_rest, q_rest, q_top, space):
    # g = q f is reached exactly from degree deg q on: y_k = 0 for k > deg q
    f = _dyadic_poly(f0, f_rest)
    q = CPoly(q_rest + [q_top])
    try:
        report = detect_stabilization(space, f, q * f, n_max=8)
    except OrthogonalDataError:
        assume(False)  # <q f, f> = 0, e.g. q = z against a constant f
    assert report.stabilized and report.M == q.degree
    assert report.certificate == "exact_orthogonality"
    assert np.max(np.abs(report.p_M.padded(q.degree + 1) - q.coeffs)) <= 1e-13


@settings(max_examples=300, deadline=None)
@given(
    f0=DYADIC.filter(lambda c: c != 0),
    f_rest=st.lists(DYADIC, max_size=5),
    q=st.lists(DYADIC, min_size=1, max_size=4),
    space=st.sampled_from(STAB_SPACES),
)
def test_stabilization_is_invariant_under_power_of_two_scaling(f0, f_rest, q, space):
    # y = L^-1 rhs does not change when f is scaled by 2^k, nor does the window
    # read from it (g = 1 is test_scaled_linear_factors_never_stabilize's)
    f = _dyadic_poly(f0, f_rest)
    g = CPoly(q) * f
    try:
        report = detect_stabilization(space, f, g, n_max=8)
    except OpaError:
        assume(False)
    for k in (-10, -5, 5, 10):
        scaled = detect_stabilization(space, f * 2.0**k, g, n_max=8)
        assert (scaled.stabilized, scaled.M, scaled.certificate) == (
            report.stabilized, report.M, report.certificate
        ), k


def test_tolerance_window_is_invariant_under_power_of_two_scaling():
    # the whole series decision is the window, and p_M* scales by 2^-k exactly;
    # at 2^10 the entries' certified errors exceed the absolute _ENTRY_EPS
    for space, f, n_max in _random_series_cases(np.random.RandomState(7), 20):
        report = detect_stabilization(space, f, n_max=n_max)
        for k in (-10, -5, 5):
            scaled = detect_stabilization(space, f.scale(2.0**k), n_max=n_max)
            assert (scaled.stabilized, scaled.M, scaled.certificate) == (
                report.stabilized, report.M, report.certificate
            ), k
            if report.stabilized:
                assert np.array_equal(scaled.p_M.coeffs * 2.0**k, report.p_M.coeffs)


def test_scaled_linear_factors_never_stabilize():
    # z - beta with beta != 0 never stabilizes for g = 1, at any scale of f:
    # the exactness threshold of the optimality check is relative to the data,
    # so a near plateau of a scaled-down f is no certificate; a constant f
    # stabilizes at M = 0 at every scale
    for beta in (0.02, 0.05, 0.1, 0.12, 0.2, 0.3):
        for k in (0, -5, -10, -20):
            for n_max in (8, 12, 16):
                report = detect_stabilization(H2, CPoly([-beta, 1]) * 2.0**k, n_max=n_max)
                assert not report.stabilized, (beta, k, n_max, report.M)
    for k in (10, 0, -5, -20):
        report = detect_stabilization(H2, CPoly([2.0**k]), n_max=8)
        assert (report.stabilized, report.M, report.certificate) == (True, 0, "exact_orthogonality"), k


def test_stabilization_constant_f_exact_certificate():
    report = detect_stabilization(H2, CPoly([2.0]), n_max=4)
    assert report.stabilized and report.M == 0
    assert report.certificate == "exact_orthogonality"
    dossier = stabilization_dossier(H2, CPoly([2.0]), report)
    assert dossier.all_passed


def test_stabilization_checks_the_optimality_conditions_for_any_g():
    # p_M* = p_{M+1}* = ... exactly when <p_M* f - g, z^k f> = 0 for all
    # k >= 1; <p_M* f, z^k f> = 0 is that condition only for g = 1 in a
    # space whose monomials are orthogonal
    report = detect_stabilization(H2, ONE, CPoly([1, 1]), n_max=6)
    assert report.stabilized and report.M == 1
    assert report.certificate == "exact_orthogonality"
    f = CPoly([1, 0, 0.5])
    report = detect_stabilization(H2, f, f, n_max=6)
    assert report.stabilized and report.M == 0
    report = detect_stabilization(WeightSequence.multiplier(CPoly([1, -0.5])), ONE, n_max=6)
    assert report.stabilized and report.M == 0
    # a plateau that is not optimal still fails: 1 - z never stabilizes
    assert not detect_stabilization(H2, CPoly([1, -1]), CPoly([1, 0.5]), n_max=8).stabilized


def test_dossier_blaschke_identities():
    b = blaschke_factor(0.5, eps=1e-14, length=260)
    report = detect_stabilization(H2, b, n_max=5)
    dossier = stabilization_dossier(H2, b, report)
    assert dossier.all_passed
    # c = sqrt((p_0 f)(0)) = sqrt(1/4)
    assert abs(dossier.c - 0.5) < 1e-9


# -- cyclicity diagnostics ---------------------------------------------------------


def test_diagnostic_trending_to_zero():
    diag = cyclicity_diagnostic(H2, CPoly([1, -1]), n_max=20)
    assert diag.rows[-1][1] == pytest.approx(1 / 22, abs=1e-10)
    assert diag.identity_max_dev < 1e-10
    assert diag.verdict in ("decreasing", "cyclic_consistent")


def test_diagnostic_plateau_matches_projection():
    diag = cyclicity_diagnostic(H2, CPoly([-0.5, 1]), n_max=25, reference_dist_sq=0.75)
    assert diag.verdict == "non_cyclic"
    assert diag.plateau == pytest.approx(0.75, abs=1e-6)


def test_diagnostic_constant_f_all_zero():
    diag = cyclicity_diagnostic(H2, ONE, n_max=5)
    assert all(abs(d) < 1e-13 for _, d, _ in diag.rows)
    assert diag.verdict == "cyclic_consistent"


def test_diagnostic_value_at_zero_matches_the_sweep_coefficients():
    custom = WeightSequence.custom([1.0, 1.4, 1.5, 1.45])
    f = CPoly([0.7 - 0.2j, -1.1 + 0.3j, 0.4, 0.2j])
    for space in (H2, D1, D2, WeightSequence.dirichlet(-1.0), custom):
        diag = cyclicity_diagnostic(space, f, n_max=60)
        sweep = approximant_sweep(space, f, ONE, 60)
        for (n, dist, alt), r in zip(diag.rows, sweep):
            assert n == r.n and dist == r.distance_sq
            assert abs(alt - (1.0 - (r.p_star.coefficient(0) * f.coefficient(0)).real)) <= 1e-13


def test_diagnostic_closed_forms_at_degree_1000():
    n_max = 1000
    m = np.arange(1, n_max + 3, dtype=float)
    for space, alpha in ((H2, 0.0), (D2, 2.0)):
        diag = cyclicity_diagnostic(space, CPoly([1, -1]), n_max=n_max)
        # dist^2_n = 1 / sum_{m <= n+2} m^-alpha; in H2 that is 1/(n+2)
        exact = 1.0 / np.cumsum(m**-alpha)[1:]
        dist = np.array([d for _, d, _ in diag.rows])
        alt = np.array([a for _, _, a in diag.rows])
        # both are 1 minus a sum of n + 1 terms: about a rounding unit each
        tol = (n_max + 2) * 2.2e-16
        assert np.max(np.abs(dist - exact)) <= tol
        assert np.max(np.abs(alt - exact)) <= tol


def test_diagnostic_requires_nonvanishing_at_zero():
    with pytest.raises(ValueError):
        cyclicity_diagnostic(H2, CPoly([0, 1]), n_max=3)


# -- Taylor comparison ---------------------------------------------------------------


def test_taylor_residuals_grow_while_optimal_shrinks():
    f = CPoly([1, -1])
    taylor = taylor_residuals(D1, f, 20)
    sweep = approximant_sweep(D1, f, ONE, 20)
    for n in range(21):
        assert taylor[n] == pytest.approx(np.sqrt(n + 2), abs=1e-12)
        assert taylor[n] > np.sqrt(sweep[n].distance_sq)
    assert taylor[-1] > taylor[0]
    assert sweep[-1].distance_sq < sweep[0].distance_sq


def test_taylor_residuals_match_the_full_product():
    # the residual T_n(1/f) f - 1 read from its window of degrees n+1..n+d
    # agrees with the whole product and its weighted norm up to rounding
    rng = np.random.default_rng(7)
    bergman = WeightSequence.dirichlet(-1.0)
    custom = WeightSequence.custom([1.0, 1.5, 2.0])
    for space in (H2, D1, bergman, custom, WeightSequence.multiplier(CPoly([1, -0.5j]))):
        for d in range(1, 5):
            zeros = rng.uniform(0.5, 1.6, d) * np.exp(2j * np.pi * rng.random(d))
            f = CPoly(np.poly(zeros)[::-1])
            got = taylor_residuals(space, f, 60)
            recip = reciprocal_taylor(f, 60)
            for n in range(61):
                res = CPoly(recip.coeffs[: n + 1]) * f - ONE
                want = np.sqrt(max(norm_sq_poly(space, res), 0.0))
                assert got[n] == pytest.approx(want, rel=1e-12, abs=1e-14), (space, d, n)


def test_taylor_residuals_stay_finite_past_the_square_root_of_the_double_range():
    # the zero at 0.2i makes row 250 about 1.6e178, whose square overflows:
    # each row is scaled by a power of two, so it matches a 50-digit sum
    import mpmath as mp

    mp.mp.dps = 50
    zeros = (1.3, -0.5 + 0.4j, 0.2j)
    f = CPoly(np.poly(zeros)[::-1])
    got = taylor_residuals(D2, f, 260)
    fm = [mp.mpc(c) for c in f.coeffs]
    g = [1 / fm[0]]  # the Taylor coefficients of 1/f
    for k in range(1, 255):
        g.append(-mp.fsum(fm[i] * g[k - i] for i in range(1, min(k, 3) + 1)) / fm[0])
    n = 250
    window = [mp.fsum(fm[i] * g[n + 1 + s - i] for i in range(s + 1, 4)) for s in range(3)]
    want = mp.sqrt(mp.fsum((n + 2 + s) ** 2 * abs(r) ** 2 for s, r in enumerate(window)))
    assert abs(got[n] - want) <= 1e-12 * want
    assert all(np.isfinite(got))


# -- tracer contract -------------------------------------------------------------------


def test_traced_names_stay_bound():
    # perfbench/spans.py patches opa functions at the names their callers look
    # up, and raises AttributeError when one of them is gone
    import importlib.util
    from pathlib import Path

    import opa
    import opa.cli  # noqa: F401

    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("opa_bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    original = opa.engine.build_system
    tracer = spans.Tracer()
    try:
        tracer.install(opa)
        assert opa.engine.build_system is not original
    finally:
        tracer.uninstall()
    assert opa.engine.build_system is original


def test_a_stabilization_certified_by_envelopes_is_not_called_exact():
    # f = z - 1/2 and g = f (1 + 0.3 z) + 0.5 k_{1/2} stored to 200
    # coefficients: k_{1/2} is orthogonal to [f], so p_1* = 1 + 0.3 z, but
    # <p_1* f - g, z^k f> = 0 is certified from g's envelope beyond a shift
    # horizon, not exactly; the certificate says so
    f = CPoly([-0.5, 1])
    k = np.arange(200)
    g = TruncSeries((f * CPoly([1, 0.3])).padded(200) + 0.5 * 0.5**k, 0.5, 0.5)
    report = detect_stabilization(H2, f, g, n_max=8)
    assert (report.stabilized, report.M, report.certificate) == (True, 1, "certified_orthogonality")
    check = orthogonal_to_shifts(H2, f, TruncSeries.add(f.mul_poly(report.p_M), -g))
    assert check.orthogonal and not check.exact and check.shifts_checked > 1
    # exact g keeps the exact certificate
    report = detect_stabilization(H2, f, f * CPoly([1, 0.3]), n_max=8)
    assert (report.stabilized, report.M, report.certificate) == (True, 1, "exact_orthogonality")


def test_diagnostic_at_degree_two_hundred_thousand_holds_its_table_as_arrays():
    # two float arrays of 1.6 MB each; as a list of (n, dist, alt) tuples the
    # table held 29 MiB and the call peaked at 53 MiB traced
    tracemalloc.start()
    try:
        diag = cyclicity_diagnostic(D2, CPoly([1, -1]), 200_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 30 * 2**20, peak / 2**20
    assert diag.dist.shape == diag.alt.shape == (200_001,)
    assert diag.rows[-1] == (200_000, float(diag.dist[-1]), float(diag.alt[-1]))


def test_sweep_arrays_are_the_sweep():
    # approximant_sweep is built from sweep_arrays: column n of X is p_n*'s
    # coefficients, with exact zeros below row n (and trailing zeros for f = 2)
    for space, f, g in ((D1, CPoly([1, -0.5, 0.2j]), ONE), (H2, CPoly([2]), CPoly([1, 0.5]))):
        X, dist, errs = engine.sweep_arrays(space, f, g, 12)
        for r in approximant_sweep(space, f, g, 12):
            n, size = r.n, r.p_star.coeffs.size
            assert X[:size, n].tobytes() == r.p_star.coeffs.tobytes()
            assert not X[size:, n].any()
            assert (dist[n], errs[n]) == (r.distance_sq, r.err)
