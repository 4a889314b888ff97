"""Optimal systems, sweeps, stabilization, and structural certificates."""

import numpy as np
import pytest

from opa.errors import (
    CannotCertifyError,
    EnvelopeOverflowError,
    NotPositiveDefiniteError,
    OrthogonalDataError,
)
from opa.engine import (
    OpaResult,
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
from opa.series import (
    CPoly,
    TruncSeries,
    blaschke_factor,
    blaschke_product,
    geometric_series,
    power_tail_bound,
    series_mul,
)
from opa.spaces import (
    Certified,
    KernelSpec,
    WeightSequence,
    inner_poly,
    kernel_series,
    shift_products,
)

H2 = WeightSequence.dirichlet(0.0)
D1 = WeightSequence.dirichlet(1.0)

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
    system = build_system(H2, CPoly([1, -1]), ONE, 1)
    assert np.allclose(system.matrix, [[2, -1], [-1, 2]])
    assert np.allclose(system.rhs, [1, 0])
    sys_d1 = build_system(D1, CPoly([1, -1]), ONE, 0)
    assert np.allclose(sys_d1.matrix, [[3]])
    assert np.allclose(sys_d1.rhs, [1])


def test_build_system_constant_f_is_diagonal():
    for space in (H2, D1):
        system = build_system(space, ONE, ONE, 3)
        assert np.allclose(system.matrix, np.diag(space.weights(4)))
        assert np.allclose(system.rhs, [1, 0, 0, 0])


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


def test_build_system_matches_pairwise_reference():
    quot = WeightSequence.multiplier(CPoly([1, -0.5 + 0.2j]))
    custom = WeightSequence.custom([1.0, 1.4, 1.5, 1.45])
    f = CPoly([0.7, -1.1 + 0.3j, 0.4, 0.2j])
    g = CPoly([1.0, 0.5j, -0.25])
    # short enough that the certified tails, not rounding, set entry_err
    series = _series_f(80)
    cases = [(space, f, g, 14) for space in (H2, D1, custom, quot)]
    cases += [(space, series, ONE, 10) for space in (H2, quot)]
    cases += [(H2, f, series, 10), (quot, series, g, 8)]
    for space, ff, gg, n in cases:
        G, rhs, err = reference_system(space, ff, gg, n, 1e-9)
        system = build_system(space, ff, gg, n, 1e-9)
        assert np.max(np.abs(system.matrix - G)) <= 1e-14 * np.max(np.abs(G))
        assert np.max(np.abs(system.rhs - rhs)) <= 1e-14 * np.max(np.abs(rhs))
        assert abs(system.entry_err - err) <= 1e-12 * err


def test_build_system_refuses_short_prefixes_like_reference():
    quot = WeightSequence.multiplier(CPoly([1, -0.5]))
    outcomes = []
    for space in (H2, quot):
        for length in (40, 60, 80, 120):
            f = _series_f(length)
            for eps in (1e-12, 1e-9):
                raised = []
                for build in (reference_system, build_system):
                    try:
                        build(space, f, ONE, 6, eps)
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
    ]


def test_shift_products_match_pairwise_reference():
    for space, h, f, K in _shift_cases():
        values, errs = shift_products(space, h, f, K)
        refs = [reference_inner(space, h, reference_shift(f, k), np.inf) for k in range(K + 1)]
        ref_values = np.array([c.value for c in refs])
        ref_errs = np.array([c.err for c in refs])
        assert np.max(np.abs(values - ref_values)) <= 1e-14 * np.max(np.abs(ref_values))
        assert np.all(np.abs(errs - ref_errs) <= 1e-12 * ref_errs), (space, K)


def test_shift_certificates_match_pairwise_reference():
    p = CPoly([0.3, -0.2 + 0.1j, 0.05])
    for space, h, f, K in _shift_cases():
        refs = [reference_inner(space, h, reference_shift(f, k), np.inf) for k in range(K + 1)]
        ortho = orthogonal_to_shifts(space, f, h, eps=1e6, k_max=K)
        assert ortho.max_abs == pytest.approx(max(abs(c.value) for c in refs[1:]), abs=1e-14)
        assert ortho.err == pytest.approx(max(c.err for c in refs[1:]), rel=1e-12)
        # h against its own shifts, after its norm
        own = [reference_inner(space, h, reference_shift(h, j), np.inf) for j in range(K + 1)]
        cert = is_inner(space, h, max_shift=K, eps=1e6)
        assert cert.norm_sq == pytest.approx(own[0].value.real, rel=1e-14)
        assert cert.max_residual == pytest.approx(max(abs(c.value) for c in own[1:]), abs=1e-14)
        assert cert.err == pytest.approx(max(c.err for c in own), rel=1e-12)
        # the optimality conditions of p against g = h, refused alike
        pf = p * f if isinstance(f, CPoly) else f.mul_poly(p)
        try:
            pairs = [
                (reference_inner(space, pf, reference_shift(f, k), 1e-9).value,
                 reference_inner(space, h, reference_shift(f, k), 1e-9).value)
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
    space = WeightSequence.custom([1.0, 1.1, 1.2], extension=lambda k: np.nan)
    with pytest.raises(ValueError):
        approximant_sweep(space, CPoly([1, -0.5, 0.25, 0.1]), ONE, 2)


def test_build_system_rejects_orthogonal_data():
    with pytest.raises(OrthogonalDataError):
        build_system(H2, CPoly([0, 1]), ONE, 2)


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
    f = CPoly([0.3, -1.1, 1])
    sweep = approximant_sweep(H2, f, ONE, 8)
    for n in (0, 3, 8):
        solo = optimal_approximant(H2, f, ONE, n)
        assert np.allclose(
            sweep[n].p_star.padded(n + 1), solo.p_star.padded(n + 1), atol=1e-12
        )
        assert abs(sweep[n].distance_sq - solo.distance_sq) < 1e-12


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


def test_stabilization_constant_f_exact_certificate():
    report = detect_stabilization(H2, CPoly([2.0]), n_max=4)
    assert report.stabilized and report.M == 0
    assert report.certificate == "exact_orthogonality"
    dossier = stabilization_dossier(H2, CPoly([2.0]), report)
    assert dossier.all_passed


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
