"""Closed-form projections of 1, their oracles, and the factorial conversion."""

import mpmath as mp
import numpy as np
import pytest

import opa.projection
from opa.engine import approximant_sweep, is_inner, orthogonal_to_shifts
from opa.projection import (
    blaschke_projection,
    classify_zeros,
    distance_to_poly,
    _kernel_gram,
    factorial_basis_matrix,
    falling_factorial,
    project_unity,
    projection_equivalent,
    recurrence_residual,
    rising_factorial,
)
from opa.series import CPoly, TruncSeries
from opa.spaces import WeightSequence, kernel_inner, kernel_series, KernelSpec

H2 = WeightSequence.dirichlet(0.0)
D1 = WeightSequence.dirichlet(1.0)
D2 = WeightSequence.dirichlet(2.0)

ONE = CPoly([1])

# Hand-solved interpolation systems (independent of the implementation):
#   z - 1/2:          1 + C * k(1/2,1/2) = 0 with k = 4/3        -> C = -3/4
#   (z-1/2)^2:        Gram [[4/3, 8/9], [8/9, 80/27]], rhs (-1,0) -> C = (-15/16, 9/32)
#   (z-1/2)(z-1/3):   Gram [[9/8, 6/5], [6/5, 4/3]],  rhs (-1,-1) -> C = (-20/9, 5/4)
#                     (basis ordered by zero position: 1/3 before 1/2)
#   1 - z in D2:      1 + C * pi^2/6 = 0                          -> C = -6/pi^2
HALF = CPoly([-0.5, 1])
HALF_SQ = CPoly([0.25, -1, 1])
HALF_THIRD = CPoly([1 / 6, -5 / 6, 1])
HALF_TWO = CPoly([1, -2.5, 1])
ONE_MINUS_Z = CPoly([1, -1])


# -- factorial basis -----------------------------------------------------------


def test_factorial_matrix_first_rows():
    fb = factorial_basis_matrix(2)
    assert fb.row(0) == [1]
    assert fb.row(1) == [1, 1]
    assert fb.row(2) == [2, 4, 1]


def test_factorial_matrix_exact_integer_identity():
    fb = factorial_basis_matrix(10)
    for n in range(11):
        row = fb.row(n)
        for k in range(-5, 45):
            lhs = rising_factorial(k, n)
            rhs = sum(a * falling_factorial(k, j) for j, a in enumerate(row))
            assert lhs == rhs  # exact integers


# -- classification -------------------------------------------------------------


def test_classify_interior_and_exterior_zeros():
    c = classify_zeros(H2, HALF_TWO)
    assert len(c.classified) == 1
    assert abs(c.classified[0].beta - 0.5) < 1e-9
    assert c.classified[0].orders == (0,)
    assert c.R == 0


def test_classify_boundary_zero_depends_on_weights():
    c2 = classify_zeros(D2, ONE_MINUS_Z)
    assert len(c2.classified) == 1 and abs(c2.classified[0].beta - 1.0) < 1e-12
    c1 = classify_zeros(D1, ONE_MINUS_Z)
    assert not c1.classified
    assert c1.R is None


def test_classify_no_reproducible_zeros():
    c = classify_zeros(H2, CPoly([1, -1 / 3]))  # root 3
    assert not c.classified


def test_classify_double_zero_orders():
    c = classify_zeros(H2, HALF_SQ)
    assert c.classified[0].orders == (0, 1)
    assert c.R == 1
    assert c.basis_size == 2


# -- projections ------------------------------------------------------------------


def test_projection_single_interior_zero():
    r = project_unity(H2, HALF)
    assert len(r.constants) == 1
    assert abs(r.constants[0] - (-0.75)) < 1e-10
    assert abs(r.phi0 - 0.25) < 1e-10
    assert abs(r.dist_sq - 0.75) < 1e-10


def test_projection_ignores_exterior_factor():
    r = project_unity(H2, HALF_TWO)
    assert abs(r.constants[0] - (-0.75)) < 1e-10
    assert abs(r.phi0 - 0.25) < 1e-10


def test_projection_double_zero_constants():
    r = project_unity(H2, HALF_SQ)
    # basis ordered by derivative order
    assert [s.order for s in r.basis] == [0, 1]
    assert abs(r.constants[0] - (-15 / 16)) < 1e-6
    assert abs(r.constants[1] - 9 / 32) < 1e-6
    assert abs(r.phi0 - 1 / 16) < 1e-7


@pytest.mark.parametrize(
    "cofactor, want",
    # 1 - dist^2 is the product of |beta|^2 over the zeros inside (H^2, the
    # Blaschke closed form): 1/16, 1/64, 1/16 * 0.09, 1/16 * 0.01
    [(ONE, 0.9375), (HALF, 0.984375), (CPoly([-0.3j, 1]), 0.994375),
     (CPoly([0.1, -0.4 + 0.2j, 1]), 0.999375)],
)
def test_projection_of_repeated_zeros_meets_its_closed_form(cofactor, want):
    r = project_unity(H2, cofactor * HALF_SQ)
    assert abs(r.dist_sq - want) <= r.gram_err


@pytest.mark.parametrize("space", [H2, D2, WeightSequence.dirichlet(5.0)])
def test_repeated_zero_near_the_circle_is_refused(space):
    # a double zero is known to about 1e-7, so one within that of the circle
    # can be neither classified inside nor outside: it is refused, never
    # snapped, whichever the weights
    from opa.errors import CannotCertifyError

    def square(beta):
        return CPoly([-beta, 1]) * CPoly([-beta, 1])

    for beta in (1.0, 1 - 1e-9, (1 + 1e-9) * np.exp(0.7j)):
        with pytest.raises(CannotCertifyError):
            project_unity(space, square(beta))
    # 1e-3 from the circle the classification is decided
    assert classify_zeros(space, square(1 - 1e-3)).zeros[0][1] == 2


def test_projection_two_simple_zeros():
    r = project_unity(H2, HALF_THIRD)
    betas = [complex(s.beta) for s in r.basis]
    assert abs(betas[0] - 1 / 3) < 1e-9 and abs(betas[1] - 0.5) < 1e-9
    assert abs(r.constants[0] - (-20 / 9)) < 1e-9
    assert abs(r.constants[1] - 5 / 4) < 1e-9
    assert abs(r.phi0 - 1 / 36) < 1e-9


def test_projection_boundary_zero_in_strong_weighting():
    r = project_unity(D2, ONE_MINUS_Z)
    assert abs(r.constants[0] - (-6 / np.pi**2)) < 1e-10
    assert abs(r.phi0 - (1 - 6 / np.pi**2)) < 1e-10
    assert abs(r.dist_sq - 6 / np.pi**2) < 1e-10


def test_projection_cyclic_case():
    r = project_unity(D1, ONE_MINUS_Z)
    assert r.cyclic
    assert r.phi0 == 1.0 and r.dist_sq == 0.0
    assert np.allclose(r.phi_coefficients(6), [1, 0, 0, 0, 0, 0])


def test_projection_requires_nonzero_at_origin():
    with pytest.raises(ValueError):
        project_unity(H2, CPoly([0, 1]))


def test_projection_near_coincident_zeros():
    from opa.errors import IllConditionedError
    from opa.series import poly_mul

    # the kernel Gram degenerates like separation^-2: at 1e-6 the solve
    # amplification (cond ~ 6e11) would leave ~1e-5 errors, so it is refused
    # with a condition estimate
    f_bad = poly_mul(CPoly([-0.5, 1]), CPoly([-0.500001, 1]))
    with pytest.raises(IllConditionedError) as exc:
        project_unity(H2, f_bad)
    assert exc.value.condition_estimate is None or exc.value.condition_estimate > 3e10
    # separation 1e-5 (cond ~ 6e9) is still served, accurate to ~cond * eps
    f_ok = poly_mul(CPoly([-0.5, 1]), CPoly([-0.50001, 1]))
    r = project_unity(H2, f_ok)
    assert abs(r.phi0 - (0.5 * 0.50001) ** 2) < 1e-6


def test_vanishing_conditions():
    # phi^(j) vanishes at every classified zero; evaluate at the computed
    # roots (for repeated roots the computed root carries the fp stagnation
    # offset, and the vanishing holds there)
    cases = [(H2, HALF), (H2, HALF_SQ), (H2, HALF_THIRD), (D2, ONE_MINUS_Z)]
    for space, f in cases:
        r = project_unity(space, f, eps=1e-11)
        assert r.basis, f
        for spec in r.basis:
            v = r.derivative_at(complex(spec.beta), spec.order)
            assert abs(v.value) <= v.err + 1e-9, (f, spec)


def test_phi_norm_equals_value_at_zero():
    for space, f in [(H2, HALF), (H2, HALF_THIRD), (D2, ONE_MINUS_Z)]:
        r = project_unity(space, f, eps=1e-11)
        n = r.norm_sq(eps=1e-10)
        assert abs(n.value.real - r.phi0) <= n.err + 1e-8


def test_normalized_phi_is_inner():
    for f in (HALF, HALF_SQ):
        r = project_unity(H2, f, eps=1e-11)
        coeffs = r.phi_coefficients(600)
        rho = max(abs(complex(s.beta)) for s in r.basis)
        M = float(sum(np.abs(r.constants)) * np.max(np.abs(coeffs)) + 1.0)
        series = TruncSeries(coeffs, M, rho, float(max(s.order for s in r.basis)))
        phi_inner = series.scale(1.0 / np.sqrt(r.phi0))
        cert = is_inner(H2, phi_inner, eps=1e-8)
        assert cert.is_inner, f.coeffs


def test_normalized_phi_is_inner_boundary_case():
    # structural identity for the single boundary zero: with phi = 1 + C k,
    # <phi, z^j phi> = C (1 + conj(C) pi^2/6) for every j >= 1 (hand sum:
    # w_j phi_j = C and sum_{t} 1/(t+1)^2 = pi^2/6), so inner-ness after
    # normalization reduces to C = -6/pi^2 and ||phi||^2 = phi(0)
    r = project_unity(D2, ONE_MINUS_Z, eps=1e-11)
    C = complex(r.constants[0])
    shift_inner = C * (1 + np.conj(C) * np.pi**2 / 6)
    assert abs(shift_inner) < 1e-8
    n = r.norm_sq(eps=1e-10)
    assert abs(n.value.real - r.phi0) <= n.err + 1e-9
    assert abs(n.value.real / r.phi0 - 1.0) < 1e-8


def test_shift_orthocomplement_basis_membership():
    # the constant 1 and every classified kernel are orthogonal to all
    # shifted multiples of f; their count is 1 + basis size
    cases = [(H2, HALF), (H2, HALF_SQ), (D2, ONE_MINUS_Z)]
    for space, f in cases:
        r = project_unity(space, f, eps=1e-11)
        members = 1
        assert orthogonal_to_shifts(space, f.monic(), ONE).orthogonal
        for spec in r.basis:
            if space is D2:
                # boundary kernels: envelopes cannot close the shift horizon
                # (the per-shift cancellation is structural), so run the
                # exact finite checks over an explicit range
                k = kernel_series(space, spec, length=200)
                check = orthogonal_to_shifts(space, f.monic(), k, eps=1e-10, k_max=40)
                assert not check.exact
            else:
                k = kernel_series(space, spec, eps=1e-14)
                check = orthogonal_to_shifts(space, f.monic(), k, eps=1e-8)
            assert check.orthogonal, (space.alpha, spec)
            members += 1
        assert members == 1 + r.classification.basis_size


# -- fast path ---------------------------------------------------------------------


def test_blaschke_projection_matches_interpolation_route():
    for f, phi0 in [(HALF, 0.25), (HALF_THIRD, 1 / 36), (HALF_TWO, 0.25)]:
        fast = blaschke_projection(f)
        slow = project_unity(H2, f, eps=1e-11)
        assert abs(fast.phi0 - phi0) < 1e-12
        assert abs(fast.phi0 - slow.phi0) < 1e-9
        n = min(len(fast.phi_series), 60)
        assert np.max(np.abs(fast.phi_coefficients(n) - slow.phi_coefficients(n))) < 1e-9


def test_blaschke_projection_double_zero():
    # the squared factor's computed double root carries the fp stagnation
    # offset (~1e-9), which propagates linearly into phi0
    fast = blaschke_projection(HALF_SQ)
    assert abs(fast.phi0 - 1 / 16) < 1e-7
    slow = project_unity(H2, HALF_SQ, eps=1e-11)
    assert abs(fast.phi0 - slow.phi0) < 1e-7


def test_cyclic_reads_the_zeros_for_both_constructors():
    # z - 1/2 has a zero in the disk, z - 2 none; the Blaschke result has no
    # kernel basis, so cyclic must not be read from the basis
    for f, cyclic in ((CPoly([-0.5, 1]), False), (CPoly([-2, 1]), True)):
        for result in (blaschke_projection(f), project_unity(WeightSequence.dirichlet(0.0), f)):
            assert result.cyclic is result.to_report()["cyclic"] is cyclic
            assert (result.dist_sq > 0.5) is not cyclic


def test_blaschke_projection_no_interior_zeros():
    fast = blaschke_projection(CPoly([1, -1 / 3]))
    assert fast.cyclic and fast.phi0 == 1.0


def test_series_backed_projection_refuses_kernel_evaluators():
    # the fast path carries phi0 and phi's coefficients, but no kernels to
    # evaluate phi, its derivatives or its norm from, nor to sum the tail of
    # a distance from (which would otherwise drop phi beyond the horizon)
    fast = blaschke_projection(HALF)
    for call in (
        lambda: fast.derivative_at(0.5, 0),
        lambda: fast.phi_at(0.2),
        fast.norm_sq,
        lambda: distance_to_poly(H2, CPoly([0]), fast, min_length=10),
    ):
        with pytest.raises(ValueError):
            call()


# -- equivalence ---------------------------------------------------------------------


def test_projection_equivalence():
    assert projection_equivalent(H2, HALF, HALF_TWO)
    assert not projection_equivalent(H2, HALF, CPoly([-1 / 3, 1]))
    assert projection_equivalent(H2, HALF, HALF)  # reflexive
    # two cyclic functions always share the projection phi = 1
    assert projection_equivalent(D1, ONE_MINUS_Z, CPoly([1, -1 / 3]))


# -- oracles -------------------------------------------------------------------------


def test_recurrence_residuals():
    r1 = project_unity(H2, HALF, eps=1e-11)
    assert recurrence_residual(H2, HALF, r1, 40) < 1e-10
    r2 = project_unity(D2, ONE_MINUS_Z, eps=1e-11)
    assert recurrence_residual(D2, ONE_MINUS_Z, r2, 40) < 1e-9
    r3 = project_unity(D1, ONE_MINUS_Z)  # cyclic: phi = 1
    assert recurrence_residual(D1, ONE_MINUS_Z, r3, 40) == 0.0


def _recurrence_loop(space, f, result, K):
    """The recurrence residual summed term by term, and the largest sum of
    the terms' moduli over k."""
    fm = f.monic()
    d, a = fm.degree, fm.coeffs
    phi = result.phi_coefficients(K + d + 1)
    w = space.weights(K + d + 1)
    worst, scale = 0.0, 0.0
    for k in range(1, K + 1):
        acc = w[k + d] * phi[k + d]
        mag = abs(acc)
        for j in range(d):
            acc += w[k + j] * np.conj(a[j]) * phi[k + j]
            mag += abs(w[k + j] * a[j] * phi[k + j])
        worst, scale = max(worst, abs(acc)), max(scale, mag)
    return worst, scale


def test_recurrence_residual_matches_the_term_by_term_loop():
    cases = [
        (H2, HALF),
        (H2, HALF_SQ),
        (H2, HALF_THIRD),
        (D2, ONE_MINUS_Z),
        (D1, CPoly([-0.2j, 0.5 + 0.4j, 1])),
        (WeightSequence.custom([1.0, 1.3, 1.6]), CPoly([0.2, -0.1 + 0.3j, 0.4, 1])),
    ]
    for space, f in cases:
        r = project_unity(space, f, eps=1e-11)
        for K in (1, 40):
            got = recurrence_residual(space, f, r, K)
            want, scale = _recurrence_loop(space, f, r, K)
            assert abs(got - want) <= 4 * (f.degree + 2) * 2.0**-53 * scale, (f, K)


def test_kernel_gram_is_the_mirrored_per_pair_sums(monkeypatch):
    # G[s, b] = <k_b, k_s> from start on: the nb (nb + 1) / 2 kernel sums in
    # one falling_product_sum call, each entry with its own stop, terms and
    # np.sum slices, so its value and error are its per-pair kernel_inner's
    # bit for bit, mirrored below: bases of projections, and interior,
    # interior-boundary and boundary pairs of orders up to 3 for each alpha
    calls = []
    summing = opa.spaces.falling_product_sum

    def counting(*args):
        calls.append(args)
        return summing(*args)

    monkeypatch.setattr(opa.spaces, "falling_product_sum", counting)
    cubic = CPoly([0.2 - 0.1j, 1]) * HALF_SQ
    cases = [(space, project_unity(space, f, eps=1e-11).basis, 1e-12) for space, f in [(H2, cubic), (D2, ONE_MINUS_Z), (D1, HALF_THIRD)]]
    inside = [KernelSpec(0.5 + 0.3j, n) for n in range(4)] + [KernelSpec(-0.6j, 0), KernelSpec(-0.6j, 1)]
    inside.append(KernelSpec(0.9995, 0))  # its square sums more than 2^14 terms
    for alpha in (-1.0, 0.0, 1.0, 2.0, 3.0):
        on = [KernelSpec(np.exp(0.7j), 0), KernelSpec(np.exp(2.0j), 0)] if alpha > 1 else []
        cases.append((WeightSequence.dirichlet(alpha), inside + on, 1e-6))
    for space, basis, eps in cases:
        nb = len(basis)
        for start in (0, 30, 700):
            calls.clear()
            G, err = _kernel_gram(space, basis, eps, start)
            assert len(calls) == 1 and np.size(calls[0][3]) == nb * (nb + 1) // 2
            for s in range(nb):
                for b in range(s, nb):
                    g = kernel_inner(space, basis[b], basis[s], eps, start)
                    if b > s:  # the diagonal holds the mirrored conj(value)
                        assert G[s, b].tobytes() == np.complex128(g.value).tobytes(), (space, s, b, start)
                    assert G[b, s].tobytes() == np.conj(g.value).tobytes(), (space, s, b, start)
                    assert err[s, b].tobytes() == err[b, s].tobytes() == np.float64(g.err).tobytes()
            off = ~np.eye(nb, dtype=bool)
            assert np.array_equal(G[off], G.conj().T[off])
            assert np.all(np.abs(np.diag(G).imag) <= np.diag(err))


def test_recurrence_detects_wrong_kernel_point():
    # the recurrence pins the kernel structure (its roots are the conjugated
    # zeros of f): moving the kernel point off the zero breaks it
    r = project_unity(H2, HALF, eps=1e-11)
    tampered = type(r)(
        r.space,
        r.f_monic,
        r.classification,
        [KernelSpec(0.52, 0)],
        r.constants,
        r.phi0,
        r.dist_sq,
    )
    assert recurrence_residual(H2, HALF, tampered, 40) > 1e-4


def test_phi_coefficients_explicit_form():
    # phi = 1 - (3/4) sum (1/2)^k z^k: coefficients 1/4, -3/8, -3/16, ...
    r = project_unity(H2, HALF, eps=1e-11)
    coeffs = r.phi_coefficients(6)
    ks = np.arange(6)
    expected = -0.75 * 0.5**ks
    expected[0] += 1.0
    assert np.allclose(coeffs, expected, atol=1e-10)


def test_distance_to_poly_of_zero_matches_norm():
    # || 0 - phi || = ||phi|| = sqrt(phi(0))
    r = project_unity(H2, HALF, eps=1e-12)
    d = distance_to_poly(H2, CPoly([0]), r, eps=1e-13)
    assert abs(d.value - 0.5) <= d.err + 1e-10


def test_boundary_zero_sweep_consistency():
    # For 1 - z under (k+1)^2 weights the sweep has the independent closed
    # form dist^2_n = 1 / sum_{m=1}^{n+2} m^-2 (weighted least-norm point of
    # a hyperplane), converging to 6/pi^2 like 1/n.  Both routes are checked
    # against each other and against the Pythagorean identity
    # dist^2_n - dist^2_inf = ||p_n f - phi||^2, confirming that no fixed
    # degree-60 sweep can agree with the closed form to 2e-6 for this f.
    f = ONE_MINUS_Z
    r = project_unity(D2, f, eps=1e-12)
    sweep = approximant_sweep(D2, f, ONE, 60)
    for n in (10, 35, 60):
        closed = 1.0 / sum((m + 1.0) ** -2 for m in range(n + 2))
        assert abs(sweep[n].distance_sq - closed) < 1e-12
    gap = sweep[60].distance_sq - r.dist_sq
    assert 5.9e-3 < gap < 6.1e-3  # ~ (6/pi^2)^2 / 62: far above 2e-6 by design
    pf = sweep[60].p_star * f
    d = distance_to_poly(D2, pf, r, eps=1e-13, min_length=4096)
    assert abs(d.value**2 - gap) < 1e-12 + 2 * d.err


def test_distance_to_poly_against_a_40_digit_reference():
    # ||p_n f - phi|| with phi built from the computed constants and zeros,
    # summed at 40 digits: through the horizon L, plus for the boundary case
    # the tail |C|^2 sum_{t>=L} (t+1)^-2 = |C|^2 zeta(2, L+1).  The value must
    # lie within err, and on interior zeros err must stay at rounding level
    # (it once read ~1e-7 on distances of 1e-13 to 1e-11)
    mp.mp.dps = 40
    cases = [
        (H2, HALF, 40),
        (H2, CPoly([-0.2j, 0.5 + 0.4j, 1]), 40),  # zeros 1/2 and -0.4i
        (D1, CPoly([-0.6j, 1]), 40),
        (D2, ONE_MINUS_Z, 60),
    ]
    for space, f, n in cases:
        r = project_unity(space, f, eps=1e-9)
        pf = approximant_sweep(space, f, ONE, n)[-1].p_star * f
        L = max(512, 4 * n)
        d = distance_to_poly(space, pf, r, eps=1e-13, min_length=L)
        C = [mp.mpc(complex(c)) for c in r.constants]
        total = mp.mpf(0)
        for t in range(L):
            w = mp.mpf(t + 1) ** space.alpha
            phi = mp.mpc(1 if t == 0 else 0)
            for c, spec in zip(C, r.basis):
                if t >= spec.order:
                    beta = mp.conj(mp.mpc(complex(spec.beta)))
                    phi += c * mp.ff(t, spec.order) * beta ** (t - spec.order) / w
            total += w * abs(phi - mp.mpc(complex(pf.coefficient(t)))) ** 2
        boundary = any(abs(abs(complex(s.beta)) - 1) < 1e-12 for s in r.basis)
        if boundary:
            total += abs(C[0]) ** 2 * mp.zeta(2, L + 1)
        assert abs(mp.sqrt(total) - d.value) <= d.err, (f, n)
        if not boundary:
            assert d.err <= 1e-12, (f, d.err)


def test_phi_values_and_derivatives_match_coefficient_sums():
    # phi^(n)(z) = delta_n0 + sum_b C_b sum_k P_j(k) P_n(k) conj(beta_b)^(k-j)
    # z^(k-n) / w_k with the computed constants, summed at 40 digits; values
    # must lie within err alone, at 0 too (the kernel-at-0 branch), and in a
    # custom space whose small weights make phi''(0) large
    mp.mp.dps = 40
    tiny = WeightSequence.custom([1.0, 1e-3, 1e-6, 1e-6])
    for space, f in [(H2, HALF_THIRD), (tiny, CPoly([0.1 + 0.2j, 1]))]:
        r = project_unity(space, f, eps=1e-12)
        for z, n in [(0.3 - 0.4j, 0), (0.0, 0), (-0.7, 0), (0.0, 1), (0.0, 2), (0.2j, 1)]:
            v = r.derivative_at(z, n, eps=1e-13) if n else r.phi_at(z, eps=1e-13)
            exact = mp.mpc(1 if n == 0 else 0)
            for spec, c in zip(r.basis, r.constants):
                beta, j = mp.conj(mp.mpc(complex(spec.beta))), spec.order
                zz = mp.mpc(complex(z))
                exact += mp.mpc(complex(c)) * mp.fsum(
                    mp.ff(k, j) * mp.ff(k, n) * beta ** (k - j) * zz ** (k - n)
                    / mp.mpf(space.weight(k))
                    for k in range(max(j, n), 400)
                )
            assert abs(mp.mpc(v.value) - exact) <= v.err, (space, z, n)
    # phi'(0) = phi_1
    r = project_unity(H2, HALF_THIRD, eps=1e-12)
    d = r.derivative_at(0.0, 1, eps=1e-13)
    assert abs(d.value - r.phi_coefficients(2)[1]) <= d.err


def test_gram_sweep_oracle_converges_to_phi():
    f = HALF
    r = project_unity(H2, f, eps=1e-12)
    sweep = approximant_sweep(H2, f, ONE, 40)
    dists = []
    for n in (10, 25, 40):
        pf = sweep[n].p_star * f
        d = distance_to_poly(H2, pf, r, eps=1e-13)
        dists.append(d.value + d.err)
    # geometric convergence: ||p_n f - phi||^2 = dist_n^2 - dist_inf^2 ~ 4^-n
    assert dists[0] < 1e-3 and dists[-1] < 1e-6
    assert dists[0] > dists[1] > dists[2]
    assert abs(sweep[-1].distance_sq - r.dist_sq) < 1e-10


def test_kernel_table_is_kept_and_sliced(monkeypatch):
    # the first request builds K[b, t] = k_b(t) for its length; a shorter one
    # is a slice, equal bit for bit to fresh kernel_coefficients rows
    from opa.spaces import kernel_coefficients

    built = []

    def counting(space, spec, length):
        built.append(length)
        return kernel_coefficients(space, spec, length)

    monkeypatch.setattr(opa.projection, "kernel_coefficients", counting)
    f = CPoly([0.2 - 0.1j, 1]) * HALF_SQ
    r = project_unity(D1, f)
    p = approximant_sweep(D1, f, ONE, 12)[-1].p_star * f
    distance_to_poly(D1, p, r, min_length=512)
    recurrence_residual(D1, f, r, K=40)
    r.phi_coefficients(100)
    assert built == [512] * len(r.basis)
    for length in (46, 100, 512):
        fresh = np.array([kernel_coefficients(D1, s, length) for s in r.basis])
        assert r._kernel_matrix(length).tobytes() == fresh.tobytes()
    longer = r._kernel_matrix(600)
    assert built[-len(r.basis):] == [600] * len(r.basis) and longer.shape == (len(r.basis), 600)
