"""In-house Cholesky solver and simultaneous root finder."""

import math

import numpy as np
import pytest

from band_reference import dense_factor_reference, factor_reference, to_band, to_dense
from opa import linalg
from opa.errors import NotPositiveDefiniteError, RootFindingError
from opa.linalg import (
    SCALAR_BAND_MAX,
    backward_substitute_H,
    cholesky_band,
    cholesky_border,
    cholesky_factor,
    forward_substitute,
    poly_roots,
    solve_factored,
)
from opa.series import CPoly


def _dense_solve(G, rhs):
    return solve_factored(cholesky_factor(G), rhs)


def test_two_by_two_hand_solve():
    a = np.array([[2, -1], [-1, 2]], dtype=complex)
    x = _dense_solve(a, np.array([1, 0], dtype=complex))
    assert np.allclose(x, [2 / 3, 1 / 3], atol=1e-14)


def test_identity_returns_rhs():
    rhs = np.array([1 + 2j, -3, 0.5j])
    assert np.allclose(_dense_solve(np.eye(3, dtype=complex), rhs), rhs)


def test_singular_matrix_rejected():
    with pytest.raises(NotPositiveDefiniteError):
        _dense_solve(np.array([[1, 0], [0, 0]], dtype=complex), np.array([1, 1]))


def test_random_hpd_residuals_and_oracle():
    # A^H A + I is Hermitian positive definite; the solver residual contract
    # is 1e-10 relative, and numpy's general solver is an independent oracle
    rng = np.random.RandomState(17)
    for n in (2, 5, 12, 30):
        A = rng.randn(n, n) + 1j * rng.randn(n, n)
        G = A.conj().T @ A + np.eye(n)
        rhs = rng.randn(n) + 1j * rng.randn(n)
        x = _dense_solve(G, rhs)
        res = np.max(np.abs(G @ x - rhs))
        assert res <= 1e-10 * max(1.0, np.max(np.abs(rhs)))
        oracle = np.linalg.solve(G, rhs)
        assert np.max(np.abs(x - oracle)) < 1e-8 * (1 + np.max(np.abs(oracle)))


def test_bordered_factor_matches_full_factor():
    rng = np.random.RandomState(23)
    n = 8
    A = rng.randn(n, n) + 1j * rng.randn(n, n)
    G = A.conj().T @ A + np.eye(n)
    L = cholesky_factor(G[:1, :1])
    for k in range(1, n):
        L = cholesky_border(L, G[: k + 1, k])
    L_full = cholesky_factor(G)
    assert L.shape == L_full.shape == (n, n)
    assert np.max(np.abs(L - L_full)) < 1e-11


def _dense_forward_reference(L, b):
    n = L.shape[0]
    y = np.zeros(n, dtype=complex)
    for i in range(n):
        y[i] = (b[i] - np.dot(L[i, :i], y[:i])) / L[i, i]
    return y


def _dense_backward_reference(L, y):
    """The dense back substitution as it stood before it took a band."""
    n = L.shape[0]
    x = np.zeros(n, dtype=complex)
    for i in range(n - 1, -1, -1):
        x[i] = (y[i] - np.dot(np.conj(L[i + 1 :, i]), x[i + 1 :])) / np.conj(L[i, i])
    return x


def test_dense_factor_and_solve_are_bit_identical_to_the_dense_loop():
    rng = np.random.RandomState(31)
    for n in (1, 2, 5, 17, 64, 130):
        A = rng.randn(n, n) + 1j * rng.randn(n, n)
        G = A.conj().T @ A + np.eye(n)
        b = rng.randn(n) + 1j * rng.randn(n)
        L_ref = dense_factor_reference(G)
        y_ref = _dense_forward_reference(L_ref, b)
        x_ref = _dense_backward_reference(L_ref, y_ref)
        assert solve_factored(to_band(L_ref), b).tobytes() == x_ref.tobytes(), n
        # no band, and a band as wide as the matrix, run the dense slices
        for band in (None, n - 1, n):
            L = cholesky_factor(G) if band is None else cholesky_band(to_band(G, band))
            assert to_dense(L).tobytes() == L_ref.tobytes(), (n, band)
            assert forward_substitute(L, b).tobytes() == y_ref.tobytes(), (n, band)
            y = y_ref.copy()
            assert backward_substitute_H(L, y) is y  # in place
            assert y.tobytes() == x_ref.tobytes(), (n, band)


def test_banded_factor_matches_dense_and_keeps_its_band():
    rng = np.random.RandomState(37)
    n = 60
    for band in (0, 1, 3, 7):
        G = np.zeros((n, n), dtype=complex)
        for s in range(band + 1):
            v = rng.randn(n - s) + 1j * rng.randn(n - s)
            G += np.diag(v, -s) + np.diag(v.conj(), s)
        G += np.eye(n) * (4.0 * band + 4.0 - np.diag(G).real)  # diagonally dominant
        L = cholesky_band(to_band(G, band))
        assert L.shape == (n, band + 1)
        Ld = to_dense(L)
        assert np.all(np.tril(Ld, -band - 1) == 0)
        L_dense = to_dense(cholesky_factor(G))
        assert np.max(np.abs(Ld - L_dense)) <= 1e-14 * np.max(np.abs(L_dense))
        b = rng.randn(n) + 1j * rng.randn(n)
        y = forward_substitute(L, b)
        assert np.max(np.abs(Ld @ y - b)) <= 1e-13 * np.max(np.abs(b))
        # one right-hand side per column, each as if solved alone
        B = rng.randn(n, 3) + 1j * rng.randn(n, 3)
        X = backward_substitute_H(L, B.copy())
        assert np.max(np.abs(Ld.conj().T @ X - B)) <= 1e-13 * np.max(np.abs(B))
        for c in range(3):
            x = backward_substitute_H(L, B[:, c].copy())
            assert np.max(np.abs(x - X[:, c])) <= 1e-14 * np.max(np.abs(x))


def _banded_hpd(rng, n, band):
    """A diagonally dominant Hermitian matrix with ``band`` diagonals below
    the main one (fewer when n <= band)."""
    G = np.zeros((n, n), dtype=complex)
    for s in range(min(band, n - 1) + 1):
        v = rng.randn(n - s) + 1j * rng.randn(n - s)
        G += np.diag(v, -s) + np.diag(v.conj(), s)
    return G + np.eye(n) * (4.0 * band + 4.0 - np.diag(G).real)


def test_narrow_bands_match_the_dense_loop():
    # bands up to SCALAR_BAND_MAX and narrower than the matrix take the scalar
    # loops, the rest the numpy loop; both agree with the dense loop
    rng = np.random.RandomState(43)
    for band in range(SCALAR_BAND_MAX + 2):
        for n in sorted({1, 2, band, band + 1, 60, 401} - {0}):
            G = _banded_hpd(rng, n, band)
            b = rng.randn(n) + 1j * rng.randn(n)
            L_ref = dense_factor_reference(G)
            y_ref = _dense_forward_reference(L_ref, b)
            x_ref = _dense_backward_reference(L_ref, y_ref)
            # entries below the band are never read
            noisy = G + np.tril(rng.randn(n, n), -band - 1)
            L = to_dense(cholesky_band(to_band(noisy, band)))
            assert np.all(np.tril(L, -band - 1) == 0), (n, band)
            assert np.all(np.triu(L, 1) == 0), (n, band)
            scale = np.max(np.abs(L_ref))
            assert np.max(np.abs(L - L_ref)) <= 1e-14 * scale, (n, band)
            R = to_band(L_ref, band)
            y = forward_substitute(R, b)
            assert np.max(np.abs(y - y_ref)) <= 1e-14 * np.max(np.abs(y_ref)), (n, band)
            # in place, for a vector and for a one-column matrix (a view here)
            x = y_ref.copy()
            assert backward_substitute_H(R, x) is x
            assert np.max(np.abs(x - x_ref)) <= 1e-14 * np.max(np.abs(x_ref)), (n, band)
            B = np.zeros((n, 3), dtype=complex)
            B[:, 1] = y_ref
            col = B[:, 1:2]
            assert backward_substitute_H(R, col) is col
            assert B[:, 1].tobytes() == x.tobytes() and not B[:, 0].any() and not B[:, 2].any()


def _refusal(factor, *args):
    with pytest.raises(NotPositiveDefiniteError) as exc:
        factor(*args)
    return str(exc.value)


def _refused_at(G, band):
    message = _refusal(cholesky_factor, G) if band is None else _refusal(cholesky_band, to_band(G, band))
    return int(message.split("at index ")[1].split()[0])


def _assert_refused(G, band, k):
    # on a band array, with the message of the dense-storage loop of its band
    # (the scalar one to band 5, the numpy one past it), at the dense loop's index
    message = _refusal(cholesky_band, to_band(G, band))
    assert message == _refusal(factor_reference, G, band), band
    assert _refused_at(G, band) == _refused_at(G, None) == k, (band, k)


def test_narrow_band_refusals_match_the_dense_loop():
    rng = np.random.RandomState(47)
    for band in range(13):
        n = 30
        for k in (0, 1, band + 1, 17, n - 1):
            # a negative pivot at k
            G = _banded_hpd(rng, n, band)
            G[k, k] = -1.0
            _assert_refused(G, band, k)
            # a singular matrix, L0 L0^H with L0[k, k] = 0: its pivot at k is
            # zero up to rounding
            L0 = np.linalg.cholesky(_banded_hpd(rng, n, band))
            L0[k, k] = 0.0
            S = L0 @ L0.conj().T
            _assert_refused(S, band, k)
            # NaN data, on the diagonal or in the band below it
            for i, j in ((k, k), (k, k - 1), (k, k - band)):
                if 0 <= j <= i and i - j <= band:
                    G = _banded_hpd(rng, n, band)
                    G[i, j] = G[j, i] = np.nan
                    _assert_refused(G, band, i)


# -- roots -------------------------------------------------------------------


def test_roots_factored_quadratic():
    roots = poly_roots(CPoly([1, -2.5, 1]))
    assert roots == [(pytest.approx(0.5, abs=1e-9), 1), (pytest.approx(2.0, abs=1e-9), 1)]


def test_roots_double_root():
    roots = poly_roots(CPoly([0.25, -1, 1]))
    assert len(roots) == 1
    root, mult = roots[0]
    assert mult == 2
    assert abs(root - 0.5) < 1e-7


@pytest.mark.parametrize(
    "cofactor",
    # (z - 0.3i)(z - 1/2)^2 and (z^2 + (-0.4 + 0.2i) z + 0.1)(z - 1/2)^2: a
    # double zero next to simple ones, which a stop test on the step size
    # alone never ended, since the double zero's iterates stall about 1e-8 away
    [CPoly([-0.3j, 1]), CPoly([0.1, -0.4 + 0.2j, 1])],
)
def test_double_root_next_to_simple_ones(cofactor):
    roots = poly_roots(cofactor * CPoly([0.25, -1, 1]))
    assert sum(m for _, m in roots) == cofactor.degree + 2
    double = [(r, m) for r, m in roots if abs(r - 0.5) < 1e-3]
    assert len(double) == 1 and double[0][1] == 2
    assert abs(double[0][0] - 0.5) < 1e-14


def test_roots_linear():
    roots = poly_roots(CPoly([1, -0.5]))
    assert len(roots) == 1
    assert abs(roots[0][0] - 2.0) < 1e-14


def test_roots_at_origin():
    roots = poly_roots(CPoly([0, 0, 1, -1]))  # z^2 (1 - z)... coefficients 0,0,1,-1
    mults = {complex(round(r.real, 6), round(r.imag, 6)): m for r, m in roots}
    assert mults[0j] == 2
    assert mults[1 + 0j] == 1


def test_roots_random_constructions():
    rng = np.random.RandomState(31)
    for _ in range(20):
        deg = rng.randint(2, 13)
        # well-separated roots in an annulus
        while True:
            roots = rng.randn(deg) + 1j * rng.randn(deg)
            ok = True
            for i in range(deg):
                for j in range(i + 1, deg):
                    if abs(roots[i] - roots[j]) < 1e-3:
                        ok = False
            if ok:
                break
        coeffs = np.array([1.0 + 0j])
        for r in roots:
            coeffs = np.convolve(coeffs, np.array([-r, 1.0]))
        found = poly_roots(CPoly(coeffs))
        assert sum(m for _, m in found) == deg
        got = sorted(
            (r for r, m in found for _ in range(m)),
            key=lambda z: (round(z.real, 9), round(z.imag, 9)),
        )
        want = sorted(roots, key=lambda z: (round(z.real, 9), round(z.imag, 9)))
        for a, b in zip(got, want):
            assert abs(a - b) < 1e-7


def test_roots_match_companion_oracle():
    rng = np.random.RandomState(41)
    for _ in range(10):
        coeffs = rng.randn(7) + 1j * rng.randn(7)
        found = poly_roots(CPoly(coeffs))
        mine = sorted(
            (r for r, m in found for _ in range(m)),
            key=lambda z: (round(z.real, 6), round(z.imag, 6)),
        )
        oracle = sorted(
            np.roots(coeffs[::-1]), key=lambda z: (round(z.real, 6), round(z.imag, 6))
        )
        for a, b in zip(mine, oracle):
            assert abs(a - b) < 1e-6


def test_roots_deterministic():
    coeffs = [0.3, -1.2, 0.7, 1.0]
    r1 = poly_roots(CPoly(coeffs))
    r2 = poly_roots(CPoly(coeffs))
    assert r1 == r2


def test_roots_degree_zero_rejected():
    with pytest.raises(ValueError):
        poly_roots(CPoly([1]))


def test_no_convergence_reports_best_iterate():
    with pytest.raises(RootFindingError) as exc:
        poly_roots(CPoly([1, 0, 0, 0, 0, 1]), max_sweeps=1)
    assert exc.value.best is not None


def test_repeated_zeros_converge_with_exact_multiplicity():
    # a zero of multiplicity 1-3 inside, on or outside the unit circle, plus
    # simple zeros up to degree 8 (108 polynomials): every zero is found with
    # its multiplicity m, within 4 (m! bound / |f^(m)(beta)|)^(1/m) of the
    # zero beta it was built from, for Horner's rounding bound at beta (the
    # distance at which m zeros of a perturbation of f can sit)
    rng = np.random.default_rng(2024)
    for mult in (1, 2, 3):
        for radius in (0.5, 1.0, 1.7):
            for _ in range(12):
                others = rng.integers(max(0, 2 - mult), 9 - mult)
                zeros = [radius * np.exp(2j * np.pi * rng.random())] * mult
                zeros += list(2 * rng.random(others) * np.exp(2j * np.pi * rng.random(others)))
                coeffs = np.array([1.0 + 0j])
                for r in zeros:
                    coeffs = np.convolve(coeffs, [-r, 1.0])
                p = CPoly(coeffs * (0.3 - 1.1j))
                found = poly_roots(p)
                assert sum(m for _, m in found) == p.degree
                gamma = (4 * p.degree + 1) * 2.0**-53
                for beta in set(zeros):
                    m = zeros.count(beta)
                    bound = gamma * np.polyval(np.abs(p.coeffs[::-1]), abs(beta))
                    dm = np.polyval(np.polyder(p.coeffs[::-1], m), beta)
                    allowed = 4 * (math.factorial(m) * bound / abs(dm)) ** (1 / m)
                    root, got = min(found, key=lambda rm: abs(rm[0] - beta))
                    assert got == m and abs(root - beta) <= allowed, (zeros, found)


@pytest.mark.parametrize("scalar_band_max", [-1, 12])
def test_stacked_right_hand_sides_solve_as_single_ones(monkeypatch, scalar_band_max):
    # forward_substitute of vectors stacked as rows reads L once and gives each
    # row the bits of its own solve, for bands 0-12 on the numpy loop (-1) and
    # on the scalar loop (12), across the scalar loop's chunks of rows; a
    # two-column numpy product could sum in another order
    monkeypatch.setattr(linalg, "SCALAR_BAND_MAX", scalar_band_max)
    rng = np.random.RandomState(43)
    n = linalg._CHUNK + 30
    for band in range(13):
        G = np.zeros((n, band + 1), dtype=complex)
        G[:, :band] = rng.randn(n, band) + 1j * rng.randn(n, band)
        G[:, band] = 4.0 * band + 4.0  # diagonally dominant
        G[np.arange(n)[:, None] < band - np.arange(band + 1)] = 0
        L = cholesky_band(G)
        B = rng.randn(2, n) + 1j * rng.randn(2, n)
        B[1] = 0
        B[1, 0] = 1  # e_0, as cyclicity_diagnostic solves it
        Y = forward_substitute(L, B)
        for row in range(2):
            assert Y[row].tobytes() == forward_substitute(L, B[row].copy()).tobytes(), (band, row)
