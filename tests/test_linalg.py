"""In-house Cholesky solver and simultaneous root finder."""

import numpy as np
import pytest

from opa.errors import NotPositiveDefiniteError, RootFindingError
from opa.linalg import (
    check_hermitian,
    cholesky_border,
    cholesky_factor,
    cholesky_solve,
    poly_roots,
)
from opa.series import CPoly


def test_two_by_two_hand_solve():
    a = np.array([[2, -1], [-1, 2]], dtype=complex)
    x = cholesky_solve(a, np.array([1, 0], dtype=complex))
    assert np.allclose(x, [2 / 3, 1 / 3], atol=1e-14)


def test_identity_returns_rhs():
    rhs = np.array([1 + 2j, -3, 0.5j])
    assert np.allclose(cholesky_solve(np.eye(3, dtype=complex), rhs), rhs)


def test_singular_matrix_rejected():
    with pytest.raises(NotPositiveDefiniteError):
        cholesky_solve(np.array([[1, 0], [0, 0]], dtype=complex), np.array([1, 1]))


def test_non_hermitian_rejected():
    with pytest.raises(ValueError):
        check_hermitian(np.array([[1, 2], [3, 1]], dtype=complex))


def test_non_finite_entries_rejected():
    # a NaN once compared false against the tolerance and was ignored by max
    for bad in (np.nan, np.inf, complex(0, np.nan)):
        for i, j in ((1, 0), (0, 1), (1, 1)):
            a = np.array([[1, 2], [2, 1]], dtype=complex)
            a[i, j] = bad
            with pytest.raises(ValueError, match="non-finite"):
                check_hermitian(a)


def test_random_hpd_residuals_and_oracle():
    # A^H A + I is Hermitian positive definite; the solver residual contract
    # is 1e-10 relative, and numpy's general solver is an independent oracle
    rng = np.random.RandomState(17)
    for n in (2, 5, 12, 30):
        A = rng.randn(n, n) + 1j * rng.randn(n, n)
        G = A.conj().T @ A + np.eye(n)
        rhs = rng.randn(n) + 1j * rng.randn(n)
        x = cholesky_solve(G, rhs)
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
    assert np.max(np.abs(L - L_full)) < 1e-11


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
