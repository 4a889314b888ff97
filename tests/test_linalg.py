"""In-house Cholesky solver and simultaneous root finder."""

import math

import numpy as np
import pytest

from band_reference import dense_factor_reference, factor_reference, to_band, to_dense
from opa import linalg
from opa.errors import NotPositiveDefiniteError, RootFindingError
from opa.linalg import (
    SCALAR_BAND_MAX,
    _cluster,
    _eval_scale,
    _eval_with_derivative,
    _polish,
    _sorted_roots,
    backward_substitute_H,
    check_hermitian,
    cholesky_band,
    cholesky_border,
    cholesky_factor,
    cholesky_solve,
    forward_substitute,
    poly_roots,
    solve_factored,
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


def _reference_poly_roots(p, max_sweeps=200, cluster_radius=1e-7):
    """poly_roots with its Ehrlich-Aberth sweep written root by root: one
    copy of the other iterates and one sum per root, Horner on numpy scalars."""
    coeffs = p.normalize().coeffs
    deg = coeffs.size - 1
    zero_mult = 0
    while zero_mult < deg and coeffs[zero_mult] == 0:
        zero_mult += 1
    work = coeffs[zero_mult:]
    results = [(0j, zero_mult)] if zero_mult else []
    d = work.size - 1
    if d == 0:
        return results
    if d == 1:
        return _sorted_roots(results + [(complex(-work[0] / work[1]), 1)])
    lead = work[-1]
    radius = 1.0 + float(np.max(np.abs(work[:-1]))) / abs(lead)
    z = radius * np.exp(1j * (2.0 * math.pi * np.arange(d) / d + 0.4))
    monic = work / lead
    for _ in range(max_sweeps):
        moved = 0.0
        pv = np.empty(d, dtype=complex)
        dv = np.empty(d, dtype=complex)
        for i in range(d):
            pv[i], dv[i] = _eval_with_derivative(monic, z[i])
        new_z = z.copy()
        for i in range(d):
            if pv[i] == 0:
                continue
            if dv[i] == 0:
                newton = pv[i] / (dv[i] + 1e-300)
            else:
                newton = pv[i] / dv[i]
            diffs = z[i] - np.delete(z, i)
            diffs[diffs == 0] = 1e-300
            s = np.sum(1.0 / diffs)
            denom = 1.0 - newton * s
            if denom == 0:
                denom = 1e-300
            step = newton / denom
            new_z[i] = z[i] - step
            moved = max(moved, abs(step) / (1.0 + abs(z[i])))
        z = new_z
        if moved <= 1e-13:
            break
    else:
        raise RootFindingError(f"no convergence after {max_sweeps} sweeps", best=z.copy())
    for center, mult in _cluster(z, cluster_radius):
        root = _polish(monic, center, mult)
        results.append((root, mult))
        val, _ = _eval_with_derivative(work, root)
        if abs(val) > 1e-9 * _eval_scale(work, root):
            raise RootFindingError(
                f"residual {abs(val):.3g} too large at root {root}", best=z.copy()
            )
    return _sorted_roots(results)


def _roots_outcome(finder, p):
    try:
        return finder(p)
    except RootFindingError as exc:
        return str(exc), exc.best.tolist()


def test_roots_bit_identical_to_root_by_root_sweep():
    # a zero of multiplicity 1-3 inside, on or outside the unit circle, plus
    # simple zeros up to degree 8; repeated zeros often exhaust the sweeps
    rng = np.random.default_rng(2024)
    failures = {1: 0, 2: 0, 3: 0}
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
                want = _roots_outcome(_reference_poly_roots, p)
                assert _roots_outcome(poly_roots, p) == want
                failures[mult] += isinstance(want, tuple)
    assert failures[1] == 0
    assert 0 < failures[2] < 36 and 0 < failures[3] < 36


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
