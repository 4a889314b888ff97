"""Dense Hermitian positive-definite solver and complex polynomial roots.

Both algorithms are implemented in-house: the systems are small (n_max + 1
unknowns, degrees up to ~12) and deterministic, portable behavior matters
more than peak performance.  All functions are pure and reentrant.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NotPositiveDefiniteError, RootFindingError
from .series import CPoly

_PIVOT_TOL = 1e-14
_HERM_RTOL = 1e-13
_CLUSTER_RADIUS = 1e-7


def check_hermitian(matrix: np.ndarray, rtol: float = _HERM_RTOL) -> np.ndarray:
    """Validate (and return) a square Hermitian matrix."""
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    # row by row, so that no temporary is as large as the matrix
    rows = range(a.shape[0])
    scale = max([1.0] + [float(np.max(np.abs(a[i]))) for i in rows])
    dev = max([0.0] + [float(np.max(np.abs(a[i, i:] - np.conj(a[i:, i])))) for i in rows])
    if dev > rtol * scale:
        raise ValueError("matrix is not Hermitian within tolerance")
    return a


def cholesky_factor(matrix: np.ndarray) -> np.ndarray:
    """Lower-triangular L with matrix = L L^H.

    Raises NotPositiveDefiniteError when a pivot falls to 1e-14 or below,
    which signals either a (near-)singular Gram matrix or a degree far too
    large for double precision.
    """
    a = check_hermitian(matrix)
    n = a.shape[0]
    L = np.zeros((n, n), dtype=complex)
    for j in range(n):
        d = (a[j, j] - np.vdot(L[j, :j], L[j, :j])).real
        if not d > _PIVOT_TOL:  # also refuses NaN
            raise NotPositiveDefiniteError(
                f"pivot {d:.3g} at index {j} is not positive"
            )
        L[j, j] = math.sqrt(d)
        L[j + 1 :, j] = (a[j + 1 :, j] - L[j + 1 :, :j] @ np.conj(L[j, :j])) / L[j, j]
    return L


def cholesky_border(L: np.ndarray, column: np.ndarray) -> np.ndarray:
    """Extend L (factor of an n x n matrix) by one row for the bordered
    matrix [[A, c[:-1]], [c[:-1]^H, c[-1]]]."""
    n = L.shape[0]
    c = np.asarray(column, dtype=complex)
    if c.size != n + 1:
        raise ValueError("border column must have length n + 1")
    y = forward_substitute(L, c[:n])
    d = (c[n] - np.vdot(y, y)).real
    if not d > _PIVOT_TOL:  # also refuses NaN
        raise NotPositiveDefiniteError(f"border pivot {d:.3g} is not positive")
    out = np.zeros((n + 1, n + 1), dtype=complex)
    out[:n, :n] = L
    out[n, :n] = np.conj(y)
    out[n, n] = math.sqrt(d)
    return out


def forward_substitute(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    n = L.shape[0]
    y = np.zeros(n, dtype=complex)
    for i in range(n):
        y[i] = (b[i] - np.dot(L[i, :i], y[:i])) / L[i, i]
    return y


def backward_substitute_H(L: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Solve L^H x = y."""
    n = L.shape[0]
    x = np.zeros(n, dtype=complex)
    for i in range(n - 1, -1, -1):
        x[i] = (y[i] - np.dot(np.conj(L[i + 1 :, i]), x[i + 1 :])) / np.conj(L[i, i])
    return x


def solve_factored(L: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    return backward_substitute_H(L, forward_substitute(L, np.asarray(rhs, dtype=complex)))


def cholesky_solve(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a Hermitian positive-definite system with one refinement step.

    The residual contract ||G a - rhs||_inf <= 1e-10 ||rhs||_inf holds for
    condition numbers up to about 1e8.
    """
    a = check_hermitian(matrix)
    b = np.asarray(rhs, dtype=complex)
    if b.shape != (a.shape[0],):
        raise ValueError("rhs length must match matrix dimension")
    L = cholesky_factor(a)
    x = solve_factored(L, b)
    # one step of iterative refinement keeps the residual near machine level
    r = b - a @ x
    x = x + solve_factored(L, r)
    return x


def condition_estimate(L: np.ndarray) -> float:
    """Crude spectral-condition estimate from the Cholesky diagonal."""
    d = np.abs(np.diag(L))
    if d.min() == 0:
        return math.inf
    return float((d.max() / d.min()) ** 2)


# ---------------------------------------------------------------------------
# polynomial roots
# ---------------------------------------------------------------------------


def _eval_with_derivative(coeffs: np.ndarray, z: complex):
    p = 0j
    dp = 0j
    for c in coeffs[::-1]:
        dp = dp * z + p
        p = p * z + c
    return p, dp


def _eval_scale(coeffs: np.ndarray, z: complex) -> float:
    az = abs(z)
    s = 0.0
    for k, c in enumerate(coeffs):
        s += abs(c) * az**k
    return max(s, 1e-300)


def poly_roots(
    p: CPoly,
    max_sweeps: int = 200,
    cluster_radius: float = _CLUSTER_RADIUS,
) -> list[tuple[complex, int]]:
    """All roots with multiplicities, via simultaneous (Ehrlich-Aberth) iteration.

    Starting points sit on a deterministic circle of radius
    1 + max|coeff|/|lead| with a fixed phase offset; iterates are polished by
    multiplicity-aware Newton steps after clustering.  Roots within pairwise
    distance ``cluster_radius`` merge into one root with summed multiplicity,
    so exactly repeated roots (e.g. squared factors) are detected while
    clusters tighter than the stagnation radius of double precision are not
    separated.  The returned multiplicities always sum to deg p.
    """
    coeffs = p.normalize().coeffs
    deg = coeffs.size - 1
    if deg < 1:
        raise ValueError("root finding requires degree >= 1")
    # factor out exact roots at the origin
    zero_mult = 0
    while zero_mult < deg and coeffs[zero_mult] == 0:
        zero_mult += 1
    work = coeffs[zero_mult:]
    results: list[tuple[complex, int]] = []
    if zero_mult:
        results.append((0j, zero_mult))
    d = work.size - 1
    if d == 0:
        return results
    if d == 1:
        root = complex(-work[0] / work[1])
        results.append((root, 1))
        return _sorted_roots(results)
    lead = work[-1]
    radius = 1.0 + float(np.max(np.abs(work[:-1]))) / abs(lead)
    offset = 0.4
    angles = 2.0 * math.pi * np.arange(d) / d + offset
    z = radius * np.exp(1j * angles)
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
        raise RootFindingError(
            f"no convergence after {max_sweeps} sweeps", best=z.copy()
        )
    clusters = _cluster(z, cluster_radius)
    for center, mult in clusters:
        root = _polish(monic, center, mult)
        results.append((root, mult))
        scale = _eval_scale(work, root)
        val, _ = _eval_with_derivative(work, root)
        if abs(val) > 1e-9 * scale:
            raise RootFindingError(
                f"residual {abs(val):.3g} too large at root {root}", best=z.copy()
            )
    return _sorted_roots(results)


def _cluster(points: np.ndarray, radius: float):
    """Transitive clustering within the given radius."""
    n = points.size
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(points[i] - points[j]) <= radius:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups: dict[int, list[complex]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(complex(points[i]))
    return [(sum(g) / len(g), len(g)) for g in groups.values()]


def _polish(monic: np.ndarray, z: complex, mult: int) -> complex:
    for _ in range(4):
        p, dp = _eval_with_derivative(monic, z)
        if dp == 0 or p == 0:
            break
        z = z - mult * p / dp
    return complex(z)


def _sorted_roots(results):
    return sorted(results, key=lambda rm: (round(rm[0].real, 9), round(rm[0].imag, 9)))
