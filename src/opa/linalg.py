"""Banded Hermitian positive-definite solver and complex polynomial roots.

Both algorithms are implemented in-house: deterministic, portable behavior
matters more than peak performance.  Every Gram system and Cholesky factor is
one (n, b + 1) band array (LAPACK's lower band storage): row i holds [G[i,
i-b], ..., G[i, i]], zero left of column 0, for the bandwidth b (d for the
Gram matrix of a degree-d polynomial, n - 1 for a dense one).  lower_rows is
the one reader of a dense matrix into a band array: of a stored series' Gram
matrix, and in cholesky_factor of a dense system (a kernel Gram matrix,
cholesky_solve's).  A factor costs O(n b^2) time and O(n b) memory, a solve
O(n b) a right-hand side.  Two loops
do the work, chosen by b: one over Python complex scalars, read and written
back _CHUNK rows at a time, for a band of at most ``SCALAR_BAND_MAX``
diagonals narrower than the matrix (every polynomial Gram system of the
benchmark's workloads), and a numpy loop for the rest (the dense case with
the dense loop's bits) and for a sweep's back substitution, vectorized across
degrees.  They agree to rounding, not bit for bit.  All functions are
reentrant and pure, but backward_substitute_H overwrites its right-hand side.
"""

from __future__ import annotations

import math
from operator import mul

import numpy as np

from .errors import NotPositiveDefiniteError, RootFindingError
from .series import CPoly

# A band of at most this many diagonals below the main one, and narrower than
# the matrix, takes the scalar loops.  At n = 41 and 401 (2-vCPU host, one BLAS
# thread, min of 7, interleaved) the scalar factor took 0.57, 0.70-0.72,
# 0.84-0.87 and 1.01-1.05 of the numpy factor's time at bands 4 to 7; the forward
# substitution stays faster to band 8, a one-column back substitution to 12.
SCALAR_BAND_MAX = 5
_CHUNK = 1024  # rows a scalar loop turns into Python scalars at a time
_PIVOT_TOL = 1e-14
_HERM_RTOL = 1e-13
_CLUSTER_RADIUS = 1e-7


def check_hermitian(matrix: np.ndarray) -> np.ndarray:
    """Validate (and return) a square Hermitian matrix."""
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    # row by row, so that no temporary is as large as the matrix; a row's
    # maximum is NaN or inf exactly when the row holds a non-finite entry
    rows = range(a.shape[0])
    row_max = [float(np.max(np.abs(a[i]))) for i in rows]
    if not all(map(math.isfinite, row_max)):
        raise ValueError("matrix has non-finite entries")
    scale = max([1.0] + row_max)
    dev = max([0.0] + [float(np.max(np.abs(a[i, i:] - np.conj(a[i:, i])))) for i in rows])
    if dev > _HERM_RTOL * scale:
        raise ValueError("matrix is not Hermitian within tolerance")
    return a


def cholesky_factor(matrix: np.ndarray) -> np.ndarray:
    """cholesky_band of a dense matrix's lower triangle, read whole into a
    band array: the factor of a dense kernel Gram system and cholesky_solve's."""
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    return cholesky_band(lower_rows(a, max(a.shape[0] - 1, 0)))


def cholesky_border(L: np.ndarray, column: np.ndarray) -> np.ndarray:
    """Extend L (band factor of an n x n matrix) by one row for the bordered
    matrix [[A, c[:-1]], [c[:-1]^H, c[-1]]], whose factor has band n."""
    n, b = L.shape[0], L.shape[1] - 1
    c = np.asarray(column, dtype=complex)
    if c.size != n + 1:
        raise ValueError("border column must have length n + 1")
    y = forward_substitute(L, c[:n])
    d = (c[n] - np.vdot(y, y)).real
    if not d > _PIVOT_TOL:  # also refuses NaN
        raise NotPositiveDefiniteError(f"border pivot {d:.3g} is not positive")
    out = np.zeros((n + 1, n + 1), dtype=complex)
    out[:n, n - b :] = L
    out[n, :n] = np.conj(y)
    out[n, n] = math.sqrt(d)
    return out


def forward_substitute(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve L y = b for L a band factor."""
    n, w = L.shape[0], L.shape[1] - 1
    if _scalar(n, w):
        return _scalar_forward(L, np.ravel(b), np.empty(n, dtype=complex))
    y = np.zeros(n, dtype=complex)
    for i in range(n):
        lo = max(i - w, 0)
        y[i] = (b[i] - np.dot(L[i, w - i + lo : w], y[lo:i])) / L[i, w]
    return y


def backward_substitute_H(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve L^H x = b in place and return b, now x: a complex vector, or a
    matrix with one right-hand side per column, for L a band factor."""
    n, w = L.shape[0], L.shape[1] - 1
    # row i of L^H's band: cols[i, s] = conj(L[i+s, i]), zero below the last row
    cols = np.zeros((n, w + 1), dtype=complex)
    for s in range(min(w + 1, n)):
        cols[: n - s, s] = L[s:, w - s]
    np.conj(cols, out=cols)
    if _scalar(n, w) and (b.ndim == 1 or b.shape[1] == 1):
        # L^H x = b is a forward substitution in reversed order, whose row
        # n - 1 - i is cols[i] reversed
        x = (b if b.ndim == 1 else b[:, 0])[::-1]
        _scalar_forward(cols[::-1, ::-1], x, x)
        return b
    for i in range(n - 1, -1, -1):
        k = min(w, n - 1 - i)
        b[i] = (b[i] - cols[i, 1 : k + 1] @ b[i + 1 : i + k + 1]) / cols[i, 0]
    return b


def _scalar(n: int, band: int) -> bool:
    return band <= SCALAR_BAND_MAX and band < n - 1


def lower_rows(m: np.ndarray, b: int) -> np.ndarray:
    """The band array of a dense matrix m's b diagonals below the main one, one
    call per diagonal: the one reader of a dense system into its band."""
    rows = np.zeros((m.shape[0], b + 1), dtype=complex)
    for s in range(b + 1):
        rows[s:, b - s] = m.diagonal(-s)
    return rows


def cholesky_band(G: np.ndarray) -> np.ndarray:
    """The band array of L, lower triangular with G = L L^H, from G's.  Raises
    NotPositiveDefiniteError when a pivot falls to 1e-14 or below (or is NaN):
    a (near-)singular Gram matrix or a degree far too large for doubles."""
    G = np.ascontiguousarray(G, dtype=complex)
    b = G.shape[1] - 1
    return (_scalar_factor if _scalar(G.shape[0], b) else _vector_factor)(G, b)


def _scalar_factor(G: np.ndarray, b: int) -> np.ndarray:
    """cholesky_band a row at a time on Python scalars: L[i, k] = (G[i, k] -
    sum_m L[i, m] conj(L[k, m])) / L[k, k] for the b columns k left of the
    diagonal, from the conjugated rows of the b rows above (zero, with pivot
    1, before the first), and the pivot G[i, i] - sum_k |L[i, k]|^2."""
    L = np.empty_like(G)
    above = [([], 1.0)] * b  # (conj(L[k, k-1]), ..., conj(L[k, k-b])) and L[k, k]
    conj = complex.conjugate
    for start in range(0, G.shape[0], _CHUNK):
        done = []
        for i, row in enumerate(G[start : start + _CHUNK].tolist(), start):
            li, conj_li = [], []  # L[i, k-1], L[i, k-2], ..., L[i, i-b] before column k
            d = row[b]
            for v, (ck, pivot) in zip(row, above):
                for p in map(mul, li, ck):
                    v -= p
                v /= pivot
                c = conj(v)
                d -= v * c
                li.insert(0, v)
                conj_li.insert(0, c)
            d = d.real
            if not d > _PIVOT_TOL:  # also refuses NaN
                raise NotPositiveDefiniteError(f"pivot {d:.3g} at index {i} is not positive")
            pivot = math.sqrt(d)
            above.append((conj_li, pivot))
            del above[0]
            li.reverse()
            li.append(pivot)
            done += li
        L.reshape(-1)[start * (b + 1) : start * (b + 1) + len(done)] = done
    return L


def _vector_factor(G: np.ndarray, b: int) -> np.ndarray:
    """cholesky_band a column at a time: the dense numpy loop, on the views
    a[i, c] = G[i, b + c - i] and L[i, c] = work[i, 2b + c - i] of G and of an
    (n, 2b + 1) work array, whose b columns left of L's band stay zero so
    that L[j+1:j+b+1, j-b:j] reads the zeros a dense L holds there."""
    n = G.shape[0]
    work = np.zeros((n, 2 * b + 1), dtype=complex)
    a, L = _skewed(G, b), _skewed(work, 2 * b)
    for j in range(n):
        lo, hi = max(j - b, 0), j + b + 1
        row = L[j, lo:j]
        d = (a[j, j] - np.vdot(row, row)).real
        if not d > _PIVOT_TOL:  # also refuses NaN
            raise NotPositiveDefiniteError(f"pivot {d:.3g} at index {j} is not positive")
        L[j, j] = math.sqrt(d)
        L[j + 1 : hi, j] = (a[j + 1 : hi, j] - L[j + 1 : hi, lo:j] @ np.conj(row)) / L[j, j]
    return work[:, b:].copy()


def _skewed(x: np.ndarray, w: int) -> np.ndarray:
    """The n x n view m[i, c] = x[i, w + c - i] of a C-ordered array; numpy checks it lies inside x."""
    n, size = x.shape[0], x.itemsize
    return np.ndarray((n, n), x.dtype, x, w * size, (x.strides[0] - size, size))


def _scalar_forward(L: np.ndarray, rhs: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Solve L y = rhs into out (which may be rhs) on Python scalars."""
    b = L.shape[1] - 1
    last = [0j] * b  # y[i-b], ..., y[i-1]
    for start in range(0, L.shape[0], _CHUNK):
        stop, y = start + _CHUNK, []
        for row, v in zip(L[start:stop].tolist(), rhs[start:stop].tolist()):
            for p in map(mul, row, last):
                v -= p
            v /= row[b]
            last.append(v)
            del last[0]
            y.append(v)
        out[start:stop] = y
    return out


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
    d = np.abs(L[:, -1])
    if d.min() == 0:
        return math.inf
    return float((d.max() / d.min()) ** 2)


# ---------------------------------------------------------------------------
# polynomial roots
# ---------------------------------------------------------------------------


def _eval_with_derivative(coeffs: np.ndarray | list[complex], z: complex):
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


def poly_roots(p: CPoly, max_sweeps: int = 200) -> list[tuple[complex, int]]:
    """All roots with multiplicities, via simultaneous (Ehrlich-Aberth) iteration.

    Starting points sit on a deterministic circle of radius
    1 + max|coeff|/|lead| with a fixed phase offset; iterates are polished by
    multiplicity-aware Newton steps after clustering.  Roots within pairwise
    distance _CLUSTER_RADIUS merge into one root with summed multiplicity,
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
    monic_list = monic.tolist()
    # off[i]: every index but i, in order, so that row i of the difference
    # table holds z[i] - z[j] for j != i
    off = np.array([[j for j in range(d) if j != i] for i in range(d)])
    for _ in range(max_sweeps):
        moved = 0.0
        # Horner on Python complex numbers; storing into complex arrays hands
        # numpy scalars to the Newton quotients, so every division below
        # still rounds as numpy does
        pv = np.empty(d, dtype=complex)
        dv = np.empty(d, dtype=complex)
        for i, zi in enumerate(z.tolist()):
            pv[i], dv[i] = _eval_with_derivative(monic_list, zi)
        diffs = z[:, None] - z[off]
        diffs[diffs == 0] = 1e-300
        sums = (1.0 / diffs).sum(axis=1)
        new_z = z.copy()
        for i in range(d):
            if pv[i] == 0:
                continue
            if dv[i] == 0:
                newton = pv[i] / (dv[i] + 1e-300)
            else:
                newton = pv[i] / dv[i]
            denom = 1.0 - newton * sums[i]
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
    clusters = _cluster(z, _CLUSTER_RADIUS)
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
