"""Banded Hermitian positive-definite solver and complex polynomial roots.

Both algorithms are implemented in-house: deterministic, portable behavior
matters more than peak performance.  The Cholesky factor and both
substitutions take the lower bandwidth b (b = d for the Gram matrix of a
degree-d polynomial) and touch only the b diagonals below the main one: a
factor costs O(n b^2), a solve O(n b) a right-hand side.

Two loops do this work.  A band of at most ``SCALAR_BAND_MAX`` diagonals that
is narrower than the matrix (every polynomial Gram system of the benchmark's
workloads) runs one loop over Python complex scalars on band storage, the
lists [G[i, i-b], ..., G[i, i]] in and [L[i, i-b], ..., L[i, i]] out
(cholesky_band), with its sums in a fixed order of IEEE operations; a dense
matrix with such a band is read into those rows and scattered back.  A numpy
loop, a few vector calls a column, runs everything else on dense matrices: no
band or a band of at least n - 1 (the dense case: stored series, kernel Gram
matrices), wider bands, and a back substitution with more than one right-hand
side (a sweep's, vectorized across degrees).  A back substitution reads L's
conjugated columns from one band array.  Per column, the numpy loop costs
about 4 us whatever the band, and the scalar loop grows as b^2.  The two
loops agree to rounding, not bit for bit.  All functions are reentrant and
pure, but backward_substitute_H overwrites its right-hand side.
"""

from __future__ import annotations

import math
from operator import mul

import numpy as np

from .errors import NotPositiveDefiniteError, RootFindingError
from .series import CPoly

# A band of at most this many diagonals below the main one, and narrower than
# the matrix, takes the scalar loops.  At n = 41 and n = 401 (2-vCPU host, one
# BLAS thread, min of 7, interleaved) the scalar factor took 0.67-0.87 of the
# numpy factor's time at bands 4 and 5 and 1.02 at band 6; the forward
# substitution stays faster to band 8, a one-column back substitution to 16.
SCALAR_BAND_MAX = 5
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


def cholesky_factor(matrix: np.ndarray, band: int | None = None) -> np.ndarray:
    """Lower-triangular L with matrix = L L^H.

    Reads the diagonal and the lower triangle only: the Gram matrices factored
    here are Hermitian by construction, and cholesky_solve checks its input.
    With ``band`` b the entries more than b below the diagonal are zero, and so
    are L's: column j reads rows j+1..j+b and columns j-b..j-1 only.  Raises
    NotPositiveDefiniteError when a pivot falls to 1e-14 or below (or is NaN),
    which signals either a (near-)singular Gram matrix or a degree far too
    large for double precision.
    """
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    n = a.shape[0]
    b = n if band is None else band
    L = np.zeros((n, n), dtype=complex)
    if _scalar(n, b):
        rows = np.array(cholesky_band(_lower_rows(a, b).tolist(), b))
        flat = L.reshape(-1)
        for s in range(b + 1):  # diagonal -s starts at row s, column 0
            flat[s * n :: n + 1] = rows[s:, b - s]
        return L
    for j in range(n):
        lo, hi = max(j - b, 0), j + b + 1
        row = L[j, lo:j]
        d = (a[j, j] - np.vdot(row, row)).real
        if not d > _PIVOT_TOL:  # also refuses NaN
            raise NotPositiveDefiniteError(
                f"pivot {d:.3g} at index {j} is not positive"
            )
        L[j, j] = math.sqrt(d)
        L[j + 1 : hi, j] = (a[j + 1 : hi, j] - L[j + 1 : hi, lo:j] @ np.conj(row)) / L[j, j]
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


def forward_substitute(L: np.ndarray | list, b: np.ndarray, band: int | None = None) -> np.ndarray:
    """Solve L y = b, reading the ``band`` diagonals below L's main one (all
    of them by default).  L is a lower-triangular matrix or, for a band that
    takes the scalar loop, its band rows as cholesky_band returns them."""
    n = len(L)
    w = n if band is None else band
    if _scalar(n, w):
        rows = L if isinstance(L, list) else _lower_rows(L, w).tolist()
        return np.array(_scalar_forward(rows, np.ravel(b).tolist(), w), dtype=complex)
    y = np.zeros(n, dtype=complex)
    for i in range(n):
        lo = max(i - w, 0)
        y[i] = (b[i] - np.dot(L[i, lo:i], y[lo:i])) / L[i, i]
    return y


def backward_substitute_H(L: np.ndarray | list, b: np.ndarray, band: int | None = None) -> np.ndarray:
    """Solve L^H x = b in place and return b, now x: a complex vector, or a
    matrix with one right-hand side per column.  Row i reads the ``band``
    entries below L's diagonal in column i (all of them by default).  L is as
    for forward_substitute."""
    n = len(L)
    w = n if band is None else band
    # row i of L^H's band: cols[i, s] = conj(L[i+s, i]), zero below the last row
    rows = np.array(L) if isinstance(L, list) else None
    cols = np.zeros((n, w + 1), dtype=complex)
    for s in range(min(w + 1, n)):
        cols[: n - s, s] = L.diagonal(-s) if rows is None else rows[s:, w - s]
    np.conj(cols, out=cols)
    if _scalar(n, w) and (b.ndim == 1 or b.shape[1] == 1):
        # L^H x = b is a forward substitution in reversed order, whose row
        # n - 1 - i is cols[i] reversed
        x = b if b.ndim == 1 else b[:, 0]
        x[::-1] = _scalar_forward(cols[::-1, ::-1].tolist(), x[::-1].tolist(), w)
        return b
    for i in range(n - 1, -1, -1):
        k = min(w, n - 1 - i)
        b[i] = (b[i] - cols[i, 1 : k + 1] @ b[i + 1 : i + k + 1]) / cols[i, 0]
    return b


def _scalar(n: int, band: int) -> bool:
    return band <= SCALAR_BAND_MAX and band < n - 1


def _lower_rows(m: np.ndarray, b: int) -> np.ndarray:
    """Row i of m's lower band, [m[i, i-b], ..., m[i, i-1], m[i, i]], zero
    left of column 0: an (n, b + 1) array from one call per diagonal."""
    rows = np.zeros((m.shape[0], b + 1), dtype=complex)
    for s in range(b + 1):
        rows[s:, b - s] = m.diagonal(-s)
    return rows


def cholesky_band(rows: list, b: int) -> list:
    """cholesky_factor's scalar loop on band storage: the complex lists
    [G[i, i-b], ..., G[i, i]] in (zero left of column 0), [L[i, i-b], ...,
    L[i, i]] out.  A row at a time, on Python scalars: L[i, k] = (G[i, k] -
    sum_m L[i, m] conj(L[k, m])) / L[k, k] for the b columns k left of the
    diagonal, from the conjugated rows of the b rows above, and the pivot
    G[i, i] - sum_k |L[i, k]|^2.  Rows before the first are zero, with pivot 1."""
    above = [([], 1.0)] * b  # (conj(L[k, k-1]), ..., conj(L[k, k-b])) and L[k, k]
    out = []
    conj = complex.conjugate
    for i, row in enumerate(rows):
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
        li.append(complex(pivot))  # as a dense L holds it: solves divide by this complex
        out.append(li)
    return out


def _scalar_forward(rows: list, rhs: list, b: int) -> list:
    """Solve L y = rhs on Python scalars, with L's lower band given as
    _lower_rows lists."""
    last = [0j] * b  # y[i-b], ..., y[i-1]
    y = []
    for row, v in zip(rows, rhs):
        for p in map(mul, row, last):
            v -= p
        v /= row[b]
        last.append(v)
        del last[0]
        y.append(v)
    return y


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
