"""Banded Hermitian positive-definite solver and complex polynomial roots.

Both algorithms are implemented in-house: deterministic, portable behavior
matters more than peak performance.  Every Gram system and Cholesky factor is
one (n, b + 1) band array (LAPACK's lower band storage): row i holds [G[i,
i-b], ..., G[i, i]], zero left of column 0, for the bandwidth b (d for the
Gram matrix of a degree-d polynomial, n - 1 for a dense one).  lower_rows is
the one reader of a dense matrix into a band array: of a stored series' Gram
matrix, and in cholesky_factor of a dense system (project_unity's kernel Gram
matrix).  A factor costs O(n b^2) time and O(n b) memory, a solve O(n b) a
right-hand side.  Two loops do the work, chosen by b: one over Python complex
scalars, read and written back _CHUNK rows at a time, for a band of at most
``SCALAR_BAND_MAX`` diagonals narrower than the matrix (every polynomial Gram
system of the benchmark's workloads), and a numpy loop for the rest (the
dense case with the dense loop's bits) and for a sweep's back substitution,
vectorized across degrees.  They agree to rounding, not bit for bit.  All
functions are reentrant and pure, but backward_substitute_H overwrites its
right-hand side.
"""

from __future__ import annotations

import math
from operator import mul

import numpy as np

from .errors import NotPositiveDefiniteError, RootFindingError
from .series import UNIT_ROUNDOFF, CPoly

# A band of at most this many diagonals below the main one, and narrower than
# the matrix, takes the scalar loops.  At n = 41 and 401 (2-vCPU host, one BLAS
# thread, min of 7, interleaved) the scalar factor took 0.57, 0.70-0.72,
# 0.84-0.87 and 1.01-1.05 of the numpy factor's time at bands 4 to 7; the forward
# substitution stays faster to band 8, a one-column back substitution to 12.
SCALAR_BAND_MAX = 5
_CHUNK = 1024  # rows a scalar loop turns into Python scalars at a time
_PIVOT_TOL = 1e-14


def cholesky_factor(matrix: np.ndarray) -> np.ndarray:
    """cholesky_band of a dense matrix's lower triangle, read whole into a
    band array: the factor of a dense kernel Gram system."""
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
    """Solve L y = b for L a band factor: b a vector, or several vectors as
    the rows of a 2-D array, each solved with the arithmetic of its own solve
    (the scalar loop reads L's rows once for all of them)."""
    n, w = L.shape[0], L.shape[1] - 1
    y = np.zeros(b.shape, dtype=complex)
    rows = (list(b), list(y)) if b.ndim == 2 else ([b], [y])
    if _scalar(n, w):
        _scalar_forward(L, *rows)
        return y
    for bj, yj in zip(*rows):
        for i in range(n):
            lo = max(i - w, 0)
            yj[i] = (bj[i] - np.dot(L[i, w - i + lo : w], yj[lo:i])) / L[i, w]
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
        _scalar_forward(cols[::-1, ::-1], [x], [x])
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


def _scalar_forward(L: np.ndarray, rhs: list, out: list):
    """Solve L y = x into out[k] (which may be x) for each vector x = rhs[k]
    on Python scalars, reading L's rows once for all of them."""
    b = L.shape[1] - 1
    last = [[0j] * b for _ in rhs]  # y[i-b], ..., y[i-1] of each vector
    for start in range(0, L.shape[0], _CHUNK):
        stop, rows = start + _CHUNK, L[start : start + _CHUNK].tolist()
        for x, o, prev in zip(rhs, out, last):
            y = []
            for row, v in zip(rows, x[start:stop].tolist()):
                for p in map(mul, row, prev):
                    v -= p
                v /= row[b]
                prev.append(v)
                del prev[0]
                y.append(v)
            o[start:stop] = y


def solve_factored(L: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    return backward_substitute_H(L, forward_substitute(L, np.asarray(rhs, dtype=complex)))


def condition_estimate(L: np.ndarray) -> float:
    """Crude spectral-condition estimate from the Cholesky diagonal."""
    d = np.abs(L[:, -1])
    if d.min() == 0:
        return math.inf
    return float((d.max() / d.min()) ** 2)


# ---------------------------------------------------------------------------
# polynomial roots
# ---------------------------------------------------------------------------


def _horner(rev: list, z: complex):
    """p(z), p'(z) and sum_k |a_k| |z|^k for the coefficients rev of p,
    highest degree first, on Python complex numbers."""
    p = dp = 0j
    s, az = 0.0, abs(z)
    for c in rev:
        dp = dp * z + p
        p = p * z + c
        s = s * az + abs(c)
    return p, dp, s


def poly_roots(p: CPoly, max_sweeps: int = 200) -> list[tuple[complex, int]]:
    """All roots of p with their multiplicities, which sum to deg p: the
    roots of root_discs without their radii."""
    return [(root, mult) for root, mult, _ in root_discs(p, max_sweeps)]


def root_discs(p: CPoly, max_sweeps: int = 200) -> list[tuple[complex, int, float]]:
    """All roots of p as (root, multiplicity, radius), via simultaneous
    (Ehrlich-Aberth) iteration; the multiplicities sum to deg p.

    Starting points sit on a deterministic circle of radius
    1 + max|coeff|/|lead| with a fixed phase offset.  An iterate z_i is frozen
    once |p(z_i)| <= gamma_{4d+1} sum_k |a_k| |z_i|^k, Horner's rounding bound
    for the monic p of degree d (both sides from one Horner loop): past it
    the computed value says nothing about where the root is, so a repeated
    zero, whose iterates stall about u^(1/m) away, stops there too.  The
    sweep ends when every iterate is frozen.  Iterates whose inclusion discs
    overlap form one root (Bini, Numer. Algorithms 13, 1996): disc i has
    radius d (|p(z_i)| + bound_i) / prod_{j != i} |z_i - z_j|, and a connected
    component of m discs holds exactly m zeros.  An m-fold component is
    polished from its mean by Newton on p^(m-1), where it is a simple root;
    its radius is the largest |z_i - root| + r_i over the component, a disc
    about the root that holds all m zeros.  Zeros closer together than the
    rounding of p can resolve merge; two at 1/2, 1e-6 apart, stay two roots.
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
    results: list[tuple[complex, int, float]] = []
    if zero_mult:
        results.append((0j, zero_mult, 0.0))
    d = work.size - 1
    if d == 0:
        return results
    if d == 1:
        root = complex(-work[0] / work[1])
        results.append((root, 1, UNIT_ROUNDOFF * abs(root)))
        return _sorted_roots(results)
    rev = (work / work[-1]).tolist()[::-1]  # monic, highest degree first
    z, radii = _aberth(rev, max_sweeps)
    for group in _cluster(z, radii):
        mult = len(group)
        center = sum(z[i] for i in group) / mult
        root = _polish(_derivative(rev, mult - 1), center)
        val, _, scale = _horner(work.tolist()[::-1], root)
        if abs(val) > 1e-9 * scale:
            raise RootFindingError(
                f"residual {abs(val):.3g} too large at root {root}", best=np.array(z)
            )
        radius = max(abs(z[i] - root) + radii[i] for i in group)
        results.append((root, mult, radius))
    return _sorted_roots(results)


def _aberth(rev: list, max_sweeps: int):
    """The frozen Ehrlich-Aberth iterates of a monic polynomial of degree
    d >= 2, its coefficients rev highest first, and the radii of their
    inclusion discs (see root_discs)."""
    d = len(rev) - 1
    radius = 1.0 + max(map(abs, rev[1:]))
    zs = (radius * np.exp(1j * (2.0 * math.pi * np.arange(d) / d + 0.4))).tolist()
    # Horner's complex products and sums, and the division by lead
    k = 4 * d + 1
    gamma = k * UNIT_ROUNDOFF / (1.0 - k * UNIT_ROUNDOFF)
    floor = [0.0] * d  # |p(z_i)| plus its rounding bound, once frozen
    active = range(d)
    for _ in range(max_sweeps):
        moving = []
        for i in active:
            pv, dv, s = _horner(rev, zs[i])
            size, bound = abs(pv), gamma * s
            if size <= bound:
                floor[i] = size + bound
            else:
                moving.append((i, pv / dv if dv else pv / 1e-300))
        if not moving:
            break
        # Jacobi steps: every correction reads the iterates of the last sweep
        last = zs.copy()
        for i, newton in moving:
            zi = last[i]
            aberth = 0j
            for zj in last:
                if zj != zi:
                    aberth += 1.0 / (zi - zj)
            denom = 1.0 - newton * aberth
            zs[i] = zi - newton / (denom if denom else 1e-300)
        active = [i for i, _ in moving]
    else:
        raise RootFindingError(f"no convergence after {max_sweeps} sweeps", best=np.array(zs))
    gaps = [math.prod(abs(zi - zj) for j, zj in enumerate(zs) if j != i) for i, zi in enumerate(zs)]
    return zs, [d * f / (g or 1e-300) for f, g in zip(floor, gaps)]


def _cluster(z: list, radii: list) -> list[list[int]]:
    """Index groups of the connected components of overlapping discs
    |w - z[i]| <= radii[i], each in increasing order, by smallest index."""
    groups, seen = [], set()
    for i in range(len(z)):
        if i in seen:
            continue
        seen.add(i)
        group = [i]
        for k in group:  # visits the members appended while it runs
            for j, zj in enumerate(z):
                if j not in seen and abs(z[k] - zj) <= radii[k] + radii[j]:
                    seen.add(j)
                    group.append(j)
        groups.append(sorted(group))
    return groups


def _derivative(rev: list, k: int) -> list:
    """The k-th derivative's coefficients j! / (j - k)! a_j of the
    coefficients rev, both highest degree first."""
    d = len(rev) - 1
    return [c * math.perm(d - t, k) for t, c in enumerate(rev[: d + 1 - k])]


def _polish(rev: list, z: complex) -> complex:
    """Four Newton steps from z on the polynomial with coefficients rev,
    highest first, stopping at a zero value or slope."""
    for _ in range(4):
        p, dp, _ = _horner(rev, z)
        if dp == 0 or p == 0:
            break
        z = z - p / dp
    return z


def _sorted_roots(results):
    return sorted(results, key=lambda rm: (round(rm[0].real, 9), round(rm[0].imag, 9)))
