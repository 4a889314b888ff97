"""Reference Cholesky loops on dense storage, and dense <-> band conversion.

The library keeps every Gram system and factor as an (n, b + 1) band array,
row i holding [M[i, i-b], ..., M[i, i]], zero left of column 0.  The loops
here are the factor and substitutions as they ran on dense matrices: the
scalar loop (bands of at most SCALAR_BAND_MAX diagonals narrower than the
matrix) and the numpy loop (everything else).  Tests compare the band code
with them bit for bit.
"""

import math
from operator import mul

import numpy as np

from opa.errors import NotPositiveDefiniteError
from opa.linalg import SCALAR_BAND_MAX


def to_band(M, b=None):
    """M's lower band, b diagonals below the main one (all by default), as a
    band array."""
    n = M.shape[0]
    b = n - 1 if b is None else b
    rows = np.zeros((n, b + 1), dtype=complex)
    for s in range(min(b, n - 1) + 1):
        rows[s:, b - s] = np.diagonal(M, -s)
    return rows


def to_dense(rows):
    """The lower-triangular matrix whose band array is rows."""
    n, b = rows.shape[0], rows.shape[1] - 1
    M = np.zeros((n, n), dtype=complex)
    for s in range(min(b, n - 1) + 1):
        M[np.arange(s, n), np.arange(n - s)] = rows[s:, b - s]
    return M


def takes_scalar_loop(n, b):
    return b <= SCALAR_BAND_MAX and b < n - 1


def _refuse(d, i):
    if not d > 1e-14:
        raise NotPositiveDefiniteError(f"pivot {d:.3g} at index {i} is not positive")


def dense_factor_reference(a, band=None):
    """The numpy Cholesky loop on a dense matrix, along ``band`` diagonals
    (all of them by default)."""
    n = a.shape[0]
    b = n if band is None else band
    L = np.zeros((n, n), dtype=complex)
    for j in range(n):
        lo, hi = max(j - b, 0), j + b + 1
        row = L[j, lo:j]
        d = (a[j, j] - np.vdot(row, row)).real
        _refuse(d, j)
        L[j, j] = math.sqrt(d)
        L[j + 1 : hi, j] = (a[j + 1 : hi, j] - L[j + 1 : hi, lo:j] @ np.conj(row)) / L[j, j]
    return L


def scalar_factor_reference(G, b):
    """The scalar factor on dense storage: G's band read from the dense
    matrix as lists, L's band scattered into a dense one."""
    above = [([], 1.0)] * b
    band, pivots = [], []
    for i, row in enumerate(to_band(G, b).tolist()):
        li, conj_li = [], []
        d = row[b]
        for v, (ck, pivot) in zip(row, above):
            for x, y in zip(li, ck):
                v -= x * y
            v /= pivot
            c = v.conjugate()
            d -= v * c
            li.insert(0, v)
            conj_li.insert(0, c)
        d = d.real
        _refuse(d, i)
        pivot = math.sqrt(d)
        above.append((conj_li, pivot))
        del above[0]
        pivots.append(pivot)
        band.append(li)
    L = np.diag(np.array(pivots, dtype=complex))
    for i, li in enumerate(band):
        for s, v in enumerate(li, 1):
            if i - s >= 0:
                L[i, i - s] = v
    return L


def factor_reference(G, b):
    """The dense-storage loop that a band of b diagonals takes."""
    if takes_scalar_loop(G.shape[0], b):
        return scalar_factor_reference(G, b)
    return dense_factor_reference(G, b)


def _scalar_forward(rows, rhs, b):
    """L y = rhs on Python scalars, L's band given as lists of rows."""
    last = [0j] * b
    y = []
    for row, v in zip(rows, rhs):
        for p in map(mul, row, last):
            v -= p
        v /= row[b]
        last.append(v)
        del last[0]
        y.append(v)
    return y


def forward_reference(L, b, rhs):
    """y = L^-1 rhs for a dense L with b diagonals below the main one."""
    n = L.shape[0]
    if takes_scalar_loop(n, b):
        return np.array(_scalar_forward(to_band(L, b).tolist(), rhs.tolist(), b), dtype=complex)
    y = np.zeros(n, dtype=complex)
    for i in range(n):
        lo = max(i - b, 0)
        y[i] = (rhs[i] - np.dot(L[i, lo:i], y[lo:i])) / L[i, i]
    return y


def backward_reference(L, b, X):
    """Solve L^H X = X in place for a dense L as in forward_reference: one
    column by the scalar loop on L^H's rows, several by the numpy loop over
    L's columns."""
    n = L.shape[0]
    if takes_scalar_loop(n, b) and X.shape[1] == 1:
        rows = np.conj(to_band(L[::-1, ::-1].T, b)).tolist()
        X[::-1, 0] = _scalar_forward(rows, X[::-1, 0].tolist(), b)
        return X
    for i in range(n - 1, -1, -1):
        hi = i + b + 1
        X[i] = (X[i] - np.conj(L[i + 1 : hi, i]) @ X[i + 1 : hi]) / np.conj(L[i, i])
    return X
