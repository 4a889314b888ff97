"""Exact complex polynomials and truncated power series with certified tails.

A ``TruncSeries`` stores the first N+1 Maclaurin coefficients of an analytic
function h together with an envelope (M, r, gamma) certifying

    |h_k| <= M * r**k * (k+1)**gamma      for every k > N.

Every arithmetic operation recomputes the envelope so the inequality provably
holds for the result; downstream inner products and evaluations turn the
envelope into rigorous truncation-error bounds.  Geometric envelopes
(gamma = 0) cover rational data such as Blaschke factors; the polynomial
factor (k+1)**gamma admits kernels at boundary points, whose coefficients
decay like a power of k rather than geometrically.

Data with no tail is exact: a CPoly (its envelope fields are zero) or a
TruncSeries with tail_M == 0, which stores exactly its polynomial's
coefficients; here, in spaces and in engine, tail_M == 0 alone marks it.

Every truncation (a stored length, where a library-made series stops, a
kernel sum's cut in spaces, the shift horizon in engine) is the smallest K
that certifies, from the one search smallest_certified; a kernel sum's
remainder gets half of its eps.  TruncSeries.mul_poly keeps the stored
length under one recomputed envelope; spaces.lift forms a quotient space's
data with it, and a shift of the product re-bases that envelope.

Stored coefficients are exact (up to rounding), with one exception that
keeps them out of the subnormal range, where x86 arithmetic takes microcode
assists and runs over a hundred times slower.  A library-made series
(blaschke_factor, geometric_series and series_mul's product) stores at most
its requested length: it stops at the first index past its envelope's peak
from which that envelope, which holds for every k, is below 2**-465
(_significant_length).  Two kept coefficients, the 1e-16 rounding row of
spaces.shift_products and a weight >= 2**-38 then multiply to more than
2**-1022, the smallest normal double.  series_mul counts a factor whose
envelope is below 2**-465 from its stored end on as zero beyond that end, so
each stored product coefficient may be off by at most
max|b| * power_tail_bound(M_a, r_a, gamma_a, L_a - 1) for such a factor a of
stored length L_a, which is <= 2**-465 max|b| / (1 - r_a) when gamma_a <= 0:
the kind of error IEEE underflow already makes at 2**-1074.  A TruncSeries
built directly stores exactly what it is given.

All values are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CannotCertifyError, EnvelopeOverflowError

# Trailing-coefficient threshold used by explicit normalize() calls only;
# construction drops exact zeros, never small values.
TRIM_TOL = 1e-14

# unit roundoff of a double: an exact operation rounds with relative error below it
UNIT_ROUNDOFF = 2.0**-53
_TINY = np.finfo(float).tiny
# ln 2**-465, below which a library-made series stores no envelope: two kept
# coefficients (>= 2**-930 together), the 1e-16 rounding row of
# shift_products (> 2**-54) and a weight >= 2**-38 multiply to more than
# 2**-(930 + 54 + 38) = 2**-1022, the smallest normal double
_LOG_FLOOR = -465.0 * math.log(2.0)


def power_rounding(m, rho: float):
    """Relative rounding of a computed complex power b**m with |b| = rho > 0:
    it is exp(m log b), whose exponent carries m (|ln rho| + pi) rounding units."""
    return (3.0 * np.abs(m) * (abs(math.log(rho)) + math.pi) + 4.0) * UNIT_ROUNDOFF


def _as_coeff_array(coeffs) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(coeffs, dtype=complex))
    if arr.ndim != 1:
        raise ValueError("coefficient data must be one-dimensional")
    if arr.size == 0:
        arr = np.zeros(1, dtype=complex)
    return arr


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=complex)
    arr.flags.writeable = False
    return arr


class CPoly:
    """Complex polynomial sum_k c_k z^k stored densely from k = 0.

    Exact trailing zeros are dropped at construction so that
    ``degree == len(coeffs) - 1`` for nonzero polynomials; the zero
    polynomial stores the single coefficient 0 and reports degree -1.
    Small-but-nonzero trailing coefficients are only removed by an
    explicit :meth:`normalize` call.  It has no tail: its envelope fields are 0.
    """

    __slots__ = ("coeffs",)
    tail_M = tail_r = tail_gamma = 0.0

    def __init__(self, coeffs=(0,)):
        arr = _as_coeff_array(coeffs)
        n = arr.size
        while n > 1 and arr[n - 1] == 0:
            n -= 1
        self.coeffs = _freeze(arr[:n].copy())

    def __len__(self):
        return self.coeffs.size

    @property
    def degree(self) -> int:
        if self.is_zero:
            return -1
        return self.coeffs.size - 1

    @property
    def is_zero(self) -> bool:
        return self.coeffs.size == 1 and self.coeffs[0] == 0

    def coefficient(self, k: int) -> complex:
        if 0 <= k < self.coeffs.size:
            return complex(self.coeffs[k])
        return 0j

    def padded(self, length: int) -> np.ndarray:
        out = np.zeros(length, dtype=complex)
        take = min(length, self.coeffs.size)
        out[:take] = self.coeffs[:take]
        return out

    def normalize(self, tol: float = TRIM_TOL) -> "CPoly":
        """Trim trailing coefficients with modulus <= tol (explicit only)."""
        arr = self.coeffs
        n = arr.size
        while n > 1 and abs(arr[n - 1]) <= tol:
            n -= 1
        if n == 1 and abs(arr[0]) <= tol:
            return CPoly([0])
        return CPoly(arr[:n])

    def monic(self) -> "CPoly":
        if self.is_zero:
            raise ValueError("zero polynomial has no monic form")
        return self * (1.0 / self.coeffs[-1])

    def derivative(self) -> "CPoly":
        if self.coeffs.size == 1:
            return CPoly([0])
        k = np.arange(1, self.coeffs.size)
        return CPoly(self.coeffs[1:] * k)

    def shift(self, i: int) -> "CPoly":
        """Multiply by z**i."""
        if i < 0:
            raise ValueError("shift must be non-negative")
        if self.is_zero or i == 0:
            return self if i == 0 else CPoly(self.coeffs)
        return CPoly(np.concatenate([np.zeros(i, dtype=complex), self.coeffs]))

    def scale(self, c: complex) -> "CPoly":
        return CPoly(self.coeffs * complex(c))

    def mul_poly(self, p: "CPoly") -> "CPoly":
        """p times this polynomial."""
        return p * self

    def __call__(self, z):
        z = np.asarray(z, dtype=complex) if not np.isscalar(z) else z
        result = 0j
        for c in self.coeffs[::-1]:
            result = result * z + c
        if np.isscalar(z):
            return complex(result)
        return result

    def __add__(self, other):
        if isinstance(other, CPoly):
            n = max(self.coeffs.size, other.coeffs.size)
            return CPoly(self.padded(n) + other.padded(n))
        arr = self.coeffs.copy()
        arr[0] += other
        return CPoly(arr)

    __radd__ = __add__

    def __neg__(self):
        return CPoly(-self.coeffs)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, CPoly):
            return poly_mul(self, other)
        return self.scale(other)

    __rmul__ = __mul__

    def __repr__(self):
        return f"CPoly({self.coeffs.tolist()})"


def poly_mul(a: CPoly, b: CPoly) -> CPoly:
    """Exact coefficient convolution; deg(ab) = deg a + deg b."""
    if a.is_zero or b.is_zero:
        return CPoly([0])
    return CPoly(np.convolve(a.coeffs, b.coeffs))


def reciprocal_taylor(f: CPoly, n: int) -> CPoly:
    """First n+1 Maclaurin coefficients of 1/f, requiring f(0) != 0."""
    if f.coefficient(0) == 0:
        raise ValueError("reciprocal requires a nonzero constant term")
    c = np.zeros(n + 1, dtype=complex)
    f0 = f.coefficient(0)
    c[0] = 1.0 / f0
    for k in range(1, n + 1):
        jmax = min(k, f.coeffs.size - 1)
        acc = 0j
        for j in range(1, jmax + 1):
            acc += f.coeffs[j] * c[k - j]
        c[k] = -acc / f0
    return CPoly(c)


def power_tail_bound(M: float, q: float, gamma: float, N: int) -> float:
    """Rigorous upper bound for sum_{k > N} M * q**k * (k+1)**gamma.

    Requires q < 1, or q == 1 with gamma < -1 (integral comparison); N may
    be an integer array."""
    if M == 0.0 or q == 0.0:
        return 0.0
    if q < 0 or M < 0:
        raise ValueError("M and q must be non-negative")
    if q > 1.0:
        raise CannotCertifyError("tail ratio exceeds 1; no geometric bound")
    if q == 1.0:
        if gamma >= -1.0:
            raise CannotCertifyError(
                "boundary tail with gamma >= -1 has no finite bound"
            )
        # terms decreasing: sum_{k>N} (k+1)^gamma <= integral_N^inf (x+1)^gamma dx
        return M * (N + 1.0) ** (gamma + 1.0) / (-gamma - 1.0)
    if gamma <= 0:
        return M * q ** (N + 1) * (N + 2.0) ** gamma / (1.0 - q)
    # absorb the polynomial factor into a slightly larger ratio
    qhat = 0.5 * (1.0 + q)
    t = q / qhat
    if qhat >= 1.0 or t >= 1.0:
        raise CannotCertifyError(f"tail ratio {q!r} cannot be separated from 1")
    return M * poly_geometric_sup(gamma, t) * qhat ** (N + 1) / (1.0 - qhat)


def poly_geometric_sup(gamma: float, t: float) -> float:
    """max over k >= 0 of (k+1)**gamma * t**k for gamma >= 0 and 0 < t < 1,
    attained next to k = gamma / log(1/t) - 1."""
    kstar = gamma / math.log(1.0 / t) - 1.0
    cands = {0, max(0, math.floor(kstar)), max(0, math.ceil(kstar))}
    return max((k + 1.0) ** gamma * t**k for k in cands)


def smallest_certified(bound, eps: float, lo: int, cap: int) -> int:
    """Smallest K >= lo with bound(K) <= eps, for a bound non-increasing from lo.

    Steps from lo double until the bound certifies, then bisection finds the
    first K that does; that K was itself tested, and a NaN bound never
    certifies.  Raises CannotCertifyError when bound(cap) > eps.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    hi, step = lo, 1
    while not bound(hi) <= eps:
        if hi >= cap:
            raise CannotCertifyError(f"required series length exceeds {cap:.0e}".replace("e+0", "e"))
        lo, hi, step = hi + 1, min(hi + step, cap), 2 * step
    while lo < hi:
        mid = (lo + hi) // 2
        if bound(mid) <= eps:
            hi = mid
        else:
            lo = mid + 1
    return hi


def needed_length(M: float, r: float, gamma: float, eps: float) -> int:
    """Smallest stored length L so the envelope tail beyond L-1 is <= eps."""
    return smallest_certified(lambda L: power_tail_bound(M, r, gamma, L - 1), eps, 1, 10**7)


def _significant_length(M: float, r: float, gamma: float, length: int) -> int:
    """min(length, K) for the first K past the peak of M r**k (k+1)**gamma from
    which that envelope is below 2**-465, worked out in logarithms so that no
    power underflows; length itself when r == 0, r >= 1 or M == 0."""
    if M == 0 or r == 0 or r >= 1:
        return length
    shift, log_r = math.log(M) - _LOG_FLOOR, math.log(r)

    def above(k):  # 1 where the envelope is not below the floor, 0 where it is
        return float(not shift + k * log_r + gamma * math.log1p(k) < 0)

    # the envelope falls from its peak (k + 1 = gamma / ln(1/r)) on, so past
    # the peak the indices where it is below the floor are one final run
    lo, hi = (max(0, math.ceil(gamma / -log_r - 1.0)) if gamma > 0 else 0), length - 1
    if lo > hi or above(hi):
        return length
    return smallest_certified(above, 0.5, lo, hi)


def _covering_M(M, r, gamma, ks, values):
    """Smallest M' >= M with values[s] <= M' r**k (k+1)**gamma at k = ks[s].

    ks and values broadcast together and the cover runs over their last
    axis: 2-D ks give one M' per row (M a float or one per row), as for the
    windows of shifted series.  Zero values need no cover.  Where r**k or
    r**k (k+1)**gamma is not a normal double (it underflowed, or kept fewer
    than 53 bits), the ratio is taken in logarithms and rounded up, so the
    cover stays rigorous.  When every one is normal (the smaller of the two
    is the denominator when gamma < 0, else r**k) the ratios take one pass.
    """
    vals = np.asarray(values, dtype=float)
    ks = np.asarray(ks, dtype=float)
    rk = r**ks
    denom = rk * (ks + 1.0) ** gamma if gamma else rk
    logged = False
    if not ks.size or (denom if gamma < 0 else rk).min() >= _TINY:
        ratios = vals / denom
    else:
        pos = (rk >= _TINY) & (denom >= _TINY)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ratios = np.where(pos, vals / denom, 0.0)
            cover = ~pos & (vals != 0)
            if logged := cover.any():
                if r == 0:
                    raise EnvelopeOverflowError("cannot cover nonzero values with r == 0")
                # each logarithm, product and sum is off by a few units in the last place
                parts = (np.log(vals), -ks * math.log(r), -gamma * np.log1p(ks))
                x = sum(parts) + 16.0 * UNIT_ROUNDOFF * sum(np.abs(t) for t in parts)
                ratios = np.where(cover, np.exp(x) * (1.0 + 4.0 * UNIT_ROUNDOFF), ratios)
    # fmax: a NaN value covers nothing, as in Python's max(M, nan)
    out = np.fmax(M, ratios.max(axis=-1, initial=-np.inf))
    if logged and not np.isfinite(out).all():
        raise EnvelopeOverflowError("covering constant overflows")
    return float(out) if out.ndim == 0 else out


class TruncSeries:
    """Stored Maclaurin prefix plus certified envelope for unstored terms.

    The envelope (tail_M, tail_r, tail_gamma) asserts
    |h_k| <= tail_M * tail_r**k * (k+1)**tail_gamma for all k > order.
    tail_r < 1 keeps the function in every weighted space with
    subexponential weights; tail_r == 1 is admitted only with
    tail_gamma < -1 (power-decay data such as boundary kernels).  With
    tail_M == 0 it stores what CPoly stores of its polynomial.
    """

    __slots__ = ("coeffs", "tail_M", "tail_r", "tail_gamma")

    def __init__(self, coeffs, tail_M: float, tail_r: float, tail_gamma: float = 0.0):
        arr = _as_coeff_array(coeffs)
        tail_M = float(tail_M)
        tail_r = float(tail_r)
        tail_gamma = float(tail_gamma)
        if tail_M < 0:
            raise ValueError("tail_M must be non-negative")
        if tail_r < 0:
            raise ValueError("tail_r must be non-negative")
        if tail_M > 0:
            if tail_r > 1.0 or (tail_r == 1.0 and tail_gamma >= -1.0):
                raise EnvelopeOverflowError(
                    f"invalid envelope: r={tail_r}, gamma={tail_gamma}"
                )
        self.coeffs = _freeze(arr.copy()) if tail_M else CPoly(arr).coeffs
        self.tail_M = tail_M
        self.tail_r = tail_r
        self.tail_gamma = tail_gamma

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def from_poly(p: CPoly) -> "TruncSeries":
        return TruncSeries(p.coeffs, 0.0, 0.0, 0.0)

    @property
    def order(self) -> int:
        """Largest stored index N."""
        return self.coeffs.size - 1

    def __len__(self):
        return self.coeffs.size

    def coefficient(self, k: int) -> complex:
        """Coefficient k: beyond the prefix of a series with no tail it is an
        exact zero, as for CPoly; beyond a tail's prefix it is unknown."""
        if 0 <= k < self.coeffs.size:
            return complex(self.coeffs[k])
        if self.tail_M == 0:
            return 0j
        raise IndexError("coefficient index beyond stored prefix")

    @property
    def is_zero(self) -> bool:
        return self.tail_M == 0 and self.coeffs.size == 1 and self.coeffs[0] == 0

    # -- certified evaluation --------------------------------------------------

    def eval_certified(self, z: complex) -> tuple[complex, float]:
        """Value at z plus a rigorous bound on the discarded tail."""
        result = 0j
        for c in self.coeffs[::-1]:
            result = result * z + c
        err = power_tail_bound(
            self.tail_M, self.tail_r * abs(z), self.tail_gamma, self.order
        )
        return complex(result), err

    def __call__(self, z):
        return self.eval_certified(z)[0]

    # -- arithmetic ------------------------------------------------------------

    def scale(self, c: complex) -> "TruncSeries":
        return TruncSeries(
            self.coeffs * complex(c), abs(c) * self.tail_M, self.tail_r, self.tail_gamma
        )

    def __neg__(self):
        return self.scale(-1.0)

    def shift(self, i: int) -> "TruncSeries":
        """Multiply by z**i; the envelope is re-based to the new indices."""
        if i < 0:
            raise ValueError("shift must be non-negative")
        if i == 0:
            return self
        coeffs = np.concatenate([np.zeros(i, dtype=complex), self.coeffs])
        if self.tail_M == 0.0:
            return TruncSeries(coeffs, 0.0, 0.0, 0.0)
        return TruncSeries(coeffs, float(self.shift_tail_M(i)[-1]), self.tail_r, self.tail_gamma)

    def shift_tail_M(self, n: int) -> np.ndarray:
        """tail_M of z**i times this series (tail_M > 0) for i = 0..n:
        |h_k| = |s_{k-i}| <= M r^(k-i) (k-i+1)^gamma for k > order + i, so
        M r^-i, times ((order+2)/(order+i+2))^gamma (its worst) when gamma < 0.
        The constant grows with i: the largest, in Python floats (whose power
        raises where numpy's turns to inf), is refused unless finite, and then
        no other overflows."""
        M, r, gamma, base = self.tail_M, self.tail_r, self.tail_gamma, self.order + 2.0
        try:
            top = M * r**-n * (base / (base + n)) ** min(gamma, 0.0)
        except (OverflowError, ZeroDivisionError):
            top = math.inf
        if not math.isfinite(top):
            raise EnvelopeOverflowError(f"shifted envelope overflows: r={self.tail_r}")
        ks = np.arange(n + 1.0)
        out = M * r**-ks
        return out * (base / (base + ks)) ** gamma if gamma < 0 else out

    def add(self, other) -> "TruncSeries":
        """self + other, each a stored series or a CPoly (TruncSeries.add(p, x)
        takes a CPoly p).  Data with no tail is zero beyond its stored prefix,
        so only operands with a tail limit the sum's stored length."""
        a, b, n = self, other, max(len(self), len(other))
        pa = np.zeros(n, dtype=complex)
        pa[: len(a)] = a.coeffs
        pb = np.zeros(n, dtype=complex)
        pb[: len(b)] = b.coeffs
        tailed = [s for s in (a, b) if s.tail_M > 0]
        if not tailed:
            return TruncSeries(pa + pb, 0.0, 0.0, 0.0)
        out_len = min(len(s) for s in tailed)
        r = max(a.tail_r, b.tail_r)
        gamma = max(s.tail_gamma for s in tailed)
        # indices in [out_len, n) still have stored data on one side; raise M
        # so the envelope covers them too, with each tail where it has begun
        ks = np.arange(out_len, n)
        vals = np.abs(pa[out_len:]) + np.abs(pb[out_len:])
        for s in tailed:
            k = ks[len(s) - out_len :]
            vals[len(s) - out_len :] += s.tail_M * s.tail_r**k * (k + 1.0) ** s.tail_gamma
        M = _covering_M(a.tail_M + b.tail_M, r, gamma, ks, vals)
        return TruncSeries((pa + pb)[:out_len], M, r, gamma)

    def mul_poly(self, p: CPoly) -> "TruncSeries":
        """Multiply by an exact polynomial factor, keeping the stored length L.

        With a tail the series has a global majorant |h_k| <= Mhat r^k
        (k+1)^gamma covering its stored coefficients and its envelope; then
        |(p h)_k| <= Mhat r^k (k+1)^gamma sum_j |p_j| r^-j, with
        (k-j+1)^gamma <= (k-d+1)^gamma, worst at k = L, for gamma < 0, which
        needs L > deg p; for gamma >= 0 the bound holds at any L."""
        if p.is_zero:
            return TruncSeries([0], 0.0, 0.0, 0.0)
        if self.tail_M == 0.0:
            prod = np.convolve(p.coeffs, self.coeffs)
            return TruncSeries(prod, 0.0, 0.0, 0.0)
        d, L, r, gamma = p.degree, len(self), self.tail_r, self.tail_gamma
        if gamma < 0 and L <= d:
            raise ValueError("stored length must exceed the polynomial degree when gamma < 0")
        M = _global_majorant(self, r) * float(np.sum(np.abs(p.coeffs) * r ** (-np.arange(d + 1.0))))
        if gamma < 0:
            M *= np.power((L - d + 1.0) / (L + 1.0), gamma)  # numpy's power, as in shift_tail_M
        return TruncSeries(np.convolve(p.coeffs, self.coeffs)[:L], M, r, gamma)

    def mul(self, other) -> "TruncSeries":
        """series_mul(self, other); other may be a CPoly."""
        return series_mul(self, other)

    def __repr__(self):
        return (
            f"TruncSeries(len={len(self)}, M={self.tail_M:.3g}, "
            f"r={self.tail_r:.3g}, gamma={self.tail_gamma:.3g})"
        )


def _global_majorant(h, r: float):
    """M' with |h_k| <= M' r**k (k+1)**tail_gamma for ALL k >= 0, for a
    TruncSeries or a CPoly (it reads only the fields both have).

    Requires r >= tail_r and r > 0.
    """
    if r < h.tail_r:
        raise ValueError("majorant ratio below envelope ratio")
    ks = np.arange(h.coeffs.size, dtype=float)
    return _covering_M(h.tail_M, r, h.tail_gamma, ks, np.abs(h.coeffs))


def series_mul(a, b) -> TruncSeries:
    """Convolution of stored prefixes with a recomputed, provable envelope.

    Either factor may be a TruncSeries or a CPoly, which is a series with no
    tail.  Coefficients are exact through the shorter stored length of a
    factor with a tail (two polynomials give their full product), where a
    factor whose envelope is below 2**-465 from its stored end on counts as
    zero beyond it (the module docstring bounds that error).  The output
    envelope comes from global geometric majorants of both factors: the
    (k+1) cross-term count is absorbed into the polynomial part of the
    envelope.  The product stops where that envelope falls below 2**-465.
    """
    if a.tail_M == 0.0 and b.tail_M == 0.0:
        return TruncSeries(np.convolve(a.coeffs, b.coeffs), 0.0, 0.0, 0.0)
    rhat = max(a.tail_r, b.tail_r)
    if rhat >= 1.0:
        # the product envelope would need ratio 1 with positive polynomial
        # growth from the cross-term count, which is never summable
        raise EnvelopeOverflowError(
            "product envelope ratio reaches 1 with non-summable growth"
        )
    Ma = _global_majorant(a, rhat)
    Mb = _global_majorant(b, rhat)
    gamma = 1.0 + max(a.tail_gamma, 0.0) + max(b.tail_gamma, 0.0)
    # a factor with zero tail, or one whose envelope is below the floor from
    # its stored end on, is zero beyond its stored prefix, so it does not
    # limit the exact convolution range
    limits = [
        len(s) for s in (a, b)
        if s.tail_M > 0 and _significant_length(s.tail_M, s.tail_r, s.tail_gamma, len(s) + 1) > len(s)
    ]
    out_len = _significant_length(Ma * Mb, rhat, gamma, min(limits, default=len(a) + len(b) - 1))
    coeffs = np.convolve(a.coeffs[:out_len], b.coeffs[:out_len])[:out_len]
    return TruncSeries(coeffs, Ma * Mb, rhat, gamma)


def taylor_truncate(h, n: int) -> CPoly:
    """Exact degree-n Taylor polynomial of a CPoly or TruncSeries h: of the
    stored prefix, or of any degree when h has no tail (reads only coeffs,
    tail_M and len, which both types have)."""
    if n < 0 or (n >= len(h) and h.tail_M != 0):
        raise IndexError(f"truncation degree {n} outside stored range")
    return CPoly(h.coeffs[: n + 1])


def geometric_series(c: complex, *, eps: float | None = None, length: int | None = None) -> TruncSeries:
    """The series sum_k c**k z**k = 1/(1 - c z), with exact envelope (1, |c|).

    Requires |c| < 1.  The stored length is chosen from the envelope so the
    coefficient tail beyond it sums below eps (default 1e-12), or is at most
    length: it stops where the envelope falls below 2**-465.
    """
    c = complex(c)
    rho = abs(c)
    if rho >= 1.0:
        raise EnvelopeOverflowError("geometric ratio must satisfy |c| < 1")
    if c == 0:
        return TruncSeries([1.0], 0.0, 0.0, 0.0)
    if length is None:
        length = needed_length(1.0, rho, 0.0, eps if eps is not None else 1e-12)
    k = np.arange(_significant_length(1.0, rho, 0.0, length))
    return TruncSeries(c**k, 1.0, rho, 0.0)


def blaschke_factor(beta: complex, *, eps: float | None = None, length: int | None = None) -> TruncSeries:
    """Single Blaschke factor (|b|/b)(b - z)/(1 - conj(b) z), |b| < 1.

    Its value at 0 is |b| and its coefficients decay like |b|**k exactly:
    coeff_0 = |b|, coeff_k = (|b|/b) conj(b)**(k-1) (|b|**2 - 1) for k >= 1.
    For beta == 0 the factor degenerates to z.  The stored length is chosen
    from eps as in geometric_series, or is at most length: it stops where
    the envelope ((1 - |b|**2)/|b|) |b|**k falls below 2**-465.
    """
    beta = complex(beta)
    rho = abs(beta)
    if rho >= 1.0:
        raise ValueError("Blaschke factor requires |beta| < 1")
    if beta == 0:
        return TruncSeries([0.0, 1.0], 0.0, 0.0, 0.0)
    M = (1.0 - rho**2) / rho
    if length is None:
        length = needed_length(M, rho, 0.0, eps if eps is not None else 1e-12)
        length = max(length, 2)
    length = _significant_length(M, rho, 0.0, length)
    k = np.arange(1, length)
    coeffs = np.empty(length, dtype=complex)
    coeffs[0] = rho
    coeffs[1:] = (rho / beta) * np.conj(beta) ** (k - 1) * (rho**2 - 1.0)
    return TruncSeries(coeffs, M, rho, 0.0)


def blaschke_product(betas, *, eps: float = 1e-12, length: int | None = None) -> TruncSeries:
    """Finite Blaschke product over the given points (repeats allowed), of
    stored length at most length: each factor and product stops where its
    envelope falls below 2**-465."""
    betas = [complex(b) for b in betas]
    if not betas:
        return TruncSeries([1.0], 0.0, 0.0, 0.0)
    if length is None:
        rho = max(abs(b) for b in betas)
        worst = max(
            (1.0 - abs(b) ** 2) / abs(b) if b != 0 else 1.0 for b in betas
        )
        length = needed_length(worst ** len(betas), rho, float(len(betas)), eps)
        length = max(length, 8)
    out = blaschke_factor(betas[0], length=length)
    for b in betas[1:]:
        out = series_mul(out, blaschke_factor(b, length=length))
    return out
