"""Weighted Hardy spaces: weights, inner products, kernels, reproducibility.

A space is defined by a positive weight sequence w with w_0 = 1 and
w_{k+1}/w_k -> 1; the inner product weights Maclaurin coefficients,
<a, b> = sum_k w_k a_k conj(b_k).  Three kinds are supported:

* ``dirichlet(alpha)``  -- w_k = (k+1)**alpha; alpha = 0 is the classical
  Hardy space, alpha = 1 the Dirichlet space, alpha = -1 the Bergman space.
* ``custom``            -- a stored positive prefix plus one of two closed-form
  continuation rules: 'ratio' continues with the final stored ratio,
  'constant' repeats the final weight.
* ``multiplier(m)``     -- the quotient space {h/m : h in H2} for a
  polynomial m with no zeros in the open unit disk; inner products are
  computed isometrically as <m a, m b> in the unweighted space.  Monomials
  are NOT orthogonal here, so it has no coefficient weights: lift is the one
  place that forms m x, and inner_poly, shift_products and gram_band (and
  engine where it reads a degree) sum in H2 what it gives.

Data is exact when it has no tail (tail_M == 0, a CPoly or a TruncSeries
that stores a polynomial whole); that is the one test by which code here
tells it from certified data, and both kinds give the same bits.  One
function, shift_products, gives <z^j h, z^k f> for all j <= J, k <= K with
the bound certified for each pair: rounding only when both are exact, else
also the stretch where one stored prefix has ended and the tail beyond both;
one matrix product for every data kind, a Gram matrix of data with a tail
using J = K, the rest J = 0.  gram_band gives the Gram matrix of any data as
linalg's band array (row i holds [G[i, i-b], ..., G[i, i]]): exact data's,
of any degree, summed along its diagonals in O(n b) memory, data with a tail
read off shift_products.

Derivative-evaluation kernels are the elements representing h -> h^(n)(beta);
their coefficients are falling-factorial weighted powers of conj(beta) over
w_k.  A point is "reproducible of order n" when that series converges; this
module decides it analytically for dirichlet and quotient weights and from
the exact ratio limit of the continuation for custom ones.

Every kernel quantity (a kernel value, a kernel-Gram entry, a derivative of
the projection of 1, a projection tail) is a kernel inner product, a scale
times sum_{k>=start} P_j(k) P_l(k) u**k / w_k, and falling_product_sum is the
one routine that sums it, in two regimes: inside the disk the smallest K that
certifies a geometric bound, on the circle (u = e^z) one Euler-Maclaurin tail
from K = max(64, ceil(40/|z|), start).  Only a boundary kernel paired with
itself sums at exactly u = 1; a u near 1 gets a covering bar or a refusal.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import CannotCertifyError, EnvelopeOverflowError, NotReproducibleError
from .linalg import lower_rows
from .series import (
    UNIT_ROUNDOFF,
    CPoly,
    TruncSeries,
    needed_length,
    power_rounding,
    power_tail_bound,
    smallest_certified,
)

_BOUNDARY_TOL = 1e-12


@dataclass(frozen=True)
class Certified:
    """A computed value together with a rigorous absolute error bound."""

    value: complex
    err: float

    def __iter__(self):
        yield self.value
        yield self.err


@dataclass(frozen=True)
class KernelSpec:
    """Identifies a kernel element: point, derivative order, and flavor.

    flavor 'kernel_for_derivatives' is the element k with <h, k> = h^(n)(beta);
    flavor 'derivative_of_kernel' carries the rising-factorial coefficient
    pattern (k+1)...(k+n) conj(beta)^(k+n) / w_k, which lies in the span of
    the derivative kernels of orders 0..n.
    """

    beta: complex
    order: int
    flavor: str = "kernel_for_derivatives"

    def __post_init__(self):
        if self.order < 0:
            raise ValueError("kernel order must be non-negative")
        if self.flavor not in ("kernel_for_derivatives", "derivative_of_kernel"):
            raise ValueError(f"unknown kernel flavor: {self.flavor}")


@dataclass(frozen=True)
class Reproducibility:
    """A decided verdict, the rule that decided it and why."""

    reproducible: bool
    certificate: str
    detail: str = ""


def _finite_real(x, what: str) -> float:
    # bool is an int subclass, but true is not the number 1 in a descriptor
    if isinstance(x, bool) or not isinstance(x, numbers.Real) or not math.isfinite(x):
        raise ValueError(f"{what} must be a finite real number, got {x!r}")
    return float(x)


class WeightSequence:
    """Weight data defining a space; immutable after construction."""

    __slots__ = ("kind", "alpha", "prefix", "extension", "ratio", "m")

    def __init__(self, kind, *, alpha=None, prefix=None, extension=None, m=None):
        self.kind = kind
        self.alpha = alpha
        self.prefix = prefix
        self.extension = extension
        self.ratio = None
        self.m = m
        if kind == "dirichlet":
            if alpha is None:
                raise ValueError("dirichlet kind requires alpha")
            self.alpha = _finite_real(alpha, "alpha")
        elif kind == "custom":
            arr = np.asarray(prefix, dtype=float)
            if arr.ndim != 1 or arr.size < 2:
                raise ValueError("custom weights need a prefix of length >= 2")
            if not np.all(arr > 0):  # also refuses NaN
                raise ValueError("weights must be positive")
            if abs(arr[0] - 1.0) > 1e-12:
                raise ValueError("w_0 must equal 1")
            arr = arr.copy()
            arr[0] = 1.0
            arr.flags.writeable = False
            self.prefix = arr
            if extension is None:
                extension = "ratio"
            self.extension = extension
            if extension == "ratio":
                self.ratio = float(arr[-1] / arr[-2])
            elif extension == "constant":
                self.ratio = 1.0
            else:
                raise ValueError(f"unknown extension rule: {extension}")
            self._screen_ratios(arr)
        elif kind == "multiplier":
            if not isinstance(m, CPoly):
                m = CPoly(m)
            if not np.all(np.isfinite(m.coeffs)):
                raise ValueError("multiplier coefficients must be finite")
            if m.is_zero:
                raise ValueError("multiplier polynomial must be nonzero")
            if m.degree >= 1:
                from .linalg import poly_roots

                for root, _ in poly_roots(m):
                    if abs(root) < 1.0 - 1e-9:
                        raise ValueError(
                            "multiplier polynomial must be zero-free in the open disk"
                        )
            self.m = m
        else:
            raise ValueError(f"unknown space kind: {kind}")

    @staticmethod
    def _screen_ratios(arr):
        ratios = arr[1:] / arr[:-1]
        if np.any(ratios <= 0):
            raise ValueError("weights must be positive")
        if abs(ratios[-1] - 1.0) > 0.5:
            raise ValueError(
                "custom prefix fails the admissibility screen: final ratio "
                f"{ratios[-1]:.3g} is far from 1"
            )

    # -- constructors -----------------------------------------------------

    @staticmethod
    def dirichlet(alpha: float) -> "WeightSequence":
        return WeightSequence("dirichlet", alpha=alpha)

    @staticmethod
    def custom(prefix, extension="ratio") -> "WeightSequence":
        return WeightSequence("custom", prefix=prefix, extension=extension)

    @staticmethod
    def multiplier(m) -> "WeightSequence":
        return WeightSequence("multiplier", m=m)

    # -- basic queries ------------------------------------------------------

    @property
    def monomials_orthogonal(self) -> bool:
        return self.kind != "multiplier"

    def weight(self, k: int) -> float:
        if k < 0:
            raise ValueError("weight index must be non-negative")
        return float(self.weights(k + 1, k)[0])

    def weights(self, n: int, start: int = 0) -> np.ndarray:
        """The weights w_start, ..., w_{n-1} as an array."""
        ks = np.arange(start, n)
        if self.kind == "dirichlet":
            if self.alpha * math.log(max(n, 1)) <= 709:  # n^alpha < 2^1023: no overflow
                return (ks + 1.0) ** self.alpha
            # an infinite weight is refused as overflow by the Gram build,
            # and gives a kernel coefficient of 0, its correctly rounded value
            with np.errstate(over="ignore"):
                return (ks + 1.0) ** self.alpha
        if self.kind != "custom":
            raise ValueError("multiplier spaces have no coefficient weights")
        size = self.prefix.size
        beyond = ks[ks >= size]
        with np.errstate(over="ignore"):
            ext = self.prefix[-1] * self.ratio ** (beyond - size + 1)
        if not np.all(np.isfinite(ext)):
            raise OverflowError("custom weights overflow the double range")
        return np.concatenate([self.prefix[ks[ks < size]], ext])

    def tail_weight_majorant(self, k0):
        """(W, g, rho) with w_k <= W * (k+1)**g * rho**k for all k >= k0; for an
        array of starts W is one bound per start, or a float if all are equal."""
        if self.kind == "dirichlet":
            return 1.0, max(self.alpha, 0.0), 1.0
        if self.kind != "custom":
            raise ValueError("multiplier spaces have no coefficient weights")
        n, rho = self.prefix.size, self.ratio
        if rho <= 1.0:
            return float(self.prefix.max()), 0.0, 1.0
        # w_k / rho**k over the prefix, then the continuation's constant; the
        # bound from each start is the largest of these from there on
        over = np.append(self.prefix / rho ** np.arange(n), self.prefix[-1] * rho ** (1 - n))
        W = np.maximum.accumulate(over[::-1])[::-1][np.minimum(k0, n)]
        return (float(W) if W.ndim == 0 else W), 0.0, rho

    # -- serialization ------------------------------------------------------

    def to_descriptor(self) -> dict:
        if self.kind == "dirichlet":
            return {"kind": "dirichlet", "alpha": self.alpha}
        if self.kind == "custom":
            return {
                "kind": "custom",
                "weights": [float(w) for w in self.prefix],
                "extension": self.extension,
            }
        return {
            "kind": "multiplier",
            "m": [[float(c.real), float(c.imag)] for c in self.m.coeffs],
        }

    @staticmethod
    def from_descriptor(desc: dict) -> "WeightSequence":
        if not isinstance(desc, dict):
            raise ValueError("space descriptor must be a JSON object")
        kind = desc.get("kind")
        required = {"dirichlet": "alpha", "custom": "weights", "multiplier": "m"}
        if kind in required and required[kind] not in desc:
            raise ValueError(f"{kind} space descriptor needs {required[kind]!r}")
        if kind == "dirichlet":
            return WeightSequence.dirichlet(desc["alpha"])
        if kind == "custom":
            weights = desc["weights"]
            if not isinstance(weights, list):
                raise ValueError("custom weights must be a list of numbers")
            return WeightSequence.custom(
                [_finite_real(w, "weight") for w in weights], desc.get("extension", "ratio")
            )
        if kind == "multiplier":
            m = desc["m"]
            if not isinstance(m, list) or not all(isinstance(c, list) and len(c) == 2 for c in m):
                raise ValueError("multiplier m must be a list of [re, im] pairs")
            coeffs = [complex(_finite_real(re, "m"), _finite_real(im, "m")) for re, im in m]
            return WeightSequence.multiplier(CPoly(coeffs))
        raise ValueError(f"unknown space descriptor kind: {kind}")

    def __repr__(self):
        if self.kind == "dirichlet":
            return f"WeightSequence.dirichlet({self.alpha})"
        if self.kind == "custom":
            return f"WeightSequence.custom(len={self.prefix.size}, ext={self.extension})"
        return f"WeightSequence.multiplier({self.m!r})"


_H2 = WeightSequence.dirichlet(0.0)


# ---------------------------------------------------------------------------
# inner products
# ---------------------------------------------------------------------------


def lift(space: WeightSequence, *xs) -> tuple:
    """(space, *xs) as their inner products are summed: a quotient space is H2
    through its isometry <a, b> = <m a, m b>, so it gives (H2, x m, ...), each
    product by x.mul_poly (a series with a tail keeps its stored length) and a
    repeated operand one object; any other space gives its arguments back."""
    if space.kind != "multiplier":
        return (space, *xs)
    once = {id(x): x for x in xs}
    lifted = {key: x.mul_poly(space.m) for key, x in once.items()}
    return (_H2, *(lifted[id(x)] for x in xs))


def inner_poly(space: WeightSequence, a: CPoly, b: CPoly) -> complex:
    """Exact finite inner product of two polynomials (or tail-free series)."""
    space, a, b = lift(space, a, b)
    n = min(a.coeffs.size, b.coeffs.size)
    if a.is_zero or b.is_zero:
        return 0j
    w = space.weights(n)
    return complex(np.sum(w * a.coeffs[:n] * np.conj(b.coeffs[:n])))


def norm_sq_poly(space: WeightSequence, a: CPoly) -> float:
    return inner_poly(space, a, a).real


def inner_series(space: WeightSequence, a, b, eps: float = 1e-12) -> Certified:
    """Certified inner product of stored series, the k = 0 case of
    shift_products; raises rather than guessing when the stored prefixes
    cannot certify eps (construction sites size them via needed_length)."""
    values, errs = shift_products(space, a, b, 0)
    require_certified(errs[0, 0], eps)
    return Certified(complex(values[0, 0]), float(errs[0, 0]))


def require_certified(err: float, eps: float) -> None:
    """Raise CannotCertifyError unless err <= eps (a NaN bound never passes)."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    if not err <= eps:
        raise CannotCertifyError(
            f"certified error {err:.3g} exceeds eps={eps:.3g}; "
            "store longer prefixes for these series"
        )


def shift_products(space: WeightSequence, h, f, K: int, J: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """<z^j h, z^k f> for j = 0..J and k = 0..K, as (J+1) x (K+1) arrays of
    values and of the error certified for each pair, summed over the stored
    overlap: one correlation when J = 0 (O(K + L) memory for long horizons),
    else one product with f's shift matrix, for every data kind (gram_band
    sums exact data's Gram matrix along its band).  Two exact operands
    (tail_M == 0) carry rounding only; otherwise the error adds the stretch
    where only one stored prefix has ended (its envelope against the other's
    coefficients, summed over the indices [len h, len f + K) or
    [len f, len h + J) alone) and the tail beyond both, the envelopes of
    z^j h and z^k f re-based as TruncSeries.shift does.  In a quotient space
    all of it is of the data lift gives: z^j (h m), z^k (f m) in H2.
    Comparing the errors with eps is the caller's."""
    space, h, f = lift(space, h, f)
    exact = h.tail_M == 0 and f.tail_M == 0
    alpha, beta = h.coeffs, f.coeffs
    width = max(alpha.size + J, beta.size + K)
    w = space.weights(width)
    with np.errstate(over="ignore", invalid="ignore"):
        wA = w * _shift_matrix(alpha, J, width)
        values = _against_shifts(wA, beta, K)
    if exact:
        errs = 1e-16 * (1.0 + np.abs(values))
        _refuse_overflow(errs.max(), alpha, beta)
        return values, errs
    La, Lb = alpha.size, beta.size  # stored lengths of h and f; z^j h and z^k f store j and k more
    Ma = _shift_envelopes(h, J)
    Mb = Ma if f is h and K == J else _shift_envelopes(f, K)  # a Gram matrix's are one
    abs_wA = np.abs(wA)
    # the rounding of each summed term, and z^j h's envelope where it has
    # ended but z^k f is stored: t in [La + j, Lb + k), within [La, Lb + K)
    bound = 1e-16 * abs_wA
    if h.tail_M > 0 and La < Lb + K:
        t = np.arange(La, Lb + K)
        env = w[La : Lb + K] * h.tail_r**t * (t + 1.0) ** h.tail_gamma
        np.multiply(Ma[:, None], env, out=bound[:, La : Lb + K], where=t >= La + np.arange(J + 1)[:, None])
    errs = _against_shifts(bound, np.abs(beta), K)
    if f.tail_M > 0 and Lb < La + J:  # z^k f has ended first: t in [Lb + k, La + j), within [Lb, La + J)
        t = np.arange(Lb, La + J)
        terms = abs_wA[:, Lb : La + J] * (f.tail_r**t * (t + 1.0) ** f.tail_gamma)
        suffix = np.cumsum(terms[:, ::-1], axis=1)[:, ::-1]
        k = min(K + 1, suffix.shape[1])
        errs[:, :k] += Mb[:k] * suffix[:, :k]
    if h.tail_M > 0 and f.tail_M > 0:
        Lmax = np.maximum(La + np.arange(J + 1)[:, None], Lb + np.arange(K + 1))
        W, g, rho = space.tail_weight_majorant(Lmax)
        q, gamma = h.tail_r * f.tail_r * rho, h.tail_gamma + f.tail_gamma + g
        # each M r^-i is finite, but two of them may overflow before the small
        # tail factor: refused, not turned into NaN
        with np.errstate(over="ignore", invalid="ignore"):
            tail = Ma[:, None] * Mb * W * power_tail_bound(1.0, q, gamma, Lmax - 1)
        if not np.isfinite(tail).all():
            raise EnvelopeOverflowError("product of shifted envelopes overflows the double range")
        errs += tail
    return values, errs


def _shift_envelopes(x, n: int) -> np.ndarray:
    """tail_M of z^i x for i = 0..n."""
    return x.shift_tail_M(n) if x.tail_M else np.zeros(n + 1)


def _shift_matrix(c: np.ndarray, n: int, width: int) -> np.ndarray:
    """Rows z^i c for i = 0..n, zero-padded to width >= c.size + n columns: c
    starts each row of buf, and read at a stride of width, row i starts i later."""
    buf = np.zeros((n + 1, width + 1), dtype=c.dtype)
    buf[:, : c.size] = c
    return buf.ravel()[: (n + 1) * width].reshape(n + 1, width)


def _refuse_overflow(err: float, alpha: np.ndarray, beta: np.ndarray) -> None:
    """Refuse finite data whose sums overflow (NaN data goes on, to fail the factor)."""
    if not math.isfinite(err) and np.isfinite(alpha).all() and np.isfinite(beta).all():
        raise OverflowError("inner products overflow the double range")


def gram_band(space: WeightSequence, f, n: int) -> tuple[np.ndarray, float]:
    """G[k, j] = <z^j f, z^k f>, j, k <= n, as a band array of b diagonals below
    the main one, and the largest entry error: b = n for f with a tail, else
    the degree d of f (of f m in a quotient space, as lift gives it) up to n.
    Exact data's diagonals are summed where the shifted supports meet (every
    other entry is an exact zero), O(n b) memory; data with a tail, or a
    single entry, is summed dense by shift_products and read into its band."""
    space, f = lift(space, f)
    alpha = f.coeffs
    d = alpha.size - 1
    b = n if f.tail_M else min(d, n)
    if n == 0 or f.tail_M:
        values, errs = shift_products(space, f, f, n, n)
        return lower_rows(values.T, b), float(errs.max())
    with np.errstate(over="ignore", invalid="ignore"):
        # row j holds w_{j+u} alpha_u, u = 0..d; column c of the shift matrix is
        # conj(alpha) reversed and shifted, so that entry (j, c) is at k = j + c - d
        diagonals = space.weights(alpha.size + n)[np.arange(n + 1)[:, None] + np.arange(d + 1)] * alpha
        diagonals = diagonals @ _shift_matrix(np.conj(alpha[::-1]), d, 2 * d + 1)
        # those outside G do not count
        k = np.arange(n + 1)[:, None] + np.arange(2 * d + 1) - d
        diagonals[(k < 0) | (k > n)] = 0
        err = 1e-16 * (1.0 + np.abs(diagonals).max())
    _refuse_overflow(err, alpha, alpha)
    rows = np.zeros((n + 1, b + 1), dtype=complex)
    for s in range(b + 1):  # G[i, i-s] = <z^(i-s) f, z^i f> is at (i - s, d + s)
        rows[s:, b - s] = diagonals[: n + 1 - s, d + s]
    return rows, float(err)


def _against_shifts(rows: np.ndarray, c: np.ndarray, K: int) -> np.ndarray:
    """sum_t rows[j, t] conj((z^k c)_t) for every row j and k = 0..K: one
    correlation for a single row, one product with c's shift matrix otherwise."""
    P = c.size + K
    if rows.shape[0] == 1:
        return np.correlate(rows[0, :P], c, "valid")[None]
    return rows[:, :P] @ _shift_matrix(c, K, P).conj().T


def inner_any(space: WeightSequence, a, b, eps: float = 1e-12) -> Certified:
    """Inner product dispatcher: exact for tail-free data, certified otherwise."""
    if a.tail_M == 0 and b.tail_M == 0:
        v = inner_poly(space, a, b)
        return Certified(v, 1e-16 * (1.0 + abs(v)))
    return inner_series(space, a, b, eps)


def norm_sq_any(space: WeightSequence, a, eps: float = 1e-12) -> Certified:
    c = inner_any(space, a, a, eps)
    return Certified(c.value.real, c.err)


# ---------------------------------------------------------------------------
# reproducible points
# ---------------------------------------------------------------------------


def is_reproducible(space: WeightSequence, beta: complex, order: int = 0) -> Reproducibility:
    """Decide whether evaluation of the order-th derivative at beta is bounded.

    The defining series sum_k P_order(k)^2 |beta|^(2(k-order)) / w_k is decided
    analytically for dirichlet weights (inside: yes; boundary: iff
    alpha > 2*order + 1; outside: no) and for quotient spaces (inside only).
    For custom weights the term ratio tends to |beta|^2 / ratio, the exact
    limit of the continuation rule: the series converges below 1 and diverges
    from 1 on.  Every verdict is decided.
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    rho = abs(complex(beta))
    if space.kind == "dirichlet":
        if rho < 1.0 - _BOUNDARY_TOL:
            return Reproducibility(True, "analytic", "interior point")
        if rho > 1.0 + _BOUNDARY_TOL:
            return Reproducibility(False, "analytic", "outside the closed disk")
        ok = space.alpha > 2 * order + 1
        return Reproducibility(
            ok, "analytic", f"boundary point: alpha > {2 * order + 1} is {ok}"
        )
    if space.kind == "multiplier":
        if rho < 1.0 - _BOUNDARY_TOL:
            return Reproducibility(True, "analytic", "interior point")
        return Reproducibility(False, "analytic", "boundary/outside point")
    # custom kind: the term ratio tends to |beta|^2 / ratio
    limit = rho**2 / space.ratio
    if limit < 1.0 - _BOUNDARY_TOL:
        return Reproducibility(True, "ratio_test", f"ratio limit {limit:.6g} < 1")
    if limit > 1.0 + _BOUNDARY_TOL:
        return Reproducibility(False, "ratio_test", f"ratio limit {limit:.6g} > 1")
    # at the boundary the terms behave like P_order(k)^2 * const, which
    # never tends to zero
    return Reproducibility(False, "ratio_test", "ratio limit 1 with non-vanishing terms")


def _falling_vec(ks: np.ndarray, n: int) -> np.ndarray:
    """Falling factorials k (k-1) ... (k-n+1) of each k; 1 for n = 0."""
    out = np.ones_like(ks, dtype=float)
    for j in range(n):
        out = out * (ks - j)
    return out


def _rising_vec(ks: np.ndarray, n: int) -> np.ndarray:
    out = np.ones_like(ks, dtype=float)
    for j in range(1, n + 1):
        out = out * (ks + j)
    return out


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


def _require_kernel_formula(space: WeightSequence) -> None:
    if space.kind == "multiplier":
        raise ValueError(
            "multiplier spaces have non-orthogonal monomials; no coefficient "
            "kernel formula applies (use the correspondence with the plain space)"
        )


def kernel_coefficients(space: WeightSequence, spec: KernelSpec, length: int) -> np.ndarray:
    """First ``length`` Maclaurin coefficients of the requested kernel."""
    _require_kernel_formula(space)
    beta = complex(spec.beta)
    n = spec.order
    ks = np.arange(length)
    w = space.weights(length)
    # beta = 0 needs no case of its own: numpy's 0j**0 is 1 and 0j**k is +0
    if spec.flavor == "kernel_for_derivatives":
        coeffs = np.zeros(length, dtype=complex)
        nz = ks >= n
        coeffs[nz] = _falling_vec(ks, n)[nz] * np.conj(beta) ** (ks[nz] - n) / w[nz]
        return coeffs
    return _rising_vec(ks, n) * np.conj(beta) ** (ks + n) / w


def kernel_series(
    space: WeightSequence,
    spec: KernelSpec,
    eps: float = 1e-12,
    length: int | None = None,
) -> TruncSeries:
    """Kernel as a stored series with a certified envelope; a multiplier space
    is refused, as kernel_coefficients refuses it.

    Interior points (under growing custom weights, |beta| = 1 as well) get
    geometric envelopes sized from eps; reproducible boundary points of a
    dirichlet space decay like a power of k, so the envelope carries
    tail_r = 1 with a negative power and the stored length defaults to a
    fixed prefix -- certified inner products against such kernels go through
    the dedicated summation routines rather than the envelope.
    """
    _require_kernel_formula(space)
    beta = complex(spec.beta)
    cert = is_reproducible(space, beta, spec.order)
    if not cert.reproducible:
        raise NotReproducibleError(
            f"point {beta} is not reproducible at order {spec.order}: {cert.detail}"
        )
    rho = abs(beta)
    n = spec.order
    if beta == 0:
        coeffs = kernel_coefficients(space, spec, n + 1)
        return TruncSeries(coeffs, 0.0, 0.0, 0.0)
    if space.kind == "dirichlet" and abs(rho - 1.0) <= _BOUNDARY_TOL:
        # boundary point: |coeff_k| <= (k+1)^n / (k+1)^alpha, a power envelope
        # (growing custom weights decay geometrically at |beta| = 1 too)
        gamma_b = float(n - space.alpha)
        if length is None:
            length = 256
        coeffs = kernel_coefficients(space, spec, length)
        return TruncSeries(coeffs, 1.0, 1.0, gamma_b)
    # interior point: geometric envelope
    if space.kind == "dirichlet":
        ginv = max(-space.alpha, 0.0)
        Minv, r_eff = 1.0, rho
    else:
        Minv, rho_inv = _inverse_weight_majorant(space)
        r_eff, ginv = rho * rho_inv, 0.0
        if r_eff >= 1.0:
            # an unsupported request, not a failed solve: a stored series
            # with a geometric envelope r < 1 cannot hold growing coefficients
            raise ValueError(
                "kernel coefficients grow under decaying weights; "
                "no geometric envelope exists"
            )
    if spec.flavor == "derivative_of_kernel":
        # |coeffs| = (k+1)...(k+n) rho^(k+n) / w_k <= ((n+1)(k+1))^n rho^(k+n) / w_k
        M = Minv * rho**n * (n + 1.0) ** n
    else:
        # |coeffs| = |P_n(k)| rho^(k-n) / w_k <= (k+1)^n rho^(k-n) / w_k
        M = Minv * rho ** (-n)
    gamma = n + ginv
    if length is None:
        length = max(needed_length(M, r_eff, gamma, eps), n + 2)
    coeffs = kernel_coefficients(space, spec, length)
    return TruncSeries(coeffs, M, r_eff, gamma)


# ---------------------------------------------------------------------------
# certified weighted power sums (the engine behind kernel Gram entries,
# kernel evaluation, and projection tails)
# ---------------------------------------------------------------------------

_CHUNK = 1 << 14

# B_2i / (2i)! for i = 1..30: the Euler-Maclaurin coefficients up to order 60
_EM_COEFFS = np.array([
    0.08333333333333333, -0.001388888888888889, 3.306878306878307e-05,
    -8.267195767195768e-07, 2.08767569878681e-08, -5.284190138687493e-10,
    1.3382536530684679e-11, -3.3896802963225827e-13, 8.586062056277845e-15,
    -2.174868698558062e-16, 5.5090028283602295e-18, -1.3954464685812522e-19,
    3.534707039629467e-21, -8.953517427037546e-23, 2.267952452337683e-24,
    -5.744790668872202e-26, 1.455172475614865e-27, -3.6859949406653103e-29,
    9.336734257095045e-31, -2.36502241570063e-32, 5.990671762482134e-34,
    -1.5174548844682903e-35, 3.843758125454189e-37, -9.736353072646691e-39,
    2.466247044200681e-40, -6.247076741820743e-42, 1.5824030244644914e-43,
    -4.008273685948936e-45, 1.0153075855569557e-46, -2.5718041582418717e-48,
])
# C(n, i) for n, i <= 60 (0 for i > n), rounded to nearest: the Leibniz coefficients
_BINOM = np.array([[math.comb(n, i) for i in range(61)] for n in range(61)], dtype=float)


def _weighted_terms(space, j, l, power, k_lo, k_hi):
    """P_j(k) P_l(k) power(k) / w_k for k_lo <= k < k_hi (0 where w_k overflows)."""
    ks = np.arange(k_lo, k_hi)
    with np.errstate(over="ignore"):
        return _falling_vec(ks, j) * _falling_vec(ks, l) * power(ks) / space.weights(k_hi, k_lo)


def _poly_in_shifted_basis(j, l):
    """Coefficients c_m with P_j(x) P_l(x) = sum_m c_m (x+1)**m."""
    # product of linear factors (t - (nu+1)) in t = x + 1
    coeffs = np.array([1.0])
    for nu in list(range(j)) + list(range(l)):
        coeffs = np.convolve(coeffs, np.array([-(nu + 1.0), 1.0]))
    return coeffs  # index m -> coefficient of t^m


def falling_product_sum(
    space: WeightSequence, j: int, l: int, u: complex, eps: float, start: int = 0
) -> Certified:
    """Certified evaluation of sum_{k>=start} P_j(k) P_l(k) u**k / w_k, the sum
    behind every kernel quantity (kernel_inner scales it).

    Each regime gives a stop index K and, for the terms from K on, an offset
    and a remainder of at most eps/2: inside the disk (|u| < 1, or growing
    custom weights) a geometric-polynomial bound with the smallest such K
    (series.smallest_certified), on the circle the Euler-Maclaurin tail of
    u = e^z, u = 1 being z = 0; 1 < |u| <= 1 + tol is on the circle (as in
    is_reproducible), summed at u/|u|.  One loop sums the terms before K,
    rounding 1e-15 sum|terms|; on the circle off u = 1 a term k counts 2 units
    (complex operands) per unit of: exp(zk), 3k|z| + 4 (series.power_rounding);
    factorials, weight and quotient, j + l + 3; np.sum's pairwise tree over a
    chunk of 2^14 terms, 32; the running total, one a chunk.  Raises
    CannotCertifyError when the total exceeds eps by more than 1e-14 of the value.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    u = complex(u)
    q = abs(u)
    if space.kind == "multiplier":
        raise ValueError("multiplier spaces have no coefficient weights")
    if q > 1.0 + _BOUNDARY_TOL:
        raise CannotCertifyError("series with |u| > 1 diverges")
    real, z = False, 0.0
    if q >= 1.0 - _BOUNDARY_TOL and space.kind == "custom" and not space.ratio > 1.0:
        raise CannotCertifyError("boundary sums over non-growing custom weights diverge")
    if q < 1.0 - _BOUNDARY_TOL or space.kind == "custom":
        # a growing custom continuation dominates the polynomial factor
        stop, offset, rem = _interior_tail(space, j, l, q, start, 0.5 * eps)
    elif space.alpha <= j + l + 1:
        raise CannotCertifyError("boundary sum diverges: alpha <= j + l + 1")
    else:
        z = cmath.log(u) if q < 1.0 else 1j * cmath.phase(u)
        if real := not z:  # u/|u| = 1
            u, z = 1.0 + 0j, 0.0
        stop, offset, rem = _euler_maclaurin_tail(space.alpha, j, l, z, start, 0.5 * eps)
    acc, absacc, kacc = (0.0 if real else 0j), 0.0, 0.0
    power = (lambda ks: np.exp(z * ks)) if z else (lambda ks: u**ks)
    for lo_k in range(start, stop, _CHUNK):
        hi_k = min(stop, lo_k + _CHUNK)
        t = _weighted_terms(space, j, l, power, lo_k, hi_k)
        acc += float(np.sum(t.real)) if real else complex(np.sum(t))
        absacc += float(np.sum(np.abs(t)))
        kacc += float(np.dot(np.arange(lo_k, hi_k), np.abs(t))) if z else 0.0
    value = complex(acc + offset)
    units = 3.0 * abs(z) * kacc + (j + l + 40 + math.ceil((stop - start) / _CHUNK)) * absacc
    err = rem + (2.0 * UNIT_ROUNDOFF * units if z else 1e-15 * absacc)
    if not err <= eps + 1e-14 * abs(value):
        raise CannotCertifyError(f"kernel sum error {err:.3g} exceeds eps={eps:.3g}")
    return Certified(value, err)


def _inverse_weight_majorant(space) -> tuple[float, float]:
    """(M, rho) with 1/w_k <= M rho**k for every k of a custom space: beyond
    the prefix 1/w_k = ratio**(n-1-k) / w_{n-1}, a geometric sequence with
    base 1/ratio, and the prefix goes into the constant."""
    return max(float(space.ratio**k / w) for k, w in enumerate(space.prefix)), 1.0 / space.ratio


def _interior_tail(space, j, l, q, start, eps):
    """(stop, 0, rem): the smallest stop whose geometric-polynomial bound rem
    on the terms from stop on is <= eps."""
    if space.kind == "dirichlet":
        gamma = j + l + max(-space.alpha, 0.0)
        Mw = 1.0
        qeff = q
    else:
        Mw, rho_inv = _inverse_weight_majorant(space)
        gamma, qeff = float(j + l), q * rho_inv
    if qeff >= 1.0:
        raise CannotCertifyError("effective tail ratio reaches 1")

    def bound(K):
        return power_tail_bound(Mw, qeff, gamma, K - 1)

    stop = smallest_certified(bound, eps, max(max(j, l) + 2, 8, start), 10**7)
    return stop, 0.0, bound(stop)


def _euler_maclaurin_tail(alpha, j, l, z, start, eps):
    """(stop, offset, err) over dirichlet weights, alpha > j + l + 1, u = e^z,
    Re z <= 0 (z = 0.0 at u = 1): the terms from K = stop = max(64, ceil(40/|z|),
    start) <= 1e7 on sum to offset within err.

    With t = x + 1, g(x) = P_j(x) P_l(x) t**-alpha = sum_m c_m t**(m - alpha)
    and F(x) = g(x) e^(zx), whose F^(r) = e^(zx) sum_i C(r, i) z^(r-i) g^(i),
        sum_{k>=K} F(k) = int_K^inf F + F(K)/2 - sum_{s<=p} B_2s/(2s)! F^(2s-1)(K) + R_p,
        |R_p| <= |B_2p|/(2p)! int_K^inf |F^(2p)| <= |B_2p|/(2p)! sum_i C(2p, i) |z|^(2p-i) A_i,
    A_i a closed-form sum over m bounding int_K^inf |g^(i)|.  So is the integral
    at z = 0; else q integrations by parts give e^(zK) sum_{i<q} (-1/z)^(i+1)
    g^(i)(K) within A_q / |z|^q.  p and q (2p, q <= 60) are the smallest
    orders whose remainders are <= eps, half each when z != 0; with K >= 64
    and K |z| >= 40 both fall with the order while normal doubles.

    err adds the rounding of the N parts summed, each operation within
    UNIT_ROUNDOFF on normal numbers: a part of derivative order r takes 6 + 3r
    operations, its power t**(m + 1 - alpha) |m + 1 - alpha| ln t units, their
    sum N + 1; off z = 0 a part also sums n = max(q, 2p) products of a Bernoulli
    ratio, a binomial and a power of z or -|z|/z (6 units a factor, z has 3)
    and takes e^(zK), off by 3K|z| + 4 (series.power_rounding).
    """
    stop = max(64, start, math.ceil(40 / abs(z)) if z else 0)
    if stop > 10**7:
        raise CannotCertifyError("required series length exceeds 1e7")
    t, c, r = stop + 1.0, _poly_in_shifted_basis(j, l), np.arange(2 * _EM_COEFFS.size + 1)
    m = np.arange(c.size)[:, None]
    # D[m, r] = c_m (m - alpha)(m - alpha - 1)...(m - alpha - r + 1) t**(m - alpha - r + 1), so
    # g^(r)(K) = sum_m D[m, r] / t, A_r = sum_m |D[m, r]| / den[m, r]; an underflowed power stays 0
    lead = c[:, None] * t ** ((m + 1) - alpha)
    D = np.cumprod(np.hstack([lead, ((m - r[:-1]) - alpha) / t]), axis=1)
    den = ((r - 1) - m) + alpha
    units = 6.0 + np.abs((m + 1) - alpha) * math.log(t) + 3.0 * r
    rem_parts = np.abs(_EM_COEFFS * D[:, 2::2]) / den[:, 2::2]  # p = 1..30, at z = 0
    q, extra, int_parts = 0, 0.0, np.zeros_like(D)
    if z:
        # C(2p, i) |z|^(2p-i) (C(n, i) = 0 for i > n); Dz[m, r] = D[m, r] / |z|^r,
        # whose steps K |z| >= 40 keep from overflowing
        Cz = _BINOM[2 * r[1:31]] * (abs(z) ** r)[np.maximum(2 * r[1:31, None] - r, 0)]
        rem_parts = np.abs(_EM_COEFFS) * ((np.abs(D) / den) @ Cz.T)
        Dz = np.cumprod(np.hstack([lead, ((m - r[:-1]) - alpha) / (t * abs(z))]), axis=1)
        int_parts = np.abs(Dz) / den
        q = smallest_certified(lambda q: int_parts[:, q].sum(), eps / 2, 1, r[-1])
    rems = rem_parts.sum(axis=0)
    p = smallest_certified(lambda p: rems[p - 1], eps / 2 if z else eps, 1, _EM_COEFFS.size)
    n, s = max(q, 2 * p), r[1 : p + 1]
    # G[:, s - 1] = t e^(-zK) F^(2s-1)(K), the correction of order 2s - 1
    integral, G = D[:, :1] / ((-1 - m) + alpha), D[:, 1 : 2 * p : 2]
    int_mags, G_mags = np.abs(integral), np.abs(G)
    if z:
        Zc = _BINOM[2 * s - 1, r[:n, None]] * (z ** r)[np.maximum((2 * s - 1) - r[:n, None], 0)]
        G, G_mags = D[:, :n] @ Zc, np.abs(D[:, :n]) @ np.abs(Zc)
        integral = -(Dz[:, :q] @ (-abs(z) / z) ** r[:q])[:, None] / (z * t)
        int_mags = np.abs(Dz[:, :q]).sum(axis=1, keepdims=True) / (abs(z) * t)
        extra = 3.0 * stop * abs(z) + 8.0 * n + 16.0
    parts = np.hstack([integral, D[:, :1] / (2.0 * t), -_EM_COEFFS[:p] * G / t])
    mags = np.hstack([int_mags, np.abs(parts[:, 1:2]), np.abs(_EM_COEFFS[:p]) * G_mags / t])
    part_units = np.hstack([units[:, [max(q - 1, 0), 0]], units[:, 1 : 2 * p : 2]]) + extra
    n_parts = parts.size + c.size
    rounding = np.sum(mags * (part_units + n_parts + 1))
    rounding += np.sum(rem_parts[:, p - 1] * (units[:, 2 * p] + extra + n_parts + 1))
    rounding += np.sum(int_parts[:, q] * (units[:, q] + extra + n_parts + 1))
    err = rems[p - 1] + int_parts[:, q].sum() + UNIT_ROUNDOFF * rounding
    return stop, np.sum(parts * np.exp(z * stop)) if z else np.sum(parts), float(err)


def kernel_inner(
    space: WeightSequence, a: KernelSpec, b: KernelSpec, eps: float = 1e-12, start: int = 0
) -> Certified:
    """Certified <k_a, k_b> for two derivative-evaluation kernels, summed over
    the coefficients from index start on.

    <k^j_bi, k^l_bs> = conj(bi)^(-j) bs^(-l) sum_k P_j(k) P_l(k)
                        (conj(bi) bs)^k / w_k;
    the error adds the rounding of the scale's two powers and its products.
    Only a boundary kernel paired with itself sums at u = |bi|^2 = 1 exactly.
    """
    if a.flavor != "kernel_for_derivatives" or b.flavor != "kernel_for_derivatives":
        raise ValueError("kernel_inner expects derivative-evaluation kernels")
    ba, bb = complex(a.beta), complex(b.beta)
    if ba == 0 or bb == 0:
        # kernel at 0 of order n is the single monomial z^n * n! / w_n, so one
        # term is nonzero: its factorials, its weight thrice and one power round
        length = max(a.order, b.order) + 1
        ca = kernel_coefficients(space, a, length)
        cb = kernel_coefficients(space, b, length)
        terms = (space.weights(length) * ca * np.conj(cb))[start:]
        rel = power_rounding(length, abs(ba + bb) or 1.0) + (2 * length + 16) * UNIT_ROUNDOFF
        return Certified(complex(np.sum(terms)), rel * float(np.sum(np.abs(terms))))
    scale = np.conj(ba) ** (-a.order) * bb ** (-b.order)
    inner_eps = eps / max(abs(scale), 1e-300)
    u = 1.0 if ba == bb and abs(abs(ba) - 1.0) <= _BOUNDARY_TOL else np.conj(ba) * bb
    s = falling_product_sum(space, a.order, b.order, u, inner_eps, start)
    value = scale * s.value
    # the two powers, the scale's product and the product with the sum
    rel = power_rounding(a.order, abs(ba)) + power_rounding(b.order, abs(bb)) + 4 * UNIT_ROUNDOFF
    return Certified(value, abs(scale) * s.err + rel * abs(value))


def kernel_eval(
    space: WeightSequence, spec: KernelSpec, z: complex, eps: float = 1e-12
) -> Certified:
    """Certified pointwise value k(z) = <k, k^0_z> of a derivative-evaluation kernel."""
    return kernel_inner(space, spec, KernelSpec(complex(z), 0), eps)
