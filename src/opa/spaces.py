"""Weighted Hardy spaces: weights, inner products, kernels, reproducibility.

A space is defined by a positive weight sequence w with w_0 = 1 and
w_{k+1}/w_k -> 1; the inner product weights Maclaurin coefficients,
<a, b> = sum_k w_k a_k conj(b_k).  Three kinds are supported:

* ``dirichlet(alpha)``  -- w_k = (k+1)**alpha; alpha = 0 is the classical
  Hardy space, alpha = 1 the Dirichlet space, alpha = -1 the Bergman space.
* ``custom``            -- a stored positive prefix plus a continuation rule
  ('ratio' continues with the final stored ratio, 'constant' repeats the
  final weight, or a callable giving w_k directly).
* ``multiplier(m)``     -- the quotient space {h/m : h in H2} for a
  polynomial m with no zeros in the open unit disk; inner products are
  computed isometrically as <m a, m b> in the unweighted space.  Monomials
  are NOT orthogonal here, so the coefficient-weight machinery is bypassed.

One function, shift_products, gives <h, z^k f> for every k = 0..K with the
bound certified for each pair (rounding, the stretch where one stored prefix
has ended, the tail beyond both); inner_series is its k = 0 case.

Derivative-evaluation kernels are the elements representing h -> h^(n)(beta);
their coefficients are falling-factorial weighted powers of conj(beta) over
w_k.  A point is "reproducible of order n" when that series converges; this
module decides it analytically for dirichlet weights and by ratio certificate
for custom ones, refusing to guess when the data is inconclusive.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    CannotCertifyError,
    NotReproducibleError,
    UndecidableError,
)
from .series import (
    CPoly,
    TruncSeries,
    needed_length,
    power_tail_bound,
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
    """Three-valued certificate: decided True/False, or None (undecidable)."""

    reproducible: bool | None
    certificate: str
    detail: str = ""

    def require(self) -> bool:
        if self.reproducible is None:
            raise UndecidableError(self.detail or "reproducibility undecided")
        return self.reproducible


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
            elif not callable(extension):
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
    def hardy() -> "WeightSequence":
        return WeightSequence("dirichlet", alpha=0.0)

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
        if self.kind == "dirichlet":
            return (k + 1.0) ** self.alpha
        if self.kind == "custom":
            n = self.prefix.size
            if k < n:
                return float(self.prefix[k])
            if callable(self.extension):
                w = float(self.extension(k))
                if not w > 0:  # also refuses NaN
                    raise ValueError("extension rule produced a non-positive weight")
                return w
            return float(self.prefix[-1] * self.ratio ** (k - n + 1))
        raise ValueError("multiplier spaces have no coefficient weights")

    def weights(self, n: int) -> np.ndarray:
        """The first n weights as an array."""
        if self.kind == "dirichlet":
            return (np.arange(n) + 1.0) ** self.alpha
        return np.array([self.weight(k) for k in range(n)])

    @property
    def growth_gamma(self) -> float | None:
        """Certified exponent with w_k <= (k+1)**gamma for all k, if any."""
        if self.kind == "dirichlet":
            return max(self.alpha, 0.0)
        if self.kind == "custom" and not callable(self.extension):
            if self.ratio <= 1.0 + 1e-15:
                k = np.arange(1, self.prefix.size)
                with np.errstate(divide="ignore"):
                    g = np.log(self.prefix[1:]) / np.log(k + 1.0)
                return float(max(0.0, g.max()))
            return None
        return None

    def tail_weight_majorant(self, k0: int):
        """(W, g, rho) with w_k <= W * (k+1)**g * rho**k for all k >= k0."""
        if self.kind == "dirichlet":
            return 1.0, max(self.alpha, 0.0), 1.0
        if self.kind == "custom":
            if callable(self.extension):
                raise CannotCertifyError(
                    "callable weight extensions carry no certified growth bound"
                )
            n = self.prefix.size
            if self.ratio <= 1.0:
                return float(self.prefix.max()), 0.0, 1.0
            rho = self.ratio
            W = float(self.prefix[-1] * rho ** (1 - n))
            for k in range(k0, n):
                W = max(W, float(self.prefix[k] / rho**k))
            return W, 0.0, rho
        raise ValueError("multiplier spaces have no coefficient weights")

    # -- serialization ------------------------------------------------------

    def to_descriptor(self) -> dict:
        if self.kind == "dirichlet":
            return {"kind": "dirichlet", "alpha": self.alpha}
        if self.kind == "custom":
            if callable(self.extension):
                raise ValueError("callable extensions are not serializable")
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
            return WeightSequence.custom(
                desc["weights"], desc.get("extension", "ratio")
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


def inner_poly(space: WeightSequence, a: CPoly, b: CPoly) -> complex:
    """Exact finite inner product of two polynomials."""
    if space.kind == "multiplier":
        return inner_poly(_H2, space.m * a, space.m * b)
    n = min(a.coeffs.size, b.coeffs.size)
    if a.is_zero or b.is_zero:
        return 0j
    w = space.weights(n)
    return complex(np.sum(w * a.coeffs[:n] * np.conj(b.coeffs[:n])))


def norm_sq_poly(space: WeightSequence, a: CPoly) -> float:
    return inner_poly(space, a, a).real


def _coerce_series(x) -> TruncSeries:
    if isinstance(x, TruncSeries):
        return x
    if isinstance(x, CPoly):
        return TruncSeries.from_poly(x)
    raise TypeError(f"expected CPoly or TruncSeries, got {type(x).__name__}")


def inner_series(space: WeightSequence, a, b, eps: float = 1e-12) -> Certified:
    """Certified inner product of stored series, the k = 0 case of
    shift_products; raises rather than guessing when the stored prefixes
    cannot certify eps (construction sites size them via needed_length)."""
    values, errs = shift_products(space, a, b, 0)
    require_certified(errs[0], eps)
    return Certified(complex(values[0]), float(errs[0]))


def require_certified(err: float, eps: float) -> None:
    """Raise CannotCertifyError unless err <= eps (a NaN bound never passes)."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    if not err <= eps:
        raise CannotCertifyError(
            f"certified error {err:.3g} exceeds eps={eps:.3g}; "
            "store longer prefixes for these series"
        )


def shift_products(space: WeightSequence, h, f, K: int) -> tuple[np.ndarray, np.ndarray]:
    """<h, z^k f> for k = 0..K, each with the error certified for that pair.

    One correlation against f's coefficients gives every value, summed over
    the stored overlap.  Two polynomials carry rounding only; otherwise the
    error adds the stretch where only the shorter prefix has ended (its
    envelope against the other's coefficients) and the tail beyond both
    (envelopes summed in closed form), the envelope of z^k f re-based as
    TruncSeries.shift gives it.  Comparing the errors with eps is the caller's.
    """
    poly = isinstance(h, CPoly) and isinstance(f, CPoly)
    a, b = _coerce_series(h), _coerce_series(f)
    ks = np.arange(K + 1)
    beta = b.coeffs
    Mb = b.shift_tail_M(ks) if b.tail_M > 0 else np.zeros(K + 1)
    if space.kind == "multiplier":
        # <h m, z^k f m> in H2; (z^k f) m keeps z^k f's stored length, and its
        # envelope covers the shifted coefficients, not those of f m
        m, space = space.m, _H2
        a, beta = a.mul_poly(m), np.convolve(m.coeffs, beta)
        if b.tail_M > 0:
            beta = beta[: len(b)]
            Mb = np.array([b.shift(k).mul_poly(m).tail_M for k in ks])
    La, Lb = len(a), beta.size + ks  # stored lengths of h and of each z^k f
    P = int(Lb[-1])
    w, t = space.weights(max(P, La)), np.arange(max(P, La))
    wa = np.zeros(P, dtype=complex)
    wa[: min(La, P)] = (w[:La] * a.coeffs)[:P]
    values = np.correlate(wa, beta, "valid")
    if poly:
        return values, 1e-16 * (1.0 + np.abs(values))
    errs = 1e-16 * np.correlate(np.abs(wa), np.abs(beta), "valid")
    if a.tail_M > 0 and P > La:  # h ended first
        env = w[:P] * a.tail_M * a.tail_r ** t[:P] * (t[:P] + 1.0) ** a.tail_gamma
        errs += np.correlate(np.where(t[:P] >= La, env, 0.0), np.abs(beta), "valid")
    if b.tail_M > 0 and La > Lb[0]:  # z^k f ended first: the sum from index Lb[k] on
        terms = w[:La] * np.abs(a.coeffs) * b.tail_r ** t[:La] * (t[:La] + 1.0) ** b.tail_gamma
        errs += Mb * np.append(np.cumsum(terms[::-1])[::-1], 0.0)[np.minimum(Lb, La)]
    if a.tail_M > 0 and b.tail_M > 0:
        Lmax = np.maximum(La, Lb)
        W = np.array([space.tail_weight_majorant(k0)[0] for k0 in Lmax.tolist()])
        _, g, rho = space.tail_weight_majorant(La)  # the same from any start
        q, gamma = a.tail_r * b.tail_r * rho, a.tail_gamma + b.tail_gamma + g
        errs += a.tail_M * Mb * W * power_tail_bound(1.0, q, gamma, Lmax - 1)
    return values, errs


def inner_any(space: WeightSequence, a, b, eps: float = 1e-12) -> Certified:
    """Inner product dispatcher: exact for polynomials, certified otherwise."""
    if isinstance(a, CPoly) and isinstance(b, CPoly):
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
    alpha > 2*order + 1; outside: no) and by an exact ratio certificate for
    custom continuations.  Callable extensions yield an empirical ratio scan
    that reports 'undecidable' when inconclusive.
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
    # custom kind: term ratio tends to |beta|^2 / ratio for geometric
    # continuations, which is exact
    if not callable(space.extension):
        limit = rho**2 / space.ratio
        if limit < 1.0 - _BOUNDARY_TOL:
            return Reproducibility(True, "ratio_test", f"ratio limit {limit:.6g} < 1")
        if limit > 1.0 + _BOUNDARY_TOL:
            return Reproducibility(False, "ratio_test", f"ratio limit {limit:.6g} > 1")
        # at the boundary the terms behave like P_order(k)^2 * const, which
        # never tends to zero
        return Reproducibility(
            False, "ratio_test", "ratio limit 1 with non-vanishing terms"
        )
    # callable extension: scan term ratios over a window beyond the prefix
    n0 = space.prefix.size + order + 2
    ks = np.arange(n0, n0 + 256)
    terms = np.array(
        [
            _falling(k, order) ** 2 * rho ** (2 * (k - order)) / space.weight(k)
            for k in ks
        ]
    )
    if np.all(terms == 0):
        return Reproducibility(True, "ratio_test", "terms vanish")
    ratios = terms[1:] / terms[:-1]
    steps = np.diff(ratios)  # settling: monotone up to 1e-9
    if ratios.max() <= 1.0 - 1e-6 and np.all(steps <= 1e-9):
        return Reproducibility(
            True, "ratio_test", f"window ratios <= {ratios.max():.6g} and settling"
        )
    if ratios.min() >= 1.0 + 1e-6 and np.all(steps >= -1e-9):
        return Reproducibility(
            False, "ratio_test", f"window ratios >= {ratios.min():.6g} and settling"
        )
    return Reproducibility(
        None,
        "undecidable",
        "prefix window admits no conclusive ratio certificate",
    )


def _falling(k, n):
    """Falling factorial k (k-1) ... (k-n+1); equals 1 for n = 0."""
    out = 1.0
    for j in range(n):
        out *= k - j
    return out


def _falling_vec(ks: np.ndarray, n: int) -> np.ndarray:
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


def kernel_coefficients(space: WeightSequence, spec: KernelSpec, length: int) -> np.ndarray:
    """First ``length`` Maclaurin coefficients of the requested kernel."""
    if space.kind == "multiplier":
        raise ValueError(
            "multiplier spaces have non-orthogonal monomials; no coefficient "
            "kernel formula applies (use the correspondence with the plain space)"
        )
    beta = complex(spec.beta)
    n = spec.order
    ks = np.arange(length)
    w = space.weights(length)
    if spec.flavor == "kernel_for_derivatives":
        fall = _falling_vec(ks, n)
        coeffs = np.zeros(length, dtype=complex)
        nz = ks >= n
        if beta == 0:
            # only the z^n term survives: n! / w_n
            if length > n:
                coeffs[n] = fall[n] / w[n]
        else:
            coeffs[nz] = fall[nz] * np.conj(beta) ** (ks[nz] - n) / w[nz]
        return coeffs
    rise = _rising_vec(ks, n)
    if beta == 0:
        coeffs = np.zeros(length, dtype=complex)
        if n == 0:
            coeffs[0] = 1.0 / w[0]
        return coeffs
    return rise * np.conj(beta) ** (ks + n) / w


def kernel_series(
    space: WeightSequence,
    spec: KernelSpec,
    eps: float = 1e-12,
    length: int | None = None,
) -> TruncSeries:
    """Kernel as a stored series with a certified envelope.

    Interior points get geometric envelopes sized from eps; boundary points
    (reproducible ones) decay like a power of k, so the envelope carries
    tail_r = 1 with a negative power and the stored length defaults to a
    fixed prefix -- certified inner products against such kernels go through
    the dedicated summation routines rather than the envelope.
    """
    beta = complex(spec.beta)
    cert = is_reproducible(space, beta, spec.order)
    if cert.reproducible is not True:
        if cert.reproducible is None:
            cert.require()
        raise NotReproducibleError(
            f"point {beta} is not reproducible at order {spec.order}: {cert.detail}"
        )
    rho = abs(beta)
    n = spec.order
    if beta == 0:
        coeffs = kernel_coefficients(space, spec, n + 1)
        return TruncSeries(coeffs, 0.0, 0.0, 0.0)
    if abs(rho - 1.0) <= _BOUNDARY_TOL:
        # boundary point (dirichlet kind only, by the reproducibility rules):
        # |coeff_k| <= (k+1)^n / (k+1)^alpha, a power envelope
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
        nprefix = space.prefix.size
        if space.ratio < 1.0:
            # decaying continuation inflates 1/w_k geometrically
            r_eff = rho / space.ratio
            if r_eff >= 1.0:
                raise CannotCertifyError(
                    "kernel coefficients grow under decaying weights; "
                    "no geometric envelope exists"
                )
            Minv = max(
                float(1.0 / (space.prefix[-1] * space.ratio ** (1 - nprefix))),
                max(float(space.ratio**k / space.prefix[k]) for k in range(nprefix)),
            )
        else:
            Minv = 1.0 / float(space.prefix.min())
            r_eff = rho
        ginv = 0.0
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


def _weighted_terms(space, j, l, u, k_lo, k_hi):
    ks = np.arange(k_lo, k_hi)
    p = _falling_vec(ks, j) * _falling_vec(ks, l)
    w = (
        (ks + 1.0) ** space.alpha
        if space.kind == "dirichlet"
        else np.array([space.weight(int(k)) for k in ks])
    )
    return p * u**ks / w


def _poly_in_shifted_basis(j, l):
    """Coefficients c_m with P_j(x) P_l(x) = sum_m c_m (x+1)**m."""
    # product of linear factors (t - (nu+1)) in t = x + 1
    coeffs = np.array([1.0])
    for nu in list(range(j)) + list(range(l)):
        coeffs = np.convolve(coeffs, np.array([-(nu + 1.0), 1.0]))
    return coeffs  # index m -> coefficient of t^m


def _integral_tail(space, j, l, K):
    """integral_K^inf P_j(x) P_l(x) (x+1)**(-alpha) dx for dirichlet spaces."""
    alpha = space.alpha
    c = _poly_in_shifted_basis(j, l)
    total = 0.0
    for m, cm in enumerate(c):
        expo = m - alpha
        if expo >= -1.0:
            raise CannotCertifyError("boundary tail integral diverges")
        total += cm * (K + 1.0) ** (expo + 1.0) / (-expo - 1.0)
    return total


def falling_product_sum(
    space: WeightSequence, j: int, l: int, u: complex, eps: float
) -> Certified:
    """Certified evaluation of sum_{k>=0} P_j(k) P_l(k) u**k / w_k.

    This single primitive evaluates kernels (l = 0, u = conj(beta) z), kernel
    Gram entries (u = conj(beta_i) beta_s), and projection norm tails.
    Interior data (|u| < 1) uses geometric-polynomial tail bounds; boundary
    data uses two-sided integral comparison when u == 1 and an alternating
    (Dirichlet-test) remainder bound for unimodular u != 1.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    u = complex(u)
    q = abs(u)
    if space.kind == "multiplier":
        raise ValueError("multiplier spaces have no coefficient weights")
    if q < 1.0 - _BOUNDARY_TOL:
        return _sum_interior(space, j, l, u, eps)
    if q > 1.0 + _BOUNDARY_TOL:
        raise CannotCertifyError("series with |u| > 1 diverges")
    # unimodular u
    if space.kind == "custom":
        if callable(space.extension):
            raise CannotCertifyError(
                "callable weight extensions admit no certified boundary sums"
            )
        if space.ratio > 1.0:
            # exact geometric continuation dominates the polynomial factor
            return _sum_interior(space, j, l, u, eps)
        raise CannotCertifyError(
            "boundary sums over non-growing custom weights diverge"
        )
    alpha = space.alpha
    if alpha <= j + l + 1:
        raise CannotCertifyError("boundary sum diverges: alpha <= j + l + 1")
    numax = max(j, l)
    x0 = (alpha * numax + j + l) / (alpha - j - l)
    K = int(max(64, math.ceil(x0) + 2))
    if abs(u - 1.0) <= _BOUNDARY_TOL:
        # positive decreasing terms: bracket the tail by integrals
        while True:
            hi = _integral_tail(space, j, l, K)
            lo = _integral_tail(space, j, l, K + 1)
            half = 0.5 * (hi - lo)
            if half <= 0.5 * eps or K > 2 * 10**7:
                break
            K = min(2 * K, 2 * 10**7 + 1)
        if half > 0.5 * eps:
            raise CannotCertifyError("boundary bracketing did not reach eps")
        partial = 0.0
        absacc = 0.0
        for lo_k in range(0, K + 1, _CHUNK):
            t = _weighted_terms(space, j, l, 1.0 + 0j, lo_k, min(K + 1, lo_k + _CHUNK))
            partial += float(np.sum(t.real))
            absacc += float(np.sum(np.abs(t)))
        value = partial + 0.5 * (hi + lo)
        return Certified(complex(value), half + 1e-15 * absacc)
    # unimodular, u != 1: Dirichlet-test remainder 2 a_{K+1} / |1 - u|
    denom = abs(1.0 - u)
    while True:
        aK = _falling(K + 1, j) * _falling(K + 1, l) / (K + 2.0) ** alpha
        bound = 2.0 * aK / denom
        if bound <= eps or K > 2 * 10**7:
            break
        K = min(2 * K, 2 * 10**7 + 1)
    if bound > eps:
        raise CannotCertifyError("oscillatory boundary tail did not reach eps")
    value = 0j
    absacc = 0.0
    for lo_k in range(0, K + 1, _CHUNK):
        t = _weighted_terms(space, j, l, u, lo_k, min(K + 1, lo_k + _CHUNK))
        value += complex(np.sum(t))
        absacc += float(np.sum(np.abs(t)))
    return Certified(value, bound + 1e-15 * absacc)


def _inverse_weight_majorant(space) -> tuple[float, float]:
    """(Minv, rho_inv) with 1/w_k <= Minv * rho_inv**k for all k (custom kind).

    Beyond the prefix, 1/w_k = ratio**(n-1-k) / w_{n-1} exactly, a geometric
    sequence with base 1/ratio; the prefix is absorbed into the constant.
    """
    n = space.prefix.size
    ratio = space.ratio
    if ratio == 1.0:
        return 1.0 / float(space.prefix.min()), 1.0
    Minv = max(
        float(ratio ** (n - 1) / space.prefix[-1]),
        max(float(ratio**k / space.prefix[k]) for k in range(n)),
    )
    return Minv, 1.0 / ratio


def _sum_interior(space, j, l, u, eps):
    q = abs(u)
    if space.kind == "dirichlet":
        gamma = j + l + max(-space.alpha, 0.0)
        Mw = 1.0
        qeff = q
    else:
        if callable(space.extension):
            raise CannotCertifyError(
                "callable weight extensions admit no certified sums"
            )
        gamma = float(j + l)
        Minv, rho_inv = _inverse_weight_majorant(space)
        Mw = Minv
        qeff = q * rho_inv
    if qeff >= 1.0:
        raise CannotCertifyError("effective tail ratio reaches 1")
    K = needed_length(Mw, qeff, gamma, 0.5 * eps)
    K = max(K, max(j, l) + 2, 8)
    value = 0j
    absacc = 0.0
    for lo_k in range(0, K, _CHUNK):
        t = _weighted_terms(space, j, l, u, lo_k, min(K, lo_k + _CHUNK))
        value += complex(np.sum(t))
        absacc += float(np.sum(np.abs(t)))
    tail = power_tail_bound(Mw, qeff, gamma, K - 1)
    return Certified(value, tail + 1e-15 * absacc)


def kernel_inner(
    space: WeightSequence, a: KernelSpec, b: KernelSpec, eps: float = 1e-12
) -> Certified:
    """Certified <k_a, k_b> for two derivative-evaluation kernels.

    <k^j_bi, k^l_bs> = conj(bi)^(-j) bs^(-l) sum_k P_j(k) P_l(k)
                        (conj(bi) bs)^k / w_k.
    """
    if a.flavor != "kernel_for_derivatives" or b.flavor != "kernel_for_derivatives":
        raise ValueError("kernel_inner expects derivative-evaluation kernels")
    ba, bb = complex(a.beta), complex(b.beta)
    if ba == 0 or bb == 0:
        # kernel at 0 of order n is the single monomial z^n * n! / w_n
        length = max(a.order, b.order) + 1
        ca = kernel_coefficients(space, a, length + 1)
        cb = kernel_coefficients(space, b, length + 1)
        w = space.weights(length + 1)
        return Certified(complex(np.sum(w * ca * np.conj(cb))), 1e-15)
    scale = np.conj(ba) ** (-a.order) * bb ** (-b.order)
    inner_eps = eps / max(abs(scale), 1e-300)
    s = falling_product_sum(space, a.order, b.order, np.conj(ba) * bb, inner_eps)
    return Certified(scale * s.value, abs(scale) * s.err)


def kernel_eval(
    space: WeightSequence, spec: KernelSpec, z: complex, eps: float = 1e-12
) -> Certified:
    """Certified pointwise value of a derivative-evaluation kernel."""
    beta = complex(spec.beta)
    z = complex(z)
    if spec.flavor != "kernel_for_derivatives":
        raise ValueError("kernel_eval expects a derivative-evaluation kernel")
    if beta == 0:
        length = spec.order + 1
        c = kernel_coefficients(space, spec, length)
        return Certified(complex(c[-1]) * z**spec.order, 0.0)
    scale = np.conj(beta) ** (-spec.order)
    inner_eps = eps / max(abs(scale), 1e-300)
    s = falling_product_sum(space, spec.order, 0, np.conj(beta) * z, inner_eps)
    return Certified(scale * s.value, abs(scale) * s.err)
