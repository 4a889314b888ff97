"""Optimal-approximant engine: Gram systems, sweeps, and certificates.

For f, g in a space with <g, f> != 0, the degree-n optimal approximant p_n*
is the polynomial of degree <= n minimizing ||p f - g||; its coefficients
solve the Hermitian system G a = rhs with G[k, j] = <z^j f, z^k f> and
rhs[k] = <g, z^k f>.  The spans of {z^k f : k <= n} are nested, so a sweep
factors G once and reads every degree, with its squared distance
||p_n* f - g||^2 (non-increasing in n), from that one Cholesky factor.

On top of the sweeps this module certifies structural properties, each
reading <h, z^k f> for all its k from one call of spaces.shift_products:

* inner elements (<f, z^j f> = delta_{j0});
* membership in the orthocomplement of the shifted invariant subspace
  (<h, z^k f> = 0 for all k >= 1), exact for polynomial data;
* stabilization (the approximant sequence becoming eventually constant),
  with an exact orthogonality certificate for polynomial f and a
  tolerance-window certificate otherwise;
* the equivalence dossier tying a stabilized approximant to an inner
  factorization of f, and a cyclicity diagnostic based on the identity
  dist^2 = 1 - (p_n* f)(0) when g = 1 and the constant 1 reproduces
  evaluation at the origin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CannotCertifyError, OrthogonalDataError
from .linalg import cholesky_factor, forward_substitute, poly_roots
from .series import CPoly, TruncSeries, poly_geometric_sup, power_tail_bound
from .spaces import WeightSequence, norm_sq_any, require_certified, shift_products

# unused here, but bound for perfbench/spans.py, which traces them by these names
from .linalg import cholesky_border, solve_factored  # noqa: F401
from .spaces import inner_any  # noqa: F401

_ERR_FLOOR = 1e-12


def _mul_poly(x, p: CPoly):
    """p * x for x a polynomial or stored series."""
    if isinstance(x, CPoly):
        return p * x
    return x.mul_poly(p)


def _at_zero(x) -> complex:
    if isinstance(x, CPoly):
        return x.coefficient(0)
    return complex(x.coeffs[0])


def _effective_degree(space: WeightSequence, x) -> int | None:
    """Degree of x (after multiplier embedding) if finite, else None."""
    if isinstance(x, CPoly):
        d = x.degree
    elif isinstance(x, TruncSeries) and x.tail_M == 0.0:
        d = CPoly(x.coeffs).degree
    else:
        return None
    if space.kind == "multiplier":
        d += space.m.degree
    return d


@dataclass
class GramSystem:
    """The degree-n optimal system for (f, g): G a = rhs."""

    space: WeightSequence
    f: object
    g: object
    n: int
    matrix: np.ndarray
    rhs: np.ndarray
    entry_err: float


@dataclass
class OpaResult:
    """Optimal approximant of degree <= n with its squared distance."""

    n: int
    p_star: CPoly
    distance_sq: float
    err: float = 0.0


@dataclass
class InnerCertificate:
    is_inner: bool
    exact: bool
    norm_sq: float
    max_shift_checked: int
    max_residual: float
    err: float

    def __bool__(self):
        return self.is_inner


@dataclass
class ShiftOrthogonality:
    """Result of testing <h, z^k f> = 0 for all k >= 1."""

    orthogonal: bool
    max_abs: float
    shifts_checked: int
    exact: bool
    err: float

    def __bool__(self):
        return self.orthogonal


@dataclass
class StabilizationReport:
    stabilized: bool
    M: int | None
    certificate: str  # 'exact_orthogonality' | 'tolerance_window' | 'none'
    p_M: CPoly | None
    sweep: list = field(default_factory=list, repr=False)


@dataclass
class DossierCheck:
    name: str
    passed: bool
    value: float
    detail: str = ""


@dataclass
class StabilizationDossier:
    """Pass/fail record for each identity a stabilized approximant implies."""

    checks: list
    M: int
    c: float
    roots: list

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


@dataclass
class CyclicityDiagnostic:
    rows: list  # (n, distance_sq, 1 - Re (p_n f)(0))
    identity_max_dev: float
    verdict: str
    plateau: float | None
    reference_dist_sq: float | None = None


# ---------------------------------------------------------------------------
# Gram systems and sweeps
# ---------------------------------------------------------------------------


def build_system(
    space: WeightSequence, f, g, n: int, entry_eps: float = 1e-12
) -> GramSystem:
    """Assemble G and rhs, exactly for polynomial data, certified otherwise.

    One product over the shift matrix F[k, t] = (z^k f)_t gives both,
    G = conj(F) W F^T and rhs = conj(F) W g for the weights W; quotient
    spaces multiply f and g by m and use W = 1.

    Raises OrthogonalDataError when |<g, f>| does not exceed the combined
    certified error: the minimization then has no meaningful solution.
    """
    if n < 0:
        raise ValueError("degree must be non-negative")
    fm, gm = f, g
    if space.kind == "multiplier":
        fm, gm = _mul_poly(f, space.m), _mul_poly(g, space.m)
    size, fc, gc = n + 1, fm.coeffs, gm.coeffs
    # rows 0..n of A hold F, row n + 1 holds g
    A = np.zeros((size + 1, max(n + fc.size, gc.size)), dtype=complex)
    for k in range(size):
        A[k, k : k + fc.size] = fc
    A[size, : gc.size] = gc
    Fw = A[:size].conj()
    if space.kind != "multiplier":
        Fw *= space.weights(A.shape[1])
    M = Fw @ A.T
    G, rhs = M[:, :size], M[:, size]
    # exact polynomial sums carry rounding only; by Cauchy-Schwarz the largest
    # entry of G is on its diagonal
    G_err = 1e-16 * (1.0 + float(np.max(G.diagonal().real)))
    rhs_err = 1e-16 * (1.0 + np.abs(rhs))
    series_err = None
    if not (isinstance(f, CPoly) and isinstance(g, CPoly)):
        # entries with a stored series in them carry the error shift_products
        # certifies: rhs[k] = <g, z^k f>, and G's column j is <z^j f, z^k f>
        rhs_err = shift_products(space, g, f, n)[1]
        series_err = float(np.max(rhs_err))
        if not isinstance(f, CPoly):
            G_err = max(float(np.max(shift_products(space, f.shift(j), f, j)[1])) for j in range(size))
            series_err = max(series_err, G_err)
        require_certified(rhs_err[0], entry_eps)
    if abs(rhs[0]) <= rhs_err[0] + _ERR_FLOOR:
        raise OrthogonalDataError(
            f"<g, f> = {rhs[0]:.3g} is zero within certified error {rhs_err[0]:.3g}"
        )
    if series_err is not None:
        require_certified(series_err, entry_eps)
    return GramSystem(space, f, g, n, G, rhs, max(G_err, float(np.max(rhs_err))))


def approximant_sweep(
    space: WeightSequence, f, g=None, n_max: int = 10, entry_eps: float = 1e-12
) -> list[OpaResult]:
    """All optimal approximants for n = 0..n_max from one Cholesky factor L.

    Degree n solves the leading block of G, whose factor leads L.  With
    y = L^-1 rhs, dist^2_n = ||g||^2 - sum_{i<=n} |y_i|^2, and column n of X
    with L^H X = triu(y 1^T) is p_n*: its right-hand side is zero below row n.
    """
    if g is None:
        g = CPoly([1])
    system = build_system(space, f, g, n_max, entry_eps)
    gg = norm_sq_any(space, g, entry_eps)
    L = cholesky_factor(system.matrix)
    y = forward_substitute(L, system.rhs)
    dist = float(gg.value) - np.cumsum(y.real**2 + y.imag**2)
    # L^H X = triu(y 1^T), its right-hand side filled in as each row is reached:
    # a fourth n_max-sized matrix raised long sweeps' peak memory by up to 18 %
    X = np.zeros_like(L)
    for i in range(n_max, -1, -1):
        X[i, i:] = y[i]
        X[i] = (X[i] - np.conj(L[i + 1 :, i]) @ X[i + 1 :]) / np.conj(L[i, i])
    results = []
    for n in range(n_max + 1):
        a = X[: n + 1, n]
        err = max(gg.err + float(np.sum(np.abs(a))) * _ERR_FLOOR, system.entry_err * (n + 2))
        results.append(OpaResult(n, CPoly(a), float(dist[n]), err))
    return results


def optimal_approximant(
    space: WeightSequence, f, g=None, n: int = 0, entry_eps: float = 1e-12
) -> OpaResult:
    """The degree-n optimal approximant and its squared distance."""
    return approximant_sweep(space, f, g, n, entry_eps)[-1]


def orthogonality_residual(space: WeightSequence, f, g, result: OpaResult) -> float:
    """max_k |<p f - g, z^k f>| over 0 <= k <= n (the optimality conditions)."""
    pf = _mul_poly(f, result.p_star)
    c, _ = _certified_shifts(space, pf, f, result.n, 1e-9)
    d, _ = _certified_shifts(space, g, f, result.n, 1e-9)
    return float(np.max(np.abs(c - d)))


def _certified_shifts(space: WeightSequence, h, f, K: int, eps: float, first: int = 0):
    """<h, z^k f> for k = first..K and their largest error, which must not
    exceed eps unless h and f are polynomials (exact sums)."""
    values, errs = shift_products(space, h, f, K)
    values, err = values[first:], float(np.max(errs[first:]))
    if not (isinstance(h, CPoly) and isinstance(f, CPoly)):
        require_certified(err, eps)
    return values, err


# ---------------------------------------------------------------------------
# inner certificates and shift orthogonality
# ---------------------------------------------------------------------------


def is_inner(
    space: WeightSequence, f, max_shift: int | None = None, eps: float = 1e-10
) -> InnerCertificate:
    """Certify <f, z^j f> = delta_{j0} within eps: the norm, then f against
    its own shifts (see orthogonal_to_shifts for the range of j checked).

    For polynomial f the shifts beyond the (embedded) degree vanish
    identically, so checking j <= deg f yields an exact certificate for all j.
    """
    norm = norm_sq_any(space, f, eps)
    s = orthogonal_to_shifts(space, f, f, eps, max_shift)
    ok = abs(norm.value.real - 1.0) <= eps and s.orthogonal
    return InnerCertificate(
        ok, s.exact, float(norm.value.real), s.shifts_checked, s.max_abs, max(norm.err, s.err)
    )


def _series_shift_horizon(space: WeightSequence, f: TruncSeries, eps: float) -> int:
    """Smallest J with a certified bound |<f, z^j f>| <= eps for all j > J.

    Writing k = t + j, |<f, z^j f>| <= sum_t w_{t+j} A(t+j) A(t) with
    A(t) = Mhat * rr**t a global geometric majorant of |f_t|; the bound
    factors into  C * (rr * rho)**j * (j+1)**g  which decays geometrically.
    """
    if space.kind == "multiplier":
        f = f.mul_poly(space.m)
        space = WeightSequence.dirichlet(0.0)
    if f.tail_M > 0 and f.tail_r >= 1.0:
        raise CannotCertifyError(
            "boundary-envelope series admit no geometric shift horizon"
        )
    r = f.tail_r if f.tail_M > 0 else 0.0
    rr = 0.5 * (1.0 + r) if r > 0 else 0.5
    # flatten the envelope's polynomial factor into the constant: the
    # supremum of (t+1)^gamma (r/rr)^t
    gplus = max(f.tail_gamma, 0.0)
    env_flat = f.tail_M * poly_geometric_sup(gplus, r / rr) if r > 0 else f.tail_M
    stored = np.arange(len(f))
    Mhat = max(env_flat, float(np.max(np.abs(f.coeffs) / rr**stored)))
    W, g, rho = space.tail_weight_majorant(0)
    if rr * rho >= 1.0 or rr * rr * rho >= 1.0:
        raise CannotCertifyError("envelope too weak to bound shifted inner products")
    S = power_tail_bound(W * Mhat**2, rr * rr * rho, g, -1)
    j = 1
    while S * (j + 1.0) ** g * (rr * rho) ** j > eps:
        j += 1
        if j > 10**6:
            raise CannotCertifyError("shift horizon did not close")
    return max(j, 4)


def orthogonal_to_shifts(
    space: WeightSequence, f, h, eps: float = 1e-10, k_max: int | None = None
) -> ShiftOrthogonality:
    """Test h against the shifted multiples of f: <h, z^k f> = 0 for k >= 1.

    Exact over a finite range for polynomial data (higher shifts vanish
    degree-wise); certified via envelopes for stored series, raising when
    the envelopes cannot force the remaining shifts below eps.  An explicit
    ``k_max`` performs the finite check over 1..k_max only (a horizon-limited
    certificate for data whose envelopes are too weak, e.g. power-decay
    boundary kernels whose shift inner products cancel structurally).
    """
    dh = _effective_degree(space, h)
    if k_max is not None:
        kmax = k_max
    else:
        kmax = max(dh, 1) if dh is not None else _series_shift_horizon(space, h, eps)
    exact = dh is not None and kmax >= max(dh, 1)
    worst = err = 0.0
    if kmax > 0:
        values, err = _certified_shifts(space, h, f, kmax, eps, first=1)
        worst = float(np.max(np.abs(values)))
    return ShiftOrthogonality(worst <= eps, worst, kmax, exact, err)


# ---------------------------------------------------------------------------
# stabilization
# ---------------------------------------------------------------------------


def _coeff_window_M(results: list[OpaResult], eps: float) -> int | None:
    """Smallest M with all later approximants within eps (sup-norm), if any."""
    n_max = len(results) - 1
    length = n_max + 1
    mat = np.zeros((length, length), dtype=complex)
    for i, r in enumerate(results):
        mat[i, : r.p_star.coeffs.size] = r.p_star.coeffs
    for M in range(n_max):
        devs = np.abs(mat[M:] - mat[M])
        if float(devs.max()) <= eps:
            return M
    return None


def detect_stabilization(
    space: WeightSequence,
    f,
    g=None,
    n_max: int = 12,
    eps: float = 1e-8,
    entry_eps: float = 1e-12,
) -> StabilizationReport:
    """Find the smallest M with p_M* = p_{M+1}* = ... = p_{n_max}*.

    A coefficient window within eps is only a candidate: for polynomial f the
    report is upgraded to an exact orthogonality certificate by verifying
    <p_M* f, z^k f> = 0 over the finite range where such inner products can
    be nonzero (floating plateaus that fail this are reported as not
    stabilized).  For stored series the exact check is unavailable and the
    certificate remains 'tolerance_window'.
    """
    if g is None:
        g = CPoly([1])
    results = approximant_sweep(space, f, g, n_max, entry_eps)
    M = _coeff_window_M(results, eps)
    if M is None or M >= n_max:
        return StabilizationReport(False, None, "none", None, results)
    p_M = results[M].p_star
    d = _effective_degree(space, f)
    if d is not None:
        pf = _mul_poly(f, p_M)
        # exactness threshold is relative to the data scale: the finite sums
        # are exact up to rounding of terms of size ~ ||p f|| ||f||
        npf = norm_sq_any(space, pf, 1e-9).value.real
        nf = norm_sq_any(space, f, 1e-9).value.real
        scale = math.sqrt(max(npf * nf, 0.0))
        check = orthogonal_to_shifts(
            space, f, pf, eps=max(1e-10 * max(1.0, scale), 10 * entry_eps)
        )
        if check.orthogonal:
            return StabilizationReport(True, M, "exact_orthogonality", p_M, results)
        return StabilizationReport(False, None, "none", None, results)
    return StabilizationReport(True, M, "tolerance_window", p_M, results)


def stabilization_dossier(
    space: WeightSequence,
    f,
    report: StabilizationReport,
    eps: float = 1e-8,
) -> StabilizationDossier:
    """Check every identity a stabilized approximant implies (for g = 1).

    (a) p_M* f, normalized, is inner; (b) p_M* f is orthogonal to all shifted
    multiples of f; (c) ||p_M* f|| equals sqrt((p_M* f)(0)); (d) the roots of
    p_M* lie outside the open disk (reported: guaranteed only for cyclic f).
    """
    if not report.stabilized:
        raise ValueError("dossier requires a stabilized report")
    if not space.monomials_orthogonal:
        raise ValueError(
            "dossier identities assume the constant 1 reproduces evaluation at 0"
        )
    p_M = report.p_M
    pf = _mul_poly(f, p_M)
    pf0 = _at_zero(pf)
    norm = norm_sq_any(space, pf, 1e-10)
    c = math.sqrt(max(pf0.real, 0.0))
    checks = []
    # (c) norm consistency: ||p_M f||^2 = (p_M f)(0), real and positive
    dev_c = abs(norm.value.real - pf0.real) + abs(pf0.imag)
    checks.append(
        DossierCheck(
            "norm_matches_value_at_zero",
            dev_c <= eps and pf0.real > 0,
            dev_c,
            f"||p f||^2 = {norm.value.real:.12g}, (p f)(0) = {pf0:.12g}",
        )
    )
    # (a) inner after normalization
    if c > 0:
        u = pf * (1.0 / c) if isinstance(pf, CPoly) else pf.scale(1.0 / c)
        inner_cert = is_inner(space, u, eps=eps)
        checks.append(
            DossierCheck(
                "normalized_product_is_inner",
                inner_cert.is_inner,
                inner_cert.max_residual,
                f"norm_sq = {inner_cert.norm_sq:.12g}",
            )
        )
    else:
        checks.append(DossierCheck("normalized_product_is_inner", False, math.inf))
    # (b) orthogonal to shifted multiples
    ortho = orthogonal_to_shifts(space, f, pf, eps=eps)
    checks.append(
        DossierCheck(
            "orthogonal_to_shifted_multiples",
            ortho.orthogonal,
            ortho.max_abs,
            f"{ortho.shifts_checked} shifts, exact={ortho.exact}",
        )
    )
    # (d) root locations, reported
    roots = []
    if p_M.degree >= 1:
        roots = poly_roots(p_M)
        min_mod = min(abs(r) for r, _ in roots)
        checks.append(
            DossierCheck(
                "approximant_roots_outside_open_disk",
                min_mod >= 1.0 - 1e-9,
                min_mod,
                f"roots: {roots}",
            )
        )
    else:
        checks.append(
            DossierCheck("approximant_roots_outside_open_disk", True, math.inf, "constant")
        )
    return StabilizationDossier(checks, report.M, c, roots)


# ---------------------------------------------------------------------------
# cyclicity diagnostics and Taylor comparison
# ---------------------------------------------------------------------------


def cyclicity_diagnostic(
    space: WeightSequence,
    f,
    n_max: int = 20,
    reference_dist_sq: float | None = None,
    entry_eps: float = 1e-12,
) -> CyclicityDiagnostic:
    """Distance table for g = 1 with the identity dist^2 = 1 - (p_n* f)(0).

    The verdict is 'cyclic_consistent' when the distances head to zero,
    'non_cyclic' when they plateau at a positive level (matched against
    ``reference_dist_sq`` when provided, e.g. a computed projection
    distance), and 'decreasing' when the sweep has not settled.
    """
    if _at_zero(f) == 0:
        raise ValueError("diagnostic requires f(0) != 0")
    if not space.monomials_orthogonal:
        raise ValueError("diagnostic identities require orthogonal monomials")
    g = CPoly([1])
    results = approximant_sweep(space, f, g, n_max, entry_eps)
    f0 = _at_zero(f)
    rows = []
    dev = 0.0
    for r in results:
        pf0 = r.p_star.coefficient(0) * f0
        alt = 1.0 - pf0.real
        rows.append((r.n, r.distance_sq, alt))
        dev = max(dev, abs(r.distance_sq - alt), abs(pf0.imag))
    last = rows[-1][1]
    plateau = None
    if reference_dist_sq is not None:
        # a computed projection distance is definitive for polynomial f
        if reference_dist_sq <= 1e-12:
            verdict = "cyclic_consistent"
        elif last < reference_dist_sq - 1e-9:
            # the sweep can never undershoot the subspace distance
            verdict = "inconsistent"
        else:
            verdict = "non_cyclic"
            plateau = last
    elif last <= 1e-8:
        verdict = "cyclic_consistent"
    else:
        # relative flattening over the last quarter of the sweep
        tail = [d for _, d, _ in rows[-max(3, n_max // 4) :]]
        rel = (tail[0] - tail[-1]) / max(tail[-1], 1e-300)
        if rel <= 1e-3:
            verdict = "non_cyclic"
            plateau = last
        else:
            verdict = "decreasing"
    return CyclicityDiagnostic(rows, dev, verdict, plateau, reference_dist_sq)


def taylor_residuals(space: WeightSequence, f: CPoly, n_max: int) -> list[float]:
    """||T_n(1/f) f - 1|| for n = 0..n_max, with T_n the Taylor truncation.

    These are the residuals of the naive guess p = T_n(1/f); comparing them
    against the optimal sweep shows how non-optimal truncation can be.
    """
    from .series import reciprocal_taylor
    from .spaces import norm_sq_poly

    if not isinstance(f, CPoly):
        raise TypeError("Taylor residuals require polynomial f")
    if f.coefficient(0) == 0:
        raise ValueError("Taylor residuals require f(0) != 0")
    recip = reciprocal_taylor(f, n_max)
    out = []
    one = CPoly([1])
    for n in range(n_max + 1):
        tn = CPoly(recip.coeffs[: n + 1])
        res = tn * f - one
        out.append(math.sqrt(max(norm_sq_poly(space, res), 0.0)))
    return out
