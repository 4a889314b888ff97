"""Optimal-approximant engine: Gram systems, sweeps, and certificates.

For f, g in a space with <g, f> != 0, the degree-n optimal approximant p_n*
is the polynomial of degree <= n minimizing ||p f - g||; its coefficients
solve the Hermitian system G a = rhs with G[k, j] = <z^j f, z^k f> and
rhs[k] = <g, z^k f>, which build_system, the one Gram builder, gives for
every data kind.  Data with no tail (tail_M == 0: a CPoly, or a TruncSeries
storing a polynomial whole) is exact, with the same bits whatever its type;
tail_M == 0 is all this module reads to tell it.  The nested spans of
{z^k f : k <= n} let a sweep factor G once and read every degree, with its
squared distance ||p_n* f - g||^2 (non-increasing in n), from that factor.

For f exact of degree d (d + deg m in the quotient space of m), G and its
factor L are banded: G[k, j] = 0 for |k - j| > d.  build_system returns G as
linalg's band array along b = d diagonals (b = n for f with a tail), from
spaces.gram_band, and it is factored along them, O(n b^2) work in O(n b)
memory; each substitution takes O(n b) a right-hand side: a sweep solves for
every degree in one linalg.backward_substitute_H call, O(n^2 b),
optimal_approximant for its one degree, O(n b).  The distances and the
stabilization window read only y = L^-1 rhs, and (p_n* f)(0) also
v = L^-1 e_0, solved with y in one pass over L.

A sweep's numbers are arrays (sweep_arrays: X, dist, errs), from which
approximant_sweep and optimal_approximant build their OpaResult and CPoly
objects and the CLI prints with no object per degree; a StabilizationReport
keeps its sweep as these arrays and builds only p_M, and cyclicity_diagnostic
keeps its table as arrays.  Printing, not this module,
sets the cost of a CLI sweep (README "Performance notes").

On top of the sweeps this module certifies structural properties, each
reading <h, z^k f> for all its k from one call of spaces.shift_products:

* inner elements (<f, z^j f> = delta_{j0});
* membership in the orthocomplement of the shifted invariant subspace
  (<h, z^k f> = 0 for all k >= 1), exact for exact data;
* stabilization (the approximant sequence becoming eventually constant),
  with an orthogonality certificate for exact f (exact when g is exact too,
  envelope-certified when g has a tail) and a tolerance-window certificate
  otherwise: eps bounds ||p_n* f - p_M* f||;
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
from .linalg import backward_substitute_H, cholesky_band, forward_substitute, poly_roots
from .series import (
    CPoly,
    TruncSeries,
    _covering_M,
    poly_geometric_sup,
    power_tail_bound,
    smallest_certified,
)
from .spaces import WeightSequence, gram_band, norm_sq_any, require_certified, shift_products

# unused here, but bound for perfbench/spans.py, which traces them by these names
from .linalg import cholesky_border, cholesky_factor, solve_factored  # noqa: F401
from .spaces import inner_any  # noqa: F401

_ERR_FLOOR = 1e-12
# certified error asked of each Gram and right-hand-side entry
_ENTRY_EPS = 1e-12


def _effective_degree(space: WeightSequence, x) -> int | None:
    """Degree of x (after multiplier embedding) if it has no tail, else None;
    the zero polynomial counts as degree 0."""
    if x.tail_M:
        return None
    d = x.coeffs.size - 1
    if space.kind == "multiplier":
        d += space.m.degree
    return d


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
    certificate: str  # 'exact_orthogonality' | 'certified_orthogonality' | 'tolerance_window' | 'none'
    p_M: CPoly | None
    arrays: tuple = field(repr=False)  # sweep_arrays' (X, dist, errs)

    @property
    def sweep(self) -> list:
        """The OpaResult of every degree 0..n_max, built from arrays on demand."""
        return _results(*self.arrays)


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
    """The distance table as arrays: dist[n] = dist^2_n and alt[n] =
    1 - Re (p_n* f)(0) for n = 0..n_max."""

    dist: np.ndarray
    alt: np.ndarray
    identity_max_dev: float
    verdict: str
    plateau: float | None
    reference_dist_sq: float | None = None

    @property
    def rows(self) -> list:
        """(n, distance_sq, 1 - Re (p_n f)(0)) for each n, as Python numbers."""
        return list(zip(range(self.dist.size), self.dist.tolist(), self.alt.tolist()))


# ---------------------------------------------------------------------------
# Gram systems and sweeps
# ---------------------------------------------------------------------------


def build_system(space: WeightSequence, f, g, n: int) -> tuple[np.ndarray, np.ndarray, float]:
    """(G, rhs, largest entry error) with G[k, j] = <z^j f, z^k f> and
    rhs[k] = <g, z^k f>, each entry with the error shift_products certifies
    for it: rounding only for exact data.  Errors of entries with data with
    a tail in them must not exceed _ENTRY_EPS.

    G is the (n+1) x (b+1) band array of linalg (row i holds [G[i, i-b], ...,
    G[i, i]]) for every data kind, b being f's effective degree (n for a
    series with a tail), at most n.  This is a change of the public API:
    build_system used to return the dense (n+1) x (n+1) matrix.

    Raises OrthogonalDataError when |<g, f>| does not exceed the combined
    certified error: the minimization then has no meaningful solution.
    """
    if n < 0:
        raise ValueError("degree must be non-negative")
    d = _effective_degree(space, f)
    G, G_err = gram_band(space, f, n, n if d is None else min(d, n))
    (rhs,), (rhs_err,) = shift_products(space, g, f, n)
    rhs_max = float(rhs_err.max())
    # an entry with data with a tail in it (f is in all, g in rhs) is certified
    series_errs = [e for e, x in ((G_err, f), (rhs_max, f), (rhs_max, g)) if x.tail_M]
    if series_errs:
        require_certified(rhs_err[0], _ENTRY_EPS)
    if abs(rhs[0]) <= rhs_err[0] + _ERR_FLOOR:
        raise OrthogonalDataError(
            f"<g, f> = {rhs[0]:.3g} is zero within certified error {rhs_err[0]:.3g}"
        )
    if series_errs:
        require_certified(max(series_errs), _ENTRY_EPS)
    return G, rhs, max(G_err, rhs_max)


def _factored_system(space: WeightSequence, f, g, n_max: int, e0: bool = False):
    """(L, y, dist, norm_err, entry_err): the band factor L of the degree-n_max
    system, y = L^-1 rhs, dist[n] = ||g||^2 - sum_{i<=n} |y_i|^2, and the
    errors of ||g||^2 and of the largest Gram or right-hand-side entry (an
    OverflowError when ||g||^2 or a distance overflows).  With e0, y is the
    pair (L^-1 rhs, L^-1 e_0), solved in one pass over L."""
    G, rhs, entry_err = build_system(space, f, g, n_max)
    L = cholesky_band(G)
    if e0:
        rhs = np.stack([rhs, np.zeros_like(rhs)])
        rhs[1, 0] = 1.0
    y = forward_substitute(L, rhs)
    x = y[0] if e0 else y
    with np.errstate(over="ignore", invalid="ignore"):
        gg = norm_sq_any(space, g, _ENTRY_EPS)
        dist = float(gg.value) - np.cumsum(x.real**2 + x.imag**2)
    if not (np.isfinite(dist).all() and math.isfinite(gg.err)):
        raise OverflowError("||g||^2 or a squared distance overflows the double range")
    return L, y, dist, gg.err, entry_err


def _approximants(
    space: WeightSequence, f, g, n_max: int, ns: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(X, dist, errs, y): the optimal approximants of the ascending degrees
    ns <= n_max from one factor L of the degree-n_max system, and y = L^-1
    rhs.  Degree n solves the leading block of G, whose factor leads L:
    dist[n] = ||g||^2 - sum_{i<=n} |y_i|^2 for every n <= n_max, and column c
    of X, p_n*'s coefficients for n = ns[c] (exact zeros below row n), solves
    L^H a = (y_0, ..., y_n, 0, ...); errs[c] bounds its distance's error."""
    g = CPoly([1]) if g is None else g
    L, y, dist, norm_err, entry_err = _factored_system(space, f, g, n_max)
    # column c: the right-hand side of degree ns[c], then its solution
    X = np.where(np.arange(y.size)[:, None] <= ns, y[:, None], 0)
    backward_substitute_H(L, X)
    errs = np.maximum(norm_err + np.abs(X).sum(axis=0) * _ERR_FLOOR, entry_err * (ns + 2))
    return X, dist, errs, y


def _results(X: np.ndarray, dist: np.ndarray, errs: np.ndarray) -> list[OpaResult]:
    """The OpaResult of every degree of a sweep's arrays (column n of X for
    degree n)."""
    rows = zip(range(X.shape[1]), dist.tolist(), errs.tolist())
    return [OpaResult(n, CPoly(X[: n + 1, n]), d, e) for n, d, e in rows]


def sweep_arrays(
    space: WeightSequence, f, g=None, n_max: int = 10
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """approximant_sweep's numbers as arrays (X, dist, errs): column n of the
    (n_max+1) x (n_max+1) array X holds p_n*'s coefficients over rows 0..n
    and exact zeros below (its trailing zeros are the ones CPoly drops);
    dist[n] and errs[n] are the squared distance and its error bar.  The CLI
    prints from these, with no object per degree."""
    return _approximants(space, f, g, n_max, np.arange(n_max + 1))[:3]


def approximant_sweep(space: WeightSequence, f, g=None, n_max: int = 10) -> list[OpaResult]:
    """All optimal approximants for n = 0..n_max from one Cholesky factor,
    O(n_max^2 d) for the coefficients when f has degree d."""
    return _results(*sweep_arrays(space, f, g, n_max))


def optimal_approximant(space: WeightSequence, f, g=None, n: int = 0) -> OpaResult:
    """The degree-n optimal approximant and its squared distance, from the
    degree-n factor as in approximant_sweep and one back substitution for
    degree n alone: O(n d) for the coefficients when f has degree d."""
    X, dist, errs, _ = _approximants(space, f, g, n, np.array([n]))
    return OpaResult(n, CPoly(X[:, 0]), float(dist[n]), float(errs[0]))


def orthogonality_residual(space: WeightSequence, f, g, result: OpaResult) -> float:
    """max_k |<p f - g, z^k f>| over 0 <= k <= n (the optimality conditions)."""
    pf = f.mul_poly(result.p_star)
    c, _ = _certified_shifts(space, pf, f, result.n, 1e-9)
    d, _ = _certified_shifts(space, g, f, result.n, 1e-9)
    return float(np.max(np.abs(c - d)))


def _certified_shifts(space: WeightSequence, h, f, K: int, eps: float, first: int = 0):
    """<h, z^k f> for k = first..K and their largest error, which must not
    exceed eps unless h and f are exact (tail-free, so exact sums)."""
    values, errs = shift_products(space, h, f, K)
    values, err = values[0, first:], float(np.max(errs[0, first:]))
    if h.tail_M or f.tail_M:
        require_certified(err, eps)
    return values, err


# ---------------------------------------------------------------------------
# inner certificates and shift orthogonality
# ---------------------------------------------------------------------------


def is_inner(
    space: WeightSequence, f, max_shift: int | None = None, eps: float = 1e-10
) -> InnerCertificate:
    """Certify <f, z^j f> = delta_{j0} within eps from one shift_products row,
    the norm at j = 0 (see orthogonal_to_shifts for the range of j checked).

    For exact f the shifts beyond the (embedded) degree vanish
    identically, so checking j <= deg f yields an exact certificate for all j.
    """
    K, exact = _shift_range(space, f, f, eps, max_shift)
    values, err = _certified_shifts(space, f, f, K, eps)
    norm_sq = float(values[0].real)
    worst = float(np.max(np.abs(values[1:]), initial=0.0))
    ok = abs(norm_sq - 1.0) <= eps and worst <= eps
    return InnerCertificate(ok, exact, norm_sq, K, worst, err)


def _series_shift_horizon(space: WeightSequence, h, f, eps: float) -> int:
    """Smallest J with a certified bound |<h, z^j f>| <= eps for all j > J.

    Writing t = s + j, |<h, z^j f>| <= sum_s w_{s+j} A_h(s+j) A_f(s) with
    A_x(t) = Mhat_x * rr**t a global geometric majorant of |x_t| at one ratio
    rr for both; the bound factors into  C * (rr * rho)**j * (j+1)**g  with
    C proportional to Mhat_h * Mhat_f, which decays geometrically.
    """
    same = f is h  # covered once, as Mhat_h**2
    if space.kind == "multiplier":
        h = h.mul_poly(space.m)
        f = h if same else f.mul_poly(space.m)
        space = WeightSequence.dirichlet(0.0)
    if any(x.tail_M > 0 and x.tail_r >= 1.0 for x in (h, f)):
        raise CannotCertifyError(
            "boundary-envelope series admit no geometric shift horizon"
        )
    r = max(x.tail_r if x.tail_M > 0 else 0.0 for x in (h, f))
    rr = 0.5 * (1.0 + r) if r > 0 else 0.5

    def cover(x):  # Mhat_x, with x's envelope ratio rx below rr
        rx = x.tail_r if x.tail_M > 0 else 0.0
        # flatten the envelope's polynomial factor into the constant: the
        # supremum of (t+1)^gamma (rx/rr)^t
        env = x.tail_M * poly_geometric_sup(max(x.tail_gamma, 0.0), rx / rr) if rx > 0 else x.tail_M
        return _covering_M(env, rr, 0.0, np.arange(len(x), dtype=float), np.abs(x.coeffs))

    MM = cover(h) ** 2 if same else cover(h) * cover(f)
    W, g, rho = space.tail_weight_majorant(0)
    if rr * rho >= 1.0 or rr * rr * rho >= 1.0:
        raise CannotCertifyError("envelope too weak to bound shifted inner products")
    S = power_tail_bound(W * MM, rr * rr * rho, g, -1)

    def bound(j):
        return S * (j + 1.0) ** g * (rr * rho) ** j

    # the bound rises up to its largest value, poly_geometric_sup's, and falls after it
    if S * poly_geometric_sup(g, rr * rho) <= eps:
        return 4
    peak = max(1, math.ceil(g / -math.log(rr * rho)) - 1)
    return max(smallest_certified(bound, eps, peak, 10**6), 4)


def _shift_range(space: WeightSequence, h, f, eps: float, k_max: int | None) -> tuple[int, bool]:
    """(K, exact): the shifts 1..K of f checked against h, k_max when given,
    else h's (embedded) degree, beyond which the products vanish (exact), or
    the shift horizon of a stored series h against f."""
    dh = _effective_degree(space, h)
    if k_max is None:
        k_max = max(dh, 1) if dh is not None else _series_shift_horizon(space, h, f, eps)
    return k_max, dh is not None and k_max >= max(dh, 1)


def orthogonal_to_shifts(
    space: WeightSequence, f, h, eps: float = 1e-10, k_max: int | None = None
) -> ShiftOrthogonality:
    """Test h against the shifted multiples of f: <h, z^k f> = 0 for k >= 1.

    Exact over a finite range for exact data (higher shifts vanish
    degree-wise); certified via envelopes for data with a tail, raising when
    the envelopes cannot force the remaining shifts below eps.  An explicit
    ``k_max`` performs the finite check over 1..k_max only (a horizon-limited
    certificate for data whose envelopes are too weak, e.g. power-decay
    boundary kernels whose shift inner products cancel structurally).
    """
    kmax, exact = _shift_range(space, h, f, eps, k_max)
    worst = err = 0.0
    if kmax > 0:
        values, err = _certified_shifts(space, h, f, kmax, eps, first=1)
        worst = float(np.max(np.abs(values)))
    return ShiftOrthogonality(worst <= eps, worst, kmax, exact, err)


# ---------------------------------------------------------------------------
# stabilization
# ---------------------------------------------------------------------------


def detect_stabilization(
    space: WeightSequence,
    f,
    g=None,
    n_max: int = 12,
    eps: float = 1e-8,
) -> StabilizationReport:
    """Find the smallest M with p_M* = p_{M+1}* = ... = p_{n_max}*.

    ||p_n* f - p_M* f||^2 = sum_{M<k<=n} |y_k|^2 with y = L^-1 rhs, so the
    candidate is the smallest M < n_max with sqrt(sum_{M<k<=n_max} |y_k|^2)
    <= eps, which bounds ||p_n* f - p_M* f|| for every n >= M; it does not
    move when f is scaled by a power of two.  p_M* is column M of X.  For
    exact f the candidate must pass the optimality conditions
    <p_M* f - g, z^k f> = 0 (any g, quotient spaces too), else the report is
    not stabilized.  The certificate names that check: 'exact_orthogonality'
    when it is exact (g has no tail either), 'certified_orthogonality' when
    envelopes bound the shifts beyond a horizon (g has a tail).  f with a
    tail keeps the 'tolerance_window' certificate.  The report carries the
    sweep as sweep_arrays' arrays; report.sweep builds its OpaResults.
    """
    if g is None:
        g = CPoly([1])
    X, dist, errs, y = _approximants(space, f, g, n_max, np.arange(n_max + 1))
    arrays = (X, dist, errs)
    # sqrt(sum_{M<k<=n_max} |y_k|^2) for M = 0..n_max-1
    tail = np.sqrt(np.cumsum((y.real**2 + y.imag**2)[:0:-1])[::-1])
    window = np.flatnonzero(tail <= eps)
    if window.size == 0:
        return StabilizationReport(False, None, "none", None, arrays)
    M = int(window[0])
    p_M = CPoly(X[: M + 1, M])
    if f.tail_M == 0:
        pf = f.mul_poly(p_M)
        # exactness threshold is relative to the data scale: the finite sums are
        # exact up to rounding of terms ~ ||p f|| ||f||, plus ||g|| ||f|| unless g = 1
        npf, nf, ng = (norm_sq_any(space, x, 1e-9).value.real for x in (pf, f, g))
        one = g.tail_M == 0 and g.coeffs.size == 1 and g.coeffs[0] == 1
        scale = math.sqrt(max(npf * nf, 0.0)) + (0.0 if one else math.sqrt(max(ng * nf, 0.0)))
        h = TruncSeries.add(pf, -g)  # pf may be a CPoly: add reads the fields both types have
        check = orthogonal_to_shifts(space, f, h, eps=1e-10 * scale)
        if check.orthogonal:
            certificate = "exact_orthogonality" if check.exact else "certified_orthogonality"
            return StabilizationReport(True, M, certificate, p_M, arrays)
        return StabilizationReport(False, None, "none", None, arrays)
    return StabilizationReport(True, M, "tolerance_window", p_M, arrays)


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
    pf = f.mul_poly(p_M)
    pf0 = complex(pf.coeffs[0])
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
        u = pf.scale(1.0 / c)
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
) -> CyclicityDiagnostic:
    """Distance table for g = 1 with the identity dist^2 = 1 - (p_n* f)(0).

    p_n*(0) is row 0 of X in approximant_sweep, sum_{i<=n} conj(v_i) y_i with
    v = L^-1 e_0: one more forward solve along the band, and no coefficients.
    The verdict is 'cyclic_consistent' when the distances head to zero,
    'non_cyclic' when they plateau at a positive level (matched against
    ``reference_dist_sq`` when provided, e.g. a computed projection
    distance), and 'decreasing' when the sweep has not settled.
    """
    if f.coeffs[0] == 0:
        raise ValueError("diagnostic requires f(0) != 0")
    if not space.monomials_orthogonal:
        raise ValueError("diagnostic identities require orthogonal monomials")
    _, (y, v), dist, _, _ = _factored_system(space, f, CPoly([1]), n_max, e0=True)
    pf0 = complex(f.coeffs[0]) * np.cumsum(np.conj(v) * y)
    alt = 1.0 - pf0.real
    dev = float(max(np.max(np.abs(dist - alt)), np.max(np.abs(pf0.imag))))
    last = float(dist[-1])
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
        first = float(dist[-max(3, n_max // 4) :][0])
        rel = (first - last) / max(last, 1e-300)
        if rel <= 1e-3:
            verdict = "non_cyclic"
            plateau = last
        else:
            verdict = "decreasing"
    return CyclicityDiagnostic(dist, alt, dev, verdict, plateau, reference_dist_sq)


def taylor_residuals(space: WeightSequence, f: CPoly, n_max: int) -> list[float]:
    """||T_n(1/f) f - 1|| for n = 0..n_max, with T_n the Taylor truncation.

    These are the residuals of the naive guess p = T_n(1/f); comparing them
    against the optimal sweep shows how non-optimal truncation can be.  With
    g the Taylor coefficients of 1/f and d = deg f, T_n(1/f) f - 1 vanishes
    below degree n + 1 and above n + d, so each residual is its window
    r_s = sum_{s < i <= d} f_i g_{n+1+s-i}, s < d, at degrees n + 1 + s:
    O(n d^2) work for the whole sweep instead of a product and a norm of
    length n + d per n.
    """
    from .series import reciprocal_taylor

    if not isinstance(f, CPoly):
        raise TypeError("Taylor residuals require polynomial f")
    if f.coefficient(0) == 0:
        raise ValueError("Taylor residuals require f(0) != 0")
    d = f.degree
    # g with d zeros in front, so index n + 1 + s - i + d reads g_{n+1+s-i} or 0
    g = np.concatenate([np.zeros(d), reciprocal_taylor(f, n_max).padded(n_max + 1)])
    ns = np.arange(n_max + 1)
    window = np.zeros((n_max + 1, d), dtype=complex)
    for s in range(d):
        for i in range(s + 1, d + 1):
            window[:, s] += f.coeffs[i] * g[ns + 1 + s - i + d]
    top = np.frexp(np.abs(window).max(axis=1, initial=0.0))[1]  # rows scaled so no square overflows
    window = window * np.ldexp(1.0, -top)[:, None]
    if space.kind == "multiplier":
        # ||z^(n+1) r||^2 = ||m r||^2 in H2
        m = space.m.coeffs
        res = np.zeros((n_max + 1, d + m.size - 1), dtype=complex)
        for q, mq in enumerate(m):
            res[:, q : q + d] += mq * window
        norm_sq = np.sum(np.abs(res) ** 2, axis=1)
    else:
        w = space.weights(n_max + d + 1)
        norm_sq = np.sum(w[ns[:, None] + 1 + np.arange(d)] * np.abs(window) ** 2, axis=1)
    return np.ldexp(np.sqrt(norm_sq), top).tolist()
