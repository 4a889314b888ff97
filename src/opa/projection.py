"""Closed-form orthogonal projection of 1 onto the shift-invariant subspace
generated by a polynomial, validated against independent oracles.

For a monic polynomial f with f(0) != 0, classify each zero beta (with
multiplicity m) by the derivative orders j < m at which beta is reproducible.
The projection of the constant 1 onto the closed span of {z^k f} is then

    phi = 1 + sum over classified (beta_i, j) of C_{i,j} k^j_{beta_i},

where k^j_beta is the derivative-evaluation kernel and the constants solve
the Hermitian interpolation system expressing phi^(j)(beta_i) = 0.  When no
zero is classified, phi = 1 and f is cyclic.  The squared distance from 1 to
the subspace is 1 - Re phi(0) = -sum_i Re C_{i,0} by the Pythagorean identity
with ||phi||^2 = phi(0); reports carry phi(0) alongside so both conventions
are visible.

Every phi quantity is a bilinear form in the kernels, and one kernel Gram
G[s, b] = <k_b, k_s> (summed from an index start on) gives them all: the
interpolation system, ||phi||^2 = 1 + 2 Re sum_{order 0} C_b + C^H G C, and
the tail C^H G_L C of a distance ||p - phi||^2 beyond its horizon L.  phi's
coefficients come from one matrix K[b, t] = k_b(t).

Two independent oracles exercise the construction: the Gram-sweep approximants
p_n* f converge to phi in norm, and the Maclaurin coefficients of phi satisfy
a constant-coefficient recurrence driven by the coefficients of f (both are
checked in the test suite and surfaced by the CLI).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CannotCertifyError, IllConditionedError, NotPositiveDefiniteError
from .linalg import (
    cholesky_factor,
    condition_estimate,
    poly_roots,  # noqa: F401  (bound here for perfbench/spans.py to trace)
    root_discs,
    solve_factored,
)
from .series import UNIT_ROUNDOFF, CPoly, TruncSeries, blaschke_product, power_rounding
from .spaces import (
    Certified,
    KernelSpec,
    WeightSequence,
    falling_product_sum,  # noqa: F401  (bound here for perfbench/spans.py to trace)
    is_reproducible,
    kernel_coefficients,
    kernel_inner,  # noqa: F401  (bound here for perfbench/spans.py to trace)
    kernel_inners,
)

_ROOT_MATCH_TOL = 1e-7


@dataclass(frozen=True)
class ClassifiedZero:
    beta: complex
    multiplicity: int
    orders: tuple  # reproducible orders j < multiplicity


@dataclass
class ZeroClassification:
    """Zeros of f grouped by reproducible derivative order."""

    zeros: list  # all roots as (beta, multiplicity)
    classified: list  # ClassifiedZero entries with non-empty orders

    @property
    def R(self) -> int | None:
        orders = [j for z in self.classified for j in z.orders]
        return max(orders) if orders else None

    def order_sets(self) -> dict:
        """Map j -> list of zeros reproducible at order j (with mult > j)."""
        out: dict[int, list] = {}
        for z in self.classified:
            for j in z.orders:
                out.setdefault(j, []).append(z.beta)
        return out

    @property
    def basis_size(self) -> int:
        return sum(len(z.orders) for z in self.classified)


@dataclass
class ProjectionResult:
    """phi = 1 + sum C_b k_b with certified constants and evaluators."""

    space: WeightSequence
    f_monic: CPoly
    classification: ZeroClassification
    basis: list  # KernelSpec, aligned with constants
    constants: np.ndarray  # aligned with basis
    phi0: float
    dist_sq: float
    gram_err: float = 0.0
    phi_series: TruncSeries | None = field(default=None, repr=False)
    # K[b, t] = k_b(t) to the longest length asked for so far (_kernel_matrix)
    _table: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def cyclic(self) -> bool:
        """No zero of f is reproducible (a Blaschke result has no basis)."""
        return not self.classification.classified

    def phi_coefficients(self, length: int) -> np.ndarray:
        """Exact Maclaurin coefficients of phi through index length - 1."""
        if self.phi_series is not None:
            if length > len(self.phi_series):
                raise ValueError("stored phi series shorter than requested length")
            return self.phi_series.coeffs[:length].copy()
        out = self.constants @ self._kernel_matrix(length)
        out[0] += 1.0
        return out

    def _kernel_matrix(self, length: int) -> np.ndarray:
        """K[b, t] = k_b(t) for t < length, so that phi_t = [t = 0] + (C K)_t:
        a copy of the first columns of the kept table, which is built again
        only for a longer length (column t of kernel_coefficients does not
        depend on the length asked for)."""
        self._require_kernels()
        if self._table is None or self._table.shape[1] < length:
            rows = [kernel_coefficients(self.space, s, length) for s in self.basis]
            self._table = np.array(rows, dtype=complex).reshape(len(self.basis), length)
        return self._table[:, :length].copy()

    def _require_kernels(self) -> None:
        if self.phi_series is not None:
            raise ValueError("a series-backed projection carries phi0 and its coefficients only")

    def _kernel_form(self, eps: float, start: int = 0) -> Certified:
        """Certified C^H G C = sum_{t >= start} w_t |sum_b C_b k_b(t)|^2 over
        the kernel Gram G summed from start on (each entry to eps): the
        entries' errors, and the rounding of the products and 2 nb additions."""
        self._require_kernels()
        G, err = _kernel_gram(self.space, self.basis, eps, start)
        c, a = self.constants, np.abs(self.constants)
        rounding = (2 * c.size + 8) * UNIT_ROUNDOFF * (a @ np.abs(G) @ a)
        return Certified(complex(np.conj(c) @ G @ c), float(a @ err @ a + rounding))

    def phi_at(self, z: complex, eps: float = 1e-10) -> Certified:
        """Certified pointwise value of phi."""
        return self.derivative_at(z, 0, eps)

    def derivative_at(self, beta: complex, order: int, eps: float = 1e-10) -> Certified:
        """Certified phi^(order)(beta) = delta_{order,0} + sum_b C_b <k_b, k^order_beta>;
        it vanishes at classified (beta, order)."""
        self._require_kernels()
        beta = complex(beta)
        value = 1.0 + 0j if order == 0 else 0j
        err = 0.0
        target = KernelSpec(beta, order)
        pairs = [(spec, target) for spec in self.basis]
        for c, g in zip(self.constants, kernel_inners(self.space, pairs, eps / max(1, len(self.basis)))):
            value += c * g.value
            # the product and the addition round too
            err += abs(c) * g.err + UNIT_ROUNDOFF * (3.0 * abs(c * g.value) + abs(value))
        return Certified(value, err)

    def norm_sq(self, eps: float = 1e-10) -> Certified:
        """||phi||^2 = 1 + 2 Re sum_{order 0} C_b + C^H G C, which must agree
        with phi(0): <1, k_b> = conj(k_b(0)) and <k_b, 1> = k_b(0) are both
        delta_{order,0}, since the order-0 kernel has constant term 1."""
        n = max(1, len(self.basis))
        form = self._kernel_form(eps / (n * n))
        c0 = sum((c for c, s in zip(self.constants, self.basis) if s.order == 0), start=0j)
        return Certified(1.0 + 2.0 * c0.real + form.value, form.err)

    def to_report(self) -> dict:
        zeros = [
            {
                "beta": [z.beta.real, z.beta.imag],
                "multiplicity": z.multiplicity,
                "orders": list(z.orders),
            }
            for z in self.classification.classified
        ]
        constants = [
            {
                "beta": [complex(s.beta).real, complex(s.beta).imag],
                "order": s.order,
                "value": [c.real, c.imag],
            }
            for s, c in zip(self.basis, self.constants)
        ]
        return {
            "cyclic": self.cyclic,
            "classified_zeros": zeros,
            "constants": constants,
            "phi0": self.phi0,
            "dist_sq": self.dist_sq,
            "gram_err": self.gram_err,
        }


# ---------------------------------------------------------------------------
# factorial basis conversion
# ---------------------------------------------------------------------------


@dataclass
class FactorialBasisMatrix:
    """Integer lower-triangular conversion from rising to falling factorials.

    Row n stores coefficients a_{n,j} with
        (k+1)(k+2)...(k+n) = sum_{j<=n} a_{n,j} * k(k-1)...(k-j+1).
    The recurrence follows from k * P_j(k) = P_{j+1}(k) + j P_j(k) and
    F_{n+1}(k) = (k + n + 1) F_n(k).
    """

    N: int
    rows: list  # rows[n] is a list of ints of length n+1

    def row(self, n: int) -> list:
        return self.rows[n]


def factorial_basis_matrix(N: int) -> FactorialBasisMatrix:
    """Exact integer conversion rows for orders 0..N."""
    if N < 0:
        raise ValueError("N must be non-negative")
    rows = [[1]]
    for n in range(N):
        prev = rows[-1]
        new = [0] * (n + 2)
        for j, a in enumerate(prev):
            # k * P_j contributes P_{j+1} + j P_j; then add (n+1) * P_j
            new[j + 1] += a
            new[j] += a * (j + n + 1)
        rows.append(new)
    return FactorialBasisMatrix(N, rows)


def rising_factorial(k: int, n: int) -> int:
    out = 1
    for j in range(1, n + 1):
        out *= k + j
    return out


def falling_factorial(k: int, n: int) -> int:
    out = 1
    for j in range(n):
        out *= k - j
    return out


# ---------------------------------------------------------------------------
# zero classification and the projection
# ---------------------------------------------------------------------------


def classify_zeros(space: WeightSequence, f: CPoly) -> ZeroClassification:
    """Classify each zero of f by reproducible derivative orders below its
    multiplicity.

    A zero of multiplicity 2 or more is known only to its accuracy radius
    (linalg.root_discs), about u^(1/m) for an m-fold zero; when that disc
    holds points of different verdicts (it meets the unit circle, for
    Dirichlet and multiplier weights) the zero is refused with
    CannotCertifyError rather than classified by where rounding put it.
    """
    if not isinstance(f, CPoly):
        raise TypeError("classification requires a polynomial")
    if f.coefficient(0) == 0:
        raise ValueError("classification requires f(0) != 0")
    if f.degree < 1:
        return ZeroClassification([], [])
    roots, classified = [], []
    for beta, mult, radius in root_discs(f):
        orders = tuple(j for j in range(mult) if is_reproducible(space, beta, j).reproducible)
        near, far = max(abs(beta) - radius, 0.0), abs(beta) + radius
        if mult > 1 and any(
            is_reproducible(space, near, j).reproducible != is_reproducible(space, far, j).reproducible
            for j in range(mult)
        ):
            raise CannotCertifyError(
                f"zero {beta} of multiplicity {mult} is known only to within "
                f"{radius:.3g}, which leaves open whether it is reproducible"
            )
        roots.append((beta, mult))
        if orders:
            classified.append(ClassifiedZero(beta, mult, orders))
    return ZeroClassification(roots, classified)


def _kernel_basis(classification: ZeroClassification) -> list:
    """Deterministic basis ordering: by order, then by zero position."""
    specs = []
    for j, betas in sorted(classification.order_sets().items()):
        for beta in sorted(betas, key=lambda b: (round(b.real, 12), round(b.imag, 12))):
            specs.append(KernelSpec(beta, j))
    return specs


def _kernel_gram(space: WeightSequence, basis: list, eps: float, start: int = 0):
    """(G, err): the kernel Gram G[s, b] = <k_b, k_s> summed from index start
    on, each entry certified to eps with its error in err: the nb (nb + 1) / 2
    kernel sums of the upper triangle in one kernel_inners call, mirrored
    into the lower one."""
    n = len(basis)
    G, err = np.zeros((n, n), dtype=complex), np.zeros((n, n))
    upper = [(s, b) for s in range(n) for b in range(s, n)]
    sums = kernel_inners(space, [(basis[b], basis[s]) for s, b in upper], eps, start)
    for (s, b), g in zip(upper, sums):
        G[s, b], G[b, s] = g.value, np.conj(g.value)
        err[s, b] = err[b, s] = g.err
    return G, err


def project_unity(
    space: WeightSequence, f: CPoly, eps: float = 1e-10
) -> ProjectionResult:
    """Orthogonal projection of 1 onto the shift-invariant subspace of f.

    f is divided by its leading coefficient first (the subspace is
    unchanged).  The constants solve the kernel-Gram interpolation system
         delta_{l0} + sum_b C_b <k_b, k^l_{beta_s}> = 0
    over all classified conditions (beta_s, l); each Gram entry is certified
    to eps/10.  With no classified zeros the result is phi = 1 (f cyclic).
    """
    if not isinstance(f, CPoly):
        raise TypeError("project_unity requires a polynomial")
    if f.coefficient(0) == 0:
        raise ValueError("project_unity requires f(0) != 0")
    if not space.monomials_orthogonal:
        raise ValueError("projection formulas require coefficient weights")
    f_monic = f.monic() if f.degree >= 1 else CPoly([1])
    classification = classify_zeros(space, f_monic)
    basis = _kernel_basis(classification)
    if not basis:
        return ProjectionResult(
            space, f_monic, classification, [], np.zeros(0, dtype=complex), 1.0, 0.0
        )
    entry_eps = eps / 10.0
    # system row (s, l): coefficient of C_b is <k_b, k^l_{beta_s}>
    G, _ = _kernel_gram(space, basis, entry_eps)
    rhs = np.array([-1.0 if s.order == 0 else 0.0 for s in basis], dtype=complex)
    try:
        L = cholesky_factor(G)
    except NotPositiveDefiniteError as exc:
        raise IllConditionedError(
            f"kernel Gram system is not numerically positive definite: {exc}",
            condition_estimate=None,
        ) from exc
    cond = condition_estimate(L)
    if cond > 3e10:
        # solve roundoff amplifies like cond * machine-eps; past this point
        # the constants would be worse than ~1e-6
        raise IllConditionedError(
            "kernel Gram system too ill-conditioned (near-coincident "
            f"reproducible zeros): condition ~ {cond:.3g}",
            condition_estimate=cond,
        )
    constants = solve_factored(L, rhs)
    r = rhs - G @ constants
    constants = constants + solve_factored(L, r)
    phi0 = 1.0 + sum(
        (c for c, s in zip(constants, basis) if s.order == 0), start=0j
    )
    gram_err = entry_eps * len(basis)
    dist_sq = 1.0 - phi0.real
    return ProjectionResult(
        space,
        f_monic,
        classification,
        basis,
        constants,
        float(phi0.real),
        float(dist_sq),
        gram_err,
    )


def blaschke_projection(f: CPoly, eps: float = 1e-12) -> ProjectionResult:
    """Fast path for the unweighted space: phi = conj(B(0)) * B with B the
    Blaschke product over the zeros of f inside the open disk.

    B(0) = prod |beta| > 0, so phi(0) = prod |beta|^2.  The result carries
    phi as a stored series and must agree with ``project_unity`` on the same
    f; no interpolation system is solved here.
    """
    space = WeightSequence.dirichlet(0.0)
    if f.coefficient(0) == 0:
        raise ValueError("projection requires f(0) != 0")
    f_monic = f.monic() if f.degree >= 1 else CPoly([1])
    classification = (
        classify_zeros(space, f_monic) if f.degree >= 1 else ZeroClassification([], [])
    )
    inside = [beta for beta, mult in classification.zeros if abs(beta) < 1.0 for _ in range(mult)]
    phi_series, phi0 = TruncSeries([1.0], 0.0, 0.0, 0.0), 1.0
    if inside:
        B0 = float(np.prod([abs(b) for b in inside]))
        phi_series, phi0 = blaschke_product(inside, eps=eps).scale(B0), B0 * B0
    return ProjectionResult(
        space,
        f_monic,
        classification,
        [],
        np.zeros(0, dtype=complex),
        phi0,
        1.0 - phi0,
        phi_series=phi_series,
    )


# ---------------------------------------------------------------------------
# equivalence of projections
# ---------------------------------------------------------------------------


def projection_equivalent(
    space: WeightSequence,
    f: CPoly,
    h: CPoly,
    eps: float = 1e-8,
) -> bool:
    """True when the projections of 1 onto the subspaces of f and h coincide.

    Both are computed in closed form; equality means identical classified
    zero sets (within root tolerance) with matching orders and constants
    within eps.  Appending factors with no reproducible zeros never changes
    the projection, so distinct polynomials can be equivalent.
    """
    pf = project_unity(space, f, eps=min(eps, 1e-9))
    ph = project_unity(space, h, eps=min(eps, 1e-9))
    if pf.cyclic and ph.cyclic:
        return True
    if len(pf.basis) != len(ph.basis):
        return False
    for (sa, ca), (sb, cb) in zip(
        zip(pf.basis, pf.constants), zip(ph.basis, ph.constants)
    ):
        if sa.order != sb.order:
            return False
        if abs(complex(sa.beta) - complex(sb.beta)) > _ROOT_MATCH_TOL:
            return False
        if abs(ca - cb) > eps:
            return False
    return True


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def recurrence_residual(
    space: WeightSequence, f: CPoly, result: ProjectionResult, K: int = 40
) -> float:
    """Validate the coefficient recurrence of phi without re-deriving it.

    Writing the monic f as z^d + a_{d-1} z^{d-1} + ... + a_0, orthogonality
    of phi to every z^k f (k >= 1) forces

        w_{k+d} phi_{k+d} = - sum_{j<d} w_{k+j} conj(a_j) phi_{k+j},

    i.e. Phi_n = w_n phi_n obeys a constant-coefficient recurrence.  Returns
    the largest residual over 1 <= k <= K.
    """
    if f.degree < 1:
        return 0.0
    a = f.monic().coeffs
    length = K + a.size
    Phi = space.weights(length) * result.phi_coefficients(length)
    # np.correlate conjugates a: entry k is sum_j w_{k+j} phi_{k+j} conj(a_j)
    return float(np.max(np.abs(np.correlate(Phi, a, "valid")[1:]), initial=0.0))


def _head_rounding(result: ProjectionResult, mags, absd: np.ndarray, w, head: float) -> float:
    """Bound on the rounding of head = sum_t w_t |phi_t - p_t|^2 as computed.

    Model: each elementary operation, exp and log included, is exact up to
    UNIT_ROUNDOFF relative on normal numbers.  Then phi_t = [t = 0] +
    sum_b C_b k_b(t) is off by at most kappa_t mags_t, mags_t = [t = 0] +
    sum_b |C_b k_b(t)|, where kappa_t is power_rounding(t) (each zero's table
    power) plus max order + nb + 8 units (factorials, weight, products, the
    nb additions), and phi_t - p_t by one more unit of itself.  An error e_t in
    d_t moves |d_t|^2 by at most (2|d_t| + e_t) e_t; |.|^2, the weight and
    the product add 5 units per term, the pairwise sum log2(L) + 20 in all.
    """
    ks, basis = np.arange(absd.size), result.basis
    units = max((s.order for s in basis), default=0) + len(basis) + 8
    e = UNIT_ROUNDOFF * (absd + units * mags) + power_rounding(ks) * mags
    summing = (math.log2(ks.size) + 25.0) * UNIT_ROUNDOFF
    return float(np.sum(w * (2.0 * absd + e) * e)) + summing * head


def distance_to_poly(
    space: WeightSequence,
    p: CPoly,
    result: ProjectionResult,
    eps: float = 1e-9,
    min_length: int = 256,
) -> Certified:
    """Certified ||p - phi|| in the space norm, for polynomial p.

    Coefficients are compared through a horizon L past deg p, read from one
    matrix K[b, t] = k_b(t) with the rounding of that stored head bounded;
    the tail sum_{t>=L} w_t |phi_t|^2 is C^H G_L C over the kernel Gram
    summed from L on.  A series-backed result has no kernels to sum the tail
    from and is refused (ValueError).
    """
    L = max(p.degree + 1, min_length)
    K = result._kernel_matrix(L)
    diff = result.constants @ K
    diff[0] += 1.0
    diff[: p.coeffs.size] -= p.coeffs
    w = space.weights(L)
    absd = np.abs(diff)
    head = float(np.sum(w * absd**2))
    mags = np.abs(result.constants) @ np.abs(K)
    mags[0] += 1.0
    head_err = _head_rounding(result, mags, absd, w, head)
    nb = len(result.basis)
    tail_form = result._kernel_form(eps / (nb * nb + 1), start=L)
    tail = tail_form.value.real
    total = head + max(tail, 0.0)
    value = math.sqrt(total)
    # |total - exact| <= delta, and |sqrt(x) - sqrt(y)| <= min(sqrt(delta), delta / sqrt(x))
    delta = head_err + tail_form.err + abs(min(tail, 0.0)) + UNIT_ROUNDOFF * total
    err = min(math.sqrt(delta), delta / value) if value > 0 else math.sqrt(delta)
    return Certified(value, err + UNIT_ROUNDOFF * value)
