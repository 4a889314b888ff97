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

Two independent oracles exercise the construction: the Gram-sweep approximants
p_n* f converge to phi in norm, and the Maclaurin coefficients of phi satisfy
a constant-coefficient recurrence driven by the coefficients of f (both are
checked in the test suite and surfaced by the CLI).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import IllConditionedError, UndecidableError
from .linalg import (
    cholesky_factor,
    condition_estimate,
    poly_roots,
    solve_factored,
)
from .series import CPoly, TruncSeries, blaschke_product
from .spaces import (
    Certified,
    KernelSpec,
    WeightSequence,
    _weighted_terms,
    falling_product_sum,
    is_reproducible,
    kernel_coefficients,
    kernel_inner,
)

_ROOT_MATCH_TOL = 1e-7


def _series_derivative_at(s: TruncSeries, beta: complex, order: int) -> "Certified":
    """Certified order-th derivative of a stored series at beta."""
    from .series import power_tail_bound
    from .spaces import _falling_vec

    ks = np.arange(len(s))
    fall = _falling_vec(ks, order)
    nz = ks >= order
    value = complex(
        np.sum(s.coeffs[nz] * fall[nz] * beta ** (ks[nz] - order))
    )
    if beta == 0:
        err = 0.0 if order <= s.order else math.factorial(order) * s.envelope_at(order)
        return Certified(value, err)
    # |sum_{t>N} P_order(t) h_t beta^(t-order)| with the envelope bound
    err = power_tail_bound(
        s.tail_M * abs(beta) ** (-order) if s.tail_M else 0.0,
        s.tail_r * abs(beta),
        s.tail_gamma + order,
        s.order,
    )
    return Certified(value, err)


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
    undecided: list  # (beta, order) pairs the space could not decide

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

    @property
    def cyclic(self) -> bool:
        return len(self.basis) == 0

    def phi_coefficients(self, length: int) -> np.ndarray:
        """Exact Maclaurin coefficients of phi through index length - 1."""
        if self.phi_series is not None:
            if length > len(self.phi_series):
                raise ValueError("stored phi series shorter than requested length")
            return self.phi_series.coeffs[:length].copy()
        out = np.zeros(length, dtype=complex)
        out[0] = 1.0
        for spec, c in zip(self.basis, self.constants):
            out += c * kernel_coefficients(self.space, spec, length)
        return out

    def phi_at(self, z: complex, eps: float = 1e-10) -> Certified:
        """Certified pointwise value of phi."""
        z = complex(z)
        if self.phi_series is not None:
            return Certified(*self.phi_series.eval_certified(z))
        value = 1.0 + 0j
        err = 0.0
        for spec, c in zip(self.basis, self.constants):
            beta = complex(spec.beta)
            scale = c * np.conj(beta) ** (-spec.order)
            s = falling_product_sum(
                self.space, spec.order, 0, np.conj(beta) * z, eps / max(1, len(self.basis))
            )
            value += scale * s.value
            err += abs(scale) * s.err
        return Certified(value, err)

    def derivative_at(self, beta: complex, order: int, eps: float = 1e-10) -> Certified:
        """Certified phi^(order)(beta); vanishes at classified (beta, order)."""
        beta = complex(beta)
        if self.phi_series is not None:
            return _series_derivative_at(self.phi_series, beta, order)
        value = 1.0 + 0j if order == 0 else 0j
        err = 0.0
        for spec, c in zip(self.basis, self.constants):
            bb = complex(spec.beta)
            scale = c * np.conj(bb) ** (-spec.order) * beta ** (-order)
            s = falling_product_sum(
                self.space,
                spec.order,
                order,
                np.conj(bb) * beta,
                eps / max(1, len(self.basis)),
            )
            value += scale * s.value
            err += abs(scale) * s.err
        return Certified(value, err)

    def norm_sq(self, eps: float = 1e-10) -> Certified:
        """||phi||^2, which must agree with phi(0)."""
        if self.phi_series is not None:
            from .spaces import inner_series

            c = inner_series(self.space, self.phi_series, self.phi_series, eps)
            return Certified(c.value.real, c.err)
        value = 1.0 + 0j  # <1, 1> with w_0 = 1
        err = 0.0
        n = max(1, len(self.basis))
        for spec, c in zip(self.basis, self.constants):
            # <1, k_b> = conj(k_b(0)) and <k_b, 1> = k_b(0): both are
            # delta_{order,0} since the order-0 kernel has constant term 1
            k0 = 1.0 if spec.order == 0 else 0.0
            value += c * k0
            value += np.conj(c) * k0
            for spec2, c2 in zip(self.basis, self.constants):
                g = kernel_inner(self.space, spec, spec2, eps / (n * n))
                value += c * np.conj(c2) * g.value
                err += abs(c) * abs(c2) * g.err
        return Certified(value, err)

    def to_report(self, eps: float = 1e-10) -> dict:
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
    multiplicity.  Undecidable orders are reported per zero, never guessed."""
    if not isinstance(f, CPoly):
        raise TypeError("classification requires a polynomial")
    if f.coefficient(0) == 0:
        raise ValueError("classification requires f(0) != 0")
    if f.degree < 1:
        return ZeroClassification([], [], [])
    roots = poly_roots(f)
    classified = []
    undecided = []
    for beta, mult in roots:
        orders = []
        for j in range(mult):
            cert = is_reproducible(space, beta, j)
            if cert.reproducible is None:
                undecided.append((beta, j))
            elif cert.reproducible:
                orders.append(j)
        if orders:
            classified.append(ClassifiedZero(beta, mult, tuple(orders)))
    return ZeroClassification(roots, classified, undecided)


def _kernel_basis(classification: ZeroClassification) -> list:
    """Deterministic basis ordering: by order, then by zero position."""
    specs = []
    for j, betas in sorted(classification.order_sets().items()):
        for beta in sorted(betas, key=lambda b: (round(b.real, 12), round(b.imag, 12))):
            specs.append(KernelSpec(beta, j))
    return specs


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
    if classification.undecided:
        raise UndecidableError(
            f"reproducibility undecided for {classification.undecided}"
        )
    basis = _kernel_basis(classification)
    if not basis:
        return ProjectionResult(
            space, f_monic, classification, [], np.zeros(0, dtype=complex), 1.0, 0.0
        )
    n = len(basis)
    entry_eps = eps / 10.0
    G = np.zeros((n, n), dtype=complex)
    for irow, row_spec in enumerate(basis):
        for icol, col_spec in enumerate(basis):
            if icol < irow:
                continue
            # system row (s, l): coefficient of C_b is <k_b, k^l_{beta_s}>
            g = kernel_inner(space, col_spec, row_spec, entry_eps)
            G[irow, icol] = g.value
            G[icol, irow] = np.conj(g.value)
    rhs = np.array([-1.0 if s.order == 0 else 0.0 for s in basis], dtype=complex)
    try:
        L = cholesky_factor(G)
    except Exception as exc:
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
    gram_err = entry_eps * n
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
        classify_zeros(space, f_monic) if f.degree >= 1 else ZeroClassification([], [], [])
    )
    inside = []
    for beta, mult in classification.zeros:
        if abs(beta) < 1.0:
            inside.extend([beta] * mult)
    if not inside:
        return ProjectionResult(
            space,
            f_monic,
            classification,
            [],
            np.zeros(0, dtype=complex),
            1.0,
            0.0,
            phi_series=TruncSeries([1.0], 0.0, 0.0, 0.0),
        )
    B = blaschke_product(inside, eps=eps)
    B0 = float(np.prod([abs(b) for b in inside]))
    phi_series = B.scale(B0)
    phi0 = B0 * B0
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
    fm = f.monic()
    d = fm.degree
    a = fm.coeffs
    length = K + d + 1
    phi = result.phi_coefficients(length)
    w = space.weights(length)
    worst = 0.0
    for k in range(1, K + 1):
        acc = w[k + d] * phi[k + d]
        for j in range(d):
            acc += w[k + j] * np.conj(a[j]) * phi[k + j]
        worst = max(worst, abs(acc))
    return worst


def distance_to_poly(
    space: WeightSequence,
    p: CPoly,
    result: ProjectionResult,
    eps: float = 1e-9,
    min_length: int = 256,
) -> Certified:
    """Certified ||p - phi|| in the space norm, for polynomial p.

    Coefficients are compared through a horizon past deg p; the remaining
    tail sum_{t>L} w_t |phi_t|^2 expands into kernel cross-sums and is
    certified by the same machinery as the Gram entries.
    """
    L = max(p.degree + 1, min_length)
    phi = result.phi_coefficients(L)
    diff = phi.copy()
    diff[: p.coeffs.size] -= p.coeffs
    w = space.weights(L)
    head = float(np.sum(w * np.abs(diff) ** 2))
    # tail: sum_{t >= L} w_t phi_t conj(phi_t) over the kernel expansion
    tail = 0.0
    tail_err = 0.0
    nb = len(result.basis)
    if nb:
        inner_eps = eps / (nb * nb + 1)
        for sa, ca in zip(result.basis, result.constants):
            for sb, cb in zip(result.basis, result.constants):
                ba, bb = complex(sa.beta), complex(sb.beta)
                scale = ca * np.conj(cb) * np.conj(ba) ** (-sa.order) * bb ** (-sb.order)
                full = falling_product_sum(
                    space, sa.order, sb.order, np.conj(ba) * bb, inner_eps
                )
                # subtract the stored prefix of the same sum
                terms = _weighted_terms(space, sa.order, sb.order, np.conj(ba) * bb, 0, L)
                partial = complex(np.sum(terms))
                contrib = scale * (full.value - partial)
                tail += contrib.real
                tail_err += abs(scale) * full.err + 1e-15 * abs(scale) * float(
                    np.sum(np.abs(terms))
                )
    total = head + max(tail, 0.0)
    value = math.sqrt(max(total, 0.0))
    # |sqrt(x) - sqrt(y)| <= sqrt(|x - y|) for x, y >= 0
    err = math.sqrt(tail_err + abs(min(tail, 0.0)))
    return Certified(value, err)
