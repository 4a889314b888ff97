"""Per-job oracles, independent of the program under test.

Every reference here is computed from the generator's facts (exact zeros,
alpha, the multiplier m) with plain numpy, before the timed region.  Each
tolerance is derived from the arithmetic it covers; the comments name the
bound.  EPS is the double-precision machine epsilon (twice the unit
roundoff), and gamma(n) = 64 n EPS is the allowance for an n-term
floating-point sum or triangular solve.

``prepare(job)`` returns the references, ``check(job, outcome, ref)`` returns
the list of oracle misses (empty when the output is correct).
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np
from numpy.polynomial import polynomial as npoly

EPS = float(np.finfo(float).eps)
ZETA = {2.0: math.pi**2 / 6.0, 3.0: 1.2020569031595942854}
CERTIFIED_ENTRY = 1e-10  # the CLI certifies kernel-Gram entries to eps/10, eps = 1e-9
SERIES_ENTRY = 1e-12  # approximant_sweep certifies series Gram entries to 1e-12


def gamma(n) -> float:
    return 64.0 * n * EPS


def _weights(alpha, length: int) -> np.ndarray:
    if alpha is None:
        return np.ones(length)
    return (np.arange(length) + 1.0) ** alpha


def _pad(x: np.ndarray, length: int) -> np.ndarray:
    out = np.zeros(length, dtype=x.dtype)
    out[: x.size] = x
    return out


def _falling(ks: np.ndarray, j: int) -> np.ndarray:
    out = np.ones(ks.shape)
    for i in range(j):
        out = out * (ks - i)
    return out


# ---------------------------------------------------------------------------
# the space in coefficient form
# ---------------------------------------------------------------------------


class Setting:
    """<x, y> = sum_t w_t (E x)_t conj((E y)_t) with E multiplication by m.

    For dirichlet spaces E = 1 and w_t = (t+1)^alpha; for multiplier spaces
    E = m and w = 1.  The target g = 1 embeds as T = E 1.
    """

    def __init__(self, facts):
        f = np.asarray(facts["coeffs"], dtype=complex)
        self.f = f
        if "m" in facts:
            m = np.asarray(facts["m"], dtype=complex)
            self.alpha = None
            self.F = np.convolve(m, f)
            self.T = m
        else:
            self.alpha = facts["alpha"]
            self.F = f
            self.T = np.array([1.0 + 0j])
        self.d = self.F.size - 1
        self.gg = float(np.sum(_weights(self.alpha, self.T.size) * np.abs(self.T) ** 2))

    def row(self, n: int, a: np.ndarray):
        """Residual r = p F - T for p = a, its gradient <r, z^k f> for every
        k, the componentwise rounding allowance of that gradient, and the
        true norm ||p f - g||^2 with its rounding allowance."""
        a = np.asarray(a, dtype=complex)[: n + 1]
        pf = np.convolve(a, self.F)
        L = max(pf.size, self.T.size)
        w = _weights(self.alpha, L)
        r = _pad(pf, L) - _pad(self.T, L)
        absF = np.abs(self.F)
        scale = _pad(np.convolve(np.abs(a), absF), L) + _pad(np.abs(self.T), L)
        lead = self.F.size - 1
        grad = np.correlate(w * r, self.F, "full")[lead:]
        mag = np.correlate(w * scale, absF, "full")[lead:]
        g = gamma(n + self.d + 1)
        norm = float(np.sum(w * np.abs(r) ** 2))
        norm_err = g * (float(np.sum(w * scale**2)) + self.gg)
        return grad, g * mag, norm, norm_err


def sweep_rows_check(setting: Setting, rows, misses: list):
    """Optimality, distance and Pythagoras checks on (n, dist, coeffs) rows.

    * optimality: <p_n f - g, z^k f> = (G a - rhs)_k for k <= n; a backward
      stable solve with one refinement step leaves it within gamma(n+d+1)
      times the same sum taken over moduli;
    * distance: ||p f - g||^2 - dist = Re sum_k a_k conj(grad_k) exactly, so
      the reported distance is within sum |a_k| |grad_k| of the true norm;
    * Pythagoras (g = 1, orthogonal monomials): dist = 1 - Re (p f)(0).
    Returns the per-row first-order error bound of the reported distance.
    """
    bounds = []
    for n, dist, a in rows:
        a = np.asarray(a, dtype=complex)[: n + 1]
        grad, tol, norm, norm_err = setting.row(n, a)
        bad = np.abs(grad[: n + 1]) > tol[: n + 1]
        if np.any(bad):
            k = int(np.argmax(bad))
            misses.append(f"row {n}: optimality <p f - g, z^{k} f> = {abs(grad[k]):.3g} > {tol[k]:.3g}")
        delta = float(np.sum(np.abs(a) * (np.abs(grad[: n + 1]) + tol[: n + 1]))) + norm_err
        if not abs(dist - norm) <= delta:
            misses.append(f"row {n}: dist_sq {dist!r} but ||p f - g||^2 = {norm!r} (allowed {delta:.3g})")
        if setting.alpha is not None:
            pf0 = complex(a[0] * setting.f[0])
            if not abs(dist - (1.0 - pf0.real)) <= 8 * EPS * (1.0 + abs(pf0)):
                misses.append(f"row {n}: dist_sq {dist!r} != 1 - Re(p f)(0) = {1.0 - pf0.real!r}")
        bounds.append(delta)
    return bounds


def monotone_check(dists, bounds, misses):
    """dist_{n+1} <= dist_n up to both rows' first-order error bounds."""
    for i in range(1, len(dists)):
        if not dists[i] <= dists[i - 1] + bounds[i] + bounds[i - 1]:
            misses.append(f"row {i}: dist_sq rose from {dists[i - 1]!r} to {dists[i]!r}")


# ---------------------------------------------------------------------------
# reference projection of 1 from the exact zeros
# ---------------------------------------------------------------------------


def root_accuracy(coeffs, beta: complex, mult: int) -> float:
    """Attainable accuracy of a root of multiplicity mult in double precision.

    A relative coefficient perturbation of EPS moves f(beta) by at most
    (deg+1) EPS sum |f_k| |beta|^k, which moves an m-fold root by
    (m! |df| / |f^(m)(beta)|)^(1/m); the factor 4 covers the polish step.
    """
    c = np.asarray(coeffs, dtype=complex)
    df = (c.size) * EPS * float(np.sum(np.abs(c) * abs(beta) ** np.arange(c.size)))
    deriv = abs(npoly.polyval(beta, npoly.polyder(c, mult)))
    if deriv == 0.0:
        return 1.0
    return 4.0 * (math.factorial(mult) * df / deriv) ** (1.0 / mult)


def reproducible_basis(zeros, alpha: float) -> list:
    """(beta, order, multiplicity) for every reproducible (zero, order j < m)."""
    basis = []
    for beta, mult in zeros:
        rho = abs(beta)
        for j in range(mult):
            if rho < 1.0 - 1e-12 or (abs(rho - 1.0) <= 1e-12 and alpha > 2 * j + 1):
                basis.append((complex(beta), j, mult))
    return basis


_K_TERMS = 4000


def _kernel_sum(alpha, bi, j, bs, l, power=0):
    """sum_k k^power P_j(k) P_l(k) conj(bi)^(k-j) bs^(k-l) / w_k, which is
    <k^j_bi, k^l_bs>; |conj(bi) bs| <= 0.9 unless both points are the same
    boundary point, where the order-0 sum is zeta(alpha)."""
    if abs(abs(bi) - 1.0) <= 1e-12 and abs(bi - bs) <= 1e-12 and j == l == 0 and power == 0:
        return complex(ZETA[float(alpha)])
    ks = np.arange(max(j, l), _K_TERMS, dtype=float)
    terms = _falling(ks, j) * _falling(ks, l) * ks**power / (ks + 1.0) ** alpha
    terms = terms * np.conj(bi) ** (ks - j) * bs ** (ks - l)
    return complex(np.sum(terms))


def reference_projection(facts):
    """dist^2(1, [f]) from the kernel-Gram system on the exact zeros.

    Returns a dict with dist, the constants C, the Gram matrix condition,
    and the entry sensitivity to root errors (first-order, per entry).
    """
    alpha = facts["alpha"]
    basis = reproducible_basis(facts["zeros"], alpha)
    if not basis:
        return dict(dist=0.0, C=np.zeros(0), cond=1.0, entry_err=0.0, nb=0, gmax=0.0)
    nb = len(basis)
    G = np.zeros((nb, nb), dtype=complex)
    sens = 0.0
    coeffs = facts["coeffs"]
    for r, (bs, l, ms) in enumerate(basis):
        for c, (bi, j, mi) in enumerate(basis):
            # system row (bs, l): coefficient of C_(bi, j) is <k^j_bi, k^l_bs>
            G[r, c] = _kernel_sum(alpha, bi, j, bs, l)
            on_circle = abs(abs(bi) - 1.0) <= 1e-12 and abs(abs(bs) - 1.0) <= 1e-12
            if not on_circle:
                # d/d beta of the entry is bounded by sum k P_j P_l |u|^(k-1) / w_k
                slope = abs(_kernel_sum(alpha, abs(bi), j, abs(bs), l, power=1)) / max(abs(bi) * abs(bs), 1e-300)
                err = root_accuracy(coeffs, bi, mi) + root_accuracy(coeffs, bs, ms)
                sens = max(sens, slope * err)
    rhs = np.array([-1.0 if l == 0 else 0.0 for _, l, _ in basis], dtype=complex)
    C = np.linalg.solve(G, rhs)
    dist = float(-sum(C[i].real for i, (_, l, _) in enumerate(basis) if l == 0))
    return dict(dist=dist, C=C, cond=float(np.linalg.cond(G)), entry_err=sens, nb=nb,
                gmax=float(np.max(np.abs(G))))


def projection_tolerance(ref, C_reported=None) -> float:
    """First-order bound on |dist - dist_ref|.

    dist = e^H G^{-1} e, so a Gram perturbation dG moves it by C^H dG C,
    at most ||C||^2 ||dG||_2 <= ||C||^2 nb max|dG_ij|.  The entries carry the
    CLI's certified error, the root-error sensitivity, and the rounding of
    both solves (gamma(nb) cond max|G|).
    """
    if ref["nb"] == 0:
        return 1e-12
    c2 = float(np.sum(np.abs(ref["C"]) ** 2))
    if C_reported is not None and len(C_reported):
        c2 = max(c2, float(np.sum(np.abs(C_reported) ** 2)))
    nb = ref["nb"]
    entry = CERTIFIED_ENTRY + ref["entry_err"] + gamma(nb) * ref["cond"] * ref["gmax"] * EPS
    return c2 * nb * entry + gamma(nb) * ref["cond"] * (1.0 + c2)


def reference_sweep(setting: Setting, n: int):
    """The degree-n optimal distance from an independent LAPACK solve.

    Returns (dist, bound) where bound = 2 gamma(n+d+1) kappa(G) |f_0| ||a||
    covers the forward error of both this solve and the program's.
    """
    F = setting.F
    size = n + 1
    L = size + setting.d
    A = np.zeros((L, size), dtype=complex)
    for j in range(size):
        A[j : j + F.size, j] = F
    w = _weights(setting.alpha, L)
    G = (A.conj().T * w) @ A
    T = _pad(setting.T, L)
    rhs = (A.conj().T * w) @ T  # rhs_k = <g, z^k f>
    a = np.linalg.solve(G, rhs)
    dist = setting.gg - float(np.real(np.vdot(a, rhs)))
    kappa = float(np.linalg.cond(G))
    ev = np.linalg.eigvalsh(G)
    bound = 2 * gamma(L) * kappa * (float(np.linalg.norm(a)) * float(np.linalg.norm(rhs)) + setting.gg)
    return dict(dist=dist, bound=bound, lam_min=float(ev[0]), row_abs=float(np.max(np.sum(np.abs(G), axis=1))))


# ---------------------------------------------------------------------------
# output parsing
# ---------------------------------------------------------------------------


def _pairs(items) -> np.ndarray:
    return np.array([complex(re, im) for re, im in items], dtype=complex)


def parse_sweep(text: str, fmt: str):
    """Rows (n, dist_sq, coeffs, extra) from approximate/stabilize output."""
    if fmt == "json":
        payload = json.loads(text)
        rows = [(r["n"], float(r["dist_sq"]), _pairs(r["coeffs"]), r) for r in payload["rows"]]
        return payload, rows
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    rows = []
    for rec in reader:
        vals = dict(zip(header, rec))
        k = 0
        coeffs = []
        while f"coeff_{k}_re" in vals:
            coeffs.append(complex(float(vals[f"coeff_{k}_re"]), float(vals[f"coeff_{k}_im"])))
            k += 1
        extra = {"taylor_residual": float(vals["taylor_residual"])} if "taylor_residual" in vals else {}
        rows.append((int(vals["n"]), float(vals["dist_sq"]), np.array(coeffs, dtype=complex), extra))
    return None, rows


# ---------------------------------------------------------------------------
# per-kind references and checks
# ---------------------------------------------------------------------------


def _closed_form_1mz(alpha: float, n: int):
    """dist^2_n for f = c (1 - z): 1/(n+2) in H^2, 1/sum_{m<=n+2} m^-2 at alpha = 2."""
    if alpha == 0.0:
        return 1.0 / (n + 2)
    if alpha == 2.0:
        return 1.0 / float(np.sum(1.0 / np.arange(1, n + 3, dtype=float) ** 2))
    return None


def _taylor_reference(setting: Setting, n_max: int):
    """||T_n(1/f) f - 1||^2 for n <= n_max, with rounding allowance."""
    f = setting.f
    c = np.zeros(n_max + 1, dtype=complex)
    c[0] = 1.0 / f[0]
    for k in range(1, n_max + 1):
        j = np.arange(1, min(k, f.size - 1) + 1)
        c[k] = -np.sum(f[j] * c[k - j]) / f[0]
    out = []
    for n in range(n_max + 1):
        res = np.convolve(c[: n + 1], f)
        res[0] -= 1.0
        w = _weights(setting.alpha, res.size)
        val = float(np.sum(w * np.abs(res) ** 2))
        scale = float(np.sum(w * np.convolve(np.abs(c[: n + 1]), np.abs(f)) ** 2))
        out.append((val, gamma(n + f.size) * (scale + 1.0)))
    return out


def prepare(job, opa=None) -> dict:
    """References for one job.  With ``opa`` given, alpha = 0 projections
    also get the program's Blaschke fast path as a second opinion."""
    facts = job.facts
    if job.kind in ("approximate", "diagnose", "project", "stabilize"):
        setting = Setting(facts)
        ref = {"setting": setting}
        if setting.alpha is not None:
            ref["projection"] = reference_projection(facts)
        if job.kind in ("diagnose", "project"):
            ref["sweep"] = reference_sweep(setting, facts["n_max"])
        if job.kind == "project" and opa is not None and setting.alpha == 0.0:
            try:
                f = opa.series.CPoly(facts["coeffs"])
                ref["blaschke"] = opa.projection.blaschke_projection(f).dist_sq
            except Exception as exc:  # reported, and the comparison skipped
                ref["blaschke_error"] = type(exc).__name__
        if facts.get("taylor"):
            ref["taylor"] = _taylor_reference(setting, facts["n_max"])
        return ref
    return {}  # kernel and series oracles are closed forms of the facts


def check(job, outcome, ref) -> list:
    """Oracle misses for one completed job (exit code 0 / no exception)."""
    misses: list = []
    try:
        CHECKS[job.kind](job, outcome, ref, misses)
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        misses.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return misses


def _check_projection_floor(ref, dists, bounds, misses):
    proj = ref.get("projection")
    if proj is None:
        return
    tol = projection_tolerance(proj)
    for i, (d, b) in enumerate(zip(dists, bounds)):
        if not d >= proj["dist"] - tol - b:
            misses.append(f"row {i}: sweep {d!r} below the subspace distance {proj['dist']!r}")
            return


def check_approximate(job, outcome, ref, misses):
    facts = job.facts
    setting = ref["setting"]
    _, rows = parse_sweep(outcome["stdout"], facts["fmt"])
    if [r[0] for r in rows] != list(range(facts["n_max"] + 1)):
        misses.append("rows are not n = 0..n_max")
        return
    bounds = sweep_rows_check(setting, [(n, d, a) for n, d, a, _ in rows], misses)
    dists = [d for _, d, _, _ in rows]
    monotone_check(dists, bounds, misses)
    _check_projection_floor(ref, dists, bounds, misses)
    if facts["family"] == "one_minus_z":
        c2 = abs(setting.f[0]) ** 2
        for (n, d, a, _), b in zip(rows, bounds):
            want = _closed_form_1mz(setting.alpha, n)
            grad, tol, _, _ = setting.row(n, a)
            # excess of the computed p over the optimum: r^H G^-1 r, with
            # lambda_min(G_n) >= |c|^2 4 sin^2(pi / (2 (n+2))) (w >= 1)
            lam = c2 * 4.0 * math.sin(math.pi / (2.0 * (n + 2))) ** 2
            excess = float(np.sum((np.abs(grad[: n + 1]) + tol[: n + 1]) ** 2)) / lam
            if want is not None and not abs(d - want) <= b + excess + gamma(n + 2) * want:
                misses.append(f"row {n}: dist_sq {d!r} != closed form {want!r}")
                break
    if facts.get("taylor"):
        for (n, d, _, extra), (val, err) in zip(rows, ref["taylor"]):
            t = float(extra["taylor_residual"])
            if not abs(t * t - val) <= err + 4 * EPS * val:
                misses.append(f"row {n}: taylor residual^2 {t * t!r} != {val!r}")
                break
            if not d <= t * t + err:
                misses.append(f"row {n}: optimal {d!r} above Taylor {t * t!r}")
                break


def check_diagnose(job, outcome, ref, misses):
    facts = job.facts
    sweep = ref["sweep"]
    if facts["fmt"] == "json":
        payload = json.loads(outcome["stdout"])
        rows = [(r["n"], float(r["dist_sq"]), float(r["one_minus_pf0"])) for r in payload["rows"]]
        for n, d, alt in rows:
            # both are 1 - Re(a_0 f_0) formed from the same product
            if not abs(d - alt) <= 4 * EPS * (1.0 + abs(1.0 - alt)):
                misses.append(f"row {n}: dist_sq {d!r} != 1 - Re(p f)(0) = {alt!r}")
                break
        if payload["verdict"] == "inconsistent":
            misses.append("verdict 'inconsistent': the sweep undershot the projection")
        reference = payload["reference_dist_sq"]
        proj = ref["projection"]
        if reference is not None and not abs(reference - proj["dist"]) <= projection_tolerance(proj):
            misses.append(f"reference_dist_sq {reference!r} != {proj['dist']!r}")
    else:
        rows = [(int(r["n"]), float(r["dist_sq"]), None) for r in csv.DictReader(io.StringIO(outcome["stdout"]))]
    if [r[0] for r in rows] != list(range(facts["n_max"] + 1)):
        misses.append("rows are not n = 0..n_max")
        return
    # without coefficients: |a^H r| <= gamma ||G||_inf ||a||_1^2 and
    # ||a_n||_1^2 <= (n+1) ||p_n f||^2 / lambda_min(G_N) (interlacing)
    dists = [d for _, d, _ in rows]
    g = gamma(facts["n_max"] + ref["setting"].d + 1)
    bounds = [g * sweep["row_abs"] * (n + 1) * max(1.0 - d, 0.0) / max(sweep["lam_min"], 1e-300)
              for (n, d, _) in rows]
    monotone_check(dists, bounds, misses)
    _check_projection_floor(ref, dists, bounds, misses)
    if not abs(dists[-1] - sweep["dist"]) <= sweep["bound"]:
        misses.append(f"dist_sq at n_max {dists[-1]!r} != reference sweep {sweep['dist']!r}")


def check_stabilize(job, outcome, ref, misses):
    setting = ref["setting"]
    payload, rows = parse_sweep(outcome["stdout"], "json")
    bounds = sweep_rows_check(setting, [(n, d, a) for n, d, a, _ in rows], misses)
    monotone_check([d for _, d, _, _ in rows], bounds, misses)
    if not payload["stabilized"]:
        if "dossier" in payload:
            misses.append("dossier for an unstabilized sweep")
        return
    M = payload["M"]
    p_M = _pairs(payload["p_M"])
    if not np.array_equal(_pad(p_M, M + 1), _pad(rows[M][2], M + 1)):
        misses.append("p_M differs from the sweep row M")
    # an exact certificate: <p_M f, z^k f> = 0 for every k >= 1
    grad, tol, _, _ = setting.row(len(p_M) - 1, p_M)
    if np.any(np.abs(grad[1:]) > tol[1:]):
        misses.append("p_M f is not orthogonal to the shifts of f")
    dossier = payload.get("dossier")
    if dossier is None or not dossier["all_passed"]:
        misses.append("stabilized without a passing dossier")


def check_project(job, outcome, ref, misses):
    payload = json.loads(outcome["stdout"])
    rep = payload["report"]
    orc = payload["oracle"]
    proj = ref["projection"]
    sweep = ref["sweep"]
    C = np.array([complex(*c["value"]) for c in rep["constants"]], dtype=complex)
    tol = projection_tolerance(proj, C)
    dist = float(rep["dist_sq"])
    if not abs(dist + rep["phi0"] - 1.0) <= 4 * EPS:
        misses.append("dist_sq + phi0 != 1")
    if not abs(dist - proj["dist"]) <= tol:
        misses.append(f"dist_sq {dist!r} != reference {proj['dist']!r} (allowed {tol:.3g})")
    if "blaschke" in ref and not abs(dist - ref["blaschke"]) <= tol:
        misses.append(f"dist_sq {dist!r} != Blaschke fast path {ref['blaschke']!r}")
    sw = float(orc["sweep_dist_sq"])
    if not abs(sw - sweep["dist"]) <= sweep["bound"]:
        misses.append(f"sweep_dist_sq {sw!r} != reference sweep {sweep['dist']!r}")
    if not sw >= dist - tol - sweep["bound"]:
        misses.append(f"sweep {sw!r} below the projection distance {dist!r}")
    # Pythagoras: dist_n - dist = ||p_n f - phi||^2
    ad, ad_err = float(orc["approximant_distance"]), float(orc["approximant_distance_err"])
    slack = tol + sweep["bound"] + 2 * ad * ad_err + ad_err**2 + gamma(4) * max(sw, ad * ad)
    if not abs((sw - dist) - ad * ad) <= slack:
        misses.append(f"sweep - dist = {sw - dist!r} but ||p f - phi||^2 = {ad * ad!r}")
    allowed = recurrence_tolerance(job.facts, rep)
    if not float(orc["recurrence_residual"]) <= allowed:
        misses.append(f"recurrence residual {orc['recurrence_residual']!r} > {allowed:.3g}")


def recurrence_tolerance(facts, rep, K: int = 40) -> float:
    """Bound on max_k |sum_i conj(a_i) w_{k+i} phi_{k+i}| for the reported phi.

    That sum is sum_b C_b conj((z^k f)^(j_b)(beta_b)), which vanishes at an
    exact zero of order > j_b.  At a computed zero off by rho it is at most
    sum_{r >= m - j} |(z^k f)^(j+r)| rho^r / r!; rounding adds gamma(d+nb)
    times the same sum over moduli.
    """
    a = np.asarray(facts["coeffs"], dtype=complex)
    a = a / a[-1]
    zeros = facts["zeros"]
    worst = 0.0
    for c in rep["constants"]:
        beta = complex(*c["beta"])
        j = int(c["order"])
        C = abs(complex(*c["value"]))
        true_beta, mult = min(zeros, key=lambda z: abs(z[0] - beta))
        rho = max(root_accuracy(facts["coeffs"], true_beta, mult), abs(true_beta - beta))
        R = max(abs(beta), 1.0) + rho
        for k in range(1, K + 1):
            ks = np.arange(a.size) + k

            def moduli(q):
                return float(np.sum(np.abs(a) * _falling(ks.astype(float), q) * R ** np.maximum(ks - q, 0)))

            taylor = sum(moduli(j + r) * rho**r / math.factorial(r) for r in range(max(mult - j, 1), max(mult - j, 1) + 3))
            worst = max(worst, C * (taylor + gamma(a.size + len(rep["constants"])) * moduli(j)))
    return 4.0 * worst + 1e-300


def check_kernel(job, outcome, ref, misses):
    facts = job.facts
    beta, n, alpha = facts["beta"], facts["order"], facts["alpha"]
    if facts["fmt"] == "json":
        payload = json.loads(outcome["stdout"])
        coeffs = _pairs(payload["coeffs"])
        env = payload["envelope"]
    else:
        rows = list(csv.DictReader(io.StringIO(outcome["stdout"])))
        coeffs = np.array([complex(float(r["re"]), float(r["im"])) for r in rows], dtype=complex)
        env = None
    L = coeffs.size
    ks = np.arange(4 * L + 16, dtype=float)
    exact = np.zeros(ks.size, dtype=complex)
    nz = ks >= n
    # k^n_beta has coefficients P_n(k) conj(beta)^(k-n) / w_k
    exact[nz] = _falling(ks[nz], n) * np.conj(beta) ** (ks[nz] - n) / (ks[nz] + 1.0) ** alpha
    err = np.abs(coeffs - exact[:L])
    allowed = 8 * (ks[:L] + n + 2) * EPS * np.abs(exact[:L]) + 1e-300
    if np.any(err > allowed):
        k = int(np.argmax(err > allowed))
        misses.append(f"coefficient {k}: {coeffs[k]!r} != {exact[k]!r}")
    h = np.asarray(facts["h"], dtype=complex)
    D = h.size
    if D <= L:
        w = (np.arange(D) + 1.0) ** alpha
        got = complex(np.sum(w * h * np.conj(coeffs[:D])))
        want = complex(npoly.polyval(beta, npoly.polyder(h, n))) if n < D else 0j
        mods = float(np.sum(w * np.abs(h) * np.abs(coeffs[:D])))
        mods += float(np.sum(np.abs(h) * _falling(np.arange(D, dtype=float), n) * abs(beta) ** np.maximum(np.arange(D) - n, 0)))
        if not abs(got - want) <= gamma(D + n + 2) * mods:
            misses.append(f"<h, k> = {got!r} but h^({n})(beta) = {want!r}")
    else:
        misses.append(f"only {L} coefficients stored, test polynomial needs {D}")
    if env is not None and env["M"] > 0:
        tail = ks[L:]
        bound = env["M"] * env["r"] ** tail * (tail + 1.0) ** env["gamma"]
        # the envelope may be tight; both sides carry a power's rounding
        if np.any(np.abs(exact[L:]) > bound * (1.0 + 8 * (tail + n + 2) * EPS)):
            misses.append("envelope does not cover the unstored coefficients")


def check_series(job, outcome, ref, misses):
    facts = job.facts
    c = facts["c"]
    want_M = 0 if c is None else 1
    if not outcome["stabilized"] or outcome["M"] != want_M:
        misses.append(f"stabilization M = {outcome['M']} (stabilized {outcome['stabilized']}), want {want_M}")
        return
    B0 = float(np.prod([abs(b) for b in facts["zeros"]]))
    want = np.array([B0] if c is None else [B0, -c * B0], dtype=complex)
    p = np.asarray(outcome["p_M"], dtype=complex)
    # G is the Toeplitz matrix of |1/(1 - c e^it)|^2 (identity for c = None):
    # ||G^-1|| <= (1+|c|)^2; entries carry the certified 1e-12 plus rounding
    n = facts["n_max"] + 1
    inv = (1.0 + abs(c)) ** 2 if c is not None else 1.0
    tol = 2 * inv * n * (SERIES_ENTRY + gamma(facts["length"])) * (1.0 + float(np.sum(np.abs(want))))
    if p.size != want.size or np.max(np.abs(p - want)) > tol:
        misses.append(f"p_M = {p!r}, want {want!r} (allowed {tol:.3g})")
    if not outcome["dossier_passed"]:
        misses.append("stabilization dossier failed")
    if outcome["is_inner"] != (c is None):
        misses.append(f"is_inner = {outcome['is_inner']}, want {c is None}")
    if not outcome["orthogonal"]:
        misses.append("p_M f not orthogonal to the shifts of f")


CHECKS = {
    "approximate": check_approximate,
    "diagnose": check_diagnose,
    "stabilize": check_stabilize,
    "project": check_project,
    "kernel": check_kernel,
    "series": check_series,
}
