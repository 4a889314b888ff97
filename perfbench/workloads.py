"""Seeded job generators for the three benchmark workloads.

Each generator takes the seed and returns the jobs of one run: ``ROUNDS[w]``
rounds of one design.  The class mix of a round (command, space, degree, zero
placement and multiplicity, sizes) is fixed, so every seed exercises the same
share of slow, failing and fast cases; the seed draws everything continuous
inside a class: zero positions and phases, coefficient scale and phase, the
multiplier's zeros, kernel points and test functions.  The job list of a run
does not depend on how fast the program is: a run repeats it in passes.

A job carries the program's inputs (``argv`` for the CLI, ``params`` for
library jobs) and the generator's ``facts`` (exact zeros, alpha, ...), which
only the oracles read.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("sweep_long", "project_mix", "series_certify")
ROUNDS = {"sweep_long": 1, "project_mix": 3, "series_certify": 3}


@dataclass
class Job:
    index: int
    kind: str  # approximate | diagnose | project | stabilize | kernel | series
    argv: list | None = None
    params: dict | None = None
    facts: dict = field(default_factory=dict)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(WORKLOADS.index(workload) * 1_000_003 + int(seed))


def _phase(rng) -> complex:
    return cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))


def _place(rng, where: str) -> complex:
    """A zero inside, on, or outside the unit circle."""
    if where == "in":
        return rng.uniform(0.2, 0.9) * _phase(rng)
    if where == "on":
        t = rng.uniform(0.0, 2.0 * math.pi)
        return complex(math.cos(t), math.sin(t))
    return rng.uniform(1.15, 3.0) * _phase(rng)


_WHERE = {"I": "in", "O": "out", "B": "on"}


def poly_from_zeros(zeros, scale: complex) -> list:
    """Coefficients, lowest degree first, of scale * prod (z - beta)^m."""
    coeffs = [complex(scale)]
    for beta, mult in zeros:
        for _ in range(mult):
            nxt = [0j] * (len(coeffs) + 1)
            for k, c in enumerate(coeffs):
                nxt[k] -= beta * c
                nxt[k + 1] += c
            coeffs = nxt
    return coeffs


def _coeffs_json(coeffs) -> str:
    return json.dumps([[float(c.real), float(c.imag)] for c in coeffs])


def _scale(rng) -> complex:
    return rng.uniform(0.5, 2.0) * _phase(rng)


# ---------------------------------------------------------------------------
# sweep_long: long approximant sweeps and cyclicity tables
# ---------------------------------------------------------------------------

# (command, format, taylor, zeros, alpha or 'multiplier', n_max).  zeros is
# "1-z" for c (1 - z), or one letter per simple zero: I inside, O outside, B on
# the circle (at most one: two make boundary sums of seconds); all-O classes
# are zero-free in the closed disk.  n_max is fixed per slot.  The fastest
# job, which is the tail (the 11th largest of 11), is the c (1 - z) sweep at
# 130, whose cost the seed does not move; the median sits among several jobs
# of like cost at 150-170; a pass takes a few seconds.
_SWEEP_DESIGN = [
    ("approximate", "csv", True, "1-z", 2, 130),
    ("diagnose", "json", False, "I O", 2, 170),
    ("approximate", "csv", False, "I O B", -1, 150),
    ("approximate", "json", False, "I O", "multiplier", 170),
    ("approximate", "json", True, "O O", 1, 200),
    ("diagnose", "csv", False, "I B O O", 0, 170),
    ("approximate", "json", False, "1-z", 0, 400),
    ("approximate", "csv", False, "I I O", 1, 150),
    ("diagnose", "json", False, "O O O", -1, 170),
    ("approximate", "json", False, "B O", 2, 170),
    ("approximate", "csv", True, "I O O O", 0, 200),
]


def _sweep_zeros(rng, code: str) -> list:
    if code == "1-z":
        return [(1 + 0j, 1)]
    return [(_place(rng, _WHERE[z]), 1) for z in code.split()]


def gen_sweep_long(seed: int) -> list[Job]:
    rng = _rng("sweep_long", seed)
    jobs = []
    design = _SWEEP_DESIGN * ROUNDS["sweep_long"]
    for i, (cmd, fmt, taylor, code, alpha, n_max) in enumerate(design):
        zeros = _sweep_zeros(rng, code)
        family = "one_minus_z" if code == "1-z" else "polynomial"
        scale = _scale(rng)
        if family == "one_minus_z":
            # c (1 - z) = -c (z - 1)
            scale = -scale
        coeffs = poly_from_zeros(zeros, scale)
        if alpha == "multiplier":
            # m of degree 2, zero-free in the open disk: zeros of modulus >= 1.2
            m_zeros = [(_place(rng, "out") * 1.2 / 1.15, 1) for _ in range(2)]
            m = poly_from_zeros(m_zeros, 1.0 / abs(poly_from_zeros(m_zeros, 1.0)[0]))
            space = {"kind": "multiplier", "m": [[c.real, c.imag] for c in m]}
            facts_space = {"m": m}
        else:
            space = {"kind": "dirichlet", "alpha": alpha}
            facts_space = {"alpha": float(alpha)}
        argv = [cmd, "--space", json.dumps(space), "--f", _coeffs_json(coeffs),
                "--n-max", str(n_max), "--format", fmt]
        if taylor:
            argv.append("--taylor")
        jobs.append(Job(i, cmd, argv=argv, facts=dict(
            family=family, zeros=zeros, coeffs=coeffs, n_max=n_max, fmt=fmt,
            taylor=taylor, **facts_space)))
    return jobs


# ---------------------------------------------------------------------------
# project_mix: many small projections, stabilization reports, kernels
# ---------------------------------------------------------------------------

_ALPHAS = (-1, 0, 1, 2, 3)


_MIX_SLOTS = ("project", "project", "stabilize", "project", "project", "kernel", "project")

# Polynomial classes of one project_mix round, in slot order; the slot fixes
# alpha and the command (see gen_project_mix).  I/O/B: a zero inside, outside
# or on the circle; a digit is its multiplicity.  Slot 3 (alpha = 2, project)
# is the one job per round with a reproducible boundary zero at alpha = 2,
# whose certified boundary sums take about 0.3 s; the other boundary zeros
# sit where alpha makes them cheap or non-reproducible.  Slots 9, 18, 28, 40
# and 52 (degree 4-5 with a double zero) tend to RootFindingError, 13 and 36
# (a triple zero) to IllConditionedError, and 27 (a double zero on the
# circle) to CannotCertifyError.
_PROJECT_CLASSES = (
    "B I", "I", "I O", "B O", "B O", "I I", "O", "I I O", "O O", "I2 O I",
    "I O I O", "I O", "I I O", "I3", "B I", "I I", "I O O O", "I2", "O2 I O I", "O O I",
    "I I I", "B I O", "I2 O", "O I", "I O O I", "I O I I O", "I O O", "B2", "I I2 O", "O O O I",
    "I", "I O I O I", "I O I", "I O I", "O2 I", "B O O", "I3 O", "O I", "I I O", "O I O",
    "O2 I I O", "I O O I", "B I", "O I I I O", "I I2", "I O", "I", "I I I O", "O O", "I O O",
    "O I", "I O I O", "I2 O O", "I I O O", "O O I", "I O", "I O I O", "I I O", "B O", "O I I",
)


def _structure(code: str) -> list:
    return [(_WHERE[z[0]], int(z[1:] or 1)) for z in code.split()]


_PROJECT_DESIGN = [_structure(code) for code in _PROJECT_CLASSES]


def gen_project_mix(seed: int) -> list[Job]:
    rng = _rng("project_mix", seed)
    jobs = []
    structures = iter(_PROJECT_DESIGN * ROUNDS["project_mix"])
    for i in range(ROUND_SIZE["project_mix"] * ROUNDS["project_mix"]):
        alpha = _ALPHAS[i % 5]
        space = json.dumps({"kind": "dirichlet", "alpha": alpha})
        cmd = _MIX_SLOTS[i % 7]
        if cmd == "kernel":
            # kernel at a reproducible point: interior, or boundary for alpha > 1
            order = (i // 7) % 3
            if alpha > 1 and (i // 7) % 2 == 0:
                beta, order = _place(rng, "on"), 0
            else:
                beta = _place(rng, "in")
            fmt = ("json", "csv")[(i // 14) % 2]
            argv = ["kernel", "--space", space, "--beta",
                    json.dumps([beta.real, beta.imag]), "--order", str(order),
                    "--format", fmt]
            h = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(rng.randint(order + 1, 7))]
            jobs.append(Job(i, "kernel", argv=argv, facts=dict(
                alpha=float(alpha), beta=beta, order=order, fmt=fmt, h=h)))
            continue
        structure = next(structures)
        zeros = [(_place(rng, where), mult) for where, mult in structure]
        coeffs = poly_from_zeros(zeros, _scale(rng))
        n_max = 40 if cmd == "project" else 12
        argv = [cmd, "--space", space, "--f", _coeffs_json(coeffs), "--n-max", str(n_max)]
        jobs.append(Job(i, cmd, argv=argv, facts=dict(
            alpha=float(alpha), zeros=zeros, coeffs=coeffs, n_max=n_max, fmt="json")))
    return jobs


# ---------------------------------------------------------------------------
# series_certify: certificates on stored series
# ---------------------------------------------------------------------------

def _series_design() -> list:
    """(zero moduli, |c| or None, stored length, n_max) per slot.

    Drawn once from a fixed generator, so a slot's cost and failure class do
    not depend on the seed: 1-3 zeros; one slot in four has every zero of
    modulus 0.13-0.23, where r**k underflows in the envelope arithmetic once
    the stored length passes about 450, the others 0.27-0.78; a geometric
    factor 1/(1 - c z) in every other slot; stored lengths stratified over
    200-600 and n_max over 8-16.  The seed moves each modulus by up to 0.02
    and draws every phase.
    """
    design_rng = random.Random(20030310)
    design = []
    for i in range(40):
        band = (0.13, 0.23) if i % 4 == 0 else (0.27, 0.78)
        moduli = [design_rng.uniform(*band) for _ in range(1 + i % 3)]
        c = design_rng.uniform(0.12, 0.68) if i % 2 else None
        design.append((moduli, c, 200 + (17 * i) % 41 * 10, 8 + (5 * i) % 9))
    return design


_SERIES_DESIGN = _series_design()


def gen_series_certify(seed: int) -> list[Job]:
    rng = _rng("series_certify", seed)
    jobs = []
    design = _SERIES_DESIGN * ROUNDS["series_certify"]
    for i, (moduli, c_mod, length, n_max) in enumerate(design):
        zeros = [(r + rng.uniform(-0.02, 0.02)) * _phase(rng) for r in moduli]
        c = (c_mod + rng.uniform(-0.02, 0.02)) * _phase(rng) if c_mod else None
        params = dict(zeros=zeros, length=length, c=c, n_max=n_max)
        jobs.append(Job(i, "series", params=params, facts=dict(params)))
    return jobs


ROUND_SIZE = {"sweep_long": len(_SWEEP_DESIGN), "project_mix": 70, "series_certify": len(_SERIES_DESIGN)}

GENERATORS = {
    "sweep_long": gen_sweep_long,
    "project_mix": gen_project_mix,
    "series_certify": gen_series_certify,
}


# ---------------------------------------------------------------------------
# running a job
# ---------------------------------------------------------------------------


def run_cli(opa, argv) -> dict:
    """One in-process CLI job; stdout and stderr are captured, not printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = opa.cli.main(argv)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def run_series(opa, params) -> dict:
    """Build f = B (times 1/(1 - c z)) with the requested stored length and
    run the four certificates on it, through the library as a user would."""
    length = params["length"]
    f = opa.series.blaschke_product(params["zeros"], length=length)
    if params["c"] is not None:
        f = f.mul(opa.series.geometric_series(params["c"], length=length))
    space = opa.spaces.WeightSequence.dirichlet(0.0)
    report = opa.engine.detect_stabilization(space, f, n_max=params["n_max"])
    out = {"code": 0, "stabilized": report.stabilized, "M": report.M,
           "p_M": None, "dossier_passed": False, "is_inner": None, "orthogonal": False}
    out["is_inner"] = opa.engine.is_inner(space, f).is_inner
    if report.stabilized:
        out["p_M"] = [complex(c) for c in report.p_M.coeffs]
        out["dossier_passed"] = opa.engine.stabilization_dossier(space, f, report).all_passed
        pf = f.mul_poly(report.p_M)
        out["orthogonal"] = opa.engine.orthogonal_to_shifts(space, f, pf).orthogonal
    return out


def execute(opa, job: Job) -> dict:
    if job.argv is not None:
        return run_cli(opa, job.argv)
    return run_series(opa, job.params)
