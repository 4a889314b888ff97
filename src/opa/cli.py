"""Batch command-line front end.

Subcommands: approximate (sweep of optimal approximants), stabilize
(stabilization report plus identity dossier), project (closed-form projection
of 1 with oracle residuals), diagnose (cyclicity distance table), and kernel
(kernel series coefficients).

Output is deterministic: identical jobs produce byte-identical JSON (fixed
field order, shortest round-trip floats) and CSV uses 17 significant digits.
Data goes to stdout (or --out); diagnostics go to stderr.  Complex numbers
serialize as two-element [re, im] arrays everywhere.

Exit codes: 0 success, 1 usage or unsupported request, 2 orthogonal data
(<g, f> = 0), 3 solver failure, 4 undecidable zero classification.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from .engine import (
    approximant_sweep,
    cyclicity_diagnostic,
    detect_stabilization,
    stabilization_dossier,
    taylor_residuals,
)
from .errors import (
    CannotCertifyError,
    IllConditionedError,
    NotPositiveDefiniteError,
    OrthogonalDataError,
    RootFindingError,
    UndecidableError,
)
from .projection import distance_to_poly, project_unity, recurrence_residual
from .series import CPoly
from .spaces import KernelSpec, WeightSequence, kernel_series

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ORTHOGONAL = 2
EXIT_SOLVER = 3
EXIT_UNDECIDABLE = 4


@dataclass
class JobSpec:
    command: str
    space: WeightSequence
    f: CPoly
    g: CPoly
    n_max: int
    eps: float
    fmt: str  # 'json' | 'csv'
    taylor: bool = False
    beta: complex = 0j
    order: int = 0
    flavor: str = "kernel_for_derivatives"

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "space": self.space.to_descriptor(),
            "f": _coeffs_out(self.f),
            "g": _coeffs_out(self.g),
            "n_max": self.n_max,
            "eps": self.eps,
            "format": self.fmt,
        }


def _coeffs_out(p: CPoly) -> list:
    return [[float(c.real), float(c.imag)] for c in p.coeffs]


def parse_coeffs(text: str) -> CPoly:
    """Accept [[re, im], ...] (canonical) or a bare list of reals."""
    data = json.loads(text) if isinstance(text, str) else text
    if not isinstance(data, list) or not data:
        raise ValueError("coefficients must be a non-empty JSON array")
    coeffs = []
    for item in data:
        if isinstance(item, (int, float)):
            coeffs.append(complex(item))
        elif isinstance(item, list) and len(item) == 2:
            coeffs.append(complex(item[0], item[1]))
        else:
            raise ValueError(f"bad coefficient entry: {item!r}")
    return CPoly(coeffs)


def parse_space(text: str) -> WeightSequence:
    """Inline JSON descriptor, or a path to a file holding one."""
    text = text.strip()
    if not text.startswith("{"):
        with open(text, "r", encoding="utf-8") as fh:
            text = fh.read()
    return WeightSequence.from_descriptor(json.loads(text))


def parse_job(args: argparse.Namespace) -> JobSpec:
    space = parse_space(args.space)
    f = parse_coeffs(args.f)
    g = parse_coeffs(args.g) if getattr(args, "g", None) else CPoly([1])
    return JobSpec(
        command=args.command,
        space=space,
        f=f,
        g=g,
        n_max=getattr(args, "n_max", 10),
        eps=getattr(args, "eps", 1e-9),
        fmt=getattr(args, "format", "json"),
        taylor=getattr(args, "taylor", False),
        beta=complex(*json.loads(args.beta)) if getattr(args, "beta", None) else 0j,
        order=getattr(args, "order", 0),
        flavor=getattr(args, "flavor", "kernel_for_derivatives"),
    )


def _fmt17(x: float) -> str:
    return format(float(x), ".17g")


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=False) + "\n"


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_approximate(job: JobSpec) -> tuple[str, int]:
    results = approximant_sweep(job.space, job.f, job.g, job.n_max)
    taylor = None
    if job.taylor:
        taylor = taylor_residuals(job.space, job.f, job.n_max)
    if job.fmt == "csv":
        width = job.n_max + 1
        header = ["n", "dist_sq"]
        if taylor is not None:
            header.append("taylor_residual")
        for k in range(width):
            header += [f"coeff_{k}_re", f"coeff_{k}_im"]
        lines = [",".join(header)]
        for r in results:
            row = [str(r.n), _fmt17(r.distance_sq)]
            if taylor is not None:
                row.append(_fmt17(taylor[r.n]))
            padded = r.p_star.padded(width)
            for c in padded:
                row += [_fmt17(c.real), _fmt17(c.imag)]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n", EXIT_OK
    rows = []
    for r in results:
        row = {
            "n": r.n,
            "dist_sq": r.distance_sq,
            "coeffs": _coeffs_out(r.p_star),
        }
        if taylor is not None:
            row["taylor_residual"] = taylor[r.n]
        rows.append(row)
    return _json_dump({"job": job.to_dict(), "rows": rows}), EXIT_OK


def cmd_stabilize(job: JobSpec) -> tuple[str, int]:
    if job.fmt == "csv":
        raise ValueError("stabilize emits a structured report; use --format json")
    report = detect_stabilization(
        job.space, job.f, job.g, n_max=job.n_max, eps=max(job.eps, 1e-12)
    )
    payload = {
        "job": job.to_dict(),
        "stabilized": report.stabilized,
        "M": report.M,
        "certificate": report.certificate,
        "p_M": _coeffs_out(report.p_M) if report.p_M is not None else None,
        "rows": [
            {"n": r.n, "dist_sq": r.distance_sq, "coeffs": _coeffs_out(r.p_star)}
            for r in report.sweep
        ],
    }
    if report.stabilized and job.g.degree == 0 and job.g.coefficient(0) == 1:
        dossier = stabilization_dossier(job.space, job.f, report)
        payload["dossier"] = {
            "M": dossier.M,
            "c": dossier.c,
            "all_passed": dossier.all_passed,
            "checks": [
                {
                    "name": c.name,
                    "passed": c.passed,
                    "value": c.value,
                    "detail": c.detail,
                }
                for c in dossier.checks
            ],
        }
    return _json_dump(payload), EXIT_OK


def cmd_project(job: JobSpec) -> tuple[str, int]:
    if job.fmt == "csv":
        raise ValueError("project emits a structured report; use --format json")
    result = project_unity(job.space, job.f, eps=min(job.eps, 1e-9))
    sweep = approximant_sweep(job.space, job.f, CPoly([1]), job.n_max)
    plateau_delta = abs(sweep[-1].distance_sq - result.dist_sq)
    pf = sweep[-1].p_star * job.f
    oracle_dist = distance_to_poly(
        job.space, pf, result, eps=1e-13, min_length=max(512, 4 * job.n_max)
    )
    recur = recurrence_residual(job.space, job.f, result, K=40)
    payload = {
        "job": job.to_dict(),
        "report": result.to_report(),
        "oracle": {
            "sweep_n": job.n_max,
            "sweep_dist_sq": sweep[-1].distance_sq,
            "plateau_delta": plateau_delta,
            "approximant_distance": oracle_dist.value,
            "approximant_distance_err": oracle_dist.err,
            "recurrence_residual": recur,
        },
    }
    return _json_dump(payload), EXIT_OK


def cmd_diagnose(job: JobSpec) -> tuple[str, int]:
    reference = None
    if isinstance(job.f, CPoly) and job.f.coefficient(0) != 0 and job.space.monomials_orthogonal:
        try:
            reference = project_unity(job.space, job.f, eps=1e-9).dist_sq
        except UndecidableError:
            reference = None
    diag = cyclicity_diagnostic(
        job.space, job.f, n_max=job.n_max, reference_dist_sq=reference
    )
    if job.fmt == "csv":
        lines = ["n,dist_sq"]
        for n, dist, _ in diag.rows:
            lines.append(f"{n},{_fmt17(dist)}")
        return "\n".join(lines) + "\n", EXIT_OK
    payload = {
        "job": job.to_dict(),
        "rows": [
            {"n": n, "dist_sq": d, "one_minus_pf0": alt} for n, d, alt in diag.rows
        ],
        "identity_max_dev": diag.identity_max_dev,
        "verdict": diag.verdict,
        "plateau": diag.plateau,
        "reference_dist_sq": diag.reference_dist_sq,
    }
    return _json_dump(payload), EXIT_OK


def cmd_kernel(job: JobSpec) -> tuple[str, int]:
    spec = KernelSpec(job.beta, job.order, job.flavor)
    series = kernel_series(job.space, spec, eps=job.eps)
    if job.fmt == "csv":
        lines = ["k,re,im"]
        for k, c in enumerate(series.coeffs):
            lines.append(f"{k},{_fmt17(c.real)},{_fmt17(c.imag)}")
        return "\n".join(lines) + "\n", EXIT_OK
    payload = {
        "space": job.space.to_descriptor(),
        "beta": [job.beta.real, job.beta.imag],
        "order": job.order,
        "flavor": job.flavor,
        "coeffs": [[c.real, c.imag] for c in series.coeffs],
        "envelope": {
            "M": series.tail_M,
            "r": series.tail_r,
            "gamma": series.tail_gamma,
        },
    }
    return _json_dump(payload), EXIT_OK


_COMMANDS = {
    "approximate": cmd_approximate,
    "stabilize": cmd_stabilize,
    "project": cmd_project,
    "diagnose": cmd_diagnose,
    "kernel": cmd_kernel,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opa",
        description="Optimal polynomial approximants in weighted Hardy spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, need_g=True):
        p.add_argument("--space", required=True, help="JSON descriptor or file path")
        p.add_argument("--f", required=True, help="coefficients [[re,im],...]")
        if need_g:
            p.add_argument("--g", default=None, help="coefficients (default: 1)")
        p.add_argument("--n-max", dest="n_max", type=int, default=10)
        p.add_argument("--eps", type=float, default=1e-9)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None, help="write output to a file")

    p = sub.add_parser("approximate", help="sweep of optimal approximants")
    common(p)
    p.add_argument(
        "--taylor",
        action="store_true",
        help="also emit the Taylor-truncation residual ||T_n(1/f) f - 1||",
    )
    p = sub.add_parser("stabilize", help="stabilization report and dossier")
    common(p)
    p = sub.add_parser("project", help="projection of 1 with oracle residuals")
    common(p, need_g=False)
    p = sub.add_parser("diagnose", help="cyclicity distance table")
    common(p, need_g=False)
    p = sub.add_parser("kernel", help="kernel series coefficients")
    p.add_argument("--space", required=True)
    p.add_argument("--beta", required=True, help="[re, im]")
    p.add_argument("--order", type=int, default=0)
    p.add_argument(
        "--flavor",
        choices=("kernel_for_derivatives", "derivative_of_kernel"),
        default="kernel_for_derivatives",
    )
    p.add_argument("--f", default="[[1,0]]", help=argparse.SUPPRESS)
    p.add_argument("--eps", type=float, default=1e-9)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        job = parse_job(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"opa: bad job: {exc}", file=sys.stderr)
        return EXIT_USAGE
    handler = _COMMANDS[job.command]
    try:
        text, code = handler(job)
    except OrthogonalDataError as exc:
        print(f"opa: {job.command}: orthogonal data: {exc}", file=sys.stderr)
        return EXIT_ORTHOGONAL
    except (NotPositiveDefiniteError, RootFindingError, IllConditionedError, CannotCertifyError) as exc:
        print(f"opa: {job.command}: solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except UndecidableError as exc:
        print(f"opa: {job.command}: undecidable classification: {exc}", file=sys.stderr)
        return EXIT_UNDECIDABLE
    except ValueError as exc:
        print(f"opa: {job.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _emit(text, getattr(args, "out", None))
    return code


if __name__ == "__main__":
    sys.exit(main())
