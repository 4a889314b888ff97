"""Batch command-line front end.

Subcommands: approximate (sweep of optimal approximants), stabilize
(stabilization report plus identity dossier), project (closed-form projection
of 1 with oracle residuals), diagnose (cyclicity distance table), and kernel
(kernel series coefficients).

Output is deterministic: identical jobs produce byte-identical text.  JSON
is exactly ``json.dumps(payload, indent=2)`` plus a newline (fixed field order,
shortest round-trip floats, ``Infinity``/``NaN`` for non-finite values); every
CSV float cell is ``"%.17g" % x``.  One bulk writer produces both: complex
coefficient arrays are formatted as whole blocks instead of value by value.
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

import numpy as np

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
            "f": self.f.coeffs.view(float).reshape(-1, 2).tolist(),
            "g": self.g.coeffs.view(float).reshape(-1, 2).tolist(),
            "n_max": self.n_max,
            "eps": self.eps,
            "format": self.fmt,
        }


def _is_real(x) -> bool:
    """A JSON number that is a finite double (JSON true/false are not numbers;
    the exact comparison also refuses NaN, infinities and oversized ints)."""
    return type(x) in (int, float) and -sys.float_info.max <= x <= sys.float_info.max


def _complex_pair(item, what: str) -> complex:
    """A JSON [re, im] pair of finite real numbers as a complex number."""
    if isinstance(item, list) and len(item) == 2 and all(map(_is_real, item)):
        return complex(item[0], item[1])
    raise ValueError(f"bad {what}: {item!r}")


def parse_coeffs(text: str) -> CPoly:
    """Accept [[re, im], ...] (canonical) or a bare list of reals."""
    data = json.loads(text) if isinstance(text, str) else text
    if not isinstance(data, list) or not data:
        raise ValueError("coefficients must be a non-empty JSON array")
    coeffs = []
    for item in data:
        if _is_real(item):
            item = [item, 0]
        coeffs.append(_complex_pair(item, "coefficient entry"))
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
        beta=_complex_pair(json.loads(args.beta), "beta (want [re, im])")
        if getattr(args, "beta", None)
        else 0j,
        order=getattr(args, "order", 0),
        flavor=getattr(args, "flavor", "kernel_for_derivatives"),
    )


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# bulk writers
# ---------------------------------------------------------------------------

_encode_str = json.encoder.encode_basestring_ascii
_NONFINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


def _float_text(x: float) -> str:
    text = float.__repr__(x)
    return _NONFINITE.get(text, text)


_SCALARS = {
    float: _float_text,
    int: int.__repr__,
    str: _encode_str,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _complex_block(z: np.ndarray, pad: str) -> str:
    """A contiguous 1-D complex array as json's indented [[re, im], ...] text,
    in one format."""
    if not z.size:
        return "[]"
    inner = pad + "  "
    pair = f"[{inner}  %s,{inner}  %s{inner}]"
    texts = list(map(float.__repr__, z.view(float).tolist()))
    if not np.isfinite(z).all():
        texts = [_NONFINITE.get(t, t) for t in texts]
    template = "[" + inner + ("," + inner).join([pair] * z.size) + pad + "]"
    return template % tuple(texts)


def _json_text(obj, pad: str) -> str:
    """obj as json's indent=2 text; pad is the newline and indent of its line."""
    scalar = _SCALARS.get(type(obj))
    if scalar is not None:
        return scalar(obj)
    if isinstance(obj, np.ndarray):
        return _complex_block(obj, pad)
    inner = pad + "  "
    # the rest (numpy floats, containers) in json's order of checks
    if isinstance(obj, str):
        return _encode_str(obj)
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _float_text(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        body = ("," + inner).join([_json_text(v, inner) for v in obj])
        return f"[{inner}{body}{pad}]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        body = ("," + inner).join(
            [f"{_encode_str(k)}: {_json_text(v, inner)}" for k, v in obj.items()]
        )
        return f"{{{inner}{body}{pad}}}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _json_dump(obj) -> str:
    """``json.dumps(obj, indent=2) + "\\n"``, where a numpy array stands for
    the list of its [re, im] pairs."""
    return _json_text(obj, "\n") + "\n"


def _csv(header: list, rows) -> str:
    """A label column (``str``) and ``len(header) - 1`` float columns (``%.17g``)."""
    row_format = "%s" + ",%.17g" * (len(header) - 1)
    return "\n".join([",".join(header)] + [row_format % row for row in rows]) + "\n"


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
        rows = (
            (r.n, r.distance_sq)
            + (() if taylor is None else (taylor[r.n],))
            + tuple(r.p_star.padded(width).view(float).tolist())
            for r in results
        )
        return _csv(header, rows), EXIT_OK
    rows = []
    for r in results:
        row = {
            "n": r.n,
            "dist_sq": r.distance_sq,
            "coeffs": r.p_star.coeffs,
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
        "p_M": report.p_M.coeffs if report.p_M is not None else None,
        "rows": [
            {"n": r.n, "dist_sq": r.distance_sq, "coeffs": r.p_star.coeffs}
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
        return _csv(["n", "dist_sq"], ((n, d) for n, d, _ in diag.rows)), EXIT_OK
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
        pairs = series.coeffs.view(float).reshape(-1, 2).tolist()
        rows = ((k, re, im) for k, (re, im) in enumerate(pairs))
        return _csv(["k", "re", "im"], rows), EXIT_OK
    payload = {
        "space": job.space.to_descriptor(),
        "beta": [job.beta.real, job.beta.imag],
        "order": job.order,
        "flavor": job.flavor,
        "coeffs": series.coeffs,
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
