"""Batch command-line front end.

Subcommands: approximate (sweep of optimal approximants), stabilize
(stabilization report plus identity dossier), project (closed-form projection
of 1 with oracle residuals), diagnose (cyclicity distance table), and kernel
(kernel series coefficients).

Output is deterministic: identical jobs produce byte-identical text.  JSON
is exactly ``json.dumps(payload, indent=2)`` plus a newline (fixed field order,
shortest round-trip floats, ``Infinity``/``NaN`` for non-finite values); every
CSV float cell is ``"%.17g" % x``.  Data goes to stdout (or --out);
diagnostics go to stderr.  Complex numbers serialize as two-element [re, im]
arrays everywhere.

Printing sets the cost of a sweep: approximate and stabilize print every
coefficient of every p_n*, Theta(n^2) doubles per job, against an O(n^2 d)
banded sweep.  So the commands print from the engine's arrays with O(1)
Python calls a job, none per degree: engine.sweep_arrays' X and dist (the
report's arrays for stabilize), the diagnostic's dist and alt.  A table of
rows (_Table in JSON, _csv and the approximate CSV) comes from one %
operation, and every coefficient of a payload from one
``textfmt.join_floats`` batch, which writes the text CPython would, byte for
byte (README "Performance notes" has the profile; textfmt says which values
and batches take the reference calls, as all scalar fields and cells do).
The JSON walk leaves a placeholder for each array, a table one per row, and
the batch fills them; CSV zero padding is a constant run of ``,0``.  What
remains of a sweep job is mostly the per-value work of join_floats' digit
and gather kernels.

Exit codes: 0 success (also for --help), 1 command-line, usage or unsupported
request error (a kernel at a point that is not reproducible, an --out path
that cannot be written, data whose weights, inner products or distances
overflow the double range), 2 orthogonal data (<g, f> = 0), 3 solver failure.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import textfmt
from .engine import (
    cyclicity_diagnostic,
    detect_stabilization,
    optimal_approximant,
    stabilization_dossier,
    sweep_arrays,
    taylor_residuals,
)
# unused here, but bound for perfbench/spans.py, which traces it by this name
from .engine import approximant_sweep  # noqa: F401
from .errors import (
    CannotCertifyError,
    IllConditionedError,
    NotPositiveDefiniteError,
    NotReproducibleError,
    OrthogonalDataError,
    RootFindingError,
)
from .projection import distance_to_poly, project_unity, recurrence_residual
from .series import CPoly
from .spaces import KernelSpec, WeightSequence, kernel_series

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ORTHOGONAL = 2
EXIT_SOLVER = 3


@dataclass
class JobSpec:
    command: str
    space: WeightSequence
    f: CPoly | None
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
    f = parse_coeffs(args.f) if hasattr(args, "f") else None  # kernel takes no f
    g = parse_coeffs(args.g) if getattr(args, "g", None) else CPoly([1])
    if not 0.0 < args.eps < math.inf:  # NaN too, which fails every certificate's test
        raise ValueError(f"eps must be a positive finite number, got {args.eps!r}")
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


def _pairs(pad: str) -> tuple[str, tuple]:
    """The text that opens a non-empty list of [re, im] pairs on a line whose
    newline and indent are pad, up to its placeholder, and the separators of
    its values (after a real part, after an imaginary part, after the last)."""
    inner = pad + "  "
    return f"[{inner}[{inner}  \0", (f",{inner}  ", f"{inner}],{inner}[{inner}  ", f"{inner}]{pad}]")


def _interleave(columns) -> list:
    """The values of equally long columns row by row: one C-level pass."""
    return list(itertools.chain.from_iterable(zip(*columns)))


@dataclass
class _Table:
    """A JSON list of objects with the same keys, given column by column: ints
    or floats (a range, an array or a list), or, for one key, a list of
    [re, im] pairs per row given as (values, lengths): one float64 array of
    every row's re, im values and each row's count of them (at least 2)."""

    columns: dict

    def text(self, pad: str, arrays: list) -> str:
        """As _json_text: one % operation for every row's keys and scalars."""
        inner = pad + "  "
        field = inner + "  "
        specs, scalars = [], []
        for key, column in self.columns.items():
            if isinstance(column, tuple):
                spec, seps = _pairs(field)
                arrays.append(column + (seps,))
            else:
                # '%r' is int.__repr__ and float.__repr__, so _float_text if finite
                spec, values = "%r", np.asarray(column).tolist()
                if not all(map(math.isfinite, values)):
                    spec, values = "%s", list(map(_float_text, values))
                scalars.append(values)
            specs.append(f"{_encode_str(key)}: {spec}")
        rows = len(scalars[0])
        if not rows:
            return "[]"
        row = f"{{{field}" + f",{field}".join(specs) + f"{inner}}}"
        body = (row + "," + inner) * (rows - 1) + row
        return f"[{inner}" + body % tuple(_interleave(scalars)) + f"{pad}]"


def _json_text(obj, pad: str, arrays: list) -> str:
    """obj as json's indent=2 text; pad is the newline and indent of its line.
    A non-empty numpy array of complex numbers, and each row's array of a
    _Table, ends its opening text in a NUL placeholder for its values, and
    (float values, lengths, separators) goes to arrays."""
    scalar = _SCALARS.get(type(obj))
    if scalar is not None:
        return scalar(obj)
    if isinstance(obj, np.ndarray):
        if not obj.size:
            return "[]"
        opening, seps = _pairs(pad)
        arrays.append((obj.view(float), [2 * obj.size], seps))
        return opening
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
        body = ("," + inner).join([_json_text(v, inner, arrays) for v in obj])
        return f"[{inner}{body}{pad}]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        body = ("," + inner).join(
            [f"{_encode_str(k)}: {_json_text(v, inner, arrays)}" for k, v in obj.items()]
        )
        return f"{{{inner}{body}{pad}}}"
    if isinstance(obj, _Table):
        return obj.text(pad, arrays)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _json_dump(obj) -> str:
    """``json.dumps(obj, indent=2) + "\\n"``, where a numpy array stands for
    the list of its [re, im] pairs, and a _Table for its list of objects.
    All arrays of the payload are formatted in one batch and put in place of
    their placeholders."""
    arrays: list = []
    text = _json_text(obj, "\n", arrays) + "\n"
    if not arrays:
        return text
    # one array (a sweep's table) is passed as it is, not copied
    values = arrays[0][0] if len(arrays) == 1 else np.concatenate([values for values, _, _ in arrays])
    lengths = np.concatenate([lengths for _, lengths, _ in arrays])
    seps = list(itertools.chain.from_iterable([seps] * len(lengths) for _, lengths, seps in arrays))
    return textfmt.join_floats(text.split("\0"), values, lengths, seps, shortest=True, ref=_float_text)


def _csv(header: list, *columns) -> str:
    """A label column (a range of ints) and float columns (``%.17g``)."""
    row = "\n%d" + ",%.17g" * (len(columns) - 1)
    return ",".join(header) + (row * len(columns[0])) % tuple(_interleave(columns)) + "\n"


def _coefficients(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(values, lengths) of the sweep array X (engine.sweep_arrays): column n
    up to its last nonzero entry, the coefficients CPoly keeps, as [re, im]
    float values for every n in one array, and each column's count of them."""
    nonzero = X != 0
    nonzero[0] = True  # CPoly keeps one coefficient of the zero polynomial
    lengths = X.shape[0] - np.argmax(nonzero[::-1], axis=0)
    return X.T[np.arange(X.shape[0]) < lengths[:, None]].view(float), 2 * lengths


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_approximate(job: JobSpec) -> tuple[str, int]:
    X, dist, _ = sweep_arrays(job.space, job.f, job.g, job.n_max)
    taylor = taylor_residuals(job.space, job.f, job.n_max) if job.taylor else None
    values, lengths = _coefficients(X)
    del X  # (n+1)^2 complex numbers, not needed while the text is written
    if job.fmt == "csv":
        width = job.n_max + 1
        scalars = [range(width), dist.tolist()] + ([taylor] if job.taylor else [])
        header = ["n", "dist_sq"] + (["taylor_residual"] if job.taylor else [])
        header += map("coeff_{0}_re,coeff_{0}_im".format, range(width))
        # each row's scalar cells, a placeholder for its coefficients, and the
        # zeros up to the widest row as a constant run: all rows in one %
        pads = list(map(",0".__mul__, (2 * width - lengths).tolist()))
        row = "\n%d" + ",%.17g" * (len(scalars) - 1) + ",\0%s"
        text = ",".join(header) + (row * width) % tuple(_interleave(scalars + [pads])) + "\n"
        seps = [(",", ",", "")] * width
        return textfmt.join_floats(text.split("\0"), values, lengths, seps, shortest=False), EXIT_OK
    columns = {"n": range(dist.size), "dist_sq": dist, "coeffs": (values, lengths)}
    if job.taylor:
        columns["taylor_residual"] = taylor
    return _json_dump({"job": job.to_dict(), "rows": _Table(columns)}), EXIT_OK


def cmd_stabilize(job: JobSpec) -> tuple[str, int]:
    if job.fmt == "csv":
        raise ValueError("stabilize emits a structured report; use --format json")
    report = detect_stabilization(
        job.space, job.f, job.g, n_max=job.n_max, eps=max(job.eps, 1e-12)
    )
    X, dist, _ = report.arrays
    payload = {
        "job": job.to_dict(),
        "stabilized": report.stabilized,
        "M": report.M,
        "certificate": report.certificate,
        "p_M": report.p_M.coeffs if report.p_M is not None else None,
        "rows": _Table({"n": range(dist.size), "dist_sq": dist, "coeffs": _coefficients(X)}),
    }
    if report.stabilized and job.space.monomials_orthogonal and job.g.coeffs.tolist() == [1]:
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
    approx = optimal_approximant(job.space, job.f, CPoly([1]), job.n_max)
    plateau_delta = abs(approx.distance_sq - result.dist_sq)
    pf = approx.p_star * job.f
    oracle_dist = distance_to_poly(
        job.space, pf, result, eps=1e-13, min_length=max(512, 4 * job.n_max)
    )
    recur = recurrence_residual(job.space, job.f, result, K=40)
    payload = {
        "job": job.to_dict(),
        "report": result.to_report(),
        "oracle": {
            "sweep_n": job.n_max,
            "sweep_dist_sq": approx.distance_sq,
            "plateau_delta": plateau_delta,
            "approximant_distance": oracle_dist.value,
            "approximant_distance_err": oracle_dist.err,
            "recurrence_residual": recur,
        },
    }
    return _json_dump(payload), EXIT_OK


def cmd_diagnose(job: JobSpec) -> tuple[str, int]:
    reference = None
    if job.f.coefficient(0) != 0 and job.space.monomials_orthogonal:
        reference = project_unity(job.space, job.f, eps=1e-9).dist_sq
    diag = cyclicity_diagnostic(
        job.space, job.f, n_max=job.n_max, reference_dist_sq=reference
    )
    degrees = range(job.n_max + 1)
    if job.fmt == "csv":
        return _csv(["n", "dist_sq"], degrees, diag.dist.tolist()), EXIT_OK
    payload = {
        "job": job.to_dict(),
        "rows": _Table({"n": degrees, "dist_sq": diag.dist, "one_minus_pf0": diag.alt}),
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
        rows = series.coeffs.size
        pairs = textfmt.join_floats(
            ["", ""], series.coeffs.view(float), [2 * rows], [(",", "\n", "")], shortest=False
        ).split("\n")
        return "k,re,im" + ("\n%d,%s" * rows) % tuple(_interleave([range(rows), pairs])) + "\n", EXIT_OK
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
    p.add_argument("--eps", type=float, default=1e-9)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None)
    return parser


# one parser for every job of the process, built by the first call to main
_shared_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    """Run one CLI job and return its exit code.

    The argument parser is built once per process, on the first call, and
    serves every later job; parsing leaves it unchanged.  A command-line
    usage error exits with EXIT_USAGE (argparse's own code, 2, is taken by
    orthogonal data); ``--help`` exits with 0.
    """
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the help or the usage error
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        job = parse_job(args)
    except (ValueError, OverflowError, OSError, json.JSONDecodeError) as exc:
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
    except (ValueError, OverflowError, NotReproducibleError) as exc:
        print(f"opa: {job.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    out_path = getattr(args, "out", None)
    try:
        _emit(text, out_path)
    except OSError as exc:
        if not out_path:  # a failing stdout (a closed pipe) keeps its own exception
            raise
        print(f"opa: {job.command}: cannot write {out_path}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
