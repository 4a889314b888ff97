"""Dump, and compare, the outcome of every job of the benchmark workloads.

Dump: run every job of ``sweep_long``, ``project_mix`` and ``series_certify``
(or only those named by ``--workloads``) for the given seeds in-process
(through ``perfbench/workloads.py``, read-only) and write one JSON line per
job with its exit code, stdout and stderr::

    python3 tools/cli_digest.py --seeds 1 2 > new.jsonl
    python3 tools/cli_digest.py --root ../parent --seeds 1 2 > old.jsonl
    python3 tools/cli_digest.py --workloads project_mix --seeds 1 2 3 > roots.jsonl

CLI jobs run through ``workloads.run_cli``.  A ``series_certify`` job is a
library job on a stored series, run through ``workloads.run_series``: its
outcome (``stabilized``, ``M``, ``p_M`` with each coefficient as an
``[re, im]`` pair, ``is_inner``, ``orthogonal``, ``dossier_passed``) is its
JSON stdout with exit code 0, and a typed refusal (``OpaError``) is exit
code 1 with the exception as stderr.

``--root`` picks the checkout whose ``src/`` and ``perfbench/`` are used
(default: the one holding this script), so one copy of the tool dumps any
commit.

Compare: ``python3 tools/cli_digest.py --compare old.jsonl new.jsonl`` prints
each job whose exit code, stderr or stdout differ; it lists every differing
field path (list indices as ``[]``) with the largest relative and the largest
absolute change, then a summary per path over all jobs.  JSON stdout is
compared field by field, CSV stdout cell by cell: row r's cell in column
``dist_sq`` is at ``csv[].dist_sq``, and numbered columns share one path with
the number as an index (``coeff_3_re`` is at ``csv[].coeff_[]_re[]``).  The
absolute change tells a value at rounding level (a distance of a cyclic f
that moves from 1e-16 to 3e-17) from a real one, where the relative change
alone cannot.  A changed value that carries
an error bar in the same payload (``ERROR_BARS``) is also set against it: the
largest ``|new - old| / (old err + new err)`` per path, flagged when above 1,
since a change within the two bars is one both runs certify.  A residual
(``RESIDUALS``) is rounding-sized when all is well, so its relative change
says nothing: its largest old and new values are printed instead.  Then
comes one ``<workload>: <d> of <n> jobs differ`` line per workload, and last
the total, ``<d> of <n> jobs differ``.  The exit code is 1 when any job
differs, else 0.  A job whose stdout bytes differ
while every parsed value is equal (``1e-05`` against ``1e-5``) is reported
as "stdout bytes differ, values equal" and differs too.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from pathlib import Path

WORKLOADS = ("sweep_long", "project_mix", "series_certify")
# value path -> path of its certified error bar in the same JSON payload
ERROR_BARS = {
    "oracle.approximant_distance": "oracle.approximant_distance_err",
    "report.constants[].value[]": "report.gram_err",
    "report.phi0": "report.gram_err",
    "report.dist_sq": "report.gram_err",
}
# value paths that are residuals, reported by their largest old and new values
RESIDUALS = (
    "oracle.recurrence_residual",
    "oracle.plateau_delta",
    "rows[].taylor_residual",
    "identity_max_dev",
)


def dump(root: Path, names, seeds, out) -> int:
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import opa
    import opa.cli  # noqa: F401  (run_cli reaches it as an attribute)
    import workloads

    count = 0
    for name in names:
        for seed in seeds:
            for job in workloads.GENERATORS[name](seed):
                if job.argv is None:
                    res = series_row(opa, workloads, job.params)
                else:
                    res = workloads.run_cli(opa, job.argv)
                row = {"job": f"{name}/{seed}/{job.index}", "kind": job.kind, **res}
                out.write(json.dumps(row) + "\n")
                count += 1
    return count


def series_row(opa, workloads, params) -> dict:
    """A series_certify job as a row like a CLI job's."""
    try:
        out = workloads.run_series(opa, params)
    except opa.errors.OpaError as exc:
        return {"code": 1, "stdout": "", "stderr": f"{type(exc).__name__}: {exc}"}
    if out["p_M"] is not None:
        out["p_M"] = [[c.real, c.imag] for c in out["p_M"]]
    return {"code": out.pop("code"), "stdout": json.dumps(out), "stderr": ""}


def _load(path) -> dict:
    with open(path) as fh:
        return {row["job"]: row for row in map(json.loads, fh)}


def _change(a, b) -> tuple:
    """(relative, absolute) change from a to b; inf for non-numbers that differ."""
    if a == b:
        return 0.0, 0.0
    if isinstance(a, bool) or isinstance(b, bool):
        return math.inf, math.inf
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        scale = max(abs(a), abs(b))
        return (abs(a - b) / scale if scale > 0 else math.inf), abs(a - b)
    return math.inf, math.inf


def field_diffs(a, b, path: str = "") -> dict:
    """Differing field paths of two JSON values -> (largest relative change,
    largest absolute change)."""
    out: dict = {}

    def note(p, change):
        old = out.get(p, (0.0, 0.0))
        out[p] = (max(old[0], change[0]), max(old[1], change[1]))

    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            p = f"{path}.{key}" if path else key
            if key not in a or key not in b:
                note(p, (math.inf, math.inf))
            else:
                for q, c in field_diffs(a[key], b[key], p).items():
                    note(q, c)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            note(path + "[]", (math.inf, math.inf))
        for x, y in zip(a, b):
            for q, c in field_diffs(x, y, path + "[]").items():
                note(q, c)
    elif a != b:
        note(path or "<root>", _change(a, b))
    return out


def _cell(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def parse_stdout(text: str):
    """JSON stdout as parsed; any other stdout as CSV, ``{"csv": rows}`` with
    one dict per data row.  A column whose name holds a number is gathered with
    the other columns of that name, the number read as a list index."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        pass
    lines = text.splitlines()
    header = lines[0].split(",") if lines else []
    rows = []
    for line in lines[1:]:
        row: dict = {}
        for name, cell in zip(header, line.split(",")):
            folded = re.sub(r"\d+", "[]", name)
            if folded == name:
                row[name] = _cell(cell)
            else:
                row.setdefault(folded, []).append(_cell(cell))
        rows.append(row)
    return {"csv": rows}


def leaves(x, path: str = ""):
    """(path, value) of every scalar in a JSON value, in document order."""
    if isinstance(x, dict):
        for key, v in x.items():
            yield from leaves(v, f"{path}.{key}" if path else key)
    elif isinstance(x, list):
        for v in x:
            yield from leaves(v, path + "[]")
    else:
        yield path, x


def _values(x) -> dict:
    """Path -> list of the scalars at that path in a JSON value."""
    out: dict = {}
    for p, v in leaves(x):
        out.setdefault(p, []).append(v)
    return out


def residual_maxima(a, b) -> dict:
    """Path of RESIDUALS whose values differ -> (largest old, largest new)."""
    va, vb = _values(a), _values(b)

    def largest(vals):  # nulls and other non-numbers are skipped
        return max((v for v in vals if isinstance(v, (int, float))), default=math.nan)

    return {
        p: (largest(va[p]), largest(vb[p]))
        for p in RESIDUALS
        if p in va and p in vb and va[p] != vb[p]
    }


def error_bar_ratios(a, b) -> dict:
    """Path of ERROR_BARS -> largest |new - old| / (old err + new err)."""
    va, vb = _values(a), _values(b)
    out = {}
    for p, bar in ERROR_BARS.items():
        if p not in va or p not in vb or va[p] == vb[p]:
            continue
        try:
            width = va[bar][0] + vb[bar][0]
            diff = max(abs(x - y) for x, y in zip(va[p], vb[p], strict=True))
        except (KeyError, TypeError, ValueError):  # no bar, null, or a changed shape
            out[p] = math.inf
            continue
        out[p] = diff / width if width > 0 else math.inf
    return out


def compare(old_path, new_path) -> int:
    old, new = _load(old_path), _load(new_path)
    summary: dict = {}
    bars: dict = {}
    residuals: dict = {}
    per_workload: dict = {}  # workload -> [jobs differing, jobs]
    for job in sorted(set(old) | set(new)):
        counts = per_workload.setdefault(job.split("/")[0], [0, 0])
        counts[1] += 1
        if job not in old or job not in new:
            print(f"{job}: only in {'new' if job in new else 'old'}")
            counts[0] += 1
            continue
        a, b = old[job], new[job]
        lines = []
        if a["code"] != b["code"]:
            lines.append(f"  exit code {a['code']} -> {b['code']}")
        if a["stderr"] != b["stderr"]:
            lines.append(f"  stderr {a['stderr']!r} -> {b['stderr']!r}")
        if a["stdout"] != b["stdout"]:
            value_lines = len(lines)
            ja, jb = parse_stdout(a["stdout"]), parse_stdout(b["stdout"])
            diffs, ratios = field_diffs(ja, jb), error_bar_ratios(ja, jb)
            maxima = residual_maxima(ja, jb)
            for p, (x, y) in maxima.items():
                lines.append(f"  {p}: largest old {x:.3g}, new {y:.3g}")
                n, wx, wy = residuals.get((b["kind"], p), (0, 0.0, 0.0))
                residuals[(b["kind"], p)] = (n + 1, max(wx, x), max(wy, y))
            for p, (r, d) in diffs.items():
                if p in maxima:
                    continue
                lines.append(f"  {p}: relative {r:.3g}, absolute {d:.3g}")
                n, worst, worst_abs = summary.get((b["kind"], p), (0, 0.0, 0.0))
                summary[(b["kind"], p)] = (n + 1, max(worst, r), max(worst_abs, d))
            for p, r in ratios.items():
                lines.append(f"  {p}: {r:.3g} of old + new error bar")
                bars[(b["kind"], p)] = max(bars.get((b["kind"], p), 0.0), r)
            if len(lines) == value_lines:  # e.g. 1e-05 printed as 1e-5
                lines.append("  stdout bytes differ, values equal")
        if lines:
            counts[0] += 1
            print(f"{job} ({b['kind']})")
            print("\n".join(lines))
    for (kind, p), (n, worst, worst_abs) in sorted(summary.items()):
        print(f"  {kind} {p}: {n} jobs, largest relative change {worst:.3g}, largest absolute change {worst_abs:.3g}")
    for (kind, p), (n, x, y) in sorted(residuals.items()):
        print(f"  {kind} {p}: {n} jobs, largest old {x:.3g}, largest new {y:.3g}")
    for (kind, p), worst in sorted(bars.items()):
        flag = "  ABOVE 1: outside both error bars" if worst > 1 else ""
        print(f"  {kind} {p}: largest change {worst:.3g} of old + new error bar{flag}")
    for name, (d, n) in per_workload.items():
        print(f"{name}: {d} of {n} jobs differ")
    differing = sum(d for d, _ in per_workload.values())
    print(f"{differing} of {len(set(old) | set(new))} jobs differ")
    return 1 if differing else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    n = dump(args.root.resolve(), args.workloads, args.seeds, sys.stdout)
    print(f"{n} jobs dumped", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
