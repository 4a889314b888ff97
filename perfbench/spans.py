"""Span tracing at the layer boundaries of opa, from the benchmark's side.

``Tracer.install(opa)`` replaces each traced function at the name its callers
look up (a module global such as ``opa.engine.inner_any``, a class attribute
such as ``CPoly.shift``, or an entry of ``opa.cli._COMMANDS``) with a wrapper
that records a span: name, start, end, parent and the exception class if the
call raised.  ``uninstall`` puts the originals back.  Spans are held in
compact arrays and written out when the run ends; self times, outermost
totals and failures are derived from them afterwards.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np

# (module attribute path, attribute, span name).  A function imported into
# several modules is patched in each module that calls it.
PATCH_POINTS = [
    ("engine", "build_system", "engine.build_system"),
    ("engine", "approximant_sweep", "engine.approximant_sweep"),
    ("cli", "approximant_sweep", "engine.approximant_sweep"),
    ("engine", "detect_stabilization", "engine.detect_stabilization"),
    ("cli", "detect_stabilization", "engine.detect_stabilization"),
    ("engine", "is_inner", "engine.is_inner"),
    ("engine", "orthogonal_to_shifts", "engine.orthogonal_to_shifts"),
    ("engine", "stabilization_dossier", "engine.stabilization_dossier"),
    ("cli", "stabilization_dossier", "engine.stabilization_dossier"),
    ("cli", "cyclicity_diagnostic", "engine.cyclicity_diagnostic"),
    ("cli", "taylor_residuals", "engine.taylor_residuals"),
    ("engine", "cholesky_factor", "linalg.cholesky_factor"),
    ("engine", "cholesky_border", "linalg.cholesky_border"),
    ("projection", "cholesky_factor", "linalg.cholesky_factor"),
    ("engine", "solve_factored", "linalg.solve_factored"),
    ("projection", "solve_factored", "linalg.solve_factored"),
    ("engine", "poly_roots", "linalg.poly_roots"),
    ("projection", "poly_roots", "linalg.poly_roots"),
    ("linalg", "poly_roots", "linalg.poly_roots"),
    ("engine", "inner_any", "spaces.inner_any"),
    ("engine", "norm_sq_any", "spaces.norm_sq_any"),
    ("spaces", "norm_sq_poly", "spaces.norm_sq_poly"),
    ("spaces", "inner_series", "spaces.inner_series"),
    ("spaces", "falling_product_sum", "spaces.falling_product_sum"),
    ("projection", "falling_product_sum", "spaces.falling_product_sum"),
    ("projection", "kernel_inner", "spaces.kernel_inner"),
    ("cli", "kernel_series", "spaces.kernel_series"),
    ("spaces", "is_reproducible", "spaces.is_reproducible"),
    ("projection", "is_reproducible", "spaces.is_reproducible"),
    ("projection", "classify_zeros", "projection.classify_zeros"),
    ("cli", "project_unity", "projection.project_unity"),
    ("cli", "distance_to_poly", "projection.distance_to_poly"),
    ("cli", "recurrence_residual", "projection.recurrence_residual"),
    ("projection", "blaschke_projection", "projection.blaschke_projection"),
    ("series", "series_mul", "series.series_mul"),
    ("series.TruncSeries", "mul_poly", "series.TruncSeries.mul_poly"),
    ("series.TruncSeries", "shift", "series.TruncSeries.shift"),
    ("series.CPoly", "shift", "series.CPoly.shift"),
    ("series.CPoly", "__mul__", "series.CPoly.__mul__"),
    ("series.CPoly", "__rmul__", "series.CPoly.__mul__"),
    ("series", "blaschke_factor", "series.blaschke_factor"),
    ("series", "blaschke_product", "series.blaschke_product"),
    ("projection", "blaschke_product", "series.blaschke_product"),
    ("series", "geometric_series", "series.geometric_series"),
    ("series", "reciprocal_taylor", "series.reciprocal_taylor"),
    ("cli", "parse_job", "cli.parse_job"),
]
HANDLERS = "cli.handler"  # every entry of opa.cli._COMMANDS


def _factor_bytes(tracer, result):
    # a dense complex factor: 16 bytes per entry
    tracer.count("linalg.factor.bytes", 16 * int(result.size))


def _sweep_rows(tracer, result):
    tracer.count("engine.rows", len(result))


ON_RESULT = {
    "linalg.cholesky_factor": _factor_bytes,
    "linalg.cholesky_border": _factor_bytes,
    "engine.approximant_sweep": _sweep_rows,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.errors: list[str] = [""]
        self._error_ids: dict[str, int] = {"": 0}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.name = array("l")
        self.error = array("l")
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}
        self._saved: list = []

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def begin(self, name: str) -> int:
        return self._begin(self._id(name))

    def _begin(self, name_id: int) -> int:
        idx = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(name_id)
        self.error.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int, exc: BaseException | None = None):
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        if exc is not None:
            cls = type(exc).__name__
            if cls not in self._error_ids:
                self._error_ids[cls] = len(self.errors)
                self.errors.append(cls)
            self.error[idx] = self._error_ids[cls]

    def wrap(self, name: str, fn):
        name_id = self._id(name)
        on_result = ON_RESULT.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._begin(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.finish(idx, exc)
                raise
            tracer.finish(idx)
            if on_result is not None:
                on_result(tracer, result)
            return result

        return traced

    # -- patching -------------------------------------------------------------

    def install(self, opa):
        for path, attr, name in PATCH_POINTS:
            obj = opa
            for part in path.split("."):
                obj = getattr(obj, part)
            original = obj.__dict__[attr] if isinstance(obj, type) else getattr(obj, attr)
            self._saved.append((obj, attr, original))
            setattr(obj, attr, self.wrap(name, original))
        commands = opa.cli._COMMANDS
        for key, fn in list(commands.items()):
            self._saved.append((commands, key, fn))
            commands[key] = self.wrap(HANDLERS, fn)

    def uninstall(self):
        for obj, attr, original in reversed(self._saved):
            if isinstance(obj, dict):
                obj[attr] = original
            else:
                setattr(obj, attr, original)
        self._saved.clear()

    def count(self, key: str, amount: int = 1):
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- derived quantities -----------------------------------------------------

    def arrays(self) -> dict:
        return {
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "name": np.frombuffer(self.name, dtype=np.int64).copy(),
            "error": np.frombuffer(self.error, dtype=np.int64).copy(),
        }

    def save(self, path):
        """Write every span (name, start, end, parent, error) to an .npz file."""
        np.savez(path, names=np.array(self.names), errors=np.array(self.errors), **self.arrays())


def summarize(tracer: Tracer, groups: dict, root_of_group: dict) -> dict:
    """Per-group totals from the spans.

    For each group (a set of span names; groups may overlap): ``ms`` sums
    the outermost spans of the group (no double counting of nested calls),
    ``self_ms`` sums span duration minus direct children, ``calls`` counts
    spans, and ``failures`` counts outermost spans that raised.  A span
    belongs to the root it descends from (the name of its top-level span); a
    group only counts spans under the root named in ``root_of_group``
    (default "job").
    """
    a = tracer.arrays()
    n = a["start"].size
    dur = a["end"] - a["start"]
    parent = a["parent"]
    child = np.zeros(n)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_t = dur - child
    # bit g of a name's mask: the name belongs to group g
    name_mask = [0] * len(tracer.names)
    for g, members in enumerate(groups.values()):
        for i, name in enumerate(tracer.names):
            if name in members:
                name_mask[i] |= 1 << g
    span_mask = np.array([name_mask[k] for k in a["name"].tolist()], dtype=np.int64)
    # groups among each span's ancestors, and its root; parents precede children
    anc = [0] * n
    root = [0] * n
    pl = parent.tolist()
    nl = a["name"].tolist()
    sm = span_mask.tolist()
    for i in range(n):
        p = pl[i]
        if p < 0:
            root[i] = nl[i]
        else:
            root[i] = root[p]
            anc[i] = anc[p] | sm[p]
    anc = np.array(anc, dtype=np.int64)
    root = np.array(root, dtype=np.int64)
    failed = a["error"] > 0
    out = {}
    for g, gname in enumerate(groups):
        rid = tracer._name_ids.get(root_of_group.get(gname, "job"), -2)
        sel = (((span_mask >> g) & 1) == 1) & (root == rid)
        outer = sel & (((anc >> g) & 1) == 0)
        out[gname] = {
            "ms": 1e3 * float(np.sum(dur[outer])),
            "self_ms": 1e3 * float(np.sum(self_t[sel])),
            "calls": int(np.sum(sel)),
            "failures": int(np.sum(outer & failed)),
        }
    return out


def failure_origins(tracer: Tracer, job_spans: list) -> dict:
    """For each failed job span: the innermost span that raised, as
    'layer:ExceptionClass'."""
    a = tracer.arrays()
    err = a["error"]
    parent = a["parent"]
    out: dict[str, int] = {}
    # innermost raising span below each job root
    deepest = {}
    for i in np.nonzero(err > 0)[0].tolist():
        j = i
        while parent[j] >= 0:
            j = parent[j]
        deepest[j] = i  # later (deeper or later) spans overwrite; the last raise wins
    for root in job_spans:
        i = deepest.get(root)
        if i is None or root == i:
            continue
        key = tracer.names[a["name"][i]].split(".")[0] + ":" + tracer.errors[err[i]]
        out[key] = out.get(key, 0) + 1
    return out
