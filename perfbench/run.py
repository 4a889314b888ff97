#!/usr/bin/env python3
"""The opa benchmark: seeded job workloads, oracle-checked, closed loop.

    python3 perfbench/run.py --workload sweep_long --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One process, one client: jobs run back to back in this interpreter, each a
call of ``opa.cli.main(argv)`` or a library job on stored series.  The seed
fixes the run's job list (whole rounds of the workload's design, at least 11
jobs, so the tail has ten beyond it); passes over that list fill
``--seconds``.  A job's cost is its wall time in runs of a fixed reference
kernel timed before, during and after it (see Speedometer), median over
passes.  Every job's output is checked against an independent oracle outside
the timed region.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same job
list once, each job untraced then traced, and prints the per-layer metrics
from spans recorded at the layer boundaries, plus the tracing overhead; its
counts repeat exactly for a seed.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import os
import sys

# BLAS threads are fixed before numpy loads, here and in the set-up probe
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

# fresh interpreters timed for setup_s, before the first pass and after each
SETUP_FIRST = 3
SETUP_PER_PASS = 2
REF_LOOPS = 6000  # the reference kernel takes about 2 ms
TICK_S = 0.05  # and runs every 50 ms inside a job
SETUP_PROBE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import opa.cli\n"
    "opa.cli.build_parser()\n"
    "print(repr(time.perf_counter() - t0))\n"
)

END_TO_END = {
    "job_cost.p50": "kernel",
    "job_cost.tail": "kernel",
    "jobs_per_kkernel": "1/kkernel",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# per-layer groups of span names (see spans.PATCH_POINTS)
GROUPS = {
    "engine.build_system": {"engine.build_system"},
    "engine.approximant_sweep": {"engine.approximant_sweep"},
    "engine.detect_stabilization": {"engine.detect_stabilization"},
    "engine.certify": {"engine.is_inner", "engine.orthogonal_to_shifts", "engine.stabilization_dossier"},
    "engine.cyclicity_diagnostic": {"engine.cyclicity_diagnostic"},
    "engine.taylor_residuals": {"engine.taylor_residuals"},
    "linalg.factor": {"linalg.cholesky_factor", "linalg.cholesky_border"},
    "linalg.solve": {"linalg.solve_factored"},
    "linalg.poly_roots": {"linalg.poly_roots"},
    "spaces.inner": {"spaces.inner_any", "spaces.norm_sq_any", "spaces.norm_sq_poly"},
    "spaces.inner_series": {"spaces.inner_series"},
    "spaces.falling_product_sum": {"spaces.falling_product_sum"},
    "spaces.kernel_inner": {"spaces.kernel_inner"},
    "spaces.kernel_series": {"spaces.kernel_series"},
    "spaces.is_reproducible": {"spaces.is_reproducible"},
    "projection.classify_zeros": {"projection.classify_zeros"},
    "projection.project_unity": {"projection.project_unity"},
    "projection.distance_to_poly": {"projection.distance_to_poly"},
    "projection.recurrence_residual": {"projection.recurrence_residual"},
    "projection.blaschke_projection": {"projection.blaschke_projection"},
    "series.arith": {"series.series_mul", "series.TruncSeries.mul_poly", "series.TruncSeries.shift",
                     "series.CPoly.shift", "series.CPoly.__mul__"},
    "series.construct": {"series.blaschke_factor", "series.blaschke_product", "series.geometric_series",
                         "series.reciprocal_taylor"},
    "cli.parse_job": {"cli.parse_job"},
    "cli.handler": {"cli.handler"},
}
GROUPS["series"] = GROUPS["series.arith"] | GROUPS["series.construct"]
# no job calls blaschke_projection: it is the oracle of alpha = 0 projections
# and is timed in the traced oracle phase
ROOT_OF_GROUP = {"projection.blaschke_projection": "oracle"}

# (metric, unit, group, field); field None means a counter
PER_LAYER = [
    ("engine.build_system.ms", "ms", "engine.build_system", "ms"),
    ("engine.build_system.calls", "count", "engine.build_system", "calls"),
    ("engine.approximant_sweep.self_ms", "ms", "engine.approximant_sweep", "self_ms"),
    ("engine.rows", "count", None, None),
    ("engine.detect_stabilization.self_ms", "ms", "engine.detect_stabilization", "self_ms"),
    ("engine.certify.ms", "ms", "engine.certify", "ms"),
    ("engine.cyclicity_diagnostic.self_ms", "ms", "engine.cyclicity_diagnostic", "self_ms"),
    ("engine.taylor_residuals.ms", "ms", "engine.taylor_residuals", "ms"),
    ("linalg.factor.ms", "ms", "linalg.factor", "ms"),
    ("linalg.factor.calls", "count", "linalg.factor", "calls"),
    ("linalg.factor.bytes", "bytes", None, None),
    ("linalg.solve.ms", "ms", "linalg.solve", "ms"),
    ("linalg.solve.calls", "count", "linalg.solve", "calls"),
    ("linalg.poly_roots.ms", "ms", "linalg.poly_roots", "ms"),
    ("linalg.poly_roots.calls", "count", "linalg.poly_roots", "calls"),
    ("linalg.poly_roots.failures", "count", "linalg.poly_roots", "failures"),
    ("spaces.inner.ms", "ms", "spaces.inner", "ms"),
    ("spaces.inner.calls", "count", "spaces.inner", "calls"),
    ("spaces.inner_series.ms", "ms", "spaces.inner_series", "ms"),
    ("spaces.inner_series.failures", "count", "spaces.inner_series", "failures"),
    ("spaces.falling_product_sum.ms", "ms", "spaces.falling_product_sum", "ms"),
    ("spaces.falling_product_sum.calls", "count", "spaces.falling_product_sum", "calls"),
    ("spaces.falling_product_sum.failures", "count", "spaces.falling_product_sum", "failures"),
    ("spaces.kernel_inner.ms", "ms", "spaces.kernel_inner", "ms"),
    ("spaces.kernel_series.ms", "ms", "spaces.kernel_series", "ms"),
    ("spaces.is_reproducible.ms", "ms", "spaces.is_reproducible", "ms"),
    ("projection.classify_zeros.ms", "ms", "projection.classify_zeros", "ms"),
    ("projection.project_unity.self_ms", "ms", "projection.project_unity", "self_ms"),
    ("projection.distance_to_poly.self_ms", "ms", "projection.distance_to_poly", "self_ms"),
    ("projection.recurrence_residual.ms", "ms", "projection.recurrence_residual", "ms"),
    ("projection.blaschke_projection.ms", "ms", "projection.blaschke_projection", "ms"),
    ("series.arith.ms", "ms", "series.arith", "ms"),
    ("series.arith.calls", "count", "series.arith", "calls"),
    ("series.construct.ms", "ms", "series.construct", "ms"),
    ("series.failures", "count", "series", "failures"),
    ("cli.parse_job.ms", "ms", "cli.parse_job", "ms"),
    ("cli.handler.self_ms", "ms", "cli.handler", "self_ms"),
    ("cli.output_bytes", "bytes", None, None),
    ("trace.overhead_ratio", "ratio", None, None),
]


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        **{k: os.environ.get(k) for k in BLAS_ENV},
    }


def measure_setup(values: list, repeats: int):
    """Fresh-interpreter import of opa.cli plus build_parser(), in seconds."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        values.append(float(proc.stdout.strip().splitlines()[-1]))


class Runner:
    """Runs jobs, times them, checks them and keeps the failure accounting."""

    def __init__(self, opa, oracles, execute):
        self.opa = opa
        self.oracles = oracles
        self.execute = execute
        self.times: list[float] = []
        self.failed = 0
        self.wrong = 0
        self.by_class: dict[str, int] = {}
        self.misses: list[str] = []
        self.oracle_errors: dict[str, int] = {}
        self.output_bytes = 0

    def timed(self, job, tracer=None):
        span = None
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                span = tracer.begin("job")
            outcome = self.execute(self.opa, job)
            exc = None
        except Exception as e:  # a job that raises is a failed job, not a harness crash
            outcome, exc = None, e
        if span is not None:
            tracer.finish(span, exc)
        dt = time.perf_counter() - t0
        return dt, outcome, exc, span

    def record(self, job, ref, dt, outcome, exc) -> bool:
        """Count the job; returns True when it failed."""
        self.times.append(dt)
        if "blaschke_error" in ref:
            key = f"blaschke_projection raised {ref['blaschke_error']}"
            self.oracle_errors[key] = self.oracle_errors.get(key, 0) + 1
        key = None
        if exc is not None:
            key = f"raised {type(exc).__name__}"
            if not isinstance(exc, self.opa.errors.OpaError):
                self.wrong += 1
                self.misses.append(f"job {job.index}: {type(exc).__name__}: {exc}")
        elif outcome["code"] != 0:
            reason = outcome["stderr"].split(": ")[2] if outcome["stderr"].count(": ") >= 2 else ""
            key = f"exit {outcome['code']} ({reason})"
        else:
            if "stdout" in outcome:
                self.output_bytes += len(outcome["stdout"].encode())
            misses = self.oracles.check(job, outcome, ref)
            if misses:
                key = "oracle"
                self.wrong += 1
                self.misses.append(f"job {job.index} ({job.kind}): " + "; ".join(misses[:3]))
        if key is None:
            return False
        self.failed += 1
        self.by_class[key] = self.by_class.get(key, 0) + 1
        return True


def _tail(times_ms):
    """The highest percentile with at least ten jobs beyond it."""
    s = sorted(times_ms)
    n = len(s)
    return s[n - 11], 100.0 * (n - 10) / n


def _signature(outcome, exc) -> str:
    if exc is not None:
        return type(exc).__name__
    return hashlib.sha256(repr(sorted(outcome.items())).encode()).hexdigest()


def reference_kernel() -> complex:
    """A fixed piece of interpreter and small-array work, unrelated to opa.

    Timed before, during and after every job: load outside this process
    switches the machine between a fast and a 1.5 times slower speed, for
    tenths of a second to minutes at a time, and a job's time over the
    kernel's time around it moves far less than the job's time."""
    z, acc, table = 0.3 + 0.4j, 0j, {}
    for i in range(REF_LOOPS):
        z = z * (0.99 + 0.01j) + 1e-3
        acc += z.conjugate() * z
        table[i & 255] = acc
    v = np.arange(64, dtype=complex)
    for _ in range(REF_LOOPS // 100):
        v = v * 0.999 + np.vdot(v, v) * 1e-9
    return acc + v[0]


def _time_reference() -> float:
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


class Speedometer:
    """Prices a job in reference-kernel runs at the speed the machine had
    while the job ran.

    The kernel runs before and after each job and, by SIGALRM, every
    ``TICK_S`` seconds inside it (between bytecodes of the job's own
    thread).  The kernel runs split the job into segments; a segment's cost
    is its length over the mean time of the kernel runs at its two ends."""

    def __init__(self):
        self.last = _time_reference()  # the kernel run before the next job
        self.kernel = [self.last]
        self.ticks: list = []

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        reference_kernel()
        self.ticks.append((t0, time.perf_counter() - t0))

    def run(self, runner, job):
        """Returns the job's own seconds, its cost, its outcome and exception."""
        self.ticks = []
        previous = signal.signal(signal.SIGALRM, self._tick)
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            _, outcome, exc, _ = runner.timed(job)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            end = time.perf_counter()
            signal.signal(signal.SIGALRM, previous)
        after = _time_reference()
        edges = [start]  # segment j runs from edges[2j] to edges[2j + 1]
        samples = [self.last]
        for t0, d in self.ticks:
            edges += [t0, t0 + d]
            samples.append(d)
        edges.append(end)
        samples.append(after)
        own = cost = 0.0
        for j in range(len(samples) - 1):
            seg = edges[2 * j + 1] - edges[2 * j]
            own += seg
            cost += 2.0 * seg / (samples[j] + samples[j + 1])
        self.kernel += samples[1:]
        self.last = after
        return own, cost, outcome, exc

    def resume(self):
        """A fresh kernel run after a pause (set-up probes) between jobs."""
        self.last = _time_reference()
        self.kernel.append(self.last)


def run_untraced(args, opa, oracles, workloads) -> tuple:
    """The seed's job list runs in passes, in the same order, until
    ``--seconds`` have gone by.  A job's cost (see Speedometer) and its wall
    time are the medians over its passes.  Pass 1 is checked against the
    oracles and later passes must reproduce its outputs exactly.  The job
    list, and with it attempted and failed, depends on the seed alone."""
    jobs = workloads.GENERATORS[args.workload](args.seed)
    refs = [oracles.prepare(job, opa) for job in jobs]
    runner = Runner(opa, oracles, workloads.execute)
    setup = []
    measure_setup(setup, SETUP_FIRST)
    runner.timed(jobs[0])  # warm-up: first-call imports and caches
    _time_reference()  # and of the kernel
    meter = Speedometer()
    raw, cost = [[] for _ in jobs], [[] for _ in jobs]
    first = []
    start = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - start < args.seconds:
        for k, (job, ref) in enumerate(zip(jobs, refs)):
            dt, c, outcome, exc = meter.run(runner, job)
            raw[k].append(1e3 * dt)
            cost[k].append(c)
            signature = _signature(outcome, exc)
            if passes == 0:
                runner.record(job, ref, dt, outcome, exc)
                first.append(signature)
            elif signature != first[k]:
                runner.wrong += 1
                runner.misses.append(f"job {job.index}: a repeat gave a different result")
        passes += 1
        measure_setup(setup, SETUP_PER_PASS)
        meter.resume()
    raw = [statistics.median(v) for v in raw]
    cost = [statistics.median(v) for v in cost]
    n = len(jobs)
    tail, pct = _tail(cost)
    raw_tail, _ = _tail(raw)
    kernel = meter.kernel
    kernel_ms = 1e3 * statistics.median(kernel)
    metrics = {
        "job_cost.p50": statistics.median(cost),
        "job_cost.tail": tail,
        "jobs_per_kkernel": 1e3 * n / sum(cost),
        "ok_ratio": (n - runner.failed) / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup),
    }
    notes = {
        "job_cost.p50": f"n={n} jobs, median of {passes} passes each",
        "job_cost.tail": f"p{pct:.1f}, n={n}",
        "jobs_per_kkernel": f"{n} jobs, {sum(cost):.1f} kernel times",
        "ok_ratio": f"fail_ratio={runner.failed / n:.4f} ({runner.failed}/{n})",
        "peak_rss_mb": "ru_maxrss",
        "setup_s": f"median of {len(setup)}, taken before the first pass and after every pass",
    }
    lines = [f"{name:<22} {metrics[name]:>14.6g} {END_TO_END[name]:<6} {notes[name]}" for name in END_TO_END]
    lines.append(f"wall times (not gated, n={n} jobs): job_ms.p50 {statistics.median(raw):.6g} ms, "
                 f"job_ms.tail {raw_tail:.6g} ms (p{pct:.1f}), jobs_per_s {1e3 * n / sum(raw):.6g}, "
                 f"reference kernel {kernel_ms:.4g} ms (median of {len(kernel)})")
    return runner, metrics, {k: END_TO_END[k] for k in metrics}, lines, n


def run_traced(args, opa, oracles, workloads, spans) -> tuple:
    jobs = workloads.GENERATORS[args.workload](args.seed)
    tracer = spans.Tracer()
    refs = []
    tracer.install(opa)
    try:
        for job in jobs:  # traced too, for the Blaschke oracle
            span = tracer.begin("oracle")
            refs.append(oracles.prepare(job, opa))
            tracer.finish(span)
    finally:
        tracer.uninstall()
    plain = Runner(opa, oracles, workloads.execute)
    traced = Runner(opa, oracles, workloads.execute)
    plain.timed(jobs[0])
    failed_spans = []
    for job, ref in zip(jobs, refs):
        dt, outcome, exc, _ = plain.timed(job)
        plain.record(job, ref, dt, outcome, exc)
        tracer.install(opa)
        try:
            dt, outcome, exc, span = traced.timed(job, tracer)
        finally:
            tracer.uninstall()
        if traced.record(job, ref, dt, outcome, exc):
            failed_spans.append(span)
    summary = spans.summarize(tracer, GROUPS, ROOT_OF_GROUP)
    counters = dict(tracer.counts)
    counters["cli.output_bytes"] = traced.output_bytes
    counters["trace.overhead_ratio"] = statistics.median(traced.times) / statistics.median(plain.times)
    metrics, units = {}, {}
    for name, unit, group, field in PER_LAYER:
        value = counters.get(name, 0) if group is None else summary[group][field]
        metrics[name] = value
        units[name] = unit
    OUT_DIR.mkdir(exist_ok=True)
    tracer.save(OUT_DIR / f"trace-{args.workload}-{args.seed}.npz")
    origins = spans.failure_origins(tracer, failed_spans)
    lines = [f"{name:<38} {metrics[name]:>14.6g} {units[name]}" for name in metrics]
    lines.append(f"traced jobs: {len(jobs)}; spans: {len(tracer.start)}; failures by layer: {origins}")
    return traced, metrics, units, lines, len(jobs)


def run_all(args) -> int:
    """Every workload, each in its own interpreter, one after another."""
    import workloads

    results = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], capture_output=True, text=True)
        print(f"== {name}")
        print(proc.stdout.rstrip())
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps({"workloads": results}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "opa" / "__init__.py").is_file():
        print(f"perfbench: no opa sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    if args.workload == "all":
        return run_all(args)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {workloads.WORKLOADS} or 'all'",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import opa.cli  # noqa: F401  (loads every layer)
    import opa
    import oracles
    import spans

    if args.trace:
        runner, metrics, units, lines, attempted = run_traced(args, opa, oracles, workloads, spans)
    else:
        runner, metrics, units, lines, attempted = run_untraced(args, opa, oracles, workloads)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} env {json.dumps(environment())}")
    for line in lines:
        print(line)
    print(f"failures by class: {json.dumps(runner.by_class, sort_keys=True)}")
    if runner.oracle_errors:
        print(f"errors in the oracle phase: {json.dumps(runner.oracle_errors, sort_keys=True)}")
    for miss in runner.misses[:20]:
        print(f"oracle miss: {miss}")
    result = {
        "correct": runner.wrong == 0,
        "attempted": attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
