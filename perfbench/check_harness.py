#!/usr/bin/env python3
"""Self-checks of the benchmark harness (not of opa).

    python3 perfbench/check_harness.py

* the generators are deterministic per seed and differ across seeds;
* every oracle passes a real answer and flags a deliberately perturbed one;
* the metric names a run prints match BENCHMARK.json, in both modes;
* without the opa sources the benchmark exits nonzero and prints no result.

Exits nonzero on the first failed check.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import opa.cli  # noqa: E402,F401
import opa  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402


def fail(msg: str):
    print(f"FAIL {msg}")
    sys.exit(1)


def check_determinism():
    for name, gen in workloads.GENERATORS.items():
        a, b, c = gen(7), gen(7), gen(8)
        key = [(j.kind, j.argv, repr(j.params)) for j in a]
        if key != [(j.kind, j.argv, repr(j.params)) for j in b]:
            fail(f"{name}: seed 7 gives two different job lists")
        if key == [(j.kind, j.argv, repr(j.params)) for j in c]:
            fail(f"{name}: seeds 7 and 8 give the same job list")
    print("ok generators are deterministic per seed")


def _smaller(job, n_max):
    """The same sweep job at a smaller degree, to keep the check quick."""
    job = copy.deepcopy(job)
    job.argv[job.argv.index("--n-max") + 1] = str(n_max)
    job.facts["n_max"] = n_max
    return job


def _json_edit(edit):
    def perturb(outcome):
        payload = json.loads(outcome["stdout"])
        edit(payload)
        return dict(outcome, stdout=json.dumps(payload))
    return perturb


def _scale_first(items, factor):
    items[0] = [items[0][0] * factor, items[0][1] * factor]


def _bump_row(payload, key="dist_sq", row=3, amount=1e-9):
    payload["rows"][row][key] += amount


def _csv_edit(outcome):
    lines = outcome["stdout"].splitlines()
    cells = lines[4].split(",")
    cells[1] = repr(float(cells[1]) + 1e-9)
    lines[4] = ",".join(cells)
    return dict(outcome, stdout="\n".join(lines) + "\n")


def _matching(jobs, pred, n_max=None):
    for job in jobs:
        if pred(job):
            yield _smaller(job, n_max) if n_max else job


def check_oracles():
    sweep = workloads.gen_sweep_long(3)
    mix = workloads.gen_project_mix(3)
    series = workloads.gen_series_certify(3)
    cases = [
        ("approximate json, coefficient",
         _matching(sweep, lambda j: j.kind == "approximate" and j.facts["fmt"] == "json", 24),
         _json_edit(lambda p: _scale_first(p["rows"][5]["coeffs"], 1 + 1e-6))),
        ("approximate json, distance",
         _matching(sweep, lambda j: j.kind == "approximate" and j.facts["fmt"] == "json", 24),
         _json_edit(_bump_row)),
        ("approximate csv, distance",
         _matching(sweep, lambda j: j.kind == "approximate" and j.facts["fmt"] == "csv", 24), _csv_edit),
        ("diagnose json, distance",
         _matching(sweep, lambda j: j.kind == "diagnose" and j.facts["fmt"] == "json", 24),
         _json_edit(_bump_row)),
        ("project, distance", _matching(mix, lambda j: j.kind == "project"),
         _json_edit(lambda p: p["report"].__setitem__("dist_sq", p["report"]["dist_sq"] + 1e-6))),
        ("stabilize, coefficient", _matching(mix, lambda j: j.kind == "stabilize"),
         _json_edit(lambda p: _scale_first(p["rows"][4]["coeffs"], 1 + 1e-6))),
        ("kernel, coefficient", _matching(mix, lambda j: j.kind == "kernel" and j.facts["fmt"] == "json"),
         _json_edit(lambda p: _scale_first(p["coeffs"], 1 + 1e-9))),
        ("series, p_M", iter(series),
         lambda out: dict(out, p_M=[out["p_M"][0] * (1 + 1e-6)] + out["p_M"][1:])),
    ]
    for label, candidates, perturb in cases:
        for job in candidates:  # the first job of the kind that completes
            try:
                outcome = workloads.execute(opa, job)
            except opa.errors.OpaError:
                continue
            if outcome["code"] == 0:
                break
        ref = oracles.prepare(job, opa)
        misses = oracles.check(job, outcome, ref)
        if misses:
            fail(f"{label}: the real answer misses its oracle: {misses}")
        if not oracles.check(job, perturb(outcome), ref):
            fail(f"{label}: a perturbed answer passes its oracle")
        print(f"ok oracle flags a perturbed answer: {label}")


def _run(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return proc


def check_metric_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        proc = _run(["--workload", "series_certify", "--seed", "1", "--seconds", "1", "--trace", trace])
        if proc.returncode != 0:
            fail(f"trace {trace} run exited {proc.returncode}: {proc.stderr[-500:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            fail(f"result keys {sorted(result)}")
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != want:
            fail(f"trace {trace}: printed {got}, BENCHMARK.json {key} has {want}")
        print(f"ok printed {key} metric names and units match BENCHMARK.json")


def check_without_sources():
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "project_mix", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        fail(f"without sources: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    print("ok without the opa sources the benchmark exits nonzero with no result")


if __name__ == "__main__":
    check_determinism()
    check_oracles()
    check_metric_names()
    check_without_sources()
    print("all harness checks passed")
