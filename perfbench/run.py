"""Benchmark of scatterlab, run from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (the generator is in workloads.py; seed 0 is the canonical input):

  decay-pt     the CLI ``decay`` stage on Pöschl–Teller at the default grids
               (the paper's t^{-3/2} result); other seeds draw t_min from
               [9, 12] with t_max = 100 t_min.  Time goes to the Fresnel
               weights, the slice contraction and the Jost fields.
  spectral-sw  the CLI ``scatter``, ``resonance`` and ``wiener`` stages, each
               in a fresh process, on the resonant square well; other seeds
               draw a from [0.9, 1.2] with v0 = (π/2a)².  Nearly all time is
               Jost integration, including many small solves without a k
               sweep; it never reaches oscquad, propagator or kernels.
  inverse-sw   the library pipeline of the CLI ``kernels`` stage on the same
               wells (scattering data with bound states, then per side
               B, K/D, resonance functionals, kernel bounds) followed by the
               Marchenko residual; the only workload that runs kernels.

Each worker process is started by this script (worker.py).  A run repeats
whole workload passes until ``--seconds`` of pass time are measured (at
least one pass), reports medians over passes, and exits within 180 s.

End-to-end metrics (``--trace 0``, no tracing):
  wall_s       stage or pipeline time after set-up, summed over the pass
  setup_s      spawn → first call into the stage, summed over the pass's
               processes; the median over the run's passes and over
               set-up passes, which start every process of a pass and stop
               it at its first call into the stage, until there are
               SETUP_PASSES figures
  peak_rss_mb  the largest peak RSS of the pass's processes
  digits_min   the fewest correct digits among the workload's closed-form
               checks (decay-pt: norm_digits; spectral-sw: T_digits,
               kappa_digits; inverse-sw: glm_digits, identity_digits)
Failed calls (an exception, a nonzero exit, or a check outside its
tolerance) are counted in ``failed`` out of ``attempted``.

Per-layer metrics (``--trace 1``): passes in which layertrace.py wraps the
layer functions.  Names are ``<module>.<function>.<quantity>``; a layer a
workload never calls reports 0, and so does a closed-form check the
workload does not run.  bench.traced_wall_s against the untraced wall_s
of the same workload is the tracing overhead seen end to end;
bench.trace_overhead_s is the wrappers' own cost (traced calls times the
cost of one traced call, timed in the worker), which a difference of two
passes cannot resolve: passes differ by a few percent run to run.

The line before the last holds the run's details (drawn parameters, every
check, per-pass figures); the last line is the result object.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170.0  # the run must end within 180 s
SETUP_PASSES = 3  # set-up figures per run, stage passes included

# a check outside its tolerance fails the call that produced the output
TOLERANCE = {
    "norm_digits": 1e-3,  # relative weighted-norm error
    "T_digits": 1e-6,  # the CLI's unitarity tolerance
    "kappa_digits": 1e-8,
    "glm_digits": 1e-4,
    "identity_digits": 1e-4,  # the CLI's kernel identity tolerance
}
CHECKS = {
    "decay-pt": ("norm_digits",),
    "spectral-sw": ("T_digits", "kappa_digits"),
    "inverse-sw": ("glm_digits", "identity_digits"),
}

# metric names and units, as BENCHMARK.json lists them
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Run:
    """One benchmark invocation: its generated config, scratch directory
    and deadline."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.start = _now()
        self.work = work
        patch, self.params = workloads.draw(workload, seed)
        self.config = work / "config.json"
        self.config.write_text(json.dumps(patch, indent=2))
        if workload == "decay-pt":
            self.potential = {"name": "poeschl_teller", "params": {}}
        else:
            self.potential = {"name": "square_well", "params": self.params}
        self.n_spawned = 0

    def left(self) -> float:
        return DEADLINE_S - (_now() - self.start)

    def spawn(self, job: dict, out: Path, *, trace=False, setup_only=False) -> dict:
        """Run one worker to completion and return its record."""
        self.n_spawned += 1
        stem = self.work / f"w{self.n_spawned}"
        full = dict(
            job,
            config=str(self.config),
            out=str(out),
            result=f"{stem}.result.json",
            trace=trace,
            setup_only=setup_only,
            potential=self.potential,
            sigma=2.0,
        )
        Path(f"{stem}.job.json").write_text(json.dumps(full))
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        cmd = [sys.executable, str(HERE / "worker.py"), f"{stem}.job.json"]
        try:
            proc = subprocess.run(
                cmd + [repr(_now())],
                cwd=ROOT,
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                text=True,
                timeout=max(self.left(), 1.0),
            )
        except subprocess.TimeoutExpired:
            return {"error": "worker timed out", "stage": job["stage"]}
        result = Path(full["result"])
        if proc.returncode != 0 or not result.is_file():
            return {"error": f"worker exit {proc.returncode}: {proc.stderr[-2000:]}", "stage": job["stage"]}
        rec = json.loads(result.read_text())
        rec["stage"] = job["stage"]
        return rec


# ------------------------------------------------------------------ checks


def _check_decay(out: Path) -> tuple[dict, dict]:
    import numpy as np

    import closed_forms

    with open(out / "decay_norms.csv") as fh:
        rows = list(csv.DictReader(fh))
    ts = np.array([float(r["t"]) for r in rows])
    norms = np.array([float(r["weighted_norm"]) for r in rows])
    rep = json.loads((out / "decay_report.json").read_text())
    g = rep["grid_spec"]
    x = np.linspace(-g["x_max"], g["x_max"], g["x_count"])
    exact = closed_forms.pt_weighted_norms(x, ts, rep["sigma"])
    rel = float(np.max(np.abs(norms - exact) / exact))
    gap = abs(rep["fitted_exponent"] - closed_forms.fit_exponent(ts, exact))
    return {"norm_digits": rel}, {"decay.exponent_gap": gap}


def _check_scatter(out: Path, potential: dict) -> tuple[dict, dict]:
    import numpy as np

    import closed_forms

    data = np.loadtxt(out / "scattering.csv", delimiter=",", skiprows=1)
    k = data[:, 0]
    nz = k != 0.0
    got = (data[:, 1] + 1j * data[:, 2], data[:, 3] + 1j * data[:, 4], data[:, 5] + 1j * data[:, 6])
    ref = closed_forms.sw_scattering(potential, k[nz])
    t_err = max(float(np.max(np.abs(g[nz] - r))) for g, r in zip(got, ref))
    rep = json.loads((out / "scatter_report.json").read_text())
    kappas = sorted(b["kappa"] for b in rep["bound_states"])
    exact = closed_forms.sw_kappas(potential)
    if len(kappas) != len(exact):
        kappa_err = float("inf")
    else:
        kappa_err = max((abs(a - b) for a, b in zip(kappas, exact)), default=0.0)
    return {"T_digits": t_err, "kappa_digits": kappa_err}, {}


def _check_inverse(rec: dict) -> tuple[dict, dict]:
    sides = rec["sides"].values()
    return {
        "glm_digits": max(s["glm_max_residual"] for s in sides),
        "identity_digits": max(s["identity_residual"] for s in sides),
    }, {}


def run_pass(run: Run, index: int, trace: bool) -> dict:
    """Run every job of the workload once; return per-pass figures."""
    import closed_forms

    t0 = _now()
    out = run.work / f"pass{index}"
    out.mkdir()
    recs = [run.spawn(job, out, trace=trace) for job in workloads.jobs(run.workload)]
    errors, checks, figures = {}, {}, {}
    failed = 0
    for rec in recs:
        bad = rec.get("error") is not None or rec.get("exit_code", 1) != 0
        if not bad and rec["stage"] in ("decay", "scatter", "inverse"):
            try:
                if rec["stage"] == "decay":
                    errs, figs = _check_decay(out)
                elif rec["stage"] == "scatter":
                    errs, figs = _check_scatter(out, run.potential)
                else:
                    errs, figs = _check_inverse(rec)
            except (OSError, ValueError, KeyError) as exc:
                rec["error"] = f"check failed: {exc!r}"
                bad = True
            else:
                errors.update(errs)
                figures.update(figs)
                bad = any(not (e <= TOLERANCE[name]) for name, e in errs.items())
        if bad:
            failed += 1
    for name, err in errors.items():
        checks[name] = closed_forms.digits(err)
    return {
        "attempted": len(recs),
        "failed": failed,
        "errors": [r["error"] for r in recs if r.get("error")],
        "wall_s": sum(r.get("wall_s", 0.0) for r in recs),
        "stage_wall_s": {r["stage"]: r.get("wall_s") for r in recs},
        "setup_s": _setup_sum(recs),
        "peak_rss_mb": max(r.get("maxrss_mb", 0.0) for r in recs),
        "check_errors": errors,
        "checks": checks,
        "figures": figures,
        "traces": [r["trace"] for r in recs if "trace" in r],
        "duration_s": _now() - t0,
    }


def _setup_sum(recs: list) -> float | None:
    """A pass's set-up time; None when a process did not reach its stage."""
    if not all("setup_s" in r for r in recs):
        return None
    return sum(r["setup_s"] for r in recs)


def setup_pass(run: Run, index: int) -> dict:
    """Start every process of a pass and stop each at its first call into
    the stage."""
    out = run.work / f"setup{index}"
    out.mkdir()
    recs = [run.spawn(job, out, setup_only=True) for job in workloads.jobs(run.workload)]
    return {
        "attempted": len(recs),
        "failed": sum(1 for r in recs if "setup_s" not in r),
        "errors": [r["error"] for r in recs if r.get("error")],
        "setup_s": _setup_sum(recs),
    }


def measure(run: Run, seconds: float, trace: bool) -> tuple[list, list]:
    """Whole passes until `seconds` of pass time are measured (at least one,
    and none that would overrun the deadline), then, untraced, set-up passes
    until SETUP_PASSES set-up figures are in hand; returns (passes, set-up
    passes)."""
    passes = []
    measured = 0.0
    while True:
        p = run_pass(run, len(passes), trace)
        passes.append(p)
        measured += p["duration_s"]
        if measured >= seconds or p["failed"] or run.left() < 1.3 * p["duration_s"]:
            break
    setups = []
    while not trace and len(passes) + len(setups) < SETUP_PASSES and run.left() > 15.0:
        setups.append(setup_pass(run, len(setups)))
        if setups[-1]["failed"]:
            break
    return passes, setups


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(run: Run, passes: list, setups: list) -> dict:
    digits = [min((p["checks"].get(c, 0.0) for c in CHECKS[run.workload]), default=0.0) for p in passes]
    return {
        "wall_s": _median([p["wall_s"] for p in passes]),
        "setup_s": _median([p["setup_s"] for p in passes + setups if p["setup_s"] is not None]),
        "peak_rss_mb": _median([p["peak_rss_mb"] for p in passes]),
        "digits_min": _median(digits),
    }


def _merge_traces(traces: list) -> tuple[dict, dict, float, float]:
    stats: dict[str, dict] = {}
    checks: dict = {}
    root_s = overhead_s = 0.0
    for tr in traces:
        root_s += tr["root_s"]
        overhead_s += tr["overhead_s"]
        for name, st in tr["stats"].items():
            agg = stats.setdefault(name, {})
            for q, v in st.items():
                agg[q] = max(agg.get(q, 0.0), v) if q == "peak_rise_mb" else agg.get(q, 0) + v
        for name, v in tr.get("checks", {}).items():
            if name == "scattering.T_digits_wide":  # [grid size, digits]: widest grid wins
                checks[name] = max(checks.get(name, v), v)
            elif name.endswith("digits"):
                checks[name] = min(checks.get(name, v), v)
            else:
                checks[name] = max(checks.get(name, v), v)
    if "scattering.T_digits_wide" in checks:
        checks["scattering.T_digits_wide"] = checks["scattering.T_digits_wide"][1]
    return stats, checks, root_s, overhead_s


def per_layer(run: Run, passes: list) -> dict:
    per_pass = []
    for p in passes:
        stats, checks, root_s, overhead_s = _merge_traces(p["traces"])
        vals = {}
        for name in PER_LAYER:
            # <traced function>.<quantity>; a layer the pass never calls, and a
            # figure it does not compute, read 0
            func, _, q = name.rpartition(".")
            vals[name] = stats.get(func, {}).get(q, 0)
        vals.update(checks)
        vals.update(p["figures"])
        vals.update(p["checks"])
        wall = p["wall_s"]
        if run.workload != "inverse-sw":
            vals["cli.self_s"] = wall - root_s
        vals["bench.traced_wall_s"] = wall
        vals["bench.top_level_share"] = root_s / wall if wall > 0 else 0.0
        vals["bench.trace_overhead_s"] = overhead_s
        per_pass.append(vals)
    return {name: _median([v[name] for v in per_pass]) for name in per_pass[0]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="scatterlab benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for need in (ROOT / "src" / "scatterlab" / "__init__.py", ROOT / "tests" / "oracles.py"):
        if not need.is_file():
            print(f"benchmark needs a scatterlab source checkout: {need} is missing", file=sys.stderr)
            return 2

    base = ROOT / ".perfbench_work"
    base.mkdir(exist_ok=True)
    work = base / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    work.mkdir()
    try:
        run = Run(args.workload, args.seed, work)
        passes, setups = measure(run, args.seconds, bool(args.trace))
        if args.trace:
            values = per_layer(run, passes)
            units = PER_LAYER
        else:
            values = end_to_end(run, passes, setups)
            units = END_TO_END
        failed = sum(p["failed"] for p in passes + setups)
        attempted = sum(p["attempted"] for p in passes + setups)
        detail = {
            "workload": args.workload,
            "seed": args.seed,
            "params": run.params,
            "passes": [{k: v for k, v in p.items() if k != "traces"} for p in passes],
            "setup_passes": setups,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(detail))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
