"""One worker process of a benchmark pass.

    python3 perfbench/worker.py JOB.json SPAWN_T

The job file (written by run.py) names a CLI stage or the inverse
pipeline, the generated config, the output directory, the file to write
the result to, and whether to trace the layers or to stop at the first call into
the stage (a set-up pass).  SPAWN_T is the parent's CLOCK_MONOTONIC
reading taken just before the spawn.  Set-up is spawn → first call into the stage
(interpreter start, ``import scatterlab``, config); wall is first call →
stage return, less a garbage collection made at the first call; peak RSS
is this process's ``ru_maxrss`` at that point.
"""

from __future__ import annotations

import gc
import json
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from layertrace import LayerTrace, call_cost, maxrss_mb


class _SetupDone(Exception):
    pass


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _run_cli(job, mark) -> dict:
    from scatterlab import cli

    name = f"cmd_{job['stage']}"
    handler = getattr(cli, name)

    def first_call(*args, **kwargs):
        mark()
        return handler(*args, **kwargs)

    setattr(cli, name, first_call)
    code = cli.main([job["stage"], "--config", job["config"], "--out", job["out"]])
    return {"exit_code": code}


def _run_inverse(job, mark) -> dict:
    """The library pipeline behind the CLI kernels stage, with bound states
    (the Marchenko check needs them), then the Marchenko residual."""
    from scatterlab import kernels, scattering
    from scatterlab.cli import RunConfig

    rc = RunConfig.load(job["config"])
    pot = rc.potential()
    k = rc.k_grid()
    rows = np.asarray(rc.data["grids"]["kernel_rows"], dtype=float)
    mark()
    sd, jp, jm = scattering.scattering_data(pot, k, rtol=rc.rtol, atol=rc.atol, extra_x=rows)
    out = {"exit_code": 0, "kappas": [b.kappa for b in sd.bound_states], "sides": {}}
    for tag, jf in (("plus", jp), ("minus", jm)):
        kt = kernels.kd_kernels(kernels.b_kernel(jf, pot=pot), jf, pot=pot)
        rf = kernels.resonance_functionals(jf, pot)
        margins = kernels.kernel_bound_report(kt, pot)
        glm = kernels.glm_residual(kt, sd, pot=pot, eval_stride=4)
        out["sides"][tag] = {
            "identity_residual": float(rf.identity_residual),
            "glm_max_residual": float(glm.max_residual),
            "bound_margins": margins,
        }
    return out


_KEEP = {
    "jost.compute_h": lambda jf: (jf.side, jf.x_grid, jf.k_grid, jf.h),
    "scattering.scattering_matrix": lambda sd: (sd.k_grid, sd.T),
    "propagator.pac_slices": lambda slices: slices,
}


def _trace_checks(kept: dict, potential: dict, sigma: float) -> dict:
    """Accuracy of the layer results the trace kept, against closed forms."""
    import closed_forms  # not at the top: set-up time is the program's alone

    out = {}
    h_err = 0.0
    for side, x, k, h in kept.get("jost.compute_h", []):
        ref = closed_forms.h_exact(potential, side, x, k)
        ok = np.isfinite(ref)
        h_err = max(h_err, float(np.max(np.abs(h[ok] - ref[ok]))))
    out["jost.h_digits"] = closed_forms.digits(h_err)
    wide = max(kept.get("scattering.scattering_matrix", []), key=lambda r: r[0].size, default=None)
    if wide is not None:
        k, t = wide
        nz = k != 0.0
        err = float(np.max(np.abs(t[nz] - closed_forms.t_exact(potential, k[nz]))))
        # [grid size, digits]: the run keeps the value from its widest grid
        out["scattering.T_digits_wide"] = [int(k.size), closed_forms.digits(err)]
    slices = [s for batch in kept.get("propagator.pac_slices", []) for s in batch]
    if slices and potential["name"] == "poeschl_teller":
        g_err, cover = 0.0, 0.0
        for ks in slices:
            x = ks.x_grid
            w = closed_forms.weights(x, sigma)
            diff = np.abs(ks.G - closed_forms.pt_g_kernel(x[:, None], x[None, :], ks.t))
            wmat = w[:, None] * np.abs(ks.G) * w[None, :]
            g_err = max(g_err, float(np.max(w[:, None] * diff * w[None, :])))
            region = wmat >= 0.5 * np.max(wmat)  # where the weighted sup is decided
            cover = max(cover, float(np.max(diff[region] / ks.quadrature_error[region])))
        out["propagator.G_digits"] = closed_forms.digits(g_err)
        out["propagator.qerr_cover"] = cover
    return out


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text())
    spawn_t = float(sys.argv[2])
    rec: dict = {"error": None}
    marks: list[float] = []

    def mark():
        marks.append(_now())
        if job["setup_only"]:
            raise _SetupDone
        # Start the stage from a collected heap.  scipy's ODE solvers form
        # reference cycles, so the cyclic collector decides when their work
        # arrays are freed.  When it runs depends on the objects set-up left
        # in the young generations, which vary with hash randomisation;
        # without this collection the wiener stage peaks at either ~135 or
        # ~159 MB from one process to the next.
        gc.collect()
        marks.append(_now())

    tracer = LayerTrace(keep=_KEEP) if job["trace"] else None
    try:
        if tracer is not None:
            tracer.install()
        run = _run_cli if job["kind"] == "cli" else _run_inverse
        rec.update(run(job, mark))
    except _SetupDone:
        pass
    except Exception:  # the benchmark records every failure and carries on
        rec["error"] = traceback.format_exc(limit=4)
    t_end = _now()
    rec["maxrss_mb"] = maxrss_mb()
    if marks:
        rec["setup_s"] = marks[0] - spawn_t
        rec["wall_s"] = t_end - marks[-1]
    if tracer is not None and rec["error"] is None:
        calls = sum(st["calls"] for st in tracer.stats.values())
        rec["trace"] = {
            "stats": tracer.stats,
            "root_s": tracer.root_s,
            "overhead_s": calls * call_cost(),
        }
        try:
            rec["trace"]["checks"] = _trace_checks(tracer.kept, job["potential"], job["sigma"])
        except Exception:
            rec["error"] = traceback.format_exc(limit=4)
    Path(job["result"]).write_text(json.dumps(rec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
