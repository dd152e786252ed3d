"""Exact-repeat self-check of the benchmark's deterministic figures.

    python3 perfbench/selfcheck.py

Runs the traced benchmark twice per workload at seed 0 and requires the
work counters and every accuracy figure to repeat exactly; timings and
memory are not compared.  Exits 1 when two runs of the same code disagree.
The counters are also compared with the values measured at the commit that
introduced the benchmark; a difference there is reported, not failed,
since a change to a layer is expected to move its own counters.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import run
import workloads

COUNTERS = (
    "jost.compute_h.nfev",
    "jost.compute_h_bound.calls",
    "oscquad.fresnel_weights.calls",
    "oscquad.fresnel_weights.nodes",
    "wiener.a_norm.calls",
)
DETERMINISTIC = (
    COUNTERS
    + tuple(name for name, unit in run.PER_LAYER.items() if unit == "digits")
    + ("decay.exponent_gap", "propagator.qerr_cover")
)
# seed 0 at the benchmark's first commit
REFERENCE = {
    "decay-pt": {
        "jost.compute_h.nfev": 101928,
        "oscquad.fresnel_weights.calls": 2340,
        "oscquad.fresnel_weights.nodes": 131042340,
    },
    "spectral-sw": {"jost.compute_h.nfev": 123372},
    "inverse-sw": {"jost.compute_h.nfev": 74674},
}


def traced_metrics(workload: str) -> dict:
    cmd = [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", "1"]
    out = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, check=True).stdout
    result = json.loads(out.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: traced run reported failures: {out.splitlines()[-2]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main() -> int:
    ok = True
    for workload in workloads.NAMES:
        first, second = traced_metrics(workload), traced_metrics(workload)
        for name in DETERMINISTIC:
            same = first[name] == second[name]
            ok = ok and same
            print(f"{workload:12s} {name:32s} {first[name]!r:>24} {'repeats' if same else 'DIFFERS: ' + repr(second[name])}")
        for name, ref in REFERENCE[workload].items():
            note = "as at the reference commit" if first[name] == ref else f"reference commit had {ref}"
            print(f"{workload:12s} {name:32s} {first[name]!r:>24} {note}")
    print("exact repeat:", "ok" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
