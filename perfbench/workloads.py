"""Seeded workload definitions.

A workload is a list of jobs, each run in a fresh worker process, plus the
config the program receives.  Seed 0 is the canonical input and leaves the
catalog defaults untouched; every other seed draws the workload's free
parameters from a continuous range.  Draws are never filtered or repeated:
a draw the program cannot handle is a failure of the run.
"""

from __future__ import annotations

import math
import random

NAMES = ("decay-pt", "spectral-sw", "inverse-sw")


def draw(name: str, seed: int) -> tuple[dict, dict]:
    """(config patch, drawn parameters) for one workload and seed."""
    rng = random.Random(seed)
    if name == "decay-pt":
        if seed == 0:
            return {}, {"t_min": 10.0, "t_max": 1000.0}
        t_min = rng.uniform(9.0, 12.0)
        params = {"t_min": t_min, "t_max": 100.0 * t_min}
        return {"times": dict(params)}, params
    if name in ("spectral-sw", "inverse-sw"):
        pot = {"name": "square_well", "params": {}}
        if seed == 0:
            return {"potential": pot}, {"a": 1.0, "v0": math.pi**2 / 4}
        a = rng.uniform(0.9, 1.2)
        # sqrt(v0)·a = π/2 keeps the well zero-energy resonant
        params = {"a": a, "v0": (math.pi / (2.0 * a)) ** 2}
        pot["params"] = dict(params)
        return {"potential": pot}, params
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(NAMES)}")


def jobs(name: str) -> list[dict]:
    """The worker jobs of one workload pass, in order."""
    if name == "decay-pt":
        return [{"kind": "cli", "stage": "decay"}]
    if name == "spectral-sw":
        return [{"kind": "cli", "stage": s} for s in ("scatter", "resonance", "wiener")]
    if name == "inverse-sw":
        return [{"kind": "pipeline", "stage": "inverse"}]
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(NAMES)}")
