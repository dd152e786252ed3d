"""Per-layer timing taken from outside the program.

Every public function of the layer modules (the names in each module's
``__all__``) is wrapped once, and the wrapper is bound in every
``scatterlab`` module namespace that holds the original, so calls made
through ``from .jost import compute_h`` in ``scattering`` or
``propagator`` are seen as well as calls inside ``jost`` itself.  The
program's files are not touched.

For each function the trace keeps the call count, the inclusive time, the
self time (inclusive minus the inclusive time of traced calls made from
inside it), the largest rise of the process's peak RSS across one call
(``ru_maxrss``, so no allocation hook distorts the timings), and optional
work counters.  Calls made while no other traced call is open are
top-level; their inclusive times add up to ``root_s``.
"""

from __future__ import annotations

import functools
import importlib
import resource
import sys
import time
import types

LAYERS = ("jost", "scattering", "oscquad", "propagator", "decay", "kernels", "wiener", "potentials")


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _nfev(stat, args, out):
    stat["nfev"] = stat.get("nfev", 0) + sum(band[2] for band in out.report.bands)


def _nodes(stat, args, out):
    stat["nodes"] = stat.get("nodes", 0) + len(args[0])


COUNTERS = {"jost.compute_h": _nfev, "oscquad.fresnel_weights": _nodes}


def call_cost() -> float:
    """Seconds one traced call adds, timed on a no-op function."""
    n = 20000

    def noop():
        return None

    traced = LayerTrace()._wrap("noop", noop)
    t0 = time.perf_counter()
    for _ in range(n):
        noop()
    t1 = time.perf_counter()
    for _ in range(n):
        traced()
    t2 = time.perf_counter()
    return max((t2 - t1) - (t1 - t0), 0.0) / n


class LayerTrace:
    """Wraps the layer functions in place; ``keep`` maps a traced name to a
    function of the call's result whose value is appended to
    ``kept[name]`` after the call's timing is taken."""

    def __init__(self, keep=None):
        self.stats: dict[str, dict] = {}
        self.kept: dict[str, list] = {}
        self.root_s = 0.0
        self._keep = dict(keep or {})
        self._open: list[list[float]] = []

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"scatterlab.{layer}")
            for name in mod.__all__:
                fn = getattr(mod, name)
                if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__:
                    wrappers[fn] = self._wrap(f"{layer}.{name}", fn)
        for modname, mod in list(sys.modules.items()):
            if modname != "scatterlab" and not modname.startswith("scatterlab."):
                continue
            for attr, val in list(vars(mod).items()):
                if isinstance(val, types.FunctionType) and val in wrappers:
                    setattr(mod, attr, wrappers[val])

    def _wrap(self, name, fn):
        stat = self.stats.setdefault(
            name, {"calls": 0, "s": 0.0, "self_s": 0.0, "peak_rise_mb": 0.0}
        )
        counter = COUNTERS.get(name)
        keep = self._keep.get(name)
        open_calls = self._open
        active = [0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            open_calls.append(frame)
            active[0] += 1
            rss0 = maxrss_mb()
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                rise = maxrss_mb() - rss0
                active[0] -= 1
                open_calls.pop()
                stat["calls"] += 1
                if active[0] == 0:  # a recursive call is inside the outer one
                    stat["s"] += dt
                stat["self_s"] += dt - frame[0]
                stat["peak_rise_mb"] = max(stat["peak_rise_mb"], rise)
                if open_calls:
                    open_calls[-1][0] += dt
                else:
                    self.root_s += dt
            if counter is not None:
                counter(stat, args, out)
            if keep is not None:
                self.kept.setdefault(name, []).append(keep(out))
            return out

        return traced
