"""Batch front-end: configure a potential, run one pipeline stage, emit
machine-readable artifacts.

Usage: scatterlab <command> --config path [--out dir] [--override key=value]

Commands: catalog, scatter, resonance, kernels, wiener, decay.  The config
is a single JSON file layered over full defaults (see DEFAULT_CONFIG);
--override patches individual keys with dotted paths and JSON-typed
values, e.g. --override potential.name=free --override times.count=8.

Every artifact is written atomically and deterministically (no
timestamps, fixed grids, no randomness), so re-running a command with the
same config byte-reproduces its outputs.  manifest.json records the
resolved config, its SHA-256, and library versions.  The exit code is
nonzero exactly when a residual tracked by that stage exceeds its
configured tolerance (2 when the stage is disabled in config).
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .decay import _check_fit_times, run_experiment
from .jost import ODE_ATOL, ODE_RTOL
from .potentials import CATALOG_NAMES, catalog, from_spec, to_spec
from .propagator import _check_times, _growth_lattice, prepare_propagator
from .scattering import classify_resonance, scattering_data
from .wiener import TAPER_FRAC, _check_max_order, _taper, derivative_a_norms, difference_quotient_norm

__all__ = ["DEFAULT_CONFIG", "RunConfig", "main"]

STAGES = ("scatter", "resonance", "kernels", "wiener", "decay")

DEFAULT_CONFIG: dict = {
    "schema_version": 1,
    "potential": {"name": "poeschl_teller", "params": {}},
    "grids": {
        "x_max": 8.0,
        "x_step": 0.25,
        "k_max": 60.0,
        "k_count": 24001,
        "scatter_k_max": 30.0,
        "scatter_k_count": 1201,
        "kernel_rows": [-2.0, -1.0, 0.0, 1.0, 2.0],
    },
    "times": {"t_min": 10.0, "t_max": 1000.0, "count": 12},
    "tolerances": {
        "ode_rtol": ODE_RTOL,
        "ode_atol": ODE_ATOL,
        "unitarity": 1e-6,
        "resonance_algebra": 1e-4,
        "kernel_identity": 1e-4,
        "exponent_low": 1.35,
        "exponent_high": 1.65,
        "control_exponent_max": 0.7,
    },
    "wiener": {"taper_frac": TAPER_FRAC, "derivative_orders": 2, "require_converged": True},
    "sigma": 2.0,
    "stages": list(STAGES),
    "out_dir": "runs",
}


_KINDS = {bool: "a boolean", int: "an integer", float: "a finite number",
          str: "a string", list: "a list", dict: "an object"}


def _check_kind(val, default, key: str) -> None:
    """ValueError naming key, or a key inside it, whose value lacks the JSON
    kind of its default; a bool is never a number, and counts and orders
    are never a float that int() would truncate."""
    if isinstance(default, float):
        ok = isinstance(val, (int, float)) and not isinstance(val, bool) and math.isfinite(val)
    else:
        ok = type(val) is type(default)
    if not ok:
        raise ValueError(f"{key}={json.dumps(val)}: must be {_KINDS[type(default)]}")
    if isinstance(default, dict):
        for name, d in default.items():
            _check_kind(val[name], d, f"{key}.{name}".lstrip("."))
    elif isinstance(default, list):
        for i, v in enumerate(val):
            _check_kind(v, default[0], f"{key}[{i}]")


def _open_key(key: str) -> bool:
    """Potential params are potential-specific and the tail bound is
    optional (absent from the defaults), so both accept keys the defaults
    lack; potentials.from_spec validates them."""
    return key.startswith("potential.params.") or key == "potential.tail_bound"


def _merge(base: dict, patch: dict, path: str = "") -> None:
    for key, val in patch.items():
        here = f"{path}{key}"
        if key not in base:
            if _open_key(here):
                base[key] = val
                continue
            raise ValueError(f"unknown config key: {here}")
        if isinstance(base[key], dict):
            if not isinstance(val, dict):
                raise ValueError(f"config key {here} must be an object")
            _merge(base[key], val, here + ".")
        else:
            base[key] = val


def _apply_override(cfg: dict, spec: str) -> None:
    if "=" not in spec:
        raise ValueError(f"override must look like key=value, got {spec!r}")
    key, _, raw = spec.partition("=")
    try:
        val = json.loads(raw)
    except json.JSONDecodeError:
        val = raw  # bare strings stay strings
    node = cfg
    parts = key.split(".")
    for p in parts[:-1]:
        if p not in node or not isinstance(node[p], dict):
            raise ValueError(f"unknown config section in override: {key!r}")
        node = node[p]
    leaf = parts[-1]
    if leaf not in node and not _open_key(key):
        raise ValueError(f"unknown config key in override: {key!r}")
    node[leaf] = val


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run configuration (defaults + file + overrides)."""

    data: dict

    @classmethod
    def load(cls, path: str | None = None, overrides=()) -> "RunConfig":
        cfg = copy.deepcopy(DEFAULT_CONFIG)
        if path is not None:
            _merge(cfg, json.loads(Path(path).read_text()))
        for spec in overrides:
            _apply_override(cfg, spec)
        rc = cls(cfg)
        rc.validate()
        return rc

    def validate(self) -> None:
        c = self.data
        if c["schema_version"] != 1:
            raise ValueError("unsupported config schema_version")
        # before any value is compared or converted
        _check_kind(c, DEFAULT_CONFIG, "")
        try:
            self.potential()
        except (KeyError, TypeError) as exc:
            raise ValueError(f"potential spec {c['potential']!r}: {exc!r}") from None
        for name, val in c["tolerances"].items():
            if not val > 0.0:
                raise ValueError(f"tolerance {name} must be positive")
        tol = c["tolerances"]
        if tol["exponent_low"] >= tol["exponent_high"]:
            raise ValueError("exponent window must have low < high")
        g = c["grids"]
        if g["x_max"] <= 0 or g["x_step"] <= 0:
            raise ValueError("x grid parameters must be positive")
        if abs(g["x_max"] / g["x_step"] - round(g["x_max"] / g["x_step"])) > 1e-9:
            raise ValueError("x_step must divide x_max (grid must contain 0)")
        for kmax, kcount in ((g["k_max"], g["k_count"]), (g["scatter_k_max"], g["scatter_k_count"])):
            if kmax <= 0 or kcount < 9 or kcount % 2 == 0:
                raise ValueError("k grids need k_max > 0 and an odd count >= 9 (0 on grid)")
        t = c["times"]
        if not (0 < t["t_min"] < t["t_max"]) or t["count"] < 2:
            raise ValueError("times need 0 < t_min < t_max and count >= 2")
        if c["sigma"] <= 0:
            raise ValueError("sigma must be positive")
        unknown = set(c["stages"]) - set(STAGES)
        if unknown:
            raise ValueError(f"unknown stages: {sorted(unknown)}")

    # -- derived pieces ------------------------------------------------

    def potential(self):
        return from_spec(self.data["potential"])

    def x_grid(self) -> np.ndarray:
        g = self.data["grids"]
        n_half = int(round(g["x_max"] / g["x_step"]))
        return np.linspace(-g["x_max"], g["x_max"], 2 * n_half + 1)

    def k_grid(self) -> np.ndarray:
        g = self.data["grids"]
        return np.linspace(-g["k_max"], g["k_max"], g["k_count"])

    def scatter_k_grid(self) -> np.ndarray:
        g = self.data["grids"]
        return np.linspace(-g["scatter_k_max"], g["scatter_k_max"], g["scatter_k_count"])

    @property
    def rtol(self) -> float:
        return float(self.data["tolerances"]["ode_rtol"])

    @property
    def atol(self) -> float:
        return float(self.data["tolerances"]["ode_atol"])

    def label_slug(self) -> str:
        return re.sub(r"[^A-Za-z0-9_.-]+", "_", self.potential().label)


# ------------------------------------------------------------------ plumbing


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _write_manifest(out: Path, command: str, cfg: dict, artifacts) -> None:
    manifest = {
        "command": command,
        "config": cfg,
        "config_sha256": _config_hash(cfg),
        "versions": {
            "scatterlab": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": "%d.%d.%d" % sys.version_info[:3],
        },
        "artifacts": sorted(artifacts),
    }
    _atomic_write(out / "manifest.json", _json_text(manifest))


def _config_ok(rc: RunConfig, checks) -> bool:
    """Run the library's own input rules on configured values before any
    solve.  checks holds (config keys, rule) pairs; the first rule that
    raises ValueError is printed as a config error naming its keys."""
    for keys, rule in checks:
        try:
            rule()
        except ValueError as exc:
            vals = []
            for key in keys:
                section, name = key.split(".")
                vals.append(f"{key}={rc.data[section][name]:g}")
            print(f"config error: {', '.join(vals)}: {exc}", file=sys.stderr)
            return False
    return True


def _c(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


# ------------------------------------------------------------------ commands


_CATALOG_NOTES = {
    "free": [{"fact": "zero-energy resonant, gamma = 1", "source": "analytic"}],
    "poeschl_teller": [
        {"fact": "reflectionless; zero-energy resonant, gamma = -1", "source": "analytic"},
        {"fact": "one bound state at E = -1", "source": "analytic"},
    ],
    "square_well": [
        {"fact": "resonant iff sqrt(v0)*a = n*pi/2, n >= 1; default sits at pi/2", "source": "analytic"},
        {"fact": "an even bound state persists at the default resonant parameters", "source": "computed"},
    ],
    "gaussian_well": [
        {"fact": "non-resonant at the default shallow depth", "source": "computed"},
        {"fact": "near-threshold bound state makes the t^-3/2 regime set in late", "source": "computed"},
    ],
}


def cmd_catalog(out: Path) -> int:
    entries = []
    for name in CATALOG_NAMES:
        pot = catalog(name)
        entries.append(
            {
                "name": name,
                "label": pot.label,
                "params": pot.params,
                "tail": to_spec(pot)["tail_bound"],
                "moment_order": "inf" if pot.moment_order == float("inf") else pot.moment_order,
                "breakpoints": list(pot.breakpoints),
                "notes": _CATALOG_NOTES.get(name, []),
            }
        )
    out.mkdir(parents=True, exist_ok=True)
    _atomic_write(out / "catalog.json", _json_text(entries))
    for e in entries:
        facts = "; ".join(n["fact"] for n in e["notes"])
        print(f"{e['name']:15s} {e['label']:35s} tail={e['tail']['kind']:8s} {facts}")
    return 0


def cmd_scatter(rc: RunConfig, out: Path) -> int:
    pot = rc.potential()
    sd, _, _ = scattering_data(pot, rc.scatter_k_grid(), rtol=rc.rtol, atol=rc.atol)
    lines = ["k,T_re,T_im,Rp_re,Rp_im,Rm_re,Rm_im,unitarity_residual"]
    for i, k in enumerate(sd.k_grid):
        t, rp, rm = sd.T[i], sd.R_plus[i], sd.R_minus[i]
        lines.append(
            f"{k:.17g},{t.real:.17g},{t.imag:.17g},{rp.real:.17g},{rp.imag:.17g},"
            f"{rm.real:.17g},{rm.imag:.17g},{sd.unitarity_residual[i]:.6g}"
        )
    tol = float(rc.data["tolerances"]["unitarity"])
    worst = float(np.max(sd.unitarity_residual))
    report = {
        "potential": pot.label,
        "max_unitarity_residual": worst,
        "unitarity_tolerance": tol,
        "wronskian_spread": sd.wronskian_spread,
        "resonant": bool(sd.resonance.resonant),
        "bound_states": [
            {"kappa": b.kappa, "energy": b.energy} for b in sd.bound_states
        ],
        "passed": worst <= tol,
    }
    _atomic_write(out / "scattering.csv", "\n".join(lines) + "\n")
    _atomic_write(out / "scatter_report.json", _json_text(report))
    return 0 if report["passed"] else 1


def cmd_resonance(rc: RunConfig, out: Path) -> int:
    pot = rc.potential()
    rep = classify_resonance(pot, rtol=rc.rtol, atol=rc.atol)
    # the k → 0 extrapolation of the computed T, R± against the threshold
    # values the classification derived from γ
    tol = float(rc.data["tolerances"]["resonance_algebra"])
    # γ, with f₊(·,0) = γf₋(·,0), exists only at a resonance
    report = {
        "potential": rep.label,
        "resonant": rep.resonant,
        "ambiguous": rep.ambiguous,
        "w0": rep.w0,
        "w0_scale": rep.scale,
        "gamma": rep.gamma if rep.resonant else None,
        "gamma_consistency": rep.gamma_consistency if rep.resonant else None,
        "T0": _c(rep.T0),
        "R0_plus": _c(rep.R0_plus),
        "R0_minus": _c(rep.R0_minus),
        "limit_consistency": rep.limit_consistency,
        "limit_tolerance": tol,
        "passed": (not rep.ambiguous) and rep.limit_consistency <= tol,
    }
    _atomic_write(out / "resonance.json", _json_text(report))
    return 0 if report["passed"] else 1


def cmd_kernels(rc: RunConfig, out: Path) -> int:
    from . import kernels  # loads scipy.interpolate, which no other stage needs

    pot = rc.potential()
    rows = np.asarray(rc.data["grids"]["kernel_rows"], dtype=float)
    _, jp, jm = scattering_data(
        pot, rc.k_grid(), rtol=rc.rtol, atol=rc.atol, extra_x=rows, with_bound_states=False
    )
    tol = float(rc.data["tolerances"]["kernel_identity"])
    report, passed = {}, True
    for tag, jf in (("plus", jp), ("minus", jm)):
        kt = kernels.kd_kernels(kernels.b_kernel(jf, pot=pot), jf, pot=pot)
        rf = kernels.resonance_functionals(jf, pot)
        _atomic_write(out / f"kernel_{tag}.csv", kernels.kernel_table_csv(kt))
        # roundtrip_residual is reported only: it does not enter `passed`
        extra = {
            "bound_margins": kernels.kernel_bound_report(kt, pot),
            "roundtrip_residual": kernels.roundtrip_residual(kt, jf),
        }
        report[tag] = kernels.functionals_json(rf, extra=extra)
        passed = passed and rf.identity_residual <= tol
    report["identity_tolerance"] = tol
    report["passed"] = passed
    _atomic_write(out / "kernels_report.json", _json_text(report))
    return 0 if passed else 1


def cmd_wiener(rc: RunConfig, out: Path) -> int:
    wopts = rc.data["wiener"]
    orders = wopts["derivative_orders"]
    taper = float(wopts["taper_frac"])
    checks = [
        (("wiener.derivative_orders",), lambda: _check_max_order(orders)),
        (("wiener.taper_frac",), lambda: _taper(rc.k_grid(), taper)),
    ]
    if not _config_ok(rc, checks):
        return 2
    pot = rc.potential()
    # the wiener artifacts read no bound state
    sd, _, _ = scattering_data(pot, rc.k_grid(), rtol=rc.rtol, atol=rc.atol, with_bound_states=False)
    k = sd.k_grid
    i0 = int(np.argmin(np.abs(k)))
    rows = []
    for name, vals, limit in (
        ("T-1", sd.T, 1.0),
        ("R_plus", sd.R_plus, 0.0),
        ("R_minus", sd.R_minus, 0.0),
    ):
        for order, est in enumerate(
            derivative_a_norms(k, vals, orders, limit, taper_frac=taper)
        ):
            rows.append((name, order, est))
    for name, vals in (("(T-T0)/k", sd.T), ("(Rp-Rp0)/k", sd.R_plus), ("(Rm-Rm0)/k", sd.R_minus)):
        est = difference_quotient_norm(k, vals, vals[i0], taper_frac=taper)
        rows.append((name, 0, est))
    lines = ["quantity,order,a1_norm,hat_l1,tail_fraction,window_growth,converged"]
    for name, order, est in rows:
        lines.append(
            f"{name},{order},{est.a1_norm:.12g},{est.hat_l1:.12g},"
            f"{est.tail_fraction:.6g},{est.window_growth:.6g},{int(est.converged)}"
        )
    all_converged = all(est.converged for _, _, est in rows)
    passed = all_converged or not bool(wopts["require_converged"])
    report = {
        "potential": pot.label,
        "all_converged": all_converged,
        "require_converged": bool(wopts["require_converged"]),
        "passed": passed,
    }
    _atomic_write(out / "wiener.csv", "\n".join(lines) + "\n")
    _atomic_write(out / "wiener_report.json", _json_text(report))
    return 0 if passed else 1


def cmd_decay(rc: RunConfig, out: Path) -> int:
    t = rc.data["times"]
    tol = rc.data["tolerances"]
    x_grid, k_grid = rc.x_grid(), rc.k_grid()
    ts = np.geomspace(float(t["t_min"]), float(t["t_max"]), t["count"])
    # the exterior proxy's lattice, the fit's times and the kernel rule's
    # times at the widest separation, each checked before any solve
    checks = [
        (("grids.x_max", "grids.x_step"), lambda: _growth_lattice(x_grid)),
        (("times.t_min", "times.t_max", "times.count"), lambda: _check_fit_times(ts)),
        (
            ("times.t_min", "times.t_max", "grids.k_max", "grids.x_max"),
            lambda: _check_times(ts, k_grid, float(x_grid[-1] - x_grid[0])),
        ),
    ]
    if not _config_ok(rc, checks):
        return 2
    pd = prepare_propagator(rc.potential(), x_grid, k_grid, rtol=rc.rtol, atol=rc.atol)
    rep = run_experiment(
        pd,
        t_window=(float(t["t_min"]), float(t["t_max"])),
        n_times=t["count"],
        sigma=float(rc.data["sigma"]),
    )
    in_window = float(tol["exponent_low"]) <= rep.fitted_exponent <= float(tol["exponent_high"])
    control_ok = rep.control_exponent is None or rep.control_exponent < tol["control_exponent_max"]
    passed = in_window and control_ok and not rep.error_dominated
    # runtime_seconds stays out of the artifacts: outputs must byte-reproduce
    report = {
        "potential": rep.potential_label,
        "resonant": rep.resonant,
        "sigma": rep.sigma,
        "times": [float(v) for v in rep.times],
        "weighted_norms": [float(v) for v in rep.weighted_norms],
        "fitted_exponent": rep.fitted_exponent,
        "confidence": rep.confidence,
        "fit_window": list(rep.fit_window),
        "grid_spec": rep.grid_spec,
        "control_exponent": rep.control_exponent,
        "exterior_coefficient": rep.exterior_coefficient,
        "error_dominated": rep.error_dominated,
        "exponent_window": [float(tol["exponent_low"]), float(tol["exponent_high"])],
        "passed": passed,
    }
    lines = ["t,weighted_norm,error_ratio"]
    for tv, nv, ev in zip(rep.times, rep.weighted_norms, rep.error_ratios):
        lines.append(f"{tv:.17g},{nv:.17g},{ev:.6g}")
    _atomic_write(out / "decay_norms.csv", "\n".join(lines) + "\n")
    _atomic_write(out / "decay_report.json", _json_text(report))
    return 0 if passed else 1


# ---------------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="scatterlab",
        description="1D Schrödinger scattering lab: scattering data, resonance "
        "classification, kernel tables, Wiener-algebra estimates, decay fits.",
    )
    parser.add_argument("command", choices=("catalog",) + STAGES)
    parser.add_argument("--config", default=None, help="JSON config (layered over defaults)")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument(
        "--override",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="patch one config key (dotted path, JSON value); repeatable",
    )
    args = parser.parse_args(argv)

    try:
        rc = RunConfig.load(args.config, args.override)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if args.command == "catalog":
        out = Path(args.out) if args.out else Path(rc.data["out_dir"])
        return cmd_catalog(out)

    if args.command not in rc.data["stages"]:
        print(f"stage {args.command!r} is disabled in config", file=sys.stderr)
        return 2

    out = Path(args.out) if args.out else Path(rc.data["out_dir"]) / rc.label_slug()
    out.mkdir(parents=True, exist_ok=True)
    handler = {
        "scatter": cmd_scatter,
        "resonance": cmd_resonance,
        "kernels": cmd_kernels,
        "wiener": cmd_wiener,
        "decay": cmd_decay,
    }[args.command]
    code = handler(rc, out)
    artifacts = [p.name for p in out.iterdir() if p.is_file() and p.name != "manifest.json"]
    _write_manifest(out, args.command, rc.data, artifacts)
    print(f"{args.command}: wrote {len(artifacts)} artifact(s) to {out} (exit {code})")
    return code


if __name__ == "__main__":
    sys.exit(main())
