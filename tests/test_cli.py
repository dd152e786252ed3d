from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from scatterlab import cli, scattering
from scatterlab.cli import main
from scatterlab.potentials import catalog
from scatterlab.scattering import classify_resonance


def test_catalog_writes_tail_bound(tmp_path):
    assert main(["catalog", "--out", str(tmp_path)]) == 0
    entries = {e["name"]: e for e in json.loads((tmp_path / "catalog.json").read_text())}
    tail = entries["square_well"]["tail"]
    assert tail["kind"] == "compact"
    assert tail["radius"] == 1.0  # the well's half-width a
    assert entries["poeschl_teller"]["tail"]["rate"] == 2.0


def test_unknown_config_key_exits_2(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"grids": {"x_stepp": 0.5}}))
    assert main(["scatter", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2


def test_unknown_potential_parameter_exits_2(tmp_path, capsys):
    for name in ("poeschl_teller", "square_well"):
        args = ["scatter", "--out", str(tmp_path / name)]
        args += ["--override", f"potential.name={name}", "--override", "potential.params.foo=1"]
        assert main(args) == 2
        assert "foo" in capsys.readouterr().err


def test_scaled_spec_runs_through_resonance(tmp_path):
    cfg = tmp_path / "config.json"
    base = {"name": "poeschl_teller", "params": {}}
    cfg.write_text(json.dumps({"potential": {"name": "scaled", "params": {"base": base, "s": 0.5}}}))
    out = tmp_path / "out"
    assert main(["resonance", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "resonance.json").read_text())
    assert report["potential"] == "scaled(poeschl_teller,s=0.5)"
    assert not report["resonant"]


def test_square_well_note_matches_classification():
    # the well has width 2a: zero energy is resonant when √v₀·a is a multiple
    # of π/2 (odd zero modes at odd multiples, even ones at multiples of π)
    fact = cli._CATALOG_NOTES["square_well"][0]["fact"]
    assert "sqrt(v0)*a = n*pi/2, n >= 1" in fact
    for root_v0_a, resonant in ((np.pi / 2, True), (np.pi, True), (1.5 * np.pi, True), (np.pi - 0.05, False)):
        rep = classify_resonance(catalog("square_well", a=1.0, v0=root_v0_a**2))
        assert rep.resonant == resonant and not rep.ambiguous, root_v0_a


def test_non_resonant_report_has_no_gamma(tmp_path):
    # γ is the ratio f₊(·,0)/f₋(·,0); it exists only at a resonance
    out = tmp_path / "out"
    assert main(["resonance", "--override", "potential.name=gaussian_well", "--out", str(out)]) == 0
    report = json.loads((out / "resonance.json").read_text())
    assert not report["resonant"]
    assert report["gamma"] is None and report["gamma_consistency"] is None
    assert report["passed"]


def test_resonance_gate_fails_on_a_wrong_gamma(tmp_path, monkeypatch):
    # T(0), R±(0) follow from γ; the gate compares them with the independent
    # k → 0 extrapolation of the computed T, R±.  Dividing h₋(·,0) and
    # h′₋(·,0) by 1.01 leaves a solution, so W stays constant across the
    # rows, but puts γ 1% off, which moves R±(0) of the sech² well by about
    # 1e-2.
    assert main(["resonance", "--out", str(tmp_path / "ok")]) == 0
    solve = scattering.compute_h_pair

    def off_gamma(pot, x_grid, k_grid, **kwargs):
        jp, jm = solve(pot, x_grid, k_grid, **kwargs)
        h, hp = jm.h.copy(), jm.h_prime.copy()
        h[:, jm.k_grid == 0.0] /= 1.01
        hp[:, jm.k_grid == 0.0] /= 1.01
        return jp, replace(jm, h=h, h_prime=hp)

    monkeypatch.setattr(scattering, "compute_h_pair", off_gamma)
    out = tmp_path / "off"
    assert main(["resonance", "--out", str(out)]) == 1
    report = json.loads((out / "resonance.json").read_text())
    assert report["resonant"] and not report["passed"]
    assert report["limit_consistency"] > 1e-3


# linspace(−5, 5, 155) leaves its middle node at −8.9e-16, not 0; the sech²
# well is reflectionless, so R±(0) = 0 there, where 2ik/W gives R₊ ≈ −1
_K_155 = ["--override", "grids.scatter_k_max=5", "--override", "grids.scatter_k_count=155"]


def test_scatter_sets_the_near_zero_k_node_to_zero(tmp_path):
    assert main(["scatter", "--out", str(tmp_path), *_K_155]) == 0
    rows = np.loadtxt(tmp_path / "scattering.csv", delimiter=",", skiprows=1)
    row = rows[77]
    assert row[0] == 0.0
    assert abs(complex(row[1], row[2]) + 1.0) < 1e-8  # T(0) = −1
    assert np.max(np.abs(row[3:7])) < 1e-8  # R±(0) = 0


def test_wiener_quotients_use_the_exact_zero_k_node(tmp_path):
    args = ["wiener", "--out", str(tmp_path)]
    args += ["--override", "grids.k_max=5", "--override", "grids.k_count=155"]
    main(args)  # exits 1: norms of pure roundoff (R± of this well) do not converge
    lines = (tmp_path / "wiener.csv").read_text().splitlines()
    norms = {ln.split(",")[0]: float(ln.split(",")[2]) for ln in lines[1:] if "/k" in ln}
    assert norms["(Rp-Rp0)/k"] < 1e-6 and norms["(Rm-Rm0)/k"] < 1e-6


@pytest.mark.parametrize("frac", ["0", "1"])
def test_wiener_runs_at_both_ends_of_the_taper_fraction(tmp_path, frac):
    # no taper and a taper over the whole window are both fractions in
    # [0, 1]; on the square well both converge (T − 1 hat_l1 2.114, 2.008)
    args = ["wiener", "--out", str(tmp_path), "--override", "potential.name=square_well"]
    assert main(args + ["--override", f"wiener.taper_frac={frac}"]) == 0
    assert (tmp_path / "wiener.csv").exists()


def test_decay_grid_off_the_growth_lattice_exits_2_before_any_solve(tmp_path, capsys, monkeypatch):
    # step 0.4 misses x = -5 of the exterior proxy's integer lattice; the
    # stage must say so before preparing the propagator
    def no_solve(*args, **kwargs):
        raise AssertionError("prepare_propagator ran")

    monkeypatch.setattr(cli, "prepare_propagator", no_solve)
    args = ["decay", "--out", str(tmp_path)]
    for kv in ("grids.x_step=0.4", "grids.k_max=20", "grids.k_count=2001"):
        args += ["--override", kv]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "grids.x_step=0.4" in err and "x=-5 " in err
    assert not (tmp_path / "decay_report.json").exists()


@pytest.mark.parametrize(
    "stage, overrides",
    [
        ("decay", ["times.count=7"]),  # decay_fit needs 8 samples
        ("decay", ["times.t_max=300"]),  # ... spanning 1.5 decades
        ("decay", ["times.t_min=0.5"]),  # the kernel rule needs t >= 1
        ("decay", ["grids.k_max=0.5"]),  # 2 t_min k_max <= 2 x_max: no tail bound
        ("decay", ["times.t_min=1", "grids.k_max=8"]),  # the same, at equality
        ("wiener", ["wiener.derivative_orders=4"]),
        ("wiener", ["wiener.derivative_orders=-1"]),
        ("decay", ["times.count=12.9"]),  # int() would run 12 times
        ("wiener", ["wiener.derivative_orders=2.5"]),  # ... and orders 0-2
        ("decay", ["times.t_max=2.1e+06"]),  # past the panel tables' refinement budget
        ("wiener", ["wiener.taper_frac=1.5"]),  # the taper is a fraction in [0, 1]
        ("wiener", ["wiener.taper_frac=-0.5"]),
    ],
)
def test_config_errors_exit_2_before_any_solve(tmp_path, capsys, monkeypatch, stage, overrides):
    # each value passes RunConfig.validate but breaks a rule of the stage's
    # library call; the stage checks that rule on the config first
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran")

    monkeypatch.setattr(cli, "prepare_propagator", no_solve)
    monkeypatch.setattr(cli, "scattering_data", no_solve)
    args = [stage, "--out", str(tmp_path)]
    for kv in overrides:
        args += ["--override", kv]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert all(kv in err for kv in overrides)
    assert not (tmp_path / f"{stage}_report.json").exists()


@pytest.mark.parametrize(
    "stage, override",
    [
        ("resonance", "sigma=abc"),
        ("resonance", 'grids.x_max="8"'),
        ("resonance", "times.t_min=null"),
        ("resonance", "tolerances.unitarity=true"),  # a bool is not 1.0
        ("resonance", "grids.k_max=NaN"),
        ("kernels", "grids.kernel_rows=3"),
        ("kernels", 'grids.kernel_rows=[0, "1"]'),
        ("wiener", 'wiener.taper_frac="x"'),
        ("wiener", "wiener.require_converged=1"),
    ],
)
def test_malformed_config_values_exit_2_before_any_solve(tmp_path, capsys, monkeypatch, stage, override):
    # a value of the wrong JSON kind is a config error naming its key, not a
    # traceback (exit 1 means a residual exceeded its tolerance)
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran")

    for name in ("prepare_propagator", "scattering_data", "classify_resonance"):
        monkeypatch.setattr(cli, name, no_solve)
    assert main([stage, "--out", str(tmp_path), "--override", override]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and override.split("=")[0] in err


def test_sampled_csv_spec_runs_and_a_missing_file_exits_2(tmp_path, capsys):
    xs = np.linspace(-10.0, 10.0, 201)
    path = tmp_path / "well.csv"
    np.savetxt(path, np.column_stack([xs, -2.0 / np.cosh(xs) ** 2]), delimiter=",")
    args = ["resonance", "--override", "potential.name=sampled"]
    out = tmp_path / "out"
    assert main(args + ["--override", f"potential.params.csv={path}", "--out", str(out)]) != 2
    assert json.loads((out / "resonance.json").read_text())["potential"] == "sampled(n=201)"
    missing = tmp_path / "missing.csv"
    assert main(args + ["--override", f"potential.params.csv={missing}", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"config error: {missing} not found" in err


def test_sampled_spec_with_explicit_tail_bound_runs_through_resonance(tmp_path, capsys):
    # the automatic exponential fit of these samples overflows (coef = inf);
    # an explicit tail bound in the config lets the stage run (its own
    # limit check may fail on so odd a potential; that is not under test)
    args = ["resonance", "--override", "potential.name=sampled"]
    args += ["--override", 'potential.params={"x":[100,101,102,103],"v":[1,4.5e-5,2e-9,9.4e-14]}']
    assert main(args + ["--out", str(tmp_path / "fit")]) == 2
    assert "pass an explicit TailBound" in capsys.readouterr().err
    bound = {"kind": "exp", "radius": 103.0, "coef": 1.0, "rate": 10.0}
    out = tmp_path / "bound"
    assert main(args + ["--override", f"potential.tail_bound={json.dumps(bound)}", "--out", str(out)]) != 2
    assert json.loads((out / "resonance.json").read_text())["potential"] == "sampled(n=4)"
    assert json.loads((out / "manifest.json").read_text())["config"]["potential"]["tail_bound"] == bound
    bad = dict(bound, kind="gaussian")
    assert main(args + ["--override", f"potential.tail_bound={json.dumps(bad)}", "--out", str(tmp_path / "bad")]) == 2
    assert "tail bound kind" in capsys.readouterr().err


def test_kernels_report_carries_the_roundtrip_residual(tmp_path, monkeypatch):
    args = ["kernels", "--override", "potential.name=square_well", "--out"]
    assert main(args + [str(tmp_path / "ok")]) == 0
    report = json.loads((tmp_path / "ok" / "kernels_report.json").read_text())
    for side in ("plus", "minus"):
        assert 0.0 < report[side]["roundtrip_residual"] < 1e-6
    # the residual is reported, not gated
    monkeypatch.setattr(cli, "roundtrip_residual", lambda kt, jf: 1.0)
    assert main(args + [str(tmp_path / "off")]) == 0
    report = json.loads((tmp_path / "off" / "kernels_report.json").read_text())
    assert report["passed"] and report["plus"]["roundtrip_residual"] == 1.0
